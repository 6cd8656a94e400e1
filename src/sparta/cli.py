"""Command-line front end.

Five subcommands cover the whole workflow: ``gen`` writes a synthetic
instance, ``solve-full`` runs the monolithic benchmark, ``bounds`` runs
only the bound-tightening loop for diagnostics, ``run`` executes the whole
aggregation pipeline and writes its artifacts, and ``compare`` runs the
pipeline with the benchmark forced on and prints both columns side by
side.

Exit codes: 0 success, 2 invalid input (bad flags, malformed documents,
instances failing validation, unsatisfiable generator specs), 3 infeasible
model, 4 numeric failure inside the solver.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import mps
from .clustering import HIERARCHICAL, KMEANS, KMEDOIDS
from .driver import FAST_FORWARD, SpArtaConfig, run_iterations
from .full_model import build_full_lp
from .generator import GeneratorSpec, generate
from .io import (
    read_instance,
    write_assignment,
    write_convergence_csv,
    write_instance,
    write_solution,
)
from .lp import (
    DocumentFormatError,
    GenerationError,
    InfeasibleInstanceError,
    NameCollisionError,
    NumericBreakdownError,
    SizeLimitError,
    SolutionMismatchError,
    StructurallyInfeasibleError,
    SubproblemError,
    UnboundedModelError,
)
from .model import DC, TRANSSHIPMENT, EnergySystemInstance
from .pipeline import (
    run_pipeline,
    solve_full,
    write_redesign_report,
    write_report,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INFEASIBLE = 3
EXIT_NUMERIC = 4

_VALIDATION_ERRORS = (DocumentFormatError, GenerationError, NameCollisionError,
                      ValueError, OSError)
_INFEASIBLE_ERRORS = (InfeasibleInstanceError, StructurallyInfeasibleError,
                      SubproblemError)
_NUMERIC_ERRORS = (NumericBreakdownError, UnboundedModelError, SizeLimitError,
                   SolutionMismatchError)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except _INFEASIBLE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except _NUMERIC_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparta",
        description="Minimum-cost multi-energy system synthesis by spatial aggregation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    instance_flags = argparse.ArgumentParser(add_help=False)
    instance_flags.add_argument("--instance", required=True,
                                help="instance document to solve")
    instance_flags.add_argument("--export-lp", metavar="PATH", default=None,
                                help="dump the full-scale model in exchange format")

    loop_flags = argparse.ArgumentParser(add_help=False)
    loop_flags.add_argument("--epsilon", type=float, default=0.05,
                            help="target relative gap between the bounds")
    loop_flags.add_argument("--method", default=KMEDOIDS,
                            choices=[KMEANS, KMEDOIDS, HIERARCHICAL],
                            help="node clustering method")
    loop_flags.add_argument("--step", default=FAST_FORWARD,
                            help="resolution schedule: fast-forward or fixed:<n>")
    loop_flags.add_argument("--seed", type=int, default=0,
                            help="clustering seed")

    p_gen = sub.add_parser("gen", help="write a seeded synthetic instance")
    p_gen.add_argument("--out", required=True, help="where to write the instance")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--nodes", type=int, default=12)
    p_gen.add_argument("--time-steps", type=int, default=8)
    p_gen.add_argument("--products", type=int, default=2)
    p_gen.add_argument("--non-transportable", type=int, default=1)
    p_gen.add_argument("--components", type=int, default=4)
    p_gen.add_argument("--density", type=float, default=1.5,
                       help="edges per node in the random geometric graph")
    p_gen.add_argument("--mode", default=TRANSSHIPMENT, choices=[TRANSSHIPMENT, DC])
    p_gen.set_defaults(handler=_cmd_gen)

    p_full = sub.add_parser("solve-full", parents=[instance_flags],
                            help="monolithic full-resolution benchmark solve")
    p_full.add_argument("--out", default=None, help="solution document path")
    p_full.set_defaults(handler=_cmd_solve_full)

    p_bounds = sub.add_parser("bounds", parents=[instance_flags, loop_flags],
                              help="run only the bound-tightening loop")
    p_bounds.add_argument("--out", default=None,
                          help="convergence log path (defaults next to the instance)")
    p_bounds.set_defaults(handler=_cmd_bounds)

    p_run = sub.add_parser("run", parents=[instance_flags, loop_flags],
                           help="full pipeline: bounds, redesign, checks, artifacts")
    p_run.add_argument("--jobs", type=int, default=None,
                       help="parallel cluster solves (default: one per cluster)")
    p_run.add_argument("--out-dir", default=".", help="artifact directory")
    p_run.add_argument("--no-benchmark", action="store_true",
                       help="skip the full-scale comparison solve")
    p_run.add_argument("--force-network-opt", action="store_true",
                       help="re-optimize the grid even when the design checks out")
    p_run.set_defaults(handler=_cmd_run)

    p_cmp = sub.add_parser("compare", parents=[instance_flags, loop_flags],
                           help="run the pipeline and print it against the benchmark")
    p_cmp.add_argument("--jobs", type=int, default=None)
    p_cmp.add_argument("--out-dir", default=None,
                       help="also write the run artifacts here")
    p_cmp.add_argument("--force-network-opt", action="store_true")
    p_cmp.set_defaults(handler=_cmd_compare)

    return parser


def _load(args: argparse.Namespace) -> EnergySystemInstance:
    instance = read_instance(args.instance)
    if args.export_lp:
        Path(args.export_lp).write_text(mps.export_standard(build_full_lp(instance)))
    return instance


def _config(args: argparse.Namespace) -> SpArtaConfig:
    return SpArtaConfig(epsilon_target=args.epsilon, step_rule=args.step,
                        cluster_method=args.method, seed=args.seed)


def _cmd_gen(args: argparse.Namespace) -> int:
    spec = GeneratorSpec(
        seed=args.seed, n_nodes=args.nodes, n_time_steps=args.time_steps,
        n_products=args.products, n_nontransportable=args.non_transportable,
        n_components=args.components, grid_density=args.density,
        transport_mode=args.mode,
    )
    instance = generate(spec)
    write_instance(instance, args.out)
    print(f"wrote {args.out}: {len(instance.nodes)} nodes, {len(instance.edges)} edges, "
          f"{len(instance.products)} products, {len(instance.time_steps)} steps")
    return EXIT_OK


def _cmd_solve_full(args: argparse.Namespace) -> int:
    instance = _load(args)
    solution = solve_full(instance)
    if args.out:
        write_solution(solution, args.out)
    print(f"full-scale optimum: tac={solution.tac:.6f} ghg={solution.ghg:.6f}")
    return EXIT_OK


def _cmd_bounds(args: argparse.Namespace) -> int:
    instance = _load(args)
    run = run_iterations(instance, _config(args))
    out = args.out or str(Path(args.instance).with_suffix(".convergence.csv"))
    write_convergence_csv(run.history, out)
    for rec in run.history:
        ub = f"{rec.tac_ub:.6f}" if rec.tac_ub != float("inf") else "infeasible"
        print(f"k={rec.k_effective}: lb={rec.tac_lb:.6f} ub={ub} eps={rec.epsilon:.6f}")
    print(f"stopped: {run.reason}; log in {out}")
    return EXIT_OK


def _write_artifacts(args: argparse.Namespace, result) -> None:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_convergence_csv(result.run.history, out_dir / "convergence.csv")
    write_assignment(result.run.assignment.cluster_of, out_dir / "assignment.tsv")
    write_solution(result.solution, out_dir / "solution.json")
    write_report(result.report, out_dir / "report.json")
    write_redesign_report(result.run, result.redesigns, out_dir / "redesign.json")
    if result.full_solution is not None:
        write_solution(result.full_solution, out_dir / "benchmark_solution.json")


def _print_summary(result) -> None:
    r = result.report
    print(f"bounds: k={r.k_final} lb={r.tac_lb:.6f} ub={r.tac_ub:.6f} "
          f"eps={r.epsilon_bounds:.6f} ({r.iterations} iterations)")
    print(f"redesign: tac={r.tac_redesign:.6f} over {len(result.redesigns)} clusters")
    print(f"operational check: {result.check_status}"
          + (" (grid re-optimized)" if r.network_opt_used else ""))
    print(f"final: tac={r.tac_final:.6f} quality={r.epsilon_final:.6f}")
    if r.tac_full is not None:
        above = (r.tac_final - r.tac_full) / r.tac_full if r.tac_full > 0 else 0.0
        print(f"benchmark: tac={r.tac_full:.6f} above-optimal={above:.6f} "
              f"wall={r.wall_full_s:.2f}s vs {r.wall_sparta_s:.2f}s "
              f"(speedup {r.speedup:.2f}x)")


def _cmd_run(args: argparse.Namespace) -> int:
    instance = _load(args)
    result = run_pipeline(instance, _config(args), jobs=args.jobs,
                          benchmark=not args.no_benchmark,
                          force_network_opt=args.force_network_opt)
    _write_artifacts(args, result)
    _print_summary(result)
    return EXIT_OK


def _cmd_compare(args: argparse.Namespace) -> int:
    instance = _load(args)
    result = run_pipeline(instance, _config(args), jobs=args.jobs,
                          benchmark=True,
                          force_network_opt=args.force_network_opt)
    if args.out_dir is not None:
        _write_artifacts(args, result)
    r = result.report
    rows = [
        ("lower bound", r.tac_lb, None),
        ("upper bound", r.tac_ub, r.epsilon_bounds),
        ("redesign", r.tac_redesign, r.epsilon_redesign),
        ("final", r.tac_final, r.epsilon_final),
        ("benchmark", r.tac_full, None),
    ]
    print(f"{'phase':<12} {'tac':>16} {'gap-to-lb':>10}")
    for label, tac, eps in rows:
        gap_txt = f"{eps:>10.6f}" if eps is not None else " " * 10
        print(f"{label:<12} {tac:>16.6f} {gap_txt}")
    print(f"wall: aggregated {r.wall_sparta_s:.2f}s, benchmark {r.wall_full_s:.2f}s, "
          f"speedup {r.speedup:.2f}x")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
