"""Pipeline tests: benchmark solve, phase chaining, report plumbing."""

import dataclasses
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import sparta.pipeline as pipeline
from sparta import simplex
from sparta.bounds import build_lb_lp
from sparta.clustering import assignment_from_labels, split_disconnected
from sparta.driver import SpArtaConfig, run_iterations
from sparta.full_model import build_full_lp
from sparta.generator import GeneratorSpec, generate
from sparta.lp import (
    UNBOUNDED,
    DocumentFormatError,
    InfeasibleInstanceError,
    SolveResult,
    StructurallyInfeasibleError,
    SubproblemError,
    UnboundedModelError,
)
from sparta.pipeline import (
    ComparisonReport,
    read_report,
    redesign_report_document,
    report_from_document,
    report_to_document,
    run_pipeline,
    solve_full,
    write_report,
)

import _factories as factories

TAC_FIELDS = ("tac_lb", "tac_ub", "tac_redesign", "tac_final", "tac_full")


def test_solve_full_single_node_pin():
    sol = solve_full(factories.single_node_instance())
    assert sol.tac == pytest.approx(9260.0, abs=1e-9)


def test_solve_full_zero_demand():
    sol = solve_full(factories.single_node_instance(demand=0.0))
    assert sol.tac == pytest.approx(0.0, abs=1e-9)


def test_solve_full_infeasible_emission_cap():
    inst = factories.single_node_instance()
    gen = dataclasses.replace(inst.components[0], op_emission=1.0)
    inst = dataclasses.replace(inst, components=(gen,), ghg_limit=0.0)
    with pytest.raises(InfeasibleInstanceError):
        solve_full(inst)


def test_solve_full_unbounded_raises_typed_error(monkeypatch):
    def unbounded(lp, *args, **kwargs):
        return SolveResult(UNBOUNDED, -math.inf, np.full(lp.n_variables, math.nan), 0, 0.0)

    monkeypatch.setattr(simplex, "solve", unbounded)
    with pytest.raises(UnboundedModelError, match="full-scale model is unbounded"):
        solve_full(factories.single_node_instance())


def test_run_pipeline_brackets_the_benchmark():
    inst = generate(GeneratorSpec(seed=4))
    r = run_pipeline(inst, SpArtaConfig(epsilon_target=0.05)).report
    slack = 1e-6 * r.tac_full
    assert r.tac_lb <= r.tac_full + slack
    assert r.tac_full <= r.tac_final + slack
    assert r.tac_final <= r.tac_ub + slack
    assert r.tac_final <= r.tac_redesign + slack <= r.tac_ub + 2 * slack
    assert r.epsilon_final <= 0.05 + 1e-9
    assert r.speedup is not None and r.wall_full_s is not None


@pytest.mark.parametrize("efficiency", [1.0, 0.98, 0.9])
@pytest.mark.parametrize("n_nodes", [3, 4, 5, 6, 8])
def test_run_pipeline_brackets_lossy_chains(n_nodes, efficiency):
    # producer-less nodes between the one generator and the demand, and
    # losses on every wire: two things the generator never makes
    r = run_pipeline(factories.chain_instance(n_nodes, efficiency), benchmark=True).report
    slack = 1e-6 * r.tac_full
    assert r.tac_lb <= r.tac_full + slack
    assert r.tac_full <= r.tac_final + slack
    assert r.tac_final <= r.tac_ub + slack


def test_structural_checks_run_at_the_entry_points_not_in_the_builders():
    # with the wire gone, no producer can reach the demand at n2
    inst = factories.line_instance()
    cut = dataclasses.replace(inst, edges=(), existing_grid=np.zeros((1, 0, 0)))
    build_full_lp(cut)
    build_lb_lp(cut, split_disconnected(cut, assignment_from_labels(cut, np.zeros(2, int))))
    with pytest.raises(StructurallyInfeasibleError, match="'n2'"):
        solve_full(cut)
    with pytest.raises(StructurallyInfeasibleError, match="'n2'"):
        run_iterations(cut)


def test_run_pipeline_no_benchmark():
    inst = generate(GeneratorSpec(seed=4, n_nodes=6, n_time_steps=4))
    result = run_pipeline(inst, SpArtaConfig(epsilon_target=0.3), benchmark=False)
    r = result.report
    assert r.tac_full is None and r.wall_full_s is None and r.speedup is None
    assert result.full_solution is None
    assert math.isfinite(r.epsilon_bounds) and math.isfinite(r.epsilon_final)


def test_forced_network_opt_cannot_cost_more():
    inst = factories.heat_and_power_instance()
    base = run_pipeline(inst, SpArtaConfig(epsilon_target=0.3), benchmark=False)
    forced = run_pipeline(inst, SpArtaConfig(epsilon_target=0.3), benchmark=False,
                          force_network_opt=True)
    assert not base.report.network_opt_used
    assert forced.report.network_opt_used
    assert forced.report.tac_final <= forced.report.tac_redesign + 1e-6
    assert forced.report.tac_final <= base.report.tac_final + 1e-6


def test_dc_congestion_repaired_to_full_optimum():
    inst = factories.triangle_dc_instance()
    result = run_pipeline(inst, SpArtaConfig(
        epsilon_target=0.4, step_rule="fixed:1", max_iterations=1))
    assert result.check_status == "infeasible"
    assert result.report.network_opt_used
    assert result.report.tac_final == pytest.approx(result.report.tac_full, rel=1e-9)
    assert result.report.tac_full == pytest.approx(440.0 + 4000.0 / 4800.0)


def test_tac_fields_are_deterministic():
    inst = generate(GeneratorSpec(seed=8, n_nodes=8, n_time_steps=4))
    config = SpArtaConfig(epsilon_target=0.1)
    first = run_pipeline(inst, config).report
    second = run_pipeline(inst, config).report
    for name in TAC_FIELDS:
        assert abs(getattr(first, name) - getattr(second, name)) <= 1e-9


def test_quality_handles_zero_lower_bound():
    assert pipeline._quality(0.0, 0.0, 1e-7) == 0.0
    assert pipeline._quality(0.0, 5.0, 1e-7) == math.inf
    assert pipeline._quality(100.0, 104.0, 1e-7) == pytest.approx(0.04)


def test_report_round_trip(tmp_path):
    inst = generate(GeneratorSpec(seed=4, n_nodes=6, n_time_steps=4))
    r = run_pipeline(inst, SpArtaConfig(epsilon_target=0.3)).report
    path = tmp_path / "report.json"
    write_report(r, path)
    again = read_report(path)
    assert report_to_document(again) == report_to_document(r)


def test_report_document_rejects_bad_schema():
    with pytest.raises(DocumentFormatError):
        report_from_document({"schema": "sparta-report/0"})
    with pytest.raises(DocumentFormatError):
        report_from_document({"schema": "sparta-report/1", "tac_lb": 1.0})


def test_redesign_report_lists_every_cluster():
    inst = generate(GeneratorSpec(seed=4, n_nodes=6, n_time_steps=4))
    result = run_pipeline(inst, SpArtaConfig(epsilon_target=0.3), benchmark=False)
    doc = redesign_report_document(result.run, result.redesigns)
    assert doc["schema"] == "sparta-redesign/1"
    assert len(doc["clusters"]) == result.run.assignment.k
    members = sorted(m for entry in doc["clusters"] for m in entry["members"])
    assert members == sorted(node.id for node in inst.nodes)
    for entry in doc["clusters"]:
        assert entry["tac"] >= 0.0
        assert entry["ghg"] >= 0.0
        assert entry["expansion_added"] >= 0.0


def test_phase_failures_carry_the_phase_name(monkeypatch):
    inst = generate(GeneratorSpec(seed=4, n_nodes=6, n_time_steps=4))

    def boom(*args, **kwargs):
        raise SubproblemError("cluster 0: boom")

    monkeypatch.setattr(pipeline, "redesign_all", boom)
    with pytest.raises(SubproblemError, match="^redesign: cluster 0: boom"):
        run_pipeline(inst, SpArtaConfig(epsilon_target=0.3), benchmark=False)


def test_report_fields_mirror_stored_tacs():
    inst = generate(GeneratorSpec(seed=4, n_nodes=6, n_time_steps=4))
    r = run_pipeline(inst, SpArtaConfig(epsilon_target=0.3), benchmark=False).report
    assert r.epsilon_bounds == pytest.approx((r.tac_ub - r.tac_lb) / r.tac_lb)
    assert r.epsilon_redesign == pytest.approx((r.tac_redesign - r.tac_lb) / r.tac_lb)
    assert r.epsilon_final == pytest.approx((r.tac_final - r.tac_lb) / r.tac_lb)
    assert r.wall_sparta_s == pytest.approx(
        r.wall_bounds_s + r.wall_redesign_s + r.wall_check_s + r.wall_network_s)


def test_comparison_report_is_plain_data():
    fields = {f.name for f in dataclasses.fields(ComparisonReport)}
    assert {"tac_lb", "tac_ub", "tac_redesign", "tac_final", "tac_full",
            "epsilon_bounds", "epsilon_redesign", "epsilon_final",
            "speedup"} <= fields


def test_solve_full_rejects_an_invalid_instance():
    with pytest.raises(ValueError, match="edge loop: self-loop"):
        solve_full(factories.looped_line_instance())


def test_every_traced_binding_resolves(monkeypatch):
    # the benchmark's traced mode patches these attributes by name; a missing
    # one makes every traced run crash
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # for its dataclasses
    spec.loader.exec_module(tracing)
    for module_name, attr in tracing.SPAN_TARGETS:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), \
            f"{module_name}.{attr}"
