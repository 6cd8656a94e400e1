"""CLI tests: subcommands, artifacts, exit codes."""

import dataclasses
import json
import math

import numpy as np
import pytest

import sparta.cli as cli
from sparta import simplex
from sparta.cli import EXIT_INFEASIBLE, EXIT_NUMERIC, EXIT_OK, EXIT_VALIDATION, main
from sparta.io import (
    read_assignment,
    read_convergence_csv,
    read_instance,
    read_solution,
    write_instance,
)
from sparta.lp import UNBOUNDED, NumericBreakdownError, SolveResult
from sparta.mps import read_standard
from sparta.pipeline import read_report

import _factories as factories


@pytest.fixture
def instance_path(tmp_path):
    path = tmp_path / "instance.json"
    code = main(["gen", "--out", str(path), "--seed", "11",
                 "--nodes", "6", "--time-steps", "4"])
    assert code == EXIT_OK
    return path


def test_gen_is_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["gen", "--out", str(a), "--seed", "3"]) == EXIT_OK
    assert main(["gen", "--out", str(b), "--seed", "3"]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_gen_rejects_bad_spec(tmp_path):
    code = main(["gen", "--out", str(tmp_path / "x.json"), "--nodes", "1"])
    assert code == EXIT_VALIDATION


def test_solve_full_writes_solution(instance_path, tmp_path, capsys):
    out = tmp_path / "solution.json"
    code = main(["solve-full", "--instance", str(instance_path), "--out", str(out)])
    assert code == EXIT_OK
    assert "full-scale optimum" in capsys.readouterr().out
    assert read_solution(out).tac > 0.0


def test_export_lp_round_trips(instance_path, tmp_path):
    dump = tmp_path / "model.mps"
    code = main(["solve-full", "--instance", str(instance_path),
                 "--export-lp", str(dump)])
    assert code == EXIT_OK
    lp = read_standard(dump.read_text())
    assert lp.n_variables > 0 and lp.n_constraints > 0


def test_bounds_writes_convergence_log(instance_path, tmp_path, capsys):
    log = tmp_path / "conv.csv"
    code = main(["bounds", "--instance", str(instance_path),
                 "--epsilon", "0.3", "--out", str(log)])
    assert code == EXIT_OK
    rows = read_convergence_csv(log)
    assert len(rows) >= 1
    assert rows[-1]["epsilon"] <= 0.3
    assert "stopped: converged" in capsys.readouterr().out


def test_run_writes_all_artifacts(instance_path, tmp_path, capsys):
    out_dir = tmp_path / "artifacts"
    code = main(["run", "--instance", str(instance_path),
                 "--epsilon", "0.1", "--out-dir", str(out_dir)])
    assert code == EXIT_OK
    report = read_report(out_dir / "report.json")
    assert report.epsilon_final <= 0.1 + 1e-9
    assert report.tac_full is not None
    solution = read_solution(out_dir / "solution.json")
    assert solution.tac == pytest.approx(report.tac_final)
    benchmark = read_solution(out_dir / "benchmark_solution.json")
    assert benchmark.tac == pytest.approx(report.tac_full)
    instance = read_instance(instance_path)
    assignment = read_assignment(out_dir / "assignment.tsv")
    assert sorted(assignment) == sorted(node.id for node in instance.nodes)
    rows = read_convergence_csv(out_dir / "convergence.csv")
    assert len(rows) == report.iterations
    redesign = json.loads((out_dir / "redesign.json").read_text())
    assert len(redesign["clusters"]) == report.k_final
    assert "final: tac=" in capsys.readouterr().out


def test_run_no_benchmark_omits_full_column(instance_path, tmp_path):
    out_dir = tmp_path / "artifacts"
    code = main(["run", "--instance", str(instance_path), "--epsilon", "0.3",
                 "--out-dir", str(out_dir), "--no-benchmark"])
    assert code == EXIT_OK
    doc = json.loads((out_dir / "report.json").read_text())
    assert doc["tac_full"] is None and doc["speedup"] is None
    # the final solve can nose a hair under the stored bound at identity
    assert doc["epsilon_final"] >= -1e-9
    assert not (out_dir / "benchmark_solution.json").exists()


def test_compare_prints_both_columns(instance_path, capsys):
    code = main(["compare", "--instance", str(instance_path), "--epsilon", "0.3"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    for label in ("lower bound", "upper bound", "redesign", "final", "benchmark"):
        assert label in out
    assert "speedup" in out


def test_force_network_opt_flag(instance_path, tmp_path):
    out_dir = tmp_path / "artifacts"
    code = main(["run", "--instance", str(instance_path), "--epsilon", "0.3",
                 "--out-dir", str(out_dir), "--no-benchmark", "--force-network-opt"])
    assert code == EXIT_OK
    doc = json.loads((out_dir / "report.json").read_text())
    assert doc["network_opt_used"] is True
    assert doc["tac_final"] <= doc["tac_redesign"] + 1e-6


def test_missing_instance_is_validation_failure(capsys):
    assert main(["solve-full", "--instance", "no-such-file.json"]) == EXIT_VALIDATION
    assert "error:" in capsys.readouterr().err


def test_malformed_document_is_validation_failure(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["solve-full", "--instance", str(path)]) == EXIT_VALIDATION
    assert "error:" in capsys.readouterr().err


def test_infeasible_instance_exit_code(tmp_path):
    inst = factories.single_node_instance()
    gen = dataclasses.replace(inst.components[0], op_emission=1.0)
    inst = dataclasses.replace(inst, components=(gen,), ghg_limit=0.0)
    path = tmp_path / "hopeless.json"
    write_instance(inst, path)
    assert main(["solve-full", "--instance", str(path)]) == EXIT_INFEASIBLE
    assert main(["run", "--instance", str(path),
                 "--out-dir", str(tmp_path / "a")]) == EXIT_INFEASIBLE


def test_numeric_failure_exit_code(instance_path, monkeypatch, capsys):
    def blow_up(instance, tol=1e-7):
        raise NumericBreakdownError("pivot stall")

    monkeypatch.setattr(cli, "solve_full", blow_up)
    assert main(["solve-full", "--instance", str(instance_path)]) == EXIT_NUMERIC
    assert "pivot stall" in capsys.readouterr().err


def test_unbounded_model_exit_code(instance_path, monkeypatch, capsys):
    def unbounded(lp, *args, **kwargs):
        return SolveResult(UNBOUNDED, -math.inf, np.full(lp.n_variables, math.nan), 0, 0.0)

    monkeypatch.setattr(simplex, "solve", unbounded)
    assert main(["solve-full", "--instance", str(instance_path)]) == EXIT_NUMERIC
    assert "unbounded" in capsys.readouterr().err
    assert main(["bounds", "--instance", str(instance_path)]) == EXIT_NUMERIC
    assert "lower bound LP is unbounded" in capsys.readouterr().err


def test_bad_step_rule_is_validation_failure(instance_path):
    code = main(["bounds", "--instance", str(instance_path), "--step", "fixed:zero"])
    assert code == EXIT_VALIDATION
    code = main(["bounds", "--instance", str(instance_path), "--epsilon", "-0.5"])
    assert code == EXIT_VALIDATION


def test_unknown_flag_exits_like_validation(instance_path):
    with pytest.raises(SystemExit) as exc:
        main(["solve-full", "--instance", str(instance_path), "--frobnicate"])
    assert exc.value.code == EXIT_VALIDATION
