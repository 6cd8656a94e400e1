"""Round trips and failure modes of the document formats."""

import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from sparta.io import (
    CONVERGENCE_HEADER,
    INSTANCE_SCHEMA,
    SOLUTION_SCHEMA,
    instance_from_document,
    instance_to_document,
    read_assignment,
    read_convergence_csv,
    read_instance,
    read_solution,
    write_assignment,
    write_convergence_csv,
    write_instance,
    write_solution,
)
from sparta.lp import DocumentFormatError
from sparta.solution import SystemSolution

from _factories import (
    heat_and_power_instance,
    line_instance,
    looped_line_instance,
    single_node_instance,
)


def _assert_instances_equal(a, b):
    assert [p.id for p in a.products] == [p.id for p in b.products]
    assert [c.id for c in a.components] == [c.id for c in b.components]
    assert [n.id for n in a.nodes] == [n.id for n in b.nodes]
    assert [e.id for e in a.edges] == [e.id for e in b.edges]
    assert [t.id for t in a.time_steps] == [t.id for t in b.time_steps]
    assert a.years == b.years
    np.testing.assert_allclose(a.demand, b.demand)
    np.testing.assert_allclose(a.availability, b.availability)
    np.testing.assert_allclose(a.existing_production, b.existing_production)
    np.testing.assert_allclose(a.existing_grid, b.existing_grid)
    assert a.ghg_limit == b.ghg_limit
    assert a.interest_rate == b.interest_rate
    for pa, pb in zip(a.products, b.products):
        assert pa.transportable == pb.transportable
        assert pa.import_allowed == pb.import_allowed
        if pa.import_cost is None:
            assert pb.import_cost is None
        else:
            np.testing.assert_allclose(pa.import_cost, pb.import_cost)
        assert pa.secured_capacity_system == pb.secured_capacity_system
    for ca, cb in zip(a.components, b.components):
        assert ca.kind == cb.kind
        assert ca.ratio == cb.ratio
        np.testing.assert_allclose(ca.invest_cost, cb.invest_cost)
        assert ca.op_cost == cb.op_cost
        assert ca.op_emission == cb.op_emission
        assert ca.lifetime == cb.lifetime
        assert ca.capacity_factor == cb.capacity_factor
        assert ca.nodal_capacity_limit == cb.nodal_capacity_limit
        assert ca.grid_efficiency == cb.grid_efficiency
        assert ca.susceptance_per_line == cb.susceptance_per_line
        assert ca.transport_mode == cb.transport_mode


@pytest.mark.parametrize("make", [
    single_node_instance,
    lambda: line_instance("transshipment", efficiency=0.98, import_price=12.0),
    lambda: heat_and_power_instance("dc"),
])
def test_instance_round_trip(tmp_path, make):
    instance = make()
    path = tmp_path / "inst.json"
    write_instance(instance, path)
    again = read_instance(path)
    _assert_instances_equal(instance, again)


def test_instance_document_is_plain_json(tmp_path):
    instance = heat_and_power_instance("transshipment")
    doc = instance_to_document(instance)
    # every value must survive a strict json cycle
    again = json.loads(json.dumps(doc))
    assert again["schema"] == INSTANCE_SCHEMA
    _assert_instances_equal(instance, instance_from_document(again))


def test_infinite_ghg_limit_is_null(tmp_path):
    instance = single_node_instance()
    doc = instance_to_document(instance)
    assert doc["ghg_limit"] is None
    assert math.isinf(instance_from_document(doc).ghg_limit)


def test_wrong_schema_rejected():
    doc = instance_to_document(single_node_instance())
    doc["schema"] = "sparta-instance/99"
    with pytest.raises(DocumentFormatError, match="schema"):
        instance_from_document(doc)


def test_missing_field_named():
    doc = instance_to_document(single_node_instance())
    del doc["time_steps"]
    with pytest.raises(DocumentFormatError, match="time_steps"):
        instance_from_document(doc)


def test_bad_number_named():
    doc = instance_to_document(single_node_instance())
    doc["components"][0]["op_cost"] = "cheap"
    with pytest.raises(DocumentFormatError, match=r"components\[0\].op_cost"):
        instance_from_document(doc)


def test_demand_shape_mismatch_rejected():
    doc = instance_to_document(single_node_instance())
    doc["demand"] = [[[1.0, 2.0]]]
    with pytest.raises(DocumentFormatError, match="demand"):
        instance_from_document(doc)


def test_unparseable_file_rejected(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not valid")
    with pytest.raises(DocumentFormatError):
        read_instance(path)


def test_solution_round_trip(tmp_path):
    sol = SystemSolution(
        capacity_expansion={("gen", "n1"): 8.0},
        grid_expansion={("wire", "e1"): 2.5},
        production={("gen", "n1", "t0"): 8.0, ("gen", "n1", "t1"): 7.0},
        flows={("wire", "e1", "t0"): -3.25},
        imports={("power", "t0"): 0.5},
        exports={("power", "n1", "t0"): 3.25, ("power", "n2", "t0"): -3.25},
        angles={("wire", "n1", "t0"): 0.0, ("wire", "n2", "t0"): -3.25},
        tac=560.0, capex_prod=480.0, capex_grid=48.0, opex=32.0, ghg=160.0,
    )
    path = tmp_path / "sol.json"
    write_solution(sol, path)
    again = read_solution(path)
    assert again == sol


def test_solution_requires_tac():
    with pytest.raises(DocumentFormatError, match="tac"):
        read_solution_doc({"schema": SOLUTION_SCHEMA})


def read_solution_doc(doc):
    from sparta.io import solution_from_document
    return solution_from_document(doc)


def test_solution_rejects_shallow_nesting():
    doc = {"schema": SOLUTION_SCHEMA, "tac": 1.0,
           "production": {"gen": {"n1": 4.0}}}
    with pytest.raises(DocumentFormatError, match="production"):
        read_solution_doc(doc)


def test_convergence_round_trip(tmp_path):
    history = [
        SimpleNamespace(k_requested=4, k_effective=5, tac_lb=90.0, tac_ub=110.0,
                        epsilon=0.2222222, wall_lb_s=0.01, wall_ub_s=0.02),
        SimpleNamespace(k_requested=8, k_effective=8, tac_lb=95.0, tac_ub=99.0,
                        epsilon=0.0421053, wall_lb_s=0.03, wall_ub_s=0.05),
    ]
    path = tmp_path / "conv.csv"
    write_convergence_csv(history, path)
    first_line = path.read_text().splitlines()[0]
    assert first_line == ",".join(CONVERGENCE_HEADER)
    rows = read_convergence_csv(path)
    assert len(rows) == 2
    assert rows[0]["iter"] == 0.0
    assert rows[1]["k_effective"] == 8.0
    assert rows[1]["tac_ub"] == pytest.approx(99.0)


def test_convergence_header_enforced(tmp_path):
    path = tmp_path / "conv.csv"
    path.write_text("iteration,k\n0,4\n")
    with pytest.raises(DocumentFormatError, match="header"):
        read_convergence_csv(path)


def test_assignment_round_trip(tmp_path):
    mapping = {"n3": 0, "n1": 1, "n2": 0}
    path = tmp_path / "clusters.tsv"
    write_assignment(mapping, path)
    assert path.read_text() == "n1\t1\nn2\t0\nn3\t0\n"
    assert read_assignment(path) == mapping


def test_assignment_rejects_bad_row(tmp_path):
    path = tmp_path / "clusters.tsv"
    path.write_text("n1\t0\nn2 1\n")
    with pytest.raises(DocumentFormatError, match=":2"):
        read_assignment(path)


def test_read_instance_lists_validation_violations(tmp_path):
    path = tmp_path / "looped.json"
    write_instance(looped_line_instance(), path)
    with pytest.raises(DocumentFormatError, match="edge loop: self-loop"):
        read_instance(path)
