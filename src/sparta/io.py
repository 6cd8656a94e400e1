"""Document formats: instances, solutions, convergence logs, assignments.

Instances and solutions travel as JSON with explicit schema tags; the
convergence history is a plain delimited table so it can feed plots
directly.  Readers fail with the offending field named rather than letting
a KeyError surface somewhere downstream.
"""

from __future__ import annotations

import csv
import io as _io
import json
import math
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from .lp import DocumentFormatError
from .model import (
    Component,
    Edge,
    EnergySystemInstance,
    Node,
    Product,
    TimeStep,
    validate_instance,
)
from .solution import SystemSolution

INSTANCE_SCHEMA = "sparta-instance/1"
SOLUTION_SCHEMA = "sparta-solution/1"
CONVERGENCE_HEADER = ["iter", "k_requested", "k_effective", "tac_lb", "tac_ub",
                      "epsilon", "wall_lb_s", "wall_ub_s"]


def _req(doc: Mapping[str, Any], key: str, where: str) -> Any:
    if key not in doc:
        raise DocumentFormatError(f"{where}: missing required field {key!r}")
    return doc[key]


def _number(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DocumentFormatError(f"{where}: expected a number, got {value!r}")
    return float(value)


def _optional_series(value: Any, where: str) -> np.ndarray | None:
    if value is None:
        return None
    if not isinstance(value, list):
        raise DocumentFormatError(f"{where}: expected an array or null")
    return np.array([_number(v, where) for v in value])


# -- instance documents ----------------------------------------------------

def instance_to_document(instance: EnergySystemInstance) -> dict[str, Any]:
    products = []
    for p in instance.products:
        products.append({
            "id": p.id,
            "transportable": p.transportable,
            "import_allowed": p.import_allowed,
            "import_cost": None if p.import_cost is None else [float(v) for v in p.import_cost],
            "secured_capacity_nodal": (None if p.secured_capacity_nodal is None
                                       else [float(v) for v in p.secured_capacity_nodal]),
            "secured_capacity_system": p.secured_capacity_system,
        })
    components = []
    for c in instance.components:
        components.append({
            "id": c.id,
            "kind": c.kind,
            "ratio": {pid: float(v) for pid, v in c.ratio.items()},
            "invest_cost": [float(v) for v in c.invest_cost],
            "op_cost": c.op_cost,
            "op_emission": c.op_emission,
            "lifetime": c.lifetime,
            "discount_period": c.discount_period,
            "capacity_factor": c.capacity_factor,
            "nodal_capacity_limit": c.nodal_capacity_limit,
            "system_capacity_limit": c.system_capacity_limit,
            "grid_efficiency": c.grid_efficiency,
            "susceptance_per_line": c.susceptance_per_line,
            "transport_mode": c.transport_mode,
        })
    return {
        "schema": INSTANCE_SCHEMA,
        "products": products,
        "components": components,
        "nodes": [{"id": n.id, "x": n.x, "y": n.y} for n in instance.nodes],
        "edges": [{"id": e.id, "node_a": e.node_a, "node_b": e.node_b, "length": e.length}
                  for e in instance.edges],
        "time_steps": [{"id": t.id, "duration": t.duration, "weight": t.weight}
                       for t in instance.time_steps],
        "investment_years": list(instance.years),
        "demand": instance.demand.tolist(),
        "availability": instance.availability.tolist(),
        "existing_capacity": {
            "production": instance.existing_production.tolist(),
            "grid": instance.existing_grid.tolist(),
        },
        "ghg_limit": None if math.isinf(instance.ghg_limit) else instance.ghg_limit,
        "interest_rate": instance.interest_rate,
    }


def instance_from_document(doc: Mapping[str, Any]) -> EnergySystemInstance:
    schema = _req(doc, "schema", "instance document")
    if schema != INSTANCE_SCHEMA:
        raise DocumentFormatError(
            f"instance document: schema {schema!r} is not {INSTANCE_SCHEMA!r}")
    for key in ("products", "components", "nodes", "edges", "time_steps",
                "investment_years", "demand", "availability", "existing_capacity"):
        _req(doc, key, "instance document")

    products = []
    for i, p in enumerate(doc["products"]):
        where = f"products[{i}]"
        products.append(Product(
            id=str(_req(p, "id", where)),
            transportable=bool(p.get("transportable", True)),
            import_allowed=bool(p.get("import_allowed", False)),
            import_cost=_optional_series(p.get("import_cost"), f"{where}.import_cost"),
            secured_capacity_nodal=_optional_series(
                p.get("secured_capacity_nodal"), f"{where}.secured_capacity_nodal"),
            secured_capacity_system=(None if p.get("secured_capacity_system") is None
                                     else _number(p["secured_capacity_system"],
                                                  f"{where}.secured_capacity_system")),
        ))
    components = []
    for i, c in enumerate(doc["components"]):
        where = f"components[{i}]"
        ratio = _req(c, "ratio", where)
        if not isinstance(ratio, dict) or not ratio:
            raise DocumentFormatError(f"{where}.ratio: expected a non-empty mapping")
        components.append(Component(
            id=str(_req(c, "id", where)),
            kind=str(_req(c, "kind", where)),
            ratio={str(k): _number(v, f"{where}.ratio[{k}]") for k, v in ratio.items()},
            invest_cost=np.array([_number(v, f"{where}.invest_cost")
                                  for v in _req(c, "invest_cost", where)]),
            op_cost=_number(c.get("op_cost", 0.0), f"{where}.op_cost"),
            op_emission=_number(c.get("op_emission", 0.0), f"{where}.op_emission"),
            lifetime=int(c.get("lifetime", 20)),
            discount_period=int(c.get("discount_period", 20)),
            capacity_factor=_number(c.get("capacity_factor", 1.0), f"{where}.capacity_factor"),
            nodal_capacity_limit=(None if c.get("nodal_capacity_limit") is None
                                  else {str(k): _number(v, f"{where}.nodal_capacity_limit[{k}]")
                                        for k, v in c["nodal_capacity_limit"].items()}),
            system_capacity_limit=(None if c.get("system_capacity_limit") is None
                                   else _number(c["system_capacity_limit"],
                                                f"{where}.system_capacity_limit")),
            grid_efficiency=_number(c.get("grid_efficiency", 1.0), f"{where}.grid_efficiency"),
            susceptance_per_line=_number(c.get("susceptance_per_line", 0.0),
                                         f"{where}.susceptance_per_line"),
            transport_mode=c.get("transport_mode"),
        ))
    nodes = tuple(Node(id=str(_req(n, "id", f"nodes[{i}]")),
                       x=_number(n.get("x", 0.0), f"nodes[{i}].x"),
                       y=_number(n.get("y", 0.0), f"nodes[{i}].y"))
                  for i, n in enumerate(doc["nodes"]))
    edges = tuple(Edge(id=str(_req(e, "id", f"edges[{i}]")),
                       node_a=str(_req(e, "node_a", f"edges[{i}]")),
                       node_b=str(_req(e, "node_b", f"edges[{i}]")),
                       length=_number(e.get("length", 1.0), f"edges[{i}].length"))
                  for i, e in enumerate(doc["edges"]))
    steps = tuple(TimeStep(id=str(_req(t, "id", f"time_steps[{i}]")),
                           duration=_number(t.get("duration", 1.0), f"time_steps[{i}].duration"),
                           weight=_number(t.get("weight", 1.0), f"time_steps[{i}].weight"))
                  for i, t in enumerate(doc["time_steps"]))
    years = tuple(int(y) for y in doc["investment_years"])

    existing = doc["existing_capacity"]
    if not isinstance(existing, dict):
        raise DocumentFormatError("existing_capacity: expected a mapping with "
                                  "'production' and 'grid'")
    n_prod = sum(1 for c in components if c.kind != "grid")
    n_grid = len(components) - n_prod
    n_prior = len(years) - 1
    try:
        demand = np.array(doc["demand"], dtype=float)
        availability = np.array(doc["availability"], dtype=float)
        existing_production = np.array(_req(existing, "production", "existing_capacity"),
                                       dtype=float)
        existing_grid = np.array(_req(existing, "grid", "existing_capacity"), dtype=float)
    except (TypeError, ValueError) as exc:
        raise DocumentFormatError(f"dense series are ragged or non-numeric: {exc}") from exc
    existing_production = existing_production.reshape(n_prod, len(nodes), n_prior)
    existing_grid = existing_grid.reshape(n_grid, len(edges), n_prior)

    ghg = doc.get("ghg_limit")
    instance = EnergySystemInstance(
        products=tuple(products),
        components=tuple(components),
        nodes=nodes,
        edges=edges,
        time_steps=steps,
        years=years,
        demand=demand,
        availability=availability,
        existing_production=existing_production,
        existing_grid=existing_grid,
        ghg_limit=math.inf if ghg is None else _number(ghg, "ghg_limit"),
        interest_rate=_number(doc.get("interest_rate", 0.0), "interest_rate"),
    )
    _check_shapes(instance)
    return instance


def _check_shapes(instance: EnergySystemInstance) -> None:
    b, n, t = len(instance.products), len(instance.nodes), len(instance.time_steps)
    p = len(instance.production_components)
    if instance.demand.shape != (b, n, t):
        raise DocumentFormatError(
            f"demand: shape {instance.demand.shape} does not match "
            f"(products, nodes, time_steps) = {(b, n, t)}")
    if instance.availability.shape != (p, n, t):
        raise DocumentFormatError(
            f"availability: shape {instance.availability.shape} does not match "
            f"(production components, nodes, time_steps) = {(p, n, t)}")


def write_instance(instance: EnergySystemInstance, path: str | Path) -> None:
    Path(path).write_text(json.dumps(instance_to_document(instance), indent=1) + "\n")


def read_instance(path: str | Path) -> EnergySystemInstance:
    """Load an instance document, listing every validation violation if any."""
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise DocumentFormatError(f"{path}: not valid structured text: {exc}") from exc
    if not isinstance(doc, dict):
        raise DocumentFormatError(f"{path}: top level must be a mapping")
    instance = instance_from_document(doc)
    report = validate_instance(instance)
    if not report.ok:
        raise DocumentFormatError(f"{path}: " + "; ".join(report.violations))
    return instance


# -- solution documents ------------------------------------------------------

def _nest(flat: Mapping[tuple, float]) -> dict:
    out: dict = {}
    for key, value in flat.items():
        cursor = out
        for part in key[:-1]:
            cursor = cursor.setdefault(part, {})
        cursor[key[-1]] = value
    return out


def _flatten(tree: Mapping, depth: int, where: str) -> dict[tuple, float]:
    out: dict[tuple, float] = {}

    def walk(node: Any, prefix: tuple) -> None:
        if len(prefix) == depth:
            out[prefix] = _number(node, f"{where}{list(prefix)}")
            return
        if not isinstance(node, Mapping):
            raise DocumentFormatError(f"{where}{list(prefix)}: expected a mapping")
        for key, child in node.items():
            walk(child, prefix + (str(key),))

    walk(tree, ())
    return out


def solution_to_document(sol: SystemSolution) -> dict[str, Any]:
    return {
        "schema": SOLUTION_SCHEMA,
        "capacity_expansion": _nest(sol.capacity_expansion),
        "grid_expansion": _nest(sol.grid_expansion),
        "production": _nest(sol.production),
        "flows": _nest(sol.flows),
        "imports": _nest(sol.imports),
        "exports": _nest(sol.exports),
        "angles": _nest(sol.angles),
        "tac": sol.tac,
        "capex_prod": sol.capex_prod,
        "capex_grid": sol.capex_grid,
        "opex": sol.opex,
        "ghg": sol.ghg,
    }


def solution_from_document(doc: Mapping[str, Any]) -> SystemSolution:
    schema = _req(doc, "schema", "solution document")
    if schema != SOLUTION_SCHEMA:
        raise DocumentFormatError(
            f"solution document: schema {schema!r} is not {SOLUTION_SCHEMA!r}")
    return SystemSolution(
        capacity_expansion=_flatten(doc.get("capacity_expansion", {}), 2, "capacity_expansion"),
        grid_expansion=_flatten(doc.get("grid_expansion", {}), 2, "grid_expansion"),
        production=_flatten(doc.get("production", {}), 3, "production"),
        flows=_flatten(doc.get("flows", {}), 3, "flows"),
        imports=_flatten(doc.get("imports", {}), 2, "imports"),
        exports=_flatten(doc.get("exports", {}), 3, "exports"),
        angles=_flatten(doc.get("angles", {}), 3, "angles"),
        tac=_number(_req(doc, "tac", "solution document"), "tac"),
        capex_prod=_number(doc.get("capex_prod", 0.0), "capex_prod"),
        capex_grid=_number(doc.get("capex_grid", 0.0), "capex_grid"),
        opex=_number(doc.get("opex", 0.0), "opex"),
        ghg=_number(doc.get("ghg", 0.0), "ghg"),
    )


def write_solution(sol: SystemSolution, path: str | Path) -> None:
    Path(path).write_text(json.dumps(solution_to_document(sol), indent=1) + "\n")


def read_solution(path: str | Path) -> SystemSolution:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise DocumentFormatError(f"{path}: not valid structured text: {exc}") from exc
    return solution_from_document(doc)


# -- convergence log and assignment table ------------------------------------

def convergence_rows(history) -> list[list]:
    rows = []
    for i, rec in enumerate(history):
        rows.append([i, rec.k_requested, rec.k_effective, rec.tac_lb, rec.tac_ub,
                     rec.epsilon, rec.wall_lb_s, rec.wall_ub_s])
    return rows


def write_convergence_csv(history, path: str | Path) -> None:
    buffer = _io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CONVERGENCE_HEADER)
    writer.writerows(convergence_rows(history))
    Path(path).write_text(buffer.getvalue())


def read_convergence_csv(path: str | Path) -> list[dict[str, float]]:
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != CONVERGENCE_HEADER:
            raise DocumentFormatError(
                f"{path}: header {header!r} does not match {CONVERGENCE_HEADER!r}")
        return [{name: float(value) for name, value in zip(header, row)} for row in reader]


def write_assignment(cluster_of: Mapping[str, int], path: str | Path) -> None:
    lines = [f"{node}\t{cluster}" for node, cluster in sorted(cluster_of.items())]
    Path(path).write_text("\n".join(lines) + "\n")


def read_assignment(path: str | Path) -> dict[str, int]:
    out: dict[str, int] = {}
    for line_no, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise DocumentFormatError(f"{path}:{line_no}: expected two tab-separated columns")
        out[parts[0]] = int(parts[1])
    return out
