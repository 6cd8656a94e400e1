"""Hand-sized instances shared across test modules."""

from __future__ import annotations

import dataclasses

import numpy as np

from sparta.model import (
    DC,
    GRID,
    PRODUCTION,
    TRANSSHIPMENT,
    Component,
    Edge,
    EnergySystemInstance,
    Node,
    Product,
    TimeStep,
)


def single_node_instance(demand: float = 10.0) -> EnergySystemInstance:
    """One node, one product, one dispatchable converter, one time step."""
    return EnergySystemInstance(
        products=(Product(id="power", transportable=False),),
        components=(
            Component(
                id="gen",
                kind=PRODUCTION,
                ratio={"power": 1.0},
                invest_cost=np.array([50.0]),
                op_cost=0.1,
                lifetime=1,
                discount_period=1,
            ),
        ),
        nodes=(Node(id="n1"),),
        edges=(),
        time_steps=(TimeStep(id="t1", duration=1.0, weight=8760.0),),
        years=(2030,),
        demand=np.array([[[demand]]]),
        availability=np.ones((1, 1, 1)),
        existing_production=np.zeros((1, 1, 0)),
        existing_grid=np.zeros((0, 0, 0)),
        interest_rate=0.0,
    )


def line_instance(mode: str = TRANSSHIPMENT, efficiency: float = 1.0,
                  demand_split=(0.0, 8.0), import_price: float | None = None,
                  ghg_limit: float = float("inf"),
                  clean_gen: bool = False) -> EnergySystemInstance:
    """Two nodes joined by one edge; all generation potential sits at n1."""
    n_t = 2
    products = (
        Product(
            id="elec",
            transportable=True,
            import_allowed=import_price is not None,
            import_cost=np.full(n_t, import_price) if import_price is not None else None,
        ),
    )
    components = [
        Component(
            id="gen",
            kind=PRODUCTION,
            ratio={"elec": 1.0},
            invest_cost=np.array([60.0]),
            op_cost=0.2,
            op_emission=1.0,
            lifetime=1,
            discount_period=1,
            nodal_capacity_limit={"n2": 0.0},
        ),
        Component(
            id="wire",
            kind=GRID,
            ratio={"elec": 1.0},
            invest_cost=np.array([6.0]),
            lifetime=1,
            discount_period=1,
            grid_efficiency=efficiency,
            susceptance_per_line=1.0,
            transport_mode=mode,
        ),
    ]
    n_gens = 1
    if clean_gen:
        n_gens = 2
        components.insert(1, Component(
            id="cleangen",
            kind=PRODUCTION,
            ratio={"elec": 1.0},
            invest_cost=np.array([90.0]),
            op_cost=0.5,
            op_emission=0.0,
            lifetime=1,
            discount_period=1,
            nodal_capacity_limit={"n2": 0.0},
        ))
    demand = np.zeros((1, 2, n_t))
    demand[0, 0, :] = demand_split[0]
    demand[0, 1, :] = demand_split[1]
    return EnergySystemInstance(
        products=products,
        components=tuple(components),
        nodes=(Node(id="n1", x=0.0, y=0.0), Node(id="n2", x=1.0, y=0.0)),
        edges=(Edge(id="e1", node_a="n1", node_b="n2", length=1.0),),
        time_steps=tuple(TimeStep(id=f"t{k}", duration=1.0, weight=10.0) for k in range(n_t)),
        years=(2030,),
        demand=demand,
        availability=np.ones((n_gens, 2, n_t)),
        existing_production=np.zeros((n_gens, 2, 0)),
        existing_grid=np.zeros((1, 1, 0)),
        ghg_limit=ghg_limit,
    )


def looped_line_instance() -> EnergySystemInstance:
    """:func:`line_instance` plus an edge from n2 back to itself (invalid)."""
    inst = line_instance()
    return dataclasses.replace(
        inst, edges=inst.edges + (Edge(id="loop", node_a="n2", node_b="n2"),),
        existing_grid=np.zeros((1, 2, 0)))


def triangle_dc_instance() -> EnergySystemInstance:
    """Three nodes, three DC lines with uneven existing capacity.

    All generation potential is at n1 and the whole demand sits at n3, so the
    angle physics pushes flow across every line; the direct line n1-n3 is
    strong, the detour across n2 is weak.
    """
    products = (Product(id="elec", transportable=True),)
    components = (
        Component(
            id="gen",
            kind=PRODUCTION,
            ratio={"elec": 1.0},
            invest_cost=np.array([0.0, 40.0]),
            op_cost=0.05,
            lifetime=1,
            discount_period=1,
            nodal_capacity_limit={"n2": 0.0, "n3": 0.0},
        ),
        Component(
            id="hv",
            kind=GRID,
            ratio={"elec": 1.0},
            invest_cost=np.array([0.0, 25.0]),
            lifetime=1,
            discount_period=1,
            susceptance_per_line=1.0,
            transport_mode=DC,
        ),
    )
    demand = np.zeros((1, 3, 1))
    demand[0, 2, 0] = 8.0
    existing_grid = np.zeros((1, 3, 1))
    existing_grid[0, 0, 0] = 6.0  # n1-n3 direct
    existing_grid[0, 1, 0] = 2.0  # n2-n3
    existing_grid[0, 2, 0] = 0.1  # n1-n2
    return EnergySystemInstance(
        products=products,
        components=components,
        nodes=(Node(id="n1", x=0.0, y=0.0), Node(id="n2", x=1.0, y=0.0),
               Node(id="n3", x=0.5, y=1.0)),
        edges=(
            Edge(id="e1", node_a="n1", node_b="n3", length=1.0),
            Edge(id="e2", node_a="n2", node_b="n3", length=1.0),
            Edge(id="e3", node_a="n1", node_b="n2", length=1.0),
        ),
        time_steps=(TimeStep(id="t1", duration=1.0, weight=100.0),),
        years=(2025, 2030),
        demand=demand,
        availability=np.ones((1, 3, 1)),
        existing_production=np.zeros((1, 3, 1)),
        existing_grid=existing_grid,
    )


def chain_instance(n_nodes: int, efficiency: float = 1.0) -> EnergySystemInstance:
    """``n_nodes`` in a row joined by unit-length wires of the given efficiency.

    Generation may be built only at n0 and the demand of 100 sits at the far
    end, so every node in between is producer-less and the power crosses the
    whole chain.  Each wire already carries 200.
    """
    nodes = tuple(Node(id=f"n{i}", x=float(i), y=0.0) for i in range(n_nodes))
    edges = tuple(Edge(id=f"e{i}", node_a=f"n{i - 1}", node_b=f"n{i}", length=1.0)
                  for i in range(1, n_nodes))
    demand = np.zeros((1, n_nodes, 1))
    demand[0, -1, 0] = 100.0
    return EnergySystemInstance(
        products=(Product(id="elec", transportable=True),),
        components=(
            Component(id="gen", kind=PRODUCTION, ratio={"elec": 1.0},
                      invest_cost=np.array([0.0, 10.0]), op_cost=1.0,
                      lifetime=1, discount_period=1,
                      nodal_capacity_limit={node.id: 0.0 for node in nodes[1:]}),
            Component(id="wire", kind=GRID, ratio={"elec": 1.0},
                      invest_cost=np.array([0.0, 5.0]), lifetime=1,
                      discount_period=1, grid_efficiency=efficiency,
                      transport_mode=TRANSSHIPMENT),
        ),
        nodes=nodes,
        edges=edges,
        time_steps=(TimeStep(id="t1", duration=1.0, weight=1.0),),
        years=(2025, 2030),
        demand=demand,
        availability=np.ones((1, n_nodes, 1)),
        existing_production=np.zeros((1, n_nodes, 1)),
        existing_grid=np.full((1, n_nodes - 1, 1), 200.0),
    )


def bare_topology(node_ids, edge_spec, coords=None) -> EnergySystemInstance:
    """Topology-only instance (zero demand) for clustering and splitting tests.

    ``edge_spec`` is a list of (edge id, node a, node b) triples; ``coords``
    optionally maps node id -> (x, y).
    """
    coords = coords or {}
    nodes = tuple(Node(id=nid, x=float(coords.get(nid, (i, 0.0))[0]),
                       y=float(coords.get(nid, (i, 0.0))[1]))
                  for i, nid in enumerate(node_ids))
    edges = tuple(Edge(id=eid, node_a=a, node_b=b) for eid, a, b in edge_spec)
    n = len(nodes)
    return EnergySystemInstance(
        products=(Product(id="power", transportable=True),),
        components=(
            Component(id="gen", kind=PRODUCTION, ratio={"power": 1.0},
                      invest_cost=np.array([1.0]), lifetime=1, discount_period=1),
            Component(id="wire", kind=GRID, ratio={"power": 1.0},
                      invest_cost=np.array([1.0]), lifetime=1, discount_period=1,
                      transport_mode=TRANSSHIPMENT),
        ),
        nodes=nodes,
        edges=edges,
        time_steps=(TimeStep(id="t1", weight=1.0),),
        years=(2030,),
        demand=np.zeros((1, n, 1)),
        availability=np.ones((1, n, 1)),
        existing_production=np.zeros((1, n, 0)),
        existing_grid=np.zeros((1, len(edges), 0)),
    )


def heat_and_power_instance(mode: str = TRANSSHIPMENT) -> EnergySystemInstance:
    """Four nodes on a path; transportable power, local heat via heat pumps."""
    n_nodes, n_t = 4, 3
    products = (
        Product(id="elec", transportable=True, import_allowed=True,
                import_cost=np.array([40.0, 55.0, 47.0])),
        Product(id="heat", transportable=False,
                secured_capacity_nodal=np.array([1.0, 0.0, 2.0, 1.0]),
                secured_capacity_system=4.0),
    )
    components = (
        Component(id="ccgt", kind=PRODUCTION, ratio={"elec": 1.0},
                  invest_cost=np.array([30.0, 28.0]), op_cost=0.9, op_emission=0.4,
                  lifetime=2, discount_period=2, capacity_factor=0.95),
        Component(id="wind", kind=PRODUCTION, ratio={"elec": 1.0},
                  invest_cost=np.array([35.0, 26.0]), op_cost=0.0, op_emission=0.0,
                  lifetime=2, discount_period=2, capacity_factor=0.0),
        Component(id="heatpump", kind=PRODUCTION, ratio={"heat": 3.0, "elec": -1.0},
                  invest_cost=np.array([12.0, 10.0]), op_cost=0.05, op_emission=0.0,
                  lifetime=2, discount_period=2, capacity_factor=0.9),
        Component(id="line", kind=GRID, ratio={"elec": 1.0},
                  invest_cost=np.array([4.0, 4.0]), lifetime=2, discount_period=2,
                  grid_efficiency=0.995, susceptance_per_line=1.0, transport_mode=mode),
    )
    rng = np.random.default_rng(42)
    demand = np.zeros((2, n_nodes, n_t))
    demand[0] = rng.uniform(1.0, 4.0, size=(n_nodes, n_t))  # elec
    demand[1] = rng.uniform(0.5, 3.0, size=(n_nodes, n_t))  # heat
    availability = np.ones((3, n_nodes, n_t))
    availability[1] = rng.uniform(0.1, 0.9, size=(n_nodes, n_t))  # wind profile
    existing_production = np.zeros((3, n_nodes, 1))
    existing_production[0, 0, 0] = 3.0  # legacy gas unit at n1
    existing_grid = np.zeros((1, 3, 1))
    existing_grid[0, :, 0] = 2.0
    return EnergySystemInstance(
        products=products,
        components=components,
        nodes=tuple(Node(id=f"n{k+1}", x=float(k), y=0.0) for k in range(n_nodes)),
        edges=tuple(Edge(id=f"e{k+1}", node_a=f"n{k+1}", node_b=f"n{k+2}", length=1.0)
                    for k in range(n_nodes - 1)),
        time_steps=tuple(TimeStep(id=f"t{k}", duration=1.0, weight=2920.0) for k in range(n_t)),
        years=(2025, 2030),
        demand=demand,
        availability=availability,
        existing_production=existing_production,
        existing_grid=existing_grid,
        ghg_limit=60000.0,
        interest_rate=0.05,
    )


def uniform_ring_instance(n_nodes: int = 16, n_time_steps: int = 8) -> EnergySystemInstance:
    """Identical nodes on a ring with ample legacy wires.

    Every node shares one demand profile and one uncapped producer, and the
    existing grid dwarfs any flow a cluster could need, so aggregating nodes
    loses nothing: both bounds coincide with the full-scale optimum at any
    resolution.  Useful when a sweep needs the loop to stop at the first
    resolution it tries.
    """
    steps = np.arange(n_time_steps)
    profile = 10.0 + 2.0 * np.sin(2.0 * np.pi * steps / n_time_steps)
    demand = np.tile(profile, (n_nodes, 1))[None, :, :]
    angle = 2.0 * np.pi * np.arange(n_nodes) / n_nodes
    nodes = tuple(Node(id=f"n{i}", x=float(np.cos(a)), y=float(np.sin(a)))
                  for i, a in enumerate(angle))
    edges = tuple(Edge(id=f"e{i}", node_a=f"n{i}", node_b=f"n{(i + 1) % n_nodes}",
                       length=1.0)
                  for i in range(n_nodes))
    components = (
        Component(id="gen", kind=PRODUCTION, ratio={"elec": 1.0},
                  invest_cost=np.array([55.0, 50.0]), op_cost=0.2),
        Component(id="wire", kind=GRID, ratio={"elec": 1.0},
                  invest_cost=np.array([5.0, 5.0]), grid_efficiency=1.0,
                  transport_mode=TRANSSHIPMENT),
    )
    ample = float(n_nodes * profile.max())
    existing_grid = np.full((1, n_nodes, 1), ample)
    return EnergySystemInstance(
        products=(Product(id="elec", transportable=True),),
        components=components,
        nodes=nodes,
        edges=edges,
        time_steps=tuple(TimeStep(id=f"t{t}", duration=1.0,
                                  weight=8760.0 / n_time_steps)
                         for t in range(n_time_steps)),
        years=(2025, 2030),
        demand=demand,
        availability=np.ones((1, n_nodes, n_time_steps)),
        existing_production=np.zeros((1, n_nodes, 1)),
        existing_grid=existing_grid,
        interest_rate=0.05,
    )
