"""Clustering tests: features, all three methods, connectivity splitting."""

import itertools
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

import sparta.clustering
from sparta.clustering import (
    HIERARCHICAL,
    METHODS,
    ClusterAssignment,
    assignment_from_labels,
    cluster_labels,
    cluster_nodes,
    node_features,
    split_disconnected,
)
from sparta.generator import GeneratorSpec, generate
from sparta.model import DC, TRANSSHIPMENT

import _factories as factories


def _best_two_partition(points):
    """Exhaustive minimum within-cluster sum of squares over all 2-splits."""
    n = len(points)
    best, best_cost = None, np.inf
    for mask_bits in range(1, 2 ** (n - 1)):  # point 0 stays in part A
        part_a = [i for i in range(n) if ((mask_bits >> i) & 1) == 0]
        part_b = [i for i in range(n) if ((mask_bits >> i) & 1) == 1]
        if not part_a or not part_b:
            continue
        cost = 0.0
        for part in (part_a, part_b):
            centroid = points[part].mean(axis=0)
            cost += float(((points[part] - centroid) ** 2).sum())
        if cost < best_cost - 1e-12:
            best_cost = cost
            best = (tuple(part_a), tuple(part_b))
    return best


def test_features_are_coordinates():
    instance = factories.bare_topology(
        ["a", "b", "c"], [], coords={"a": (0, 0), "b": (1, 0), "c": (0, 2)})
    feats = node_features(instance)
    assert feats.tolist() == [[0, 0], [1, 0], [0, 2]]


def test_standardized_demand_column():
    instance = factories.bare_topology(["a", "b"], [("e1", "a", "b")])
    demand = np.array(instance.demand, copy=True)
    demand[0, 0, 0] = 0.0
    demand[0, 1, 0] = 2.0
    import dataclasses
    varied = dataclasses.replace(instance, demand=demand)
    feats = node_features(varied, include_demand=True)
    assert feats.shape == (2, 3)
    assert feats[:, 2].tolist() == pytest.approx([-1.0, 1.0])


def test_demand_feature_count_two_products():
    instance = factories.heat_and_power_instance()
    feats = node_features(instance, include_demand=True)
    assert feats.shape == (4, 4)


def test_two_blob_partition_matches_enumeration():
    points = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])
    want = _best_two_partition(points)
    assert set(map(frozenset, want)) == {frozenset({0, 1}), frozenset({2, 3})}
    for method in METHODS:
        labels = cluster_labels(points, 2, method, seed=3)
        got = (tuple(np.flatnonzero(labels == labels[0])),
               tuple(np.flatnonzero(labels != labels[0])))
        assert set(map(frozenset, got)) == set(map(frozenset, want)), method


def test_extreme_k_values():
    instance = factories.heat_and_power_instance()
    feats = node_features(instance)
    for method in METHODS:
        singletons = cluster_labels(feats, len(instance.nodes), method, seed=1)
        assert len(set(singletons.tolist())) == len(instance.nodes)
        single = cluster_labels(feats, 1, method, seed=1)
        assert set(single.tolist()) == {single[0]}


def test_k_out_of_range():
    feats = np.zeros((3, 2))
    with pytest.raises(ValueError):
        cluster_labels(feats, 0, "kmeans")
    with pytest.raises(ValueError):
        cluster_labels(feats, 4, "kmedoids")
    with pytest.raises(ValueError):
        cluster_labels(feats, 2, "voronoi")


def test_determinism_per_method():
    rng = np.random.default_rng(8)
    points = rng.normal(size=(14, 2))
    for method in METHODS:
        a = cluster_labels(points, 4, method, seed=77)
        b = cluster_labels(points, 4, method, seed=77)
        assert (a == b).all()


def test_assignment_canonical_ids_and_edges():
    instance = factories.bare_topology(
        ["n1", "n2", "n3", "n4"],
        [("e1", "n1", "n2"), ("e2", "n2", "n3"), ("e3", "n3", "n4")])
    assignment = assignment_from_labels(instance, np.array([5, 5, 2, 2]))
    assert assignment.cluster_of == {"n1": 0, "n2": 0, "n3": 1, "n4": 1}
    assert assignment.clusters == {0: ("n1", "n2"), 1: ("n3", "n4")}
    assert assignment.internal_edges == {0: ("e1",), 1: ("e3",)}
    assert assignment.external_edges == {0: ("e2",), 1: ("e2",)}
    assert assignment.cardinality == {0: 2, 1: 2}


def test_split_keeps_connected_cluster():
    instance = factories.bare_topology(["n1", "n2"], [("e1", "n1", "n2")])
    assignment = assignment_from_labels(instance, np.array([0, 0]))
    after = split_disconnected(instance, assignment)
    assert after.clusters == assignment.clusters


def test_split_detached_pair():
    instance = factories.bare_topology(
        ["n1", "n2", "n3"], [("e1", "n1", "n2"), ("e2", "n2", "n3")])
    assignment = assignment_from_labels(instance, np.array([0, 1, 0]))
    after = split_disconnected(instance, assignment)
    assert after.k == 3
    assert after.clusters == {0: ("n1",), 1: ("n2",), 2: ("n3",)}


def test_split_path_example():
    instance = factories.bare_topology(
        ["n1", "n2", "n3", "n4"],
        [("e1", "n1", "n2"), ("e2", "n2", "n3"), ("e3", "n3", "n4")])
    assignment = assignment_from_labels(instance, np.array([0, 0, 1, 0]))
    after = split_disconnected(instance, assignment)
    groups = set(after.clusters.values())
    assert groups == {("n1", "n2"), ("n3",), ("n4",)}


def test_split_idempotent_and_partition_property():
    rng = np.random.default_rng(31)
    for trial in range(20):
        n = int(rng.integers(4, 12))
        ids = [f"n{i}" for i in range(n)]
        edges = []
        for i in range(1, n):
            j = int(rng.integers(0, i))
            edges.append((f"e{len(edges)}", ids[j], ids[i]))
        for _ in range(int(rng.integers(0, n))):
            a, b = rng.choice(n, size=2, replace=False)
            key = (f"e{len(edges)}", ids[int(a)], ids[int(b)])
            edges.append(key)
        instance = factories.bare_topology(ids, edges)
        labels = rng.integers(0, max(2, n // 2), size=n)
        assignment = assignment_from_labels(instance, labels)
        once = split_disconnected(instance, assignment)
        twice = split_disconnected(instance, once)
        assert once.clusters == twice.clusters
        assert sum(once.cardinality.values()) == n
        for edge in instance.edges:
            ca = once.cluster_of[edge.node_a]
            cb = once.cluster_of[edge.node_b]
            if ca == cb:
                assert edge.id in once.internal_edges[ca]
            else:
                assert edge.id in once.external_edges[ca]
                assert edge.id in once.external_edges[cb]


def _split_per_cluster(instance, assignment):
    """Reference split: one connected-components call per cluster."""
    node_pos = {node.id: i for i, node in enumerate(instance.nodes)}
    labels = np.zeros(instance.n_nodes, dtype=int)
    next_id = 0
    for a in sorted(assignment.clusters):
        positions = [node_pos[m] for m in assignment.clusters[a]]
        local = {p: i for i, p in enumerate(positions)}
        rows, cols = [], []
        for eid in assignment.internal_edges[a]:
            edge = instance.edges[instance.edge_index(eid)]
            rows.append(local[node_pos[edge.node_a]])
            cols.append(local[node_pos[edge.node_b]])
        graph = sp.coo_matrix((np.ones(len(rows)), (rows, cols)),
                              shape=(len(positions), len(positions)))
        n_parts, parts = connected_components(graph, directed=False)
        for i, p in enumerate(positions):
            labels[p] = next_id + int(parts[i])
        next_id += n_parts
    return assignment_from_labels(instance, labels)


def test_split_matches_per_cluster_components():
    rng = np.random.default_rng(8)
    trials = splits = 0
    for mode in (TRANSSHIPMENT, DC):
        for n in (4, 8, 12, 16, 24):
            instance = generate(GeneratorSpec(seed=n, n_nodes=n, n_time_steps=1,
                                              transport_mode=mode))
            for _ in range(25):
                k = int(rng.integers(1, n + 1))
                assignment = assignment_from_labels(instance, rng.integers(0, k, size=n))
                after = split_disconnected(instance, assignment)
                assert after == _split_per_cluster(instance, assignment)
                trials += 1
                splits += after.k > assignment.k
    assert trials == 250 and splits >= 50


def test_cluster_nodes_end_to_end():
    instance = factories.heat_and_power_instance()
    assignment = cluster_nodes(instance, 2, "kmedoids", seed=5)
    assert isinstance(assignment, ClusterAssignment)
    assert sum(assignment.cardinality.values()) == 4
    assert assignment.k == 2


def test_pipeline_import_leaves_ward_clustering_unloaded():
    src = os.path.dirname(os.path.dirname(os.path.abspath(sparta.clustering.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    probe = ("import sys, sparta.pipeline; "
             "print(sorted(m for m in sys.modules if m.startswith('scipy.cluster')))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_hierarchical_separates_three_blobs():
    points = np.array([[0.0, 0.0], [0.5, 0.0], [20.0, 0.0], [20.0, 0.5],
                       [0.0, 20.0], [0.5, 20.5], [0.2, 19.8]])
    labels = cluster_labels(points, 3, HIERARCHICAL)
    groups = {frozenset(np.flatnonzero(labels == v).tolist()) for v in set(labels.tolist())}
    assert groups == {frozenset({0, 1}), frozenset({2, 3}), frozenset({4, 5, 6})}
    instance = factories.heat_and_power_instance()
    assignment = cluster_nodes(instance, 2, HIERARCHICAL)
    assert assignment.k == 2
    assert sum(assignment.cardinality.values()) == 4
