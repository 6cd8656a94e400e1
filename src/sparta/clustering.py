"""Spatial clustering of nodes and the connectivity repair pass.

Three interchangeable methods produce a hard partition of the node set;
afterwards :func:`split_disconnected` breaks every cluster whose members do
not hang together over internal edges, since the aggregation step treats a
cluster as one internally-connected region.  Cluster ids are canonical:
clusters are numbered by their smallest member node index, so equal
partitions always compare equal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import EnergySystemInstance

KMEANS = "kmeans"
KMEDOIDS = "kmedoids"
HIERARCHICAL = "hierarchical"
METHODS = (KMEANS, KMEDOIDS, HIERARCHICAL)


@dataclass(frozen=True)
class ClusterAssignment:
    """Partition of the node set with the induced edge classification."""

    cluster_of: dict[str, int]
    clusters: dict[int, tuple[str, ...]]
    internal_edges: dict[int, tuple[str, ...]]
    external_edges: dict[int, tuple[str, ...]]

    @property
    def k(self) -> int:
        return len(self.clusters)

    @property
    def cardinality(self) -> dict[int, int]:
        return {a: len(members) for a, members in self.clusters.items()}


def node_features(instance: EnergySystemInstance, include_demand: bool = False) -> np.ndarray:
    """(x, y) per node, optionally extended by standardized mean demand."""
    coords = np.array([[n.x, n.y] for n in instance.nodes])
    if not include_demand:
        return coords
    extra = []
    for b in range(instance.n_products):
        column = instance.demand[b].mean(axis=1)
        std = column.std()  # population deviation
        if std > 0:
            extra.append((column - column.mean()) / std)
        else:
            extra.append(np.zeros_like(column))
    return np.column_stack([coords, *extra])


def cluster_labels(features: np.ndarray, k: int, method: str, seed: int = 0) -> np.ndarray:
    """Raw cluster labels (0-based, not yet canonical) for the feature rows."""
    n = features.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range 1..{n}")
    if method == KMEANS:
        return _kmeans(features, k, seed)
    if method == KMEDOIDS:
        return _kmedoids(features, k)
    if method == HIERARCHICAL:
        if n == 1:
            return np.zeros(1, dtype=int)
        # imported here: Ward linkage pulls in scipy.cluster and scipy.spatial,
        # which the default k-medoids path never needs
        from scipy.cluster.hierarchy import fcluster, linkage

        return fcluster(linkage(features, method="ward"), k, criterion="maxclust") - 1
    raise ValueError(f"unknown clustering method {method!r}")


def cluster_nodes(instance: EnergySystemInstance, k: int, method: str, seed: int = 0,
                  include_demand: bool = False) -> ClusterAssignment:
    features = node_features(instance, include_demand=include_demand)
    labels = cluster_labels(features, k, method, seed)
    return assignment_from_labels(instance, labels)


def assignment_from_labels(instance: EnergySystemInstance, labels: np.ndarray) -> ClusterAssignment:
    """Canonicalize labels into a ClusterAssignment (ids by first appearance)."""
    order: dict[int, int] = {}
    # nodes are in declared order, so ids follow least member
    canonical = [order.setdefault(raw, len(order)) for raw in np.asarray(labels).tolist()]

    cluster_of = {node.id: a for node, a in zip(instance.nodes, canonical)}
    members: list[list[str]] = [[] for _ in order]
    for node, a in zip(instance.nodes, canonical):
        members[a].append(node.id)
    clusters = {a: tuple(m) for a, m in enumerate(members)}
    internal: dict[int, list[str]] = {a: [] for a in clusters}
    external: dict[int, list[str]] = {a: [] for a in clusters}
    for edge in instance.edges:
        ca, cb = cluster_of[edge.node_a], cluster_of[edge.node_b]
        if ca == cb:
            internal[ca].append(edge.id)
        else:
            external[ca].append(edge.id)
            external[cb].append(edge.id)
    return ClusterAssignment(
        cluster_of=cluster_of,
        clusters=clusters,
        internal_edges={a: tuple(v) for a, v in internal.items()},
        external_edges={a: tuple(v) for a, v in external.items()},
    )


def split_disconnected(instance: EnergySystemInstance,
                       assignment: ClusterAssignment) -> ClusterAssignment:
    """Break clusters apart along missing internal connectivity.

    One union-find pass over the internal edges joins each cluster's
    connected members; :func:`assignment_from_labels` then numbers the
    resulting parts canonically.
    """
    parent = list(range(instance.n_nodes))

    def root(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]  # path halving
            i = parent[i]
        return i

    for edge_ids in assignment.internal_edges.values():
        for eid in edge_ids:
            u, v = instance.edge_endpoints(instance.edge_index(eid))
            ru, rv = root(u), root(v)
            if ru != rv:
                parent[max(ru, rv)] = min(ru, rv)
    return assignment_from_labels(instance, [root(i) for i in range(instance.n_nodes)])


def _kmeans(points: np.ndarray, k: int, seed: int, starts: int = 10,
            max_iter: int = 300) -> np.ndarray:
    rng = np.random.default_rng(seed)
    best_inertia = np.inf
    best_labels: np.ndarray | None = None
    n = points.shape[0]
    for _ in range(starts):
        centroids = points[rng.choice(n, size=k, replace=False)].copy()
        labels = np.full(n, -1, dtype=int)
        for _sweep in range(max_iter):
            dist = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
            new_labels = dist.argmin(axis=1)  # argmin takes the lowest id on ties
            for a in range(k):
                if not (new_labels == a).any():
                    # revive an empty cluster at the worst-fitted point
                    errors = dist[np.arange(n), new_labels]
                    far = int(errors.argmax())
                    new_labels[far] = a
                    centroids[a] = points[far]
            if (new_labels == labels).all():
                break
            labels = new_labels
            for a in range(k):
                centroids[a] = points[labels == a].mean(axis=0)
        dist = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        inertia = float(dist[np.arange(n), labels].sum())
        if inertia < best_inertia - 1e-12:
            best_inertia = inertia
            best_labels = labels.copy()
    assert best_labels is not None
    return best_labels


def _kmedoids(points: np.ndarray, k: int) -> np.ndarray:
    """Partitioning around medoids: greedy build, then steepest-descent swaps."""
    n = points.shape[0]
    dist = np.sqrt(((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2))
    medoids: list[int] = []
    # build: each new medoid is the point cutting total assignment cost most
    for _ in range(k):
        best_cost, best_point = np.inf, -1
        for cand in range(n):
            if cand in medoids:
                continue
            chosen = medoids + [cand]
            cost = float(dist[:, chosen].min(axis=1).sum())
            if cost < best_cost - 1e-12:
                best_cost, best_point = cost, cand
        medoids.append(best_point)
    current = float(dist[:, medoids].min(axis=1).sum())
    improved = True
    while improved:
        improved = False
        best_swap, best_cost = None, current
        for mi, medoid in enumerate(medoids):
            for cand in range(n):
                if cand in medoids:
                    continue
                trial = medoids.copy()
                trial[mi] = cand
                cost = float(dist[:, trial].min(axis=1).sum())
                if cost < best_cost - 1e-12:
                    best_cost, best_swap = cost, (mi, cand)
        if best_swap is not None:
            medoids[best_swap[0]] = best_swap[1]
            current = best_cost
            improved = True
    return np.asarray(dist[:, medoids].argmin(axis=1))
