"""Graph kernels: PageRank, BFS, and MST (the SeBS graph applications).

Each kernel is implemented directly on adjacency structures with NumPy
where profitable; NetworkX is used for graph generation and as a
reference implementation in the tests.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    import networkx as nx


def pagerank(
    graph: nx.Graph | nx.DiGraph,
    damping: float = 0.85,
    tol: float = 1e-10,
    max_iter: int = 200,
) -> dict[object, float]:
    """Power-iteration PageRank.

    Vectorized over a CSR-style adjacency; dangling nodes redistribute
    their mass uniformly, matching the standard formulation (and
    NetworkX's reference values).
    """
    if not 0 < damping < 1:
        raise ValueError("damping must be in (0, 1)")
    nodes = list(graph.nodes())
    n = len(nodes)
    if n == 0:
        return {}
    index = {v: i for i, v in enumerate(nodes)}

    # Column-stochastic sparse structure: for each edge u->v, mass flows
    # from u to v proportionally to 1/outdeg(u).
    src, dst = [], []
    directed = graph.is_directed()
    for u, v in graph.edges():
        src.append(index[u]); dst.append(index[v])
        if not directed:
            src.append(index[v]); dst.append(index[u])
    src_arr = np.array(src, dtype=np.intp)
    dst_arr = np.array(dst, dtype=np.intp)
    outdeg = np.bincount(src_arr, minlength=n).astype(float)
    dangling = outdeg == 0
    inv_out = np.zeros(n)
    inv_out[~dangling] = 1.0 / outdeg[~dangling]

    rank = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        contrib = rank * inv_out
        new = np.bincount(dst_arr, weights=contrib[src_arr], minlength=n)
        new = damping * (new + rank[dangling].sum() / n) + (1 - damping) / n
        if np.abs(new - rank).sum() < tol:
            rank = new
            break
        rank = new
    return {v: float(rank[i]) for v, i in index.items()}


def bfs_levels(graph: nx.Graph, source: object) -> dict[object, int]:
    """Breadth-first search returning hop distance from ``source``.

    Level-synchronous frontier expansion — the formulation Graph500 (and
    hence the Green Graph500 ranking the survey asks about) uses.
    """
    if source not in graph:
        raise KeyError(f"source {source!r} not in graph")
    levels = {source: 0}
    frontier = [source]
    depth = 0
    while frontier:
        depth += 1
        next_frontier = []
        for u in frontier:
            for v in graph.neighbors(u):
                if v not in levels:
                    levels[v] = depth
                    next_frontier.append(v)
        frontier = next_frontier
    return levels


def minimum_spanning_tree(graph: nx.Graph) -> list[tuple[object, object, float]]:
    """Prim's MST with a lazy binary heap.

    Returns tree edges ``(u, v, weight)``.  Requires a connected graph;
    edges default to weight 1.0 when unweighted.
    """
    if graph.number_of_nodes() == 0:
        return []
    nodes = list(graph.nodes())
    start = nodes[0]
    visited = {start}
    heap: list[tuple[float, int, object, object]] = []
    counter = 0

    def push_edges(u: object) -> None:
        nonlocal counter
        for v, data in graph[u].items():
            if v not in visited:
                w = float(data.get("weight", 1.0))
                heapq.heappush(heap, (w, counter, u, v))
                counter += 1

    push_edges(start)
    tree: list[tuple[object, object, float]] = []
    while heap and len(visited) < len(nodes):
        w, _, u, v = heapq.heappop(heap)
        if v in visited:
            continue
        visited.add(v)
        tree.append((u, v, w))
        push_edges(v)

    if len(visited) != len(nodes):
        raise ValueError("graph is not connected; MST undefined")
    return tree


def mst_weight(graph: nx.Graph) -> float:
    """Total weight of the minimum spanning tree."""
    return sum(w for _, _, w in minimum_spanning_tree(graph))
