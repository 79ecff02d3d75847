"""Shared test utilities: random permutations and small independent oracles."""

from __future__ import annotations

import numpy as np

from rxnpred.chemgraph import MolGraph


def random_permutation(rng: np.random.Generator, n: int) -> list[int]:
    return [int(x) for x in rng.permutation(n)]


def structural_wl_labels(g: MolGraph, depth: int) -> list[tuple]:
    """Hash-free relabeling oracle: labels are nested tuples."""
    labels: list[tuple] = [(a.element, a.formal_charge, a.aromatic) for a in g.atoms]
    for _ in range(depth):
        labels = [
            (labels[i], tuple(sorted((g.bonds[bi].bond_type.value, labels[nbr])
                                     for nbr, bi in g.adjacency[i])))
            for i in range(g.n_atoms)
        ]
    return labels


def bfs_connected(edges: list[tuple[int, int]]) -> bool:
    """Breadth-first connectivity oracle over the edge-touched vertices."""
    nodes = {a for e in edges for a in e}
    adj: dict[int, set[int]] = {v: set() for v in nodes}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    start = next(iter(nodes))
    seen = {start}
    queue = [start]
    while queue:
        u = queue.pop()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return seen == nodes


def graph_distance(g: MolGraph, start: int) -> list[float]:
    dist = [float("inf")] * g.n_atoms
    dist[start] = 0
    queue = [start]
    while queue:
        u = queue.pop(0)
        for nbr, _ in g.adjacency[u]:
            if dist[nbr] == float("inf"):
                dist[nbr] = dist[u] + 1
                queue.append(nbr)
    return dist
