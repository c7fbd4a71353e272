"""Graphs, the Lovász theta function and its nonnegative refinement, Hamming
graphs for code bounds, and exact brute-force oracles for the sandwich
inequalities alpha <= theta' <= theta <= chi(complement)."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import FrozenSet, Iterable, List, Sequence, Tuple

import numpy as np

from soskit import sdp


@dataclass(frozen=True)
class Graph:
    n: int
    edges: FrozenSet[Tuple[int, int]]

    @staticmethod
    def from_edges(n: int, edges: Iterable[Sequence[int]]) -> "Graph":
        out = set()
        for u, v in edges:
            if u == v:
                raise ValueError("no loops in a simple graph")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range")
            out.add((min(u, v), max(u, v)))
        return Graph(n, frozenset(out))

    @staticmethod
    def empty(n: int) -> "Graph":
        return Graph(n, frozenset())

    @staticmethod
    def complete(n: int) -> "Graph":
        return Graph.from_edges(n, combinations(range(n), 2))

    @staticmethod
    def cycle(n: int) -> "Graph":
        return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])

    @staticmethod
    def parse_edge_list(text: str, n: int = None) -> "Graph":
        """One 'u v' pair per line, 0-based vertex ids."""
        edges = []
        top = -1
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            u, v = (int(t) for t in line.split())
            edges.append((u, v))
            top = max(top, u, v)
        size = n if n is not None else top + 1
        return Graph.from_edges(size, edges)

    def complement(self) -> "Graph":
        all_pairs = set(combinations(range(self.n), 2))
        return Graph(self.n, frozenset(all_pairs - set(self.edges)))

    def adjacency(self) -> List[set]:
        adj = [set() for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj

    def disjoint_union(self, other: "Graph") -> "Graph":
        shifted = {(u + self.n, v + self.n) for u, v in other.edges}
        return Graph(self.n + other.n, frozenset(set(self.edges) | shifted))


def hamming_graph(q: int, n: int, d: int) -> Graph:
    """Vertices are words of length n over a q-letter alphabet; words are
    adjacent when their Hamming distance is positive and below d, so
    independent sets are codes of minimum distance at least d."""
    if q < 2:
        raise ValueError("alphabet needs q >= 2")
    if q ** n > 4096:
        raise ValueError("Hamming graph capped at 4096 vertices")
    words = list(product(range(q), repeat=n))
    edges = []
    for i, u in enumerate(words):
        for j in range(i + 1, len(words)):
            dist = sum(1 for a, b in zip(u, words[j]) if a != b)
            if dist < d:
                edges.append((i, j))
    return Graph.from_edges(len(words), edges)


def theta_problem(g: Graph, prime: bool = False) -> sdp.SdpProblem:
    """The SDP of ``lovasz_theta``, or of ``lovasz_theta_prime`` with prime."""
    n = g.n
    rows = [sdp.LinearRow(blocks={0: np.eye(n)}, rhs=1.0, rel="==", label="trace")]
    for u, v in sorted(g.edges):
        a = np.zeros((n, n))
        a[u, v] = a[v, u] = 0.5
        rows.append(sdp.LinearRow(blocks={0: a}, rhs=0.0, rel="==", label=f"edge{u},{v}"))
    if prime:
        edge_set = set(g.edges)
        for u, v in combinations(range(n), 2):
            if (u, v) in edge_set:
                continue
            a = np.zeros((n, n))
            a[u, v] = a[v, u] = -0.5
            rows.append(sdp.LinearRow(blocks={0: a}, rhs=0.0, rel="<=", label=f"nn{u},{v}"))
    return sdp.SdpProblem(block_dims=[n], C=[np.ones((n, n))], rows=rows, sense="max")


def lovasz_theta(g: Graph, tol: float = 1e-9) -> float:
    """theta(G) = max tr(JX) : tr(X) = 1, X_uv = 0 on edges, X >= 0 (PSD)."""
    sol = sdp.solve(theta_problem(g), tol=tol)
    if sol.status != sdp.OPTIMAL:
        raise RuntimeError(f"theta solve did not converge: {sol.status}")
    return sol.primal_obj


def lovasz_theta_prime(g: Graph, tol: float = 1e-9) -> float:
    """theta'(G): theta with X additionally entrywise nonnegative."""
    sol = sdp.solve(theta_problem(g, prime=True), tol=tol)
    if sol.status != sdp.OPTIMAL:
        raise RuntimeError(f"theta' solve did not converge: {sol.status}")
    return sol.primal_obj


def brute_force_alpha(g: Graph) -> int:
    """Maximum independent set by branch and bound."""
    if g.n > 20:
        raise ValueError("alpha brute force capped at 20 vertices")
    adj = g.adjacency()
    order = sorted(range(g.n), key=lambda v: -len(adj[v]))
    best = 0

    def grow(chosen: int, banned: set, idx: int):
        nonlocal best
        remaining = [v for v in order[idx:] if v not in banned]
        if chosen + len(remaining) <= best:
            return
        if not remaining:
            best = max(best, chosen)
            return
        v = remaining[0]
        pos = order.index(v) + 1
        grow(chosen + 1, banned | adj[v] | {v}, pos)
        grow(chosen, banned | {v}, pos)

    grow(0, set(), 0)
    return best


def brute_force_chi(g: Graph) -> int:
    """Chromatic number by backtracking over increasing color counts."""
    if g.n > 20:
        raise ValueError("chi brute force capped at 20 vertices")
    if not g.edges:
        return 1 if g.n else 0
    adj = g.adjacency()
    order = sorted(range(g.n), key=lambda v: -len(adj[v]))

    def colorable(k: int) -> bool:
        colors = [-1] * g.n

        def place(idx: int) -> bool:
            if idx == g.n:
                return True
            v = order[idx]
            used = {colors[u] for u in adj[v] if colors[u] >= 0}
            cap = min(k, max([colors[order[i]] for i in range(idx)], default=-1) + 2)
            for c in range(cap):
                if c not in used:
                    colors[v] = c
                    if place(idx + 1):
                        return True
                    colors[v] = -1
            return False

        return place(0)

    for k in range(2, g.n + 1):
        if colorable(k):
            return k
    return g.n


def brute_force_alpha_chi(g: Graph) -> Tuple[int, int]:
    """(independence number, chromatic number), both exact."""
    return brute_force_alpha(g), brute_force_chi(g)
