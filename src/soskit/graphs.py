"""Graphs, the Lovász theta function and its nonnegative refinement, Hamming
graphs for code bounds, and exact brute-force oracles for the sandwich
inequalities alpha <= theta' <= theta <= chi(complement)."""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from itertools import combinations, product
from typing import FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from soskit import sdp, symmetry

log = logging.getLogger(__name__)


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
        if size < 1:
            raise ValueError("no vertices")
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


def pair_colours(g: Graph) -> np.ndarray:
    """The (n, n) colouring of vertex pairs: 0 on the diagonal, 1 on edges
    and 2 on non-edges."""
    colour = np.full((g.n, g.n), 2)
    if g.edges:
        u, v = np.array(sorted(g.edges)).T
        colour[u, v] = colour[v, u] = 1
    np.fill_diagonal(colour, 0)
    return colour


def theta_class_problem(g: Graph, prime: bool = False
                        ) -> Optional[Tuple[sdp.SdpProblem, int]]:
    """theta(G), or theta'(G) with prime, in the coherent closure of G, and
    the number of classes d; None when the closure has n or more classes.

    The closure (symmetry.coherent_closure of the colouring diagonal /
    edge / non-edge) is a coherent configuration whose classes refine the
    edge pattern, and its span is a unital *-algebra of n x n matrices
    containing J.  Averaging a matrix over each class is the
    trace-preserving conditional expectation onto that algebra: it keeps
    X PSD, keeps the sign of every entry, tr X and <J, X>, and keeps the
    zeros on edge classes, since every class lies inside the edges or
    outside them.  So the average of an optimal X is an optimal X in the
    algebra, and the problem may be solved there exactly (de Klerk,
    Pasechnik & Schrijver 2007, Math. Prog. 109, for a group's orbits).
    With X = sum_g x_g B_g over the transpose-paired groups g of
    sym_groups() (B_g the sum of E_j/sqrt(t_j) over j in g), the problem is
        max  sum_g x_g * sum_{j in g} sqrt(t_j)
        s.t. sum of x_g sqrt(t_g) over diagonal classes = 1   (trace)
             x_g >= 0 on off-diagonal non-edge classes          (theta' only)
             sum_g x_g L_g >= 0                                 (PSD)
    with no variable for an edge class, and L_g the regular
    *-representation of B_g (symmetry.orbit_basis), d x d.
    """
    if g.n < 1:
        raise ValueError("no vertices")
    colour = pair_colours(g)
    label = symmetry.coherent_closure(colour)
    if label is None:
        return None
    basis = symmetry.orbit_basis(label)
    kind = colour[tuple(basis.first.T)].tolist()     # 0 diagonal, 1 edge, 2 non-edge
    groups = [grp for grp in basis.sym_groups() if kind[grp[0]] != 1]
    root = np.sqrt(np.array(basis.sizes, dtype=float))
    rows = [sdp.LinearRow(free={v: root[grp[0]] for v, grp in enumerate(groups)
                                if kind[grp[0]] == 0}, rhs=1.0, label="trace")]
    if prime:
        rows += [sdp.LinearRow(free={v: -1.0}, rhs=0.0, rel="<=", label=f"nn{grp}")
                 for v, grp in enumerate(groups) if kind[grp[0]] == 2]
    psd = sdp.MatrixIneq(basis.d, np.zeros((basis.d, basis.d)),
                         {v: sum(basis.L_float[j] for j in grp)
                          for v, grp in enumerate(groups)}, label="class_psd")
    problem = sdp.SdpProblem(n_free=len(groups),
                             free_obj=[root[list(grp)].sum() for grp in groups],
                             rows=rows, lmis=[psd], sense="max",
                             free_names=[f"x{grp}" for grp in groups])
    return problem, basis.d


def theta(g: Graph, prime: bool = False,
          tol: float = 1e-9) -> Tuple[sdp.SdpSolution, Optional[int]]:
    """Solve theta(G), or theta'(G) with prime, in the coherent closure of
    G (theta_class_problem); returns the solution and the number of classes
    d, or None when the closure has n or more classes and theta_problem is
    solved as it is.

    The class inequality is solved split into its simple components
    (symmetry.split_lmi), whose size-1 components are one diagonal
    inequality, the LP cone.  Where the closure is commutative, as the
    Bose-Mesner algebra of a distance-regular graph is, every component has
    size 1 and the problem is a linear program: for theta' on Hamming
    graphs it is Delsarte's LP bound (Schrijver 1979, IEEE TIT 25).
    """
    built = theta_class_problem(g, prime=prime)
    if built is None:
        log.debug("theta%s: coherent closure has >= %d classes; solving the full "
                  "problem", "'" if prime else "", g.n)
        return sdp.solve(theta_problem(g, prime=prime), tol=tol), None
    problem, d = built
    lmis = symmetry.split_lmi(problem.lmis[0])
    log.debug("theta%s: %d vertices reduced to %d classes, %d variables, "
              "(dim, diag) of the simple components %s", "'" if prime else "", g.n, d,
              problem.n_free, [(l.dim, l.diag) for l in lmis])
    return sdp.solve(replace(problem, lmis=lmis), tol=tol), d


def lovasz_theta(g: Graph, tol: float = 1e-9) -> float:
    """theta(G) = max tr(JX) : tr(X) = 1, X_uv = 0 on edges, X >= 0 (PSD)."""
    sol, _ = theta(g, tol=tol)
    if sol.status != sdp.OPTIMAL:
        raise RuntimeError(f"theta solve did not converge: {sol.status}")
    return sol.primal_obj


def lovasz_theta_prime(g: Graph, tol: float = 1e-9) -> float:
    """theta'(G): theta with X additionally entrywise nonnegative."""
    sol, _ = theta(g, prime=True, tol=tol)
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
