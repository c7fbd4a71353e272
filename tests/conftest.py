"""Shared fixtures: polynomial test programs with brute-force grid minima and
a small graph corpus for the sandwich tests."""

from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

import numpy as np
import pytest

from soskit.graphs import Graph, hamming_graph
from soskit.poly import Polynomial, monomials_up_to_degree
from soskit.relax import PolyProgram


# The numpy and OpenBLAS versions on which test_sdp's WORKLOAD_ITERATIONS
# were recorded; other builds round differently, which can move a solve by
# an iteration, so the counts are exact only here.
RECORDED_BUILD = ("2.4.", "0.3.31")


def blas_build() -> dict:
    """numpy's BLAS build: its name, version and, for OpenBLAS, configuration."""
    return np.show_config(mode="dicts")["Build Dependencies"]["blas"]


def on_recorded_build() -> bool:
    """Whether numpy and its BLAS are the RECORDED_BUILD versions."""
    return (np.__version__.startswith(RECORDED_BUILD[0])
            and str(blas_build().get("version", "")).startswith(RECORDED_BUILD[1]))


def pytest_report_header(config):
    """The rounding regime of the run: numpy and BLAS versions, the BLAS
    thread setting, and whether iteration counts are checked exactly."""
    blas = blas_build()
    return [f"numpy {np.__version__}, BLAS {blas.get('name', '?')} {blas.get('version', '?')}, "
            f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}",
            "WORKLOAD_ITERATIONS checked " + ("exactly" if on_recorded_build() else "within one")
            + f" (RECORDED_BUILD numpy {RECORDED_BUILD[0]}*, BLAS {RECORDED_BUILD[1]}*)"]


def P(n, terms):
    return Polynomial(n, terms)


def conclusive(sol, tol: float = 1e-6) -> bool:
    """A solve is usable at tolerance tol when it converged, or when it
    stopped early with residuals and gap already below tol."""
    if sol.status == "optimal":
        return True
    return max(sol.primal_residual, sol.dual_residual, sol.gap) <= tol


def grid_minimum(p: PolyProgram, points_per_axis: int, box: float = 1.2) -> float:
    """Brute-force minimum of the objective over feasible grid points in
    [-box, box]^n.  Independent of the relaxation machinery."""
    axes = [(-box + 2 * box * k / (points_per_axis - 1)) for k in range(points_per_axis)]
    f = p.objective.to_float()
    gs = [g.to_float() for g in p.ineqs]
    hs = [h.to_float() for h in p.eqs]
    best = None
    for x in itertools.product(axes, repeat=p.n):
        if any(g.evaluate(x) < 0 for g in gs):
            continue
        if any(abs(h.evaluate(x)) > 1e-9 for h in hs):
            continue
        v = f.evaluate(x)
        if best is None or v < best:
            best = v
    assert best is not None, "empty feasible grid"
    return best


@dataclass
class CorpusEntry:
    name: str
    program: PolyProgram
    orders: Tuple[int, ...]
    grid_points: int


def _ball(n):
    b = Polynomial.constant(n, 1)
    for i in range(n):
        b = b - Polynomial.monomial(n, tuple(2 if j == i else 0 for j in range(n)))
    return b


def ball_quartic(n: int, rng: random.Random) -> PolyProgram:
    """A dense quartic with coefficients in {-1, -0.9, ..., 1} on the unit
    ball, drawn from rng as the pop-ball benchmark draws it."""
    f = {m: Fraction(rng.randint(-10, 10), 10) for m in monomials_up_to_degree(n, 4)}
    return PolyProgram(n, P(n, f), ineqs=(_ball(n),))


def hierarchy_corpus() -> List[CorpusEntry]:
    """Small compact programs (n <= 3, deg <= 4) for hierarchy tests."""
    out = []
    out.append(CorpusEntry("sq_interval", PolyProgram(
        1, P(1, {(2,): 1}), ineqs=(_ball(1),)), (2, 3, 4), 801))
    out.append(CorpusEntry("neg_x", PolyProgram(
        1, P(1, {(1,): -1}), ineqs=(_ball(1),)), (2, 3, 4), 801))
    # the order-3 dual cannot reach the cubic term (its multiplier bases stop
    # at degree 2), so start this entry at order 4
    out.append(CorpusEntry("cubic", PolyProgram(
        1, P(1, {(3,): 1, (1,): -1}), ineqs=(_ball(1),)), (4, 5), 801))
    out.append(CorpusEntry("quartic_well", PolyProgram(
        1, P(1, {(4,): 1, (2,): -1}), ineqs=(_ball(1),)), (4,), 801))
    out.append(CorpusEntry("disk_sq", PolyProgram(
        2, P(2, {(2, 0): 1, (0, 2): 1}), ineqs=(_ball(2),)), (2, 3, 4), 121))
    out.append(CorpusEntry("disk_linear", PolyProgram(
        2, P(2, {(1, 0): 1, (0, 1): 1}), ineqs=(_ball(2),)), (2, 3, 4), 121))
    out.append(CorpusEntry("disk_xy", PolyProgram(
        2, P(2, {(1, 1): 1}), ineqs=(_ball(2),)), (2, 3, 4), 121))
    out.append(CorpusEntry("disk_mixed", PolyProgram(
        2, P(2, {(2, 2): 1, (1, 0): -1}), ineqs=(_ball(2),)), (4,), 121))
    out.append(CorpusEntry("box_shifted", PolyProgram(
        2, P(2, {(2, 0): 1, (1, 1): 1, (0, 0): Fraction(1, 2)}),
        ineqs=(P(2, {(0, 0): 1, (2, 0): -1}), P(2, {(0, 0): 1, (0, 2): -1}))),
        (2, 3, 4), 121))
    out.append(CorpusEntry("ball3_linear", PolyProgram(
        3, P(3, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1}),
        ineqs=(_ball(3),)), (2, 3), 41))
    out.append(CorpusEntry("ball3_shift", PolyProgram(
        3, P(3, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1, (1, 0, 0): -1}),
        ineqs=(_ball(3),)), (2, 3), 41))
    out.append(CorpusEntry("circle_eq", PolyProgram(
        2, P(2, {(1, 0): 1}),
        ineqs=(_ball(2),),
        eqs=(P(2, {(2, 0): 1, (0, 2): 1, (0, 0): -1}),)), (2, 3, 4), 241))
    return out


@pytest.fixture(scope="session")
def corpus():
    return hierarchy_corpus()


def graph_corpus() -> List[Tuple[str, Graph]]:
    import random
    rng = random.Random(7)

    def rand_graph(n, prob):
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < prob]
        return Graph.from_edges(n, edges)

    out = [
        ("empty4", Graph.empty(4)),
        ("K4", Graph.complete(4)),
        ("C5", Graph.cycle(5)),
        ("C6", Graph.cycle(6)),
        ("C7", Graph.cycle(7)),
        ("P4", Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])),
        ("star5", Graph.from_edges(5, [(0, i) for i in range(1, 5)])),
        ("K33", Graph.from_edges(6, [(i, 3 + j) for i in range(3) for j in range(3)])),
        ("cube", hamming_graph(2, 3, 2)),
        ("rand6", rand_graph(6, 0.5)),
        ("rand7", rand_graph(7, 0.4)),
        ("rand8", rand_graph(8, 0.35)),
    ]
    return out


def petersen() -> Graph:
    """The Kneser graph K(5, 2): 2-subsets of {0..4}, adjacent when disjoint."""
    pairs = list(itertools.combinations(range(5), 2))
    return Graph.from_edges(10, [(i, j) for i, j in itertools.combinations(range(10), 2)
                                 if not set(pairs[i]) & set(pairs[j])])


@pytest.fixture(scope="session")
def graphs_small():
    return graph_corpus()
