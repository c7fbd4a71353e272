import logging
import random
from fractions import Fraction

import pytest

from soskit import sdp, symmetry
from soskit.graphs import (
    Graph,
    brute_force_alpha,
    brute_force_alpha_chi,
    brute_force_chi,
    hamming_graph,
    lovasz_theta,
    lovasz_theta_prime,
    theta,
    theta_class_problem,
    theta_problem,
)

from conftest import petersen


class TestGraph:
    def test_parse_edge_list(self):
        g = Graph.parse_edge_list("0 1\n1 2\n\n# comment\n2 0\n")
        assert g.n == 3 and len(g.edges) == 3

    def test_complement(self):
        g = Graph.cycle(5)
        assert len(g.complement().edges) == 5
        assert g.complement().complement() == g

    def test_no_vertices(self):
        with pytest.raises(ValueError, match="no vertices"):
            Graph.parse_edge_list("# nothing\n\n")

    def test_rejects_loops(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 0)])


class TestHamming:
    def test_2_2_2_is_four_cycle(self):
        g = hamming_graph(2, 2, 2)
        # words 00,01,10,11: edges exactly between distance-1 pairs
        assert g.n == 4
        assert g.edges == frozenset({(0, 1), (0, 2), (1, 3), (2, 3)})

    def test_d1_empty(self):
        assert len(hamming_graph(2, 3, 1).edges) == 0

    def test_cube(self):
        g = hamming_graph(2, 3, 2)
        assert g.n == 8 and len(g.edges) == 12  # 8*3/2 distance-1 pairs

    def test_size_cap(self):
        with pytest.raises(ValueError):
            hamming_graph(2, 13, 2)


class TestBruteForce:
    def test_c5(self):
        g = Graph.cycle(5)
        assert brute_force_alpha(g) == 2
        assert brute_force_chi(g.complement()) == 3

    def test_complete(self):
        for n in (2, 4, 6):
            alpha, chi = brute_force_alpha_chi(Graph.complete(n))
            assert alpha == 1 and chi == n
            assert brute_force_chi(Graph.empty(n)) == 1

    def test_empty(self):
        assert brute_force_alpha(Graph.empty(7)) == 7

    def test_cube_code_size(self):
        # binary codes of length 3, min distance 2: A_2(3,2) = 4
        assert brute_force_alpha(hamming_graph(2, 3, 2)) == 4


class TestTheta:
    def test_empty_and_complete(self):
        assert abs(lovasz_theta(Graph.empty(4)) - 4.0) < 1e-6
        assert abs(lovasz_theta(Graph.complete(4)) - 1.0) < 1e-6

    def test_c5_between_alpha_and_chi(self):
        g = Graph.cycle(5)
        t = lovasz_theta(g)
        assert 2 - 1e-6 <= t <= 3 + 1e-6
        assert abs(t - 5 ** 0.5) < 1e-6

    def test_disjoint_union_additive(self):
        rng = random.Random(4)
        for _ in range(3):
            def rand_graph(n):
                edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                         if rng.random() < 0.5]
                return Graph.from_edges(n, edges)
            g, h = rand_graph(3), rand_graph(4)
            whole = lovasz_theta(g.disjoint_union(h))
            assert abs(whole - (lovasz_theta(g) + lovasz_theta(h))) < 1e-5


class TestThetaPrime:
    def test_k3(self):
        assert abs(lovasz_theta_prime(Graph.complete(3)) - 1.0) < 1e-6

    def test_empty(self):
        assert abs(lovasz_theta_prime(Graph.empty(5)) - 5.0) < 1e-6

    def test_hamming_squeeze(self):
        g = hamming_graph(2, 3, 2)
        tp = lovasz_theta_prime(g)
        t = lovasz_theta(g)
        assert tp >= brute_force_alpha(g) - 1e-6  # alpha = A_2(3,2) = 4
        assert tp <= t + 1e-6


class TestSandwich:
    def test_corpus(self, graphs_small):
        for name, g in graphs_small:
            alpha = brute_force_alpha(g)
            chi_bar = brute_force_chi(g.complement())
            t = lovasz_theta(g)
            tp = lovasz_theta_prime(g)
            assert alpha - 1e-6 <= tp <= t + 1e-6 <= chi_bar + 2e-6, name


REDUCED = {
    "C5": Graph.cycle(5), "C7": Graph.cycle(7), "petersen": petersen(),
    "K33": Graph.from_edges(6, [(i, 3 + j) for i in range(3) for j in range(3)]),
    "K15": Graph.from_edges(6, [(0, i) for i in range(1, 6)]),
    "empty4": Graph.empty(4), "K4": Graph.complete(4),
    "H242": hamming_graph(2, 4, 2), "H243": hamming_graph(2, 4, 3),
    "H253": hamming_graph(2, 5, 3), "H332": hamming_graph(3, 3, 2),
}

# (theta, theta') of the Hamming graphs; theta' is Delsarte's LP bound
HAMMING_BOUNDS = {"H242": (8, 8), "H243": (Fraction(8, 3), Fraction(8, 3)),
                  "H253": (Fraction(16, 3), 4), "H332": (9, 9)}


class TestReducedTheta:
    @pytest.mark.parametrize("prime", [False, True], ids=["theta", "prime"])
    @pytest.mark.parametrize("name", REDUCED)
    def test_equals_full_solve(self, name, prime):
        g = REDUCED[name]
        sol, classes = theta(g, prime=prime)
        full = sdp.solve(theta_problem(g, prime=prime), tol=1e-9)
        assert classes is not None and classes < g.n
        assert sol.status == full.status == sdp.OPTIMAL
        assert abs(sol.primal_obj - full.primal_obj) < 1e-6
        if name in HAMMING_BOUNDS:
            assert abs(sol.primal_obj - float(HAMMING_BOUNDS[name][prime])) < 1e-6

    @pytest.mark.parametrize("n, size", [(6, 8), (7, 16)])
    def test_binary_codes_of_distance_3(self, n, size):
        # theta'(H(2, n, 3)) = A_2(n, 3): 8 at n = 6 and 16 at n = 7
        sol, classes = theta(hamming_graph(2, n, 3), prime=True)
        assert sol.status == sdp.OPTIMAL and classes < 2 ** n
        assert abs(sol.primal_obj - size) < 1e-6

    @pytest.mark.parametrize("prime", [False, True], ids=["theta", "prime"])
    @pytest.mark.parametrize("g", [Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]),
                                   Graph.from_edges(5, [(0, i) for i in range(1, 5)])],
                             ids=["P4", "star5"])
    def test_falls_back_to_the_full_problem(self, g, prime, caplog):
        with caplog.at_level(logging.DEBUG, logger="soskit.graphs"):
            sol, classes = theta(g, prime=prime)
        full = sdp.solve(theta_problem(g, prime=prime), tol=1e-9)
        assert classes is None
        assert (sol.status, sol.primal_obj, sol.dual_obj) == \
            (full.status, full.primal_obj, full.dual_obj)
        assert "solving the full problem" in caplog.text

    @pytest.mark.parametrize("prime", [False, True], ids=["theta", "prime"])
    @pytest.mark.parametrize("name", ["C5", "C7", "petersen", "K33", "K15",
                                      "H242", "H243", "H253", "H332"])
    def test_split_equals_the_class_problem(self, name, prime):
        # the class inequality split into simple components has the optimum
        # of the unsplit class problem
        sol, _ = theta(REDUCED[name], prime=prime)
        whole = sdp.solve(theta_class_problem(REDUCED[name], prime=prime)[0], tol=1e-9)
        assert sol.status == whole.status == sdp.OPTIMAL
        assert abs(sol.primal_obj - whole.primal_obj) < 1e-6

    @pytest.mark.parametrize("g", [Graph.cycle(7), petersen(), hamming_graph(2, 7, 3),
                                   REDUCED["K15"], REDUCED["H242"], REDUCED["H243"],
                                   REDUCED["H253"], REDUCED["H332"]],
                             ids=["C7", "petersen", "H273", "K15", "H242", "H243",
                                  "H253", "H332"])
    def test_commutative_closures_are_linear_programs(self, g):
        # every simple component has size 1: one diagonal inequality, the
        # LP cone, and no PSD block left
        problem, d = theta_class_problem(g, prime=True)
        split = symmetry.split_lmi(problem.lmis[0])
        assert len(split) == 1 and split[0].diag and split[0].dim <= d

    def test_logs_the_reduction(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="soskit.graphs"):
            theta(Graph.cycle(5))
        assert "5 vertices reduced to 3 classes" in caplog.text

    def test_no_vertices(self):
        with pytest.raises(ValueError, match="no vertices"):
            theta(Graph.empty(0))
