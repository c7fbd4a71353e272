import itertools
import logging
import math
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from soskit import apcount, graphs, ipm, sdp, symmetry
from soskit.poly import Polynomial
from soskit.relax import PolyProgram, build_moment_primal, build_sos_dual
from soskit.sdp import (
    LinearRow,
    MatrixIneq,
    SdpProblem,
    check_feasible,
    dual_of,
    export_sdpa,
    import_sdpa,
    is_psd,
    solve,
    structurally_equal,
    to_sdpa_form,
)

from conftest import ball_quartic, on_recorded_build


def gap_example():
    """The strong-duality failure pair: inf x1 over the 3x3 pencil."""
    F0 = np.zeros((3, 3))
    F0[2, 2] = 1.0
    F1 = np.zeros((3, 3))
    F1[0, 1] = F1[1, 0] = 1.0
    F1[2, 2] = 1.0
    F2 = np.zeros((3, 3))
    F2[1, 1] = 1.0
    return SdpProblem(
        n_free=2, free_obj=np.array([1.0, 0.0]),
        lmis=[MatrixIneq(dim=3, const=F0, coeffs={0: F1, 1: F2})], sense="min")


def theta_c5():
    rows = [LinearRow(blocks={0: np.eye(5)}, rhs=1.0)]
    for i in range(5):
        j = (i + 1) % 5
        a = np.zeros((5, 5))
        a[i, j] = a[j, i] = 0.5
        rows.append(LinearRow(blocks={0: a}, rhs=0.0))
    return SdpProblem(block_dims=[5], C=[np.ones((5, 5))], rows=rows, sense="max")


class TestIsPsd:
    def test_identity(self):
        assert is_psd(np.eye(3))[0]

    def test_gap_pencil_at_ones(self):
        # the pencil at x1 = x2 = 1: top-left 2x2 minor is -1
        m = np.array([[0.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 2.0]])
        ok, witness = is_psd(m)
        assert not ok
        assert witness @ m @ witness < 0

    def test_rank_one(self):
        assert is_psd(np.ones((2, 2)))[0]

    def test_not_symmetric(self):
        with pytest.raises(ValueError):
            is_psd(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_exact_random(self):
        rng = random.Random(9)
        for _ in range(25):
            n = rng.randint(1, 5)
            L = [[Fraction(rng.randint(-4, 4), rng.randint(1, 4)) if j <= i else Fraction(0)
                  for j in range(n)] for i in range(n)]
            m = [[sum(L[i][k] * L[j][k] for k in range(n)) for j in range(n)]
                 for i in range(n)]
            ok, _ = is_psd(m, mode="exact")
            assert ok
            # break it: push one diagonal entry below the PSD boundary
            i = rng.randrange(n)
            m[i][i] -= sum(L[i][k] ** 2 for k in range(n)) + 1
            ok, w = is_psd(m, mode="exact")
            assert not ok
            quad = sum(w[a] * m[a][b] * w[b] for a in range(n) for b in range(n))
            assert quad < 0

    def test_exact_zero_diagonal_off_diag(self):
        m = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
        ok, w = is_psd(m, mode="exact")
        assert not ok
        assert sum(w[a] * m[a][b] * w[b] for a in range(2) for b in range(2)) < 0


def _psd_by_fractions(M):
    """Reference PSD decision: pivoted symmetric elimination in Fractions
    (the rational elimination is_psd_exact replaced with integer Bareiss)."""
    n = len(M)
    A = [[Fraction(M[i][j]) for j in range(n)] for i in range(n)]
    active = list(range(n))
    while active:
        if any(A[i][i] < 0 for i in active):
            return False
        piv = next((i for i in active if A[i][i] > 0), None)
        if piv is None:
            return all(A[i][j] == 0 for i in active for j in active)
        p = A[piv][piv]
        col = {j: A[j][piv] for j in active if j != piv and A[j][piv] != 0}
        active.remove(piv)
        for i in col:
            for j in col:
                A[i][j] -= col[i] * col[j] / p
    return True


class TestIsPsdExact:
    """Integer Bareiss elimination against the Fraction reference."""

    @staticmethod
    def _check(m):
        ok, w = sdp.is_psd_exact(m)
        assert ok == _psd_by_fractions(m), m
        if ok:
            assert w is None
        else:
            assert all(isinstance(v, Fraction) for v in w) and len(w) == len(m)
            assert sum(w[a] * m[a][b] * w[b] for a in range(len(m))
                       for b in range(len(m))) < 0

    @staticmethod
    def _gram(rng, n, k, den):
        """L L' for a random n x k rational L, denominators up to den."""
        L = [[Fraction(rng.randint(-9, 9), rng.randint(1, den)) if rng.random() < 0.8
              else Fraction(0) for _ in range(k)] for _ in range(n)]
        return [[sum((L[i][t] * L[j][t] for t in range(k)), Fraction(0)) for j in range(n)]
                for i in range(n)]

    def test_empty_and_one_by_one(self):
        assert sdp.is_psd_exact([]) == (True, None)
        for v in (Fraction(0), Fraction(3, 7), 2):
            assert sdp.is_psd_exact([[v]]) == (True, None)
        ok, w = sdp.is_psd_exact([[Fraction(-1, 10 ** 6)]])
        assert not ok and w == [Fraction(1)]

    def test_rank_deficient_with_large_denominators(self):
        rng = random.Random(21)
        for _ in range(60):
            n = rng.randint(2, 7)
            m = self._gram(rng, n, rng.randint(0, n - 1), 10 ** 6)
            assert sdp.is_psd_exact(m) == (True, None)
            self._check(m)

    def test_zero_rows_and_columns(self):
        rng = random.Random(22)
        for _ in range(40):
            n = rng.randint(1, 6)
            m = self._gram(rng, n, rng.randint(0, n), 10 ** 6)
            zeros = sorted(rng.sample(range(n + 1), rng.randint(1, 2)))
            for z in zeros:
                for row in m:
                    row.insert(z, Fraction(0))
                m.insert(z, [Fraction(0)] * len(m[0]))
            self._check(m)
            assert sdp.is_psd_exact(m)[0]
            # a nonzero entry in a zero row and column: never PSD
            i = zeros[0]
            j = rng.choice([j for j in range(len(m)) if j != i])
            m[i][j] = m[j][i] = Fraction(1, 10 ** 6)
            self._check(m)
            assert not sdp.is_psd_exact(m)[0]

    def test_indefinite_perturbations(self):
        rng = random.Random(23)
        rejected = 0
        for _ in range(150):
            n = rng.randint(1, 7)
            m = self._gram(rng, n, rng.randint(0, n), rng.choice([4, 10 ** 3, 10 ** 6]))
            i, j = rng.randrange(n), rng.randrange(n)
            e = Fraction(rng.choice([-1, 1]) * rng.randint(1, 10), rng.randint(1, 10 ** 6))
            m[i][j] += e
            if i != j:
                m[j][i] += e
            self._check(m)
            rejected += not sdp.is_psd_exact(m)[0]
        assert 30 < rejected < 150  # both verdicts are exercised

    def test_accepts_ints_and_rejects_asymmetry(self):
        assert sdp.is_psd_exact([[2, -1], [-1, 2]]) == (True, None)
        assert not sdp.is_psd_exact([[1, 2], [2, 1]])[0]
        with pytest.raises(ValueError):
            sdp.is_psd_exact([[Fraction(1), Fraction(1, 3)], [Fraction(1, 2), Fraction(1)]])


def sign_row_problem(signs, sense="min"):
    """Optimize 2u over 2x2 u*[[1, .5], [.5, 0]] + I >= 0 with sign rows
    a*u <= 0, given as (j, a) pairs."""
    return SdpProblem(n_free=1, free_obj=np.array([2.0]),
                      rows=[LinearRow(free={j: a}, rel="<=") for j, a in signs],
                      lmis=[MatrixIneq(2, np.eye(2), {0: np.array([[1.0, 0.5], [0.5, 0.0]])})],
                      sense=sense)


def reduced_theta_prime(g):
    """The problem of theta'(g) in its coherent closure, before graphs.theta
    splits its class inequality: max-sense, with a sign row -x_g <= 0 per
    non-edge class."""
    return graphs.theta_class_problem(g, prime=True)[0]


class TestDualOf:
    def test_gap_example_printed_dual(self):
        d = dual_of(gap_example())
        # one 3x3 PSD variable, two equality rows, objective max -<F0, Z>
        assert d.sense == "max"
        assert d.block_dims == [3] and d.n_free == 0 and not d.lmis
        assert len(d.rows) == 2
        expect_c = np.zeros((3, 3))
        expect_c[2, 2] = -1.0
        assert np.array_equal(d.C[0], expect_c)
        # analytic dual point y1=1, y2=1 is Z = diag(1, 0, 1), objective -1
        rep = check_feasible(d, [np.diag([1.0, 0.0, 1.0])], [])
        assert rep.feasible(1e-12)
        assert rep.objective == -1.0

    def test_zero_constraint_problem(self):
        p = SdpProblem(block_dims=[2], C=[np.array([[2.0, 0.0], [0.0, 3.0]])])
        d = dual_of(p)
        assert d.n_free == 0 and not d.rows
        assert len(d.lmis) == 1
        assert np.array_equal(d.lmis[0].const, p.C[0])  # feasibility is C >= 0

    def test_bidual_round_trip(self):
        ineq = SdpProblem(block_dims=[2], C=[np.diag([1.0, -2.0])],
                          rows=[LinearRow(blocks={0: np.eye(2)}, rhs=1.0, rel="<=")])
        max_ineq = SdpProblem(block_dims=[2], C=[np.diag([1.0, -2.0])],
                              rows=[LinearRow(blocks={0: np.eye(2)}, rhs=1.0, rel="<=")],
                              sense="max")
        theta_prime_c5 = graphs.theta_problem(graphs.Graph.cycle(5), prime=True)
        both_signs = sign_row_problem([(0, 1.0), (0, -1.0)])  # u = 0: two sign rows
        max_sign = sign_row_problem([(0, 1.0)], sense="max")  # folded: u <= 0 in a max
        reduced = reduced_theta_prime(graphs.Graph.cycle(5))  # -x_g <= 0 in a max: kept
        # max u s.t. diag(1, 1) + u diag(-1, -2) >= 0: its dual's two 1x1
        # blocks are one diagonal group, and dualize back to one inequality
        diag = SdpProblem(n_free=1, free_obj=np.array([1.0]), sense="max",
                          lmis=[MatrixIneq(2, np.eye(2), {0: np.diag([-1.0, -2.0])}, diag=True)])
        split = reduced_theta_prime(graphs.hamming_graph(2, 5, 3))
        split.lmis = symmetry.split_lmi(split.lmis[0])
        for p in (gap_example(), theta_c5(), ineq, theta_prime_c5, max_ineq,
                  both_signs, max_sign, reduced, diag, split):
            assert structurally_equal(p, dual_of(dual_of(p)), tol=1e-12)
        d = dual_of(diag)
        assert d.block_dims == [1, 1] and d.diag_groups == [(0, 2)]
        assert structurally_equal(d, dual_of(dual_of(d)), tol=1e-12)
        assert abs(solve(diag).primal_obj - 0.5) < 1e-7

    def test_grouped_problem_solved_in_the_dual_orientation(self):
        # max u_0 + .. + u_4 s.t. diag(2, 1) - (u_0 + .. + u_4) I >= 0 has
        # value 1; its dual, min 2 z_1 + z_2 s.t. z_1 + z_2 = 1 on one
        # diagonal group, is solved in the dual orientation, and its X is
        # the group's two 1x1 blocks, not one 2x2 matrix
        r = SdpProblem(n_free=5, free_obj=np.ones(5), sense="max",
                       lmis=[MatrixIneq(2, np.diag([2.0, 1.0]),
                                        {j: -np.eye(2) for j in range(5)}, diag=True)])
        q = dual_of(r)
        sol = solve(q)
        assert sol.orientation == "dual" and sol.status == sdp.OPTIMAL
        assert len(sol.X) == len(q.block_dims)
        assert [x.shape for x in sol.X] == [(1, 1), (1, 1)]
        assert abs(sol.primal_obj - 1.0) < 1e-7 and abs(sol.dual_obj - 1.0) < 1e-7
        assert abs(q.objective_value(sol.X, sol.free) - sol.primal_obj) < 1e-12
        assert check_feasible(q, sol.X, sol.free).feasible(1e-7)

    @pytest.mark.parametrize("sense, a, folds", [("min", -1.0, True), ("min", 1.0, False),
                                                 ("max", 1.0, True), ("max", -1.0, False)])
    def test_sign_row_folds_into_its_scalar_row(self, sense, a, folds):
        # a u <= 0 in the sign of the dual's own sign rows gets no multiplier:
        # u's dual row becomes <=; the other sign keeps a multiplier and a row
        d = dual_of(sign_row_problem([(0, a)], sense=sense))
        if folds:
            assert d.n_free == 0 and [r.rel for r in d.rows] == ["<="]
            assert d.rows[0].rhs == 2.0 and not d.rows[0].free
        else:
            assert d.n_free == 1 and [r.rel for r in d.rows] == ["==", "<="]
            assert d.rows[0].free == {0: a}

    def test_folded_row_multiplier_matches_the_direct_solve(self):
        # theta'(H(2,5,3)) is solved in the dual orientation, where its
        # x_g >= 0 rows are folded; their multipliers come from the slack
        p = reduced_theta_prime(graphs.hamming_graph(2, 5, 3))
        q = p.negated()
        folded, kept = sdp._sign_rows(q)
        assert sorted(folded.values()) == [1, 2] and kept == [0]
        assert len(dual_of(q).rows) == q.n_free
        s = solve(p)
        d = sdp._from_direct(q, ipm.solve_std(sdp._standardize(q)))
        assert s.orientation == "dual" and s.status == d.status == sdp.OPTIMAL
        assert abs(d.y[2]) > 1.0  # an active sign row
        np.testing.assert_allclose(s.y, d.y, rtol=0.0, atol=1e-6)

    def test_max_problem_textbook_signs(self):
        # max <diag(1, -2), X> s.t. tr X = 1 dualizes to min v s.t.
        # v I - diag(1, -2) >= 0, so v = 1 is feasible with objective 1
        p = SdpProblem(block_dims=[2], C=[np.diag([1.0, -2.0])],
                       rows=[LinearRow(blocks={0: np.eye(2)}, rhs=1.0)], sense="max")
        d = dual_of(p)
        assert d.sense == "min"
        rep = check_feasible(d, [], [1.0])
        assert rep.feasible(1e-12)
        assert rep.objective == 1.0

    def test_dual_value_agrees(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            C = rng.normal(size=(3, 3))
            C = (C + C.T) / 2
            p = SdpProblem(block_dims=[3], C=[C],
                           rows=[LinearRow(blocks={0: np.eye(3)}, rhs=1.0)])
            a = solve(p)
            b = solve(dual_of(p))
            assert a.status == b.status == sdp.OPTIMAL
            assert abs(a.primal_obj - b.primal_obj) < 1e-6

    def test_weak_duality_sampled(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            C = rng.normal(size=(3, 3))
            C = (C + C.T) / 2
            p = SdpProblem(block_dims=[3], C=[C],
                           rows=[LinearRow(blocks={0: np.eye(3)}, rhs=1.0)])
            lam_min = np.linalg.eigvalsh(C)[0]
            for _ in range(20):
                v = rng.normal(size=(3, 2))
                x = v @ v.T
                x /= np.trace(x)
                y1 = lam_min - rng.uniform(0, 1)  # dual feasible: C - y1 I >= 0
                assert float(np.sum(C * x)) >= y1 - 1e-12

    def test_dual_orientation_folds_sign_rows_once(self, monkeypatch):
        # the fold that builds the dual is the one that maps its solution back
        p = reduced_theta_prime(graphs.hamming_graph(2, 5, 3))
        calls, real = [], sdp._sign_rows
        monkeypatch.setattr(sdp, "_sign_rows", lambda q: calls.append(q) or real(q))
        s = solve(p)
        assert s.orientation == "dual" and s.status == sdp.OPTIMAL
        assert len(calls) == 1


def disk_relaxation():
    """The order-2 SOS dual of min x^2 + y^2 on the unit disk (minimum 0)."""
    f = Polynomial(2, {(2, 0): 1, (0, 2): 1})
    g = Polynomial(2, {(0, 0): 1, (2, 0): -1, (0, 2): -1})
    return build_sos_dual(PolyProgram(2, f, ineqs=(g,)), 2)[0]


class TestSolve:
    def test_one_by_one(self):
        p = SdpProblem(block_dims=[1], C=[np.eye(1)],
                       rows=[LinearRow(blocks={0: np.eye(1)}, rhs=1.0)])
        s = solve(p)
        assert s.status == sdp.OPTIMAL
        assert abs(s.primal_obj - 1.0) < 1e-7

    def test_unconverged_step_eigenvalues_are_a_numerical_failure(self):
        # at the least positive tol the disk relaxation iterates until S^-1
        # overflows, and the step length's eigvalsh stops converging: the run
        # ends, it does not raise
        with np.errstate(all="ignore"):
            s = solve(disk_relaxation(), tol=math.ulp(0.0))
        assert s.status != sdp.OPTIMAL

    @pytest.mark.parametrize("entry", ["sdp.solve", "ipm.solve_std"])
    @pytest.mark.parametrize("limits", [{"tol": math.inf}, {"tol": 0.0}, {"tol": -1.0},
                                        {"tol": math.nan}, {"max_iter": -1}],
                             ids=["inf", "zero", "negative", "nan", "max_iter"])
    def test_rejects_tol_not_finite_positive_and_negative_max_iter(self, entry, limits):
        # at tol = inf the disk relaxation would end optimal at iteration 0
        # with bound -4 (the minimum is 0), and max_iter = -1 iter_cap with a
        # NaN objective
        prob = disk_relaxation()
        with pytest.raises(ValueError, match="finite positive tol"):
            if entry == "sdp.solve":
                solve(prob, **limits)
            else:
                ipm.solve_std(sdp._standardize(prob), **limits)

    def test_theta_squeeze_empty_and_complete(self):
        J = np.ones((4, 4))
        empty = SdpProblem(block_dims=[4], C=[J],
                           rows=[LinearRow(blocks={0: np.eye(4)}, rhs=1.0)], sense="max")
        s = solve(empty)
        assert abs(s.primal_obj - 4.0) < 1e-6
        rows = [LinearRow(blocks={0: np.eye(4)}, rhs=1.0)]
        for i in range(4):
            for j in range(i + 1, 4):
                a = np.zeros((4, 4))
                a[i, j] = a[j, i] = 0.5
                rows.append(LinearRow(blocks={0: a}, rhs=0.0))
        k4 = SdpProblem(block_dims=[4], C=[J], rows=rows, sense="max")
        assert abs(solve(k4).primal_obj - 1.0) < 1e-6

    def test_gap_example_both_sides(self):
        p = gap_example()
        sp = solve(p, max_iter=100)
        sd = solve(dual_of(p), max_iter=100)
        # the Slater failure must be surfaced, never silently "fixed"
        assert sp.marginal or sp.status != sdp.OPTIMAL or abs(sp.primal_obj) < 1e-3
        assert sp.marginal
        assert sd.marginal
        assert abs(sp.primal_obj - 0.0) < 1e-5
        assert abs(sd.primal_obj - (-1.0)) < 1e-5
        assert abs((sp.primal_obj - sd.primal_obj) - 1.0) < 1e-3

    def test_inequality_rows(self):
        # min <C,X> s.t. tr X <= 1: optimum is min(lambda_min(C), 0)
        rng = np.random.default_rng(8)
        for _ in range(5):
            C = rng.normal(size=(3, 3))
            C = (C + C.T) / 2
            p = SdpProblem(block_dims=[3], C=[C],
                           rows=[LinearRow(blocks={0: np.eye(3)}, rhs=1.0, rel="<=")])
            s = solve(p)
            assert s.status == sdp.OPTIMAL
            expect = min(float(np.linalg.eigvalsh(C)[0]), 0.0)
            assert abs(s.primal_obj - expect) < 1e-6
            assert s.dual_obj <= s.primal_obj + 1e-7  # weak duality postcondition

    def test_scaling_invariance(self):
        p = theta_c5()
        base = solve(p)
        scaled = SdpProblem(block_dims=[5], C=[8.0 * np.ones((5, 5))],
                            rows=p.rows, sense="max")
        s = solve(scaled)
        assert s.status == base.status == sdp.OPTIMAL
        assert abs(s.primal_obj - 8.0 * base.primal_obj) < 1e-5 * 8

    def test_no_rows(self):
        # min <C,X> over the cone alone: 0 when C is PSD, unbounded otherwise
        s = solve(SdpProblem(block_dims=[3], C=[np.eye(3)]))
        assert s.status == sdp.OPTIMAL
        assert abs(s.primal_obj) < 1e-6
        s2 = solve(SdpProblem(block_dims=[2], C=[np.diag([1.0, -1.0])]), max_iter=60)
        assert s2.status != sdp.OPTIMAL

    def test_free_scalars_only(self):
        # no PSD block at all: the IPM's row matrix has zero columns
        p = SdpProblem(n_free=2, free_obj=np.array([1.0, 1.0]),
                       rows=[LinearRow(free={0: 1.0, 1: 1.0}, rhs=2.0),
                             LinearRow(free={0: 1.0}, rhs=1.0)])
        s = solve(p)
        assert s.status == sdp.OPTIMAL
        assert np.allclose(s.free, [1.0, 1.0], atol=1e-7)

    def test_facial_reduction_empties_a_block(self):
        # X0 = 0 pins the only entry of block 0, so the IPM runs with a 0x0
        # block; the optimum puts tr X1 = 1 on the cheaper diagonal entry
        p = SdpProblem(block_dims=[1, 2], C=[np.eye(1), np.diag([1.0, 3.0])],
                       rows=[LinearRow(blocks={0: np.eye(1)}, rhs=0.0),
                             LinearRow(blocks={1: np.eye(2)}, rhs=1.0)])
        s = solve(p)
        assert s.status == sdp.OPTIMAL
        assert abs(s.primal_obj - 1.0) < 1e-7
        assert s.marginal
        assert s.X[0].shape == (1, 1)

    def test_facial_reduction_detects_forced_infeasibility(self):
        # X11 = 0 forces the whole first row of X to vanish, so X12 = 5 is
        # structurally impossible; X11 = -1 pins a diagonal entry below zero
        a12 = np.zeros((2, 2))
        a12[0, 1] = a12[1, 0] = 0.5
        x11 = np.diag([1.0, 0.0])
        forced = SdpProblem(block_dims=[2], C=[np.eye(2)],
                            rows=[LinearRow(blocks={0: x11}, rhs=0.0),
                                  LinearRow(blocks={0: a12}, rhs=5.0)])
        negative = SdpProblem(block_dims=[2], C=[np.eye(2)],
                              rows=[LinearRow(blocks={0: x11}, rhs=-1.0)])
        for p in (forced, negative):
            s = solve(p)
            assert s.status == sdp.PRIMAL_INFEASIBLE
            assert s.iterations == 0
        # with a free scalar, X11 + u = 0 pins nothing: u can take any sign
        free = SdpProblem(block_dims=[2], C=[np.eye(2)], n_free=1,
                          rows=[LinearRow(blocks={0: x11}, free={0: 1.0}, rhs=0.0)])
        face = ipm._face(sdp._standardize(free))
        assert not face.reduced and face.kept_rows == [0]

    def test_iterates_certify_dual_infeasibility(self):
        # C is negative definite and both rows have a zero diagonal, so
        # X = tI with t -> oo stays feasible while <C, X> -> -oo: primal
        # feasible iterates whose objective runs past -DIVERGENCE
        C = -np.array([[1.0, 0.0, 0.1], [0.0, 1.1, 0.1], [0.1, 0.1, 1.1]])
        a1 = np.array([[0.0, -0.3, 0.0], [-0.3, 0.0, 0.2], [0.0, 0.2, 0.0]])
        a2 = np.array([[0.0, -0.5, -0.7], [-0.5, 0.0, 0.8], [-0.7, 0.8, 0.0]])
        p = SdpProblem(block_dims=[3], C=[C], rows=[LinearRow(blocks={0: a1}, rhs=0.0),
                                                    LinearRow(blocks={0: a2}, rhs=0.0)])
        s = solve(p)
        assert s.status == sdp.DUAL_INFEASIBLE
        assert s.orientation == "direct" and s.iterations >= 1     # not found by _face

    def test_iterates_certify_primal_infeasibility(self):
        # x >= 0 with x0 + x1 + x2 + x3 = -1 has no solution, and no diagonal
        # entry is pinned: dual feasible iterates whose objective runs past
        # DIVERGENCE
        c = [-0.8, 1.2, -0.5, 1.5]
        A = [[1.0, 1.0, 1.0, 1.0], [1.4, 0.6, 0.4, 1.5], [-1.3, 0.1, -0.1, -1.4]]
        p = SdpProblem(block_dims=[1] * 4, C=[np.array([[v]]) for v in c],
                       rows=[LinearRow(blocks={k: np.array([[a]]) for k, a in enumerate(r)},
                                       rhs=h) for r, h in zip(A, [-1.0, 1.6, 0.9])])
        s = solve(p)
        assert s.status == sdp.PRIMAL_INFEASIBLE
        assert s.orientation == "direct" and s.iterations >= 1     # not found by _face

    def test_facial_reduction_follows_a_chained_pin(self):
        # X00 = 0 pins index 0, and only then does X00 + X11 = 0 pin index 1;
        # losing either pin would let the objective reach -1 or -2
        p = SdpProblem(block_dims=[3], C=[np.diag([-1.0, -2.0, 1.0])],
                       rows=[LinearRow(blocks={0: np.diag([1.0, 0.0, 0.0])}, rhs=0.0),
                             LinearRow(blocks={0: np.diag([1.0, 1.0, 0.0])}, rhs=0.0),
                             LinearRow(blocks={0: np.eye(3)}, rhs=1.0)])
        s = solve(p)
        assert s.status == sdp.OPTIMAL
        assert abs(s.primal_obj - 1.0) < 1e-7
        assert s.marginal
        face = ipm._face(sdp._standardize(p))
        assert [list(k) for k in face.keep] == [[2]]
        assert face.kept_rows == [2]

    def test_face_that_cuts_nothing_keeps_the_problem(self):
        std = sdp._standardize(theta_c5().negated())
        assert ipm._restrict(std, ipm._face(std)) is std

    def test_face_matches_a_per_row_fixpoint(self):
        rng = np.random.default_rng(7)
        outcomes = set()
        for _ in range(300):
            std = sdp._standardize(_random_problem(rng))
            face, ref = ipm._face(std), _reference_face(std)
            if ref is None:
                assert face is None
                outcomes.add("infeasible")
                continue
            keep, kept_rows, reduced = ref
            assert [list(k) for k in face.keep] == [list(k) for k in keep]
            assert face.kept_rows == kept_rows
            assert face.reduced == reduced
            outcomes.add("reduced" if reduced else "kept")
        assert outcomes == {"infeasible", "reduced", "kept"}

    def test_standard_form_free_coefficients_have_no_negative_zero(self):
        free = sdp._standardize(gap_example()).free
        assert not np.any((free == 0.0) & np.signbit(free))


def _random_problem(rng):
    """A small problem of sparse rows: diagonal and off-diagonal entries,
    <= rows, free scalars and matrix inequalities."""
    dims = [int(d) for d in rng.integers(1, 4, size=rng.integers(1, 3))]
    nf = int(rng.integers(0, 2))
    rows = []
    for _ in range(rng.integers(1, 6)):
        b = int(rng.integers(len(dims)))
        a = np.diag(rng.choice([0.0, 0.0, 1.0, 2.0], size=dims[b]))
        if rng.random() < 0.3:
            i, j = rng.integers(dims[b], size=2)
            a[i, j] += 1.0
            a[j, i] += 1.0
        rows.append(LinearRow(blocks={b: a}, free={0: 1.0} if nf and rng.random() < 0.2 else {},
                              rhs=rng.choice([0.0, 0.0, 1.0, -1.0]),
                              rel="<=" if rng.random() < 0.2 else "=="))
    lmis = [MatrixIneq(dim=int(d), const=np.diag(rng.choice([0.0, 1.0, -1.0], size=d)),
                       coeffs={0: np.eye(d)} if nf and rng.random() < 0.5 else {})
            for d in rng.integers(1, 3, size=rng.integers(0, 2))]
    return SdpProblem(block_dims=dims, C=[np.eye(d) for d in dims], n_free=nf,
                      rows=rows, lmis=lmis)


def _reference_face(form):
    """The pinned face, one row at a time until a sweep pins nothing:
    (keep, kept_rows, reduced), or None when structurally infeasible."""
    A = form.blocks()
    alive = [np.ones(d, dtype=bool) for d in form.dims]
    dead = [False] * len(form.b)
    reduced, changed = False, True
    while changed:
        changed = False
        for k in range(len(form.b)):
            if dead[k] or np.any(form.free[k]):
                continue
            live = [(b, i, j) for b, a in enumerate(A) for i, j in zip(*np.nonzero(a[k]))
                    if alive[b][i] and alive[b][j]]
            if not live:
                if form.b[k] != 0.0:
                    return None
                dead[k] = True
            elif len(live) == 1 and live[0][1] == live[0][2]:
                b, i, _ = live[0]
                pinned = form.b[k] / A[b][k, i, i]
                if pinned < 0.0:
                    return None
                if pinned == 0.0:
                    alive[b][i] = False
                    dead[k] = reduced = changed = True
    return ([np.flatnonzero(a) for a in alive],
            [k for k, d in enumerate(dead) if not d], reduced)


class TestOrientation:
    @pytest.fixture
    def ipm_calls(self, monkeypatch):
        calls = []
        real = ipm.solve_std

        def counted(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(ipm, "solve_std", counted)
        return calls

    def test_facially_reducible_dual_solved_directly_once(self, ipm_calls):
        # the dual of the gap example pins a diagonal entry to zero, so the
        # direct form is solved although the cost model favours the dual
        s = solve(gap_example(), max_iter=100)
        assert len(ipm_calls) == 1
        assert s.orientation == "direct"
        assert s.to_json()["orientation"] == "direct"

    def test_dual_orientation_solved_once(self, ipm_calls, monkeypatch):
        # the face found to choose the orientation is the one the solve uses
        faces = []
        real = ipm._face
        monkeypatch.setattr(ipm, "_face", lambda form: faces.append(form) or real(form))
        prob, _ = apcount.build_density_relaxation(5, 2, use_symmetry=True)
        s = solve(prob)
        assert len(ipm_calls) == 1
        assert len(faces) == 1 and faces[0] is ipm_calls[0]
        assert s.orientation == "dual"
        assert s.status == sdp.OPTIMAL

    def test_dual_solve_with_a_wide_mapped_back_gap_is_max_iter(self):
        # a real dual-orientation result, mapped back as solve does: optimal
        # as it is, max_iter once its objective is shifted past 10 * tol
        q, _ = apcount.build_density_relaxation(5, 2, use_symmetry=True)
        q = q if q.sense == "min" else q.negated()
        fold = sdp._sign_rows(q)
        dual = sdp._dual(q, *fold)
        res = ipm.solve_std(sdp._standardize(dual.negated()))
        assert sdp._from_dual(q, dual, fold, res, 1e-8).status == sdp.OPTIMAL
        shifted = replace(res, pobj=res.pobj + 1e-3 * (1.0 + abs(res.pobj)))
        s = sdp._from_dual(q, dual, fold, shifted, 1e-8)
        assert s.gap > 1e-7
        assert s.status == sdp.MAX_ITER


def _lp_vertex_optimum(c, rows):
    """min c.x over x >= 0 and rows (a, rhs, rel), exactly: the best
    feasible vertex, each one the Fraction solution of n tight constraints
    that include every equality row."""
    n = len(c)
    eqs = [(a, r) for a, r, rel in rows if rel == "=="]
    others = [(a, r) for a, r, rel in rows if rel == "<="]
    others += [([int(i == j) for i in range(n)], 0) for j in range(n)]
    best = None
    for extra in itertools.combinations(others, n - len(eqs)):
        tight = [([Fraction(v) for v in a], Fraction(r)) for a, r in eqs + list(extra)]
        x = _fraction_solve(tight)
        if x is None or any(v < 0 for v in x):
            continue
        if any(sum(Fraction(ai) * xi for ai, xi in zip(a, x)) > r
               for a, r, rel in rows if rel == "<="):
            continue
        val = sum(Fraction(ci) * xi for ci, xi in zip(c, x))
        best = val if best is None else min(best, val)
    return best


def _fraction_solve(tight):
    """The unique solution of the square system [(a, rhs)], or None."""
    m = [a + [r] for a, r in tight]
    n = len(m)
    for col in range(n):
        piv = next((i for i in range(col, n) if m[i][col] != 0), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        for i in range(n):
            if i != col and m[i][col] != 0:
                f = m[i][col] / m[col][col]
                m[i] = [u - f * v for u, v in zip(m[i], m[col])]
    return [m[i][n] / m[i][i] for i in range(n)]


class TestOrthant:
    """The 1x1 blocks are solved as one nonnegative orthant."""

    def test_random_lps_match_vertex_enumeration(self):
        rng = random.Random(11)
        for _ in range(12):
            n = rng.choice([2, 3])
            x0 = [rng.randint(1, 3) for _ in range(n)]  # a strictly feasible point
            rows = []
            for _ in range(rng.randint(1, 3)):
                a = [rng.randint(-3, 3) for _ in range(n)]
                lhs = sum(ai * xi for ai, xi in zip(a, x0))
                if rng.random() < 0.3 and not any(r[2] == "==" for r in rows):
                    rows.append((a, lhs, "=="))
                else:
                    rows.append((a, lhs + rng.randint(1, 4), "<="))
            a = [rng.randint(1, 3) for _ in range(n)]  # bounds the polytope
            rows.append((a, sum(ai * xi for ai, xi in zip(a, x0)) + rng.randint(1, 4), "<="))
            c = [rng.randint(-5, 5) for _ in range(n)]
            p = SdpProblem(
                block_dims=[1] * n, C=[np.full((1, 1), float(cj)) for cj in c],
                rows=[LinearRow(blocks={j: np.full((1, 1), float(aj))
                                        for j, aj in enumerate(a) if aj},
                                rhs=float(r), rel=rel) for a, r, rel in rows])
            # the gap is relative to objectives of up to about 50, so 1e-7
            # absolute needs a tighter tol than the default 1e-8
            s = solve(p, tol=1e-9)
            assert s.status == sdp.OPTIMAL
            assert abs(s.primal_obj - float(_lp_vertex_optimum(c, rows))) <= 1e-7

    def test_mixed_psd_and_orthant(self):
        # min <C,X> + 2 x1 - x2  s.t.  tr X + x1 + x2 = 1,  x2 <= 1/2: the
        # mass goes to x2 up to 1/2, the rest to the cheaper of X and x1,
        # unless X's least eigenvalue beats x2 itself
        rng = np.random.default_rng(5)
        for _ in range(4):
            C = rng.normal(size=(3, 3))
            C = (C + C.T) / 2
            lam = float(np.linalg.eigvalsh(C)[0])
            p = SdpProblem(
                block_dims=[3, 1, 1], C=[C, np.full((1, 1), 2.0), np.full((1, 1), -1.0)],
                rows=[LinearRow(blocks={0: np.eye(3), 1: np.eye(1), 2: np.eye(1)}, rhs=1.0),
                      LinearRow(blocks={2: np.eye(1)}, rhs=0.5, rel="<=")])
            s = solve(p)
            assert s.status == sdp.OPTIMAL
            expect = lam if lam <= -1.0 else -0.5 + min(lam, 2.0) / 2.0
            assert abs(s.primal_obj - expect) <= 1e-7

    def test_infeasible_and_unbounded_lps_not_optimal(self):
        infeasible = SdpProblem(block_dims=[1], C=[np.eye(1)],
                                rows=[LinearRow(blocks={0: np.eye(1)}, rhs=-1.0, rel="<=")])
        unbounded = SdpProblem(block_dims=[1], C=[-np.eye(1)])
        for p in (infeasible, unbounded):
            assert solve(p).status != sdp.OPTIMAL

    def test_lapack_calls_per_iteration_do_not_grow_with_orthant(self, monkeypatch):
        # theta'(C5) has 5 nonnegativity rows, theta'(H(2,4,2)) 88; each
        # solves one PSD block next to its orthant
        counts = {}
        for name in ("cholesky", "eigvalsh", "solve"):
            real = getattr(np.linalg, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                counts[_name] = counts.get(_name, 0) + 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        per_iteration = []
        for g in (graphs.Graph.cycle(5), graphs.hamming_graph(2, 4, 2)):
            counts.clear()
            s = solve(graphs.theta_problem(g, prime=True))
            assert s.status == sdp.OPTIMAL
            per_iteration.append({k: v / s.iterations for k, v in counts.items()})
        assert per_iteration[0] == per_iteration[1]


class TestKktAndStopTest:
    def test_refined_kkt_solve_reaches_rounding_level(self):
        # M = Q diag(1 .. 1e16) Q' bordered by four free columns, once
        # independent and once with a repeated column: the eliminated solve,
        # with the shifted factorization of U2' M U2 refined against the
        # unshifted matrix, leaves a residual of the bordered system at
        # rounding level, and U2' M U2 itself is left unshifted
        rng = np.random.default_rng(0)
        m, nf = 30, 4
        q, _ = np.linalg.qr(rng.normal(size=(m, m)))
        M = (q * np.logspace(0, 16, m)) @ q.T
        M = (M + M.T) / 2.0
        D = rng.normal(size=(m, nf))
        for free in (D, np.column_stack([D[:, :3], D[:, 0]])):
            K = np.block([[M, free], [free.T, np.zeros((nf, nf))]])
            rhs = K @ rng.normal(size=m + nf)
            Mr, rr, lift = eliminated_kkt(M, free, rhs)
            before = Mr.copy()
            Kinv = ipm._kkt_factor(Mr)
            assert Kinv is not None
            assert np.array_equal(Mr, before)
            sol = lift(ipm._kkt_solve(Mr, Kinv, rr))
            assert np.linalg.norm(rhs - K @ sol) <= 1e-13 * np.linalg.norm(rhs)

    def test_kkt_factor_is_none_without_a_cholesky_factor(self):
        # eigenvalues 3 and -1: the shift of 2e-13 * 1 leaves it indefinite
        M = np.array([[1.0, 2.0], [2.0, 1.0]])
        before = M.copy()
        assert ipm._kkt_factor(M) is None
        assert np.array_equal(M, before)

    def test_optimal_gap_is_relative_to_objective(self):
        # theta(C5) = sqrt(5), so the objective 500*J has the optimum
        # 500*sqrt(5) ~ 1118; optimal at tol 1e-8 must be that close in
        # relative terms, not 1e-8 * (1 + |p| + |d|)
        p = theta_c5()
        big = SdpProblem(block_dims=[5], C=[500.0 * np.ones((5, 5))],
                         rows=p.rows, sense="max")
        s = solve(big)
        exact = 500.0 * np.sqrt(5.0)
        assert s.status == sdp.OPTIMAL
        assert abs(s.primal_obj - exact) <= 1e-8 * exact
        assert ipm.relative_gap(s.primal_obj, s.dual_obj) <= 1e-8


def _ball_quartic_form(n, seed):
    """The standard form of the order-4 SOS dual of a seeded dense quartic
    on the unit ball: two PSD blocks and the free lower bound."""
    prob, _ = build_sos_dual(ball_quartic(n, random.Random(seed)), 4)
    return sdp._standardize(prob if prob.sense == "min" else prob.negated())


def eliminated_kkt(M, D, rhs):
    """The bordered system [[M, D], [D', 0]] sol = rhs after ``ipm._eliminate``
    of the free columns D: U2' M U2, its rhs, and the lift of its solution
    dy' to sol = (w + U2 dy', D^+ (rhs_M - M dy))."""
    m = len(M)
    _, _, U2, w, pinv = ipm._eliminate(ipm.StdForm(
        dims=[1] * m, rows=np.eye(m), free=D, c=np.zeros(m), free_obj=rhs[m:], b=rhs[:m]))

    def lift(dy2):
        dy = w + U2 @ dy2
        return np.concatenate([dy, pinv @ (rhs[:m] - M @ dy)])
    return U2.T @ M @ U2, U2.T @ (rhs[:m] - M @ w), lift


class TestFactoredLinearAlgebra:
    """Each matrix of an IPM iteration is factored once and used through its
    factor: M = G G', M + delta I by a Cholesky factor once free columns are
    eliminated, and the triangular inverses by block recursion."""

    @pytest.mark.parametrize("n", [1, 47, 48, 49, 97, 330])
    def test_triangular_inverse(self, n):
        rng = np.random.default_rng(n)
        L = np.tril(rng.uniform(-1.0, 1.0, size=(n, n)) / np.sqrt(n))
        L[np.diag_indices(n)] = rng.uniform(1.0, 2.0, size=n)
        ref = np.linalg.inv(L)
        assert np.max(np.abs(ipm._tril_inv(L) - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("form", [
        sdp._standardize(graphs.theta_problem(graphs.Graph.cycle(5), prime=True).negated()),
        _ball_quartic_form(4, 1)], ids=["theta-prime-C5", "ball-quartic-n4"])
    def test_schur_gram_product_equals_the_schur_product(self, form):
        # M = A T', T's block b holding X_b A_kb S_b^-1 and its orthant
        # columns A's scaled by x / s, at a random interior point
        rng = np.random.default_rng(7)
        psd, lp = ipm._cones(form)
        assert (len(psd), len(lp)) in [(1, 5), (2, 0)]
        A = form.rows
        X, S = [], []
        for _, d, k in psd:  # a stack of k d x d blocks
            for blocks in (X, S):
                B = rng.normal(size=(k, d, d))
                blocks.append(B @ np.swapaxes(B, -1, -2) + np.eye(d))
        x, s = rng.uniform(0.5, 2.0, size=(2, len(lp)))
        T = np.empty_like(A)
        for a, t, xb, sb in zip(ipm._views(A, psd), ipm._views(T, psd), X, S):
            t[...] = xb @ a @ np.linalg.inv(sb)
        T[:, lp] = A[:, lp] * (x / s)
        M = A @ T.T

        G = np.empty_like(A)
        lp = slice(int(lp[0]), int(lp[-1]) + 1) if len(lp) else slice(0, 0)
        ipm._schur_rows(ipm._Vec(A, psd, lp), ipm._Vec(G, psd, lp),
                        [ipm._tril_inv(np.linalg.cholesky(sb)) for sb in S],
                        [np.linalg.cholesky(xb) for xb in X], np.sqrt(x / s))
        assert np.max(np.abs(G @ G.T - M)) <= 1e-12 * np.max(np.abs(M))

    @pytest.mark.parametrize("free", ["0", "1", "4", "repeated"])
    def test_factored_kkt_equals_the_shifted_solve(self, free):
        rng = np.random.default_rng(3)
        m = 60
        q, _ = np.linalg.qr(rng.normal(size=(m, m)))
        M = (q * np.logspace(0, 3, m)) @ q.T
        M = (M + M.T) / 2.0
        D = rng.normal(size=(m, 4))
        D = {"0": D[:, :0], "1": D[:, :1], "4": D,
             "repeated": np.column_stack([D[:, :3], D[:, 0]])}[free]
        nf = D.shape[1]
        K = np.block([[M, D], [D.T, np.zeros((nf, nf))]])
        rhs = K @ rng.normal(size=m + nf)
        if not nf:
            shifted = K.copy()
            shifted[np.diag_indices(m)] += ipm._KKT_SHIFT * np.max(np.diag(M))
            Kinv = ipm._kkt_factor(K)
            got, ref = Kinv(rhs), np.linalg.solve(shifted, rhs)
        else:
            # free columns are eliminated: the factored shifted U2' M U2
            # against np.linalg.solve, both lifted to the bordered system's
            # (y, u), u the least-norm split between repeated columns
            Mr, rr, lift = eliminated_kkt(M, D, rhs)
            shifted = Mr + ipm._KKT_SHIFT * np.max(np.diag(Mr)) * np.eye(len(Mr))
            got, ref = lift(ipm._kkt_factor(Mr)(rr)), lift(np.linalg.solve(shifted, rr))
            assert np.linalg.norm(D.T @ got[:m] - rhs[m:]) <= 1e-12 * np.linalg.norm(rhs[m:])
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_no_inverse_or_solve_of_the_schur_complement(self, monkeypatch):
        # forms with more rows than the recursion's leaves: np.linalg.solve is
        # never called, and np.linalg.inv only on the leaves
        shapes = {"inv": [], "solve": []}
        for name in shapes:
            real = getattr(np.linalg, name)

            def recorded(a, *args, _real=real, _name=name, **kwargs):
                shapes[_name].append(np.shape(a))
                return _real(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, recorded)
        for form in (sdp._standardize(graphs.theta_problem(
                         graphs.hamming_graph(2, 4, 2), prime=True).negated()),
                     _ball_quartic_form(4, 1)):
            shapes["inv"].clear()
            res = ipm.solve_std(form)
            assert res.status == "optimal" and len(form.rows) > ipm._LEAF
            assert shapes["solve"] == []
            assert shapes["inv"] and max(s[-1] for s in shapes["inv"]) <= ipm._LEAF


def _linalg_counter(monkeypatch, names=("cholesky", "eigvalsh", "inv")):
    """Counts of the numpy.linalg calls ``names``, as the test runs."""
    counts = {}
    for name in names:
        real = getattr(np.linalg, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            counts[_name] = counts.get(_name, 0) + 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return counts


# Iterations of every standard form that one seed-1 pass of the benchmark's
# four workloads solves, in job order, as the IPM with one LAPACK call per
# block solved them (numpy 2.4, OpenBLAS 0.3.31); every one ended optimal.
# theta's are the unsplit class problems (graphs.theta_class_problem), and
# theta_split's the same problems split into simple components, the LPs
# that graphs.theta solves.
# Rounding differs between BLAS builds and can move a solve by an iteration,
# so the counts are exact only on RECORDED_BUILD (conftest).
WORKLOAD_ITERATIONS = {
    "density": [6, 7, 8, 7, 8, 8, 6, 7, 8, 8, 8, 9, 9, 10, 7, 7, 8, 8, 8, 8, 8, 10, 9, 12,
                10, 10, 7, 8, 9, 9, 9, 9, 9, 10, 11, 10, 10, 12, 10, 11],
    "pop": [9, 9, 10, 10, 14, 14, 11, 11, 11, 11, 9, 9, 9, 9, 11, 11],
    "theta": [8, 9, 8, 8, 9, 9, 9, 10],
    "theta_split": [8, 10, 8, 8, 9, 10, 9, 11],
    "mono": [7] * 21 + [8],
    "reduce": [9, 9, 9, 10],
}


def _workload_problems():
    """(workload, problem) of each solve of one seed-1 benchmark pass: the
    density relaxations with symmetry, the SOS and moment sides of the ball
    quartics, theta and theta' of the Hamming graphs in their coherent
    closures, unsplit and split as graphs.theta splits them, the cyclic mono
    relaxations, and the full and reduced theta of C41 and C61."""
    for p in (5, 7, 11, 13):
        for D in range(p + 1):
            yield "density", apcount.build_density_relaxation(p, D, use_symmetry=True)[0]
    rng = random.Random(1)
    ball_quartic(2, rng)  # the warm-up program is drawn first
    for n, count in ((4, 3), (5, 3), (6, 1), (7, 1)):
        for _ in range(count):
            prog = ball_quartic(n, rng)
            yield "pop", build_sos_dual(prog, 4)[0]
            yield "pop", build_moment_primal(prog, 4)[0]
    for qnd in ((2, 4, 2), (2, 4, 3), (2, 5, 3), (3, 3, 2)):
        for prime in (False, True):
            problem = graphs.theta_class_problem(graphs.hamming_graph(*qnd), prime=prime)[0]
            yield "theta", problem
            yield "theta_split", replace(problem, lmis=symmetry.split_lmi(problem.lmis[0]))
    for n in range(3, 25):
        yield "mono", apcount.build_mono_relaxation(n, use_symmetry=True)[0]
    for n in (41, 61):
        full = graphs.theta_problem(graphs.Graph.cycle(n))
        yield "reduce", full
        yield "reduce", symmetry.reduce_sdp(full, symmetry.dihedral_action(n)).problem


class TestStackedCones:
    """Blocks of one size are one (k, d, d) stack, so an iteration's LAPACK
    calls follow the distinct block sizes, not the number of blocks."""

    @staticmethod
    def _copies(k):
        # k independent copies of min <C, X> s.t. tr X = 1 over 2x2 blocks
        C = np.array([[1.0, 0.5], [0.5, 2.0]])
        return SdpProblem(block_dims=[2] * k, C=[C] * k,
                          rows=[LinearRow(blocks={b: np.eye(2)}, rhs=1.0) for b in range(k)])

    def test_linalg_calls_per_iteration_do_not_grow_with_blocks(self, monkeypatch):
        counts = _linalg_counter(monkeypatch)
        per_iteration = []
        for k in (1, 10):
            counts.clear()
            s = solve(self._copies(k))
            assert s.status == sdp.OPTIMAL
            assert abs(s.primal_obj - k * (1.5 - np.sqrt(0.5))) < 1e-7
            per_iteration.append({name: n / s.iterations for name, n in counts.items()})
        assert per_iteration[0] == per_iteration[1]
        assert set(per_iteration[0]) == {"cholesky", "eigvalsh", "inv"}

    @pytest.mark.parametrize("name,problem,budget", [
        ("density p=13 D=6", lambda: apcount.build_density_relaxation(13, 6, use_symmetry=True)[0],
         {"cholesky": 3, "inv": 3, "eigvalsh": 4}),
        ("mono n=24", lambda: apcount.build_mono_relaxation(24, use_symmetry=True)[0],
         {"cholesky": 2, "inv": 2, "eigvalsh": 2}),
        ("theta' H(2,4,2)", lambda: graphs.theta_class_problem(graphs.hamming_graph(2, 4, 2),
                                                              prime=True)[0],
         {"cholesky": 2, "inv": 2, "eigvalsh": 2}),
    ])
    def test_lapack_budget_per_iteration(self, monkeypatch, name, problem, budget):
        # blocks [5, 20, 20], [27] and [5] with an orthant: per block size
        # one Cholesky call for the guard's X and S together, one inversion
        # and one eigenvalue call for each of the predictor's and the
        # corrector's steps, plus one Cholesky factorization and one
        # inversion of the Schur complement
        p = problem()
        counts = _linalg_counter(monkeypatch)
        s = solve(p)
        assert s.status == sdp.OPTIMAL
        assert counts == {k: v * s.iterations for k, v in budget.items()}, name

    def test_guard_falls_back_to_each_side(self):
        # the stacked trial point of a 2x2 and a 3x3 block and two orthant
        # entries leaves the cone on the S side only: the guard returns the
        # steps, factors and trial point of the two sides' own backtracking
        psd, lp, n = [(0, 2, 1), (4, 3, 1)], slice(13, 15), 15
        z, dz, trial = (ipm._Pair(n, psd, lp) for _ in range(3))
        rng = np.random.default_rng(2)
        for P in z.P:
            P[...] = np.eye(P.shape[-1])
        z.l[...] = 1.0
        dz.v[...] = rng.uniform(-0.1, 0.1, size=(2, n))
        for P in dz.P:
            P += P.swapaxes(-1, -2)
        dz.s.P[0][0] = -2.0 * np.eye(2)
        ap, ad, L = ipm._guard(z, dz, 0.9, 1.0, trial)
        (ax, Lx, tx), (as_, Ls, ts) = (_side_guard(z.v[j], dz.v[j], a, psd, lp)
                                       for j, a in ((0, 0.9), (1, 1.0)))
        assert (ap, ad) == (ax, as_) and ap == 0.9 and ad < 0.5
        assert len(L) == len(Lx) == len(Ls) == 2
        for f, lx, ls in zip(L, Lx, Ls):
            assert np.array_equal(f[0], lx) and np.array_equal(f[1], ls)
        assert np.array_equal(trial.v, np.stack((tx, ts)))

    @pytest.mark.parametrize("dims", [[1, 1, 3], [2, 1, 1, 3], [3, 1, 3, 2, 1, 0, 2], [1, 0, 3]])
    def test_largest_block_with_the_orthant_before_a_stack(self, dims):
        # the orthant first, between two stacks, and spread over blocks of
        # three sizes: the largest block norm of each side equals the
        # per-block Frobenius norms' maximum, whatever the cones' order
        form, _ = ipm._grouped(ipm.StdForm.zeros(dims, 1, 0))
        rng = np.random.default_rng(7)
        n = int(form.off[-1])
        starts = ipm._block_starts(form)
        for scale in (1.0, 1e3):
            w = rng.normal(size=(2, n))
            w[:, form.off[-2]:] *= scale  # the last block the largest
            norms = [np.linalg.norm(side[o:o + d * d])
                     for side in w for o, d in zip(form.off.tolist(), form.dims) if d]
            assert ipm._largest_block(w, starts) == pytest.approx(max(norms), rel=1e-14)
            w[:, form.off[-2]:] = 0.0  # and the last block the smallest
            norms = [np.linalg.norm(side[o:o + d * d])
                     for side in w for o, d in zip(form.off.tolist(), form.dims) if d]
            assert ipm._largest_block(w, starts) == pytest.approx(max(norms), rel=1e-14)

    def test_blocks_out_of_size_order(self):
        # blocks of sizes 2, 3, 1, 2, 3 are solved grouped by size and come
        # back in their own order, equal to the same problem sorted by size
        rng = np.random.default_rng(4)
        dims = [2, 3, 1, 2, 3]
        C = [(lambda a: a @ a.T + np.eye(d))(rng.normal(size=(d, d))) for d in dims]
        rows = [LinearRow(blocks={b: np.eye(d) for b, d in enumerate(dims)}, rhs=1.0),
                LinearRow(blocks={0: np.diag([1.0, -1.0]), 4: np.eye(3)}, rhs=0.2, rel="<=")]
        p = SdpProblem(block_dims=dims, C=C, rows=rows)
        order = [0, 3, 1, 4, 2]
        q = SdpProblem(block_dims=[dims[b] for b in order], C=[C[b] for b in order],
                       rows=[LinearRow(blocks={order.index(b): a for b, a in r.blocks.items()},
                                       rhs=r.rhs, rel=r.rel) for r in rows])
        form = sdp._standardize(p)
        grouped, perm = ipm._grouped(form)
        assert grouped.dims == [2, 2, 3, 3, 1, 1] and grouped.rows.flags.c_contiguous
        assert ipm._grouped(grouped)[1] is None
        sp, sq = solve(p), solve(q)
        assert sp.status == sq.status == sdp.OPTIMAL
        assert abs(sp.primal_obj - sq.primal_obj) < 1e-7
        for b, x in enumerate(sp.X):
            np.testing.assert_allclose(x, sq.X[order.index(b)], atol=1e-6)

    def test_stop_reasons(self):
        # iter_cap: out of iterations; diverged: iterates past DIVERGENCE
        # (min <diag(1, -1), X> is unbounded); stalled: 20 iterations
        # without a better iterate (the SOS side of a ball quartic).  The
        # stall of rng seed 609's quartic was seen on numpy 2.4 with
        # OpenBLAS 0.3.31; another BLAS build may round it to another exit
        assert solve(theta_c5(), max_iter=2).status == ipm.ITER_CAP
        unbounded = SdpProblem(block_dims=[2], C=[np.diag([1.0, -1.0])])
        assert solve(unbounded, max_iter=60).status == ipm.DIVERGED
        rng = random.Random(609)
        for n in (2, 4, 4, 4):  # pop-ball's draws before its first n = 5 quartic
            ball_quartic(n, rng)
        s = solve(build_sos_dual(ball_quartic(5, rng), 4)[0])
        assert s.status == ipm.STALLED and s.iterations < 200

    def test_workload_forms_keep_their_iteration_counts(self, monkeypatch):
        # every form ends optimal; iteration counts are WORKLOAD_ITERATIONS
        # exactly on the recorded BLAS build and within one elsewhere
        exact = on_recorded_build()
        seen = {name: [] for name in WORKLOAD_ITERATIONS}
        real = ipm.solve_std
        group = []

        def recorded(form, **kwargs):
            res = real(form, **kwargs)
            seen[group[-1]].append((res.iterations, res.status))
            return res

        monkeypatch.setattr(ipm, "solve_std", recorded)
        for name, p in _workload_problems():
            group.append(name)
            solve(p, tol=1e-8)
        counts = {name: [it for it, _ in runs] for name, runs in seen.items()}
        if exact:
            assert counts == WORKLOAD_ITERATIONS
        for name, recorded_counts in WORKLOAD_ITERATIONS.items():
            assert len(counts[name]) == len(recorded_counts)
            assert all(abs(a - b) <= 1 for a, b in zip(counts[name], recorded_counts)), name
        assert {status for runs in seen.values() for _, status in runs} == {sdp.OPTIMAL}


def _side_guard(w, dw, a, psd, lp):
    """The cone guard of one side, as the IPM ran it for X and S apart: w +
    a dw for the first of a, 0.8a, ... (30 tries) whose orthant is positive
    and whose stacks factor; (a, the stacks' factors, the point)."""
    for _ in range(30):
        t = dw * a + w
        if (t[lp] > 0.0).all():
            try:
                return a, [np.linalg.cholesky(P) for P in ipm._views(t, psd)], t
            except np.linalg.LinAlgError:
                pass
        a *= 0.8
    return a, None, dw * a + w


def _mixed_form(seed, m=40):
    """A seeded grouped form with symmetric rows on two sparse stacks, of
    three 24 x 24 and two 10 x 10 blocks (each row one entry and its mirror
    in one block of each), a dense stack of two 3 x 3 blocks (full blocks on
    the first ten rows) and an orthant of three 1x1 blocks (one entry per
    row): 77,960 entries, at most 380 of them nonzero."""
    rng = np.random.default_rng(seed)
    form = ipm.StdForm.zeros([24] * 3 + [10] * 2 + [3] * 2 + [1] * 3, m, 0)
    blocks = form.blocks()
    for k in range(m):
        for first, count, d in ((0, 3, 24), (3, 2, 10)):
            i, j = rng.integers(d, size=2)
            blocks[first + rng.integers(count)][k, [i, j], [j, i]] = rng.normal()
        blocks[7 + rng.integers(3)][k] = rng.normal()
    for a in blocks[5:7]:
        a[:10] = rng.normal(size=(10, 3, 3))
        a[:10] += np.swapaxes(a[:10], -1, -2)
    return form


class TestSparseRows:
    """A's nonzeros, read once per solve, choose how each stack assembles
    its part of the Schur complement (F3 or G G') and whether A's products
    are bincounts over them."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mixed_assembly_equals_the_dense_gram_product(self, seed):
        form = _mixed_form(seed)
        A = form.rows
        psd, lp = ipm._cones(form)
        lp = slice(int(lp[0]), int(lp[-1]) + 1)
        rows = ipm._Rows(A, psd, lp)
        assert (rows.f3, rows.dense, rows.sparse) == ([0, 1], [2], True)

        rng = np.random.default_rng(10 + seed)
        X, S = [], []
        for _, d, k in psd:
            for blocks in (X, S):
                B = rng.normal(size=(k, d, d))
                blocks.append(B @ np.swapaxes(B, -1, -2) + np.eye(d))
        x, s = rng.uniform(0.5, 2.0, size=(2, lp.stop - lp.start))
        Lx = [np.linalg.cholesky(xb) for xb in X]
        Lsi = [ipm._tril_inv(np.linalg.cholesky(sb)) for sb in S]
        Sinv = [np.swapaxes(li, -1, -2) @ li for li in Lsi]
        xv = np.concatenate([xb.reshape(-1) for xb in X] + [x])
        M = np.empty((len(A), len(A)))
        rows.schur(xv, Lsi, Lx, Sinv, np.sqrt(x / s), M)

        G = np.empty_like(A)
        ipm._schur_rows(ipm._Vec(A, psd, lp), ipm._Vec(G, psd, lp), Lsi, Lx, np.sqrt(x / s))
        ref = G @ G.T
        assert np.max(np.abs(M - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert np.array_equal(M, M.T)

        v, w = rng.normal(size=A.shape[1]), rng.normal(size=len(A))
        np.testing.assert_allclose(rows.dot(v), A @ v, rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(rows.rdot(w), w @ A, rtol=1e-13, atol=1e-13)

    def test_workload_forms_take_their_assembly_paths(self, monkeypatch):
        # F3 only on the full theta of C41 and C61; sparse products on the
        # pop forms of n = 6 and 7 and the full thetas; every other form as
        # before
        seen = []
        group = []

        class Recorded(ipm._Rows):
            def __init__(self, *args):
                super().__init__(*args)
                seen.append((group[-1], self.counts, self.sparse))

        monkeypatch.setattr(ipm, "_Rows", Recorded)
        for name, p in _workload_problems():
            group.append(name)
            solve(p, max_iter=0)
        assert len(seen) == 98
        f3 = [(name, [(d, k) for d, k, _, _ in counts]) for name, counts, _ in seen if counts]
        assert f3 == [("reduce", [(41, 1)]), ("reduce", [(61, 1)])]
        sparse = [name for name, _, sp in seen if sp]
        assert sparse == ["pop"] * 4 + ["reduce"] * 2
        assert [sp for name, _, sp in seen if name == "pop"] == [False] * 12 + [True] * 4
        assert [sp for name, _, sp in seen if name == "reduce"] == [True, False, True, False]

    @pytest.mark.parametrize("n", [41, 61])
    def test_theta_of_odd_cycles(self, n):
        # Lovasz: theta(C_n) = n cos(pi/n) / (1 + cos(pi/n)) for odd n; at
        # tol 1e-8 the gap alone is about 2e-7 on theta(C_61) ~ 30
        s = solve(graphs.theta_problem(graphs.Graph.cycle(n)), tol=1e-9)
        exact = n * np.cos(np.pi / n) / (1.0 + np.cos(np.pi / n))
        assert s.status == sdp.OPTIMAL
        assert abs(s.primal_obj - exact) <= 1e-7 and abs(s.dual_obj - exact) <= 1e-7

    def test_assembly_is_logged(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="soskit.ipm"):
            solve(graphs.theta_problem(graphs.Graph.cycle(41)), max_iter=0)
        assert ("schur assembly: F3 on the 1 41x41 blocks (15129 pairs <= 70602 dense "
                "entries); A products sparse (123 of 70602 entries nonzero)") in caplog.text

    def test_row_selection_elimination_is_the_product(self, monkeypatch):
        # the forms of both sides of the n = 7 ball quartic, and a form whose
        # free columns touch rows 1 and 3, for which LAPACK returns U2 with a
        # -1: each column of U2 picks one row, and U2'A and U2'b by indexing
        # are bit for bit the products
        forms = []
        real = ipm._eliminate

        def recorded(form):
            forms.append(form)
            return real(form)

        monkeypatch.setattr(ipm, "_eliminate", recorded)
        prog = ball_quartic(7, random.Random(1))
        for p in (build_sos_dual(prog, 4)[0], build_moment_primal(prog, 4)[0]):
            solve(p, max_iter=0)
        assert len(forms) == 2
        forms.append(random_free_form(2, 0, m=4))
        forms[-1].free[...] = [[0.0, 0.0], [3.0, 0.0], [0.0, 0.0], [0.0, -1.0]]
        for form in forms:
            red, _, U2, _, _ = real(form)
            assert np.array_equal(np.count_nonzero(U2, axis=0), np.ones(U2.shape[1]))
            assert red.rows.tobytes() == (U2.T @ form.rows).tobytes()
            assert red.b.tobytes() == (U2.T @ form.b).tobytes()
        assert U2.min() == -1.0


def random_free_form(nf, seed, m=8, dims=(3, 2, 1, 1, 1), repeated=False):
    """A seeded standard form with nf free columns (the last one a copy of
    the first when ``repeated``), strictly feasible on both sides: b and c
    are made from an interior X0, S0 and any u0, y0, and cf = D'y0."""
    rng = np.random.default_rng(seed)
    form = ipm.StdForm.zeros(list(dims), m, nf)
    for a in form.blocks():
        a[...] = rng.normal(size=a.shape)
        a += np.swapaxes(a, -1, -2)
    form.free[...] = rng.normal(size=(m, nf))
    if repeated:
        form.free[:, -1] = form.free[:, 0]
    X0, S0 = ([B @ B.T + np.eye(d) for d, B in
               zip(dims, (rng.normal(size=(d, d)) for d in dims))] for _ in range(2))
    y0 = rng.normal(size=m)
    form.b[...] = form.rows @ ipm._vec(X0) + form.free @ rng.normal(size=nf)
    form.c[...] = y0 @ form.rows + ipm._vec(S0)
    form.free_obj[...] = form.free.T @ y0
    return form


class TestFreeElimination:
    """Free scalars are eliminated once per solve: the IPM runs on the pure
    conic form, and X, y, u are lifted back to the form with its free
    scalars."""

    @pytest.mark.parametrize("nf,repeated", [(1, False), (4, False), (6, False), (4, True)],
                             ids=["1", "4", "m-2", "repeated"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_lifted_solution_meets_the_reported_residuals(self, nf, repeated, seed):
        form = random_free_form(nf, seed, repeated=repeated)
        res = ipm.solve_std(form)
        assert res.status == "optimal"
        x, s = ipm._vec(res.X), ipm._vec(res.S)
        D, cf = form.free, form.free_obj
        pres = np.linalg.norm(form.b - form.rows @ x - D @ res.u) / (1.0 + np.linalg.norm(form.b))
        dres = max(np.linalg.norm(form.c - s - res.y @ form.rows) / (1.0 + np.linalg.norm(form.c)),
                   np.linalg.norm(cf - D.T @ res.y) / (1.0 + np.linalg.norm(cf)))
        pobj, dobj = form.c @ x + cf @ res.u, form.b @ res.y
        assert abs(pres - res.pres) <= 1e-13 and abs(dres - res.dres) <= 1e-13
        assert abs(pobj - res.pobj) <= 1e-12 * max(1.0, abs(pobj))
        assert abs(dobj - res.dobj) <= 1e-12 * max(1.0, abs(dobj))
        assert ipm.relative_gap(pobj, dobj) <= 1e-8
        assert np.linalg.norm(D.T @ res.y - cf) <= 1e-13 * (1.0 + np.linalg.norm(cf))

    def test_free_cost_on_a_zero_column_is_a_primal_ray(self):
        # u_j appears in no row, and its cost is nonzero: the feasible form
        # is unbounded below along u_j
        form = random_free_form(3, 0)
        form.free[:, 1] = 0.0
        form.free_obj[1] = 1.0
        res = ipm.solve_std(form)
        assert res.status == "dual_infeasible_cert"
        assert res.pres <= 1e-8 and res.dres >= 1.0 / (1.0 + np.linalg.norm(form.free_obj))

    def test_elimination_is_logged(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="soskit.ipm"):
            ipm.solve_std(random_free_form(4, 0, repeated=True))
        assert "free scalars eliminated: 8 rows -> 5, rank 3, 4 free" in caplog.text


class TestCheckFeasible:
    def test_gap_primal_point(self):
        rep = check_feasible(gap_example(), [], [0.0, 1.0])
        assert rep.feasible(1e-12)
        assert rep.objective == 0.0

    def test_gap_dual_point(self):
        rep = check_feasible(dual_of(gap_example()), [np.diag([1.0, 0.0, 1.0])], [])
        assert rep.feasible(1e-12)
        assert rep.objective == -1.0

    def test_infeasible_candidate_reported(self):
        rep = check_feasible(gap_example(), [], [1.0, 1.0])
        assert not rep.feasible(1e-6)
        assert min(rep.lmi_min_eigs) < -0.5  # pencil at x1=1 has a negative eigenvalue


class TestSdpa:
    def test_export_format(self):
        p = SdpProblem(
            n_free=2, free_obj=np.array([1.0, 0.5]),
            lmis=[MatrixIneq(dim=2, const=np.zeros((2, 2)),
                             coeffs={0: np.eye(2), 1: np.array([[0.0, 1.0], [1.0, 0.0]])})],
            sense="min")
        text = export_sdpa(p)
        lines = text.splitlines()
        assert lines[0] == "2"
        assert lines[1] == "1"
        assert lines[2] == "2"
        assert lines[3].split() == ["1.0", "0.5"]
        for entry in lines[4:]:
            toks = entry.split()
            assert len(toks) == 5
            assert int(toks[2]) <= int(toks[3])  # upper triangle, 1-based

    def test_round_trip(self):
        for p in (gap_example(), theta_c5()):
            q = to_sdpa_form(p)
            assert structurally_equal(q, import_sdpa(export_sdpa(q)))

    def test_sdpa_form_preserves_optimum(self):
        p = theta_c5()
        q = to_sdpa_form(p)
        sp = solve(p)
        sq = solve(q)
        # max problems are negated on conversion
        assert abs(sq.primal_obj + sp.primal_obj) < 1e-6

    def test_diagonal_blocks(self):
        p = SdpProblem(
            n_free=1, free_obj=np.array([1.0]),
            lmis=[MatrixIneq(dim=2, const=-np.eye(2), coeffs={0: np.eye(2)}, diag=True)],
            sense="min")
        text = export_sdpa(p)
        assert text.splitlines()[2] == "-2"
        q = import_sdpa(text)
        assert q.lmis[0].diag
        assert structurally_equal(p, q)
        s = solve(q)  # min t : t*I - I >= 0  ->  1
        assert abs(s.primal_obj - 1.0) < 1e-7

    @staticmethod
    def _bounds_lp(diag):
        """min c.u  s.t.  u_j >= -1 (j < 3),  u_j <= 1 (j >= 3), as one
        6-entry matrix inequality with 1 + u_j or 1 - u_j on its diagonal."""
        coeffs = {j: np.diag([(1.0 if j < 3 else -1.0) if k == j else 0.0 for k in range(6)])
                  for j in range(6)}
        return SdpProblem(n_free=6, free_obj=np.array([1.0, 2.0, 0.5, -1.0, -2.0, -0.5]),
                          lmis=[MatrixIneq(dim=6, const=np.eye(6), coeffs=coeffs, diag=diag)],
                          sense="min")

    def test_diagonal_inequality_standardizes_to_the_lp_cone(self):
        form = sdp._standardize(self._bounds_lp(diag=True))
        assert form.dims == [1] * 6 and form.rows.shape == (6, 6)
        assert np.array_equal(form.rows, np.eye(6))
        np.testing.assert_array_equal(form.free, -np.diag([1.0] * 3 + [-1.0] * 3))
        dense = sdp._standardize(self._bounds_lp(diag=False))
        assert dense.dims == [6] and len(dense.rows) == 21

    def test_diagonal_inequality_keeps_optimum_and_multiplier(self):
        s, d = solve(self._bounds_lp(diag=True)), solve(self._bounds_lp(diag=False))
        assert s.status == d.status == sdp.OPTIMAL
        assert s.orientation == "direct"  # the 6 pin rows cost no more than the dual
        assert abs(s.primal_obj + 7.0) < 1e-7 and abs(s.primal_obj - d.primal_obj) < 1e-7
        np.testing.assert_allclose(s.free, [-1.0] * 3 + [1.0] * 3, atol=1e-7)
        Z = s.Z[0]
        assert Z.shape == (6, 6) and np.count_nonzero(Z - np.diag(np.diag(Z))) == 0
        np.testing.assert_allclose(np.diag(Z), [1.0, 2.0, 0.5] * 2, atol=1e-7)

    def test_diagonal_inequality_dualizes_to_the_lp_cone(self, monkeypatch):
        # min <C, X> over a 2x2 block with four <= rows, exported: the SDPA
        # problem has three free scalars, the 2x2 block's inequality and one
        # diagonal inequality of the four rows; its dual is the smaller form,
        # and there the diagonal inequality's multiplier is four 1x1 blocks
        p = SdpProblem(
            block_dims=[2], C=[np.array([[1.0, 2.0], [2.0, 3.0]])],
            rows=[LinearRow(blocks={0: np.eye(2)}, rhs=1.0, rel="<="),
                  LinearRow(blocks={0: np.diag([1.0, 0.0])}, rhs=0.8, rel="<="),
                  LinearRow(blocks={0: np.diag([0.0, 1.0])}, rhs=0.9, rel="<="),
                  LinearRow(blocks={0: -np.array([[0.0, 0.5], [0.5, 0.0]])}, rhs=0.3,
                            rel="<=")])
        q = import_sdpa(export_sdpa(to_sdpa_form(p)))
        assert [(l.dim, l.diag) for l in q.lmis] == [(2, False), (4, True)]
        assert dual_of(q).block_dims == [2, 1, 1, 1, 1]
        forms = []
        real = ipm.solve_std
        monkeypatch.setattr(ipm, "solve_std", lambda f, **kw: forms.append(f) or real(f, **kw))
        s = solve(q)
        assert s.orientation == "dual" and s.status == sdp.OPTIMAL
        assert len(forms) == 1 and forms[0].dims == [2, 1, 1, 1, 1]
        d = sdp._from_direct(q, real(sdp._standardize(q)))
        assert d.status == sdp.OPTIMAL
        assert abs(s.primal_obj - d.primal_obj) <= 1e-7
        Z = s.Z[1]
        assert Z.shape == (4, 4) and np.count_nonzero(Z - np.diag(np.diag(Z))) == 0
        np.testing.assert_allclose(Z, d.Z[1], atol=1e-6)

    def test_diagonal_flag_is_part_of_the_structure(self):
        # a lost diag flag keeps the data but not the cone, so roundtrip_ok
        # must see it
        diag, dense = self._bounds_lp(diag=True), self._bounds_lp(diag=False)
        assert structurally_equal(diag, import_sdpa(export_sdpa(diag)))
        assert not structurally_equal(diag, dense)
        assert not structurally_equal(dense, diag)

    def test_diagonal_inequality_rejects_off_diagonal_data(self):
        with pytest.raises(ValueError):
            MatrixIneq(dim=2, const=np.ones((2, 2)), diag=True)
        with pytest.raises(ValueError):
            import_sdpa("1\n1\n-2\n1.0\n1 1 1 2 1.0\n")

    def test_import_rejects_bad_files(self):
        with pytest.raises(ValueError):
            import_sdpa("1\n1\n")
        with pytest.raises(ValueError):
            import_sdpa("1\n1\n2\n1.0\n1 1 2 1 5.0\n")  # lower-triangle index
        with pytest.raises(ValueError, match="non-finite number in line 'nan'"):
            import_sdpa("1\n1\n1\nnan\n1 1 1 1 1.0\n")
        with pytest.raises(ValueError, match="non-finite number in line '0 1 1 1 -inf'"):
            import_sdpa("1\n1\n1\n1.0\n0 1 1 1 -inf\n1 1 1 1 1.0\n")
