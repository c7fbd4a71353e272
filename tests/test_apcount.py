import pickle
import random
from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np
import pytest

from soskit import apcount, sdp
from soskit.apcount import (
    ap_count_formula,
    ap_orbits,
    brute_force_R,
    brute_force_W,
    build_density_relaxation,
    build_mono_relaxation,
    cyclic_bound,
    density_certificate,
    density_lambda,
    density_program,
    density_relaxation_program,
    enumerate_aps,
    mono_ap_count,
    mono_program,
    same_color_indicator,
)
from soskit.poly import Polynomial
from soskit.relax import PolyProgram, extract_certificate, verify_certificate
from soskit.symmetry import affine_action


def is_ap_by_midpoint(t, n):
    """Independent oracle: some element is the midpoint of the other two."""
    a, b, c = t
    return any((x + z) % n == (2 * y) % n
               for x, y, z in ((a, b, c), (b, a, c), (a, c, b)))


class TestEnumerate:
    def test_z5_all_three_subsets(self):
        aps = enumerate_aps(5)
        assert len(aps) == 10 == comb(5, 3)
        for t in combinations(range(5), 3):
            assert is_ap_by_midpoint(t, 5)
            assert t in aps

    def test_z4_wraparound(self):
        aps = enumerate_aps(4)
        assert (0, 1, 2) in aps
        # {3,0,1} is the progression 3, 0, 1 with step 1, so {0,1,3} counts
        assert (0, 1, 3) in aps
        assert len(aps) == ap_count_formula(4) == 4

    def test_z3_single(self):
        assert enumerate_aps(3).triples == ((0, 1, 2),)

    def test_matches_midpoint_oracle(self):
        for n in (5, 7, 8, 11):
            aps = set(enumerate_aps(n).triples)
            for t in combinations(range(n), 3):
                assert (t in aps) == is_ap_by_midpoint(t, n)

    def test_matches_reference_loop(self):
        # the same sorted triples as a loop over every (a, b), 3 | n among the n
        for n in range(3, 61):
            seen = {tuple(sorted({a, (a + b) % n, (a + 2 * b) % n}))
                    for a in range(n) for b in range(1, n)}
            expect = tuple(sorted(t for t in seen if len(t) == 3))
            got = enumerate_aps(n).triples
            assert got == expect and all(type(v) is int for t in got for v in t), f"n={n}"

    def test_ap_columns_each_ap_once(self):
        for n in range(1, 61):
            cols = apcount._ap_columns(n)
            assert all(x.dtype.kind == "i" for x in cols)
            got = sorted(tuple(sorted(t)) for t in zip(*(x.tolist() for x in cols)))
            assert got == list(enumerate_aps(n).triples if n >= 3 else ()), f"n={n}"

    def test_count_formula_cross_check(self):
        # the closed-form count matches enumeration away from multiples of 3
        for n in (4, 5, 7, 8, 10, 11, 13, 14):
            assert ap_count_formula(n) == len(enumerate_aps(n))


class TestOrbits:
    def test_single_orbit_prime(self):
        assert len(ap_orbits(5)) == 1
        assert len(ap_orbits(7)) == 1

    def test_orbit_stabilizer(self):
        for p in (5, 7):
            group = affine_action(p).elements()
            assert len(group) == p * (p - 1)
            for orbit in ap_orbits(p):
                rep = set(orbit[0])
                stab = sum(1 for g in group
                           if {g[v] for v in rep} == rep)
                assert len(orbit) * stab == len(group)

    def test_n3(self):
        assert ap_orbits(3) == [[(0, 1, 2)]]

    def test_orbit_sizes_divide_group_order(self):
        for p in (5, 7, 11, 13):
            for orbit in ap_orbits(p):
                assert (p * (p - 1)) % len(orbit) == 0


class TestMonoCount:
    def test_indicator_values(self):
        assert same_color_indicator(1, 1, -1) == 0
        assert same_color_indicator(-1, -1, -1) == 1

    def test_all_ones(self):
        assert mono_ap_count([1] * 5) == 10

    def test_three_two_split(self):
        assert mono_ap_count([1, 1, 1, -1, -1]) == 1

    def test_formula_equals_direct_count(self):
        rng = random.Random(123)
        for _ in range(1000):
            n = rng.randint(3, 10)
            coloring = [rng.choice((-1, 1)) for _ in range(n)]
            direct = sum(1 for a, b, c in enumerate_aps(n)
                         if coloring[a] == coloring[b] == coloring[c])
            assert mono_ap_count(coloring) == direct

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            mono_ap_count([1, 0, -1])


def _mono_program_loop(n):
    """mono_program as one Fraction(1, 4) added per AP and term, the
    reference for the integer counts."""
    quarter = Fraction(1, 4)
    terms = {}
    for a, b, c in enumerate_aps(n):
        for m in (apcount._exponents(n, (a, 1), (b, 1)), apcount._exponents(n, (a, 1), (c, 1)),
                  apcount._exponents(n, (b, 1), (c, 1)), (0,) * n):
            terms[m] = terms.get(m, 0) + quarter
    eqs = tuple(Polynomial(n, {apcount._exponents(n, (i, 2)): 1, (0,) * n: -1}) for i in range(n))
    return PolyProgram(n, Polynomial(n, terms), eqs=eqs)


class TestMonoProgram:
    def test_matches_the_fraction_loop(self):
        # same coefficients, in the same order of first appearance
        for n in range(3, 61):
            assert pickle.dumps(mono_program(n)) == pickle.dumps(_mono_program_loop(n)), n


class TestBruteForceR:
    def test_known_values(self):
        assert brute_force_R(5) == 1    # table row for 5 mod 24 is exact
        assert brute_force_R(8) == 0    # table row for 8 mod 24
        assert brute_force_R(3) == 0

    def test_bracket_small(self):
        for n in range(3, 13):
            low, high = cyclic_bound(n)
            r = brute_force_R(n)
            assert float(low) - 1e-9 <= r <= float(high) + 1e-9

    @staticmethod
    def _by_colouring(n):
        """The minimum over every colouring with x_0 = +1, each 3-AP counted
        by the indicator (x_a x_b + x_a x_c + x_b x_c + 1) // 4."""
        trip = np.array(enumerate_aps(n).triples)
        idx = np.arange(1 << (n - 1))
        signs = np.ones((len(idx), n), dtype=np.int64)
        signs[:, 1:] -= 2 * ((idx[:, None] >> np.arange(n - 1)) & 1)
        sa, sb, sc = (signs[:, trip[:, k]] for k in range(3))
        return int(((sa * sb + sa * sc + sb * sc + 1) // 4).sum(axis=1).min())

    def test_quadratic_form_equals_the_colouring_count(self):
        assert [brute_force_R(n) for n in range(3, 17)] == \
            [self._by_colouring(n) for n in range(3, 17)]

    def test_values_beyond_16(self):
        assert [brute_force_R(n) for n in range(17, 22)] == [28, 16, 36, 32, 33]
        # n = 22, 23, 24: the rows of cyclic_bound that are exact
        for n, r in ((22, 40), (23, 55), (24, 32)):
            assert brute_force_R(n) == r and cyclic_bound(n) == (r, r)


class TestCyclicBound:
    def test_row_12(self):
        assert cyclic_bound(12) == (Fraction(-2), Fraction(16))

    def test_row_24(self):
        assert cyclic_bound(24) == (Fraction(32), Fraction(32))

    def test_row_10(self):
        assert cyclic_bound(10) == (Fraction(4), Fraction(4))

    def test_row_5(self):
        assert cyclic_bound(5) == (Fraction(1), Fraction(1))


class TestDensityLambda:
    def test_full_set(self):
        assert density_lambda(5, 5) == 10 == len(enumerate_aps(5))

    def test_p5_d4(self):
        assert density_lambda(5, 4) == 3
        assert brute_force_W(5, 4) == 4  # true minimum is above the bound

    def test_single_point(self):
        assert density_lambda(5, 1) == 0

    def test_below_brute_force(self):
        for p in (5, 7):
            for D in range(p + 1):
                assert density_lambda(p, D) <= brute_force_W(p, D)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            density_lambda(6, 2)
        with pytest.raises(ValueError):
            density_lambda(5, 9)


def reference_W(p, D):
    """The bitmask loop over lexicographic D-subsets, stopping at 0."""
    aps = enumerate_aps(p).triples if p >= 3 else ()
    masks = [(1 << a) | (1 << b) | (1 << c) for a, b, c in aps]
    best = None
    for subset in combinations(range(p), D):
        m = 0
        for v in subset:
            m |= 1 << v
        cnt = sum(1 for t in masks if t & m == t)
        if best is None or cnt < best:
            best = cnt
            if best == 0:
                break
    return best


class TestBruteForceW:
    def test_values(self):
        assert brute_force_W(5, 3) == 1
        assert brute_force_W(5, 5) == 10
        assert brute_force_W(7, 2) == 0

    @pytest.mark.parametrize("p", range(1, 14))
    def test_matches_reference_loop_at_every_D(self, p):
        for D in range(p + 2):      # no (p + 1)-subsets: both give None
            assert brute_force_W(p, D) == reference_W(p, D), f"D={D}"

    @pytest.mark.parametrize("p", [17, 23])
    def test_matches_reference_loop_at_small_D(self, p):
        for D in range(7):
            assert brute_force_W(p, D) == reference_W(p, D), f"D={D}"

    def test_small_chunks_agree(self, monkeypatch):
        # 6 to 23 subsets per chunk: the minimum and the stop at 0 span chunks
        monkeypatch.setattr(apcount, "W_CHUNK", 500)
        for p in (7, 11, 13):
            for D in range(p + 1):
                assert brute_force_W(p, D) == reference_W(p, D), f"p={p} D={D}"

    def test_subset_limit(self):
        assert comb(30, 15) > apcount.W_MAX_SUBSETS >= 10 ** 7
        with pytest.raises(ValueError):
            brute_force_W(30, 15)


class TestDensityCertificate:
    def test_p5_d4_exact(self):
        cert = density_certificate(5, 4)
        assert cert.lam == 3
        v = verify_certificate(density_program(5, 4), cert, mode="exact")
        assert v.identity_residual.is_zero()
        assert v.psd_ok

    def test_p7_all_d(self):
        for D in range(8):
            v = verify_certificate(density_program(7, D), density_certificate(7, D),
                                   mode="exact")
            assert v.ok(), f"D={D}"

    def test_p5_d0_degenerate(self):
        cert = density_certificate(5, 0)
        assert cert.lam == 0
        v = verify_certificate(density_program(5, 0), cert, mode="exact")
        assert v.ok()


    @staticmethod
    def _docstring_certificate_json(p, D):
        """The certificate of density_certificate's docstring, built in
        Fractions: the multiplier of X_i is the Gram over (1, X_0..X_{p-1})
        of (1/(p-1)) [sum_{0<r<s<=(p-1)/2} (X_{i+r} + X_{i-r} - X_{i+s} - X_{i-s})^2
        + (D X_i - sum_j X_j)^2]."""
        inv = Fraction(1, p - 1)
        half = (p - 1) // 2
        grams = [[["0"]]]
        for i in range(p):
            forms = []
            for r in range(1, half + 1):
                for s in range(r + 1, half + 1):
                    w = [Fraction(0)] * (p + 1)
                    for pos, sign in (((i + r) % p, 1), ((i - r) % p, 1),
                                      ((i + s) % p, -1), ((i - s) % p, -1)):
                        w[1 + pos] += sign
                    forms.append(w)
            forms.append([Fraction(0)] + [Fraction(D if j == i else 0) - 1 for j in range(p)])
            q = [[Fraction(0)] * (p + 1) for _ in range(p + 1)]
            for w in forms:
                support = [a for a, wa in enumerate(w) if wa]
                for a in support:
                    for b in support:
                        q[a][b] += inv * w[a] * w[b]
            grams.append([[str(v) for v in row] for row in q])
        half3 = Fraction(p + 3, 2)
        lam = (Fraction(D) ** 3 - half3 * D ** 2 + (half3 - 1) * D) / (p - 1)
        mults = [Polynomial.constant(p, c).to_json_terms()
                 for c in (Fraction((D - 1) ** 2, p - 1), Fraction(4 * D - p - 3, 2 * (p - 1)))]
        return {"lambda": str(lam), "grams": grams, "eq_multipliers": mults,
                "orders": [0] + [1] * p, "mode": "exact"}

    def test_matches_docstring_sum_of_squares(self):
        for p in (5, 7, 11):
            for D in range(p + 1):
                assert density_certificate(p, D).to_json() == \
                    self._docstring_certificate_json(p, D), f"p={p} D={D}"

    def test_gram_moved_by_one_billionth_fails_identity(self):
        prog, cert = density_program(7, 3), density_certificate(7, 3)
        assert verify_certificate(prog, cert, mode="exact").ok()
        # the multiplier of X_1, entry (X_2, X_2): the residual gains X_1 X_2^2 / 10^9
        cert.gram[2][3][3] += Fraction(1, 10 ** 9)
        v = verify_certificate(prog, cert, mode="exact")
        assert not v.identity_ok() and not v.ok()
        assert v.psd_ok is None
        assert v.identity_residual.terms == {(0, 1, 2, 0, 0, 0, 0): Fraction(1, 10 ** 9)}


class TestDensityRelaxation:
    def test_p5_d4_bracketed(self):
        prob, _ = build_density_relaxation(5, 4)
        sol = sdp.solve(prob)
        assert sol.status == sdp.OPTIMAL
        lam = float(density_lambda(5, 4))
        assert lam - 1e-6 <= sol.primal_obj <= brute_force_W(5, 4) + 1e-6

    def test_p7_d0_zero(self):
        prob, _ = build_density_relaxation(7, 0, use_symmetry=True)
        sol = sdp.solve(prob)
        assert abs(sol.primal_obj) < 1e-6

    def test_p7_sym_matches_unsym(self):
        from conftest import conclusive
        for D in range(8):
            u, _ = build_density_relaxation(7, D)
            s, _ = build_density_relaxation(7, D, use_symmetry=True)
            su, ss = sdp.solve(u), sdp.solve(s)
            assert conclusive(su) and conclusive(ss), f"D={D}"
            assert abs(su.primal_obj - ss.primal_obj) <= 1e-6 * (1 + abs(su.primal_obj)), f"D={D}"

    def test_p13_reduced_shape(self):
        prob, info = build_density_relaxation(13, 5, use_symmetry=True)
        assert info is None
        assert len(prob.rows) == 9 and prob.n_free == 34
        assert [l.dim for l in prob.lmis] == [5, 20, 20]

    def test_symmetry_needs_prime(self):
        with pytest.raises(ValueError):
            build_density_relaxation(6, 2, use_symmetry=True)

    @pytest.mark.parametrize("p", [5, 7])
    def test_identities_vanish_on_every_d_subset(self, p):
        for D in range(p + 1):
            prog = density_relaxation_program(p, D)
            for subset in combinations(range(p), D):
                x = [int(i in subset) for i in range(p)]
                assert all(h.evaluate(x) == 0 for h in prog.eqs), f"D={D} {subset}"

    def test_extracted_certificate_p5_full(self):
        prob, info = build_density_relaxation(5, 5)
        sol = sdp.solve(prob)
        assert sol.status == sdp.OPTIMAL
        assert abs(sol.primal_obj - 10.0) < 1e-5   # equals the full AP count
        prog = density_relaxation_program(5, 5)
        cert = extract_certificate(sol, info, prog)
        assert abs(float(cert.lam) - 10.0) < 1e-5
        v = verify_certificate(prog, cert, mode=cert.mode)
        assert v.ok()


class TestMonoRelaxation:
    def test_n5_bound_below_brute(self):
        prob, _ = build_mono_relaxation(5)
        sol = sdp.solve(prob)
        assert sol.status == sdp.OPTIMAL
        assert sol.primal_obj <= brute_force_R(5) + 1e-6  # only the bracket is promised
        # analytic value of this relaxation: on the +-1 cube the objective is
        # 5/8 + 3/8*(sum x_i)^2, and the degree-2 dual attains the constant
        assert abs(sol.primal_obj - 0.625) < 1e-6

    def test_n3(self):
        prob, _ = build_mono_relaxation(3)
        sol = sdp.solve(prob)
        assert sol.primal_obj <= 0 + 1e-6
        assert float(mono_program(3).objective.coefficient_of((0, 0, 0))) == 0.25

    def test_n8(self):
        prob, _ = build_mono_relaxation(8, use_symmetry=True)
        sol = sdp.solve(prob)
        assert sol.primal_obj <= brute_force_R(8) + 1e-6 == 1e-6

    def test_n24_reduced_shape(self):
        prob, _ = build_mono_relaxation(24, use_symmetry=True)
        assert len(prob.rows) == 15 and prob.n_free == 17
        assert [l.dim for l in prob.lmis] == [27]

    def test_sym_matches_unsym(self):
        for n in (3, 5, 6, 8):
            u, _ = build_mono_relaxation(n)
            s, _ = build_mono_relaxation(n, use_symmetry=True)
            a, b = sdp.solve(u), sdp.solve(s)
            assert abs(a.primal_obj - b.primal_obj) < 1e-6, f"n={n}"
