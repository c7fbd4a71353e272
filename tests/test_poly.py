import random
from fractions import Fraction
from itertools import combinations

import pytest

from soskit.poly import (
    EXACT,
    FLOAT,
    Polynomial,
    monomial_cmp,
    monomial_sort_key,
    monomials_graded_lex,
    monomials_up_to_degree,
    motzkin,
)


class TestOrdering:
    def test_two_vars_degree_two(self):
        # normative conformance case: (1, x1, x2, x1x2, x1^2, x2^2)
        assert monomials_up_to_degree(2, 2) == [
            (0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2)]

    def test_two_vars_degree_four_moment_order(self):
        got = ["".join(map(str, m)) for m in monomials_up_to_degree(2, 4)]
        assert got == ["00", "10", "01", "11", "20", "02", "21", "12", "30",
                       "03", "22", "31", "13", "40", "04"]

    def test_reflexive(self):
        assert monomial_cmp((1, 2, 0), (1, 2, 0)) == 0

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            monomial_cmp((1, 0), (1, 0, 0))

    def test_total_order_exhaustive(self):
        # antisymmetry and transitivity on all monomials of degree <= 4, n <= 3
        for n in (1, 2, 3):
            monos = monomials_up_to_degree(n, 4)
            for a, b in combinations(monos, 2):
                assert monomial_cmp(a, b) == -monomial_cmp(b, a) != 0
            for a, b, c in combinations(monos, 3):
                # list is sorted, so a < b < c must chain
                assert monomial_cmp(a, b) == -1
                assert monomial_cmp(b, c) == -1
                assert monomial_cmp(a, c) == -1

    def test_three_vars_sorted_matches_pairwise(self):
        monos = monomials_up_to_degree(3, 2)
        assert len(monos) == 10
        for i, a in enumerate(monos):
            for b in monos[i + 1:]:
                assert monomial_cmp(a, b) == -1


def recursive_monomials(n, r):
    """The recursive walk over exponent vectors, sorted: the reference for
    ``monomials_up_to_degree``."""
    out = []

    def rec(prefix, remaining, slots):
        if slots == 0:
            out.append(tuple(prefix))
            return
        for e in range(remaining + 1):
            prefix.append(e)
            rec(prefix, remaining - e, slots - 1)
            prefix.pop()

    rec([], r, n)
    out.sort(key=monomial_sort_key)
    return out


@pytest.mark.parametrize("n,r", [(n, r) for n in range(1, 7) for r in range(5)] + [(13, 3)])
def test_monomials_match_the_recursive_walk(n, r):
    assert monomials_up_to_degree(n, r) == recursive_monomials(n, r)


@pytest.mark.parametrize("n,r", [(n, r) for n in range(1, 7) for r in range(5)] + [(13, 3)])
def test_graded_lex_order_without_a_sort(n, r):
    # degree first, then descending lexicographic order of the exponents
    expect = sorted(recursive_monomials(n, r), key=lambda m: (sum(m), [-e for e in m]))
    assert monomials_graded_lex(n, r) == expect


class TestArithmetic:
    def test_difference_of_squares(self):
        x = Polynomial.variable(1, 0)
        one = Polynomial.constant(1, 1)
        assert (x + one) * (x - one) == Polynomial(1, {(2,): 1, (0,): -1})

    def test_motzkin_built_by_additions(self):
        s = Polynomial.constant(2, 1)
        s = s + Polynomial.monomial(2, (2, 2), -3)
        s = s + Polynomial.monomial(2, (2, 4))
        s = s + Polynomial.monomial(2, (4, 2))
        assert s == motzkin()
        assert len(s.terms) == 4
        assert s.degree() == 6

    def test_evaluation_homomorphism(self):
        rng = random.Random(42)

        def rand_poly():
            terms = {}
            for _ in range(rng.randint(1, 6)):
                m = tuple(rng.randint(0, 2) for _ in range(3))
                terms[m] = terms.get(m, 0) + Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            return Polynomial(3, terms)

        for _ in range(100):
            p, q = rand_poly(), rand_poly()
            pt = [Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(3)]
            assert (p * q).evaluate(pt) == p.evaluate(pt) * q.evaluate(pt)

    def test_exact_add_sub_roundtrip(self):
        rng = random.Random(3)
        for _ in range(50):
            a = Polynomial(2, {(rng.randint(0, 3), rng.randint(0, 3)):
                               Fraction(rng.randint(-20, 20), rng.randint(1, 20))
                               for _ in range(4)})
            b = Polynomial(2, {(rng.randint(0, 3), rng.randint(0, 3)):
                               Fraction(rng.randint(-20, 20), rng.randint(1, 20))
                               for _ in range(4)})
            assert (a + b) - b == a

    def test_mode_mismatch(self):
        with pytest.raises(ValueError):
            Polynomial.constant(1, 1, EXACT) + Polynomial.constant(1, 1.0, FLOAT)

    def test_n_mismatch(self):
        with pytest.raises(ValueError):
            Polynomial.constant(1, 1) + Polynomial.constant(2, 1)

    def test_zero_coefficients_dropped(self):
        p = Polynomial(1, {(1,): 1}) - Polynomial(1, {(1,): 1})
        assert p.is_zero() and p.terms == {}

    def test_exact_coefficients_from_ints_and_fractions(self):
        third = Fraction(1, 3)
        p = Polynomial(2, {(1, 0): 1, (0, 1): 1, (1, 1): third, (2, 0): -16, (0, 2): 17,
                           (2, 2): 0, (3, 0): Fraction(0)})
        assert all(type(c) is Fraction for c in p.terms.values())
        assert p.terms == {(1, 0): 1, (0, 1): 1, (1, 1): third, (2, 0): -16, (0, 2): 17}
        # a Fraction is kept, and equal small ints share one, so equal
        # coefficients compare by identity
        assert p.terms[(1, 1)] is third and p.terms[(1, 0)] is p.terms[(0, 1)]
        with pytest.raises(ValueError):
            Polynomial(1, {(1,): 0.5})
        with pytest.raises(ValueError):
            Polynomial(2, {(1, -1): 1})


class TestCoefficientAccess:
    def test_coefficient_of(self):
        p = Polynomial(1, {(2,): 1, (0,): -1})
        assert p.coefficient_of((2,)) == 1
        assert p.coefficient_of((1,)) == 0

    def test_motzkin_coefficient(self):
        assert motzkin().coefficient_of((2, 2)) == -3

    def test_absent_is_zero(self):
        assert motzkin().coefficient_of((1, 1)) == 0


class TestEvaluate:
    def test_motzkin_at_ones(self):
        assert motzkin().evaluate([1, 1]) == 0

    def test_motzkin_at_2_1(self):
        # hand expansion: 1 - 3*4*1 + 4*1 + 16*1 = 9
        assert motzkin().evaluate([2, 1]) == 9

    def test_constant(self):
        c = Polynomial.constant(3, Fraction(7, 3))
        assert c.evaluate([5, -2, 0]) == Fraction(7, 3)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            motzkin().evaluate([1])

    def test_motzkin_nonnegative_sampled(self):
        rng = random.Random(0)
        f = motzkin().to_float()
        for _ in range(10_000):
            x = rng.uniform(-5, 5)
            y = rng.uniform(-5, 5)
            assert f.evaluate([x, y]) >= -1e-9


class TestSerialization:
    def test_json_roundtrip_exact(self):
        p = Polynomial(2, {(2, 0): Fraction(-3, 7), (0, 1): 2})
        terms = p.to_json_terms()
        assert all(isinstance(t["coef"], str) and "." not in t["coef"] for t in terms)
        assert Polynomial.from_json_terms(2, terms) == p

    def test_json_roundtrip_float(self):
        p = Polynomial(2, {(1, 1): 0.5}, FLOAT)
        assert Polynomial.from_json_terms(2, p.to_json_terms(), FLOAT) == p

    def test_to_float(self):
        p = Polynomial(1, {(1,): Fraction(1, 2)})
        q = p.to_float()
        assert q.mode == FLOAT and q.coefficient_of((1,)) == 0.5
