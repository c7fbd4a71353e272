import random
from fractions import Fraction

import numpy as np
import pytest

from soskit import sdp
from soskit.poly import Polynomial
from soskit.relax import PolyProgram, build_sos_dual
from soskit.sdp import LinearRow, SdpProblem, solve
from soskit.symmetry import (
    GroupAction,
    RadicalSum,
    affine_action,
    commutant_basis,
    compose,
    cyclic_action,
    dihedral_action,
    group_average,
    inverse,
    named_action,
    orbits,
    perm_matrix,
    phi_check,
    primitive_root,
    reduce_sdp,
    symmetric_sos_dual,
)


def theta_problem_cycle(n):
    rows = [LinearRow(blocks={0: np.eye(n)}, rhs=1.0)]
    for i in range(n):
        j = (i + 1) % n
        a = np.zeros((n, n))
        a[min(i, j), max(i, j)] = a[max(i, j), min(i, j)] = 0.5
        rows.append(LinearRow(blocks={0: a}, rhs=0.0, label=f"e{i}"))
    return SdpProblem(block_dims=[n], C=[np.ones((n, n))], rows=rows, sense="max")


class TestRadicalSum:
    def test_squarefree_normalization(self):
        assert RadicalSum.of(1, 8) == RadicalSum.of(2, 2)
        assert RadicalSum.of(3, 9) == RadicalSum.of(9, 1)

    def test_product(self):
        r2 = RadicalSum.of(1, 2)
        assert r2 * r2 == RadicalSum.of(2)
        assert RadicalSum.of(1, 6) * RadicalSum.of(1, 3) == RadicalSum.of(3, 2)

    def test_float(self):
        assert abs(float(RadicalSum.of(Fraction(1, 2), 8)) - 2 ** 0.5) < 1e-12


class TestPermMatrix:
    def test_identity(self):
        assert np.array_equal(perm_matrix((0, 1, 2)), np.eye(3))

    def test_three_cycle(self):
        g = (1, 2, 0)
        m = perm_matrix(g)
        expect = np.zeros((3, 3))
        expect[0, 1] = expect[1, 2] = expect[2, 0] = 1.0
        assert np.array_equal(m, expect)
        assert np.array_equal(m @ perm_matrix(inverse(g)), np.eye(3))

    def test_homomorphism_affine_z7(self):
        rng = random.Random(2)
        elems = affine_action(7).elements()
        assert len(elems) == 42
        for _ in range(50):
            a, b = rng.choice(elems), rng.choice(elems)
            assert np.array_equal(perm_matrix(compose(a, b)),
                                  perm_matrix(a) @ perm_matrix(b))

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            perm_matrix((0, 0, 1))


class TestGroupAction:
    def test_named_constructors(self):
        assert len(named_action("cyclic 6").elements()) == 6
        assert len(named_action("dihedral 5").elements()) == 10
        assert len(named_action("affine 5").elements()) == 20

    def test_primitive_root(self):
        g = primitive_root(7)
        assert sorted(pow(g, k, 7) for k in range(1, 7)) == [1, 2, 3, 4, 5, 6]

    def test_enumeration_cap(self):
        with pytest.raises(ValueError):
            affine_action(13).elements(cap=10)

    def test_json_round_trip(self):
        a = dihedral_action(4)
        assert GroupAction.from_json(a.to_json()).generators == a.generators


class TestCommutantBasis:
    def test_trivial_group(self):
        b = commutant_basis(GroupAction(3, [(0, 1, 2)]))
        assert b.d == 9  # every entry its own orbit

    def test_cyclic_z5_circulants(self):
        b = commutant_basis(cyclic_action(5))
        assert b.d == 5

    def test_affine_z7_two_orbits(self):
        b = commutant_basis(affine_action(7))
        assert b.d == 2
        assert sorted(b.sizes) == [7, 42]

    def test_partition_of_ones(self):
        for action in (cyclic_action(6), dihedral_action(7), affine_action(5)):
            b = commutant_basis(action)
            total = sum(b.E(i) for i in range(b.d))
            assert np.array_equal(total, np.ones((action.size, action.size)))
            assert sum(b.sizes) == action.size ** 2

    def test_orthonormal_exactly(self):
        b = commutant_basis(dihedral_action(6))
        for i in range(b.d):
            for j in range(b.d):
                # tr(E_i' E_j) = delta_ij * t_i because supports are disjoint
                assert np.sum(b.E(i) * b.E(j)) == (b.sizes[i] if i == j else 0)

    def test_multiplication_parameters_exact(self):
        for action in (cyclic_action(5), dihedral_action(6), affine_action(5)):
            b = commutant_basis(action)
            E = [b.E(i).astype(np.int64) for i in range(b.d)]
            for i in range(b.d):
                for j in range(b.d):
                    prod = E[i] @ E[j]
                    recon = np.zeros_like(prod, dtype=float)
                    for k, lam in b.lam[(i, j)].items():
                        # lam^2 must be the rational c^2 t_k/(t_i t_j)
                        c = prod[b.orbits[k][0]]
                        assert lam * lam == RadicalSum.of(
                            Fraction(int(c) ** 2 * b.sizes[k], b.sizes[i] * b.sizes[j]))
                        recon += float(lam) * b.E(k) / b.sizes[k] ** 0.5
                    target = E[i] @ E[j] / (b.sizes[i] * b.sizes[j]) ** 0.5
                    assert np.allclose(recon, target, atol=1e-12)

    def test_commutes_with_generators(self):
        action = dihedral_action(5)
        b = commutant_basis(action)
        rng = random.Random(0)
        x = [rng.uniform(-1, 1) for _ in range(b.d)]
        X = b.lift(x)
        for g in action.generators:
            M = perm_matrix(g)
            assert np.allclose(X @ M, M @ X, atol=1e-12)


class TestPhiCheck:
    def test_single_basis_element(self):
        b = commutant_basis(cyclic_action(5))
        e1 = [0] * b.d
        e1[1] = 1
        assert phi_check(b, e1, e1)

    def test_random_rational_circulant(self):
        b = commutant_basis(cyclic_action(5))
        rng = random.Random(3)
        for _ in range(10):
            x = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(b.d)]
            y = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(b.d)]
            assert phi_check(b, x, y)

    def test_random_rational_affine(self):
        b = commutant_basis(affine_action(7))
        assert phi_check(b, [Fraction(2), Fraction(-1, 3)], [Fraction(1, 2), Fraction(5)])

    def test_transpose_orbit(self):
        b = commutant_basis(cyclic_action(7))
        for i in range(b.d):
            it = b.transpose_of[i]
            assert np.array_equal(b.E(i).T, b.E(it))
            Li = b.L_exact(i)
            Lit = b.L_exact(it)
            for a in range(b.d):
                for c in range(b.d):
                    assert Li[a][c] == Lit[c][a]


class TestGroupAverage:
    def test_invariant_fixed(self):
        b = commutant_basis(dihedral_action(6))
        X = 2.0 * b.E(0) + 0.5 * b.E(1)
        assert np.allclose(group_average(dihedral_action(6), X), X)

    def test_point_mass_to_identity(self):
        X = np.zeros((5, 5))
        X[0, 0] = 1.0
        avg = group_average(cyclic_action(5), X)
        assert np.allclose(avg, np.eye(5) / 5)

    def test_trace_preserved(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            X = rng.normal(size=(6, 6))
            avg = group_average(dihedral_action(6), X)
            assert abs(np.trace(avg) - np.trace(X)) < 1e-12


class TestCorollarySign:
    def test_min_eig_sign_agrees(self):
        # desk-scale check of the PSD equivalence: d <= 10, |Z| <= 60
        rng = random.Random(6)
        for action in (cyclic_action(7), dihedral_action(10), affine_action(13)):
            b = commutant_basis(action)
            assert b.d <= 10 and action.size <= 60
            for _ in stable_range(100 if b.d <= 7 else 30):
                x = [0.0] * b.d
                for i in range(b.d):
                    v = rng.uniform(-1, 1)
                    x[i] += v
                    x[b.transpose_of[i]] += v  # symmetric pairing
                big = b.lift(x)
                small = sum(xi * L for xi, L in zip(x, b.L_float))
                lam_big = np.linalg.eigvalsh((big + big.T) / 2)[0]
                lam_small = np.linalg.eigvalsh((small + small.T) / 2)[0]
                if abs(lam_big) > 1e-9 or abs(lam_small) > 1e-9:
                    assert (lam_big >= -1e-9) == (lam_small >= -1e-9)


def stable_range(n):
    return range(n)


class TestReduceSdp:
    def test_trivial_group_same_optimum(self):
        p = theta_problem_cycle(4)
        red = reduce_sdp(p, GroupAction(4, [(0, 1, 2, 3)]))
        assert red.basis.d == 16
        a, b = solve(p), solve(red.problem)
        assert abs(a.primal_obj - b.primal_obj) < 1e-6

    def test_theta_c5_dihedral(self):
        p = theta_problem_cycle(5)
        red = reduce_sdp(p, dihedral_action(5))
        assert red.basis.d == 3
        full, reduced = solve(p), solve(red.problem)
        assert abs(full.primal_obj - reduced.primal_obj) < 1e-6
        assert abs(full.primal_obj - 5 ** 0.5) < 1e-6
        X = red.lift(reduced.free)
        assert abs(np.trace(X) - 1.0) < 1e-7

    def test_rejects_noninvariant_objective(self):
        p = theta_problem_cycle(5)
        C = np.ones((5, 5))
        C[0, 0] = 7.0
        bad = SdpProblem(block_dims=[5], C=[C], rows=p.rows, sense="max")
        with pytest.raises(ValueError, match="generator"):
            reduce_sdp(bad, dihedral_action(5))

    def test_rejects_noninvariant_rows(self):
        n = 5
        rows = [LinearRow(blocks={0: np.eye(n)}, rhs=1.0)]
        a = np.zeros((n, n))
        a[0, 1] = a[1, 0] = 0.5
        rows.append(LinearRow(blocks={0: a}, rhs=0.0))  # a single edge only
        p = SdpProblem(block_dims=[n], C=[np.ones((n, n))], rows=rows, sense="max")
        with pytest.raises(ValueError, match="row"):
            reduce_sdp(p, dihedral_action(5))


class TestOrbitHelper:
    def test_order_and_members(self):
        # x -> x + 2 mod 6 on items listed out of order
        items = [3, 0, 5, 2, 1, 4]
        assert orbits(items, [lambda x: (x + 2) % 6]) == [[3, 5, 1], [0, 2, 4]]

    def test_no_maps_gives_singletons(self):
        assert orbits("abc", []) == [["a"], ["b"], ["c"]]


def _mono(n, *powers):
    e = [0] * n
    for i, v in powers:
        e[i] += v
    return tuple(e)


def dihedral_quartic_program(perturb=None):
    """A quartic in 4 variables fixed by the dihedral group of the square,
    with the orbit 1 - x_i^2 >= 0 (stabilizer of x_0: the reflection fixing
    0 and 2) and sum x_i^2 = 2."""
    n = 4
    one = (0,) * n
    f = {_mono(n, (0, 1), (1, 1), (2, 1), (3, 1)): Fraction(1)}
    for i in range(n):
        j = (i + 1) % n
        f[_mono(n, (i, 4))] = Fraction(1)
        f[_mono(n, (i, 1))] = Fraction(1, 2)
        f[_mono(n, (i, 1), (j, 1))] = Fraction(-3)
        f[_mono(n, (i, 1), ((i + 2) % n, 1))] = Fraction(2)
        f[_mono(n, (i, 2), (j, 1))] = Fraction(1)
        f[_mono(n, (j, 2), (i, 1))] = Fraction(1)
    f.update(perturb or {})
    return PolyProgram(
        n, Polynomial(n, f),
        ineqs=tuple(Polynomial(n, {one: 1, _mono(n, (i, 2)): -1}) for i in range(n)),
        eqs=(Polynomial(n, {**{_mono(n, (i, 2)): 1 for i in range(n)}, one: -2}),))


class TestSymmetricSosDual:
    def test_matches_full_dual(self):
        from conftest import conclusive
        prog = dihedral_quartic_program()
        full, _ = build_sos_dual(prog, 4)
        reduced = symmetric_sos_dual(prog, 4, dihedral_action(4))
        # 70 monomials fall into 17 orbits; the degree-2 multiplier of the
        # equality keeps one scalar per orbit of its 15 monomials
        assert len(reduced.rows) == 17 < len(full.rows)
        # sigma0 in the commutant of D4 on the 15 monomials of degree <= 2;
        # the inequality multiplier in that of the stabilizer of x_0
        assert [l.dim for l in reduced.lmis] == [44, 17]
        a, b = solve(full), solve(reduced)
        assert conclusive(a) and conclusive(b)
        assert abs(a.primal_obj - b.primal_obj) <= 1e-6

    def test_rejects_moved_objective(self):
        prog = dihedral_quartic_program(perturb={_mono(4, (0, 3)): Fraction(1)})
        with pytest.raises(ValueError, match="generator 0 moves the objective"):
            symmetric_sos_dual(prog, 4, dihedral_action(4))

    def test_rejects_unpermuted_constraints(self):
        prog = dihedral_quartic_program()
        broken = PolyProgram(prog.n, prog.objective, ineqs=prog.ineqs[1:], eqs=prog.eqs)
        with pytest.raises(ValueError, match="generator 0 does not permute the inequalities"):
            symmetric_sos_dual(broken, 4, dihedral_action(4))

    def test_rejects_size_mismatch(self):
        with pytest.raises(ValueError):
            symmetric_sos_dual(dihedral_quartic_program(), 4, dihedral_action(5))
