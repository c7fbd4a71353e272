import dataclasses
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from soskit import sdp
from soskit import apcount, symmetry
from soskit.graphs import Graph, hamming_graph, pair_colours, theta_problem
from soskit.moment import monomial_vector
from soskit.apcount import density_relaxation_program, mono_program
from soskit.poly import Polynomial, mono_mul, monomials_up_to_degree
from soskit.relax import PolyProgram, build_sos_dual
from soskit.sdp import LinearRow, SdpProblem, solve
from soskit.symmetry import (
    GroupAction,
    affine_action,
    coherent_closure,
    commutant_basis,
    compose,
    cyclic_action,
    dihedral_action,
    group_average,
    inverse,
    named_action,
    orbit_basis,
    orbits,
    perm_matrix,
    phi_check,
    primitive_root,
    reduce_sdp,
)
from soskit.symmetry import (
    _labels,
    _monomial_map,
    _pair_orbits,
    _permutation_of,
    _squarefree,
)

from conftest import petersen


def theta_problem_cycle(n):
    rows = [LinearRow(blocks={0: np.eye(n)}, rhs=1.0)]
    for i in range(n):
        j = (i + 1) % n
        a = np.zeros((n, n))
        a[min(i, j), max(i, j)] = a[max(i, j), min(i, j)] = 0.5
        rows.append(LinearRow(blocks={0: a}, rhs=0.0, label=f"e{i}"))
    return SdpProblem(block_dims=[n], C=[np.ones((n, n))], rows=rows, sense="max")


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
            E = np.array([b.E(i) for i in range(b.d)]).astype(np.int64)
            B = E / np.sqrt(b.sizes)[:, None, None]
            for i in range(b.d):
                for j in range(b.d):
                    # E_i E_j = sum_k c_{ij}^k E_k in integers, and
                    # B_i B_j = sum_k lam_{ij}^k B_k with lam_{ij}^k = (L_i)_{kj}
                    assert np.array_equal(E[i] @ E[j], np.tensordot(b.counts[:, i, j], E, axes=1))
                    recon = np.tensordot(b.L_float[i, :, j], B, axes=1)
                    assert np.allclose(recon, B[i] @ B[j], rtol=0, atol=1e-12)

    def test_commutes_with_generators(self):
        action = dihedral_action(5)
        b = commutant_basis(action)
        rng = random.Random(0)
        x = [rng.uniform(-1, 1) for _ in range(b.d)]
        X = b.lift(x)
        for g in action.generators:
            M = perm_matrix(g)
            assert np.allclose(X @ M, M @ X, atol=1e-12)


def induced_action(elements, vec):
    """The group generated by elements, acting on the monomial vector vec by
    substitution."""
    pos = {b: i for i, b in enumerate(vec)}
    return GroupAction(len(vec), [tuple(pos[mv(b)] for b in vec)
                                  for mv in map(_monomial_map, elements)])


def stabilizer_action():
    """The stabilizer of x_0 under the affine group of Z_5, by enumeration,
    acting on the 21 monomials of degree <= 2 in 5 variables: its pair
    orbits have sizes 1, 2 and 4."""
    moved = affine_action(5).elements()[1:]     # sorted, so the identity is first
    return induced_action([g for g in moved if g[0] == 0], monomial_vector(5, 2))


class TestStructureConstants:
    @pytest.mark.parametrize("action", [
        *(cyclic_action(n) for n in range(5, 13)),
        *(dihedral_action(n) for n in (6, 41, 61)),
        affine_action(7), affine_action(13), stabilizer_action(),
    ], ids=lambda a: f"n{a.size}g{len(a.generators)}")
    def test_float_matrices_are_floats_of_exact_entries(self, action):
        # (L_k)_{ij} = c_{kj}^i * s / (t_k t_j) * sqrt(r), t_i t_k t_j = s^2 r
        b = commutant_basis(action)
        t = b.sizes
        exact = np.zeros((b.d, b.d, b.d))
        for i, k, j in zip(*np.nonzero(b.counts)):
            s, r = _squarefree(t[i] * t[k] * t[j])
            c = int(b.counts[i, k, j])
            exact[k, i, j] = float(Fraction(c * s, t[k] * t[j])) * float(r) ** 0.5
        assert np.asarray(b.L_float).tobytes() == exact.tobytes()


class TestPairOrbits:
    def test_matches_group_enumeration_on_random_groups(self):
        # the orbit of (i, j) is {(g(i), g(j))} over every element g; n <= 7
        # keeps the enumeration of a random group, often S_n, small
        rng = random.Random(11)
        for _ in range(200):
            n = rng.randint(1, 7)
            gens = []
            for _ in range(rng.randint(0, 3)):
                g = list(range(n))
                if rng.random() < 0.5:      # a random permutation
                    rng.shuffle(g)
                else:                       # one cycle on a random support
                    support = rng.sample(range(n), rng.randint(1, n))
                    for a, c in zip(support, support[1:] + support[:1]):
                        g[a] = c
                gens.append(tuple(g))
            action = GroupAction(n, gens)
            elems = np.array(action.elements())
            expect = np.full((n, n), -1)
            for i in range(n):
                for j in range(n):
                    if expect[i, j] < 0:
                        expect[elems[:, i], elems[:, j]] = expect.max() + 1
            assert np.array_equal(_pair_orbits(action), expect)

    def test_group_average_and_basis_read_labels(self):
        action = dihedral_action(7)
        b = commutant_basis(action)
        X = np.random.default_rng(4).normal(size=(7, 7))
        avg = group_average(action, X)
        for i in range(b.d):
            orbit = np.argwhere(b.label == i).tolist()
            E = np.zeros((7, 7))
            for r, c in orbit:
                E[r, c] = 1.0
            assert np.array_equal(b.E(i), E)
            assert np.all(avg[E == 1] == sum(X[r, c] for r, c in orbit) / len(orbit))
        x = np.arange(1.0, b.d + 1)
        expect = sum(xi / b.sizes[i] ** 0.5 * b.E(i) for i, xi in enumerate(x))
        assert np.array_equal(b.lift(x), expect)


def star(leaves):
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def random_graph(n, seed):
    rng = random.Random(seed)
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                if rng.random() < 0.5])


def naive_closure(colour):
    """Two-dimensional Weisfeiler-Leman refinement as the definition reads:
    each round colours (x, y) by the tuple (c(x, y), c(y, x), sorted
    (c(x, z), c(z, y)) over z), colours numbered by first pair in row-major
    order, until the number of colours stops growing; None at n or more."""
    c, n = colour.tolist(), len(colour)
    d = len({v for row in c for v in row})
    while d < n:
        ids = {}
        c = [[ids.setdefault((c[x][y], c[y][x],
                              tuple(sorted((c[x][z], c[z][y]) for z in range(n)))), len(ids))
              for y in range(n)] for x in range(n)]
        if len(ids) == d:
            return c
        d = len(ids)
    return None


def arc_colours(n, arcs):
    """The colouring of a digraph's vertex pairs: 0 on the diagonal, 1 on
    arcs and 2 elsewhere."""
    colour = np.full((n, n), 2)
    colour[tuple(np.array(arcs).T)] = 1
    np.fill_diagonal(colour, 0)
    return colour


PALEY7 = [(x, y) for x in range(7) for y in range(7) if (y - x) % 7 in (1, 2, 4)]
NAIVE_COLOURINGS = {name: pair_colours(g) for name, g in {
    "C6": Graph.cycle(6), "C9": Graph.cycle(9), "petersen": petersen(), "K15": star(5),
    "P4": Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]), "K33": Graph.from_edges(
        6, [(i, 3 + j) for i in range(3) for j in range(3)]),
    "H242": hamming_graph(2, 4, 2), "H243": hamming_graph(2, 4, 3),
    "H332": hamming_graph(3, 3, 2), "rand9": random_graph(9, 4), "rand10": random_graph(10, 5),
}.items()}
# digraphs, whose classes need not be symmetric: the Paley tournament on 7
# vertices beside a directed triangle, and the lexicographic product of two
# directed triangles
NAIVE_COLOURINGS["paley7+C3"] = arc_colours(10, PALEY7 + [(7, 8), (8, 9), (9, 7)])
NAIVE_COLOURINGS["C3[C3]"] = arc_colours(9, [
    (3 * a + i, 3 * b + j) for a in range(3) for b in range(3) for i in range(3)
    for j in range(3) if (b - a) % 3 == 1 or (a == b and (j - i) % 3 == 1)])


CLOSED_GRAPHS = {
    "C5": Graph.cycle(5), "C8": Graph.cycle(8), "petersen": petersen(),
    "K15": star(5), "K4": Graph.complete(4), "empty4": Graph.empty(4),
    "H242": hamming_graph(2, 4, 2), "H253": hamming_graph(2, 5, 3),
    "H332": hamming_graph(3, 3, 2),
}


class TestCoherentClosure:
    @pytest.mark.parametrize("name", CLOSED_GRAPHS)
    def test_coherent_and_closed_under_transpose(self, name):
        colour = pair_colours(CLOSED_GRAPHS[name])
        b = coherent_closure(colour)   # orbit_basis asserts constant walk counts
        assert b.d < b.size
        for i in range(b.d):
            assert np.array_equal(b.E(i).T, b.E(b.transpose_of[i]))
            # every class lies inside one colour, and classes are numbered
            # by their first pair in row-major order
            pairs = np.argwhere(b.label == i)
            assert len(set(colour[tuple(pairs.T)].tolist())) == 1
            assert np.array_equal(b.first[i], pairs[0])
        assert np.all(np.diff(b.first[:, 0] * b.size + b.first[:, 1]) > 0)

    @pytest.mark.parametrize("qnd", [(2, 4, 2), (2, 4, 3), (2, 5, 3), (3, 3, 2)])
    def test_walk_counts_match_a_count_per_pair(self, qnd):
        # c_{ij}^k from the first pair (x, y) of class k, z by z
        b = coherent_closure(pair_colours(hamming_graph(*qnd)))
        label = b.label
        expect = np.zeros((b.d, b.d, b.d), dtype=np.int64)
        for k, (x, y) in enumerate(b.first.tolist()):
            for z in range(b.size):
                expect[k, label[x, z], label[z, y]] += 1
        assert np.array_equal(b.counts, expect)

    def test_rejects_a_labelling_that_is_not_coherent(self):
        # the colouring of the path P4 itself: the two ends and the two
        # inner vertices share a diagonal colour
        colour = pair_colours(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]))
        with pytest.raises(AssertionError, match="not coherent"):
            orbit_basis(colour)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_hamming_classes_are_distances(self, n):
        assert coherent_closure(pair_colours(hamming_graph(2, n, 2))).d == n + 1

    @pytest.mark.parametrize("n", range(5, 11))
    def test_cycle(self, n):
        assert coherent_closure(pair_colours(Graph.cycle(n))).d == n // 2 + 1

    def test_petersen_and_star(self):
        assert coherent_closure(pair_colours(petersen())).d == 3
        b = coherent_closure(pair_colours(star(5)))
        assert b.d == 5
        assert sum(t != i for i, t in enumerate(b.transpose_of)) == 2   # one pair

    @pytest.mark.parametrize("g", [Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]),
                                   random_graph(12, 1), random_graph(32, 2),
                                   random_graph(48, 3)],
                             ids=["P4", "rand12", "rand32", "rand48"])
    def test_gives_up_at_n_classes(self, g):
        assert coherent_closure(pair_colours(g)) is None

    def test_rejects_a_labelling_whose_transpose_is_not_a_class(self):
        # E_0 = [[1, 0], [1, 0]] and E_1 = [[0, 1], [0, 1]] have constant
        # walk counts (E_i E_j = E_j), but the transpose of E_0 is no class
        with pytest.raises(AssertionError, match="transpose"):
            orbit_basis(np.array([[0, 1], [0, 1]]))

    @pytest.mark.parametrize("name", NAIVE_COLOURINGS)
    def test_equals_naive_weisfeiler_leman(self, name):
        colour = NAIVE_COLOURINGS[name]
        expect = naive_closure(colour)
        b = coherent_closure(colour)
        if expect is None:
            assert b is None
        else:
            assert b.label.dtype == np.int64 and b.label.tolist() == expect

    def test_colliding_weights_still_give_the_closure(self, monkeypatch):
        # the first 60 weights are 0, so the first rounds hash every pair
        # alike and add no class: orbit_basis rejects the colouring of
        # H(2, 5, 3) (distances 3, 4 and 5 share the non-edge colour), and
        # refinement goes on with fresh weights to the same classes
        colour = pair_colours(hamming_graph(2, 5, 3))
        expect = coherent_closure(colour)
        Random = random.Random

        class Colliding:
            def __init__(self, seed):
                self.real, self.zeros = Random(seed), 60

            def getrandbits(self, k):
                self.zeros -= 1
                return 0 if self.zeros >= 0 else self.real.getrandbits(k)

        rejected = []
        real = symmetry.orbit_basis

        def recording(label):
            try:
                return real(label)
            except AssertionError:
                rejected.append(label)
                raise

        monkeypatch.setattr(symmetry.random, "Random", Colliding)
        monkeypatch.setattr(symmetry, "orbit_basis", recording)
        b = coherent_closure(colour)
        assert len(rejected) >= 2
        assert np.array_equal(b.label, expect.label)
        assert np.array_equal(b.counts, expect.counts)
        assert b.label.tolist() == naive_closure(colour)

    def test_family_bases_are_commutants_of_enumerated_stabilizers(self, monkeypatch):
        # every basis that the symmetric density and mono builds make, one
        # per distinct family label, is the commutant basis of the
        # enumerated stabilizer's induced action, bit for bit
        builds = [(lambda p=p: apcount.build_density_relaxation(p, (p + 1) // 2, True),
                   density_relaxation_program(p, (p + 1) // 2), 3, affine_action(p))
                  for p in (5, 7, 11, 13)]
        builds += [(lambda n=n: apcount.build_mono_relaxation(n, True),
                    mono_program(n), 2, cyclic_action(n)) for n in range(3, 25)]
        real = symmetry.orbit_basis
        for build, prog, s, action in builds:
            made = []

            def recording(label):
                made.append(label)
                return real(label)

            with monkeypatch.context() as m:
                m.setattr(symmetry, "orbit_basis", recording)
                build()
            expect = {}
            for _, _, _, b in enumerated_families(prog, s, action):
                expect.setdefault(b.label.tobytes(), b.label)
            assert [(x.dtype, x.tobytes()) for x in made] == \
                [(x.dtype, x.tobytes()) for x in expect.values()]


def _blocks(Q, *parts):
    """Q diag(parts) Q' for square parts."""
    n = sum(len(p) for p in parts)
    out, i = np.zeros((n, n)), 0
    for p in parts:
        out[i:i + len(p), i:i + len(p)] = p
        i += len(p)
    return Q @ out @ Q.T


class TestSimpleComponents:
    @staticmethod
    def _family(seed=2):
        # Q diag(B1, B2, c) Q' with B1, B2 running through 2x2 matrices that
        # do not commute: components of sizes 2, 2 and 1
        rng = np.random.default_rng(seed)
        Q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
        sym = [np.array([[1.0, 0.0], [0.0, -1.0]]), np.array([[0.0, 1.0], [1.0, 0.0]])]
        return [_blocks(Q, a, b, [[c]]) for a, b, c in
                ((sym[0], sym[1], 1.0), (sym[1], sym[0], -2.0), (np.eye(2), 2 * np.eye(2), 0.5))]

    def test_splits_into_the_blocks(self):
        mats = np.array(self._family())
        Q, P, comps = symmetry._components(mats)
        assert sorted(len(c) for c in comps) == [1, 2, 2]
        assert np.allclose(Q.T @ Q, np.eye(5), atol=1e-12)
        inside = np.zeros((5, 5), dtype=bool)
        for c in comps:
            inside[np.ix_(c, c)] = True
        assert np.max(np.abs((Q.T @ mats @ Q)[:, ~inside])) <= 1e-12
        assert not np.any(P[:, ~inside])

    def test_repeated_runs_are_identical(self):
        mats = np.array(self._family())
        first, again = symmetry._components(mats), symmetry._components(mats)
        assert first[0].tobytes() == again[0].tobytes()
        assert first[1].tobytes() == again[1].tobytes()

    def test_commuting_family_is_diagonal(self):
        rng = np.random.default_rng(5)
        Q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        mats = np.array([(Q * rng.normal(size=4)) @ Q.T for _ in range(3)])
        assert [len(c) for c in symmetry._components(mats)[2]] == [1] * 4

    def test_split_lmi_keeps_the_spectrum(self):
        # the split inequalities' matrices are the blocks of Q' G(u) Q, so
        # their eigenvalues together are those of G(u) at every u
        mats = self._family()
        l = sdp.MatrixIneq(5, mats[0], {0: mats[1], 3: mats[2]}, label="g")
        split = symmetry.split_lmi(l)
        assert [(s.dim, s.diag) for s in split] == [(1, True), (2, False), (2, False)]
        rng = np.random.default_rng(1)
        for _ in range(5):
            u = rng.normal(size=4)
            whole = np.linalg.eigvalsh(l.value(u))
            parts = np.sort(np.concatenate([np.linalg.eigvalsh(s.value(u)) for s in split]))
            np.testing.assert_allclose(parts, whole, atol=1e-12)

    def test_split_lmi_drops_a_vanishing_component(self):
        # the second diagonal entry is 0 >= 0 whatever u is
        l = sdp.MatrixIneq(2, np.diag([1.0, 0.0]), {0: np.diag([2.0, 0.0])}, diag=True)
        (s,) = symmetry.split_lmi(l)
        assert s.diag and s.dim == 1 and s.const[0, 0] == 1.0 and s.coeffs[0][0, 0] == 2.0


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
        # the *-property L_{i*} = L_i' in integers: t_a c_{ib}^a = t_b c_{i*a}^b
        for action in (cyclic_action(7), dihedral_action(6), affine_action(7)):
            b = commutant_basis(action)
            t = np.array(b.sizes)[:, None]
            for i in range(b.d):
                it = b.transpose_of[i]
                assert np.array_equal(b.E(i).T, b.E(it))
                assert np.array_equal(b.counts[:, i] * t, (b.counts[:, it] * t).T)

    def test_rejects_a_perturbed_count(self):
        b = commutant_basis(cyclic_action(5))
        counts = b.counts.copy()
        counts[0, 1, 1] += 1        # c_{11}^0
        ones = [Fraction(1)] * b.d
        assert phi_check(b, ones, ones)
        assert not phi_check(dataclasses.replace(b, counts=counts), ones, ones)


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


def reference_reduction(p, basis):
    """reduce_sdp's objective, rows, row map and L-coefficients by the
    per-orbit formula sum_j <a, E_j> / sqrt(t_j), one E_j at a time."""
    n = p.block_dims[0]
    Es = []
    for j in range(basis.d):
        E = np.zeros((n, n))
        for r, c in np.argwhere(basis.label == j).tolist():
            E[r, c] = 1.0
        Es.append(E)
    groups = basis.sym_groups()

    def coeff(a, group):
        return sum(float(np.sum(a * Es[j])) / float(basis.sizes[j]) ** 0.5 for j in group)

    obj = np.array([coeff(p.C[0], g) for g in groups])
    rows, row_map, seen = [], [], set()
    for k, r in enumerate(p.rows):
        a = r.blocks.get(0, np.zeros((n, n)))
        coeffs = {gi: coeff(a, g) for gi, g in enumerate(groups)}
        coeffs = {i: c for i, c in coeffs.items() if abs(c) > 1e-14}
        key = (r.rel, round(r.rhs, 10), tuple(sorted((i, round(c, 10)) for i, c in coeffs.items())))
        if key not in seen:
            seen.add(key)
            rows.append((coeffs, r.rhs, r.rel, r.label))
            row_map.append(k)
    L = {gi: sum(basis.L_float[j] for j in g) for gi, g in enumerate(groups)}
    return obj, rows, row_map, L


class TestReduceSdpMatchesPerOrbitFormula:
    @pytest.mark.parametrize("n", [5, 7, 9, 12])
    @pytest.mark.parametrize("prime", [False, True])
    @pytest.mark.parametrize("make", [cyclic_action, dihedral_action])
    def test_theta_of_cycle(self, n, prime, make):
        p = theta_problem(Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)]), prime=prime)
        red = reduce_sdp(p, make(n))
        obj, rows, row_map, L = reference_reduction(p, red.basis)
        q = red.problem
        assert q.free_obj.tobytes() == obj.tobytes()
        assert red.row_map == row_map
        assert [(r.free, r.rhs, r.rel, r.label) for r in q.rows] == rows
        for r, (coeffs, _, _, _) in zip(q.rows, rows):
            assert all(np.float64(r.free[i]).tobytes() == np.float64(c).tobytes()
                       for i, c in coeffs.items())
        (lmi,) = q.lmis
        assert lmi.coeffs.keys() == L.keys()
        assert all(lmi.coeffs[gi].tobytes() == L[gi].tobytes() for gi in L)

    def test_moved_objective_names_generator(self):
        p = theta_problem(Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)]))
        C = np.ones((5, 5))
        C[0, 1] = C[1, 0] = 3.0
        bad = SdpProblem(block_dims=[5], C=[C], rows=p.rows, sense="max")
        # the first generator fixes the edge {0, 1}; the second moves it
        action = GroupAction(5, [(1, 0, 4, 3, 2), (1, 2, 3, 4, 0)])
        with pytest.raises(ValueError, match=r"generator 1 moves entry \(0, 1\) by -2\.000e\+00"):
            reduce_sdp(bad, action)

    def test_row_outside_family_names_generator_and_label(self):
        a = np.zeros((5, 5))
        a[0, 1] = a[1, 0] = 0.5
        rows = [LinearRow(blocks={0: np.eye(5)}, rhs=1.0, label="trace"),
                LinearRow(blocks={0: a}, rhs=0.0, label="edge0,1")]
        p = SdpProblem(block_dims=[5], C=[np.ones((5, 5))], rows=rows, sense="max")
        action = GroupAction(5, [(1, 0, 4, 3, 2), (1, 2, 3, 4, 0)])
        with pytest.raises(ValueError, match=r"generator 1 maps row 1 \(edge0,1\) outside"):
            reduce_sdp(p, action)


class TestOrbitHelper:
    def test_order_and_members(self):
        # x -> x + 2 mod 6 on items listed out of order
        items = [3, 0, 5, 2, 1, 4]
        assert orbits(items, [lambda x: (x + 2) % 6]) == [[3, 5, 1], [0, 2, 4]]

    def test_no_maps_gives_singletons(self):
        assert orbits("abc", []) == [["a"], ["b"], ["c"]]


class TestLabels:
    @staticmethod
    def _bfs(n, edges):
        """Each vertex labelled by the least vertex of its component, by
        breadth-first search from each vertex in turn."""
        adj = [[] for _ in range(n)]
        for a, b in edges:
            adj[a].append(b)
            adj[b].append(a)
        label = [-1] * n
        for v in range(n):
            if label[v] < 0:
                label[v], queue = v, [v]
                for u in queue:
                    for w in adj[u]:
                        if label[w] < 0:
                            label[w] = v
                            queue.append(w)
        return label

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_bfs_with_duplicates_loops_and_isolated_vertices(self, seed):
        rng = random.Random(seed)
        n = 40
        # edges among the first 30 vertices only, so 30..39 stay isolated
        edges = [(rng.randrange(30), rng.randrange(30)) for _ in range(25)]
        edges += edges[:10]                                 # duplicates
        edges += [(v, v) for v in rng.sample(range(n), 8)]  # self-loops
        rng.shuffle(edges)
        src, dst = (np.array(x, dtype=np.intp) for x in zip(*edges))
        assert _labels(n, src, dst).tolist() == self._bfs(n, edges)

    def test_no_edges(self):
        empty = np.array([], dtype=np.intp)
        assert _labels(4, empty, empty).tolist() == [0, 1, 2, 3]
        assert _labels(0, empty, empty).tolist() == []


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


def enumerated_families(prog, s, action):
    """(multiplied polynomial, orbit size, monomial vector, basis) for σ0 and
    for each inequality orbit by its first member, in build_sos_dual's
    order, with the orbits and stabilizers found by enumerating the group:
    the basis is the commutant basis of the stabilizer of the multiplied
    polynomial, acting on the order-⌊(s - deg)/2⌋ monomial vector."""
    elems = action.elements()
    ineqs = [q.terms for q in prog.ineqs]

    def image(terms, g):
        mv = _monomial_map(g)
        return {mv(m): c for m, c in terms.items()}

    families, seen = [({(0,) * prog.n: 1}, 1, s // 2)], set()
    for k, terms in enumerate(ineqs):
        if k not in seen:
            orbit = {ineqs.index(image(terms, g)) for g in elems}
            seen |= orbit
            families.append((terms, len(orbit), (s - prog.ineqs[k].degree()) // 2))
    out = []
    for terms, mult, order in families:
        vec = monomial_vector(prog.n, order)
        stab = [g for g in elems if image(terms, g) == terms]
        out.append((terms, mult, vec, commutant_basis(induced_action(stab, vec))))
    return out


def reference_symmetric_rows(prog, s, action, eq_mult_degrees=None):
    """build_sos_dual's free coefficients per row under action by the
    per-orbit formula: every multiplier walked term by term (a Gram orbit
    pair by pair), summed per monomial orbit O in Fractions, times m/|O|, and
    for Gram orbit j times 1/sqrt(t_j), summed over each transpose group."""
    n = prog.n
    moves = [_monomial_map(g) for g in action.generators]

    def image(terms, mv):
        return {mv(m): c for m, c in terms.items()}

    eq_perms = [_permutation_of([q.terms for q in prog.eqs], lambda t, mv=mv: image(t, mv),
                                "equalities", gi) for gi, mv in enumerate(moves)]
    monos = sorted(monomials_up_to_degree(n, s), key=lambda m: (sum(m), [-e for e in m]))
    mono_orbits = orbits(monos, moves)
    orbit_of = {m: k for k, o in enumerate(mono_orbits) for m in o}

    def balance(terms, mult):
        acc = {}
        for m, c in terms.items():
            acc[orbit_of[m]] = acc.get(orbit_of[m], 0) + c
        return {k: v * Fraction(mult, len(mono_orbits[k])) for k, v in acc.items() if v}

    rows = [{} for _ in mono_orbits]
    rows[0][0] = 1.0
    col = 1
    caps = [min(c, s - h.degree()) for c, h in
            zip(eq_mult_degrees or [s - h.degree() for h in prog.eqs], prog.eqs)]
    mults = [(k, g) for k in range(len(prog.eqs)) for g in monomials_up_to_degree(n, caps[k])]
    for orbit in orbits(mults, [lambda kg, pi=pi, mv=mv: (pi[kg[0]], mv(kg[1]))
                                for pi, mv in zip(eq_perms, moves)]):
        k, gamma = orbit[0]
        terms = {mono_mul(gamma, m): c for m, c in prog.eqs[k].terms.items()}
        for row, v in balance(terms, len(orbit)).items():
            rows[row][col] = float(v)
        col += 1
    for g_terms, mult, vec, basis in enumerated_families(prog, s, action):
        for group in basis.sym_groups():
            for j in group:
                terms = {}
                for u, v in np.argwhere(basis.label == j).tolist():
                    for gm, gc in g_terms.items():
                        m = mono_mul(mono_mul(vec[u], vec[v]), gm)
                        terms[m] = terms.get(m, 0) + gc
                scale = 1.0 / float(basis.sizes[j]) ** 0.5
                for row, c in balance(terms, mult).items():
                    rows[row][col] = rows[row].get(col, 0.0) + scale * float(c)
            col += 1
    return rows


def symmetric_inputs():
    out = [("dihedral quartic", dihedral_quartic_program(), 4, dihedral_action(4), None)]
    out += [(f"density p={p} D={D}", density_relaxation_program(p, D), 3, affine_action(p),
             [0] * 5) for p in (5, 7) for D in range(p + 1)]
    out += [(f"mono n={n}", mono_program(n), 2, cyclic_action(n), None) for n in range(3, 13)]
    return out


def test_importing_symmetry_leaves_relax_unloaded():
    # relax's SOS builder uses symmetry's orbit kernels, never the reverse
    src = str(Path(symmetry.__file__).parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import soskit.symmetry; "
            "print('soskit.relax' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    assert done.stdout.strip() == "False"


class TestSymmetricSosDual:
    @pytest.mark.parametrize("name, prog, s, action, eq_degrees", symmetric_inputs(),
                             ids=[x[0] for x in symmetric_inputs()])
    def test_rows_match_per_orbit_formula(self, name, prog, s, action, eq_degrees):
        red = build_sos_dual(prog, s, eq_degrees, action)[0]
        ref = reference_symmetric_rows(prog, s, action, eq_degrees)
        assert len(red.rows) == len(ref)
        for r, want in zip(red.rows, ref):
            assert list(r.free) == sorted(want)
            for j, v in want.items():
                assert abs(r.free[j] - v) <= 1e-15 * abs(v)

    def test_matches_full_dual(self):
        from conftest import conclusive
        prog = dihedral_quartic_program()
        full, _ = build_sos_dual(prog, 4)
        reduced = build_sos_dual(prog, 4, None, dihedral_action(4))[0]
        # 70 monomials fall into 17 orbits; the degree-2 multiplier of the
        # equality keeps one scalar per orbit of its 15 monomials
        assert len(reduced.rows) == 17 < len(full.rows)
        # sigma0 in the commutant of D4 on the 15 monomials of degree <= 2;
        # the inequality multiplier in that of the stabilizer of x_0
        assert [l.dim for l in reduced.lmis] == [44, 17]
        a, b = solve(full), solve(reduced)
        assert conclusive(a) and conclusive(b)
        assert abs(a.primal_obj - b.primal_obj) <= 1e-6

    @pytest.mark.parametrize("prog, s, action", [
        (dihedral_quartic_program(), 4, dihedral_action(4)),
        (density_relaxation_program(7, 3), 3, affine_action(7)),
        (mono_program(8), 2, cyclic_action(8)),
    ], ids=["dihedral quartic", "density p=7", "mono n=8"])
    def test_redundant_generators_give_the_same_forms(self, prog, s, action):
        # a repeated generator and the identity generate the same group
        gens = action.generators
        redundant = GroupAction(action.size, [gens[0], tuple(range(action.size)), *gens,
                                              gens[-1]])
        assert pickle.dumps(build_sos_dual(prog, s, None, redundant)[0]) == \
            pickle.dumps(build_sos_dual(prog, s, None, action)[0])

    def test_rejects_moved_objective(self):
        prog = dihedral_quartic_program(perturb={_mono(4, (0, 3)): Fraction(1)})
        with pytest.raises(ValueError, match="generator 0 moves the objective"):
            build_sos_dual(prog, 4, None, dihedral_action(4))[0]

    def test_rejects_unpermuted_constraints(self):
        prog = dihedral_quartic_program()
        broken = PolyProgram(prog.n, prog.objective, ineqs=prog.ineqs[1:], eqs=prog.eqs)
        with pytest.raises(ValueError, match="generator 0 does not permute the inequalities"):
            build_sos_dual(broken, 4, None, dihedral_action(4))[0]

    def test_rejects_constraints_permuted_only_in_support(self):
        # 1 - 2 x_3^2 has the support of the orbit's other members, not their
        # coefficients, so no generator permutes the inequalities
        prog = dihedral_quartic_program()
        g3 = Polynomial(4, {(0,) * 4: 1, _mono(4, (3, 2)): -2})
        broken = PolyProgram(prog.n, prog.objective, ineqs=prog.ineqs[:3] + (g3,),
                             eqs=prog.eqs)
        with pytest.raises(ValueError, match="generator 0 does not permute the inequalities"):
            build_sos_dual(broken, 4, None, dihedral_action(4))[0]

    def test_rejects_size_mismatch(self):
        with pytest.raises(ValueError):
            build_sos_dual(dihedral_quartic_program(), 4, None, dihedral_action(5))[0]
