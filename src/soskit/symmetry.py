"""Permutation-group machinery for invariant SDPs.

The commutant of a permutation action on Z is spanned by the {0,1}
indicator matrices E_i of the orbits of Z x Z.  Normalizing to
B_i = E_i/sqrt(tr(E_i'E_i)) gives an orthonormal basis whose multiplication
parameters B_iB_j = sum_k lam_{ij}^k B_k define the regular-representation
matrices (L_k)_{ij} = lam_{kj}^i.  A sum over the B basis is PSD exactly
when the corresponding sum over the L basis is, which shrinks an invariant
PSD constraint from |Z| to the number of orbits.

The lam parameters are lam_{ij}^k = c_{ij}^k sqrt(t_k/(t_i t_j)), where
c_{ij}^k counts walks of E_iE_j and t_i is the size of orbit i.  The counts
are integers, and the float L_k are computed from them directly.  Exact
work stays in the integer counts too: phi_check decides the homomorphism
property from them, one squarefree radical at a time.

Nothing above needs a group: the same basis and L_k exist for the classes
of any coherent configuration (orbit_basis), and coherent_closure finds the
coarsest one refining a colouring of the pairs, such as a graph's edges.
split_lmi then splits a matrix inequality over the L_k into its simple
components; over a commutative algebra every component is 1x1, and the
inequality is an LP.

Two builders restrict a Gram block to the commutant the same way:
reduce_sdp for an invariant SDP, and relax.build_sos_dual for a polynomial
program under a nontrivial action.  _orbit_coordinates projects the
block's coefficient rows onto the orbit indicators E_i and pairs each orbit
with its transpose; the SOS builder first sums its coefficient rows over
monomial orbits.  This module knows nothing of polynomial programs beyond
_monomial_map and _permutation_of, the action of a permutation on
exponent vectors and on term dicts.

Every orbit computation is one kernel, _labels: the connected components
of a graph on 0..n-1, each index labelled by its component's least member.
orbits (items under maps), _pair_orbits (Z x Z under the generators),
_components (eigenvectors under coupling) and the SOS builder's multiplier
bases all call it, and no stabilizer subgroup is ever built.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

from soskit import sdp
from soskit.poly import Monomial

GROUP_ENUMERATION_CAP = 10 ** 6
CLOSURE_CHUNK = 2 ** 22     # signature entries per chunk of coherent_closure
WALK_CHUNK = 2 ** 16        # walk keys and counts per chunk of orbit_basis

T = TypeVar("T")


# -- exact arithmetic with square roots ---------------------------------------

def _squarefree(n: int) -> Tuple[int, int]:
    """n = s*s*r with r squarefree; returns (s, r)."""
    if n <= 0:
        raise ValueError("radicand must be positive")
    s, r, m, d = 1, 1, n, 2
    while d * d <= m:
        cnt = 0
        while m % d == 0:
            m //= d
            cnt += 1
        s *= d ** (cnt // 2)
        if cnt % 2:
            r *= d
        d += 1
    if m > 1:
        r *= m
    return s, r


# -- group actions ------------------------------------------------------------

def compose(a: Sequence[int], b: Sequence[int]) -> Tuple[int, ...]:
    """Apply a, then b."""
    return tuple(b[a[i]] for i in range(len(a)))


def inverse(a: Sequence[int]) -> Tuple[int, ...]:
    out = [0] * len(a)
    for i, j in enumerate(a):
        out[j] = i
    return tuple(out)


def perm_matrix(g: Sequence[int]) -> np.ndarray:
    """Permutation matrix with entry (i, j) = 1 iff g maps i to j."""
    n = len(g)
    if sorted(g) != list(range(n)):
        raise ValueError("not a permutation")
    m = np.zeros((n, n))
    for i, j in enumerate(g):
        m[i, j] = 1.0
    return m


@dataclass
class GroupAction:
    """A finite group acting on {0..size-1}, given by generating permutations."""

    size: int
    generators: List[Tuple[int, ...]]

    def __post_init__(self):
        self.generators = [tuple(g) for g in self.generators]
        for g in self.generators:
            if sorted(g) != list(range(self.size)):
                raise ValueError(f"generator {g} is not a permutation of the set")

    def elements(self, cap: int = GROUP_ENUMERATION_CAP) -> List[Tuple[int, ...]]:
        """All group elements by closure over the generators."""
        identity = tuple(range(self.size))
        seen = {identity}
        frontier = [identity]
        while frontier:
            nxt = []
            for a in frontier:
                for g in self.generators:
                    c = compose(a, g)
                    if c not in seen:
                        seen.add(c)
                        if len(seen) > cap:
                            raise ValueError(f"group exceeds enumeration cap {cap}")
                        nxt.append(c)
            frontier = nxt
        return sorted(seen)

    def to_json(self) -> dict:
        return {"size": self.size, "generators": [list(g) for g in self.generators]}

    @staticmethod
    def from_json(data: dict) -> "GroupAction":
        return GroupAction(size=int(data["size"]),
                           generators=[tuple(g) for g in data["generators"]])


def cyclic_action(n: int) -> GroupAction:
    return GroupAction(n, [tuple((i + 1) % n for i in range(n))])


def dihedral_action(n: int) -> GroupAction:
    rot = tuple((i + 1) % n for i in range(n))
    ref = tuple((n - i) % n for i in range(n))
    return GroupAction(n, [rot, ref])


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def primitive_root(p: int) -> int:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p == 2:
        return 1
    for g in range(2, p):
        vals = set()
        x = 1
        for _ in range(p - 1):
            x = x * g % p
            vals.add(x)
        if len(vals) == p - 1:
            return g
    raise RuntimeError("unreachable")


def affine_action(p: int) -> GroupAction:
    """i -> a + b*i mod p with b invertible; generated by the shift and a
    primitive multiplier."""
    g = primitive_root(p)
    shift = tuple((i + 1) % p for i in range(p))
    mult = tuple(g * i % p for i in range(p))
    return GroupAction(p, [shift, mult])


def named_action(name: str) -> GroupAction:
    """Constructors by name: "cyclic n", "dihedral n", "affine p"."""
    parts = name.split()
    if len(parts) != 2:
        raise ValueError(f"expected '<kind> <n>', got {name!r}")
    kind, n = parts[0], int(parts[1])
    if kind == "cyclic":
        return cyclic_action(n)
    if kind == "dihedral":
        return dihedral_action(n)
    if kind == "affine":
        return affine_action(n)
    raise ValueError(f"unknown action kind {kind!r}")


# -- orbit basis ---------------------------------------------------------------

@dataclass
class OrbitBasis:
    """label[r, c] is the orbit of the pair (r, c), first[k] is the first
    pair of orbit k in row-major order, and counts[k, i, j] = c_{ij}^k counts
    the walks of E_i E_j (see orbit_basis)."""

    size: int
    first: np.ndarray       # (d, 2)
    sizes: List[int]
    transpose_of: List[int]
    label: np.ndarray
    counts: np.ndarray
    L_float: np.ndarray     # L_float[k] is the float L_k

    @property
    def d(self) -> int:
        return len(self.sizes)

    def E(self, i: int) -> np.ndarray:
        return (self.label == i).astype(float)

    def sym_groups(self) -> List[Tuple[int, ...]]:
        """Transpose-paired orbit indices: (j,) when E_j is symmetric, else
        (j, j*).  Symmetric members of the commutant are exactly the sums
        with equal coordinates inside each group."""
        out = []
        for i, it in enumerate(self.transpose_of):
            if it == i:
                out.append((i,))
            elif it > i:
                out.append((i, it))
        return out

    def lift(self, x: Sequence[float]) -> np.ndarray:
        """X = sum_i x_i B_i."""
        v = np.array([float(x[i]) / float(t) ** 0.5 for i, t in enumerate(self.sizes)])
        return v[self.label]


def _labels(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Each index 0..n-1 labelled by the least member of its connected
    component in the graph with an edge src[e] -- dst[e] for every e.

    Each index starts as its own label.  A round lets the label at each end
    of every edge fall to the label at the other end (np.minimum.at, so
    duplicate edges and self-loops do no harm), and then jumps each label
    to its own label.  A label always names a member of its index's
    component no larger than the index, so when a round changes nothing,
    labels agree along every edge and each is its component's least member."""
    label = np.arange(n)
    while True:
        before = label.copy()
        np.minimum.at(label, src, label[dst])
        np.minimum.at(label, dst, label[src])
        label = label[label]
        if np.array_equal(label, before):
            return label


def orbits(items: Sequence[T], maps: Iterable[Callable[[T], T]]) -> List[List[T]]:
    """Orbits of the group generated by maps, each a bijection of items: the
    components (_labels) of the graph joining each item to its image under
    each map.  Orbits are ordered by their first member in items and list
    their members in input order."""
    index = {x: k for k, x in enumerate(items)}
    images = np.array([[index[f(x)] for x in items] for f in maps], dtype=np.intp)
    label = _labels(len(items), np.tile(np.arange(len(items)), len(images)), images.ravel())
    groups: Dict[int, List[T]] = {}
    for x, root in zip(items, label.tolist()):
        groups.setdefault(root, []).append(x)
    return list(groups.values())


def _pair_orbits(action: GroupAction) -> np.ndarray:
    """The (n, n) array of orbit labels of Z x Z under (i, j) -> (g(i), g(j)),
    orbits numbered by their first pair in row-major order: the components
    (_labels) of the graph joining each pair i*n + j to its image under
    each generator."""
    n = action.size
    g = np.array(action.generators, dtype=np.intp).reshape(len(action.generators), n)
    images = (g[:, :, None] * n + g[:, None, :]).ravel()
    label = _labels(n * n, np.tile(np.arange(n * n), len(g)), images)
    return _first_seen(label.reshape(n, n))[0]


def _first_seen(label: np.ndarray) -> Tuple[np.ndarray, int]:
    """label renumbered 0..d-1 by first pair in row-major order, and d."""
    values, first, inv = np.unique(label, return_index=True, return_inverse=True)
    rank = np.empty(len(values), dtype=np.int64)
    rank[np.argsort(first)] = np.arange(len(values))
    return rank[inv].reshape(label.shape), len(values)


def _unique_rows(a: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a and each row's index among them, as
    np.unique(a, axis=0) but grouped by a 64-bit hash of each row first (a
    product with random odd weights, wrapping mod 2**64).  Every row is
    compared with its group's first row, so a hash collision cannot merge
    two rows: it sends the call to np.unique's sort of the rows."""
    rng = random.Random(a.shape[1])
    weights = np.array([rng.getrandbits(62) * 2 + 1 for _ in range(a.shape[1])])
    _, first, inv = np.unique(a @ weights, return_index=True, return_inverse=True)
    if not np.array_equal(a, a[first[inv]]):
        return np.unique(a, axis=0, return_inverse=True)
    return a[first], inv


def _refine(c: np.ndarray, d: int) -> Optional[Tuple[np.ndarray, int]]:
    """One round of two-dimensional Weisfeiler-Leman refinement of the pair
    colouring c with d colours: the new colour of (x, y) is its signature,
    (c(x, y), c(y, x), the multiset of (c(x, z), c(z, y)) over all z).  The
    multiset is the row of keys c(x, z)*d + c(z, y) sorted over z, built
    for a chunk of rows x at a time; a dict from signature bytes to colour
    holds fewer than n signatures, since None is returned as soon as there
    are n of them."""
    n = c.shape[0]
    dtype = np.int32 if d * d < 2 ** 31 else np.int64
    c = c.astype(dtype)
    ct = np.ascontiguousarray(c.T)
    colour: Dict[bytes, int] = {}
    out = np.empty((n, n), dtype=np.int64)
    step = max(1, CLOSURE_CHUNK // (n * n))
    for x0 in range(0, n, step):
        xs = slice(x0, min(n, x0 + step))
        sig = np.empty((xs.stop - x0, n, n + 2), dtype=dtype)   # [x, y, :]
        sig[:, :, 0] = c[xs]
        sig[:, :, 1] = ct[xs]
        keys = sig[:, :, 2:]
        np.add(c[xs, None, :] * dtype(d), ct[None, :, :], out=keys)
        keys.sort(axis=2)
        rows, inv = _unique_rows(sig.reshape(-1, n + 2))
        if len(rows) >= n:
            return None
        ids = np.array([colour.setdefault(r.tobytes(), len(colour)) for r in rows])
        if len(colour) >= n:
            return None
        out[xs] = ids[inv.ravel()].reshape(-1, n)
    return out, len(colour)


def coherent_closure(label: np.ndarray) -> Optional[np.ndarray]:
    """The coarsest coherent configuration whose classes refine the pair
    colouring label (n, n), by two-dimensional Weisfeiler-Leman refinement
    (Weisfeiler & Leman 1968; Higman's coherent configurations): colours
    are refined by _refine until their number stops growing.  The stable
    colouring is coherent: every class has the same walk counts c_{ij}^k
    at each of its pairs, the diagonal is a union of classes when label
    gives the diagonal colours of its own, and the transpose of a class is
    a class.  Returns the classes numbered by their first pair in row-major
    order, ready for orbit_basis, or None as soon as there are n or more
    classes, where an algebra no smaller than the n x n matrices is no
    reduction.  Each round takes O(n^2) memory per row of a chunk of
    CLOSURE_CHUNK / n^2 rows, and nothing sized by pairs of classes."""
    c, d = _first_seen(np.asarray(label))
    n = c.shape[0]
    while d < n:
        step = _refine(c, d)
        if step is None:
            return None
        c, grown = step
        if grown == d:
            return _first_seen(c)[0]
        d = grown
    return None


def commutant_basis(action: GroupAction) -> OrbitBasis:
    """Orbit basis of the commutant: the basis of its pair orbits."""
    return orbit_basis(_pair_orbits(action))


def orbit_basis(label: np.ndarray) -> OrbitBasis:
    """Basis of the coherent algebra spanned by the classes of a pair
    labelling: label[x, y] in 0..d-1 is the class of (x, y), classes
    numbered by their first pair in row-major order, as _pair_orbits and
    coherent_closure number them.  Its multiplication parameters are
    lam_{ij}^k = c_{ij}^k * sqrt(t_k/(t_i t_j)), where c counts walks
    E_i E_j = sum_k c_{ij}^k E_k: for any (x, y) in class k,
    c_{ij}^k = #{z : (x, z) in class i, (z, y) in class j}.  An
    AssertionError says the count is not constant on some class, i.e. the
    classes are not a coherent configuration.  The float matrices L_k come
    from the integer counts."""
    n = label.shape[0]
    _, index, sizes = np.unique(label, return_index=True, return_counts=True)
    d, sizes = len(sizes), sizes.tolist()
    first_x, first_y = np.divmod(index, n)
    transpose_of = label[first_y, first_x].tolist()

    # counts[k, i*d + j] = c_{ij}^k, read off the first pair of orbit k: one
    # bincount of the keys (x, y, i, j) of every walk x -> z -> y over a chunk
    # of rows x, and every pair (x, y) must count the same as its orbit's
    counts = np.empty((d, d * d), dtype=np.int64)
    step = max(1, WALK_CHUNK // (n * max(n, d * d)))   # keys and counts per chunk
    key_zy = label + np.arange(n) * (d * d)                    # [z, y]
    for x0 in range(0, n, step):
        xs = np.arange(x0, min(n, x0 + step))
        key = (xs[:, None, None] - x0) * (n * d * d) + label[xs][:, :, None] * d + key_zy
        walks = np.bincount(key.ravel(), minlength=len(xs) * n * d * d).reshape(len(xs), n, d * d)
        here = (first_x >= x0) & (first_x < x0 + len(xs))
        counts[here] = walks[first_x[here] - x0, first_y[here]]
        if not np.array_equal(walks, counts[label[xs]]):
            raise AssertionError("walk counts not constant on a class: not coherent")
    counts = counts.reshape(d, d, d)

    # (L_k)_{ij} = lam_{kj}^i = c_{kj}^i * s / (t_k t_j) * sqrt(r), where
    # t_i t_k t_j = s^2 r with r squarefree: the float of the exact entry.
    # Both sides of the division stay below 2**53, so it rounds once, as the
    # exact Fraction does; orbits of 2**21 pairs or more go through Python
    # ints so that t_i t_k t_j cannot overflow.
    i, k, j = np.nonzero(counts)
    t = np.array(sizes, dtype=np.int64 if max(sizes, default=0) < 2 ** 21 else object)
    prods, inv = np.unique(t[i] * t[k] * t[j], return_inverse=True)
    split = [_squarefree(int(v)) for v in prods]
    s = np.array([q for q, _ in split], dtype=t.dtype)[inv]
    root = np.array([float(r) ** 0.5 for _, r in split])[inv]
    L_float = np.zeros((d, d, d))
    L_float[k, i, j] = counts[i, k, j] * s / (t[k] * t[j]) * root

    return OrbitBasis(size=n, first=np.column_stack([first_x, first_y]), sizes=sizes,
                      transpose_of=transpose_of, label=label, counts=counts, L_float=L_float)


def phi_check(basis: OrbitBasis, x: Sequence, y: Sequence) -> bool:
    """Verify the algebra homomorphism phi(XY) = phi(X)phi(Y) exactly for
    X = sum x_i B_i, Y = sum y_j B_j with rational coordinates.

    With D = diag(sqrt(t)) and the integer matrices (M_k)_{ab} = c_{kb}^a,
    phi(sum_k x_k B_k) = D (sum_k x_k / sqrt(t_k) M_k) D^-1, so
    phi(XY) - phi(X)phi(Y) = D (sum_ij x_i y_j K_ij / sqrt(t_i t_j)) D^-1
    with the integer matrices K_ij = sum_k c_{ij}^k M_k - M_i M_j.  Write
    t_i t_j = s^2 r with r squarefree: square roots of distinct squarefree
    integers are linearly independent over the rationals, so the difference
    vanishes exactly when, for each r, sum x_i y_j K_ij / s over the pairs
    (i, j) with that r does.  Each such sum is scaled to integer weights
    and summed in Python ints; K itself is exact in int64 while
    d n^2 < 2^63, since every count is at most n."""
    d, t = basis.d, basis.sizes
    x, y = [Fraction(v) for v in x], [Fraction(v) for v in y]
    M = basis.counts.transpose(1, 0, 2)
    K = (np.einsum("kij,kab->ijab", basis.counts, M)
         - np.einsum("iac,jcb->ijab", M, M)).reshape(d * d, d * d)
    by_radical: Dict[int, Dict[int, Fraction]] = {}
    for i in range(d):
        for j in range(d):
            if x[i] and y[j]:
                s, r = _squarefree(t[i] * t[j])
                by_radical.setdefault(r, {})[i * d + j] = x[i] * y[j] / s
    for w in by_radical.values():
        q = math.lcm(*(v.denominator for v in w.values()))
        weights = np.array([int(v * q) for v in w.values()], dtype=object)
        if np.any(weights @ K[list(w)]):
            return False
    return True


def group_average(action: GroupAction, X: np.ndarray) -> np.ndarray:
    """Orthogonal projection of X onto the commutant.

    Algebraically identical to averaging M_g X M_g' over the group, but
    computed as sum_i (tr(E_i'X)/t_i) E_i so the group is never enumerated.
    """
    X = np.asarray(X, dtype=float)
    if X.shape != (action.size, action.size):
        raise ValueError("matrix size does not match the action")
    label = _pair_orbits(action).ravel()
    mean = np.bincount(label, weights=X.ravel()) / np.bincount(label)
    return mean[label].reshape(X.shape)


# -- simple components of a matrix inequality -----------------------------------

SPLIT_TOL = 1e-10   # coupling below this times max|L| counts as zero


def _components(mats: np.ndarray):
    """The simple components of the symmetric d x d matrices mats (Murota,
    Kanno, Kojima & Kojima 2010, JJIAM 27): an orthogonal Q, the data
    Q' mats Q with entries at most SPLIT_TOL * max|L| set to zero, and the
    index arrays of the components, the columns of Q that no Q' L Q couples
    to the rest.  Q holds the eigenvectors of one generic element
    sum_g r_g L_g, r drawn from a fixed seed so that the same mats always
    give the same Q; eigenvectors that some Q' L Q couples are joined, as
    connected components (_labels).  For a commutative family every
    component has size 1.  Components come in order of their first
    eigenvector."""
    d = mats.shape[-1]
    rng = random.Random(0)  # the stdlib's: numpy.random costs ~6 MB and 12 ms to load
    r = np.array([rng.gauss(0.0, 1.0) for _ in range(len(mats))])
    _, Q = np.linalg.eigh(np.tensordot(r, mats, axes=1))
    P = Q.T @ mats @ Q
    P[np.abs(P) <= SPLIT_TOL * np.max(np.abs(mats), axis=(1, 2), keepdims=True)] = 0.0
    comp = _labels(d, *np.nonzero(np.any(P != 0.0, axis=0)))
    return Q, P, [np.flatnonzero(comp == c) for c in np.flatnonzero(comp == np.arange(d))]


def split_lmi(l: sdp.MatrixIneq) -> List[sdp.MatrixIneq]:
    """l as the inequalities of its simple components (_components of its
    data): the components of size 1 together as one diagonal
    inequality, the LP cone, and each larger one as a PSD inequality
    Q_c' (G0 + sum_j u_j G_j) Q_c >= 0.  Q is orthogonal, so the feasible
    set is l's; entries at most SPLIT_TOL * max|G| become zeros, and a
    component whose data all vanish (0 >= 0) is dropped."""
    keys = list(l.coeffs)
    _, P, comps = _components(np.array([l.const] + [l.coeffs[j] for j in keys]))

    def ineq(data, diag):
        return sdp.MatrixIneq(len(data[0]), data[0],
                              {j: g for j, g in zip(keys, data[1:]) if np.any(g)},
                              diag=diag, label=l.label)

    out = []
    ones = np.array([c[0] for c in comps if len(c) == 1], dtype=np.intp)
    entries = P[:, ones, ones]
    ones = ones[np.any(entries != 0.0, axis=0)]
    if ones.size:
        out.append(ineq([np.diag(v) for v in P[:, ones, ones]], diag=True))
    for c in comps:
        data = P[:, c[:, None], c]
        if len(c) > 1 and np.any(data):
            out.append(ineq(list(data), diag=False))
    return out


# -- reduction of invariant SDPs ------------------------------------------------

@dataclass
class ReducedSdp:
    problem: sdp.SdpProblem
    basis: OrbitBasis
    groups: List[Tuple[int, ...]]   # orbit indices behind each reduced variable
    row_map: List[int]              # reduced row -> a representative original row

    def lift(self, x: Sequence[float]) -> np.ndarray:
        full = np.zeros(self.basis.d)
        for g, v in zip(self.groups, x):
            for j in g:
                full[j] = v
        return self.basis.lift(full)


def _orbit_coordinates(rows: np.ndarray, basis: OrbitBasis,
                       ) -> Tuple[np.ndarray, List[np.ndarray]]:
    """Each row of ``rows``, a matrix over the basis's set flattened, in the
    coordinates of the symmetric commutant: column G holds
    sum over j in G of <row, E_j> / sqrt(t_j), for the groups G of
    sym_groups().  Also returns sum over j in G of L_j per group, the
    group's matrix in the reduced PSD constraint."""
    n, groups = basis.size, basis.sym_groups()
    E = np.zeros((n * n, basis.d))
    E[np.arange(n * n), basis.label.ravel()] = 1.0
    sqrt_t = np.array([float(t) ** 0.5 for t in basis.sizes])
    W = rows @ E / sqrt_t
    coef = W[:, [g[0] for g in groups]]
    pairs = [gi for gi, g in enumerate(groups) if len(g) == 2]
    coef[:, pairs] += W[:, [groups[gi][1] for gi in pairs]]
    return coef, [sum(basis.L_float[j] for j in g) for g in groups]


def reduce_sdp(p: sdp.SdpProblem, action: GroupAction) -> ReducedSdp:
    """Reduce a single-block invariant SDP to orbit coordinates.

    The objective must be fixed by the action; the constraint family must be
    permuted into itself (rows need not be individually fixed: orbit-
    equivalent rows collapse to one).  Transpose-paired orbits share one
    variable, which keeps the lifted matrix symmetric, so the reduced
    problem is  opt sum x_g <C, B_g> : sum x_g L_g >= 0  plus the collapsed
    rows, with B_g and L_g summed over each pairing group.
    """
    if len(p.block_dims) != 1 or p.n_free or p.lmis:
        raise ValueError("reduce_sdp expects a single PSD block and no free scalars")
    n = p.block_dims[0]
    if action.size != n:
        raise ValueError("action size does not match the block dimension")
    basis = commutant_basis(action)

    C = p.C[0]
    scale = 1.0 + float(np.max(np.abs(C)))
    gens = [np.asarray(g) for g in action.generators]
    for gi, g in enumerate(gens):
        dev = C[np.ix_(g, g)] - C
        worst = np.unravel_index(np.argmax(np.abs(dev)), dev.shape)
        if abs(dev[worst]) > 1e-10 * scale:
            raise ValueError(
                f"objective not invariant: generator {gi} moves entry "
                f"{tuple(int(v) for v in worst)} by {dev[worst]:.3e}")

    # A[k] is row k's matrix, flattened; a generator g moves entry (i, j) of
    # every row to (g(i), g(j)), so the moved rows are one column gather
    zero = np.zeros((n, n))
    A = np.array([r.blocks.get(0, zero) for r in p.rows]).reshape(len(p.rows), n * n)

    def row_keys(a: np.ndarray):
        # + 0.0 makes a rounded -0.0 equal to 0.0 as bytes
        return [(r.rel, round(r.rhs, 10), v.tobytes())
                for r, v in zip(p.rows, np.round(a, 10) + 0.0)]

    family = set(row_keys(A))
    for gi, g in enumerate(gens):
        for k, key in enumerate(row_keys(A[:, (g[:, None] * n + g).ravel()])):
            if key not in family:
                raise ValueError(
                    f"constraints not invariant: generator {gi} maps row {k} "
                    f"({p.rows[k].label or 'unlabeled'}) outside the family")

    groups = basis.sym_groups()
    coef, L = _orbit_coordinates(np.vstack([C.reshape(1, n * n), A]), basis)
    obj = coef[0]

    rows: List[sdp.LinearRow] = []
    row_map: List[int] = []
    seen = set()
    for k, (r, c) in enumerate(zip(p.rows, coef[1:].tolist())):
        coeffs = {i: v for i, v in enumerate(c) if abs(v) > 1e-14}
        key = (r.rel, round(r.rhs, 10), tuple((i, round(v, 10)) for i, v in coeffs.items()))
        if key in seen:
            continue
        seen.add(key)
        rows.append(sdp.LinearRow(free=coeffs, rhs=r.rhs, rel=r.rel, label=r.label))
        row_map.append(k)

    reduced = sdp.SdpProblem(
        n_free=len(groups),
        free_obj=obj,
        rows=rows,
        lmis=[sdp.MatrixIneq(basis.d, np.zeros((basis.d, basis.d)), dict(enumerate(L)),
                             label="orbit_psd")],
        sense=p.sense,
        free_names=[f"x{g}" for g in groups],
    )
    return ReducedSdp(problem=reduced, basis=basis, groups=groups, row_map=row_map)


# -- permutations of polynomial programs -------------------------------------------

def _monomial_map(g: Sequence[int]) -> Callable[[Monomial], Monomial]:
    """The substitution x_i -> x_{g[i]} on exponent vectors."""
    ginv = inverse(g)
    if len(ginv) == 1:      # itemgetter of one index returns the entry, not a tuple
        return lambda m: m
    return itemgetter(*ginv)


def _permutation_of(items: Sequence[dict], image: Callable, what: str, gi: int) -> List[int]:
    """Indices of the images of items, each a term dict; a ValueError names
    generator gi when the images are not a rearrangement of items.  Items
    are keyed by their support, so coefficients are compared only between
    dicts with the same monomials."""
    index: Dict[frozenset, List[int]] = {}
    for k, x in enumerate(items):
        index.setdefault(frozenset(x), []).append(k)
    perm = []
    for x in items:
        y = image(x)
        perm.append(next((k for k in index.get(frozenset(y), ()) if items[k] == y), None))
    if None in perm or len(set(perm)) != len(items):
        raise ValueError(f"program not invariant: generator {gi} does not permute the {what}")
    return perm
