"""Counting 3-term arithmetic progressions in Z_n: enumeration, affine
orbits, brute-force oracles, closed-form density bounds with exact
certificates, and the degree-3 invariant relaxations.

A 3-AP is the set {a, a+b, a+2b mod n} with three distinct elements,
counted once as a set no matter how many (a, b) produce it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, gcd
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from soskit import sdp
from soskit.poly import EXACT, Monomial, Polynomial
from soskit.relax import (
    Certificate,
    PolyProgram,
    SosDualInfo,
    build_sos_dual,
)
from soskit.symmetry import affine_action, cyclic_action, is_prime, orbits


@dataclass(frozen=True)
class ApSet:
    n: int
    triples: Tuple[Tuple[int, int, int], ...]

    def __len__(self) -> int:
        return len(self.triples)

    def __iter__(self):
        return iter(self.triples)

    def __contains__(self, t) -> bool:
        return tuple(sorted(t)) in set(self.triples)


def _ap_columns(n: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 3-APs of Z_n as three index arrays (a, a+b, a+2b), one entry per
    AP.  An AP comes from (a, b), b in 1..(n-1)/2, once for each of its
    midpoints a+b: its two other elements give the steps b and -b, and just
    one of them is in that range.  Every AP has one midpoint except, when
    3 | n, the cosets {a, a+n/3, a+2n/3}, each of whose elements is one;
    those are kept from a < n/3 only."""
    h = (n - 1) // 2
    a, b = np.divmod(np.arange(n * h), max(h, 1))
    b += 1
    keep = (3 * b != n) | (a < b)
    a, b = a[keep], b[keep]
    return a, (a + b) % n, (a + 2 * b) % n


def enumerate_aps(n: int) -> ApSet:
    """All 3-APs of Z_n, deduplicated as sorted triples, in sorted order."""
    if n < 3:
        raise ValueError("need n >= 3")
    t = np.sort(np.stack(_ap_columns(n), axis=1), axis=1)
    t = t[np.lexsort(t.T[::-1])]
    return ApSet(n, tuple(map(tuple, t.tolist())))


def ap_count_formula(n: int) -> Fraction:
    """Closed-form 3-AP count for the cyclic group:
    sum_{k=4..n} n*N_k/2 + n*N_3/24 with N_k the number of elements of
    order k.  Agrees with enumeration whenever 3 does not divide n; see the
    cross-check tests for the 3 | n caveat."""
    def order_count(k: int) -> int:
        if n % k != 0:
            return 0
        return sum(1 for t in range(1, k + 1) if gcd(t, k) == 1)

    total = Fraction(0)
    for k in range(4, n + 1):
        total += Fraction(n * order_count(k), 2)
    total += Fraction(n * order_count(3), 24)
    return total


def ap_orbits(n: int) -> List[List[Tuple[int, int, int]]]:
    """Partition of the 3-APs into orbits of i -> a + b*i (b a unit mod n)."""
    aps = enumerate_aps(n).triples
    maps = [lambda v: v + 1] + [lambda v, b=b: b * v for b in range(2, n) if gcd(b, n) == 1]
    return orbits(aps, [lambda t, f=f: tuple(sorted(f(v) % n for v in t)) for f in maps])


# -- monochromatic counting -----------------------------------------------------

def same_color_indicator(xa: int, xb: int, xc: int) -> Fraction:
    """(xa*xb + xa*xc + xb*xc + 1)/4: one when all three signs agree."""
    return Fraction(xa * xb + xa * xc + xb * xc + 1, 4)


def mono_ap_count(coloring: Sequence[int]) -> int:
    """Number of monochromatic 3-APs of a {-1,+1} coloring of Z_n."""
    if any(v not in (-1, 1) for v in coloring):
        raise ValueError("coloring entries must be -1 or +1")
    n = len(coloring)
    total = Fraction(0)
    for a, b, c in enumerate_aps(n):
        total += same_color_indicator(coloring[a], coloring[b], coloring[c])
    assert total.denominator == 1
    return int(total)


def brute_force_R(n: int) -> int:
    """Exact min of monochromatic 3-AP counts over all 2-colorings of Z_n.

    A 3-AP {a, b, c} is monochromatic exactly when (s_a s_b + s_a s_c + s_b
    s_c + 1) / 4 is one, so the count of a coloring s in {-1, +1}^n is the
    quadratic form (|AP| + s'Ws / 2) / 4, W_ij the number of 3-APs that
    contain both i and j (W_ii = 0).  The colorings with s_0 = +1 (a global
    sign flip is a symmetry) are enumerated in blocks of 2^14 that share
    their high signs s_H and run through every low sign vector S (the rows
    of S, signs 1..14): a block's forms are s'Ws = rowsum((S W_LL) * S) +
    2 S (W_LH s_H) + s_H' W_HH s_H, whose first term is the same for every
    block.  Every term is an integer far below 2^53, exact in float64."""
    if n > 24:
        raise ValueError("brute force capped at n = 24")
    aps = np.array(enumerate_aps(n).triples)
    W = np.zeros((n, n))
    for a, b in ((0, 1), (0, 2), (1, 2)):
        np.add.at(W, (aps[:, a], aps[:, b]), 1.0)
    W += W.T
    k = min(n - 1, 14)
    L, H = np.arange(1, k + 1), np.r_[0, k + 1:n]

    def signs(idx, width):
        return 1.0 - 2.0 * ((idx[..., None] >> np.arange(width)) & 1)

    S = signs(np.arange(1 << k), k)
    low = np.einsum("ij,ij->i", S @ W[np.ix_(L, L)], S)
    best = np.inf
    for high in range(1 << (n - 1 - k)):
        sH = np.concatenate(([1.0], signs(np.array(high), n - 1 - k)))
        cross = S @ (2.0 * (W[np.ix_(L, H)] @ sH))
        best = min(best, float(np.min(low + cross)) + float(sH @ W[np.ix_(H, H)] @ sH))
    return (len(aps) + int(best) // 2) // 4


CYCLIC_BOUND_TABLE = {
    frozenset({1, 5, 7, 11, 13, 17, 19, 23}): (Fraction(1, 2), Fraction(3, 8), Fraction(3, 8)),
    frozenset({8, 16}): (Fraction(1), Fraction(0), Fraction(0)),
    frozenset({2, 10}): (Fraction(1), Fraction(3, 2), Fraction(3, 2)),
    frozenset({4, 20}): (Fraction(1), Fraction(0), Fraction(2)),
    frozenset({14, 22}): (Fraction(1), Fraction(3, 2), Fraction(3, 2)),
    frozenset({3, 9, 15, 21}): (Fraction(7, 6), Fraction(3, 8), Fraction(27, 8)),
    frozenset({0}): (Fraction(5, 3), Fraction(0), Fraction(0)),
    frozenset({12}): (Fraction(5, 3), Fraction(0), Fraction(18)),
    frozenset({6, 18}): (Fraction(5, 3), Fraction(1, 2), Fraction(27, 2)),
}


def cyclic_bound(n: int) -> Tuple[Fraction, Fraction]:
    """(lower, upper) bounds n^2/8 - c1*n + c2 and n^2/8 - c1*n + c3 on the
    minimum monochromatic 3-AP count, constants selected by n mod 24."""
    if n < 1:
        raise ValueError("need n >= 1")
    r = n % 24
    for residues, (c1, c2, c3) in CYCLIC_BOUND_TABLE.items():
        if r in residues:
            base = Fraction(n * n, 8) - c1 * n
            return base + c2, base + c3
    raise AssertionError("residue table incomplete")


# -- density problems -------------------------------------------------------------

def density_lambda(p: int, D: int) -> Fraction:
    """(D^3 - ((p+3)/2) D^2 + ((p+3)/2 - 1) D)/(p-1), the closed-form lower
    bound on the 3-AP count of a D-element subset of Z_p."""
    if not is_prime(p) or p == 2:
        raise ValueError("p must be an odd prime")
    if not 0 <= D <= p:
        raise ValueError("need 0 <= D <= p")
    D = Fraction(D)
    half = Fraction(p + 3, 2)
    return (D ** 3 - half * D ** 2 + (half - 1) * D) / (p - 1)


W_MAX_SUBSETS = 10 ** 7  # the most D-subsets brute_force_W enumerates
W_CHUNK = 1 << 22  # brute_force_W's chunk: subsets times APs, about 4 MB a gather


def brute_force_W(p: int, D: int) -> int:
    """Exact minimum number of 3-APs inside any D-element subset of Z_p.

    Vectorized over the subsets, a chunk of ranks at a time.  With k =
    min(D, p - D), the k-subsets of a chunk's ranks in colexicographic order
    are unranked in the combinatorial number system (rank = sum_i C(c_i, i)
    over the elements c_k > ... > c_1, each c_i the largest c with C(c, i)
    at most what is left of the rank); the D-subsets are these or, when
    k < D, their complements.  A chunk is a boolean membership matrix, one
    column per subset, and a subset's count is the number of APs {a, b, c}
    whose rows a, b and c are all set.  A chunk holds W_CHUNK // #APs
    subsets, and the enumeration stops after the first chunk that holds an
    AP-free subset."""
    total = comb(p, D)
    if total > W_MAX_SUBSETS:
        raise ValueError("subset enumeration too large")
    a, b, c = _ap_columns(p)
    k = min(D, p - D)
    binom = [np.ones(p, dtype=np.int64)]   # binom[i][x] = C(x, i), capped at total
    for _ in range(k):
        binom.append(np.minimum(np.concatenate(([0], np.cumsum(binom[-1])[:-1])), total))
    chunk = max(1, W_CHUNK // max(1, len(a)))
    best = None
    for lo in range(0, total, chunk):
        r = np.arange(lo, min(lo + chunk, total))
        cols = np.arange(len(r))
        member = np.full((p, len(r)), k < D)   # a complement loses its k elements
        for i in range(k, 0, -1):
            e = np.searchsorted(binom[i], r, side="right") - 1
            member[e, cols] = k == D
            r = r - binom[i][e]
        cnt = int((member[a] & member[b] & member[c]).sum(axis=0, dtype=np.int32).min())
        best = cnt if best is None else min(best, cnt)
        if best == 0:
            break
    return best


def _exponents(n: int, *powers: Tuple[int, int]) -> Monomial:
    """The exponent vector of prod x_i^e over the given (i, e)."""
    e = [0] * n
    for i, v in powers:
        e[i] += v
    return tuple(e)


def _power_sum(n: int, e: int, minus) -> Polynomial:
    """sum_i x_i^e - minus."""
    terms = {_exponents(n, (i, e)): 1 for i in range(n)}
    terms[(0,) * n] = -Fraction(minus)
    return Polynomial(n, terms)


def _identity_constants(D: int) -> Tuple[Fraction, ...]:
    """The values of the five moment identities on a 0/1 vector with D ones:
    sum X_i, sum X_i^2 and sum X_i^3 are D, sum_{i<j} X_i X_j is D(D-1)/2
    and sum_{i != j} X_i^2 X_j is D(D-1)."""
    D = Fraction(D)
    return D, D, D, D * (D - 1) / 2, D * (D - 1)


def density_program(p: int, D: int) -> PolyProgram:
    """The program certified by the closed-form density certificate:
    minimize the 3-AP count of the 0/1 vector with X_i >= 0 and the cubic
    moment identities as equalities."""
    _, _, c3, _, c21 = _identity_constants(D)
    f = Polynomial(p, {_exponents(p, (a, 1), (b, 1), (c, 1)): 1 for a, b, c in enumerate_aps(p)})
    ineqs = tuple(Polynomial.variable(p, i) for i in range(p))
    h1 = -_power_sum(p, 3, c3)
    s21 = {_exponents(p, (i, 2), (j, 1)): 1 for i in range(p) for j in range(p) if i != j}
    s21[(0,) * p] = -c21
    return PolyProgram(p, f, ineqs=ineqs, eqs=(h1, Polynomial(p, s21)))


def density_certificate(p: int, D: int) -> Certificate:
    """Exact rational certificate for density_lambda(p, D).

    The multiplier of each X_i is the Gram of
      (1/(p-1)) [ sum_{0<r<s<=(p-1)/2} (X_{i+r} + X_{i-r} - X_{i+s} - X_{i-s})^2
                  + (D X_i - sum_j X_j)^2 ]
    over the degree-1 basis; the equality multipliers are the constants
    (D-1)^2/(p-1) and (4D-p-3)/(2(p-1)).
    """
    if not is_prime(p) or p == 2:
        raise ValueError("p must be an odd prime")
    if not 0 <= D <= p:
        raise ValueError("need 0 <= D <= p")
    # forms[i, k] is the k-th form squared in X_i's multiplier, over the basis
    # (1, X_0 .. X_{p-1}): one per pair r < s, then D X_i - sum_j X_j
    r, s = np.triu_indices((p - 1) // 2, 1)
    r, s, k, i = r + 1, s + 1, np.arange(len(r)), np.arange(p)[:, None]
    forms = np.zeros((p, len(k) + 1, p + 1), dtype=np.int64)
    for step, sign in ((r, 1), (-r, 1), (s, -1), (-s, -1)):
        forms[i, k, 1 + (i + step) % p] = sign     # four distinct X's, as 0 < r < s < p/2
    forms[:, -1, 1:] = -1
    forms[i[:, 0], -1, 1 + i[:, 0]] += D
    q = forms.transpose(0, 2, 1) @ forms  # (p-1) times each Gram, in ints
    entry = {x: Fraction(x, p - 1) for x in np.unique(q).tolist()}
    grams: List[List[List[Fraction]]] = [[[Fraction(0)]]]  # σ0 = 0 on basis (1)
    grams += [[[entry[x] for x in row] for row in g] for g in q.tolist()]
    sigma3 = Polynomial.constant(p, Fraction((D - 1) ** 2, p - 1))
    sigma4 = Polynomial.constant(p, Fraction(4 * D - p - 3, 2 * (p - 1)))
    return Certificate(
        lam=density_lambda(p, D),
        gram=grams,
        eq_multipliers=[sigma3, sigma4],
        orders=[0] + [1] * p,
        mode=EXACT,
    )


# -- degree-3 relaxations -----------------------------------------------------------

def density_relaxation_program(p: int, D: int) -> PolyProgram:
    """min sum_APs X_i X_j X_k over the box relaxation of 0/1 vectors summing
    to D, with the implied moment identities as equalities."""
    base = density_program(p, D)
    c1, c2, c3, c11, _ = _identity_constants(D)
    one = Polynomial.constant(p, 1)
    ineqs = tuple(Polynomial.variable(p, i) for i in range(p)) + tuple(
        one - Polynomial.variable(p, i) for i in range(p))
    pairs = {_exponents(p, (i, 1), (j, 1)): 1 for i, j in combinations(range(p), 2)}
    pairs[(0,) * p] = -c11
    eqs = (
        _power_sum(p, 1, c1),
        _power_sum(p, 2, c2),
        _power_sum(p, 3, c3),
        Polynomial(p, pairs),
        base.eqs[1],
    )
    return PolyProgram(p, base.objective, ineqs=ineqs, eqs=eqs)


def build_density_relaxation(p: int, D: int, use_symmetry: bool = False,
                             ) -> Tuple[sdp.SdpProblem, Optional[SosDualInfo]]:
    """Degree-3 SOS dual of the density program, with scalar multipliers on
    the five moment identities.  With use_symmetry it is reduced by the
    affine group of Z_p (no SosDualInfo)."""
    if not 0 <= D <= p:
        raise ValueError("need 0 <= D <= p")
    if use_symmetry and (not is_prime(p) or p == 2):
        raise ValueError("the symmetric build needs an odd prime p")
    return build_sos_dual(density_relaxation_program(p, D), 3, [0] * 5,
                          affine_action(p) if use_symmetry else None)


# -- monochromatic relaxation ----------------------------------------------------

def mono_program(n: int) -> PolyProgram:
    """min sum_APs (x_a x_b + x_a x_c + x_b x_c + 1)/4 over x in {-1,1}^n,
    with x_i^2 = 1 as equality constraints."""
    counts: Dict[Monomial, int] = {}  # each monomial's number of quarters
    for a, b, c in enumerate_aps(n):
        for m in (_exponents(n, (a, 1), (b, 1)), _exponents(n, (a, 1), (c, 1)),
                  _exponents(n, (b, 1), (c, 1)), (0,) * n):
            counts[m] = counts.get(m, 0) + 1
    terms = {m: Fraction(k, 4) for m, k in counts.items()}
    eqs = tuple(Polynomial(n, {_exponents(n, (i, 2)): 1, (0,) * n: -1}) for i in range(n))
    return PolyProgram(n, Polynomial(n, terms), eqs=eqs)


def build_mono_relaxation(n: int, use_symmetry: bool = False,
                          ) -> Tuple[sdp.SdpProblem, Optional[SosDualInfo]]:
    """Degree-2 SOS dual of the monochromatic AP program.  With use_symmetry
    it is reduced by the rotations of Z_n (no SosDualInfo)."""
    if n < 3:
        raise ValueError("need n >= 3")
    return build_sos_dual(mono_program(n), 2, action=cyclic_action(n) if use_symmetry else None)
