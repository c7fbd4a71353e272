"""Order-s relaxations of polynomial programs and their certificates.

The SOS side compiles  sup λ : f - λ = σ0 + Σ σi·gi + Σ ck·hk  into an SDP
with one PSD block per squared multiplier (σ0 is the multiplier of g0 = 1)
and one equality row per monomial (the constant monomial's row carries λ).
Equality constraints get free polynomial multipliers.  One builder,
build_sos_dual, writes it: under a permutation group on the variables it
keeps only invariant certificates, with one row per monomial orbit and each
multiplier in the coordinates of its commutant (soskit.symmetry), and the
unreduced relaxation is the case of the trivial group.  The moment side is
``sdp.dual_of`` the SOS side: it minimizes the linear functional of the
objective over truncated moment sequences, one moment per monomial row, with
PSD moment and localizing matrices from the Gram blocks and linear pinning
rows from the equality multipliers.

A certificate is verified identity first: only when the expanded identity
holds within the mode's tolerance are its Gram matrices tested for PSD.
Exact mode does both steps in Python integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from soskit import sdp, symmetry
from soskit.moment import monomial_vector
from soskit.poly import (
    EXACT,
    FLOAT,
    Monomial,
    Polynomial,
    _as_exact,
    mono_mul,
    monomials_graded_lex,
    monomials_up_to_degree,
)

RATIONALIZE_DENOMINATOR_CAP = 10 ** 6


@dataclass(frozen=True)
class PolyProgram:
    """min objective  s.t.  ineqs >= 0, eqs == 0."""

    n: int
    objective: Polynomial
    ineqs: Tuple[Polynomial, ...] = ()
    eqs: Tuple[Polynomial, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "ineqs", tuple(self.ineqs))
        object.__setattr__(self, "eqs", tuple(self.eqs))
        for q in (self.objective, *self.ineqs, *self.eqs):
            if q.n != self.n:
                raise ValueError("all polynomials must share the variable count")

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "objective": self.objective.to_json_terms(),
            "ineqs": [g.to_json_terms() for g in self.ineqs],
            "eqs": [h.to_json_terms() for h in self.eqs],
        }

    @staticmethod
    def from_json(data: dict) -> "PolyProgram":
        n = int(data["n"])
        return PolyProgram(
            n=n,
            objective=Polynomial.from_json_terms(n, data["objective"]),
            ineqs=tuple(Polynomial.from_json_terms(n, g) for g in data.get("ineqs", [])),
            eqs=tuple(Polynomial.from_json_terms(n, h) for h in data.get("eqs", [])),
        )


def check_order(p: PolyProgram, s: int) -> None:
    """A valid relaxation order covers the objective and every constraint."""
    if s < 1:
        raise ValueError("relaxation order must be >= 1")
    if s < p.objective.degree():
        raise ValueError(f"order {s} below objective degree {p.objective.degree()}")
    for g in p.ineqs:
        if s < g.degree():
            raise ValueError(f"order {s} below constraint degree {g.degree()}")
    for h in p.eqs:
        if s < h.degree():
            raise ValueError(f"order {s} below equality degree {h.degree()}")


def add_ball_constraint(p: PolyProgram, radius_sq) -> PolyProgram:
    """Append the constraint radius_sq - sum x_i^2 >= 0, which makes the
    constraint set's quadratic module Archimedean."""
    if not radius_sq > 0:
        raise ValueError("ball constant must be positive")
    ball = Polynomial.constant(p.n, radius_sq)
    for i in range(p.n):
        ball = ball - Polynomial.monomial(p.n, tuple(2 if j == i else 0 for j in range(p.n)))
    return PolyProgram(p.n, p.objective, p.ineqs + (ball,), p.eqs)


# -- SOS dual side -------------------------------------------------------------

@dataclass
class SosDualInfo:
    n: int
    order: int
    row_of_monomial: Dict[Monomial, int]
    lambda_index: int
    gram_orders: List[int]                      # basis order per multiplier, σ0 first
    gram_blocks: List[int]                      # SDP block index per multiplier
    eq_mult_indices: List[Dict[Monomial, int]]  # per equality: monomial -> free index


@lru_cache(maxsize=64)
def _products(n: int, order: int) -> Tuple[Tuple[Monomial, ...], np.ndarray]:
    """The distinct products b_i b_j of two monomials of the order-``order``
    basis b over n variables, in order of first appearance in row-major
    order, and the read-only (d, d) table of each pair's index among them.
    Computed once per (n, order); every caller shares them."""
    basis = monomial_vector(n, order)
    index: Dict[Monomial, int] = {}
    table = np.array([[index.setdefault(mono_mul(a, b), len(index)) for b in basis]
                      for a in basis], dtype=np.intp)
    table.flags.writeable = False
    return tuple(index), table


def gram_rows(n: int, order: int, g_terms: Mapping[Monomial, object],
              row_of: Mapping[Monomial, int], m: int) -> np.ndarray:
    """The (m, d²) matrix whose row row_of[α] holds, in column i*d + j, the
    coefficient of Q[i, j] in [σ·g]_α, for σ = bᵀQb over the order-``order``
    basis b of d monomials and g with terms g_terms.  Monomials that share a
    row add up; when every monomial has its own row, each entry is one
    coefficient of g, since a pair (i, j) and α fix the term of g."""
    d = comb(n + order, order)
    prods, table = _products(n, order)
    prod_of = table.reshape(-1)  # column i*d + j -> the index of b_i b_j in prods
    # one add.at over all terms adds each entry's terms in the order of g_terms
    rows = np.array([row_of[mono_mul(prod, gm)] for gm in g_terms for prod in prods],
                    dtype=np.intp).reshape(len(g_terms), len(prods))
    out = np.zeros((m, d * d))
    np.add.at(out, (rows[:, prod_of], np.arange(d * d)),
              np.array([float(gc) for gc in g_terms.values()])[:, None])
    return out


def build_sos_dual(p: PolyProgram, s: int,
                   eq_mult_degrees: Optional[Sequence[int]] = None,
                   action: Optional[symmetry.GroupAction] = None,
                   ) -> Tuple[sdp.SdpProblem, Optional[SosDualInfo]]:
    """SDP for  sup λ : f - λ = σ0 + Σ σi·gi + Σ ck·hk  with σ0 of order
    2*floor(s/2), σi of order 2*floor((s - deg gi)/2), and free polynomial
    multipliers ck of degree s - deg hk (cap individually with
    eq_mult_degrees, e.g. 0 for scalar multipliers), over the certificates
    invariant under ``action``, a permutation group on the variables
    (Gatermann & Parrilo 2004); None is the trivial group.

    Every generator must fix the objective and permute the inequalities and
    the equalities; this is checked exactly, and a ValueError names the
    first generator that fails.  The problem has
      - one balance row per monomial orbit, in the monomials_graded_lex
        order of the orbit's first member (by degree, then descending
        lexicographic), which is the monomial the row reads;
      - the free scalars λ, then one per orbit of equality multipliers
        γ·h_k (the cap constant on orbits);
      - a multiplier for σ0 and for the first member g of each inequality
        orbit.  When the group is trivial (no generators, or identities
        only), every orbit has one member and each multiplier is a d x d
        PSD Gram block over monomial_vector's basis, which the returned
        SosDualInfo describes.  Otherwise it lies in the commutant of the
        stabilizer of g, as an LMI in the commutant's coordinates (the
        regular *-representation; symmetry._orbit_coordinates), and the
        SosDualInfo is None.  The stabilizer's pair orbits are the group's
        orbits on triples (member, b, b') read at g, and equal pair orbits
        share one orbit_basis.
    An invariant sum over an orbit of m images of a polynomial P has
    coefficient m/|O| * Σ_{β in O} P_β at each monomial of an orbit O.  Each
    family's rows come from gram_rows with every monomial mapped to its
    orbit's row, so the sums over O (and over a block's pair orbits) add the
    coefficients in floating point, exactly for integer data; only the final
    scaling by m/|O| and 1/sqrt(t) rounds.
    """
    check_order(p, s)
    n = p.n
    action = symmetry.GroupAction(n, []) if action is None else action
    if action.size != n:
        raise ValueError("action size does not match the variable count")
    gens = action.generators
    trivial = all(g == tuple(range(n)) for g in gens)
    moves = [symmetry._monomial_map(g) for g in gens]
    ineq_perms, eq_perms = [], []
    ineq_terms = [q.terms for q in p.ineqs]
    eq_terms = [q.terms for q in p.eqs]
    for gi, mv in enumerate(moves):
        def image(terms: Dict[Monomial, object], mv=mv) -> Dict[Monomial, object]:
            return {mv(m): c for m, c in terms.items()}

        if image(p.objective.terms) != p.objective.terms:
            raise ValueError(f"program not invariant: generator {gi} moves the objective")
        ineq_perms.append(symmetry._permutation_of(ineq_terms, image, "inequalities", gi))
        eq_perms.append(symmetry._permutation_of(eq_terms, image, "equalities", gi))

    mono_orbits = symmetry.orbits(monomials_graded_lex(n, s), moves)
    row_of = {m: k for k, o in enumerate(mono_orbits) for m in o}
    nrows = len(mono_orbits)
    orbit_size = np.array([[len(o)] for o in mono_orbits])

    # the free scalars' columns: row O of a family holds m/|O| times its sum over O
    columns = [np.eye(nrows, 1)]    # λ, in the constant monomial's row
    names = ["lambda"]

    if eq_mult_degrees is None:
        eq_mult_degrees = [s - h.degree() for h in p.eqs]
    elif len(eq_mult_degrees) != len(p.eqs):
        raise ValueError("one multiplier degree per equality required")
    caps = [min(c, s - h.degree()) for c, h in zip(eq_mult_degrees, p.eqs)]
    if any(caps[k] != caps[pi[k]] for pi in eq_perms for k in range(len(caps))):
        raise ValueError("equality multiplier degrees must agree on each orbit")
    mults = [(k, gamma) for k in range(len(p.eqs))
             for gamma in monomials_up_to_degree(n, caps[k])]
    eq_mult_indices: List[Dict[Monomial, int]] = [{} for _ in p.eqs]
    for orbit in symmetry.orbits(mults, [lambda kg, pi=pi, mv=mv: (pi[kg[0]], mv(kg[1]))
                                         for pi, mv in zip(eq_perms, moves)]):
        k, gamma = orbit[0]
        # c·γ·h_k is σ·γ·h_k for σ = c over the order-0 basis, a 1x1 Gram block
        terms = {mono_mul(gamma, m): c for m, c in p.eqs[k].terms.items()}
        columns.append(gram_rows(n, 0, terms, row_of, nrows) * len(orbit) / orbit_size)
        eq_mult_indices[k][gamma] = len(names)
        names.append(f"c[{k}]{gamma}")

    # (multiplied polynomial, its orbit, each generator's permutation of the
    # orbit's polynomials, basis order, label); σ0 multiplies the orbit {1}
    families = [({(0,) * n: 1}, [0], [[0]] * len(gens), s // 2, "sigma0")]
    for orbit in symmetry.orbits(range(len(p.ineqs)),
                                 [lambda k, pi=pi: pi[k] for pi in ineq_perms]):
        g = p.ineqs[orbit[0]]
        families.append((g.terms, orbit, ineq_perms, (s - g.degree()) // 2,
                         f"sigma{orbit[0] + 1}"))
    grams, lmis = [], []
    bases: Dict[bytes, symmetry.OrbitBasis] = {}
    for g_terms, orbit, perms, order, label in families:
        vec = monomial_vector(n, order)
        d = len(vec)
        rows_g = gram_rows(n, order, g_terms, row_of, nrows)
        if trivial:
            grams.append(rows_g.reshape(-1, d, d))
            continue
        # G is transitive on the orbit, so the orbits of the stabilizer of its
        # first member on basis pairs (b, b') are the G-orbits of the triples
        # (member, b, b') read at the first member, numbered as _pair_orbits
        pos = {b: i for i, b in enumerate(vec)}
        at = {k: r for r, k in enumerate(orbit)}
        m = len(orbit)
        images = []     # a generator maps the triple (r, b, b') to (g(r), g(b), g(b'))
        for pi, mv in zip(perms, moves):
            r = np.array([at[pi[k]] for k in orbit])
            b = np.array([pos[mv(x)] for x in vec])
            images.append((r[:, None, None] * d + b[:, None]) * d + b)
        triples = symmetry._labels(m * d * d, np.tile(np.arange(m * d * d), len(images)),
                                   np.array(images, dtype=np.intp).ravel())
        pairs = symmetry._first_seen(triples[:d * d].reshape(d, d))[0]
        if pairs.tobytes() not in bases:
            bases[pairs.tobytes()] = symmetry.orbit_basis(pairs)
        basis = bases[pairs.tobytes()]
        coef, L = symmetry._orbit_coordinates(rows_g, basis)
        columns.append(coef * len(orbit) / orbit_size)
        lmis.append(sdp.MatrixIneq(basis.d, np.zeros((basis.d, basis.d)),
                                   dict(enumerate(L, len(names))), label=label))
        names += [f"{label}{g}" for g in basis.sym_groups()]

    rows = [sdp.LinearRow(free={j: v for j, v in enumerate(r) if v},
                          rhs=float(p.objective.coefficient_of(o[0])), rel="==",
                          label=str(o[0]))
            for r, o in zip(np.hstack(columns).tolist(), mono_orbits)]
    for bi, block in enumerate(grams):   # set after __post_init__: gram_rows is symmetric
        for k in np.flatnonzero(block.any(axis=(1, 2))):
            rows[k].blocks[bi] = block[k]
    free_obj = np.zeros(len(names))
    free_obj[0] = 1.0
    dims = [g.shape[1] for g in grams]
    prob = sdp.SdpProblem(block_dims=dims, C=[np.zeros((d, d)) for d in dims],
                          n_free=len(names), free_obj=free_obj, rows=rows, lmis=lmis,
                          sense="max", free_names=names)
    if not trivial:
        return prob, None
    return prob, SosDualInfo(n=n, order=s, row_of_monomial=row_of, lambda_index=0,
                             gram_orders=[f[3] for f in families],
                             gram_blocks=list(range(len(grams))),
                             eq_mult_indices=eq_mult_indices)


# -- moment primal side --------------------------------------------------------

@dataclass
class MomentInfo:
    n: int
    order: int
    moment_index: Dict[Monomial, int]


def build_moment_primal(p: PolyProgram, s: int) -> Tuple[sdp.SdpProblem, MomentInfo]:
    """SDP over truncated moments y_a, |a| <= s: minimize L_y(f) subject to
    y_0 = 1, the moment matrix and all localizing matrices PSD, and the
    localizing rows of each equality pinned to zero.

    It is the Lagrangian dual of the SOS dual: each monomial's row becomes
    the moment y_a, each Gram block the moment or localizing matrix of its
    multiplier, λ the row y_0 = 1 and each equality multiplier a pin row."""
    prob, info = build_sos_dual(p, s)
    mom = sdp.dual_of(prob)
    mom.free_names = [f"y{m}" for m in info.row_of_monomial]
    return mom, MomentInfo(n=p.n, order=s, moment_index=info.row_of_monomial)


# -- certificates ---------------------------------------------------------------

@dataclass
class Certificate:
    """λ plus one Gram matrix per SOS multiplier (σ0 first, then one per
    inequality) and one free polynomial multiplier per equality."""

    lam: object
    gram: List[object]                  # square matrices; Fraction lists or float arrays
    eq_multipliers: List[Polynomial]
    orders: List[int]
    mode: str = FLOAT

    def to_json(self) -> dict:
        cell = str if self.mode == EXACT else float
        grams = []
        for q in self.gram:
            rows = np.atleast_2d(q).tolist() if self.mode == FLOAT else q
            grams.append([list(map(cell, row)) for row in rows])
        return {
            "lambda": cell(self.lam),
            "grams": grams,
            "eq_multipliers": [c.to_json_terms() for c in self.eq_multipliers],
            "orders": list(self.orders),
            "mode": self.mode,
        }

    @staticmethod
    def from_json(data: dict, n: int) -> "Certificate":
        mode = data.get("mode", EXACT)
        conv = (lambda v: Fraction(str(v))) if mode == EXACT else float
        grams = []
        for q in data["grams"]:
            if mode == EXACT:
                grams.append([[conv(v) for v in row] for row in q])
            else:
                grams.append(np.array([[conv(v) for v in row] for row in q]))
        return Certificate(
            lam=conv(data["lambda"]),
            gram=grams,
            eq_multipliers=[Polynomial.from_json_terms(n, t, mode)
                            for t in data["eq_multipliers"]],
            orders=[int(d) for d in data["orders"]],
            mode=mode,
        )


@dataclass
class Verdict:
    """identity_residual is σ0 + Σ σi·gi + Σ ck·hk + λ - f, and tol the largest
    residual coefficient accepted: 0 in exact mode, float_identity_tol(f) in
    float mode.  psd_ok and psd_failures (indices of non-PSD Gram matrices)
    are None when the identity failed and the PSD test was skipped."""

    identity_residual: Polynomial
    tol: float
    psd_ok: Optional[bool] = None
    psd_failures: Optional[List[int]] = None

    def identity_ok(self) -> bool:
        r = self.identity_residual
        return r.is_zero() or r.max_abs_coefficient() <= self.tol

    def ok(self) -> bool:
        return self.identity_ok() and bool(self.psd_ok)


def verify_certificate(p: PolyProgram, cert: Certificate, mode: str = EXACT) -> Verdict:
    """Expand σ0 + Σ σi·gi + Σ ck·hk + λ - f, then test the Gram matrices.

    Exact mode demands rational data throughout and a residual that is
    identically zero; float mode tolerates residual coefficients up to
    1e-6*(1 + max |coef| of f).  The PSD test (``sdp.is_psd``, exact or
    float) runs only when the residual is within that tolerance.  Signs of
    equality multipliers are not checked (any sign is valid).  A
    certificate whose Gram or order count, or a Gram size, does not fit p
    raises ValueError.

    The residual polynomial holds every nonzero coefficient of the
    expansion ``_identity_terms``, which this reads to the end.
    """
    if len(cert.gram) != 1 + len(p.ineqs) or len(cert.orders) != len(cert.gram):
        raise ValueError(f"expected {1 + len(p.ineqs)} Gram matrices and orders, "
                         f"got {len(cert.gram)} and {len(cert.orders)}")
    if len(cert.eq_multipliers) != len(p.eqs):
        raise ValueError(f"expected {len(p.eqs)} equality multipliers")
    exact = mode == EXACT
    if exact and cert.mode != EXACT:
        raise ValueError("exact verification needs a rational certificate")
    for i, (q, d) in enumerate(zip(cert.gram, cert.orders)):
        size = comb(p.n + d, d)
        if len(q) != size or any(len(row) != size for row in q):
            raise ValueError(f"the Gram matrix of σ{i} must be {size}x{size} for order {d}")

    ratio = _exact_ratio if exact else _float_ratio
    terms = {m: Fraction(num, den) if exact else num
             for m, num, den in _identity_terms(p, cert, ratio, ratio) if num}
    verdict = Verdict(identity_residual=Polynomial(p.n, terms, EXACT if exact else FLOAT),
                      tol=0.0 if exact else float_identity_tol(p.objective))
    if not verdict.identity_ok():
        return verdict

    verdict.psd_failures = [i for i, q in enumerate(cert.gram)
                            if not sdp.is_psd(q, mode=EXACT if exact else FLOAT)[0]]
    verdict.psd_ok = not verdict.psd_failures
    return verdict


def _exact_ratio(c) -> Tuple[int, int]:
    if type(c) is not Fraction:
        c = _as_exact(c)  # refuses floats
    return c.as_integer_ratio()


def _float_ratio(c) -> Tuple[float, int]:
    return float(c), 1


def _identity_terms(p: PolyProgram, cert: Certificate, ratio, read):
    """Yield each monomial of σ0 + Σ σi·gi + Σ ck·hk + λ - f with its
    coefficient as (numerator, denominator), zero coefficients included.

    Every number is a (numerator, denominator) pair, a float over 1 in
    float mode: the program's coefficients from ``ratio``, the
    certificate's (Gram entries, multiplier coefficients, λ) from ``read``.
    First each monomial gets the list of the sources it sums, each a slot
    (the nonzero entries of one Gram product b_i b_j, one multiplier
    coefficient, λ, or a coefficient of f) times a program coefficient,
    None for 1; no certificate number is read yet.  A slot is read when
    the first monomial that needs it is summed, so each number is read at
    most once, and a consumer that stops early reads only what the
    monomials before it used.  Each coefficient is summed once over the
    lcm of its denominators, so exact arithmetic is done in Python ints."""
    n = p.n
    parts: Dict[Monomial, list] = {}

    def unit(coef: Tuple[object, int]) -> Optional[Tuple[object, int]]:
        return None if coef == (1, 1) else coef

    sos_mults = (Polynomial.constant(n, 1),) + p.ineqs
    for g, q, d in zip(sos_mults, cert.gram, cert.orders):
        prods, table = _products(n, d)
        nonzero: Dict[int, list] = {}  # product index -> its nonzero entries
        for row, prow in zip(q.tolist() if isinstance(q, np.ndarray) else q, table.tolist()):
            for v, t in zip(row, prow):
                if v:
                    nonzero.setdefault(t, []).append(v)
        gterms = [(m, unit(ratio(c))) for m, c in g.terms.items()]
        for t in sorted(nonzero):  # in the order of prods, whichever entries are zero
            slot = [nonzero[t], None]  # the raw numbers, then their pairs once read
            for gm, gc in gterms:
                parts.setdefault(mono_mul(prods[t], gm), []).append((slot, gc))
    for h, c in zip(p.eqs, cert.eq_multipliers):
        hterms = [(m, unit(ratio(v))) for m, v in h.terms.items()]
        for cm, v in c.terms.items():
            slot = [[v], None]
            for hm, hc in hterms:
                parts.setdefault(mono_mul(cm, hm), []).append((slot, hc))
    parts.setdefault((0,) * n, []).append(([[cert.lam], None], None))
    for m, c in p.objective.terms.items():
        a, b = ratio(c)
        parts.setdefault(m, []).append(([None, [(-a, b)]], None))

    for m, sources in parts.items():
        ps = []
        for slot, coef in sources:
            vals = slot[1]
            if vals is None:
                vals = slot[1] = list(map(read, slot[0]))
            if coef is None:
                ps += vals
            else:
                gn, gd = coef
                ps.extend((a * gn, b * gd) for a, b in vals)
        den = lcm(*(b for _, b in ps))
        yield m, sum(a * (den // b) for a, b in ps), den


def float_identity_tol(f: Polynomial) -> float:
    return 1e-6 * (1.0 + float(f.max_abs_coefficient()))


def _clip_psd(q: np.ndarray) -> np.ndarray:
    """The symmetric q with its negative eigenvalues clipped to zero,
    symmetrized."""
    vals, vecs = np.linalg.eigh(q)
    clipped = vecs @ np.diag(np.maximum(vals, 0.0)) @ vecs.T
    return (clipped + clipped.T) / 2.0


def _exact_if_verified(p: PolyProgram, cert: Certificate) -> Certificate:
    """``rationalize_certificate(cert)`` when it verifies exactly, else cert.

    The identity is expanded with ``_identity_terms``, each certificate
    number rounded only when a monomial reads it, and the attempt stops at
    the first nonzero coefficient.  Only when every coefficient vanishes is
    the rational certificate built and its Gram matrices tested exactly for
    PSD."""
    def read(v) -> Tuple[int, int]:
        return _rounded(v).as_integer_ratio()

    if any(num for _, num, _ in _identity_terms(p, cert, _exact_ratio, read)):
        return cert
    exact = rationalize_certificate(cert)
    return exact if all(sdp.is_psd(q, mode=EXACT)[0] for q in exact.gram) else cert


def extract_certificate(sol: sdp.SdpSolution, info: SosDualInfo,
                        p: PolyProgram) -> Certificate:
    """Read λ, Gram matrices and equality multipliers off a solved SOS dual.

    Gram matrices are symmetrized and eigenvalue-clipped at zero.  The
    continued-fraction rounding of the result (denominator cap 1e6) is
    returned when it verifies exactly, the float certificate otherwise, so
    an exact certificate returned here needs no second verification.  The
    attempt (``_exact_if_verified``) rounds only the entries that the
    identity's monomials read up to its first nonzero coefficient.
    """
    grams = []
    for blk in info.gram_blocks:
        q = np.array(sol.X[blk])
        grams.append(_clip_psd((q + q.T) / 2.0))
    mults = [Polynomial(info.n, {g: float(sol.free[j]) for g, j in idx.items()}, FLOAT)
             for idx in info.eq_mult_indices]
    cert = Certificate(lam=float(sol.free[info.lambda_index]), gram=grams,
                       eq_multipliers=mults, orders=list(info.gram_orders), mode=FLOAT)
    return _exact_if_verified(p, cert)


def _rounded(v) -> Fraction:
    """The continued-fraction rounding of one number, denominator at most
    RATIONALIZE_DENOMINATOR_CAP."""
    return Fraction(float(v)).limit_denominator(RATIONALIZE_DENOMINATOR_CAP)


def rationalize_certificate(cert: Certificate) -> Certificate:
    """Continued-fraction rounding (``_rounded``) of every numeric entry."""
    grams = [[[_rounded(v) for v in row] for row in np.atleast_2d(q).tolist()]
             for q in cert.gram]
    mults = [Polynomial(c.n, {m: _rounded(v) for m, v in c.terms.items()}, EXACT)
             for c in cert.eq_multipliers]
    return Certificate(lam=_rounded(cert.lam), gram=grams, eq_multipliers=mults,
                       orders=list(cert.orders), mode=EXACT)


# -- SOS feasibility -------------------------------------------------------------

@dataclass
class SosCheck:
    status: str                      # "feasible" | "infeasible" | "inconclusive"
    certificate: Optional[Certificate]
    margin: float                    # optimal shift t*: <= 0 means SOS
    solver_status: str


def check_sos(f: Polynomial, d: int, tol: float = 1e-8, max_iter: int = 200) -> SosCheck:
    """Decide whether f is a sum of squares with basis degree d.

    Solves the phase-I problem  min t : coefficient rows on Q' hold with
    Q' = Q + t*I >= 0; t* <= 0 exhibits a PSD Gram, a strictly positive t*
    is a proof of infeasibility, and solver non-convergence is reported as
    inconclusive rather than collapsed into either answer.
    """
    if 2 * d < f.degree():
        raise ValueError(f"basis degree {d} too small for deg f = {f.degree()}")
    if f.degree() % 2 == 1:
        return SosCheck(status="infeasible", certificate=None, margin=np.inf,
                        solver_status="odd_degree")
    n = f.n
    monos = monomials_up_to_degree(n, 2 * d)
    dim = comb(n + d, d)
    blocks = gram_rows(n, d, {(0,) * n: 1}, {m: k for k, m in enumerate(monos)},
                       len(monos)).reshape(-1, dim, dim)
    rows = []
    for alpha, a in zip(monos, blocks):
        # Q' = Q + t*I enters row α as the coefficients a, so t's column is -tr a
        tr = float(np.trace(a))
        rows.append(sdp.LinearRow(blocks={0: a}, free={0: -tr} if tr else {},
                                  rhs=float(f.coefficient_of(alpha)), rel="=="))
    prob = sdp.SdpProblem(
        block_dims=[dim],
        C=[np.zeros((dim, dim))],
        n_free=1,
        free_obj=np.array([1.0]),
        rows=rows,
        sense="min",
        free_names=["t"],
    )
    sol = sdp.solve(prob, tol=tol, max_iter=max_iter)
    if sol.status != sdp.OPTIMAL:
        return SosCheck(status="inconclusive", certificate=None,
                        margin=float("nan"), solver_status=sol.status)
    t = float(sol.free[0])
    if t > float_identity_tol(f):
        return SosCheck(status="infeasible", certificate=None, margin=t,
                        solver_status=sol.status)
    q = np.array(sol.X[0])
    q = _clip_psd((q + q.T) / 2.0 - t * np.eye(dim))
    cert = _exact_if_verified(PolyProgram(n, f), Certificate(
        lam=0.0, gram=[q], eq_multipliers=[], orders=[d], mode=FLOAT))
    return SosCheck(status="feasible", certificate=cert, margin=t,
                    solver_status=sol.status)
