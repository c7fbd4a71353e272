"""Order-s relaxations of polynomial programs and their certificates.

The SOS side compiles  sup λ : f - λ = σ0 + Σ σi·gi + Σ ck·hk  into an SDP
with one PSD block per squared multiplier (σ0 is the multiplier of g0 = 1)
and one equality row per monomial (the constant monomial's row carries λ).
Equality constraints get free polynomial multipliers.  The moment side is
``sdp.dual_of`` the SOS side: it minimizes the linear functional of the
objective over truncated moment sequences, one moment per monomial row, with
PSD moment and localizing matrices from the Gram blocks and linear pinning
rows from the equality multipliers.

Certificates are verified by full polynomial expansion, in exact rational
arithmetic when all data is rational.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from soskit import sdp
from soskit.moment import monomial_vector
from soskit.poly import (
    EXACT,
    FLOAT,
    Monomial,
    Polynomial,
    mono_mul,
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


def _pair_index(basis: Sequence[Monomial]) -> Dict[Monomial, list]:
    """For a monomial basis, map each product monomial to the (i, j) pairs
    producing it."""
    out: Dict[Monomial, list] = {}
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            out.setdefault(mono_mul(a, b), []).append((i, j))
    return out


def build_sos_dual(p: PolyProgram, s: int,
                   eq_mult_degrees: Optional[Sequence[int]] = None,
                   ) -> Tuple[sdp.SdpProblem, SosDualInfo]:
    """SDP for  sup λ : f - λ = σ0 + Σ σi·gi + Σ ck·hk  with σ0 of order
    2*floor(s/2), σi of order 2*floor((s - deg gi)/2), and free polynomial
    multipliers ck of degree s - deg hk (cap individually with
    eq_mult_degrees, e.g. 0 for scalar multipliers)."""
    check_order(p, s)
    n = p.n
    f = p.objective

    sos_mults = (Polynomial.constant(n, 1),) + p.ineqs  # g0 = 1 carries σ0
    orders = [(s - g.degree()) // 2 for g in sos_mults]
    bases = [monomial_vector(n, d) for d in orders]
    pair_maps = [_pair_index(basis) for basis in bases]

    monos = monomials_up_to_degree(n, s)
    row_of = {m: k for k, m in enumerate(monos)}

    if eq_mult_degrees is None:
        eq_mult_degrees = [s - h.degree() for h in p.eqs]
    elif len(eq_mult_degrees) != len(p.eqs):
        raise ValueError("one multiplier degree per equality required")

    free_names = ["lambda"]
    lam = 0
    eq_mult_indices: List[Dict[Monomial, int]] = []
    for k, h in enumerate(p.eqs):
        idx = {}
        for g in monomials_up_to_degree(n, min(eq_mult_degrees[k], s - h.degree())):
            idx[g] = len(free_names)
            free_names.append(f"c[{k}]{g}")
        eq_mult_indices.append(idx)
    n_free = len(free_names)

    rows = [sdp.LinearRow(rhs=float(f.coefficient_of(m)), rel="==", label=str(m))
            for m in monos]
    rows[row_of[(0,) * n]].free[lam] = 1.0

    # σi·gi blocks, σ0 first: coefficient of Qi[j,l] in row α is [gi]_γ
    # for γ = α - βj - βl
    for bi, g in enumerate(sos_mults):
        acc: Dict[Monomial, np.ndarray] = {}
        dim = len(bases[bi])
        for prod, pairs in pair_maps[bi].items():
            for gm, gc in g.terms.items():
                alpha = mono_mul(prod, gm)
                a = acc.setdefault(alpha, np.zeros((dim, dim)))
                c = float(gc)
                for i, j in pairs:
                    a[i, j] += c
        for alpha, a in acc.items():
            rows[row_of[alpha]].blocks[bi] = a
    # equality multipliers: coefficient of c_{k,γ} in row α is [hk]_{α-γ}
    for k, h in enumerate(p.eqs):
        for gamma, idx in eq_mult_indices[k].items():
            for hm, hc in h.terms.items():
                alpha = mono_mul(gamma, hm)
                r = rows[row_of[alpha]]
                r.free[idx] = r.free.get(idx, 0.0) + float(hc)

    free_obj = np.zeros(n_free)
    free_obj[lam] = 1.0
    prob = sdp.SdpProblem(
        block_dims=[len(b) for b in bases],
        C=[np.zeros((len(b),) * 2) for b in bases],
        n_free=n_free,
        free_obj=free_obj,
        rows=rows,
        sense="max",
        free_names=free_names,
    )
    info = SosDualInfo(
        n=n,
        order=s,
        row_of_monomial=row_of,
        lambda_index=lam,
        gram_orders=orders,
        gram_blocks=list(range(len(bases))),
        eq_mult_indices=eq_mult_indices,
    )
    return prob, info


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
    numeric_only: bool = False

    def to_json(self) -> dict:
        def cell(v):
            return str(v) if self.mode == EXACT else float(v)

        grams = []
        for q in self.gram:
            rows = np.atleast_2d(q).tolist() if self.mode == FLOAT else q
            grams.append([[cell(v) for v in row] for row in rows])
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


def expand_gram(n: int, gram, order: int, mode: str) -> Polynomial:
    """v_order(x)' Q v_order(x) as a polynomial."""
    basis = monomial_vector(n, order)
    terms: Dict[Monomial, object] = {}
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            q = gram[i][j]
            if q == 0:
                continue
            m = mono_mul(a, b)
            terms[m] = terms.get(m, 0) + q
    return Polynomial(n, terms, mode)


@dataclass
class Verdict:
    identity_residual: Polynomial
    psd_ok: bool
    psd_failures: List[int] = field(default_factory=list)

    def ok(self, tol: float = 0.0) -> bool:
        if not self.psd_ok:
            return False
        if self.identity_residual.is_zero():
            return True
        return float(self.identity_residual.max_abs_coefficient()) <= tol


def verify_certificate(p: PolyProgram, cert: Certificate, mode: str = EXACT) -> Verdict:
    """Expand σ0 + Σ σi·gi + Σ ck·hk + λ - f and test the Gram matrices.

    Exact mode demands rational data throughout and a residual that is
    identically zero; float mode tolerates residual coefficients up to
    1e-6*(1 + max |coef| of f).  Signs of equality multipliers are not
    checked (any sign is valid).
    """
    if len(cert.gram) != 1 + len(p.ineqs):
        raise ValueError(f"expected {1 + len(p.ineqs)} Gram matrices, got {len(cert.gram)}")
    if len(cert.eq_multipliers) != len(p.eqs):
        raise ValueError(f"expected {len(p.eqs)} equality multipliers")
    if mode == EXACT and cert.mode != EXACT:
        raise ValueError("exact verification needs a rational certificate")

    if mode == EXACT:
        f = p.objective
        gs = p.ineqs
        hs = p.eqs
        mults = cert.eq_multipliers
        lam = Polynomial.constant(p.n, Fraction(cert.lam))
    else:
        f = p.objective.to_float()
        gs = tuple(g.to_float() for g in p.ineqs)
        hs = tuple(h.to_float() for h in p.eqs)
        mults = [c.to_float() for c in cert.eq_multipliers]
        lam = Polynomial.constant(p.n, float(cert.lam), FLOAT)

    pmode = EXACT if mode == EXACT else FLOAT
    residual = expand_gram(p.n, cert.gram[0], cert.orders[0], pmode)
    for g, q, d in zip(gs, cert.gram[1:], cert.orders[1:]):
        residual = residual + expand_gram(p.n, q, d, pmode) * g
    for h, c in zip(hs, mults):
        residual = residual + c * h
    residual = residual + lam - f

    failures = []
    for i, q in enumerate(cert.gram):
        if len(q) == 0:
            continue
        verdict, _ = sdp.is_psd(q, mode="exact" if mode == EXACT else "float")
        if not verdict:
            failures.append(i)
    return Verdict(identity_residual=residual, psd_ok=not failures, psd_failures=failures)


def float_identity_tol(f: Polynomial) -> float:
    return 1e-6 * (1.0 + float(f.max_abs_coefficient()))


def _clip_psd(q: np.ndarray):
    """The eigenvalues of the symmetric q, and q with its negative
    eigenvalues clipped to zero, symmetrized."""
    vals, vecs = np.linalg.eigh(q)
    clipped = vecs @ np.diag(np.maximum(vals, 0.0)) @ vecs.T
    return vals, (clipped + clipped.T) / 2.0


def extract_certificate(sol: sdp.SdpSolution, info: SosDualInfo, p: PolyProgram,
                        rationalize: bool = True) -> Certificate:
    """Read λ, Gram matrices and equality multipliers off a solved SOS dual.

    Gram matrices are symmetrized and eigenvalue-clipped at zero; if the
    clip exceeds 1e-6*(1+||Q||) the certificate is flagged numeric-only.
    With rationalize, a continued-fraction rounding (denominator cap 1e6)
    is attempted and kept only when it verifies exactly.
    """
    lam = float(sol.free[info.lambda_index])
    grams = []
    numeric_only = False
    for blk in info.gram_blocks:
        q = np.array(sol.X[blk])
        q = (q + q.T) / 2.0
        vals, clipped = _clip_psd(q)
        if vals.size and vals[0] < -1e-6 * (1.0 + np.linalg.norm(q)):
            numeric_only = True
        grams.append(clipped)
    mults = []
    for k, idx in enumerate(info.eq_mult_indices):
        terms = {g: float(sol.free[j]) for g, j in idx.items()}
        mults.append(Polynomial(info.n, terms, FLOAT))
    cert = Certificate(lam=lam, gram=grams, eq_multipliers=mults,
                       orders=list(info.gram_orders), mode=FLOAT,
                       numeric_only=numeric_only)
    if rationalize and not numeric_only:
        exact = rationalize_certificate(cert)
        verdict = verify_certificate(p, exact, mode=EXACT)
        if verdict.ok():
            return exact
    return cert


def rationalize_certificate(cert: Certificate,
                            cap: int = RATIONALIZE_DENOMINATOR_CAP) -> Certificate:
    """Continued-fraction rounding of every numeric entry."""
    def rat(v) -> Fraction:
        return Fraction(float(v)).limit_denominator(cap)

    grams = [[[rat(v) for v in row] for row in np.atleast_2d(q).tolist()]
             for q in cert.gram]
    mults = [Polynomial(c.n, {m: rat(v) for m, v in c.terms.items()}, EXACT)
             for c in cert.eq_multipliers]
    return Certificate(lam=rat(cert.lam), gram=grams, eq_multipliers=mults,
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
    basis = monomial_vector(n, d)
    pairs = _pair_index(basis)
    rows = []
    for alpha in monomials_up_to_degree(n, 2 * d):
        a = np.zeros((len(basis),) * 2)
        for i, j in pairs.get(alpha, ()):
            a[i, j] += 1.0
        free = {}
        half = tuple(e // 2 for e in alpha)
        if all(e % 2 == 0 for e in alpha) and sum(half) <= d:
            free[0] = -1.0
        rows.append(sdp.LinearRow(blocks={0: a}, free=free,
                                  rhs=float(f.coefficient_of(alpha)), rel="=="))
    prob = sdp.SdpProblem(
        block_dims=[len(basis)],
        C=[np.zeros((len(basis),) * 2)],
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
    _, q = _clip_psd((q + q.T) / 2.0 - t * np.eye(len(basis)))
    cert = Certificate(lam=0.0, gram=[q], eq_multipliers=[],
                       orders=[d], mode=FLOAT)
    trivial = PolyProgram(n, f)
    exact = rationalize_certificate(cert)
    if verify_certificate(trivial, exact, mode=EXACT).ok():
        cert = exact
    return SosCheck(status="feasible", certificate=cert, margin=t,
                    solver_status=sol.status)
