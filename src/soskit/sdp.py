"""Block-structured SDP data model, PSD tests, duality, and SDPA file I/O.

A problem holds PSD variable blocks X_b, free scalar variables u, scalar
rows  sum_b <A_kb, X_b> + d_k.u  (<= or ==)  b_k, and matrix inequalities
G0 + sum_j u_j G_j >= 0 over the free scalars.  This mixed form is closed
under Lagrangian duality: blocks dualize to matrix inequalities and rows to
free scalars, except a sign row u_j >= 0 of a min problem (u_j <= 0 of a
max one), whose multiplier only makes u_j's dual row an inequality.  So
``dual_of`` is an involution: dualizing twice returns the problem itself.
The multiplier of a diagonal matrix inequality is one 1x1 block per
diagonal entry, and the problem records that run of blocks as one diagonal
group, which dualizes back to the diagonal inequality.  ``solve`` may hand
the IPM that dual, and reads the solution off it, roles swapped.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from math import isfinite, lcm
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from soskit import ipm

log = logging.getLogger(__name__)

OPTIMAL = "optimal"
PRIMAL_INFEASIBLE = "primal_infeasible_cert"
DUAL_INFEASIBLE = "dual_infeasible_cert"
MAX_ITER = "max_iter"  # optimal on the dual, but not certifying the problem
NUMERICAL_FAILURE = "numerical_failure"


def _sym(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    return (m + m.T) / 2.0


@dataclass
class LinearRow:
    """sum_b <blocks[b], X_b> + sum_j free[j]*u_j  rel  rhs."""

    blocks: Dict[int, np.ndarray] = field(default_factory=dict)
    free: Dict[int, float] = field(default_factory=dict)
    rhs: float = 0.0
    rel: str = "=="
    label: Optional[str] = None

    def __post_init__(self):
        if self.rel not in ("==", "<="):
            raise ValueError(f"unknown relation {self.rel!r}")
        self.blocks = {b: _sym(a) for b, a in self.blocks.items()}
        self.free = {j: float(c) for j, c in self.free.items() if c != 0.0}
        self.rhs = float(self.rhs)


@dataclass
class MatrixIneq:
    """const + sum_j coeffs[j]*u_j >= 0 (positive semidefinite).  A diagonal
    one (SDPA's negative block size) has diagonal data, and its slack
    standardizes to dim entries of the LP cone."""

    dim: int
    const: np.ndarray
    coeffs: Dict[int, np.ndarray] = field(default_factory=dict)
    diag: bool = False
    label: Optional[str] = None

    def __post_init__(self):
        self.const = _sym(self.const)
        if self.const.shape != (self.dim, self.dim):
            raise ValueError("const has wrong shape")
        self.coeffs = {j: _sym(g) for j, g in self.coeffs.items()}
        for g in self.coeffs.values():
            if g.shape != (self.dim, self.dim):
                raise ValueError("coefficient matrix has wrong shape")
        if self.diag and any(np.count_nonzero(g - np.diag(np.diag(g)))
                             for g in (self.const, *self.coeffs.values())):
            raise ValueError("diagonal matrix inequality has off-diagonal entries")

    def value(self, u: Sequence[float]) -> np.ndarray:
        out = self.const.copy()
        for j, g in self.coeffs.items():
            out += u[j] * g
        return out


@dataclass
class SdpProblem:
    block_dims: List[int] = field(default_factory=list)
    C: List[np.ndarray] = field(default_factory=list)
    n_free: int = 0
    free_obj: np.ndarray = None
    rows: List[LinearRow] = field(default_factory=list)
    lmis: List[MatrixIneq] = field(default_factory=list)
    sense: str = "min"
    free_names: Optional[List[str]] = None
    # (first, count): the 1x1 blocks first .. first + count - 1 are the
    # diagonal of one matrix, as dual_of makes the multiplier of a diagonal
    # matrix inequality, and dualize back to one diagonal inequality
    diag_groups: List[Tuple[int, int]] = field(default_factory=list)

    def __post_init__(self):
        if self.sense not in ("min", "max"):
            raise ValueError(f"unknown sense {self.sense!r}")
        for first, count in self.diag_groups:
            if count < 1 or self.block_dims[first:first + count] != [1] * count:
                raise ValueError("a diagonal group must be a run of 1x1 blocks")
        self.C = [_sym(c) for c in self.C]
        if len(self.C) != len(self.block_dims):
            raise ValueError("one objective matrix per block required")
        for d, c in zip(self.block_dims, self.C):
            if c.shape != (d, d):
                raise ValueError("objective block has wrong shape")
        if self.free_obj is None:
            self.free_obj = np.zeros(self.n_free)
        self.free_obj = np.asarray(self.free_obj, dtype=float)
        if self.free_obj.shape != (self.n_free,):
            raise ValueError("free objective has wrong length")

    def objective_value(self, X: Sequence[np.ndarray], u: Sequence[float]) -> float:
        val = float(np.dot(self.free_obj, u)) if self.n_free else 0.0
        for c, x in zip(self.C, X):
            val += float(np.sum(c * x))
        return val

    def negated(self) -> "SdpProblem":
        """Same constraints, objective negated, sense flipped."""
        return SdpProblem(
            block_dims=list(self.block_dims),
            C=[-c for c in self.C],
            n_free=self.n_free,
            free_obj=-self.free_obj,
            rows=self.rows,
            lmis=self.lmis,
            sense="max" if self.sense == "min" else "min",
            free_names=self.free_names,
            diag_groups=self.diag_groups,
        )


@dataclass
class SdpSolution:
    status: str
    primal_obj: float
    dual_obj: float
    gap: float
    iterations: int
    X: List[np.ndarray]
    free: np.ndarray
    y: np.ndarray
    Z: List[np.ndarray]
    marginal: bool = False
    primal_residual: float = 0.0
    dual_residual: float = 0.0
    orientation: str = "direct"  # the form the IPM solved: "direct" or "dual"

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "primal_obj": self.primal_obj,
            "dual_obj": self.dual_obj,
            "gap": self.gap,
            "iterations": self.iterations,
            "orientation": self.orientation,
            "marginal": self.marginal,
        }


# -- PSD tests ---------------------------------------------------------------

def is_psd(M, mode: str = "float"):
    """PSD test. Float mode thresholds the minimum eigenvalue at
    -1e-8*||M|| and rejects a matrix asymmetric beyond 1e-9*max(1, ||M||);
    exact mode decides over the rationals.  Returns
    (verdict, witness) where witness is a vector x with x'Mx < 0 when the
    verdict is False."""
    if mode == "exact":
        return is_psd_exact(M)
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("matrix must be square")
    scale = np.linalg.norm(M)
    if np.max(np.abs(M - M.T)) > 1e-9 * max(1.0, scale):
        raise ValueError("matrix is not symmetric")
    if M.shape[0] == 0:
        return True, None
    vals, vecs = np.linalg.eigh(_sym(M))
    eps = 1e-8 * scale
    if vals[0] >= -eps:
        return True, None
    return False, vecs[:, 0]


def is_psd_exact(M):
    """Exact PSD decision for a symmetric rational matrix; witness is rational
    with x'Mx < 0.

    The entries (ints, Fractions, or anything ``Fraction`` accepts) are read
    as numerator and denominator and scaled by the lcm of the denominators,
    and the integer matrix is decided by symmetric Bareiss elimination with
    diagonal pivoting (Bareiss 1968, Math. Comp. 22): a pivot p updates every
    remaining entry to (p*a_ij - a_ip*a_pj) // prev, prev the pivot before
    it (1 at the start).  The division is exact, as each entry is then the
    minor of the scaled matrix bordering the pivots with row i and column j,
    the Schur complement times the positive minor of the pivots.  So its
    signs decide, with the rules of rational elimination: a negative
    diagonal entry, or remaining diagonal entries all zero with a nonzero
    entry among them, means not PSD; otherwise the first positive diagonal
    entry is the next pivot.  Only a rejection makes Fractions, to lift the
    witness back through the pivots.  Raises ValueError if M is not
    symmetric.
    """
    n = len(M)
    if any(len(row) != n for row in M):
        raise ValueError("matrix must be square")
    nd = [[v.as_integer_ratio() if type(v) is Fraction else _ratio(v) for v in row]
          for row in M]
    dens = {d for row in nd for _, d in row}
    L = lcm(*dens)
    scale = {d: L // d for d in dens}
    A = [[a * scale[d] for a, d in row] for row in nd]
    for i in range(n):
        for j in range(i):
            if A[i][j] != A[j][i]:
                raise ValueError("matrix is not symmetric")

    active = list(range(n))
    pivots = []  # (index, pivot value), in elimination order
    prev = 1
    while active:
        neg = next((i for i in active if A[i][i] < 0), None)
        if neg is not None:
            return False, _lift_witness(A, pivots, {neg: 1})
        piv = next((i for i in active if A[i][i] > 0), None)
        if piv is None:
            for i in active:
                for j in active:
                    if A[i][j] != 0:
                        sgn = -1 if A[i][j] > 0 else 1
                        return False, _lift_witness(A, pivots, {i: 1, j: sgn})
            return True, None
        active.remove(piv)
        rp, p = A[piv], A[piv][piv]
        for t, i in enumerate(active):
            ri, c = A[i], rp[i]
            for j in active[t:]:
                ri[j] = A[j][i] = (p * ri[j] - c * rp[j]) // prev
        pivots.append((piv, p))
        prev = p
    return True, None


def _ratio(v) -> Tuple[int, int]:
    """(numerator, denominator) of an entry that ``Fraction`` accepts."""
    if not isinstance(v, (int, Fraction)):
        v = Fraction(v)
    return int(v.numerator), int(v.denominator)


def _lift_witness(A, pivots, w) -> List[Fraction]:
    """A vector x with x'Mx < 0 from w, a vector on the remaining indices
    with w'Sw < 0 for their Schur complement S: back-substitution through
    the pivots, whose rows of A are the Bareiss rows at their step."""
    x = {i: Fraction(v) for i, v in w.items()}
    for piv, p in reversed(pivots):
        row = A[piv]
        s = sum(row[j] * v for j, v in x.items())
        if s:
            x[piv] = -s / p
    return [x.get(i, Fraction(0)) for i in range(len(A))]


# -- duality -----------------------------------------------------------------

def dual_of(p: SdpProblem) -> SdpProblem:
    """Lagrangian dual in the same mixed form, with textbook signs.

    Blocks become matrix inequalities over the row multipliers v, matrix
    inequalities become PSD variable blocks Z, rows become free scalars, and
    free scalars become equality rows.  A min problem dualizes to

        max b.v - sum <G0_l, Z_l>   s.t.  C_b - sum_k v_k A_kb >= 0,
        sum <G_lj, Z_l> + sum_k v_k d_kj = c_j,   v_k <= 0 for <= rows,

    and a max problem to the min problem with every dual sign flipped:

        min b.v + sum <G0_l, Z_l>   s.t.  sum_k v_k A_kb - C_b >= 0,
        sum <-G_lj, Z_l> + sum_k v_k d_kj = c_j,  -v_k <= 0 for <= rows,

    so the dual bounds the primal on the correct side and its multipliers of
    inequality rows are nonnegative.  The multiplier Z_l of a diagonal
    inequality is diagonal, so it is l.dim 1x1 blocks in Z_l's place, one
    per diagonal entry, which the IPM solves on its LP cone; they form one
    of the dual's ``diag_groups``, and a diagonal group of blocks dualizes
    to one diagonal inequality.

    A sign row a*u_j <= 0 (no blocks, rhs 0) that is u_j's only one and has
    the sign of the dual's own sign rows, a < 0 for min and a > 0 for max
    (``_sign_rows``), gets no multiplier: the multiplier's sign only makes
    u_j's row an inequality, written ``<=`` without it.  So dualizing twice
    returns the problem: the dual's sign rows fold back into the inequality
    rows, and its ``<=`` rows return as the sign rows -u_j <= 0 (u_j <= 0
    for max), after the other rows, in order of j.
    """
    return _dual(p, *_sign_rows(p))


def _dual(p: SdpProblem, folded: Dict[int, int], kept: List[int]) -> SdpProblem:
    """``dual_of(p)`` given p's ``_sign_rows``."""
    sign = 1.0 if p.sense == "min" else -1.0
    v = {k: i for i, k in enumerate(kept)}  # row k's multiplier, a dual free scalar
    # Z_l's first block
    first = list(accumulate((len(_split(l, l.const)) for l in p.lmis), initial=0))
    # one row per primal free scalar: its blocks and free coefficients, in
    # order of inequality and of row
    blocks: List[Dict[int, np.ndarray]] = [{} for _ in range(p.n_free)]
    free: List[Dict[int, float]] = [{} for _ in range(p.n_free)]
    for li, l in enumerate(p.lmis):
        for j, g in l.coeffs.items():
            for t, gt in enumerate(_split(l, g)):
                blocks[j][first[li] + t] = sign * gt
    for k in kept:
        for j, a in p.rows[k].free.items():
            free[j][v[k]] = a
    d_rows: List[LinearRow] = []
    for j in range(p.n_free):
        d_rows.append(LinearRow(blocks=blocks[j], free=free[j], rhs=float(p.free_obj[j]),
                                rel="<=" if j in folded else "==", label=f"free[{j}]"))
        blocks[j] = None  # the row holds its own symmetrized copies
    for k in kept:  # sign constraint for the other inequality rows
        if p.rows[k].rel == "<=":
            d_rows.append(LinearRow(free={v[k]: sign}, rhs=0.0, rel="<=",
                                    label=f"sign[{k}]"))

    d_lmis: List[MatrixIneq] = []
    groups = dict(p.diag_groups)
    b = 0
    while b < len(p.block_dims):  # sign * (C_b - sum_k v_k A_kb) >= 0
        run = range(b, b + groups.get(b, 1))  # a diagonal group, or block b alone
        if b in groups:
            C_b = _group_diag(dict(enumerate(p.C)), run)
            A = {k: _group_diag(p.rows[k].blocks, run) for k in kept
                 if any(c in p.rows[k].blocks for c in run)}
        else:
            C_b = p.C[b]
            A = {k: p.rows[k].blocks[b] for k in kept if b in p.rows[k].blocks}
        d_lmis.append(MatrixIneq(dim=len(C_b), const=sign * C_b,
                                 coeffs={v[k]: -sign * a for k, a in A.items()},
                                 diag=b in groups, label=f"block[{b}]"))
        b = run.stop

    C = [-sign * g for l in p.lmis for g in _split(l, l.const)]
    return SdpProblem(
        block_dims=[len(c) for c in C],
        C=C,
        n_free=len(kept),
        free_obj=np.array([p.rows[k].rhs for k in kept], dtype=float),
        rows=d_rows,
        lmis=d_lmis,
        sense="max" if p.sense == "min" else "min",
        diag_groups=[(first[li], l.dim) for li, l in enumerate(p.lmis) if l.diag],
    )


def _sign_rows(p: SdpProblem) -> Tuple[Dict[int, int], List[int]]:
    """The sign rows that ``dual_of`` folds, as {j: k}, and the other rows,
    which keep their multipliers.  Row k is a*u_j <= 0 with no blocks and
    rhs 0, u_j's only such row, and sign*a < 0.  With sign*a > 0 u_j's row
    would be negated, and its bidual hold -u_j, so that row keeps its
    multiplier, as do two sign rows of one scalar."""
    sign = 1.0 if p.sense == "min" else -1.0
    found: Dict[int, List[int]] = {}
    for k, r in enumerate(p.rows):
        if r.rel == "<=" and not r.blocks and len(r.free) == 1 and r.rhs == 0.0:
            found.setdefault(next(iter(r.free)), []).append(k)
    folded = {j: ks[0] for j, ks in found.items()
              if len(ks) == 1 and sign * p.rows[ks[0]].free[j] < 0}
    dropped = set(folded.values())
    return folded, [k for k in range(len(p.rows)) if k not in dropped]


def _group_diag(mats: Dict[int, np.ndarray], run: range) -> np.ndarray:
    """The diagonal matrix of the 1x1 blocks ``run`` of mats, zero where
    mats has no such block."""
    return np.diag([float(mats[c][0, 0]) if c in mats else 0.0 for c in run])


def _split(l: MatrixIneq, g: np.ndarray) -> List[np.ndarray]:
    """Data g of l cut into the blocks of l's slack and multiplier: g
    itself, or for a diagonal inequality its 1x1 diagonal entries."""
    return [g[i:i + 1, i:i + 1] for i in range(l.dim)] if l.diag else [g]


def _multipliers(lmis: Sequence[MatrixIneq], blocks: Sequence[np.ndarray]) -> List[np.ndarray]:
    """Each inequality's multiplier from its blocks, laid out as ``_split``
    cuts them, starting at blocks[0]."""
    Z, b = [], 0
    for l in lmis:
        if l.diag:
            Z.append(np.diag([x[0, 0] for x in blocks[b: b + l.dim]]))
            b += l.dim
        else:
            Z.append(blocks[b])
            b += 1
    return Z


def structurally_equal(p: SdpProblem, q: SdpProblem, tol: float = 0.0) -> bool:
    """Field-by-field equality of sense, dimensions, relations and data, with
    entries equal exactly or, given ``tol``, within that absolute slack;
    labels and names are ignored.  Dualizing twice returns the original
    problem in this sense."""
    if p.sense != q.sense or p.block_dims != q.block_dims or p.n_free != q.n_free:
        return False
    if [tuple(g) for g in p.diag_groups] != [tuple(g) for g in q.diag_groups]:
        return False
    if len(p.rows) != len(q.rows) or len(p.lmis) != len(q.lmis):
        return False

    def close(x, y):
        return np.allclose(x, y, rtol=0.0, atol=tol) if tol else np.array_equal(x, y)

    if not all(close(x, y) for x, y in zip(p.C, q.C)):
        return False
    if not close(p.free_obj, q.free_obj):
        return False
    for ra, rb in zip(p.rows, q.rows):
        if ra.rel != rb.rel or set(ra.blocks) != set(rb.blocks):
            return False
        if abs(ra.rhs - rb.rhs) > tol:
            return False
        if not all(close(ra.blocks[k], rb.blocks[k]) for k in ra.blocks):
            return False
        fa, fb = np.zeros(p.n_free), np.zeros(q.n_free)
        for j, c in ra.free.items():
            fa[j] = c
        for j, c in rb.free.items():
            fb[j] = c
        if not close(fa, fb):
            return False
    for la, lb in zip(p.lmis, q.lmis):
        if la.dim != lb.dim or la.diag != lb.diag or set(la.coeffs) != set(lb.coeffs):
            return False
        if not close(la.const, lb.const):
            return False
        if not all(close(la.coeffs[j], lb.coeffs[j]) for j in la.coeffs):
            return False
    return True


# -- feasibility reports -------------------------------------------------------

@dataclass
class FeasibilityReport:
    objective: float
    row_residuals: List[float]       # signed violation per row (positive = violated)
    block_min_eigs: List[float]
    lmi_min_eigs: List[float]

    def max_violation(self) -> float:
        worst = 0.0
        for r in self.row_residuals:
            worst = max(worst, r)
        for e in self.block_min_eigs + self.lmi_min_eigs:
            worst = max(worst, -e)
        return worst

    def feasible(self, tol: float = 1e-8) -> bool:
        return self.max_violation() <= tol


def check_feasible(p: SdpProblem, X: Sequence[np.ndarray] = (),
                   u: Sequence[float] = ()) -> FeasibilityReport:
    """Residual report for a candidate point (regression harness for
    handcrafted analytic solutions)."""
    X = [_sym(x) for x in X]
    if len(X) != len(p.block_dims):
        raise ValueError(f"expected {len(p.block_dims)} blocks, got {len(X)}")
    u = np.asarray(list(u), dtype=float)
    if u.shape != (p.n_free,):
        raise ValueError(f"expected {p.n_free} free scalars, got {u.shape}")

    row_res = [_row_residual(r, X, u) if r.rel == "<=" else abs(_row_residual(r, X, u))
               for r in p.rows]
    block_eigs = [float(np.linalg.eigvalsh(x)[0]) if x.size else 0.0 for x in X]
    lmi_eigs = [float(np.linalg.eigvalsh(l.value(u))[0]) for l in p.lmis]
    return FeasibilityReport(
        objective=p.objective_value(X, u),
        row_residuals=row_res,
        block_min_eigs=block_eigs,
        lmi_min_eigs=lmi_eigs,
    )


def _row_residual(r: LinearRow, X: Sequence[np.ndarray], u: Sequence[float]) -> float:
    """lhs - rhs of row r at blocks X and free scalars u."""
    lhs = sum(float(np.sum(a * X[b])) for b, a in r.blocks.items())
    return lhs + sum(c * u[j] for j, c in r.free.items()) - r.rhs


# -- solving -------------------------------------------------------------------

def solve(p: SdpProblem, tol: float = 1e-8, max_iter: int = 200) -> SdpSolution:
    """Solve with the primal-dual interior-point method, in one orientation.

    Matrix inequalities are lifted into slack blocks and inequality rows gain
    1x1 slack blocks (``_standardize``), which the IPM solves together as one
    nonnegative-orthant (LP) cone.  The orientation is chosen once,
    before the IPM runs: the Lagrangian dual is solved, and its solution
    mapped back, when its standard form is the smaller one by the cost model
    (free scalars plus block triangles plus two per inequality row, against
    rows plus the matrix inequalities' pin rows) and facial reduction leaves it
    unchanged: a dual that the pass shrinks has no strictly feasible point,
    so its solution need not map back to one of the problem.  Otherwise the
    problem is solved directly.  Either way
    ``ipm.solve_std`` runs exactly once and its result is reported whatever
    its status; ``orientation`` on the solution says which form was solved,
    and the choice and its reason are logged at INFO on ``soskit.sdp``.
    The IPM eliminates the free scalars of the solved form once, before
    iterating, and each iteration factors the Schur complement alone, once,
    refining both directions against the unshifted matrix; the cost model
    above still counts free scalars as the form has them, and a sign row
    as an inequality row although ``dual_of`` folds it.  The dual's
    facial-reduction face, found to choose the orientation, is handed to the
    solve rather than found again.  The dual's solution is read as its own,
    roles swapped (``_from_dual``).

    ``optimal`` promises relative residuals at most ``tol`` and a duality
    gap |primal_obj - dual_obj| at most tol * max(1, (|primal_obj| +
    |dual_obj|) / 2) (``ipm.relative_gap``, SDPA's measure), so at the
    default tol the gap is at most 1e-8 times the objective's size.  A
    dual-orientation solve stays optimal only if its mapped-back gap is at
    most 10*tol (``_from_dual``).  A tol that is not finite and positive, or
    a negative max_iter, is a ValueError (``ipm.solve_std``).
    """
    q = p if p.sense == "min" else p.negated()

    n_ineq = sum(1 for r in q.rows if r.rel == "<=")
    cost_direct = len(q.rows) + sum(_pin_rows(l) for l in q.lmis)
    cost_dual = q.n_free + sum(d * (d + 1) // 2 for d in q.block_dims) + 2 * n_ineq

    orientation = "direct"
    reason = f"cost_direct {cost_direct} <= cost_dual {cost_dual}"
    if cost_dual < cost_direct:
        fold = _sign_rows(q)
        dual = _dual(q, *fold)
        std = _standardize(dual.negated())
        face = ipm._face(std)  # None: structurally infeasible
        if face is not None and not face.reduced:
            orientation = "dual"
            reason = f"cost_dual {cost_dual} < cost_direct {cost_direct}"
        else:
            reason = "dual standard form is facially reducible"
    log.info("%s orientation: %s", orientation, reason)

    if orientation == "dual":
        sol = _from_dual(q, dual, fold,
                         ipm.solve_std(std, tol=tol, max_iter=max_iter, face=face), tol)
    else:
        std = _standardize(q)
        sol = _from_direct(q, ipm.solve_std(std, tol=tol, max_iter=max_iter))
    if p.sense == "max":
        sol.primal_obj, sol.dual_obj = -sol.primal_obj, -sol.dual_obj
    return sol


def _from_direct(q: SdpProblem, res: ipm.StdResult) -> SdpSolution:
    """The solution of a min-sense problem from its own standard form."""
    nb = len(q.block_dims)
    Z = _multipliers(q.lmis, res.S[nb:])  # the slack blocks' S
    return SdpSolution(
        status=res.status,
        primal_obj=res.pobj,
        dual_obj=res.dobj,
        gap=res.relgap,
        iterations=res.iterations,
        X=res.X[:nb],
        free=res.u.copy(),
        y=res.y[: len(q.rows)].copy(),
        Z=Z,
        marginal=res.marginal,
        primal_residual=res.pres,
        dual_residual=res.dres,
        orientation="direct",
    )


def _from_dual(q: SdpProblem, dual: SdpProblem, fold: Tuple[Dict[int, int], List[int]],
               res: ipm.StdResult, tol: float) -> SdpSolution:
    """The solution of min-sense q from the standard form of its negated
    dual ``dual_of(q)``, made with fold = ``_sign_rows(q)``: the dual's own
    solution (``_from_direct``), roles swapped.  Its matrix-inequality
    multipliers are q's blocks, its blocks q's Z, its free scalars the
    multipliers of q's kept rows, and minus the multipliers of its first
    n_free rows are u.  A folded sign row's multiplier is the slack of its
    scalar's dual row over the row's coefficient.  The status stays optimal
    only if the solution also certifies the primal pair at the tolerance."""
    d = _from_direct(dual, res)
    u = -d.y[: q.n_free]
    folded, kept = fold
    y = np.zeros(len(q.rows))
    y[kept] = d.free
    for j, k in folded.items():
        y[k] = -_row_residual(dual.rows[j], d.X, d.free) / q.rows[k].free[j]

    X = [g for l, z in zip(dual.lmis, d.Z) for g in _split(l, z)]  # q's own blocks
    pobj, dobj = q.objective_value(X, u), -res.pobj
    relgap = ipm.relative_gap(pobj, dobj)
    swap = {PRIMAL_INFEASIBLE: DUAL_INFEASIBLE, DUAL_INFEASIBLE: PRIMAL_INFEASIBLE}
    status = swap.get(res.status, res.status)
    if status == OPTIMAL and relgap > 10.0 * tol:
        status = MAX_ITER
    return SdpSolution(status=status, primal_obj=pobj, dual_obj=dobj, gap=relgap,
                       iterations=res.iterations, X=X, free=u, y=y,
                       Z=_multipliers(q.lmis, d.X), marginal=res.marginal,
                       primal_residual=res.dres, dual_residual=res.pres, orientation="dual")


def _standardize(q: SdpProblem) -> ipm.StdForm:
    """Rewrite a min-sense mixed problem in pure equality standard form.

    Blocks: the variable blocks, then the slack blocks of the matrix
    inequalities, in order: one d x d block for each, or d 1x1 blocks, one
    per diagonal entry, for a diagonal one; then a 1x1 slack block per
    inequality row, in row order.  The IPM solves every 1x1 block as an
    entry of one LP cone (``ipm``).  Rows: the problem's rows, in order,
    then for each matrix inequality the rows pinning its slack entrywise to
    G0 + sum_j u_j G_j, entry (i, j) for i <= j in row-major order, or
    entry (i, i) alone for a diagonal one."""
    ineq = [k for k, r in enumerate(q.rows) if r.rel == "<="]
    nb = len(q.block_dims)
    slack_dims = [len(g) for l in q.lmis for g in _split(l, l.const)]
    dims = list(q.block_dims) + slack_dims + [1] * len(ineq)
    m = len(q.rows) + sum(_pin_rows(l) for l in q.lmis)
    form = ipm.StdForm.zeros(dims, m, q.n_free)
    off = form.off.tolist()  # block b in columns off[b]:off[b + 1]
    for b, c in enumerate(q.C):
        form.c[off[b]:off[b + 1]] = c.reshape(-1)
    form.free_obj[:] = q.free_obj
    for k, r in enumerate(q.rows):
        for b, a in r.blocks.items():
            form.rows[k, off[b]:off[b + 1]] = a.reshape(-1)
        for j, c in r.free.items():
            form.free[k, j] = c
        form.b[k] = r.rhs

    k, blk = len(q.rows), nb
    for l in q.lmis:
        if l.diag:  # entry (i, i) is the one column of 1x1 block blk + i
            i = j = np.arange(l.dim)
            ij = ji = form.off[blk: blk + l.dim]
            blk += l.dim
        else:
            i, j = np.triu_indices(l.dim)
            ij, ji = form.off[blk] + i * l.dim + j, form.off[blk] + j * l.dim + i
            blk += 1
        pins = np.arange(k, k + i.size)
        form.rows[pins, ij] = form.rows[pins, ji] = np.where(i == j, 1.0, 0.5)
        for jj, g in l.coeffs.items():
            form.free[pins, jj] = 0.0 - g[i, j]  # +0.0 where g has no entry
        form.b[pins] = l.const[i, j]
        k += i.size

    for k, b in zip(ineq, range(nb + len(slack_dims), len(dims))):
        form.rows[k, off[b]] = 1.0
    return form


def _pin_rows(l: MatrixIneq) -> int:
    """Standard-form rows pinning the slack of l: one per diagonal entry of a
    diagonal inequality, one per upper-triangle entry otherwise."""
    return l.dim if l.diag else l.dim * (l.dim + 1) // 2


# -- SDPA sparse format --------------------------------------------------------

def to_sdpa_form(p: SdpProblem) -> SdpProblem:
    """Equivalent problem in the SDPA variable/LMI shape: free scalars and
    matrix inequalities only (min sense).

    PSD variable blocks are vectorized into their upper-triangle entries with
    an LMI reconstituting the matrix; equality rows split into opposing
    inequalities; all scalar inequalities collect into one diagonal LMI.
    A max problem is negated first, so its exported optimum is the negative
    of the original.
    """
    q = p if p.sense == "min" else p.negated()
    names = list(q.free_names) if q.free_names else [f"u{j}" for j in range(q.n_free)]
    entry_idx: Dict[tuple, int] = {}
    for b, dim in enumerate(q.block_dims):
        for i in range(dim):
            for j in range(i, dim):
                entry_idx[(b, i, j)] = q.n_free + len(entry_idx)
                names.append(f"X{b}[{i},{j}]")
    nf = q.n_free + len(entry_idx)

    free_obj = np.zeros(nf)
    free_obj[: q.n_free] = q.free_obj
    for b, c in enumerate(q.C):
        for i in range(q.block_dims[b]):
            for j in range(i, q.block_dims[b]):
                if c[i, j] != 0.0:
                    free_obj[entry_idx[(b, i, j)]] += (1.0 if i == j else 2.0) * c[i, j]

    lmis: List[MatrixIneq] = []
    for b, dim in enumerate(q.block_dims):
        coeffs = {}
        for i in range(dim):
            for j in range(i, dim):
                g = np.zeros((dim, dim))
                if i == j:
                    g[i, i] = 1.0
                else:
                    g[i, j] = g[j, i] = 1.0
                coeffs[entry_idx[(b, i, j)]] = g
        lmis.append(MatrixIneq(dim=dim, const=np.zeros((dim, dim)), coeffs=coeffs,
                               label=f"psd_block[{b}]"))
    for l in q.lmis:
        lmis.append(MatrixIneq(dim=l.dim, const=l.const.copy(),
                               coeffs={j: g.copy() for j, g in l.coeffs.items()},
                               diag=l.diag, label=l.label))

    # scalar rows -> one diagonal LMI holding b_k - lhs_k >= 0 slots
    slots = []
    for r in q.rows:
        fr = dict(r.free)
        for b, a in r.blocks.items():
            for i in range(q.block_dims[b]):
                for j in range(i, q.block_dims[b]):
                    if a[i, j] != 0.0:
                        jj = entry_idx[(b, i, j)]
                        fr[jj] = fr.get(jj, 0.0) + (1.0 if i == j else 2.0) * a[i, j]
        slots.append((fr, r.rhs))
        if r.rel == "==":
            slots.append(({j: -c for j, c in fr.items()}, -r.rhs))
    if slots:
        dim = len(slots)
        const = np.zeros((dim, dim))
        coeffs: Dict[int, np.ndarray] = {}
        for k, (fr, rhs) in enumerate(slots):
            const[k, k] = rhs
            for j, c in fr.items():
                coeffs.setdefault(j, np.zeros((dim, dim)))[k, k] = -c
        lmis.append(MatrixIneq(dim=dim, const=const, coeffs=coeffs, diag=True,
                               label="scalar_rows"))

    return SdpProblem(n_free=nf, free_obj=free_obj, lmis=lmis, sense="min",
                      free_names=names)


def export_sdpa(p: SdpProblem) -> str:
    """Serialize a problem in SDPA variable/LMI shape as a .dat-s string.

    The file encodes min c.x with sum_i x_i F_i - F0 >= 0 per block, so
    F_j = G_j and F0 = -G0 for each inequality G0 + sum x_j G_j >= 0.
    """
    if p.block_dims or p.rows or p.sense != "min":
        raise ValueError("export requires SDPA form; call to_sdpa_form first")
    lines = [f"{p.n_free}", f"{len(p.lmis)}"]
    lines.append(" ".join(str(-l.dim if l.diag else l.dim) for l in p.lmis))
    lines.append(" ".join(repr(float(v)) for v in p.free_obj))

    def emit(matno: int, blk: int, mat: np.ndarray, diag: bool):
        out = []
        n = mat.shape[0]
        for i in range(n):
            for j in (range(i, i + 1) if diag else range(i, n)):
                if mat[i, j] != 0.0:
                    out.append(f"{matno} {blk} {i+1} {j+1} {repr(float(mat[i, j]))}")
        return out

    for blk, l in enumerate(p.lmis, start=1):
        lines.extend(emit(0, blk, -l.const, l.diag))
    for j in range(p.n_free):
        for blk, l in enumerate(p.lmis, start=1):
            if j in l.coeffs:
                lines.extend(emit(j + 1, blk, l.coeffs[j], l.diag))
    return "\n".join(lines) + "\n"


def _finite_floats(tokens: Sequence[str], line: str) -> List[float]:
    vals = [float(t) for t in tokens]
    if not all(isfinite(v) for v in vals):
        raise ValueError(f"non-finite number in line {line!r}")
    return vals


def import_sdpa(text: str) -> SdpProblem:
    """Parse a .dat-s string into a problem in SDPA variable/LMI shape."""
    rows = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith(("*", '"')):
            continue
        rows.append(line.replace(",", " ").replace("{", " ").replace("}", " ")
                    .replace("(", " ").replace(")", " "))
    if len(rows) < 4:
        raise ValueError("truncated SDPA file")
    m = int(rows[0].split()[0])
    nblocks = int(rows[1].split()[0])
    sizes = [int(t) for t in rows[2].split()]
    if len(sizes) != nblocks:
        raise ValueError(f"expected {nblocks} block sizes, found {len(sizes)}")
    if 0 in sizes:
        raise ValueError(f"block size 0 in line {rows[2]!r}")
    cvec = _finite_floats(rows[3].split(), rows[3])
    if len(cvec) != m:
        raise ValueError(f"expected {m} objective entries, found {len(cvec)}")

    lmis = [MatrixIneq(dim=abs(s), const=np.zeros((abs(s), abs(s))), diag=s < 0)
            for s in sizes]
    mats: Dict[tuple, np.ndarray] = {}
    for line in rows[4:]:
        toks = line.split()
        if len(toks) != 5:
            raise ValueError(f"bad entry line: {line!r}")
        matno, blk, i, j = (int(t) for t in toks[:4])
        (val,) = _finite_floats(toks[4:], line)
        if not (0 <= matno <= m and 1 <= blk <= nblocks):
            raise ValueError(f"entry indices out of range: {line!r}")
        dim = abs(sizes[blk - 1])
        if not (1 <= i <= j <= dim):
            raise ValueError(f"expected upper-triangle 1-based indices: {line!r}")
        key = (matno, blk)
        if key not in mats:
            mats[key] = np.zeros((dim, dim))
        mats[key][i - 1, j - 1] = val
        mats[key][j - 1, i - 1] = val
    for (matno, blk), mat in mats.items():
        if matno == 0:
            lmis[blk - 1].const = -mat
        else:
            lmis[blk - 1].coeffs[matno - 1] = mat
    for l in lmis:
        l.__post_init__()
    return SdpProblem(n_free=m, free_obj=np.array(cvec), lmis=lmis, sense="min")
