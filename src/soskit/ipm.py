"""Dense primal-dual interior-point method for block SDPs in standard form.

Standard form:  min sum_b <C_b, X_b> + cf.u
                s.t. sum_b <A_kb, X_b> + d_k.u = b_k,   X_b >= 0, u free.

``StdForm`` holds the rows as one matrix A with a row per constraint and
the vectorized blocks side by side in its columns; the IPM solves with that
matrix as it is, so A(X) = A vec(X) and A*(y) is y'A cut into blocks.

The IPM runs on the cones of the form, not on its blocks.  Every 1x1
block is one entry of a single nonnegative orthant, the LP cone of
mixed-cone IPMs such as SDPA and SeDuMi: its x and s are vectors on those
blocks' columns of A, its directions are entrywise, its step length is a
ratio test and its cone guard is x > 0.  The d x d blocks with d > 1 of
one size are one stack, a (k, d, d) view of their columns.  X and S are the
two rows of one (2, n) array (``_Pair``), so each stack of both sides is
one (2, k, d, d) view, and every factorization, inversion, product and
eigenvalue computation on them is one numpy call for both sides.  Per
distinct block size an iteration makes one ``cholesky`` call (the cone
guard's trial X and S), one ``inv`` (of Lx and Ls) and two ``eigvalsh``
(the predictor's and the corrector's step lengths); the Schur complement
adds one ``cholesky`` and one ``inv``.  So the LAPACK calls of an iteration
follow the distinct block sizes, not the number of blocks or of inequality
rows.  A form whose blocks are not grouped by size is permuted into that
order once per solve, and its solution permuted back; the iterate, the
guard's trial point, the one direction buffer that the corrector
overwrites, their views, the stacks' identities and the blocks' offsets
are made once per solve.

Search direction is HKM with a Mehrotra predictor-corrector.  Each matrix of
an iteration is factored once and used through its factor, and the predictor
and the corrector share X S, X Rd S^-1 and x * rd.  The cone guard, which
factors the blocks of the next iterate to accept its step, hands those
factors on; when the stacked factorization of the trial X and S fails, each
side backtracks alone, so the steps are those of two separate guards
(``_guard``).  With the block factors S_b = Ls_b Ls_b' and X_b = Lx_b Lx_b',
the HKM Schur complement M_kl = sum_b tr(A_kb X_b A_lb S_b^-1) is assembled
one of two ways per stack, chosen once per solve from A's nonzeros
(``_Rows``), as in Fujisawa, Kojima & Nakata, "Exploiting sparsity in
primal-dual interior-point methods for semidefinite programming" (Math.
Prog. 79, 1997).  A stack whose pairs of nonzeros in one block, sum_b T_b^2
for T_b nonzeros in block b, number at most the m k d^2 entries of its dense
rows takes their formula F3: each pair adds its product with one entry of
X_b and one of S_b^-1 to one entry of M, all in one bincount.  The other
stacks and the orthant form the Gram rows G_k = vec(Ls_b^-1 A_kb Lx_b), the
orthant's columns of A scaled by sqrt(x / s), on their own columns, and
their part of M is the one symmetric rank-k product G G'.  When a stack took
F3, its part is symmetrized before it is added, so M is symmetric; it is
positive semidefinite up to rounding, and a Cholesky factorization that
fails on it still ends the run (below).  A's products A x and y'A are
bincounts over its nonzeros when A has at least 2^16 entries and at most
1/32 of them are nonzero, and dense products otherwise.  S_b^-1 = Ls_b^-T
Ls_b^-1, and the step length to a block's boundary is read off the least
eigenvalue of Lx_b^-1 dX_b Lx_b^-T (of Ls_b^-1 dS_b Ls_b^-T on the dual
side, in the same call).  The triangular inverses come from a 2x2 block
recursion (numpy has no triangular solve) whose leaves of at most _LEAF rows
go to np.linalg.inv, which is LAPACK gesv: an LU factorization with partial
pivoting and a solve against I, so the IPM does run LU, on those leaves.

Free scalars are eliminated once per solve, as in Kobayashi, Nakata &
Kojima, "A conversion of an SDP having free variables into the standard
form SDP" (Comput. Optim. Appl. 36, 2007).  With the rank-revealing SVD
D = U1 Sigma V1' of the free columns and U2 a basis of range(D)^perp, the
dual's D'y = cf gives y = w + U2 y' with w = U1 Sigma^-1 V1' cf, so the IPM
solves the pure conic form with rows U2'A, rhs U2'b, cost c - A'w and the
objective offset b.w, and lifts u = V1 Sigma^-1 U1'(b - A x).  A part of cf
in null(D) is a primal ray.  Each iteration then factors the Schur
complement alone: a Cholesky factor of M + delta I (delta relative to M's
largest diagonal entry), applied through its inverse, with the predictor and
the corrector each refined against the unshifted M for as long as a step at
least halves the residual, so the shift only damps the directions of M whose
eigenvalues lie near or below it.  A failed factorization, or a step
length whose eigenvalues do not converge, ends the run as
``numerical_failure``; a run that stops short otherwise says why:
``diverged``, ``stalled`` or ``iter_cap`` (see DIVERGED).

The stop test is relative to the size of the objectives: ``optimal`` means
the relative primal and dual residuals are at most ``tol`` and the duality
gap |pobj - dobj| is at most tol * max(1, (|pobj| + |dobj|) / 2), the gap
measure of SDPA.

A structural preprocessing pass removes facial degeneracy of the form
"diagonal entry pinned to zero": such a row forces the whole row and column
of that block to vanish.  ``_face`` finds the face these pins leave in
vectorized sweeps over A, without copying the problem, and ``_restrict``
slices A onto the face's rows and columns only when the face cuts
something.  Whenever a block shrinks, the returned solution is flagged
marginal, since the original problem had no strictly feasible point; rows
left empty (0 = 0) are dropped without that flag.  One solve is
deterministic: fixed operation order, no randomness.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from itertools import groupby
from typing import Callable, List, Optional

import numpy as np

log = logging.getLogger(__name__)


@dataclass
class StdForm:
    """min c.vec(X) + free_obj.u  s.t.  rows vec(X) + free u = b,  X_b >= 0.

    ``rows`` has shape (m, sum_b dims[b]^2): row k holds vec(A_k1), ...,
    vec(A_kB), with block b in columns off[b]:off[b+1]; ``c`` is laid out on
    the same columns, and ``free`` (m, n_free) holds the free coefficients.
    The IPM solves with these arrays as they are; the column layout is known
    only here, and callers reach a block through ``blocks()``.
    """
    dims: List[int]
    rows: np.ndarray
    free: np.ndarray
    c: np.ndarray
    free_obj: np.ndarray
    b: np.ndarray
    off: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.off = np.cumsum([0] + [d * d for d in self.dims])

    @classmethod
    def zeros(cls, dims: List[int], m: int, n_free: int) -> "StdForm":
        """The all-zero form with m rows and n_free free scalars."""
        n = sum(d * d for d in dims)
        return cls(dims=list(dims), rows=np.zeros((m, n)), free=np.zeros((m, n_free)),
                   c=np.zeros(n), free_obj=np.zeros(n_free), b=np.zeros(m))

    def blocks(self, w: Optional[np.ndarray] = None) -> List[np.ndarray]:
        """Views of the column blocks of w (default ``rows``), each block's
        last axis as a d x d matrix: one view per run of equal-size blocks,
        cut into its blocks."""
        w = self.rows if w is None else w
        out, o = [], 0
        for d, run in groupby(self.dims):
            k = len(list(run))
            view = w[..., o:o + k * d * d].reshape(w.shape[:-1] + (k, d, d))
            out.extend(np.moveaxis(view, -3, 0) if w.ndim > 1 else view)
            o += k * d * d
        return out


@dataclass
class StdResult:
    status: str
    pobj: float
    dobj: float
    relgap: float
    pres: float
    dres: float
    iterations: int
    X: List[np.ndarray]
    S: List[np.ndarray]
    y: np.ndarray
    u: np.ndarray
    marginal: bool = False


STEP_FRACTION = 0.98
_KKT_SHIFT = 2e-13  # relative diagonal shift of the one KKT factorization
DIVERGENCE = 1e8
ITERATE_CAP = 1e6  # optimality is never claimed on iterates past this scale

# the ways a run stops short of a certificate: its iterates grew past
# ITERATE_CAP with the stop test met, or past DIVERGENCE; no progress for 20
# iterations; or max_iter iterations
DIVERGED = "diverged"
STALLED = "stalled"
ITER_CAP = "iter_cap"


@dataclass
class _Face:
    dims: List[int]              # the form's block sizes
    alive: np.ndarray            # kept indices, numbered across the blocks
    kept_rows: List[int]
    reduced: bool                # some block lost an index
    cols: np.ndarray             # kept columns of ``rows``, in restricted order

    @property
    def keep(self) -> List[np.ndarray]:
        """The kept original indices of each block."""
        start = np.cumsum([0] + self.dims)
        return [np.flatnonzero(self.alive[s:s + d]) for s, d in zip(start, self.dims)]


def relative_gap(pobj: float, dobj: float) -> float:
    """Duality gap relative to the objectives' size, as SDPA measures it:
    |pobj - dobj| / max(1, (|pobj| + |dobj|) / 2)."""
    return abs(pobj - dobj) / max(1.0, (abs(pobj) + abs(dobj)) / 2.0)


def _face(form: StdForm) -> Optional[_Face]:
    """The face left by diagonal entries pinned to zero, found without
    copying the problem.

    A row without free scalars whose only live entry is the diagonal entry i
    of block b, with rhs 0, pins that entry: index i of block b is dropped,
    which can leave another row with a single live entry.  Each sweep drops
    every entry pinned at its start, until a sweep pins nothing.  Rows left
    with no live entry are dropped.  Returns None when a pinned entry must
    be negative or an empty row has a nonzero rhs (structurally infeasible).
    A sweep looks only at rows without free scalars and with at most one
    live entry; the columns' block entries are mapped once such a row exists.
    """
    live = form.rows != 0.0  # entries in live columns
    can = ~(form.free != 0.0).any(axis=1)  # rows that can pin or be dropped
    dead = np.zeros(len(form.b), dtype=bool)
    alive = np.ones(sum(form.dims), dtype=bool)
    reduced = False
    ii = jj = None  # each column's entry (i, j), numbered across the blocks' indices

    while True:
        count = live.sum(axis=1)
        k = np.flatnonzero(can & (count <= 1))
        if not k.size:
            break
        if ii is None:
            dims = np.array(form.dims, dtype=np.intp)
            start = np.cumsum(dims) - dims
            # the column o + i*d + j of a d x d block at offset o
            blk = np.repeat(np.arange(len(dims)), dims * dims)
            i, j = np.divmod(np.arange(form.off[-1]) - form.off[blk], dims[blk])
            ii, jj = start[blk] + i, start[blk] + j
        empty, k = k[count[k] == 0], k[count[k] == 1]
        if np.any(form.b[empty] != 0.0):
            return None
        dead[empty], can[empty] = True, False
        col = live[k].argmax(axis=1)  # each such row's one entry
        on_diag = ii[col] == jj[col]
        k, col = k[on_diag], col[on_diag]
        pinned = form.b[k] / form.rows[k, col]
        if np.any(pinned < 0.0):
            return None
        k, col = k[pinned == 0.0], col[pinned == 0.0]
        if not k.size:
            break
        dead[k], can[k] = True, False
        alive[ii[col]] = False
        live[:, ~(alive[ii] & alive[jj])] = False
        reduced = True

    return _Face(dims=list(form.dims), alive=alive, kept_rows=np.flatnonzero(~dead).tolist(),
                 reduced=reduced, cols=(np.arange(form.off[-1]) if ii is None  # no row could pin
                                        else np.flatnonzero(alive[ii] & alive[jj])))


def _restrict(form: StdForm, face: _Face) -> StdForm:
    """The problem on the face: ``form`` itself when the face cuts nothing,
    else its kept rows on the kept columns."""
    if not face.reduced and len(face.kept_rows) == len(form.rows):
        return form
    ix = np.ix_(face.kept_rows, face.cols)
    return StdForm(dims=[len(k) for k in face.keep], rows=form.rows[ix],
                   free=form.free[face.kept_rows], c=form.c[face.cols],
                   free_obj=form.free_obj, b=form.b[face.kept_rows])


def _eliminate(form: StdForm):
    """The form min (c - A'w).x s.t. U2'A x = U2'b left by eliminating the
    free scalars (module docstring), its offset b.w, U2, w and D^+; singular
    values up to max(m, nf) * eps * the largest are zero (matrix_rank's)."""
    D = form.free
    U, sig, Vt = np.linalg.svd(D)
    r = int(np.count_nonzero(sig > max(D.shape) * np.finfo(float).eps * np.max(sig, initial=0.0)))
    U2, pinv = U[:, r:], (Vt[:r].T / sig[:r]) @ U[:, :r].T
    w = pinv.T @ form.free_obj
    log.debug("free scalars eliminated: %d rows -> %d, rank %d, %d free",
              len(D), len(D) - r, r, D.shape[1])
    if np.count_nonzero(U2) == U2.shape[1]:
        # U2's columns are unit vectors, so each picks one row, as LAPACK
        # returns when each free column touches one row: U2'A by indexing,
        # the same numbers as the product without its m^2 n multiplications
        k, sel = np.nonzero(U2.T)
        u = U2[sel, k]
        rows, rhs = u[:, None] * form.rows[sel], u * form.b[sel]
    else:
        rows, rhs = U2.T @ form.rows, U2.T @ form.b
    red = StdForm(dims=form.dims, rows=rows, free=np.zeros((len(D) - r, 0)),
                  c=form.c - w @ form.rows, free_obj=np.zeros(0), b=rhs)
    return red, float(form.b @ w), U2, w, pinv


def _boundary_step(lam: float) -> float:
    """Largest t with I + t*W >= 0 given W's least eigenvalue lam."""
    return -1.0 / lam if lam < -1e-14 else np.inf


def _chol(mat: np.ndarray) -> Optional[np.ndarray]:
    """Cholesky factor of a matrix or of each matrix of a stack, or None
    when one of them is not positive definite."""
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        return None


def _chols(stacks: List[np.ndarray]) -> Optional[List[np.ndarray]]:
    """Cholesky factors of every stack, or None as soon as one fails."""
    out = []
    for st in stacks:
        out.append(_chol(st))
        if out[-1] is None:
            return None
    return out


_LEAF = 48  # largest triangle ``_tril_inv`` hands to np.linalg.inv


def _tril_inv(L: np.ndarray) -> np.ndarray:
    """Inverse of a nonsingular lower-triangular L, or of each matrix of a
    stack of them, by 2x2 block recursion,
    [[A, 0], [B, C]]^-1 = [[A^-1, 0], [-C^-1 B A^-1, C^-1]], with
    np.linalg.inv (LAPACK gesv, LU with partial pivoting) on diagonal blocks
    of at most _LEAF rows (numpy has no triangular solve)."""
    n = L.shape[-1]
    if n <= _LEAF:
        return np.linalg.inv(L)
    h = n // 2
    out = np.zeros_like(L)
    a, c = out[..., :h, :h], out[..., h:, h:]
    a[...] = _tril_inv(L[..., :h, :h])
    c[...] = _tril_inv(L[..., h:, h:])
    out[..., h:, :h] = -(c @ (L[..., h:, :h] @ a))
    return out


def _kkt_factor(M: np.ndarray) -> Optional[Callable[[np.ndarray], np.ndarray]]:
    """The one factorization of an iteration: M + delta I = L L', delta =
    _KKT_SHIFT * max diag(M) keeping it nonsingular when M is singular, and M
    left unshifted.  Returns the shifted inverse as products with L^-1 (L is
    released once L^-1 exists), or None when the Cholesky factorization fails."""
    diag = np.einsum("ii->i", M)
    top = float(diag.max()) if len(M) else 0.0
    saved = diag.copy()
    diag += _KKT_SHIFT * (top if top > 0.0 else 1.0)
    L = _chol(M)
    diag[:] = saved
    Li = None if L is None else _tril_inv(L)
    del L
    if Li is None or not np.isfinite(Li).all():
        return None
    return lambda r: Li.T @ (Li @ r)


def _kkt_solve(M: np.ndarray, Minv: Callable[[np.ndarray], np.ndarray],
               rhs: np.ndarray) -> np.ndarray:
    """Solve M sol = rhs with the shifted inverse ``Minv`` applies, refined
    against the unshifted M for as long as each step at least halves the
    residual."""
    sol = Minv(rhs)
    res = rhs - M @ sol
    rn = math.sqrt(res @ res)  # np.linalg.norm's own formula, without its overhead
    while rn > 0.0:
        cand = sol + Minv(res)
        cres = rhs - M @ cand
        cn = math.sqrt(cres @ cres)
        if not cn < rn:
            break
        halved = cn <= 0.5 * rn
        sol, res, rn = cand, cres, cn
        if not halved:
            break
    return sol


def _vec(blocks: List[np.ndarray]) -> np.ndarray:
    """The blocks laid out as the columns of ``StdForm.rows``."""
    return np.concatenate([np.zeros(0)] + [x.reshape(-1) for x in blocks])


def solve_std(form: StdForm, tol: float = 1e-8, max_iter: int = 200,
              face: Optional[_Face] = None) -> StdResult:
    """Solve a standard-form SDP from the scaled identity.

    The IPM runs on the face left by pinned diagonal entries (``_face``,
    computed here unless the caller passes the face it already found);
    ``form`` is sliced onto it only when that face cuts a row or an index,
    and X, S and y are lifted back to its shape.  Free scalars, if any, are
    then eliminated (``_eliminate``) and y and u lifted back.  Each iteration
    assembles the Schur complement M, by F3 on the stacks whose nonzeros
    pair up sparsely and as G G' on the rest, symmetrizes it and factors it
    alone (see the module docstring and ``_Rows``).
    ``optimal`` means pres <= tol, dres <= tol and relative_gap(pobj, dobj)
    <= tol, so the absolute gap is at most tol * max(1, (|pobj| + |dobj|)
    / 2), on iterates no larger than ITERATE_CAP times the data scale, all
    of the form with its free scalars.  A part of the free cost in null(D)
    that leaves the free residual above tol makes a primal-feasible run
    ``dual_infeasible_cert``.  A run that stops otherwise returns the best
    iterate it saw.  A tol that is not finite and positive, or a negative
    max_iter, is a ValueError.
    """
    if not (math.isfinite(tol) and tol > 0.0) or max_iter < 0:
        raise ValueError(f"need a finite positive tol and max_iter >= 0, "
                         f"got tol={tol!r}, max_iter={max_iter!r}")
    face = _face(form) if face is None else face
    if face is None:
        return StdResult(
            status="primal_infeasible_cert", pobj=np.nan, dobj=np.nan,
            relgap=np.inf, pres=np.inf, dres=np.inf, iterations=0,
            X=[np.zeros((d, d)) for d in form.dims],
            S=[np.zeros((d, d)) for d in form.dims],
            y=np.zeros(len(form.rows)), u=np.zeros(form.free.shape[1]),
            marginal=True)

    sub = _restrict(form, face)
    if not sub.free.shape[1]:
        res = _solve_core(sub, tol, max_iter, sub, 0.0)
    else:
        red, offset, U2, w, pinv = _eliminate(sub)
        res = _solve_core(red, tol, max_iter, sub, offset)
        cf = sub.free_obj
        res.y = w + U2 @ res.y
        res.u = pinv @ (sub.b - sub.rows @ _vec(res.X))
        r = cf - sub.free.T @ res.y
        fres = math.sqrt(r @ r) / (1.0 + math.sqrt(cf @ cf))  # np.linalg.norm's formula
        res.dres = max(res.dres, fres)
        if fres > tol and res.pres <= tol:  # an exact primal ray on a feasible form
            res.status = "dual_infeasible_cert"

    if face.reduced:
        def lift(blocks):
            w = np.zeros(form.off[-1])
            w[face.cols] = _vec(blocks)
            return form.blocks(w)
        res.X, res.S = lift(res.X), lift(res.S)
        res.marginal = True
    # rows dropped as empty (0 = 0) get a zero multiplier; they remove no
    # interior, so they alone do not make the solution marginal
    if len(face.kept_rows) != len(form.rows):
        y = np.zeros(len(form.rows))
        y[face.kept_rows] = res.y
        res.y = y
    return res


def _cones(form: StdForm):
    """The cones of form's columns: the stacks (offset, d, k) of k
    consecutive d x d blocks with d > 1, in columns offset : offset + k d^2,
    and the columns of the 1x1 blocks, which form one orthant.  Blocks with
    d = 0 have no columns and join no cone."""
    psd, lp = [], []
    for o, d in zip(form.off.tolist(), form.dims):
        if d == 1:
            lp.append(o)
        elif d > 1:
            if psd and psd[-1][1] == d and psd[-1][0] + psd[-1][2] * d * d == o:
                psd[-1] = (psd[-1][0], d, psd[-1][2] + 1)
            else:
                psd.append((o, d, 1))
    return psd, np.array(lp, dtype=np.intp)


def _views(w: np.ndarray, psd) -> List[np.ndarray]:
    """The stacks ``psd`` of w's last axis, each as a (k, d, d) view."""
    return [w[..., o:o + k * d * d].reshape(w.shape[:-1] + (k, d, d)) for o, d, k in psd]


def _grouped(form: StdForm):
    """form with its blocks stably sorted into cone order, so that each
    block size and the 1x1 blocks occupy one run of columns (cones in order
    of first appearance, blocks with d = 0 dropped), and the column
    permutation applied; (form, None) when the blocks are in that order
    already.  The permuted rows are copied C-contiguous: ``rows[:, perm]``
    alone comes out column-major, and every product with it slows down."""
    rank = {}
    for d in form.dims:
        if d:
            rank.setdefault(d, len(rank))
    keys = [rank[d] for d in form.dims if d]
    if keys == sorted(keys):
        return form, None
    order = sorted((b for b, d in enumerate(form.dims) if d), key=lambda b: rank[form.dims[b]])
    perm = np.concatenate([np.arange(form.off[b], form.off[b + 1]) for b in order])
    return StdForm(dims=[form.dims[b] for b in order],
                   rows=np.ascontiguousarray(form.rows[:, perm]), free=form.free,
                   c=form.c[perm], free_obj=form.free_obj, b=form.b), perm


class _Vec:
    """An array whose last axis runs over the columns of a grouped form,
    with its stacks as views ``P`` (the last axis as (k, d, d)) and its
    orthant as the view ``l``, made once per solve."""
    __slots__ = ("v", "P", "l")

    def __init__(self, v: np.ndarray, psd, lp: slice):
        self.v, self.P, self.l = v, _views(v, psd), v[..., lp]


class _Pair(_Vec):
    """The X and S sides of the iterate or of a direction as the rows of one
    (2, n) _Vec, so that one call serves both sides, and each side also as
    the _Vec ``x`` or ``s`` of the pair's views."""
    __slots__ = ("x", "s")

    def __init__(self, n: int, psd, lp: slice):
        super().__init__(np.empty((2, n)), psd, lp)
        self.x, self.s = (_Vec.__new__(_Vec) for _ in range(2))
        for j, side in enumerate((self.x, self.s)):
            side.v, side.P, side.l = self.v[j], [P[j] for P in self.P], self.l[j]


def _schur_rows(A: _Vec, G: _Vec, Lsi: List[np.ndarray], Lx: List[np.ndarray],
                w: np.ndarray) -> None:
    """Write into G (shaped as A) the rows G whose Gram matrix G G' is the
    part of the HKM Schur complement M_kl = sum_b tr(A_kb X_b A_lb S_b^-1) on
    A's columns: block b of row k is Ls_b^-1 A_kb Lx_b, given the stacks of
    Ls_b^-1 and Lx_b (S_b = Ls_b Ls_b', X_b = Lx_b Lx_b'), one product per
    stack, and the orthant's columns are A's scaled by w = sqrt(x / s).
    ``_Rows`` passes the columns of the stacks that do not take F3, with the
    orthant's; G G' is symmetric and positive semidefinite by construction,
    and the F3 part is added to it symmetrized."""
    for a, g, li, lx in zip(A.P, G.P, Lsi, Lx):
        for k in range(0, len(a), 64):  # row chunks keep a @ lx's temporary small
            np.matmul(li, a[k:k + 64] @ lx, out=g[k:k + 64])
    np.multiply(A.l, w, out=G.l)


# A stack assembles its part of M by F3 when its pairs of nonzeros in one
# block, sum_b T_b^2, number at most its dense rows' entries, m k d^2.  Solves
# of the full theta of C61 (62 rows, one 61 x 61 block, 33,489 pairs against
# 230,702 entries) took 24.5 ms with F3 against 37.7 ms without, and of C41
# 11.0 against 13.6 ms.  The benchmark's other stacks have at least 2 pairs
# per entry, and letting stacks of up to 10 pairs per entry take F3 made the
# n = 7 SOS side of a ball quartic 3x slower (Xeon, one BLAS thread).
_F3_PAIRS_PER_ENTRY = 1
# A's products are bincounts over its nonzeros when A has at least
# _SPARSE_MIN_ENTRIES entries and at most _SPARSE_FILL of them are nonzero.
# Per pair of products, bincounts took 0.3-0.9x the dense time at 3% nonzero
# and 1.3-2x at 5% on 25 x 825 to 329 x 1360 matrices.  On the n = 7 SOS side
# of a ball quartic (329 x 1360, 0.4% nonzero) they took a solve from 142.7
# to 130.7 ms.  On the 125 x 477 forms of the n = 5 quartics they save about
# 15 us per pair, under 2% of a solve, and the SOS side of the quartic that
# ``test_stop_reasons`` stalls ended numerical_failure with them under two
# BLAS threads, a rounding change in an endgame that makes no progress
# either way; so forms below 2^16 entries keep the dense products (Xeon,
# one BLAS thread unless stated).
_SPARSE_MIN_ENTRIES = 1 << 16
_SPARSE_FILL = 1 / 32


class _Rows:
    """A as the IPM uses it, planned once per solve from its nonzeros: the
    products A x and y'A, and an iteration's Schur complement M, assembled
    as the module docstring says.  On a stack that takes F3, each pair (s,
    t) of nonzeros A_kb[i_s, j_s] = v_s and A_lb[i_t, j_t] = v_t of one
    block adds v_s v_t X_b[j_s, i_t] S_b^-1[j_t, i_s] to M_kl.  The pairs'
    indices into M, X and the F3 stacks' S^-1, and v_s v_t / 2, are found
    here, so the F3 part of an iteration is one bincount, added to G G'
    together with its transpose."""

    def __init__(self, A: np.ndarray, psd, lp: slice):
        self.A = A
        m = len(A)
        nonzero = A != 0.0
        self.sparse = (A.size >= _SPARSE_MIN_ENTRIES
                       and np.count_nonzero(nonzero) <= _SPARSE_FILL * A.size)
        if self.sparse:
            # np.nonzero(A)'s indices; it took 2-15x longer on 2 x 729 to 329 x 1360 forms
            r, col = np.unravel_index(np.flatnonzero(nonzero), A.shape)
            self.nz = (r, col, A[r, col])

        self.f3, self.dense = [], []  # stack indices by assembly
        self.counts = []  # (d, k, pairs, dense entries) of each F3 stack
        pairs = []  # (M, X, S^-1, v_s v_t / 2) of each F3 stack
        soff = 0    # the F3 stack's offset in the concatenated S^-1 stacks
        for i, (o, d, k) in enumerate(psd):
            live = nonzero[:, o:o + k * d * d]
            T = live.reshape(m, k, d * d).sum(axis=(0, 2))
            count = int(T @ T)
            if count > _F3_PAIRS_PER_ENTRY * m * k * d * d:
                self.dense.append(i)
                continue
            self.f3.append(i)
            self.counts.append((d, k, count, m * k * d * d))
            # the stack's nonzeros by row, then column, stably sorted by block
            r, col = np.nonzero(live)
            blk, loc = np.divmod(col, d * d)
            order = np.argsort(blk, kind="stable")
            rs, bs, vs = r[order], blk[order], A[r, o + col][order]
            ii, jj = np.divmod(loc[order], d)
            # s runs over the nonzeros, t over those of s's block; each flat
            # index is a part from s plus a part from t
            reps = T[bs]
            s = np.repeat(np.arange(len(bs)), reps)
            t = np.repeat(np.cumsum(T)[bs] - T[bs] - np.cumsum(reps) + reps, reps) + np.arange(count)
            boff = bs * (d * d)
            pairs.append(((rs * m)[s] + rs[t], (o + boff + jj * d)[s] + ii[t],
                          (soff + boff + ii)[s] + (jj * d)[t], (0.5 * vs)[s] * vs[t]))
            soff += k * d * d
        if len(pairs) > 1:
            pairs = [tuple(map(np.concatenate, zip(*pairs)))]
        self.pairs = pairs[0] if pairs else None

        # the dense stacks and the orthant, laid out side by side
        psd_d, cols, at = [], [], 0
        for i in self.dense:
            o, d, k = psd[i]
            psd_d.append((at, d, k))
            cols.append(A[:, o:o + k * d * d])
            at += k * d * d
        lp_d = slice(at, at + lp.stop - lp.start)
        Ad = A if not self.f3 else np.concatenate(cols + [A[:, lp]], axis=1)
        self.Ad, self.G = _Vec(Ad, psd_d, lp_d), _Vec(np.empty_like(Ad), psd_d, lp_d)

        if log.isEnabledFor(logging.DEBUG):
            log.debug("schur assembly: F3 on %s; A products %s (%d of %d entries nonzero)",
                      ", ".join(f"the {k} {d}x{d} blocks ({c} pairs <= {e} dense entries)"
                                for d, k, c, e in self.counts) or "no stack",
                      "sparse" if self.sparse else "dense", np.count_nonzero(nonzero), A.size)

    def dot(self, x: np.ndarray) -> np.ndarray:
        """A x."""
        if not self.sparse:
            return self.A @ x
        r, col, val = self.nz
        return np.bincount(r, weights=val * x[col], minlength=self.A.shape[0])

    def rdot(self, y: np.ndarray) -> np.ndarray:
        """y'A."""
        if not self.sparse:
            return y @ self.A
        r, col, val = self.nz
        return np.bincount(col, weights=val * y[r], minlength=self.A.shape[1])

    def schur(self, xv: np.ndarray, Lsi: List[np.ndarray], Lx: List[np.ndarray],
              Sinv: List[np.ndarray], w: np.ndarray, M: np.ndarray) -> None:
        """Write the HKM Schur complement into M, given the iterate's X (as
        its vector xv), the stacks of Ls_b^-1, Lx_b and S_b^-1, and the
        orthant's w = sqrt(x / s)."""
        _schur_rows(self.Ad, self.G, [Lsi[i] for i in self.dense], [Lx[i] for i in self.dense], w)
        np.matmul(self.G.v, self.G.v.T, out=M)
        if self.pairs is not None:
            mi, xi, si, vv = self.pairs
            sflat = np.concatenate([Sinv[i].reshape(-1) for i in self.f3])
            F = np.bincount(mi, weights=vv * xv[xi] * sflat[si], minlength=M.size).reshape(M.shape)
            F += F.T
            M += F


def _ratio_steps(v: np.ndarray, dv: np.ndarray) -> List[float]:
    """The orthant's step on each side of a pair: the largest t with v +
    t*dv >= 0 given v > 0, with the threshold of ``_boundary_step`` on
    dv/v, and inf on a side where no entry decreases.  The least -v/dv is
    minus the largest v/dv, bit for bit."""
    neg = dv / v < -1e-14
    if not neg.any():
        return [np.inf, np.inf]
    q = np.empty(v.shape)
    q.fill(-np.inf)
    np.divide(v, dv, out=q, where=neg)
    return [-t for t in q.max(axis=1).tolist()]


def _block_starts(form: StdForm) -> np.ndarray:
    """The offsets, in a pair's flattened (2, n) array, of the blocks of X
    and then of S, in column order, for ``_largest_block``; blocks with d =
    0 have no columns and no offset."""
    starts = form.off[:-1][np.array(form.dims, dtype=int) > 0]
    return np.concatenate((starts, form.off[-1] + starts))


def _largest_block(w: np.ndarray, starts: np.ndarray) -> float:
    """The largest Frobenius norm of a block of w, a stack's matrix or an
    orthant entry, given the offset of each block in w's flattened form, in
    increasing order (``np.add.reduceat`` sums from each offset to the
    next)."""
    return math.sqrt(float(np.add.reduceat((w * w).reshape(-1), starts).max(initial=0.0)))


def _backtrack(w: _Vec, dw: _Vec, a: float, trial: _Vec):
    """w + a*dw into ``trial`` for the first of a, 0.8a, ... (30 tries)
    inside the cone, with its stacks' Cholesky factors; past the last try,
    w + 0.8^30 a*dw unchecked, and None.  One side of the cone guard."""
    for _ in range(30):
        np.multiply(dw.v, a, out=trial.v)
        trial.v += w.v
        if (trial.l > 0.0).all():
            L = _chols(trial.P)
            if L is not None:
                return a, L
        a *= 0.8
    np.multiply(dw.v, a, out=trial.v)
    trial.v += w.v
    return a, None


def _guard(z: _Pair, dz: _Pair, ap: float, ad: float, trial: _Pair):
    """The cone guard, against rounding past the cone boundary: the pair (X
    + ap dX, S + ad dS) into ``trial``, accepted when its orthant is positive
    and each block size's X and S factor in one stacked Cholesky call.
    When that fails, each side backtracks on its own (``_backtrack``), so
    the result is that of the two sides' guards.  Returns the step lengths
    and the trial's factors as (2, k, d, d) stacks, Lx over Ls, or None when
    a side ran out of tries."""
    np.multiply(dz.v, np.array([[ap], [ad]]), out=trial.v)
    trial.v += z.v
    if (trial.l > 0.0).all():
        L = _chols(trial.P)
        if L is not None:
            return ap, ad, L
    ap, Lx = _backtrack(z.x, dz.x, ap, trial.x)
    ad, Ls = _backtrack(z.s, dz.s, ad, trial.s)
    if Lx is None or Ls is None:
        return ap, ad, None
    return ap, ad, [np.stack(f) for f in zip(Lx, Ls)]


def _solve_core(form: StdForm, tol: float, max_iter: int, orig: StdForm,
                offset: float) -> StdResult:
    """The IPM on a form without free scalars: residual norms and scale are
    those of ``orig``, the form before elimination; objectives add ``offset``.

    The iteration runs on the form's columns grouped by cone (``_grouped``):
    each block size is one (k, d, d) stack, and X and S are the rows of one
    (2, n) array, so every factorization, inversion, product and eigenvalue
    computation of an iteration is one numpy call per distinct block size
    for both sides, and the 1x1 blocks are one orthant of both sides."""
    given = form
    form, perm = _grouped(form)
    A, b, c = form.rows, form.b, form.c
    m, n = A.shape
    nu = max(sum(form.dims), 1)
    psd, lp = _cones(form)
    lp = slice(int(lp[0]), int(lp[-1]) + 1) if lp.size else slice(0, 0)  # one run once grouped

    # np.linalg.norm's own formula, without its overhead
    cnorm, bnorm = math.sqrt(orig.c @ orig.c), math.sqrt(orig.b @ orig.b)
    scale = 1.0 + max(float(abs(orig.b).max(initial=0.0)), cnorm)

    # the iterate (X, S), the cone guard's trial point and the direction
    # (dX, dS), each a pair; V and the dual residual; the stacks'
    # identities and the offsets of the blocks of a pair, for its largest
    # block: all made once
    z, zt, dz = (_Pair(n, psd, lp) for _ in range(3))
    V, Rd = (_Vec(np.empty(n), psd, lp) for _ in range(2))
    eye = [np.eye(d) for _, d, _ in psd]
    for P, e in zip(z.P, eye):
        P[...] = scale * e
    z.l[...] = scale
    starts = _block_starts(form)
    y = np.zeros(m)
    rows = _Rows(A, psd, lp)
    M = np.empty((m, m))

    status = ITER_CAP
    marginal = False
    it = 0
    pres = dres = relgap = np.inf
    pobj = dobj = np.nan
    best = None          # (error, (X, S), y, pobj, dobj, pres, dres, relgap)
    best_age = 0
    # the stacks' Cholesky factors, Lx over Ls: at the start the entrywise
    # square root of the diagonal iterate, then those the cone guard found
    L = [np.sqrt(P) for P in z.P]

    def directions(Rc, rc, d):
        """The HKM direction for the complementarity residual (Rc, rc),
        written into the pair d; returns dy."""
        X, S = z.x, z.s
        for vb, xr, rcb, si in zip(V.P, XRdSinv, Rc, Sinv):
            np.subtract(xr, rcb @ si, out=vb)
        np.subtract(xRd, rc, out=V.l)
        V.l /= S.l
        dy = _kkt_solve(M, Minv, rp + rows.dot(V.v))
        np.subtract(Rd.v, rows.rdot(dy), out=d.s.v)
        for dxb, rcb, xb, dsb, si in zip(d.x.P, Rc, X.P, d.s.P, Sinv):
            w = (rcb - xb @ dsb) @ si
            np.add(w, w.swapaxes(-1, -2), out=dxb)
            dxb /= 2.0
        np.multiply(X.l, d.s.l, out=d.x.l)
        np.subtract(rc, d.x.l, out=d.x.l)
        d.x.l /= S.l
        return dy

    def steps(d, frac):
        """The step lengths to the cones' boundaries: the orthant's ratio
        test and the least eigenvalues of Lx^-1 dX Lx^-T and Ls^-1 dS Ls^-T
        over each stack, both sides in one call; None when an eigenvalue
        computation does not converge."""
        ap, ad = _ratio_steps(z.l, d.l)
        ap, ad = min(1.0, frac * ap), min(1.0, frac * ad)
        for li, lt, dP in zip(Li, LiT, d.P):
            w = li @ dP @ lt
            try:
                lam = np.linalg.eigvalsh((w + w.swapaxes(-1, -2)) / 2.0)
            except np.linalg.LinAlgError:
                return None
            lx, ls = lam[..., 0].min(axis=1)
            ap = min(ap, frac * _boundary_step(float(lx)))
            ad = min(ad, frac * _boundary_step(float(ls)))
        return ap, ad

    for it in range(max_iter + 1):
        x, s = z.x.v, z.s.v
        rp = b - rows.dot(x)
        np.subtract(c, s, out=Rd.v)
        Rd.v -= rows.rdot(y)

        pobj = float(c @ x) + offset
        dobj = (float(b @ y) if m else 0.0) + offset
        mu = float(x @ s) / nu

        # np.linalg.norm's own formula, without its overhead
        pres = math.sqrt(rp @ rp) / (1.0 + bnorm)
        dres = math.sqrt(Rd.v @ Rd.v) / (1.0 + cnorm)
        relgap = relative_gap(pobj, dobj)

        itnorm = max(_largest_block(z.v, starts), float(abs(y).max(initial=0.0)))
        err = max(pres, dres, relgap)
        if itnorm <= ITERATE_CAP * scale and (best is None or err < best[0]):
            best = (err, z.v.copy(), y, pobj, dobj, pres, dres, relgap)
            best_age = 0
        else:
            best_age += 1
        if pres <= tol and dres <= tol and relgap <= tol:
            if itnorm > ITERATE_CAP * scale:
                status = DIVERGED
            else:
                status = "optimal"
            break
        if itnorm > DIVERGENCE * scale:
            status = DIVERGED
            break
        if dres <= 100.0 * tol and dobj > DIVERGENCE * scale:
            status = "primal_infeasible_cert"
            break
        if pres <= 100.0 * tol and pobj < -DIVERGENCE * scale:
            status = "dual_infeasible_cert"
            break
        if best_age >= 20:  # endgame stall: no progress for 20 iterations
            status = STALLED
            break
        if it == max_iter:
            status = ITER_CAP
            break

        if L is None:  # the guard left a side unchecked
            L = _chols(z.P) if (z.l > 0.0).all() else None
            if L is None:
                status = "numerical_failure"
                break
        # Lx^-1 over Ls^-1, one inversion per stack
        Li = [_tril_inv(f) for f in L]
        LiT = [li.swapaxes(-1, -2) for li in Li]
        Lsi = [li[1] for li in Li]
        Sinv = [lt[1] @ li for lt, li in zip(LiT, Lsi)]

        rows.schur(x, Lsi, [f[0] for f in L], Sinv, np.sqrt(z.x.l / z.s.l), M)
        Minv = None  # release the last factor before making the next
        Minv = _kkt_factor(M)
        if Minv is None:
            status = "numerical_failure"
            break

        # the work that the predictor and the corrector share
        XS = [xb @ sb for xb, sb in zip(z.x.P, z.s.P)]
        xs = z.x.l * z.s.l
        XRdSinv = [xb @ r @ si for xb, r, si in zip(z.x.P, Rd.P, Sinv)]
        xRd = z.x.l * Rd.l

        # predictor
        directions([-w for w in XS], -xs, dz)
        step = steps(dz, 1.0)
        if step is None:
            status = "numerical_failure"
            break
        ap, ad = step
        mu_aff = float((x + ap * dz.x.v) @ (s + ad * dz.s.v)) / nu
        sigma = min(1.0, max((mu_aff / mu) ** 3 if mu > 0 else 0.0, 1e-10))

        # corrector, from the predictor's direction, which it then overwrites
        smu = sigma * mu
        Rc = [smu * e - w - dxb @ dsb for e, w, dxb, dsb in zip(eye, XS, dz.x.P, dz.s.P)]
        dy = directions(Rc, smu - xs - dz.x.l * dz.s.l, dz)
        step = steps(dz, STEP_FRACTION)
        if step is None:
            status = "numerical_failure"
            break
        ap, ad = step

        # the factors the guard finds are the next iteration's
        ap, ad, L = _guard(z, dz, ap, ad, zt)
        z, zt = zt, z
        y = y + ad * dy

    w = z.v
    # a stalled run ends at its best iterate, not wherever it drifted
    if status != "optimal" and best is not None and best[0] < max(pres, dres, relgap):
        _, w, y, pobj, dobj, pres, dres, relgap = best

    # Slater-failure signatures: feasibility converged but the gap did not,
    # or the iterates ran away while staying feasible
    if status != "optimal" and pres <= 1e-4 and dres <= 1e-4:
        if relgap > 100.0 * tol or status == DIVERGED:
            marginal = True

    xv, sv = w if perm is None else (_unpermuted(v, perm) for v in w)
    return StdResult(
        status=status,
        pobj=pobj,
        dobj=dobj,
        relgap=relgap,
        pres=pres,
        dres=dres,
        iterations=it,
        X=given.blocks(xv),
        S=given.blocks(sv),
        y=y,
        u=np.zeros(0),
        marginal=marginal,
    )


def _unpermuted(w: np.ndarray, perm: np.ndarray) -> np.ndarray:
    out = np.empty_like(w)
    out[perm] = w
    return out
