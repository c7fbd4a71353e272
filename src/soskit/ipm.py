"""Dense primal-dual interior-point method for block SDPs in standard form.

Standard form:  min sum_b <C_b, X_b> + cf.u
                s.t. sum_b <A_kb, X_b> + d_k.u = b_k,   X_b >= 0, u free.

``StdForm`` holds the rows as one matrix A with a row per constraint and
the vectorized blocks side by side in its columns; the IPM solves with that
matrix as it is, so A(X) = A vec(X) and A*(y) is y'A cut into blocks.

Every 1x1 block is one entry of a single nonnegative orthant, the LP cone of
mixed-cone IPMs such as SDPA and SeDuMi: its x and s are vectors on those
blocks' columns of A, its directions are entrywise, its step length is a
ratio test and its cone guard is x > 0, so the LAPACK calls of an iteration
follow only the blocks larger than 1x1.  A form without 1x1 blocks runs the
per-block matrix arithmetic alone.

Search direction is HKM with a Mehrotra predictor-corrector.  Each matrix of
an iteration is factored once and used through its factor; the cone guard,
which factors the blocks of the next iterate to accept its step, hands those
factors on.  With the block factors S_b = Ls_b Ls_b' and X_b = Lx_b Lx_b',
the HKM Schur complement M_kl = sum_b tr(A_kb X_b A_lb S_b^-1) is the Gram
matrix of the rows G_k = vec(Ls_b^-1 A_kb Lx_b), together with the
orthant's columns of A scaled by sqrt(x / s): M = G G' is one symmetric
rank-k product, symmetric and positive semidefinite by construction.
S_b^-1 = Ls_b^-T Ls_b^-1, and the step length to a block's boundary is
read off the least eigenvalue of Lx_b^-1 dX_b Lx_b^-T.  The triangular
inverses come from a 2x2 block recursion (numpy has no triangular solve).

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
eigenvalues lie near or below it.  A failed factorization ends the run as
``numerical_failure``.

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
        last axis as a d x d matrix."""
        w = self.rows if w is None else w
        return [w[..., self.off[i]:self.off[i + 1]].reshape(w.shape[:-1] + (d, d))
                for i, d in enumerate(self.dims)]


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


@dataclass
class _Face:
    keep: List[np.ndarray]       # kept original indices per block
    kept_rows: List[int]
    reduced: bool                # some block lost an index
    cols: np.ndarray             # kept columns of ``rows``, in restricted order


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
    """
    start = np.cumsum([0] + form.dims)
    # each column's entry (i, j), numbered across the blocks' indices
    ii, jj = ij = np.empty((2, form.off[-1]), dtype=np.intp)
    for s, blk in zip(start, form.blocks(ij)):
        blk[...] = s + np.indices(blk.shape[1:])
    nonzero = form.rows != 0.0
    has_free = np.any(form.free != 0.0, axis=1)  # such rows pin nothing
    alive = np.ones(start[-1], dtype=bool)
    dead = np.zeros(len(form.b), dtype=bool)
    reduced = False

    while True:
        k = np.flatnonzero(~(has_free | dead))
        live = nonzero[k] & (alive[ii] & alive[jj])
        count = np.count_nonzero(live, axis=1)
        empty = k[count == 0]
        if np.any(form.b[empty] != 0.0):
            return None
        dead[empty] = True
        k = k[count == 1]
        col = np.nonzero(live[count == 1])[1]  # each such row's one entry
        on_diag = ii[col] == jj[col]
        k, col = k[on_diag], col[on_diag]
        pinned = form.b[k] / form.rows[k, col]
        if np.any(pinned < 0.0):
            return None
        k, col = k[pinned == 0.0], col[pinned == 0.0]
        if not k.size:
            break
        dead[k] = True
        alive[ii[col]] = False
        reduced = True

    return _Face(keep=[np.flatnonzero(alive[s:s + d]) for s, d in zip(start, form.dims)],
                 kept_rows=np.flatnonzero(~dead).tolist(), reduced=reduced,
                 cols=np.flatnonzero(alive[ii] & alive[jj]))


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
    red = StdForm(dims=form.dims, rows=U2.T @ form.rows, free=np.zeros((len(D) - r, 0)),
                  c=form.c - w @ form.rows, free_obj=np.zeros(0), b=U2.T @ form.b)
    return red, float(form.b @ w), U2, w, pinv


def _max_step(Li: np.ndarray, delta: np.ndarray) -> float:
    """Largest t with M + t*delta >= 0 given M = L L' and Li = L^-1."""
    if Li.shape[0] == 0:
        return np.inf
    w = Li @ delta @ Li.T
    lam = float(np.linalg.eigvalsh((w + w.T) / 2.0)[0])
    if lam >= -1e-14:
        return np.inf
    return -1.0 / lam


def _chol(mat: np.ndarray) -> Optional[np.ndarray]:
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        return None


_LEAF = 48  # largest triangle ``_tril_inv`` hands to np.linalg.inv


def _tril_inv(L: np.ndarray) -> np.ndarray:
    """Inverse of a nonsingular lower-triangular L by 2x2 block recursion,
    [[A, 0], [B, C]]^-1 = [[A^-1, 0], [-C^-1 B A^-1, C^-1]], with
    np.linalg.inv on diagonal blocks of at most _LEAF rows (numpy has no
    triangular solve)."""
    n = len(L)
    if n <= _LEAF:
        return np.linalg.inv(L)
    h = n // 2
    out = np.zeros_like(L)
    a, c = out[:h, :h], out[h:, h:]
    a[...] = _tril_inv(L[:h, :h])
    c[...] = _tril_inv(L[h:, h:])
    out[h:, :h] = -(c @ (L[h:, :h] @ a))
    return out


def _kkt_factor(M: np.ndarray) -> Optional[Callable[[np.ndarray], np.ndarray]]:
    """The one factorization of an iteration: M + delta I = L L', delta =
    _KKT_SHIFT * max diag(M) keeping it nonsingular when M is singular, and M
    left unshifted.  Returns the shifted inverse as products with L^-1 (L is
    released once L^-1 exists), or None when the Cholesky factorization fails."""
    diag = np.einsum("ii->i", M)
    top = float(np.max(diag)) if len(M) else 0.0
    saved = diag.copy()
    diag += _KKT_SHIFT * (top if top > 0.0 else 1.0)
    L = _chol(M)
    diag[:] = saved
    Li = None if L is None else _tril_inv(L)
    del L
    if Li is None or not np.all(np.isfinite(Li)):
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
    factors the Schur complement M = G G' alone (see the module docstring).
    ``optimal`` means pres <= tol, dres <= tol and relative_gap(pobj, dobj)
    <= tol, so the absolute gap is at most tol * max(1, (|pobj| + |dobj|)
    / 2), on iterates no larger than ITERATE_CAP times the data scale, all
    of the form with its free scalars.  A part of the free cost in null(D)
    that leaves the free residual above tol makes a primal-feasible run
    ``dual_infeasible_cert``.  A run that stops otherwise returns the best
    iterate it saw.
    """
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
        fres = float(np.linalg.norm(cf - sub.free.T @ res.y)) / (1.0 + float(np.linalg.norm(cf)))
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
    """The cones of form's columns: (offset, d) of each block larger than
    1x1, and the columns of the 1x1 blocks, which form one orthant."""
    psd = [(o, d) for o, d in zip(form.off, form.dims) if d != 1]
    lp = np.array([o for o, d in zip(form.off, form.dims) if d == 1], dtype=np.intp)
    return psd, lp


def _views(w: np.ndarray, psd) -> List[np.ndarray]:
    """The blocks ``psd`` of w's last axis, each as a d x d matrix view."""
    return [w[..., o:o + d * d].reshape(w.shape[:-1] + (d, d)) for o, d in psd]


def _schur_rows(A: np.ndarray, psd, lp: np.ndarray, Lsi: List[np.ndarray],
                Lx: List[np.ndarray], w: np.ndarray, out: np.ndarray) -> None:
    """Write into ``out`` (shaped as A) the rows G whose Gram matrix G G' is
    the HKM Schur complement M_kl = sum_b tr(A_kb X_b A_lb S_b^-1): block b
    of row k is Ls_b^-1 A_kb Lx_b, given Ls_b^-1 and Lx_b (S_b = Ls_b Ls_b',
    X_b = Lx_b Lx_b'), and the orthant's columns are A's scaled by
    w = sqrt(x / s)."""
    for a, g, li, lx in zip(_views(A, psd), _views(out, psd), Lsi, Lx):
        for k in range(0, len(a), 64):  # row chunks keep a @ lx's temporary small
            np.matmul(li, a[k:k + 64] @ lx, out=g[k:k + 64])
    out[:, lp] = A[:, lp] * w


def _ratio_step(v: np.ndarray, dv: np.ndarray) -> float:
    """Largest t with v + t*dv >= 0 given v > 0: ``_max_step`` on the
    orthant, with the same threshold on dv/v."""
    r = dv / v
    neg = r < -1e-14
    return float(np.min(-v[neg] / dv[neg])) if np.any(neg) else np.inf


def _solve_core(form: StdForm, tol: float, max_iter: int, orig: StdForm,
                offset: float) -> StdResult:
    """The IPM on a form without free scalars: residual norms and scale are
    those of ``orig``, the form before elimination; objectives add ``offset``."""
    A, b = form.rows, form.b
    m = len(A)
    nu = max(sum(form.dims), 1)

    # X and S live in full column vectors: the d != 1 blocks are matrix views
    # into them, the 1x1 blocks one orthant vector on their columns ``lp``
    psd, lp = _cones(form)

    def views(w):
        return _views(w, psd)

    C, cl = views(form.c), form.c[lp]
    G = np.empty_like(A)  # the rows of the Schur product M = G G'
    M = np.empty((m, m))

    oc = orig.c[lp]
    cnorm = float(np.sqrt(sum(np.sum(c * c) for c in views(orig.c)) + oc @ oc))
    bnorm = float(np.linalg.norm(orig.b))
    scale = 1.0 + max(float(np.max(np.abs(orig.b))) if len(orig.b) else 0.0, cnorm)

    xv, sv = np.zeros(form.off[-1]), np.zeros(form.off[-1])
    for w in (xv, sv):
        for blk in views(w):
            blk[...] = scale * np.eye(len(blk))
        w[lp] = scale
    y = np.zeros(m)

    status = "max_iter"
    marginal = False
    diverged = False
    it = 0
    pres = dres = relgap = np.inf
    pobj = dobj = np.nan
    best = None          # (error, xv, sv, y, pobj, dobj, pres, dres, relgap)
    best_age = 0
    # Cholesky factors of the X and S blocks, when known: sqrt(scale) I at
    # the start, then those the cone guard found
    Lx = Ls = [np.sqrt(scale) * np.eye(d) for _, d in psd]

    def guarded(v, dv, a):
        """v + a*dv for the first of a, 0.8a, ... (30 tries) inside the
        cone, with its blocks' Cholesky factors; past the last try, v +
        0.8^30 a*dv unchecked, and None."""
        for _ in range(30):
            va = v + a * dv
            if np.all(va[lp] > 0.0):
                L = [_chol(w) for w in views(va)]
                if all(l is not None for l in L):
                    return a, va, L
            a *= 0.8
        return a, v + a * dv, None

    for it in range(max_iter + 1):
        X, S, x, s = views(xv), views(sv), xv[lp], sv[lp]
        rp = b - A @ xv
        rdv = form.c - sv - y @ A
        Rd, rd = views(rdv), rdv[lp]

        pobj = sum(float(np.sum(c * xb)) for c, xb in zip(C, X)) + float(cl @ x) + offset
        dobj = (float(b @ y) if m else 0.0) + offset
        mu = (sum(float(np.sum(xb * sb)) for xb, sb in zip(X, S)) + float(x @ s)) / nu

        pres = float(np.linalg.norm(rp)) / (1.0 + bnorm)
        dres = float(np.sqrt(sum(np.sum(r * r) for r in Rd) + rd @ rd)) / (1.0 + cnorm)
        relgap = relative_gap(pobj, dobj)

        itnorm = max(
            [float(np.linalg.norm(w)) for w in X + S if w.size]
            + [float(np.max(np.abs(w))) for w in (x, s) if lp.size]
            + [float(np.max(np.abs(y))) if m else 0.0])
        err = max(pres, dres, relgap)
        if itnorm <= ITERATE_CAP * scale and (best is None or err < best[0]):
            best = (err, xv.copy(), sv.copy(), y.copy(), pobj, dobj, pres, dres, relgap)
            best_age = 0
        else:
            best_age += 1
        if pres <= tol and dres <= tol and relgap <= tol:
            if itnorm > ITERATE_CAP * scale:
                diverged = True
                status = "max_iter"
            else:
                status = "optimal"
            break
        if itnorm > DIVERGENCE * scale:
            diverged = True
            status = "max_iter"
            break
        if dres <= 100.0 * tol and dobj > DIVERGENCE * scale:
            status = "primal_infeasible_cert"
            break
        if pres <= 100.0 * tol and pobj < -DIVERGENCE * scale:
            status = "dual_infeasible_cert"
            break
        if best_age >= 20:  # endgame stall: no progress for 20 iterations
            status = "max_iter"
            break
        if it == max_iter:
            status = "max_iter"
            break

        Ls = [_chol(sb) for sb in S] if Ls is None else Ls
        Lx = [_chol(xb) for xb in X] if Lx is None else Lx
        if (any(l is None for l in Ls) or any(l is None for l in Lx)
                or not (np.all(x > 0.0) and np.all(s > 0.0))):
            status = "numerical_failure"
            break
        Lsi = [_tril_inv(l) for l in Ls]
        Lxi = [_tril_inv(l) for l in Lx]
        Sinv = [li.T @ li for li in Lsi]

        # M = G G' is one symmetric rank-k product, formed in M's buffer
        _schur_rows(A, psd, lp, Lsi, Lx, np.sqrt(x / s), G)
        np.matmul(G, G.T, out=M)
        Minv = None  # release the last factor before making the next
        Minv = _kkt_factor(M)
        if Minv is None:
            status = "numerical_failure"
            break

        XRdSinv = [xb @ r @ si for xb, r, si in zip(X, Rd, Sinv)]

        def directions(Rc, rc):
            v = np.empty_like(xv)
            for vb, xr, rcb, si in zip(views(v), XRdSinv, Rc, Sinv):
                vb[...] = xr - rcb @ si
            v[lp] = (x * rd - rc) / s
            dy = _kkt_solve(M, Minv, rp + A @ v)
            dsv = rdv - dy @ A
            dxv = np.empty_like(xv)
            for dxb, rcb, xb, dsb, si in zip(views(dxv), Rc, X, views(dsv), Sinv):
                w = (rcb - xb @ dsb) @ si
                dxb[...] = (w + w.T) / 2.0
            dxv[lp] = (rc - x * dsv[lp]) / s
            return dxv, dsv, dy

        def steps(dxv, dsv, frac=1.0):
            ap = min([1.0] + [frac * _max_step(l, d) for l, d in zip(Lxi, views(dxv))]
                     + [frac * _ratio_step(x, dxv[lp])])
            ad = min([1.0] + [frac * _max_step(l, d) for l, d in zip(Lsi, views(dsv))]
                     + [frac * _ratio_step(s, dsv[lp])])
            return ap, ad

        # predictor
        dxa, dsa, _ = directions([-(xb @ sb) for xb, sb in zip(X, S)], -(x * s))
        ap, ad = steps(dxa, dsa)
        xa, sa = xv + ap * dxa, sv + ad * dsa
        mu_aff = (sum(float(np.sum(xb * sb)) for xb, sb in zip(views(xa), views(sa)))
                  + float(xa[lp] @ sa[lp])) / nu
        sigma = min(1.0, max((mu_aff / mu) ** 3 if mu > 0 else 0.0, 1e-10))

        # corrector
        Rc = [sigma * mu * np.eye(len(xb)) - xb @ sb - dxb @ dsb
              for xb, sb, dxb, dsb in zip(X, S, views(dxa), views(dsa))]
        dxv, dsv, dy = directions(Rc, sigma * mu - x * s - dxa[lp] * dsa[lp])
        ap, ad = steps(dxv, dsv, STEP_FRACTION)

        # guard against rounding past the cone boundary; the factors it
        # finds are the next iteration's
        ap, xv, Lx = guarded(xv, dxv, ap)
        ad, sv, Ls = guarded(sv, dsv, ad)
        y = y + ad * dy

    # a stalled run ends at its best iterate, not wherever it drifted
    if status != "optimal" and best is not None and best[0] < max(pres, dres, relgap):
        _, xv, sv, y, pobj, dobj, pres, dres, relgap = best

    # Slater-failure signatures: feasibility converged but the gap did not,
    # or the iterates ran away while staying feasible
    if status != "optimal" and pres <= 1e-4 and dres <= 1e-4:
        if relgap > 100.0 * tol or diverged:
            marginal = True

    return StdResult(
        status=status,
        pobj=pobj,
        dobj=dobj,
        relgap=relgap,
        pres=pres,
        dres=dres,
        iterations=it,
        X=form.blocks(xv),
        S=form.blocks(sv),
        y=y,
        u=np.zeros(0),
        marginal=marginal,
    )
