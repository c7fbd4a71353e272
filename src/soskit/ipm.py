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

Free scalars are kept as genuinely free columns of the Schur system: each
iteration forms the bordered KKT matrix K = [[M, D], [D', 0]] (D the free
columns) and factors it once, after a quasi-definite diagonal shift (+delta
on M's block, relative to M's largest diagonal entry, and -delta' on the
free block, relative to D's largest entry): a Cholesky factor L of
M + delta I, and one of W'W + delta' I with W = L^-1 D, the Schur complement
of the bordered block.  The predictor and the corrector are each refined
against the unshifted K for as long as a step at least halves the residual,
so the shift only damps the directions of K whose eigenvalues lie near or
below it.  A failed factorization ends the run as ``numerical_failure``.

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

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np


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


def _kkt_factor(K: np.ndarray, m: int) -> Optional[Callable[[np.ndarray], np.ndarray]]:
    """The one factorization of an iteration, of the bordered matrix
    K = [[M, D], [D', 0]] (M is the leading m x m block) after a
    quasi-definite diagonal shift, +_KKT_SHIFT * max diag(M) on M's block and
    -_KKT_SHIFT * max |D|^2 on the free block.  The shift keeps the factored
    matrix nonsingular when M is singular or D has dependent columns.  With
    M + delta I = L L' and W = L^-1 D, the free block's Schur complement is
    -(W'W + delta' I) = -R R', so the shifted inverse applies by products
    with L^-1, W and R^-1.  K is left unshifted.  Returns that application,
    or None when a Cholesky factorization fails."""
    nf = len(K) - m
    diag = np.einsum("ii->i", K)
    top = float(np.max(diag[:m])) if m else 0.0
    D = K[:m, m:]
    dmax = float(np.max(np.abs(D))) if D.size else 0.0
    saved = diag[:m].copy()
    diag[:m] += _KKT_SHIFT * (top if top > 0.0 else 1.0)
    L = _chol(K[:m, :m])
    diag[:m] = saved
    Li = None if L is None else _tril_inv(L)
    if Li is None or not np.all(np.isfinite(Li)):
        return None
    if not nf:
        return lambda r: Li.T @ (Li @ r)
    W = Li @ D
    RR = W.T @ W
    np.einsum("ii->i", RR)[:] += _KKT_SHIFT * (dmax * dmax if dmax > 0.0 else 1.0)
    R = _chol(RR)
    Ri = None if R is None else _tril_inv(R)
    if Ri is None or not np.all(np.isfinite(Ri)):
        return None

    def apply(r):
        z = Li @ r[:m]
        u = Ri.T @ (Ri @ (W.T @ z - r[m:]))
        return np.concatenate([Li.T @ (z - W @ u), u])
    return apply


def _kkt_solve(K: np.ndarray, Kinv: Callable[[np.ndarray], np.ndarray],
               rhs: np.ndarray) -> np.ndarray:
    """Solve K sol = rhs with the shifted inverse ``Kinv`` applies, refined
    against the unshifted K for as long as each step at least halves the
    residual."""
    sol = Kinv(rhs)
    res = rhs - K @ sol
    rn = math.sqrt(res @ res)  # np.linalg.norm's own formula, without its overhead
    while rn > 0.0:
        cand = sol + Kinv(res)
        cres = rhs - K @ cand
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
    and X, S and y are lifted back to its shape.  Each iteration forms the
    Schur complement as the Gram product M = G G' of the scaled rows, factors
    the bordered KKT matrix once by Cholesky factors of M + delta I and of
    the free block's Schur complement (see the module docstring), and
    refines both directions against the unshifted matrix.  The 1x1 blocks
    are solved together as one nonnegative orthant.
    ``optimal`` means pres <= tol, dres <= tol and relative_gap(pobj, dobj)
    <= tol, so the absolute gap is at most tol * max(1, (|pobj| + |dobj|)
    / 2), on iterates no larger than ITERATE_CAP times the data scale.  A
    run that stops otherwise returns the best iterate it saw.
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

    res = _solve_core(_restrict(form, face), tol, max_iter)

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
        np.matmul(li, a @ lx, out=g)
    out[:, lp] = A[:, lp] * w


def _ratio_step(v: np.ndarray, dv: np.ndarray) -> float:
    """Largest t with v + t*dv >= 0 given v > 0: ``_max_step`` on the
    orthant, with the same threshold on dv/v."""
    r = dv / v
    neg = r < -1e-14
    return float(np.min(-v[neg] / dv[neg])) if np.any(neg) else np.inf


def _solve_core(form: StdForm, tol: float, max_iter: int) -> StdResult:
    dims = form.dims
    A, D = form.rows, form.free
    m, nf = D.shape
    nu = max(sum(dims), 1)

    # X and S live in full column vectors: the d != 1 blocks are matrix views
    # into them, the 1x1 blocks one orthant vector on their columns ``lp``
    psd, lp = _cones(form)

    def views(w):
        return _views(w, psd)

    C, cl = views(form.c), form.c[lp]
    G = np.empty_like(A)  # the rows of the Schur product M = G G'

    b = form.b
    cf = form.free_obj
    cnorm = float(np.sqrt(sum(np.sum(c * c) for c in C) + cl @ cl))
    scale = 1.0 + max(float(np.max(np.abs(b))) if m else 0.0, cnorm)

    xv, sv = np.zeros(form.off[-1]), np.zeros(form.off[-1])
    for w in (xv, sv):
        for blk in views(w):
            blk[...] = scale * np.eye(len(blk))
        w[lp] = scale
    y = np.zeros(m)
    u = np.zeros(nf)

    status = "max_iter"
    marginal = False
    diverged = False
    it = 0
    pres = dres = relgap = np.inf
    pobj = dobj = np.nan
    best = None          # (error, xv, sv, y, u, pobj, dobj, pres, dres, relgap)
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
        rp = b - A @ xv - D @ u
        rf = cf - D.T @ y
        rdv = form.c - sv - y @ A
        Rd, rd = views(rdv), rdv[lp]

        pobj = sum(float(np.sum(c * xb)) for c, xb in zip(C, X)) + float(cl @ x)
        pobj += float(cf @ u) if nf else 0.0
        dobj = float(b @ y) if m else 0.0
        mu = (sum(float(np.sum(xb * sb)) for xb, sb in zip(X, S)) + float(x @ s)) / nu

        pres = float(np.linalg.norm(rp)) / (1.0 + float(np.linalg.norm(b)))
        fres = (float(np.linalg.norm(rf)) / (1.0 + float(np.linalg.norm(cf)))
                if nf else 0.0)
        dres = max(
            float(np.sqrt(sum(np.sum(r * r) for r in Rd) + rd @ rd)) / (1.0 + cnorm),
            fres,
        )
        relgap = relative_gap(pobj, dobj)

        itnorm = max(
            [float(np.linalg.norm(w)) for w in X + S if w.size]
            + [float(np.max(np.abs(w))) for w in (x, s) if lp.size]
            + [float(np.max(np.abs(y))) if m else 0.0,
               float(np.max(np.abs(u))) if nf else 0.0]
        )
        err = max(pres, dres, relgap)
        if itnorm <= ITERATE_CAP * scale and (best is None or err < best[0]):
            best = (err, xv.copy(), sv.copy(), y.copy(), u.copy(),
                    pobj, dobj, pres, dres, relgap)
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

        # M = G G' is one symmetric rank-k product, formed in place as the
        # leading block of K = [[M, D], [D', 0]]
        _schur_rows(A, psd, lp, Lsi, Lx, np.sqrt(x / s), G)
        K = np.zeros((m + nf, m + nf))
        np.matmul(G, G.T, out=K[:m, :m])
        K[:m, m:] = D
        K[m:, :m] = D.T
        Kinv = _kkt_factor(K, m)
        if Kinv is None:
            status = "numerical_failure"
            break

        XRdSinv = [xb @ r @ si for xb, r, si in zip(X, Rd, Sinv)]

        def directions(Rc, rc):
            v = np.empty_like(xv)
            for vb, xr, rcb, si in zip(views(v), XRdSinv, Rc, Sinv):
                vb[...] = xr - rcb @ si
            v[lp] = (x * rd - rc) / s
            sol = _kkt_solve(K, Kinv, np.concatenate([rp + A @ v, rf]))
            dy, du = sol[:m], sol[m:]
            dsv = rdv - dy @ A
            dxv = np.empty_like(xv)
            for dxb, rcb, xb, dsb, si in zip(views(dxv), Rc, X, views(dsv), Sinv):
                w = (rcb - xb @ dsb) @ si
                dxb[...] = (w + w.T) / 2.0
            dxv[lp] = (rc - x * dsv[lp]) / s
            return dxv, dsv, dy, du

        def steps(dxv, dsv, frac=1.0):
            ap = min([1.0] + [frac * _max_step(l, d) for l, d in zip(Lxi, views(dxv))]
                     + [frac * _ratio_step(x, dxv[lp])])
            ad = min([1.0] + [frac * _max_step(l, d) for l, d in zip(Lsi, views(dsv))]
                     + [frac * _ratio_step(s, dsv[lp])])
            return ap, ad

        # predictor
        dxa, dsa, _, _ = directions([-(xb @ sb) for xb, sb in zip(X, S)], -(x * s))
        ap, ad = steps(dxa, dsa)
        xa, sa = xv + ap * dxa, sv + ad * dsa
        mu_aff = (sum(float(np.sum(xb * sb)) for xb, sb in zip(views(xa), views(sa)))
                  + float(xa[lp] @ sa[lp])) / nu
        sigma = min(1.0, max((mu_aff / mu) ** 3 if mu > 0 else 0.0, 1e-10))

        # corrector
        Rc = [sigma * mu * np.eye(len(xb)) - xb @ sb - dxb @ dsb
              for xb, sb, dxb, dsb in zip(X, S, views(dxa), views(dsa))]
        dxv, dsv, dy, du = directions(Rc, sigma * mu - x * s - dxa[lp] * dsa[lp])
        ap, ad = steps(dxv, dsv, STEP_FRACTION)

        # guard against rounding past the cone boundary; the factors it
        # finds are the next iteration's
        ap, xv, Lx = guarded(xv, dxv, ap)
        ad, sv, Ls = guarded(sv, dsv, ad)
        y = y + ad * dy
        if nf:
            u = u + ap * du

    # a stalled run ends at its best iterate, not wherever it drifted
    if status != "optimal" and best is not None and best[0] < max(pres, dres, relgap):
        _, xv, sv, y, u, pobj, dobj, pres, dres, relgap = best

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
        u=u,
        marginal=marginal,
    )
