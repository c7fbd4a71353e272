"""Dense primal-dual interior-point method for block SDPs in standard form.

Standard form:  min sum_b <C_b, X_b> + cf.u
                s.t. sum_b <A_kb, X_b> + d_k.u = b_k,   X_b >= 0, u free.

``StdForm`` holds the rows as one matrix A with a row per constraint and
the vectorized blocks side by side in its columns; the IPM solves with that
matrix as it is, so A(X) = A vec(X), A*(y) is y'A cut into blocks, and the
HKM Schur complement is one product A T' (T's block b holds X_b A_kb
S_b^-1).

Every 1x1 block is one entry of a single nonnegative orthant, the LP cone of
mixed-cone IPMs such as SDPA and SeDuMi: its x and s are vectors on those
blocks' columns of A, its Schur term scales those columns by x / s inside the
one product A T', its directions are entrywise, its step length is a ratio
test and its cone guard is x > 0, so the LAPACK calls of an iteration follow
only the blocks larger than 1x1.  A form without 1x1 blocks runs the
per-block matrix arithmetic alone.

Search direction is HKM with a Mehrotra predictor-corrector.  Free scalars
are kept as genuinely free columns of the Schur system: each iteration forms
the bordered KKT matrix K = [[M, D], [D', 0]] (M the HKM Schur complement, D
the free columns) and factors it once, as the inverse of K after a
quasi-definite diagonal shift (+delta on M's block, relative to M's largest
diagonal entry, and -delta' on the free block, relative to D's largest
entry).  The predictor and the corrector are each refined against the
unshifted K for as long as a step at least halves the residual, so the shift
only damps the directions of K whose eigenvalues lie near or below it.

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

from dataclasses import dataclass, field
from typing import List, Optional

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


def _max_step(L: np.ndarray, delta: np.ndarray) -> float:
    """Largest t with M + t*delta >= 0 given M = L L'."""
    if L.shape[0] == 0:
        return np.inf
    w = np.linalg.solve(L, delta)
    w = np.linalg.solve(L, w.T).T
    lam = float(np.linalg.eigvalsh((w + w.T) / 2.0)[0])
    if lam >= -1e-14:
        return np.inf
    return -1.0 / lam


def _chol(mat: np.ndarray) -> Optional[np.ndarray]:
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        return None


def _kkt_inverse(K: np.ndarray, m: int) -> Optional[np.ndarray]:
    """The one factorization of an iteration: the inverse of the bordered
    matrix K = [[M, D], [D', 0]] (M is the leading m x m block) after a
    quasi-definite diagonal shift, +_KKT_SHIFT * max diag(M) on M's block and
    -_KKT_SHIFT * max |D|^2 on the free block.  The shift keeps the factored
    matrix nonsingular when rounding leaves M indefinite or D has dependent
    columns.  K is left unshifted.  Returns None when the shifted matrix
    still cannot be inverted."""
    diag = np.einsum("ii->i", K)
    top = float(np.max(diag[:m])) if m else 0.0
    dmax = float(np.max(np.abs(K[:m, m:]))) if K[:m, m:].size else 0.0
    saved = diag.copy()
    diag[:m] += _KKT_SHIFT * (top if top > 0.0 else 1.0)
    diag[m:] -= _KKT_SHIFT * (dmax * dmax if dmax > 0.0 else 1.0)
    try:
        inv = np.linalg.inv(K)
    except np.linalg.LinAlgError:
        inv = None
    diag[:] = saved
    if inv is None or not np.all(np.isfinite(inv)):
        return None
    return inv


def _kkt_solve(K: np.ndarray, Kinv: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve K sol = rhs with the shifted inverse, refined against the
    unshifted K for as long as each step at least halves the residual."""
    sol = Kinv @ rhs
    res = rhs - K @ sol
    rn = float(np.linalg.norm(res))
    while rn > 0.0:
        cand = sol + Kinv @ res
        cres = rhs - K @ cand
        cn = float(np.linalg.norm(cres))
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
    and X, S and y are lifted back to its shape.  Each iteration factors the
    bordered KKT matrix once (see the module docstring) and refines both
    directions against the unshifted matrix.  The 1x1 blocks are solved
    together as one nonnegative orthant.
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
    psd = [(o, d) for o, d in zip(form.off, dims) if d != 1]
    lp = np.array([o for o, d in zip(form.off, dims) if d == 1], dtype=np.intp)

    def views(w):
        return [w[..., o:o + d * d].reshape(w.shape[:-1] + (d, d)) for o, d in psd]

    C, cl, Alp = views(form.c), form.c[lp], A[:, lp]
    # T's block b holds the rows X_b A_kb Sinv_b of the Schur product
    T = np.empty_like(A)
    Ab, Tb = views(A), views(T)

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

        Ls = [_chol(sb) for sb in S]
        Lx = [_chol(xb) for xb in X]
        if (any(l is None for l in Ls) or any(l is None for l in Lx)
                or not (np.all(x > 0.0) and np.all(s > 0.0))):
            status = "numerical_failure"
            break
        Sinv = []
        for l in Ls:
            inv = np.linalg.solve(l, np.eye(len(l)))
            Sinv.append(inv.T @ inv)

        # HKM Schur complement M_kl = sum_b <A_kb, X_b A_lb Sinv_b> = (A T')_kl,
        # formed in place as the leading block of K = [[M, D], [D', 0]]; the
        # orthant's columns of T are its columns of A scaled by x / s
        for a, t, xb, si in zip(Ab, Tb, X, Sinv):
            np.matmul(xb, a @ si, out=t)
        T[:, lp] = Alp * (x / s)
        K = np.zeros((m + nf, m + nf))
        M = K[:m, :m]
        np.matmul(A, T.T, out=M)
        M[...] = (M + M.T) / 2.0
        K[:m, m:] = D
        K[m:, :m] = D.T
        Kinv = _kkt_inverse(K, m)
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
            ap = min([1.0] + [frac * _max_step(l, d) for l, d in zip(Lx, views(dxv))]
                     + [frac * _ratio_step(x, dxv[lp])])
            ad = min([1.0] + [frac * _max_step(l, d) for l, d in zip(Ls, views(dsv))]
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

        # guard against rounding past the cone boundary
        for _ in range(30):
            xa = xv + ap * dxv
            if np.all(xa[lp] > 0.0) and all(_chol(w) is not None for w in views(xa)):
                break
            ap *= 0.8
        for _ in range(30):
            sa = sv + ad * dsv
            if np.all(sa[lp] > 0.0) and all(_chol(w) is not None for w in views(sa)):
                break
            ad *= 0.8

        xv = xv + ap * dxv
        sv = sv + ad * dsv
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
