"""Dense primal-dual interior-point method for block SDPs in standard form.

Standard form:  min sum_b <C_b, X_b> + cf.u
                s.t. sum_b <A_kb, X_b> + d_k.u = b_k,   X_b >= 0, u free.

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
of that block to vanish, so the block is shrunk before iterating.  Whenever
the pass shrinks a block, the returned solution is flagged marginal, since
the original problem had no strictly feasible point; rows left empty
(0 = 0) are dropped without that flag.  One solve is
deterministic: fixed operation order, no randomness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np


@dataclass
class StdRow:
    blocks: Dict[int, np.ndarray]
    free: Dict[int, float]
    rhs: float


@dataclass
class StdForm:
    dims: List[int]
    C: List[np.ndarray]
    rows: List[StdRow]
    n_free: int
    free_obj: np.ndarray
    b: np.ndarray


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
class _Reduction:
    keep: List[List[int]]        # kept original indices per original block
    kept_rows: List[int]
    reduced: bool


def relative_gap(pobj: float, dobj: float) -> float:
    """Duality gap relative to the objectives' size, as SDPA measures it:
    |pobj - dobj| / max(1, (|pobj| + |dobj|) / 2)."""
    return abs(pobj - dobj) / max(1.0, (abs(pobj) + abs(dobj)) / 2.0)


def _facial_reduce(form: StdForm):
    """Shrink blocks along diagonal entries pinned to zero.

    Returns (reduced form, reduction map) or (None, None) when a pinned
    entry makes the problem structurally infeasible.
    """
    dims = list(form.dims)
    keep = [list(range(d)) for d in dims]
    rows = [StdRow({b: a.copy() for b, a in r.blocks.items()}, dict(r.free), r.rhs)
            for r in form.rows]
    alive = [True] * len(rows)
    C = [c.copy() for c in form.C]
    reduced = False

    def drop(b: int, orig_i: int) -> bool:
        pos = keep[b].index(orig_i)
        keep[b].pop(pos)
        C[b] = np.delete(np.delete(C[b], pos, 0), pos, 1)
        for r in rows:
            if b in r.blocks:
                a = np.delete(np.delete(r.blocks[b], pos, 0), pos, 1)
                if np.any(a):
                    r.blocks[b] = a
                else:
                    del r.blocks[b]
        return True

    changed = True
    while changed:
        changed = False
        for k, r in enumerate(rows):
            if not alive[k] or r.free:
                continue
            live_blocks = {b: a for b, a in r.blocks.items() if np.any(a)}
            if not live_blocks:
                if r.rhs != 0.0:
                    return None, None
                alive[k] = False
                continue
            if len(live_blocks) != 1:
                continue
            (b, a), = live_blocks.items()
            nz = np.argwhere(a != 0.0)
            if len(nz) != 1 or nz[0][0] != nz[0][1]:
                continue
            i = int(nz[0][0])
            pinned = r.rhs / a[i, i]
            if pinned < 0.0:
                return None, None
            if pinned > 0.0:
                continue
            reduced = True
            alive[k] = False
            changed = changed or drop(b, keep[b][i])

    out_rows, kept_rows = [], []
    for k, r in enumerate(rows):
        if not alive[k]:
            continue
        if not r.blocks and not r.free:
            if r.rhs != 0.0:
                return None, None
            continue
        kept_rows.append(k)
        out_rows.append(r)

    red = StdForm(
        dims=[len(k) for k in keep],
        C=C,
        rows=out_rows,
        n_free=form.n_free,
        free_obj=form.free_obj,
        b=np.array([r.rhs for r in out_rows], dtype=float),
    )
    return red, _Reduction(keep=keep, kept_rows=kept_rows, reduced=reduced)


def _stack_rows(form: StdForm):
    """Dense per-block row stacks A[b] of shape (m, dim_b, dim_b) and the
    free-coefficient matrix D of shape (m, n_free)."""
    m = len(form.rows)
    stacks = []
    for b, d in enumerate(form.dims):
        a = np.zeros((m, d, d))
        for k, r in enumerate(form.rows):
            if b in r.blocks:
                a[k] = r.blocks[b]
        stacks.append(a)
    D = np.zeros((m, form.n_free))
    for k, r in enumerate(form.rows):
        for j, c in r.free.items():
            D[k, j] = c
    return stacks, D


def _apply_A(stacks, X):
    """A(X)_k = sum_b <A_kb, X_b>."""
    m = stacks[0].shape[0] if stacks else 0
    out = np.zeros(m)
    if m == 0:
        return out
    for a, x in zip(stacks, X):
        if x.size:
            out += a.reshape(m, -1) @ x.reshape(-1)
    return out


def _apply_At(stacks, y, b):
    """A*_b(y) = sum_k y_k A_kb."""
    return np.tensordot(y, stacks[b], axes=(0, 0))


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


def solve_std(form: StdForm, tol: float = 1e-8, max_iter: int = 200) -> StdResult:
    """Solve a standard-form SDP from the scaled identity.

    Each iteration factors the bordered KKT matrix once (see the module
    docstring) and refines both directions against the unshifted matrix.
    ``optimal`` means pres <= tol, dres <= tol and relative_gap(pobj, dobj)
    <= tol, so the absolute gap is at most tol * max(1, (|pobj| + |dobj|)
    / 2), on iterates no larger than ITERATE_CAP times the data scale.  A
    run that stops otherwise returns the best iterate it saw.
    """
    red, rmap = _facial_reduce(form)
    if red is None:
        return StdResult(
            status="primal_infeasible_cert", pobj=np.nan, dobj=np.nan,
            relgap=np.inf, pres=np.inf, dres=np.inf, iterations=0,
            X=[np.zeros((d, d)) for d in form.dims],
            S=[np.zeros((d, d)) for d in form.dims],
            y=np.zeros(len(form.rows)), u=np.zeros(form.n_free), marginal=True)

    res = _solve_core(red, tol, max_iter)

    if rmap.reduced:
        X = [np.zeros((d, d)) for d in form.dims]
        S = [np.zeros((d, d)) for d in form.dims]
        for b, k in enumerate(rmap.keep):
            X[b][np.ix_(k, k)] = res.X[b]
            S[b][np.ix_(k, k)] = res.S[b]
        res.X, res.S = X, S
        res.marginal = True
    # rows dropped as empty (0 = 0) get a zero multiplier; they remove no
    # interior, so they alone do not make the solution marginal
    if len(rmap.kept_rows) != len(form.rows):
        y = np.zeros(len(form.rows))
        y[rmap.kept_rows] = res.y
        res.y = y
    return res


def _solve_core(form: StdForm, tol: float, max_iter: int) -> StdResult:
    dims = form.dims
    nblk = len(dims)
    m = len(form.rows)
    nf = form.n_free
    nu = max(sum(dims), 1)

    stacks, D = _stack_rows(form)
    b = form.b
    cf = form.free_obj
    scale = 1.0 + max(
        float(np.max(np.abs(b))) if m else 0.0,
        float(np.sqrt(sum(np.sum(c * c) for c in form.C))),
    )

    X = [scale * np.eye(d) for d in dims]
    S = [scale * np.eye(d) for d in dims]
    y = np.zeros(m)
    u = np.zeros(nf)

    status = "max_iter"
    marginal = False
    diverged = False
    it = 0
    pres = dres = relgap = np.inf
    pobj = dobj = np.nan
    best = None          # (error, X, S, y, u, pobj, dobj, pres, dres, relgap)
    best_age = 0

    for it in range(max_iter + 1):
        rp = b - _apply_A(stacks, X) - (D @ u if nf else 0.0)
        rf = cf - D.T @ y if nf else np.zeros(0)
        Rd = [form.C[i] - S[i] - _apply_At(stacks, y, i) for i in range(nblk)]

        pobj = sum(float(np.sum(c * x)) for c, x in zip(form.C, X))
        pobj += float(cf @ u) if nf else 0.0
        dobj = float(b @ y) if m else 0.0
        mu = sum(float(np.sum(x * s)) for x, s in zip(X, S)) / nu

        pres = float(np.linalg.norm(rp)) / (1.0 + float(np.linalg.norm(b)))
        fres = (float(np.linalg.norm(rf)) / (1.0 + float(np.linalg.norm(cf)))
                if nf else 0.0)
        dres = max(
            float(np.sqrt(sum(np.sum(r * r) for r in Rd)))
            / (1.0 + float(np.sqrt(sum(np.sum(c * c) for c in form.C)))),
            fres,
        )
        relgap = relative_gap(pobj, dobj)

        itnorm = max(
            [float(np.linalg.norm(x)) for x in X + S if x.size]
            + [float(np.max(np.abs(y))) if m else 0.0,
               float(np.max(np.abs(u))) if nf else 0.0]
        )
        err = max(pres, dres, relgap)
        if itnorm <= ITERATE_CAP * scale and (best is None or err < best[0]):
            best = (err, [x.copy() for x in X], [s.copy() for s in S],
                    y.copy(), u.copy(), pobj, dobj, pres, dres, relgap)
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

        Ls = [_chol(s) for s in S]
        Lx = [_chol(x) for x in X]
        if any(l is None for l in Ls) or any(l is None for l in Lx):
            status = "numerical_failure"
            break
        Sinv = []
        for i, l in enumerate(Ls):
            inv = np.linalg.solve(l, np.eye(dims[i]))
            Sinv.append(inv.T @ inv)

        # HKM Schur complement M_kl = sum_b <A_kb, X_b A_lb Sinv_b>, formed
        # in place as the leading block of K = [[M, D], [D', 0]]
        K = np.zeros((m + nf, m + nf))
        M = K[:m, :m]
        XRdSinv = []
        for i in range(nblk):
            XRdSinv.append(X[i] @ Rd[i] @ Sinv[i])
            if m == 0:
                continue
            a = stacks[i]
            P = np.matmul(a, Sinv[i])
            T = np.matmul(X[i], P)
            M += a.reshape(m, -1) @ T.reshape(m, -1).T
        M[...] = (M + M.T) / 2.0
        K[:m, m:] = D
        K[m:, :m] = D.T
        Kinv = _kkt_inverse(K, m)
        if Kinv is None:
            status = "numerical_failure"
            break

        def directions(Rc):
            h = rp.copy()
            for i in range(nblk):
                if m == 0:
                    continue
                a = stacks[i].reshape(m, -1)
                h -= a @ (Rc[i] @ Sinv[i]).reshape(-1)
                h += a @ XRdSinv[i].reshape(-1)
            sol = _kkt_solve(K, Kinv, np.concatenate([h, rf]))
            dy, du = sol[:m], sol[m:]
            dS = [Rd[i] - _apply_At(stacks, dy, i) for i in range(nblk)]
            dX = []
            for i in range(nblk):
                v = (Rc[i] - X[i] @ dS[i]) @ Sinv[i]
                dX.append((v + v.T) / 2.0)
            return dX, dS, dy, du

        # predictor
        Rc_aff = [-(X[i] @ S[i]) for i in range(nblk)]
        dXa, dSa, _, _ = directions(Rc_aff)
        ap = min([1.0] + [_max_step(Lx[i], dXa[i]) for i in range(nblk)])
        ad = min([1.0] + [_max_step(Ls[i], dSa[i]) for i in range(nblk)])
        mu_aff = sum(
            float(np.sum((X[i] + ap * dXa[i]) * (S[i] + ad * dSa[i])))
            for i in range(nblk)
        ) / nu
        sigma = min(1.0, max((mu_aff / mu) ** 3 if mu > 0 else 0.0, 1e-10))

        # corrector
        Rc = [sigma * mu * np.eye(dims[i]) - X[i] @ S[i] - dXa[i] @ dSa[i]
              for i in range(nblk)]
        dX, dS, dy, du = directions(Rc)
        ap = min([1.0] + [STEP_FRACTION * _max_step(Lx[i], dX[i]) for i in range(nblk)])
        ad = min([1.0] + [STEP_FRACTION * _max_step(Ls[i], dS[i]) for i in range(nblk)])

        # guard against rounding past the cone boundary
        for _ in range(30):
            if all(_chol(X[i] + ap * dX[i]) is not None for i in range(nblk)):
                break
            ap *= 0.8
        for _ in range(30):
            if all(_chol(S[i] + ad * dS[i]) is not None for i in range(nblk)):
                break
            ad *= 0.8

        for i in range(nblk):
            X[i] = X[i] + ap * dX[i]
            S[i] = S[i] + ad * dS[i]
        y = y + ad * dy
        if nf:
            u = u + ap * du

    # a stalled run ends at its best iterate, not wherever it drifted
    if status != "optimal" and best is not None and best[0] < max(pres, dres, relgap):
        _, X, S, y, u, pobj, dobj, pres, dres, relgap = best

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
        X=X,
        S=S,
        y=y,
        u=u,
        marginal=marginal,
    )
