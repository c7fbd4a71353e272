"""Batch command-line front end.

Commands mirror the pipeline: build a relaxation, optionally reduce it by
symmetry, solve, extract a certificate and re-verify.  All results are JSON,
with NaN and infinities written as null (human tables are rendered from the
JSON, never computed separately); output is deterministic for a fixed config
and seed.  Exit codes: 0 conclusive, 2 inconclusive solve, 1 error,
a usage error included (argparse's own 2 would read as inconclusive).
SOSKIT_LOG=debug|info|quiet controls stderr verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import random
import sys
from functools import cache
from math import comb, isfinite
from pathlib import Path

import numpy as np

from soskit import apcount, graphs, relax, sdp, symmetry

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INCONCLUSIVE = 2
ORACLE_MAX_SUBSETS = 10 ** 6  # apcount density reports W up to this many D-subsets


class CliError(Exception):
    pass


def _setup_logging():
    level = os.environ.get("SOSKIT_LOG", "quiet").lower()
    levels = {"debug": logging.DEBUG, "info": logging.INFO, "quiet": logging.ERROR}
    logging.basicConfig(stream=sys.stderr, level=levels.get(level, logging.ERROR),
                        format="soskit: %(message)s")


def _finite(v):
    """``v`` with every NaN and infinity written as None: JSON has neither."""
    if isinstance(v, float):
        return v if isfinite(v) else None
    if isinstance(v, dict):
        return {k: _finite(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_finite(x) for x in v]
    return v


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(_finite(payload), indent=2, sort_keys=True, allow_nan=False) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _load_json(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise CliError(f"input file not found: {path}")
    except json.JSONDecodeError as e:
        raise CliError(f"malformed JSON in {path}: {e}")


def _load_program(path: str) -> relax.PolyProgram:
    data = _load_json(path)
    for field in ("n", "objective"):
        if field not in data:
            raise CliError(f"program file {path} missing field {field!r}")
    try:
        return relax.PolyProgram.from_json(data)
    except (KeyError, ValueError, TypeError) as e:
        raise CliError(f"bad program in {path}: {e}")


def _load_graph(path: str) -> graphs.Graph:
    try:
        return graphs.Graph.parse_edge_list(Path(path).read_text())
    except FileNotFoundError:
        raise CliError(f"input file not found: {path}")
    except ValueError as e:
        raise CliError(f"bad edge list in {path}: {e}")


def _load_sdpa(path: str) -> sdp.SdpProblem:
    try:
        return sdp.import_sdpa(Path(path).read_text())
    except FileNotFoundError:
        raise CliError(f"input file not found: {path}")
    except ValueError as e:
        raise CliError(f"bad SDPA file {path}: {e}")


def _tolerance(text: str) -> float:
    """A --tol value: a finite positive number, else a usage error."""
    try:
        value = float(text)
    except ValueError:
        value = float("nan")
    if not (isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be a finite positive number, got {text!r}")
    return value


def _checked_order(prog: relax.PolyProgram, s: int) -> int:
    try:
        relax.check_order(prog, s)
    except ValueError as e:
        raise CliError(str(e))
    return s


def _status_exit(status: str) -> int:
    return EXIT_OK if status == sdp.OPTIMAL else EXIT_INCONCLUSIVE


def _poly_values(polys, pts: np.ndarray) -> np.ndarray:
    """Each polynomial's value (a column) at each point (a row of pts): the
    value of every monomial that occurs, from a table of the coordinates'
    powers, times the coefficient columns."""
    col: dict = {}
    for p in polys:
        for m in p.terms:
            col.setdefault(m, len(col))
    coef = np.zeros((len(col), len(polys)))
    for j, p in enumerate(polys):
        for m, c in p.terms.items():
            coef[col[m], j] = float(c)
    exps = np.array(list(col), dtype=np.intp).reshape(len(col), pts.shape[1])
    powers = pts[:, :, None] ** np.arange(exps.max(initial=0) + 1)
    V = np.ones((len(pts), len(col)))
    for i, e in enumerate(exps.T):
        V *= powers[:, i, e]
    return V @ coef


def _spot_check(prog: relax.PolyProgram, lam: float, seed: int, tol: float) -> dict:
    """Sample box points, keep the feasible ones, and confirm f >= lambda.

    The 2000 points are the draws of random.Random(seed).uniform(-1.5, 1.5),
    a point's n coordinates in turn (uniform's a + (b - a) * random(),
    applied to all draws at once).  The constraints are evaluated on all
    points at once, and f on the feasible ones."""
    rng = random.Random(seed)
    u = np.array([rng.random() for _ in range(2000 * prog.n)]).reshape(-1, prog.n)
    pts = -1.5 + 3.0 * u
    k = len(prog.ineqs)
    cons = _poly_values([*prog.ineqs, *prog.eqs], pts)
    feasible = (np.all(cons[:, :k] >= -1e-9, axis=1)
                & np.all(np.abs(cons[:, k:]) <= 1e-7, axis=1))
    f = _poly_values([prog.objective], pts[feasible])[:, 0]
    return {"feasible_samples": int(np.count_nonzero(feasible)),
            "objective_below_bound": int(np.count_nonzero(f < lam - 1e-6 - tol))}


def cmd_pop_solve(args) -> int:
    prog = _load_program(args.program)
    if args.moment and args.cert_out:
        raise CliError("--cert-out needs the SOS side; the moment side has no certificate")
    s = _checked_order(prog, args.order)
    if args.moment:
        prob, _ = relax.build_moment_primal(prog, s)
        sol = sdp.solve(prob, tol=args.tol)
        payload = {
            "problem": "pop-moment",
            "params": {"order": s, "seed": args.seed},
            "bound": sol.primal_obj,
            "result": sol.to_json(),
        }
        _emit(payload, args.out)
        return _status_exit(sol.status)

    prob, info = relax.build_sos_dual(prog, s)
    sol = sdp.solve(prob, tol=args.tol)
    payload = {
        "problem": "pop-sos",
        "params": {"order": s, "seed": args.seed},
        "bound": sol.primal_obj,
        "result": sol.to_json(),
        "certificate_path": None,
    }
    if sol.status == sdp.OPTIMAL:
        cert = relax.extract_certificate(sol, info, prog)
        # an exact certificate has already verified exactly in extract_certificate
        payload["verified"] = (cert.mode == relax.EXACT
                               or relax.verify_certificate(prog, cert, mode=cert.mode).ok())
        payload["certificate_mode"] = cert.mode
        payload["spot_check"] = _spot_check(prog, float(cert.lam), args.seed, args.tol)
        if args.cert_out:
            Path(args.cert_out).write_text(json.dumps(cert.to_json(), indent=2,
                                                      sort_keys=True) + "\n")
            payload["certificate_path"] = args.cert_out
    _emit(payload, args.out)
    return _status_exit(sol.status)


def cmd_pop_sos_check(args) -> int:
    prog = _load_program(args.program)
    if prog.ineqs or prog.eqs:
        raise CliError("sos-check takes an unconstrained program (objective only)")
    d = args.order // 2
    try:
        res = relax.check_sos(prog.objective, d, tol=args.tol)
    except ValueError as e:
        raise CliError(str(e))
    payload = {
        "problem": "sos-check",
        "params": {"order": args.order, "basis_degree": d, "seed": args.seed},
        "status": res.status,
        "margin": res.margin,
        "solver_status": res.solver_status,
    }
    if res.certificate is not None and args.cert_out:
        Path(args.cert_out).write_text(
            json.dumps(res.certificate.to_json(), indent=2, sort_keys=True) + "\n")
        payload["certificate_path"] = args.cert_out
    _emit(payload, args.out)
    return EXIT_OK if res.status in ("feasible", "infeasible") else EXIT_INCONCLUSIVE


def cmd_cert_verify(args) -> int:
    prog = _load_program(args.program)
    data = _load_json(args.certificate)
    try:
        cert = relax.Certificate.from_json(data, prog.n)
    except (KeyError, ValueError, TypeError) as e:
        raise CliError(f"bad certificate in {args.certificate}: {e}")
    if cert.mode != relax.EXACT:
        raise CliError("cert verify requires a rational certificate")
    try:
        verdict = relax.verify_certificate(prog, cert, mode=relax.EXACT)
    except ValueError as e:
        raise CliError(str(e))
    residual_terms = len(verdict.identity_residual.terms)
    payload = {
        "problem": "cert-verify",
        "residual_terms": residual_terms,
        "psd_ok": verdict.psd_ok,
        "psd_failures": verdict.psd_failures,
        "ok": verdict.ok(),
    }
    _emit(payload, args.out)
    print(f"residual terms: {residual_terms}", file=sys.stderr)
    return EXIT_OK if verdict.ok() else EXIT_ERROR


def cmd_sdp_solve(args) -> int:
    prob = _load_sdpa(args.file)
    sol = sdp.solve(prob, tol=args.tol)
    _emit(sol.to_json(), args.out)
    return _status_exit(sol.status)


def cmd_sdp_export(args) -> int:
    prog = _load_program(args.program)
    s = _checked_order(prog, args.order)
    if args.moment:
        prob, _ = relax.build_moment_primal(prog, s)
    else:
        prob, _ = relax.build_sos_dual(prog, s)
    form = sdp.to_sdpa_form(prob)
    text = sdp.export_sdpa(form)
    Path(args.file).write_text(text)
    _emit({
        "problem": "export-sdpa",
        "file": args.file,
        "variables": form.n_free,
        "blocks": [(-l.dim if l.diag else l.dim) for l in form.lmis],
        "objective_sign": -1 if prob.sense == "max" else 1,
    }, args.out)
    return EXIT_OK


def cmd_sdp_import(args) -> int:
    prob = _load_sdpa(args.file)
    roundtrip = sdp.structurally_equal(prob, sdp.import_sdpa(sdp.export_sdpa(prob)))
    _emit({
        "problem": "import-sdpa",
        "variables": prob.n_free,
        "blocks": [(-l.dim if l.diag else l.dim) for l in prob.lmis],
        "roundtrip_ok": roundtrip,
    }, args.out)
    return EXIT_OK


def cmd_sym_reduce(args) -> int:
    g = _load_graph(args.graph)
    try:
        action = symmetry.named_action(args.action)
    except ValueError as e:
        raise CliError(str(e))
    prob = graphs.theta_problem(g, prime=False)
    try:
        red = symmetry.reduce_sdp(prob, action)
    except ValueError as e:
        raise CliError(f"reduction failed: {e}")
    full = sdp.solve(prob, tol=args.tol)
    reduced = sdp.solve(red.problem, tol=args.tol)
    payload = {
        "problem": "sym-reduce-theta",
        "params": {"action": args.action},
        "orbit_count": red.basis.d,
        "full": full.to_json(),
        "reduced": reduced.to_json(),
        "agreement": abs(full.primal_obj - reduced.primal_obj),
    }
    _emit(payload, args.out)
    worst = max(_status_exit(full.status), _status_exit(reduced.status))
    return worst


def cmd_apcount_mono(args) -> int:
    try:
        prob, _ = apcount.build_mono_relaxation(args.n, use_symmetry=args.sym)
    except ValueError as e:
        raise CliError(str(e))
    sol = sdp.solve(prob, tol=args.tol)
    oracle = apcount.brute_force_R(args.n) if args.n <= 24 else None
    payload = {
        "problem": "apcount-mono",
        "params": {"n": args.n, "sym": bool(args.sym), "order": 2, "seed": args.seed},
        "bound": sol.primal_obj,
        "oracle": oracle,
        "result": sol.to_json(),
        "certificate_path": None,
    }
    _emit(payload, args.out)
    return _status_exit(sol.status)


def cmd_apcount_density(args) -> int:
    p, D = args.p, args.D
    if not 0 <= D <= p:
        raise CliError(f"need 0 <= D <= p, got D={D}, p={p}")
    try:
        lam = apcount.density_lambda(p, D)
        prob, _ = apcount.build_density_relaxation(p, D, use_symmetry=args.sym)
    except ValueError as e:
        raise CliError(str(e))
    sol = sdp.solve(prob, tol=args.tol)
    oracle = apcount.brute_force_W(p, D) if comb(p, D) <= ORACLE_MAX_SUBSETS else None
    payload = {
        "problem": "apcount-density",
        "params": {"p": p, "D": D, "sym": bool(args.sym), "order": 3,
                   "seed": args.seed},
        "bound": sol.primal_obj,
        "closed_form_lower": str(lam),
        "oracle": oracle,
        "result": sol.to_json(),
        "certificate_path": None,
    }
    if args.cert_out:
        cert = apcount.density_certificate(p, D)
        verdict = relax.verify_certificate(apcount.density_program(p, D), cert,
                                           mode=relax.EXACT)
        Path(args.cert_out).write_text(
            json.dumps(cert.to_json(), indent=2, sort_keys=True) + "\n")
        payload["certificate_path"] = args.cert_out
        payload["certificate_verified"] = verdict.ok()
    _emit(payload, args.out)
    return _status_exit(sol.status)


def _table_row(n: int) -> dict:
    brute = apcount.brute_force_R(n)
    lower, upper = apcount.cyclic_bound(n)
    prob, _ = apcount.build_mono_relaxation(n, use_symmetry=True)
    sol = sdp.solve(prob)
    violation = not (float(lower) - 1e-9 <= brute <= float(upper) + 1e-9)
    return {
        "n": n,
        "brute_force_R": brute,
        "table_lower": str(lower),
        "table_upper": str(upper),
        "sdp_bound": sol.primal_obj,
        "sdp_status": sol.status,
        "violation": violation,
    }


def cmd_apcount_tables(args) -> int:
    if not 3 <= args.min <= args.max <= 24:
        raise CliError("table range limited to 3 <= min <= max <= 24")
    if args.jobs < 1:
        raise CliError(f"--jobs must be at least 1, got {args.jobs}")
    ns = list(range(args.min, args.max + 1))
    if args.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # loaded for --jobs alone

        with ProcessPoolExecutor(max_workers=min(args.jobs, len(ns))) as pool:
            rows = list(pool.map(_table_row, ns))
    else:
        rows = [_table_row(n) for n in ns]
    payload = {
        "problem": "apcount-tables",
        "params": {"min": args.min, "max": args.max, "seed": args.seed},
        "rows": rows,
        "violations": [r["n"] for r in rows if r["violation"]],
    }
    _emit(payload, args.out)
    if args.pretty:
        cols = ["n", "brute_force_R", "table_lower", "table_upper", "sdp_bound"]
        widths = {c: max(len(c), max(len(str(r[c])) for r in rows)) for c in cols}
        header = " | ".join(c.ljust(widths[c]) for c in cols)
        print(header, file=sys.stderr)
        print("-" * len(header), file=sys.stderr)
        for r in rows:
            print(" | ".join(str(r[c]).ljust(widths[c]) for c in cols), file=sys.stderr)
    return EXIT_OK if not payload["violations"] else EXIT_ERROR


def cmd_theta(args, prime: bool) -> int:
    g = _load_graph(args.graph)
    sol, classes = graphs.theta(g, prime=prime, tol=args.tol)
    payload = {
        "problem": "theta-prime" if prime else "theta",
        "params": {"vertices": g.n, "edges": len(g.edges)},
        "bound": sol.primal_obj,
        "classes": classes,
        "result": sol.to_json(),
    }
    _emit(payload, args.out)
    return _status_exit(sol.status)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="soskit")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, order_default=None):
        p.add_argument("--tol", type=_tolerance, default=1e-8)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None)
        if order_default is not None:
            p.add_argument("--order", type=int, default=order_default)

    pop = sub.add_parser("pop", help="polynomial optimization programs")
    pop_sub = pop.add_subparsers(dest="subcommand", required=True)
    ps = pop_sub.add_parser("solve")
    ps.add_argument("program")
    ps.add_argument("--moment", action="store_true", help="solve the moment side")
    ps.add_argument("--cert-out", default=None)
    common(ps, order_default=2)
    ps.set_defaults(func=cmd_pop_solve)
    pc = pop_sub.add_parser("sos-check")
    pc.add_argument("program")
    pc.add_argument("--cert-out", default=None)
    common(pc, order_default=2)
    pc.set_defaults(func=cmd_pop_sos_check)

    cert = sub.add_parser("cert")
    cert_sub = cert.add_subparsers(dest="subcommand", required=True)
    cv = cert_sub.add_parser("verify")
    cv.add_argument("certificate")
    cv.add_argument("program")
    common(cv)
    cv.set_defaults(func=cmd_cert_verify)

    sd = sub.add_parser("sdp")
    sd_sub = sd.add_subparsers(dest="subcommand", required=True)
    ss = sd_sub.add_parser("solve")
    ss.add_argument("file")
    common(ss)
    ss.set_defaults(func=cmd_sdp_solve)
    se = sd_sub.add_parser("export-sdpa")
    se.add_argument("program")
    se.add_argument("file")
    se.add_argument("--moment", action="store_true")
    common(se, order_default=2)
    se.set_defaults(func=cmd_sdp_export)
    si = sd_sub.add_parser("import-sdpa")
    si.add_argument("file")
    common(si)
    si.set_defaults(func=cmd_sdp_import)

    sym = sub.add_parser("sym")
    sym_sub = sym.add_subparsers(dest="subcommand", required=True)
    sr = sym_sub.add_parser("reduce")
    sr.add_argument("--graph", required=True)
    sr.add_argument("--action", required=True, help="e.g. 'dihedral 5'")
    common(sr)
    sr.set_defaults(func=cmd_sym_reduce)

    apc = sub.add_parser("apcount")
    apc_sub = apc.add_subparsers(dest="subcommand", required=True)
    am = apc_sub.add_parser("mono")
    am.add_argument("--n", type=int, required=True)
    am.add_argument("--sym", action="store_true")
    common(am)
    am.set_defaults(func=cmd_apcount_mono)
    ad = apc_sub.add_parser("density")
    ad.add_argument("--p", type=int, required=True)
    ad.add_argument("--D", type=int, required=True)
    ad.add_argument("--sym", action="store_true")
    ad.add_argument("--cert-out", default=None)
    common(ad)
    ad.set_defaults(func=cmd_apcount_density)
    at = apc_sub.add_parser("tables")
    at.add_argument("--min", type=int, default=3)
    at.add_argument("--max", type=int, default=14)
    at.add_argument("--jobs", type=int, default=1)
    at.add_argument("--pretty", action="store_true")
    common(at)
    at.set_defaults(func=cmd_apcount_tables)

    th = sub.add_parser("theta")
    th_sub = th.add_subparsers(dest="subcommand", required=True)
    tc = th_sub.add_parser("compute")
    tc.add_argument("--graph", required=True)
    common(tc)
    tc.set_defaults(func=lambda a: cmd_theta(a, prime=False))
    tp = th_sub.add_parser("prime")
    tp.add_argument("--graph", required=True)
    common(tp)
    tp.set_defaults(func=lambda a: cmd_theta(a, prime=True))

    return ap


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parse_args leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    _setup_logging()
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:  # argparse exits 2 on a usage error, 0 after --help
        return EXIT_ERROR if e.code else EXIT_OK
    try:
        return args.func(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
