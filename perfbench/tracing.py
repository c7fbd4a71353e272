"""Span tracing of soskit's layers, installed from outside the package.

`Tracer.install()` replaces the layer entry points listed in `SPANS` with
wrappers that record one span per call: name, start, end, parent span and
problem id.  Each wrapper is bound in every soskit module namespace that
holds the original function, so `apcount.commutant_basis` is traced as well
as `symmetry.commutant_basis`.  `numpy.linalg.solve`, `cholesky` and
`eigvalsh` get call counters, attributed to the layer of the innermost open
span.  Spans stay in memory; `layer_metrics` turns them into per-layer self
times and counts, and `Tracer.dump` writes them out.

`poly` and `moment` are not wrapped: their entry points are per-term
polynomial arithmetic, and a wrapper per term would distort the trace.  Their
cost lands in the self time of the `relax.*` and `apcount.*` spans.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

# (module, attribute) -> span name.  A "Class.method" attribute is a
# staticmethod on that class.
SPANS = {
    ("soskit.cli", "main"): "cli.main",
    ("soskit.apcount", "build_density_relaxation"): "apcount.build_density_relaxation",
    ("soskit.apcount", "build_mono_relaxation"): "apcount.build_mono_relaxation",
    ("soskit.apcount", "brute_force_W"): "apcount.brute_force_W",
    ("soskit.apcount", "brute_force_R"): "apcount.brute_force_R",
    ("soskit.apcount", "density_certificate"): "apcount.density_certificate",
    ("soskit.apcount", "density_program"): "apcount.density_program",
    ("soskit.graphs", "Graph.parse_edge_list"): "graphs.parse_edge_list",
    ("soskit.graphs", "theta_problem"): "graphs.theta_problem",
    ("soskit.symmetry", "commutant_basis"): "symmetry.commutant_basis",
    ("soskit.symmetry", "reduce_sdp"): "symmetry.reduce_sdp",
    ("soskit.relax", "build_sos_dual"): "relax.build_sos_dual",
    ("soskit.relax", "build_moment_primal"): "relax.build_moment_primal",
    ("soskit.relax", "extract_certificate"): "relax.extract_certificate",
    ("soskit.relax", "verify_certificate"): "relax.verify_certificate",
    ("soskit.sdp", "solve"): "sdp.solve",
    ("soskit.sdp", "is_psd_exact"): "sdp.is_psd_exact",
    ("soskit.ipm", "solve_std"): "ipm.solve_std",
}

COUNTED = ("solve", "cholesky", "eigvalsh")  # numpy.linalg functions

IPM_STATUSES = ("optimal", "max_iter", "numerical_failure",
                "primal_infeasible_cert", "dual_infeasible_cert")


def _note(name, args, result):
    """Per-call facts kept on the span, beyond its timing."""
    if name == "ipm.solve_std":
        form = args[0]
        return {"rows": len(form.rows), "blocks": len(form.dims),
                "iterations": result.iterations, "status": result.status}
    if name == "symmetry.commutant_basis":
        return {"orbits": result.d}
    if name == "relax.extract_certificate":
        return {"mode": result.mode}
    return None


class Tracer:
    def __init__(self):
        self.spans = []     # [name, start, end, parent index or -1, problem, note]
        self.counts = Counter()
        self.problem = None
        self._stack = []
        self._undo = []

    def _span_wrapper(self, name, fn):
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                   self.problem, None]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                self._stack.pop()
            rec[5] = _note(name, args, result)
            return result
        traced.__wrapped__ = fn
        return traced

    def _count_wrapper(self, name, fn):
        def counted(*args, **kwargs):
            layer = self.spans[self._stack[-1]][0].split(".")[0] if self._stack else "harness"
            self.counts[f"{layer}.{name}"] += 1
            return fn(*args, **kwargs)
        counted.__wrapped__ = fn
        return counted

    def _rebind(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        import numpy
        modules = [m for k, m in sys.modules.items()
                   if (k == "soskit" or k.startswith("soskit.")) and m is not None]
        for (modname, attr), name in SPANS.items():
            mod = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                wrapper = self._span_wrapper(name, cls.__dict__[meth].__func__)
                self._rebind(cls, meth, staticmethod(wrapper))
                continue
            original = getattr(mod, attr)
            wrapper = self._span_wrapper(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._rebind(m, key, wrapper)
        for fname in COUNTED:
            self._rebind(numpy.linalg, fname,
                         self._count_wrapper(fname, getattr(numpy.linalg, fname)))

    def remove(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def dump(self, path: Path):
        path.write_text(json.dumps({
            "fields": ["name", "start", "end", "parent", "problem", "note"],
            "spans": self.spans,
            "counts": dict(self.counts),
        }) + "\n")


def layer_metrics(tracer: Tracer, passes: int, job_s: float) -> dict:
    """Per-pass totals by layer from the spans of `passes` traced passes.

    Named function times are inclusive; `<layer>.self_s` excludes the time
    covered by child spans of any layer.
    """
    spans = tracer.spans
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    total = Counter()
    calls = Counter()
    self_by_layer = Counter()
    self_by_name = Counter()
    facts = Counter()
    rows_max = 0
    ipm_children = Counter()
    for i, (name, start, end, parent, _problem, note) in enumerate(spans):
        dur = end - start
        total[name] += dur
        calls[name] += 1
        self_by_layer[name.split(".")[0]] += dur - child[i]
        self_by_name[name] += dur - child[i]
        if name == "ipm.solve_std":
            facts["iterations"] += note["iterations"]
            facts["blocks"] += note["blocks"]
            facts["status." + note["status"]] += 1
            rows_max = max(rows_max, note["rows"])
            if parent >= 0 and spans[parent][0] == "sdp.solve":
                ipm_children[parent] += 1
        elif name == "symmetry.commutant_basis":
            facts["orbits"] += note["orbits"]
        elif name == "relax.extract_certificate":
            facts["cert_exact"] += note["mode"] == "exact"

    def per_pass(v):
        return v / passes

    top = sum(e - s for _, s, e, parent, _, _ in spans if parent < 0)
    build = (total["apcount.build_density_relaxation"] + total["apcount.build_mono_relaxation"]
             + _outside(spans, ("symmetry.",), ("apcount.build_",)))
    retries = sum(1 for n in ipm_children.values() if n > 1)
    out = {
        "trace.job_s": job_s,
        "harness.self_s": job_s - per_pass(top),
        "cli.self_s": per_pass(self_by_layer["cli"]),
        "apcount.self_s": per_pass(self_by_layer["apcount"]),
        "apcount.build_s": per_pass(self_by_name["apcount.build_density_relaxation"]
                                    + self_by_name["apcount.build_mono_relaxation"]),
        "apcount.oracle_s": per_pass(total["apcount.brute_force_W"] + total["apcount.brute_force_R"]),
        "apcount.certificate_s": per_pass(total["apcount.density_certificate"]
                                          + total["apcount.density_program"]),
        "graphs.self_s": per_pass(self_by_layer["graphs"]),
        "graphs.build_s": per_pass(total["graphs.parse_edge_list"] + total["graphs.theta_problem"]),
        "symmetry.self_s": per_pass(self_by_layer["symmetry"]),
        "symmetry.commutant_basis_s": per_pass(total["symmetry.commutant_basis"]),
        "symmetry.commutant_basis_calls": per_pass(calls["symmetry.commutant_basis"]),
        "symmetry.orbits": per_pass(facts["orbits"]),
        "symmetry.reduce_sdp_s": per_pass(total["symmetry.reduce_sdp"]),
        "relax.self_s": per_pass(self_by_layer["relax"]),
        "relax.build_s": per_pass(total["relax.build_sos_dual"] + total["relax.build_moment_primal"]),
        "relax.build_calls": per_pass(calls["relax.build_sos_dual"] + calls["relax.build_moment_primal"]),
        "relax.extract_s": per_pass(total["relax.extract_certificate"]),
        "relax.verify_s": per_pass(total["relax.verify_certificate"]),
        "relax.cert_attempts": per_pass(calls["relax.extract_certificate"]),
        "relax.cert_exact": per_pass(facts["cert_exact"]),
        "sdp.solve_s": per_pass(total["sdp.solve"]),
        "sdp.solve_calls": per_pass(calls["sdp.solve"]),
        "sdp.self_s": per_pass(self_by_name["sdp.solve"]),
        "sdp.retry_frac": retries / calls["sdp.solve"] if calls["sdp.solve"] else 0.0,
        "sdp.psd_exact_s": per_pass(total["sdp.is_psd_exact"]),
        "sdp.psd_exact_calls": per_pass(calls["sdp.is_psd_exact"]),
        "ipm.solve_std_s": per_pass(total["ipm.solve_std"]),
        "ipm.solve_std_calls": per_pass(calls["ipm.solve_std"]),
        "ipm.iterations": per_pass(facts["iterations"]),
        "ipm.s_per_iter": total["ipm.solve_std"] / facts["iterations"] if facts["iterations"] else 0.0,
        "ipm.rows_max": rows_max,
        "ipm.blocks_total": per_pass(facts["blocks"]),
        "ipm.linalg_solve_calls": per_pass(tracer.counts["ipm.solve"]),
        "ipm.cholesky_calls": per_pass(tracer.counts["ipm.cholesky"]),
        "ipm.eigvalsh_calls": per_pass(tracer.counts["ipm.eigvalsh"]),
        "share.sym_apcount_build": per_pass(build) / job_s,
        "share.relax_extract": per_pass(total["relax.extract_certificate"]) / job_s,
        "share.ipm_solve_std": per_pass(total["ipm.solve_std"]) / job_s,
    }
    for status in IPM_STATUSES:
        out["ipm.status." + status] = per_pass(facts["status." + status])
    return out


def _outside(spans, prefixes, excluded) -> float:
    """Inclusive time of outermost spans named with one of `prefixes` that
    have no ancestor named with one of `excluded` or `prefixes`."""
    total = 0.0
    for name, start, end, parent, _, _ in spans:
        if not name.startswith(prefixes):
            continue
        p = parent
        while p >= 0 and not spans[p][0].startswith(prefixes + excluded):
            p = spans[p][3]
        if p < 0:
            total += end - start
    return total
