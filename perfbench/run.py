"""soskit benchmark: four closed-loop workloads, checked and timed.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each was chosen): density-sym,
pop-ball, theta-hamming, sym-mono.  The run sets up (imports, seeded input
files, reference oracles, one warm-up pass over a small job list), then
repeats timed passes over the workload's fixed job list for S seconds: at
least two passes, and no further pass once the next would end after S
seconds.  Every answer is checked.

With --trace 0 the last stdout line holds the end-to-end metrics.  With
--trace 1 the first half of the time runs untraced passes and the second
half traced ones, and the last line holds per-layer metrics from the traced
passes, including the tracing overhead.  The line before the last is a JSON
record of the machine, sample counts and quartiles; the same record, with
the spans of a traced run, is written to perfbench/out/.

BLAS and OpenMP run on one thread: the run sets OPENBLAS_NUM_THREADS,
OMP_NUM_THREADS and MKL_NUM_THREADS to 1 before numpy is imported, and
refuses to run if any of them is set to another value.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUPS = 5  # set-ups per run, this process plus SETUPS - 1 fresh ones
MIN_PASSES = 2  # untraced passes per run, however long a pass takes


def pin_threads() -> str | None:
    """Pin BLAS/OpenMP to one thread; return an error if one is overridden."""
    for var in THREAD_VARS:
        value = os.environ.setdefault(var, "1")
        if value != "1":
            return f"{var}={value} overrides the benchmark's single BLAS thread; unset it"
    return None


def machine() -> dict:
    import numpy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f'{blas.get("name")} {blas.get("version")}',
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def hd_quantile(values, q: float, size: int, grid: int = 20000) -> float:
    """Harrell-Davis estimate of the q-quantile: the order statistics
    weighted by a Beta((size+1)q, (size+1)(1-q)) density.  On a noisy host
    it varies far less from run to run than one order statistic.  `size` is
    the job list's length, so that the estimate does not depend on how many
    passes were pooled into `values`."""
    import numpy as np
    x = np.sort(np.asarray(values, dtype=float))
    if size == 1:
        return float(np.median(x))
    a, b = (size + 1) * q, (size + 1) * (1 - q)
    t = (np.arange(grid) + 0.5) / grid
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    cdf = np.concatenate([[0.0], np.cumsum(np.exp(
        log_norm + (a - 1) * np.log(t) + (b - 1) * np.log1p(-t)))])
    weights = np.diff(cdf[np.round(np.arange(len(x) + 1) * grid / len(x)).astype(int)])
    return float(weights @ x / weights.sum())


def quartiles(values) -> list:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def run_pass(jobs, tracer=None, index=0):
    from workloads import Outcome
    outcomes = []
    t0 = time.perf_counter()
    for k, job in enumerate(jobs):
        if tracer is not None:
            tracer.problem = [index, k]
        t = time.perf_counter()
        try:
            rc, data = job.call()
            error = None
        except (Exception, SystemExit):  # a crashed problem is counted, not fatal
            rc, data, error = None, None, traceback.format_exc(limit=3)
        outcomes.append(Outcome(job, time.perf_counter() - t, rc, data, error))
    return time.perf_counter() - t0, outcomes


def timed_passes(jobs, seconds, tracer=None, first=0, at_least=1):
    """Passes until another one, at the mean pass time, would end after
    `seconds`; at least `at_least` of them."""
    passes = []
    t0 = time.perf_counter()
    while True:
        passes.append(run_pass(jobs, tracer, first + len(passes)))
        done = len(passes)
        if done >= at_least and (time.perf_counter() - t0) * (done + 1) / done > seconds:
            return passes


def setup_child(workload: str, seed: int) -> float:
    """Set-up time of a fresh process, so caches of this one do not hide it."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--trace", "0", "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120,
                          check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def measure(name: str, seed: int, seconds: float, trace: bool, small: bool = False,
            setups: int = SETUPS, setup_only: bool = False) -> tuple[dict, dict]:
    """Run one workload; return (result line, detail record).

    `small` times the warm-up job list instead of the full one; the
    benchmark's own tests use it.
    """
    from workloads import WORKLOADS
    import tracing

    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        wl = WORKLOADS[name](seed, Path(tmp))
        wl.setup()
        warm = wl.jobs(small=True)
        run_pass(warm)
        setup_s = [time.perf_counter() - START]
        if setup_only:
            return {"setup_s": setup_s[0]}, {}
        setup_s += [setup_child(name, seed) for _ in range(setups - 1)]

        jobs = warm if small else wl.jobs()
        tracer = None
        if trace:
            plain = timed_passes(jobs, seconds / 2)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = timed_passes(jobs, seconds / 2, tracer, first=len(plain))
            finally:
                tracer.remove()
        else:
            plain = timed_passes(jobs, seconds, at_least=MIN_PASSES)
            traced = []
        outcomes = [o for _, pass_out in plain + traced for o in pass_out]
        verdicts = [v for _, pass_out in plain + traced for v in wl.verdicts(pass_out)]

    attempted = len(verdicts)
    failed = sum(v.failed for v in verdicts)
    optimal = sum(v.optimal for v in verdicts)
    bound_ok = sum(v.bound_ok for v in verdicts)
    solves = sum(v.solves for v in verdicts)
    certs = sum(v.cert_attempts for v in verdicts)
    cert_exact = sum(v.cert_exact for v in verdicts)
    timed = [o for _, pass_out in plain for o in pass_out]
    times = [o.seconds for o in timed]
    job_times = [t for t, _ in plain]
    detail = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "machine": machine(),
        "passes": len(plain), "traced_passes": len(traced),
        "job_s_quartiles": quartiles(job_times),
        "setup_s_samples": setup_s,
        "problem_times": [[str(o.job.key), o.seconds] for o in timed],
        "problem_samples": len(times),
        "samples_beyond_p90": len(times) - math.ceil(0.9 * len(times)),
        "optimal": [optimal, solves],
        "bound_ok": [bound_ok, attempted],
        "cert_exact": [cert_exact, certs],
        "failures": [[list(map(str, o.job.key)), o.error or f"rc={o.rc}"]
                     for o, v in zip(outcomes, verdicts) if v.failed],
        "bound_misses": sorted({str(o.job.key) for o, v in zip(outcomes, verdicts)
                                if not v.bound_ok}),
    }
    if trace:
        traced_job = statistics.median(t for t, _ in traced)
        metrics = tracing.layer_metrics(tracer, len(traced), traced_job)
        metrics["trace.overhead_s"] = traced_job - statistics.median(job_times)
        metrics["cert_exact_frac"] = cert_exact / certs if certs else 0.0
        detail["spans"] = len(tracer.spans)
        tracer.dump(OUT_DIR / f"spans-{name}-seed{seed}.json")
    else:
        metrics = {
            "job_s": statistics.median(job_times),
            "problem_p50_s": hd_quantile(times, 0.5, len(jobs)),
            "problem_p90_s": hd_quantile(times, 0.9, len(jobs)),
            "optimal_frac": optimal / solves,
            "bound_ok_frac": bound_ok / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": statistics.median(setup_s),
        }
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if trace else "end_to_end"]
    result = {
        "correct": failed == 0 and all(v.safe for v in verdicts),
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec},
    }
    return result, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up once and print the set-up time (used for set-up samples)")
    args = ap.parse_args(argv)

    error = pin_threads()
    if error is None and not (ROOT / "src" / "soskit" / "__init__.py").is_file():
        error = f"soskit sources not found under {ROOT / 'src'}"
    if error is None and not (ROOT / "BENCHMARK.json").is_file():
        error = f"{ROOT / 'BENCHMARK.json'} not found"
    if error is None:
        sys.path[:0] = [str(ROOT / "src"), str(HERE)]
        from workloads import WORKLOADS
        if args.workload not in WORKLOADS:
            error = f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}"
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return 2

    result, detail = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                             setup_only=args.setup_only)
    if detail:
        (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps({"result": result, **detail}, indent=1) + "\n")
        print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
