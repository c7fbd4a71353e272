"""The benchmark's four workloads: inputs, job lists and correctness checks.

Every workload is a closed loop: one problem at a time, in one process.
CLI jobs call `soskit.cli.main` in-process with `--out` pointing at a file
whose JSON is read back for the checks; sym-mono's relaxations call the
library.  `jobs(small=True)` is one small problem of each kind, used as the
warm-up pass and by the benchmark's own tests.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from soskit import apcount, cli, graphs, sdp
from soskit.poly import monomials_up_to_degree

TOL = 1e-6  # absolute slack of every bound check, as in the acceptance gates
OPTIMAL = sdp.OPTIMAL

# Exact code sizes A_q(n, d): the largest q-ary code of length n and minimum
# distance d, i.e. the independence number of hamming_graph(q, n, d).
# A_q(n, 2) = q^(n-1) (single parity check, meeting the Singleton bound);
# A_2(4, 3) = 2 and A_2(5, 3) = 4 are from the table of A(n, d) in
# MacWilliams & Sloane, "The Theory of Error-Correcting Codes" (1977), Ch. 17.
CODE_SIZES = {(2, 3, 2): 4, (2, 4, 2): 8, (2, 4, 3): 2, (2, 5, 3): 4, (3, 3, 2): 9}


@dataclass
class Job:
    """One problem: `call` runs it and returns (exit code or None, output)."""
    key: tuple
    call: Callable[[], Tuple[Optional[int], dict]]
    solves: int = 1


@dataclass
class Outcome:
    job: Job
    seconds: float
    rc: Optional[int] = None
    data: Optional[dict] = None
    error: Optional[str] = None


@dataclass
class Verdict:
    """Checks of one problem.  `failed`: crashed, refused, or an exit code
    that contradicts its status.  `bound_ok`: passes the workload's check.
    `safe`: no claimed-optimal bound on the wrong side of the truth."""
    failed: bool
    bound_ok: bool
    safe: bool
    optimal: int
    solves: int
    cert_attempts: int = 0
    cert_exact: int = 0


def _status_rc(status: str) -> int:
    return cli.EXIT_OK if status == OPTIMAL else cli.EXIT_INCONCLUSIVE


def _run_cli(argv: List[str], out: Path) -> Tuple[int, dict]:
    out.unlink(missing_ok=True)
    rc = cli.main(argv + ["--out", str(out)])
    return rc, json.loads(out.read_text()) if out.exists() else {}


class Workload:
    name = ""

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed
        self.tmp = tmp
        self.out = tmp / "out.json"

    def setup(self) -> None:
        """Write input files and compute the reference oracles."""

    def jobs(self, small: bool = False) -> List[Job]:
        raise NotImplementedError

    def cli_job(self, key, *argv, solves: int = 1) -> Job:
        args = [str(a) for a in argv] + ["--seed", str(self.seed)]
        return Job(key, lambda: _run_cli(args, self.out), solves)

    def verdicts(self, outcomes: List[Outcome]) -> List[Verdict]:
        return [self.verdict(o) for o in outcomes]

    def verdict(self, o: Outcome) -> Verdict:
        raise NotImplementedError

    @staticmethod
    def crashed(o: Outcome, solves: int = 1, certs: int = 0) -> Optional[Verdict]:
        if o.error is None and o.data:
            return None
        return Verdict(failed=True, bound_ok=False, safe=True, optimal=0, solves=solves,
                       cert_attempts=certs)


class DensitySym(Workload):
    """apcount density --sym with exact certificates, p in {5,7,11,13}, every D."""
    name = "density-sym"
    PRIMES = (5, 7, 11, 13)

    def setup(self):
        self.cert = self.tmp / "cert.json"
        self.W = {(p, D): apcount.brute_force_W(p, D)
                  for p in self.PRIMES for D in range(p + 1)}

    def jobs(self, small=False):
        pairs = [(5, 2)] if small else [(p, D) for p in self.PRIMES for D in range(p + 1)]
        return [self.cli_job((p, D), "apcount", "density", "--p", p, "--D", D, "--sym",
                             "--cert-out", self.cert) for p, D in pairs]

    def verdict(self, o):
        bad = self.crashed(o, certs=1)
        if bad:
            return bad
        p, D = o.job.key
        bound, status = o.data["bound"], o.data["result"]["status"]
        lam, W = float(apcount.density_lambda(p, D)), self.W[(p, D)]
        safe = status != OPTIMAL or bound <= W + TOL
        return Verdict(failed=o.rc != _status_rc(status),
                       bound_ok=lam - TOL <= bound <= W + TOL, safe=safe,
                       optimal=int(status == OPTIMAL), solves=1, cert_attempts=1,
                       cert_exact=int(o.data.get("certificate_verified") is True))


def ball_quartic(n: int, rng: random.Random) -> dict:
    """Program JSON: a dense quartic with coefficients in {-1, -0.9, ..., 1}
    on the unit ball."""
    terms = []
    for m in monomials_up_to_degree(n, 4):
        c = Fraction(rng.randint(-10, 10), 10)
        if c:
            terms.append({"exps": list(m), "coef": str(c)})
    ball = [{"exps": [0] * n, "coef": "1"}]
    ball += [{"exps": [2 if j == i else 0 for j in range(n)], "coef": "-1"} for i in range(n)]
    return {"n": n, "objective": terms, "ineqs": [ball], "eqs": []}


def sampled_min(prog: dict, points: int, rng: np.random.Generator) -> float:
    """Minimum of the objective over `points` uniform samples of the unit ball."""
    n = prog["n"]
    exps = np.array([t["exps"] for t in prog["objective"]], dtype=float)
    coef = np.array([float(Fraction(t["coef"])) for t in prog["objective"]])
    g = rng.standard_normal((points, n))
    x = g / np.linalg.norm(g, axis=1, keepdims=True)
    x *= rng.random((points, 1)) ** (1.0 / n)
    values = np.prod(x[:, None, :] ** exps[None, :, :], axis=2) @ coef
    return float(values.min())


class PopBall(Workload):
    """pop solve (SOS side with certificate, and moment side), order 4, on
    seeded quartics over the unit ball.  Three quartics each at n = 4 and 5
    put enough problems near the median that the per-problem percentiles do
    not rest on one instance."""
    name = "pop-ball"
    INSTANCES = {4: 3, 5: 3, 6: 1, 7: 1}
    SMALL = (2, 0)
    ORDER = 4
    POINTS = 1000

    def setup(self):
        rng = random.Random(self.seed)
        points = np.random.default_rng(self.seed)
        self.files: Dict[tuple, Path] = {}
        self.fmin: Dict[tuple, float] = {}
        for prog_id in [self.SMALL] + self.programs():
            prog = ball_quartic(prog_id[0], rng)
            self.files[prog_id] = self.tmp / "quartic{}-{}.json".format(*prog_id)
            self.files[prog_id].write_text(json.dumps(prog))
            self.fmin[prog_id] = sampled_min(prog, self.POINTS, points)

    def programs(self):
        return [(n, i) for n, count in self.INSTANCES.items() for i in range(count)]

    def jobs(self, small=False):
        out = []
        for prog_id in [self.SMALL] if small else self.programs():
            path = self.files[prog_id]
            out.append(self.cli_job((prog_id, "sos"), "pop", "solve", path, "--order", self.ORDER))
            out.append(self.cli_job((prog_id, "moment"), "pop", "solve", path,
                                    "--order", self.ORDER, "--moment"))
        return out

    def verdicts(self, outcomes):
        bounds = {o.job.key: o.data["bound"] for o in outcomes
                  if o.error is None and o.data}
        out = []
        for o in outcomes:
            prog_id, side = o.job.key
            bad = self.crashed(o, certs=int(side == "sos"))
            if bad:
                out.append(bad)
                continue
            bound, status = o.data["bound"], o.data["result"]["status"]
            sos = bounds.get((prog_id, "sos"))
            mom = bounds.get((prog_id, "moment"))
            # weak duality between the two sides, when both ran
            paired = sos is None or mom is None or sos <= mom + TOL
            sampled = bound <= self.fmin[prog_id] + TOL
            exact = int(o.data.get("certificate_mode") == "exact"
                        and o.data.get("verified") is True)
            out.append(Verdict(
                failed=o.rc != _status_rc(status), bound_ok=paired and sampled,
                safe=status != OPTIMAL or (paired and sampled),
                optimal=int(status == OPTIMAL), solves=1,
                cert_attempts=int(side == "sos"), cert_exact=exact))
        return out


class ThetaHamming(Workload):
    """theta compute / theta prime on Hamming graphs from edge-list files."""
    name = "theta-hamming"
    GRAPHS = ((2, 4, 2), (2, 4, 3), (2, 5, 3), (3, 3, 2))
    SMALL = (2, 3, 2)

    def setup(self):
        self.files = {}
        for qnd in (self.SMALL,) + self.GRAPHS:
            g = graphs.hamming_graph(*qnd)
            path = self.tmp / "hamming{}-{}-{}.txt".format(*qnd)
            path.write_text("".join(f"{u} {v}\n" for u, v in sorted(g.edges)))
            self.files[qnd] = path

    def jobs(self, small=False):
        out = []
        for qnd in (self.SMALL,) if small else self.GRAPHS:
            for kind in ("compute", "prime"):
                out.append(self.cli_job((qnd, kind), "theta", kind,
                                        "--graph", self.files[qnd]))
        return out

    def verdicts(self, outcomes):
        bounds = {o.job.key: o.data["bound"] for o in outcomes
                  if o.error is None and o.data}
        out = []
        for o in outcomes:
            bad = self.crashed(o)
            if bad:
                out.append(bad)
                continue
            qnd, kind = o.job.key
            bound, status = o.data["bound"], o.data["result"]["status"]
            theta = bounds.get((qnd, "compute"))
            prime = bounds.get((qnd, "prime"))
            # A_q(n,d) <= theta' <= theta: both sides are theorems
            ok = (bound >= CODE_SIZES[qnd] - TOL
                  and (theta is None or prime is None or prime <= theta + TOL))
            out.append(Verdict(failed=o.rc != _status_rc(status), bound_ok=ok,
                               safe=status != OPTIMAL or ok,
                               optimal=int(status == OPTIMAL), solves=1))
        return out


class SymMono(Workload):
    """Cyclic-symmetric mono relaxations by library call, then sym reduce."""
    name = "sym-mono"
    MONO = tuple(range(3, 25))
    CYCLES = (41, 61)
    SMALL = (5, 7)
    BRUTE_MAX = 14

    def setup(self):
        self.R = {n: apcount.brute_force_R(n) for n in self.MONO if n <= self.BRUTE_MAX}
        self.files = {}
        for n in (self.SMALL[1],) + self.CYCLES:
            path = self.tmp / f"cycle{n}.txt"
            path.write_text("".join(f"{i} {(i + 1) % n}\n" for i in range(n)))
            self.files[n] = path

    def jobs(self, small=False):
        monos, cycles = ((self.SMALL[0],), (self.SMALL[1],)) if small else (self.MONO, self.CYCLES)
        out = [Job(("mono", n), self._mono(n)) for n in monos]
        out += [self.cli_job(("reduce", n), "sym", "reduce", "--graph", self.files[n],
                             "--action", f"dihedral {n}", solves=2) for n in cycles]
        return out

    @staticmethod
    def _mono(n):
        def call():
            prob, _ = apcount.build_mono_relaxation(n, use_symmetry=True)
            sol = sdp.solve(prob)
            return None, {"bound": sol.primal_obj, "status": sol.status}
        return call

    def verdict(self, o):
        kind, n = o.job.key
        bad = self.crashed(o, solves=o.job.solves)
        if bad:
            return bad
        if kind == "mono":
            bound, status = o.data["bound"], o.data["status"]
            ok = bound <= float(apcount.cyclic_bound(n)[1]) + TOL
            if n in self.R:
                ok = ok and bound <= self.R[n] + TOL
            return Verdict(failed=False, bound_ok=ok, safe=status != OPTIMAL or ok,
                           optimal=int(status == OPTIMAL), solves=1)
        statuses = [o.data["full"]["status"], o.data["reduced"]["status"]]
        ok = o.data["agreement"] <= TOL
        optimal = sum(s == OPTIMAL for s in statuses)
        rc = max(_status_rc(s) for s in statuses)
        return Verdict(failed=o.rc != rc, bound_ok=ok, safe=optimal < 2 or ok,
                       optimal=optimal, solves=2)


WORKLOADS = {w.name: w for w in (DensitySym, PopBall, ThetaHamming, SymMono)}
