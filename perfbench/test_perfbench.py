"""Tests of the benchmark itself: python -m pytest perfbench -q"""

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402

if run.pin_threads() is not None:
    raise RuntimeError(run.pin_threads())

import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def small_run(name, trace=False):
    result, _ = run.measure(name, seed=3, seconds=0, trace=trace, small=True, setups=1)
    return result


def assert_metrics(result, specs):
    assert list(result["metrics"]) == [m["name"] for m in specs]
    for m in specs:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])


def test_workloads_match_spec():
    assert sorted(NAMES) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
def test_smoke_end_to_end(name):
    result = small_run(name)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert_metrics(result, SPEC["end_to_end"])
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["value"] > 0


@pytest.mark.parametrize("name", NAMES)
def test_smoke_traced(name):
    result = small_run(name, trace=True)
    assert result["correct"] and result["failed"] == 0
    assert_metrics(result, SPEC["per_layer"])
    assert result["metrics"]["sdp.solve_calls"]["value"] >= 1


@pytest.mark.parametrize("name, delta", [("density-sym", 1e-3), ("theta-hamming", -1e-3)])
def test_perturbed_bound_lowers_bound_ok(monkeypatch, name, delta):
    assert small_run(name)["metrics"]["bound_ok_frac"]["value"] == 1.0
    real = workloads._run_cli

    def shifted(argv, out):
        rc, data = real(argv, out)
        data["bound"] += delta
        return rc, data

    monkeypatch.setattr(workloads, "_run_cli", shifted)
    assert small_run(name)["metrics"]["bound_ok_frac"]["value"] < 1.0


def test_refuses_other_thread_counts(monkeypatch, capsys):
    monkeypatch.setenv("OMP_NUM_THREADS", "4")
    assert run.main(["--workload", "sym-mono", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


def test_hd_quantile():
    assert run.hd_quantile([2.0], 0.9, 1) == 2.0
    assert run.hd_quantile([1.0] * 7, 0.5, 7) == pytest.approx(1.0)
    values = [float(v) for v in range(1, 102)]
    assert run.hd_quantile(values, 0.5, 101) == pytest.approx(51.0, rel=1e-3)
    assert run.hd_quantile(values, 0.9, 101) == pytest.approx(91.0, rel=2e-2)
    # pooling identical passes leaves the estimate where one pass puts it
    one = [0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 3.0]
    for q in (0.5, 0.9):
        assert run.hd_quantile(one * 3, q, 8) == pytest.approx(run.hd_quantile(one, q, 8), rel=0.05)
