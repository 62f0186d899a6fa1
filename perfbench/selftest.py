"""Tests of the benchmark itself. Run from the checkout root:

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these tests out of the package's own test suite.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import DESIGN, WORKLOADS  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE_S = 0.5


@pytest.fixture(scope="module")
def pkg():
    return run.Package()


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_has_no_failures(pkg, workload):
    res = run.run_workload(workload, seed=3, seconds=SMOKE_S, trace=False, setup_trials=1, pkg=pkg)
    assert res["attempted"] >= 1
    assert res["failed"] == 0, res["errors"][:3]
    final = json.loads(run.render(res)[-1])
    assert final["correct"] is True
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert all(m["value"] > 0 for m in final["metrics"].values())


@pytest.mark.parametrize("trace", [False, True])
def test_printed_metric_names_match_benchmark_json(pkg, trace):
    key = "per_layer" if trace else "end_to_end"
    res = run.run_workload("verify-grid", seed=4, seconds=SMOKE_S, trace=trace, setup_trials=1, pkg=pkg)
    printed = json.loads(run.render(res)[-1])["metrics"]
    assert sorted(printed) == sorted(m["name"] for m in BENCH[key])


def test_design_matches_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(DESIGN["workloads"])
    assert sorted(WORKLOADS) == sorted(DESIGN["workloads"])
    assert list(DESIGN["layer_map"]) == [m["name"] for m in BENCH["per_layer"]]
    e2e = {m["name"] for m in BENCH["end_to_end"]}
    for targets in DESIGN["layer_map"].values():
        for metric, workload in targets:
            assert metric in e2e and workload in DESIGN["workloads"]


def _first_ops(wl, n):
    return list(itertools.islice(wl.ops(5), n))


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_and_untraced_outputs_are_identical(pkg, workload):
    wl = WORKLOADS[workload](pkg)
    ops = _first_ops(wl, 6)
    plain = [wl.run(op) for op in ops]
    tracer = Tracer()
    tracer.install()
    try:
        traced = [wl.run(op) for op in ops]
    finally:
        tracer.uninstall()
    assert traced == plain
    assert tracer.stats["core.floor_rat"][0] > 0
    assert [wl.run(op) for op in ops] == plain  # uninstall restored the package


def test_verify_grid_checks_every_sample_it_credits(pkg):
    wl = WORKLOADS["verify-grid"](pkg)
    ops = _first_ops(wl, 3)
    tracer = Tracer()
    tracer.install()
    try:
        outs = [wl.run(op) for op in ops]
    finally:
        tracer.uninstall()
    assert all(wl.check(op, out) for op, out in zip(ops, outs))
    assert not wl.check(dataclasses.replace(ops[0], ref=ops[0].ref - 1), outs[0])
    assert tracer.stats["oracle.cross_check"][0] == sum(op.ref for op in ops)
    assert tracer.stats["oracle.brute_omega"][0] == sum(op.units for op in ops)


def test_corrupted_output_counts_as_failure(pkg):
    for workload in sorted(WORKLOADS):
        wl = WORKLOADS[workload](pkg)
        op = _first_ops(wl, 1)[0]
        out = wl.run(op)
        assert wl.check(op, out)
        if isinstance(out, tuple):  # CLI: (exit status, digest of stdout)
            assert not wl.check(op, (out[0], out[1] + "x"))
            assert not wl.check(op, (1, out[1]))
        else:
            wrong = pkg.qa.OmegaLimit.fixed(10**6) if out.kind != "fixed" else pkg.qa.OmegaLimit.fixed(out.z + 1)
            assert not wl.check(op, wrong)


def test_wrong_library_answers_and_exceptions_fail_the_run(pkg, monkeypatch):
    real = pkg.qa.omega_limit
    calls = itertools.count()

    def flaky(p, x):
        i = next(calls)
        if i % 3 == 1:
            raise RuntimeError("boom")
        res = real(p, x)
        return pkg.qa.OmegaLimit.fixed(10**6) if i % 3 == 2 else res

    monkeypatch.setattr(pkg.qa, "omega_limit", flaky)
    res = run.run_workload("omega-random", seed=6, seconds=0.2, trace=False, setup_trials=1, pkg=pkg)
    assert res["attempted"] >= 3
    assert res["failed"] >= res["attempted"] // 3 * 2 - 2
    assert json.loads(run.render(res)[-1])["correct"] is False


def test_nonzero_cli_exit_fails_the_run(pkg, monkeypatch):
    verdict = pkg.oracle.OracleVerdict(False, "planted disagreement")
    monkeypatch.setattr(pkg.cli, "cross_check", lambda *a, **k: verdict)
    res = run.run_workload("verify-grid", seed=6, seconds=0.2, trace=False, setup_trials=1, pkg=pkg)
    assert res["failed"] == res["attempted"] >= 1


def test_tail_percentile_keeps_ten_samples_beyond():
    lat = [float(i) for i in range(1, 1001)]
    q, value, beyond = run.tail_latency(lat)
    assert (q, value, beyond) == (99, 990.0, 10)
    q, value, beyond = run.tail_latency(lat[:999])
    assert (q, beyond) == (90, 99)


def test_fails_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "omega-random", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
