"""Benchmark of the quasiaffine package: one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``. Workloads and metrics are declared in ``BENCHMARK.json``; the
sizes of each workload and the map from per-layer to end-to-end metrics
are in ``perfbench/design.json``.

The run is a closed loop with one caller: one process, no threads, each op
issued after the previous one returns. Each op's output is checked against
a reference outside the timed region; a wrong output, an exception or a
non-zero CLI exit counts as a failed op.

With ``--trace 0`` it reports the end-to-end metrics. With ``--trace 1`` it
runs the ops with every public function of the package wrapped by
:mod:`tracer` for half the time, replays the same ops untraced (their
outputs must be identical) and reports per-layer metrics, plus the traced
over untraced wall time of those ops. The spans go to ``.perfbench/spans-<workload>.tsv``.

Lines before the last describe the environment and the metrics for a
reader; the last line is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

# perfbench/ is on sys.path as the directory of the script or of the tests
from tracer import Tracer
from workloads import DESIGN, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in BENCH["end_to_end"] + BENCH["per_layer"]}
SPANS_DIR = ROOT / ".perfbench"
WARMUP_S = 0.3
MAX_ERRORS = 5  # failures described in the report; all are counted
SETUP_TRIALS = 30  # fresh-interpreter imports spread over a run; setup_s is their minimum
# latency_tail_ms is the highest of these percentiles that still has at
# least TAIL_MIN_BEYOND samples beyond it
TAIL_PERCENTILES = (50, 90, 99, 99.9)
TAIL_MIN_BEYOND = 10

IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t0 = time.process_time()\n"
    "import quasiaffine.cli\n"
    "print(time.process_time() - t0)\n"
)


class Package:
    """The modules of the package under test, imported from ``src/``."""

    def __init__(self):
        if not (SRC / "quasiaffine" / "__init__.py").is_file():
            raise SystemExit(f"error: no package source at {SRC / 'quasiaffine'}; run from a source checkout")
        sys.path.insert(0, str(SRC))
        import quasiaffine
        import quasiaffine.cli
        import quasiaffine.oracle

        if Path(quasiaffine.__file__).resolve().parent != (SRC / "quasiaffine").resolve():
            raise SystemExit(f"error: imported quasiaffine from {quasiaffine.__file__}, not from {SRC}")
        self.qa = quasiaffine
        self.cli = quasiaffine.cli
        self.oracle = quasiaffine.oracle


def import_cli() -> float:
    """CPU time a fresh interpreter spends importing quasiaffine.cli. The
    byte-code cache is written even under PYTHONDONTWRITEBYTECODE, so only
    the first call of a run compiles."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout)


def tail_latency(lat: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond): the highest of TAIL_PERCENTILES
    that still has TAIL_MIN_BEYOND samples beyond it."""
    s = sorted(lat)
    n = len(s)
    pick = (100.0, n, 0)
    for q in TAIL_PERCENTILES:
        rank = math.ceil(q / 100 * n)
        if rank >= 1 and n - rank >= TAIL_MIN_BEYOND:
            pick = (q, rank, n - rank)
    q, rank, beyond = pick
    return q, s[rank - 1], beyond


def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    h = hashlib.sha256()
    for path in sorted((SRC / "quasiaffine").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "git_commit": commit, "src_sha256": h.hexdigest()[:16]}


def run_op(wl, op):
    """Run one op; returns (output, seconds, error) with error None on success.

    The seconds are the CPU time of this thread during the op. Ops never
    wait on I/O, so on an idle machine this equals their wall time; on a
    shared one it leaves out the time the machine gives to other processes.
    """
    t0 = time.thread_time()
    try:
        out = wl.run(op)
    except Exception as exc:  # the loop must go on; the op counts as failed
        return None, time.thread_time() - t0, f"{type(exc).__name__}: {exc}"
    return out, time.thread_time() - t0, None


def warm_up(wl, seed: int) -> None:
    """Run a few ops from a different stream so lazy set-up is not timed."""
    deadline = time.perf_counter() + WARMUP_S
    for op in wl.ops(seed + 7919):
        run_op(wl, op)
        if time.perf_counter() >= deadline:
            break


def untraced(wl, seed: int, seconds: float, setup_trials: int) -> dict:
    """Time the ops. Between them, every seconds/setup_trials, time one
    fresh import for setup_s: the import does the same work every time, so
    the least of imports spread over the whole run is the figure that a few
    seconds of load from elsewhere on the machine cannot set."""
    import_cli()  # compiles; not counted
    warm_up(wl, seed)
    lat = array("d")
    setup = []
    units = failed = 0
    errors = []
    start = time.perf_counter()
    deadline = start + seconds
    for op in wl.ops(seed):
        out, dt, err = run_op(wl, op)
        lat.append(dt)
        if err is None and wl.check(op, out):
            units += op.units
        else:
            failed += 1
            if len(errors) < MAX_ERRORS:
                errors.append(err or f"wrong output for {op.args}")
        now = time.perf_counter()
        if len(setup) < setup_trials and now >= start + seconds * len(setup) / setup_trials:
            setup.append(import_cli())
        if now >= deadline:
            break
    while len(setup) < setup_trials:
        setup.append(import_cli())
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    q, tail, beyond = tail_latency(lat)
    metrics = {
        "setup_s": min(setup),
        "throughput_per_s": units / sum(lat),
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_tail_ms": tail * 1e3,
        "peak_rss_mb": rss_mb,
    }
    notes = {
        "throughput_per_s": f"{wl.unit}/s",
        "latency_tail_ms": f"p{q:g}, {beyond} of {len(lat)} samples beyond",
    }
    return {"metrics": metrics, "notes": notes, "attempted": len(lat), "failed": failed,
            "errors": errors, "env": {"tail_percentile": q, "tail_beyond": beyond}}


def traced(wl, seed: int, seconds: float, workload: str) -> dict:
    warm_up(wl, seed)
    tracer = Tracer()
    done = []
    traced_s = 0.0
    tracer.install()
    try:
        deadline = time.perf_counter() + seconds / 2
        for i, op in enumerate(wl.ops(seed)):
            tracer.op = i
            t0 = time.perf_counter()
            out, _, err = run_op(wl, op)
            traced_s += time.perf_counter() - t0
            done.append((op, out, err))
            if time.perf_counter() >= deadline:
                break
    finally:
        tracer.uninstall()
    plain_s = 0.0
    failed = 0
    errors = []
    for op, out, err in done:
        t0 = time.perf_counter()
        again, _, err2 = run_op(wl, op)
        plain_s += time.perf_counter() - t0
        if err or err2 or again != out or not wl.check(op, out):
            failed += 1
            if len(errors) < MAX_ERRORS:
                errors.append(err or err2 or f"traced/untraced/reference mismatch for {op.args}")
    tracer.write_spans(SPANS_DIR / f"spans-{workload}.tsv")
    metrics = tracer.metrics(len(done))
    metrics["trace.overhead_ratio"] = traced_s / plain_s
    notes = dict(tracer.bases())
    notes["trace.overhead_ratio"] = f"{traced_s:.3f} s traced / {plain_s:.3f} s untraced wall time over the same ops"
    return {"metrics": metrics, "notes": notes, "attempted": len(done), "failed": failed,
            "errors": errors, "env": {"spans_dropped": tracer.dropped}}


def run_workload(name: str, seed: int, seconds: float, trace: bool, setup_trials: int = SETUP_TRIALS,
                 pkg: Package | None = None) -> dict:
    """Run one workload and return its result; see the module docstring."""
    pkg = pkg or Package()
    wl = WORKLOADS[name](pkg)
    if trace:
        res = traced(wl, seed, seconds, name)
    else:
        res = untraced(wl, seed, seconds, setup_trials)
    res["env"] = {**environment(), "workload": name, "seed": seed, "seconds": seconds,
                  "trace": int(trace), "ops": res["attempted"], **res["env"]}
    return res


def render(res: dict) -> list[str]:
    lines = ["env " + json.dumps(res["env"], sort_keys=True)]
    for name, value in res["metrics"].items():
        note = res["notes"].get(name)
        lines.append(f"{name} {value:.6g} {UNITS[name]}" + (f"  ({note})" if note else ""))
    attempted, failed = res["attempted"], res["failed"]
    lines.append(f"error_rate {failed / attempted:.6g} ratio  ({failed} failed of {attempted} ops)")
    lines += [f"failure: {e}"[:300] for e in res["errors"]]
    final = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in res["metrics"].items()},
    }
    lines.append(json.dumps(final))
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=BENCH["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seed = DESIGN["workloads"][args.workload]["default_seed"] if args.seed is None else args.seed
    res = run_workload(args.workload, seed, args.seconds, bool(args.trace))
    print("\n".join(render(res)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
