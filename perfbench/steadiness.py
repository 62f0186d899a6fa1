"""Steadiness report: rerun workloads with different seeds and show how far
each end-to-end metric spreads against its bound in BENCHMARK.json.

    python3 perfbench/steadiness.py [--runs 10]

Runs are sequential subprocesses of ``perfbench/run.py`` from the checkout
root, each for BENCHMARK.json's ``run_seconds``, with seeds 1 to ``--runs``
on every workload. For every workload and metric it prints the median, the
quartiles (``statistics.quantiles`` with n=4) and the spread
(q3 - q1) / median, marked "steady" below a third of the bound, "ok" up to
the bound and "WIDE" beyond it; the exit status is 1 if any is WIDE. Every
run's metrics and error rate are printed as they finish, so ``--runs 1``
runs all workloads once.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    all_steady = True
    for workload in names:
        runs = []
        for seed in range(1, args.runs + 1):
            res = run_once(workload, seed, bench["run_seconds"])
            runs.append(res)
            shown = " ".join(f"{k}={v['value']:.4g} {v['unit']}" for k, v in res["metrics"].items())
            print(f"{workload} seed={seed} {shown} error_rate={res['failed'] / res['attempted']:.3g}"
                  f" ({res['failed']}/{res['attempted']})", flush=True)
        if len(runs) < 2:
            continue
        print(f"{workload}: {'metric':18} {'median':>11} {'q1':>11} {'q3':>11} {'spread':>7} {'bound':>6}")
        for metric, bound in bounds.items():
            med, q1, q3, sp = spread([r["metrics"][metric]["value"] for r in runs])
            mark = "steady" if sp < bound / 3 else "ok" if sp <= bound else "WIDE"
            all_steady &= mark != "WIDE"
            print(f"{workload}: {metric:18} {med:11.5g} {q1:11.5g} {q3:11.5g} {sp:7.3f} {bound:6.3f} {mark}")
        print(flush=True)
    return 0 if all_steady else 1


if __name__ == "__main__":
    sys.exit(main())
