"""Span tracer that wraps the package's public functions from outside.

The package imports names directly (``from .core import floor_rat``), so a
function is patched in every module namespace that binds it, which is
where each caller looks it up. Nothing in the package is edited.

Spans (name, start, end, parent span, op id) are kept in memory in flat
arrays and written out when the run ends. The hot leaf functions
(``floor_rat``, ``eval_map`` and the closure ``integer_step`` returns,
called ``step`` here) are aggregated into counters instead of spans, so
memory stays bounded; their time still counts as child coverage of the
enclosing span. A function's self time is its duration minus the time
covered by the traced calls made inside it.
"""

from __future__ import annotations

import sys
import time
from array import array
from pathlib import Path

PACKAGE = "quasiaffine"

# (module, function) pairs traced as spans, reported as "module.function".
# Also traced: core.floor_rat and the integer_step closure as counted leaves,
# core.eval_map as a frame without a span, and each row sweep.sweep yields.
SPANS = [
    ("cli", "main"),
    ("cli", "build_parser"),
    ("oracle", "cross_check"),
    ("oracle", "brute_fixed_points"),
    ("oracle", "brute_two_cycles"),
    ("oracle", "brute_omega"),
    ("omega", "omega_limit"),
    ("omega", "resolve_negative"),
    ("omega", "classify_case"),
    ("periodic", "fixed_points"),
    ("periodic", "two_cycles"),
    ("sweep", "write_csv"),
    ("sweep", "write_jsonl"),
]
OTHERS = [("core", "floor_rat"), ("core", "eval_map"), ("core", "integer_step"), ("sweep", "sweep")]
MAX_SPANS = 500_000


class Tracer:
    """Install with :meth:`install`, set :attr:`op` before each op, remove
    with :meth:`uninstall`. One tracer per run; single-threaded."""

    def __init__(self):
        self.op = -1
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts = {"pairs": 0, "rn_steps": 0, "rn_bound_s": 0.0, "rn_pairs": 0,
                       "cells": 0, "rows": 0, "unresolved": 0}
        self._child = [0.0]  # time covered by children, one slot per open frame
        self._open = [-1]  # ids of the open recorded spans
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._spans = {k: array(t) for k, t in
                       (("id", "q"), ("name", "q"), ("parent", "q"), ("op", "q"), ("start", "d"), ("end", "d"))}
        self._next_id = 0
        self.dropped = 0
        self._patches: list[tuple[object, str, object]] = []
        self.t0 = time.perf_counter()

    # -- wrappers ---------------------------------------------------------

    def _stat(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0.0, 0.0])

    def _frame(self, name: str, fn, record: bool = True):
        """Wrap ``fn`` as a frame with children; ``record`` stores a span."""
        st = self._stat(name)
        child, open_, perf = self._child, self._open, time.perf_counter
        nid = self._name_ids.setdefault(name, len(self._names))
        if nid == len(self._names):
            self._names.append(name)
        spans = self._spans

        def traced(*args, **kwargs):
            t0 = perf()
            child.append(0.0)
            if record:
                sid = self._next_id
                self._next_id += 1
                parent = open_[-1]
                open_.append(sid)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                covered = child.pop()
                d = t1 - t0
                child[-1] += d
                st[0] += 1
                st[1] += d
                st[2] += d - covered
                if record:
                    open_.pop()
                    if sid < MAX_SPANS:
                        for key, v in (("id", sid), ("name", nid), ("parent", parent), ("op", self.op),
                                       ("start", t0 - self.t0), ("end", t1 - self.t0)):
                            spans[key].append(v)
                    else:
                        self.dropped += 1

        return traced

    def _leaf(self, name: str, fn):
        """Wrap a function that makes no traced calls: counted, not spanned."""
        st = self._stat(name)
        child, perf = self._child, time.perf_counter

        def traced(*args):
            t0 = perf()
            r = fn(*args)
            d = perf() - t0
            child[-1] += d
            st[0] += 1
            st[1] += d
            st[2] += d
            return r

        return traced

    def _wrap(self, module: str, name: str, fn):
        key = f"{module}.{name}"
        counts = self.counts
        if name == "integer_step":
            leaf = self._leaf

            def traced_integer_step(*args):
                return leaf("core.step", fn(*args))

            self._stat("core.step")
            return traced_integer_step
        if name == "floor_rat":
            return self._leaf(key, fn)
        if name == "eval_map":
            return self._frame(key, fn, record=False)
        if name == "sweep":
            return self._traced_sweep(fn)
        inner = self._frame(key, fn)
        if name == "two_cycles":
            def traced_two_cycles(*args, **kwargs):
                r = inner(*args, **kwargs)
                if getattr(r, "kind", None) == "finite":
                    counts["pairs"] += len(r.pairs)
                return r
            return traced_two_cycles
        if name == "brute_omega":
            def traced_brute_omega(*args, **kwargs):
                r = inner(*args, **kwargs)
                if type(r).__name__ == "Unresolved":
                    counts["unresolved"] += 1
                return r
            return traced_brute_omega
        if name == "resolve_negative":
            step = self._stat("core.step")
            bound = (self._stat("periodic.fixed_points"), self._stat("periodic.two_cycles"))

            def traced_resolve_negative(*args, **kwargs):
                s0, b0, p0 = step[0], bound[0][1] + bound[1][1], counts["pairs"]
                try:
                    return inner(*args, **kwargs)
                finally:
                    counts["rn_steps"] += step[0] - s0
                    counts["rn_bound_s"] += bound[0][1] + bound[1][1] - b0
                    counts["rn_pairs"] += counts["pairs"] - p0
            return traced_resolve_negative
        return inner

    def _traced_sweep(self, fn):
        counts = self.counts
        frame = self._frame

        def traced_sweep(spec, *args, **kwargs):
            counts["cells"] += _grid_cells(spec)
            step = frame("sweep.sweep", iter(fn(spec, *args, **kwargs)).__next__)
            while True:
                try:
                    row = step()
                except StopIteration:
                    return
                counts["rows"] += 1
                yield row

        self._stat("sweep.sweep")
        return traced_sweep

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        mods = {k: m for k, m in sys.modules.items() if k == PACKAGE or k.startswith(PACKAGE + ".")}
        for module, name in SPANS + OTHERS:
            home = mods.get(f"{PACKAGE}.{module}")
            orig = getattr(home, name, None)
            if orig is None:
                continue
            wrapper = self._wrap(module, name, orig)
            for mod in mods.values():
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, orig))

    def uninstall(self) -> None:
        while self._patches:
            mod, attr, orig = self._patches.pop()
            setattr(mod, attr, orig)

    # -- results ----------------------------------------------------------

    def metrics(self, ops: int) -> dict[str, float]:
        """Per-layer metrics; counts and self times are per op of the workload."""
        n = max(ops, 1)
        out: dict[str, float] = {}

        def calls(name):
            return self.stats.get(name, [0, 0.0, 0.0])[0]

        def self_s(name):
            return self.stats.get(name, [0, 0.0, 0.0])[2]

        for name in ("core.floor_rat", "core.eval_map", "core.step", "periodic.fixed_points",
                     "periodic.two_cycles", "omega.omega_limit", "omega.resolve_negative",
                     "oracle.cross_check", "oracle.brute_omega", "cli.main"):
            out[f"{name}.calls"] = calls(name) / n
            out[f"{name}.self_s"] = self_s(name) / n
        for name in ("omega.classify_case", "sweep.sweep", "sweep.write_csv", "sweep.write_jsonl",
                     "oracle.brute_fixed_points", "oracle.brute_two_cycles", "cli.build_parser"):
            out[f"{name}.self_s"] = self_s(name) / n
        c = self.counts
        out["periodic.two_cycles.pairs"] = c["pairs"] / n
        ol, rn, bo = calls("omega.omega_limit"), calls("omega.resolve_negative"), calls("oracle.brute_omega")
        out["omega.closed_form_share"] = 1 - rn / ol if ol else 0.0
        out["omega.resolve_negative.steps"] = c["rn_steps"] / 2 / n
        out["omega.bound_s"] = c["rn_bound_s"] / n
        out["omega.bound_pairs_per_decision"] = c["rn_pairs"] / rn if rn else 0.0
        out["sweep.sweep.cells"] = c["cells"] / n
        out["sweep.sweep.rows"] = c["rows"] / n
        out["oracle.brute_omega.unresolved"] = c["unresolved"] / n
        out["oracle.confirmed_share"] = 1 - c["unresolved"] / bo if bo else 0.0
        return out

    def bases(self) -> dict[str, str]:
        """The denominators of the shares, for the human-readable report."""
        calls = {k: v[0] for k, v in self.stats.items()}
        return {
            "omega.closed_form_share": f"{calls.get('omega.omega_limit', 0)} omega_limit calls",
            "omega.bound_pairs_per_decision": f"{calls.get('omega.resolve_negative', 0)} resolve_negative calls",
            "oracle.confirmed_share": f"{calls.get('oracle.brute_omega', 0)} brute_omega calls",
        }

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        s = self._spans
        with path.open("w") as f:
            f.write("# id\tname\tparent\top\tstart_s\tend_s"
                    f"\t(dropped after {MAX_SPANS}: {self.dropped})\n")
            for i in range(len(s["id"])):
                f.write(f"{s['id'][i]}\t{self._names[s['name'][i]]}\t{s['parent'][i]}\t{s['op'][i]}"
                        f"\t{s['start'][i]:.9f}\t{s['end'][i]:.9f}\n")


def _grid_cells(spec) -> int:
    """(lambda, mu) grid points of a SweepSpec, read from its public fields."""
    try:
        n_lam = (spec.lambda_to - spec.lambda_from) // spec.lambda_step + 1
        n_mu = (spec.mu_to - spec.mu_from) // spec.mu_step + 1
    except AttributeError:
        return 0
    return int(n_lam * n_mu)
