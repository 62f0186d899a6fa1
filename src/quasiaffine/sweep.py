"""Parameter sweeps over exact rational grids, exported as CSV/JSON lines.

A sweep walks (lam, mu) over from/step/to grids built by exact rational
addition (no float accumulation), collects the fixed points or the
period-2 points inside an integer window, and emits one row per point in
lexicographic (lam, mu, x) order. Identical specs therefore produce
byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, TextIO

from .core import Params, Rational, as_rational, format_rational
from .oracle import Window
from .periodic import fixed_points, two_cycles


class SweepTarget(Enum):
    FIXED_POINTS = "fix"
    PERIOD2_POINTS = "per2"


@dataclass(frozen=True)
class SweepSpec:
    """Grid description: lam and mu each run from/step/to (a single value
    via from = to), points are clipped to x_window."""

    lambda_from: Rational
    lambda_to: Rational
    lambda_step: Rational
    mu_from: Rational
    mu_to: Rational
    mu_step: Rational
    x_window: Window
    target: SweepTarget

    def __post_init__(self) -> None:
        for name in ("lambda_from", "lambda_to", "lambda_step", "mu_from", "mu_to", "mu_step"):
            object.__setattr__(self, name, as_rational(getattr(self, name)))
        if self.lambda_step <= 0 or self.mu_step <= 0:
            raise ValueError("grid steps must be > 0")
        if self.lambda_from > self.lambda_to or self.mu_from > self.mu_to:
            raise ValueError("grid requires from <= to")


@dataclass(frozen=True)
class SweepRow:
    """One diagram point: x satisfies the target predicate at (lam, mu)."""

    lam: Rational
    mu: Rational
    x: int


def grid_values(start: Rational, stop: Rational, step: Rational) -> Iterator[Rational]:
    """start, start + step, ... up to stop, inclusive when landed exactly."""
    v = as_rational(start)
    stop = as_rational(stop)
    step = as_rational(step)
    if step <= 0:
        raise ValueError("grid step must be > 0")
    while v <= stop:
        yield v
        v += step


def sweep(spec: SweepSpec) -> Iterator[SweepRow]:
    """Stream the diagram rows for the spec, in (lam, mu, x) order.

    Symbolic infinite sets (all of Z at lam = 1, the lam = -1 pair family)
    contribute exactly their members inside the window.
    """
    lo, hi = spec.x_window.lo, spec.x_window.hi
    for lam in grid_values(spec.lambda_from, spec.lambda_to, spec.lambda_step):
        for mu in grid_values(spec.mu_from, spec.mu_to, spec.mu_step):
            p = Params(lam, mu)
            if spec.target is SweepTarget.FIXED_POINTS:
                xs = fixed_points(p).clip(lo, hi)
            else:
                xs = two_cycles(p).points_in(lo, hi)
            for x in xs:
                yield SweepRow(lam, mu, x)


def write_csv(rows: Iterable[SweepRow], out: TextIO) -> int:
    """Write "lambda,mu,x" then one line per row; returns the row count.

    The "lambda,mu," text is formatted once per run of rows with equal
    (lam, mu), so a cell costs its formatting once plus a write per row.
    """
    out.write("lambda,mu,x\n")
    n = 0
    cell = None
    for row in rows:
        if (row.lam, row.mu) != cell:
            cell = (row.lam, row.mu)
            prefix = f"{format_rational(row.lam)},{format_rational(row.mu)},"
        out.write(f"{prefix}{row.x}\n")
        n += 1
    return n


def write_jsonl(rows: Iterable[SweepRow], out: TextIO) -> int:
    """One {"lambda": "p/q", "mu": "p/q", "x": n} object per line; returns
    the row count. As in `write_csv`, each run of rows with equal (lam, mu)
    is encoded once, up to the x value."""
    n = 0
    cell = None
    for row in rows:
        if (row.lam, row.mu) != cell:
            cell = (row.lam, row.mu)
            obj = {"lambda": format_rational(row.lam), "mu": format_rational(row.mu), "x": None}
            prefix = json.dumps(obj, separators=(",", ":"))[: -len("null}")]
        out.write(f"{prefix}{row.x}}}\n")
        n += 1
    return n
