"""Parameter sweeps over exact rational grids, exported as CSV/JSON lines.

A sweep walks (lam, mu) over from/step/to grids, each an integer
progression of numerators over one common denominator (no float
accumulation, no rational addition), collects the fixed points or the
period-2 points inside an integer window, and emits one row per point in
lexicographic (lam, mu, x) order. Identical specs therefore produce
byte-identical files. Each cell runs on the map on integers of
:func:`~quasiaffine.core.integer_form`, so no cell builds a ``Params``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Iterator, TextIO

from .core import Rational, as_rational, format_rational, integer_form
from .oracle import Window
from .periodic import fixed_run, two_cycle_points


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


def _progression(start: Rational, stop: Rational, step: Rational) -> tuple[range, int]:
    """The grid start, start + step, ... <= stop as (numerators, D): its
    values are n/D for n in the range, not reduced. With start = a/D and
    step = s/D over D = lcm of their denominators, and stop = p/q, the
    count is floor((stop - start)/step) + 1 = (p*D - a*q) // (s*q) + 1."""
    start, stop, step = as_rational(start), as_rational(stop), as_rational(step)
    if step <= 0:
        raise ValueError("grid step must be > 0")
    D = math.lcm(start.denominator, step.denominator)
    a = start.numerator * (D // start.denominator)
    s = step.numerator * (D // step.denominator)
    p, q = stop.as_integer_ratio()
    count = (p * D - a * q) // (s * q) + 1
    return range(a, a + max(count, 0) * s, s), D


def grid_values(start: Rational, stop: Rational, step: Rational) -> Iterator[Rational]:
    """start, start + step, ... up to stop, inclusive when landed exactly.

    The k-th value is (a + k*s)/D on the common denominator of start and
    step, and the count is computed once, so no value costs a rational
    addition or comparison. A step <= 0 raises ValueError."""
    nums, D = _progression(start, stop, step)
    for n in nums:
        yield Fraction(n, D)


def sweep(spec: SweepSpec) -> Iterator[SweepRow]:
    """Stream the diagram rows for the spec, in (lam, mu, x) order.

    Symbolic infinite sets (all of Z at lam = 1, the lam = -1 pair family)
    contribute exactly their members inside the window. For lam = a/b and
    mu = n/D on the grid, a cell is the map (a*z + floor(b*n/D)) // b of
    :func:`integer_form`: the fixed run of :func:`fixed_run` clipped to the
    window, or the period-2 points of :func:`two_cycle_points`, whose walk
    over the gaps stops once the pairs straddle the window. Only a cell
    that yields rows builds its mu as a Fraction; the rows of one cell
    share it. Memory is O(window) per cell; the grid is never listed.
    """
    lo, hi = spec.x_window.lo, spec.x_window.hi
    fix = spec.target is SweepTarget.FIXED_POINTS
    mus, D = _progression(spec.mu_from, spec.mu_to, spec.mu_step)
    for lam in grid_values(spec.lambda_from, spec.lambda_to, spec.lambda_step):
        a, b = lam.as_integer_ratio()
        for n in mus:
            scale, offset, den = integer_form(a, b, n, D)
            if fix:
                run = fixed_run(scale, offset, den)
                xs = range(lo, hi + 1) if run is None else range(max(lo, run[0]), min(hi, run[1]) + 1)
            else:
                xs = two_cycle_points(scale, offset, den, lo, hi)
            if xs:
                mu = Fraction(n, D)
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
