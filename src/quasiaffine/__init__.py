"""Exact dynamics of the floor-discretised affine maps f(x) = floor(lam*x + mu).

Over exact rational parameters the package computes, in closed form, the
fixed-point set, the 2-cycle set, both counting formulas, and the limit
set of any rational start point; ships an independent brute-force oracle
to verify all of it; and sweeps parameter grids into deterministic
CSV/JSONL bifurcation datasets. A CLI (``quasiaffine``) exposes the lot.
"""

from .core import (
    Orbit,
    Params,
    Rational,
    as_rational,
    eval_map,
    format_rational,
    integer_step,
    iterate_orbit,
    parse_rational,
)
from .omega import (
    CaseTag,
    OmegaLimit,
    classify_case,
    floor_affine_fixpoint,
    interval_bounds,
    interval_index,
    omega_limit,
    resolve_negative,
)
from .oracle import (
    DEFAULT_ESCAPE_BOUND,
    DEFAULT_MAX_STEPS,
    UNRESOLVED,
    OracleVerdict,
    Unresolved,
    Window,
    brute_fixed_points,
    brute_omega,
    brute_two_cycles,
    check_no_long_cycles,
    cross_check,
    random_rational,
)
from .periodic import (
    CountValue,
    IntegerSet,
    TwoCycleSet,
    count_fixed_points,
    count_two_cycles,
    fixed_points,
    two_cycles,
)
from .sweep import SweepRow, SweepSpec, SweepTarget, grid_values, sweep, write_csv, write_jsonl

__all__ = [
    "CaseTag",
    "CountValue",
    "DEFAULT_ESCAPE_BOUND",
    "DEFAULT_MAX_STEPS",
    "IntegerSet",
    "OmegaLimit",
    "OracleVerdict",
    "Orbit",
    "Params",
    "Rational",
    "SweepRow",
    "SweepSpec",
    "SweepTarget",
    "TwoCycleSet",
    "UNRESOLVED",
    "Unresolved",
    "Window",
    "as_rational",
    "brute_fixed_points",
    "brute_omega",
    "brute_two_cycles",
    "check_no_long_cycles",
    "classify_case",
    "count_fixed_points",
    "count_two_cycles",
    "cross_check",
    "eval_map",
    "fixed_points",
    "floor_affine_fixpoint",
    "format_rational",
    "grid_values",
    "integer_step",
    "interval_bounds",
    "interval_index",
    "iterate_orbit",
    "omega_limit",
    "parse_rational",
    "random_rational",
    "resolve_negative",
    "sweep",
    "two_cycles",
    "write_csv",
    "write_jsonl",
]

__version__ = "0.1.0"
