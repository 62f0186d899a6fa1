"""Command-line surface. Every subcommand is a thin adapter over the
library: parse flags, call one function, render JSON (default) or plain
text (--plain). Exit status: 0 success (and agreement for verify),
1 verifier disagreement, 2 usage error, 141 (128 + SIGPIPE) when stdout
is closed before the output is written.

`main` can be called repeatedly in one process: it builds one argparse
parser on its first call and reuses it, since parsing leaves no state in
the parser and help and usage text are rendered when they are printed.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import re
import sys
from typing import Callable

from .core import Params, Rational, Window, format_rational, iterate_orbit, parse_rational
from .omega import OmegaLimit, classify_case, omega_limit
from .oracle import OracleVerdict, cross_check, random_rational
from .periodic import IntegerSet, TwoCycleSet, fixed_points, two_cycles
from .sweep import SweepSpec, SweepTarget, grid_values, sweep, write_csv, write_jsonl


class _Parser(argparse.ArgumentParser):
    """Parser that accepts "-p/q" and "-a..b" option values."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _LEADING_MINUS_VALUE


def _rational(text: str) -> Rational:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _positive_rational(text: str) -> Rational:
    value = _rational(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"step {text!r} must be > 0")
    return value


def _integer(text: str) -> int:
    # the one grammar of every integer flag: ASCII digits after an optional sign
    if not re.fullmatch(r"[+-]?[0-9]+", text.strip()):
        raise argparse.ArgumentTypeError(f"malformed integer {text!r}")
    return int(text)


def _non_negative_int(text: str) -> int:
    value = _integer(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"count {text!r} must be >= 0")
    return value


def _rational_range(text: str) -> tuple[Rational, Rational]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise argparse.ArgumentTypeError(f"malformed range {text!r} (expected 'A..B')")
    lo, hi = _rational(lo), _rational(hi)
    if lo > hi:
        raise argparse.ArgumentTypeError(f"reversed range {text!r} (expected A <= B)")
    return lo, hi


def _window(text: str) -> Window:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise argparse.ArgumentTypeError(f"malformed window {text!r} (expected 'LO..HI')")
    try:
        return Window(_integer(lo), _integer(hi))
    except (argparse.ArgumentTypeError, ValueError) as exc:
        raise argparse.ArgumentTypeError(f"malformed window {text!r}: {exc}") from None


def _emit(args: argparse.Namespace, payload: Callable[[], dict], plain: Callable[[], str], status: int = 0) -> int:
    """Print the answer in the requested format, rendering only that one,
    and return the exit status."""
    print(plain() if args.plain else json.dumps(payload(), separators=(",", ":")))
    return status


def _plain_integer_set(s: IntegerSet) -> str:
    if s.kind == "empty":
        return "empty"
    if s.kind == "range":
        return f"{{{s.lo}..{s.hi}}}"
    return "all integers"


def _plain_cycles(s: TwoCycleSet) -> str:
    if s.kind == "neg_one_family":
        return f"all pairs {{x, {s.c} - x}} over the integers (x != {s.c} - x)"
    return " ".join(f"{{{a}, {b}}}" for a, b in s.pairs) or "none"


def _plain_omega(o: OmegaLimit) -> str:
    if o.kind == "fixed":
        return f"fixed {o.z}"
    if o.kind == "two_cycle":
        return f"2-cycle {{{o.a}, {o.b}}}"
    return {"plus_inf": "+infinity", "minus_inf": "-infinity", "plus_minus_inf": "+-infinity"}[o.kind]


def _cmd_fix(args: argparse.Namespace) -> int:
    s = fixed_points(Params(args.lam, args.mu))
    return _emit(args, s.to_json, lambda: _plain_integer_set(s))


def _cmd_cycles(args: argparse.Namespace) -> int:
    s = two_cycles(Params(args.lam, args.mu))
    if args.window is not None:
        s = TwoCycleSet("finite", s.clip(args.window.lo, args.window.hi))
    return _emit(args, s.to_json, lambda: _plain_cycles(s))


def _cmd_omega(args: argparse.Namespace) -> int:
    p = Params(args.lam, args.mu)
    limit = omega_limit(p, args.x)
    tag = classify_case(p)
    return _emit(args, lambda: {**limit.to_json(), "case": tag.value},
                 lambda: f"{_plain_omega(limit)} [case {tag.value}]")


def _cmd_orbit(args: argparse.Namespace) -> int:
    orbit = iterate_orbit(Params(args.lam, args.mu), args.x, args.steps)
    # "truncated": the tail is always a prefix of the infinite orbit
    return _emit(args, lambda: {"start": format_rational(orbit.start), "tail": orbit.tail, "truncated": True},
                 lambda: "\n".join(map(str, orbit.tail)))


def _cmd_classify(args: argparse.Namespace) -> int:
    tag = classify_case(Params(args.lam, args.mu))
    return _emit(args, tag.to_json, lambda: tag.value)


def _cmd_scan(args: argparse.Namespace) -> int:
    spec = SweepSpec(
        lambda_from=args.lambda_range[0],
        lambda_to=args.lambda_range[1],
        lambda_step=args.lambda_step,
        mu_from=args.mu_range[0],
        mu_to=args.mu_range[1],
        mu_step=args.mu_step,
        x_window=args.x_window,
        target=SweepTarget(args.target),
    )
    writer = write_csv if args.format == "csv" else write_jsonl
    if args.out is None:
        writer(sweep(spec), sys.stdout)
        return 0
    try:
        with open(args.out, "w", newline="") as out:
            writer(sweep(spec), out)
    except OSError as exc:
        print(f"quasiaffine scan: error: cannot write {args.out}: {exc.strerror}", file=sys.stderr)
        return 2
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    rng = random.Random(args.seed)
    w = args.window
    checked = 0
    for lam in grid_values(args.lambda_range[0], args.lambda_range[1], args.lambda_step):
        for mu in grid_values(args.mu_range[0], args.mu_range[1], args.mu_step):
            samples = [random_rational(rng, w.lo, w.hi) for _ in range(args.samples)]
            verdict = cross_check(Params(lam, mu), w, samples)
            if not verdict.agrees:
                return _emit(args, verdict.to_json, lambda: f"disagree: {verdict.detail}", status=1)
            checked += 1
    return _emit(args, OracleVerdict(True, "").to_json, lambda: f"agree ({checked} parameter pairs)")


# stock argparse only lets plain negative numbers through as option values;
# widen the matcher so "-13/10" and "-2..2" parse (all our flags are words)
_LEADING_MINUS_VALUE = re.compile(r"^-[0-9]")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="quasiaffine",
        description="Exact dynamics of f(x) = floor(lambda*x + mu) over rational parameters.",
    )
    parser.add_argument("--plain", action="store_true", help="human-readable output instead of JSON")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def map_flags(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--lambda", dest="lam", type=_rational, required=True, metavar="P/Q")
        sp.add_argument("--mu", type=_rational, required=True, metavar="P/Q")

    def grid_flags(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--lambda-range", type=_rational_range, required=True, metavar="A..B")
        sp.add_argument("--lambda-step", type=_positive_rational, required=True, metavar="P/Q")
        sp.add_argument("--mu-range", type=_rational_range, required=True, metavar="A..B")
        sp.add_argument("--mu-step", type=_positive_rational, required=True, metavar="P/Q")

    sp = sub.add_parser("fix", help="fixed-point set")
    map_flags(sp)
    sp.set_defaults(handler=_cmd_fix)

    sp = sub.add_parser("cycles", help="2-cycle set (symbolic family unless --window)")
    map_flags(sp)
    sp.add_argument("--window", type=_window, metavar="LO..HI")
    sp.set_defaults(handler=_cmd_cycles)

    sp = sub.add_parser("omega", help="limit set of a start point, plus the case tag")
    map_flags(sp)
    sp.add_argument("--x", type=_rational, required=True, metavar="P/Q")
    sp.set_defaults(handler=_cmd_omega)

    sp = sub.add_parser("orbit", help="first N integer iterates of a start point")
    map_flags(sp)
    sp.add_argument("--x", type=_rational, required=True, metavar="P/Q")
    sp.add_argument("--steps", type=_non_negative_int, required=True)
    sp.set_defaults(handler=_cmd_orbit)

    sp = sub.add_parser("classify", help="which of the nine parameter regimes applies")
    map_flags(sp)
    sp.set_defaults(handler=_cmd_classify)

    sp = sub.add_parser("scan", help="bifurcation-diagram sweep to CSV/JSONL")
    sp.add_argument("--target", choices=[t.value for t in SweepTarget], required=True)
    grid_flags(sp)
    sp.add_argument("--x-window", type=_window, required=True, metavar="LO..HI")
    sp.add_argument("--out", metavar="PATH", help="output file (default: stdout)")
    sp.add_argument("--format", choices=["csv", "jsonl"], default="csv")
    sp.set_defaults(handler=_cmd_scan)

    sp = sub.add_parser("verify", help="closed forms vs brute force on a parameter grid")
    grid_flags(sp)
    sp.add_argument("--window", type=_window, required=True, metavar="LO..HI")
    sp.add_argument("--samples", type=_non_negative_int, default=5, help="random start points per grid cell")
    sp.add_argument("--seed", type=_integer, default=0)
    sp.set_defaults(handler=_cmd_verify)

    return parser


# the status a shell reports for a process killed by SIGPIPE
_EXIT_BROKEN_PIPE = 141

# built on the first `main` call, not at import, so importing the module stays cheap
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    return args.handler(args)


def entrypoint() -> None:
    # orbits grow geometrically and starts may be long: lift the interpreter's
    # cap on int <-> str conversion, which `main` leaves to its host process
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    try:
        try:
            status = main()
        except SystemExit as exc:  # argparse exits on --help and on usage errors
            status = exc.code
        # a reader that closed early shows up here, not at interpreter exit
        sys.stdout.flush()
    except BrokenPipeError:
        # the unwritten output would fail again in the flush at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = _EXIT_BROKEN_PIPE
    raise SystemExit(status)


if __name__ == "__main__":
    entrypoint()
