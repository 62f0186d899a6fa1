"""Exact arithmetic core for the map f(x) = floor(lam*x + mu).

``fractions.Fraction`` is the boundary type: parameters and start points
enter and leave the package as Fractions, and no floating point exists
anywhere, so all threshold comparisons are decidable and exact. The map
sends all of Q into Z, which means an orbit is a single rational start
followed by a purely integer tail; inside, the closed forms and the
iteration run on the integer form of the map (:func:`_integer_form`).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Union

Rational = Fraction

RationalLike = Union[Rational, int, str]

_RATIONAL_RE = re.compile(r"[+-]?\d+(?:/\d+)?")


def parse_rational(text: str) -> Rational:
    """Parse "p/q" text: optional sign on p, "/q" omitted for integers.

    Rejects q = 0 and anything outside the grammar (in particular decimal
    notation, which would smuggle in a binary approximation).
    """
    s = text.strip()
    if not _RATIONAL_RE.fullmatch(s):
        raise ValueError(f"malformed rational {text!r} (expected 'p' or 'p/q')")
    num, _, den = s.partition("/")
    if den:
        d = int(den)
        if d == 0:
            raise ValueError(f"malformed rational {text!r}: denominator is zero")
        return Fraction(int(num), d)
    return Fraction(int(num))


def as_rational(value: RationalLike) -> Rational:
    """Coerce Fractions, ints and "p/q" strings to Fraction; floats are refused."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def format_rational(value: RationalLike) -> str:
    """Render as "p/q" with "/q" omitted when the denominator is 1."""
    return str(as_rational(value))


def floor_rat(x: RationalLike) -> int:
    """Greatest integer n with n <= x: floor toward -inf, exact for negatives."""
    x = as_rational(x)
    return x.numerator // x.denominator


def ceil_rat(x: RationalLike) -> int:
    """Smallest integer n with x <= n; equals -floor(-x)."""
    x = as_rational(x)
    return -((-x.numerator) // x.denominator)


@dataclass(frozen=True)
class Params:
    """One map instance f(x) = floor(lam*x + mu); any rational pair is legal."""

    lam: Rational
    mu: Rational

    def __post_init__(self) -> None:
        object.__setattr__(self, "lam", as_rational(self.lam))
        object.__setattr__(self, "mu", as_rational(self.mu))


def eval_affine(p: Params, x: RationalLike) -> Rational:
    """The inducing affine map lam*x + mu, exactly."""
    return p.lam * as_rational(x) + p.mu


def eval_map(p: Params, x: RationalLike) -> int:
    """One application of f; the result is always an integer."""
    return floor_rat(eval_affine(p, x))


def _integer_form(p: Params) -> tuple[int, int, int]:
    """(scale, offset, den) = (a*d, c*b, b*d) for lam = a/b, mu = c/d (b, d > 0).

    Clearing both denominators gives f(z) = (scale*z + offset) // den on
    integers, since Python's ``//`` floors toward -inf; den > 0, so every
    threshold on f keeps its direction.
    """
    a, b = p.lam.numerator, p.lam.denominator
    c, d = p.mu.numerator, p.mu.denominator
    return a * d, c * b, b * d


def integer_step(p: Params) -> Callable[[int], int]:
    """Specialise f to integer arguments on its integer form, which agrees
    with :func:`eval_map` on every integer. Orbit tails live entirely in Z,
    so this is the hot path for iteration."""
    scale, offset, den = _integer_form(p)

    def step(z: int) -> int:
        return (scale * z + offset) // den

    return step


@dataclass(frozen=True)
class Orbit:
    """A finite forward orbit: rational start, integer tail f(x), f^2(x), ...

    ``truncated`` is always True: the tail is a prefix of the infinite
    orbit and the caller decides whether it was long enough.
    """

    start: Rational
    tail: tuple[int, ...]
    truncated: bool


def iterate_orbit(p: Params, x: RationalLike, steps: int) -> Orbit:
    """First ``steps`` iterates of x under f."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    x = as_rational(x)
    tail: list[int] = []
    if steps:
        z = eval_map(p, x)
        tail.append(z)
        step = integer_step(p)
        for _ in range(steps - 1):
            z = step(z)
            tail.append(z)
    return Orbit(start=x, tail=tuple(tail), truncated=True)
