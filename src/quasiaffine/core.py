"""Exact arithmetic core for the map f(x) = floor(lam*x + mu).

``fractions.Fraction`` is the boundary type: parameters and start points
enter and leave the package as Fractions, and no floating point exists
anywhere, so all threshold comparisons are decidable and exact. The map
sends all of Q into Z, which means an orbit is a single rational start
followed by a purely integer tail. On Z the map depends on mu only
through floor(b*mu) for lam = a/b; :class:`Params` computes that map once
(``form``), and the closed forms and the iteration run on it. Once
Params and x exist, no Fraction arithmetic is left on the way to an answer.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Union

Rational = Fraction

RationalLike = Union[Rational, int, str]

_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def parse_rational(text: str) -> Rational:
    """Parse "p/q" text: optional sign on p, "/q" omitted for integers.

    Digits are ASCII 0-9. Rejects q = 0 and anything outside the grammar:
    in particular decimal notation, which would smuggle in a binary
    approximation, and the non-ASCII digits and "_" separators that int()
    would read.
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


class _SetFields:
    """The one JSON rule of the tagged answer types (counts, integer sets,
    limit sets): the fields that are set (not None), in field order. A
    dataclass's ``__init__`` fills ``__dict__`` in field order, and
    instances built around it must keep that order."""

    def to_json(self) -> dict:
        return {name: value for name, value in self.__dict__.items() if value is not None}


def integer_form(a: int, b: int, c: int, d: int) -> tuple[int, int, int]:
    """(scale, offset, den) = (a, floor(b*c/d), b): f(z) = (scale*z + offset) // den
    is floor(lam*z + mu) on Z for lam = a/b and mu = c/d (b, d > 0, neither
    fraction need be reduced), as floor((N + r)/b) equals floor((N + floor(r))/b)
    for an integer N."""
    return a, c * b // d, b


@dataclass(frozen=True)
class Window:
    """An inclusive integer window [lo, hi]."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if not (isinstance(self.lo, int) and isinstance(self.hi, int)):
            raise TypeError(f"window bounds must be ints, got {self.lo!r}..{self.hi!r}")
        if self.lo > self.hi:
            raise ValueError("window requires lo <= hi")

    def members(self) -> range:
        return range(self.lo, self.hi + 1)


@dataclass(frozen=True)
class Params:
    """One map instance f(x) = floor(lam*x + mu); any rational pair is legal.

    ``form`` = (scale, offset, den) = (a, floor(b*mu), b) for lam = a/b, b > 0,
    is :func:`integer_form`: f(z) = (scale*z + offset) // den on Z. It stays
    out of repr and ==.
    """

    lam: Rational
    mu: Rational
    form: tuple[int, int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        lam, mu = as_rational(self.lam), as_rational(self.mu)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "form", integer_form(*lam.as_integer_ratio(), *mu.as_integer_ratio()))


def eval_map(p: Params, x: RationalLike) -> int:
    """One application of f; the result is always an integer.

    At x = xn/xd (xd > 0) and mu = c/d, lam*x + mu is (scale*xn + r)/(den*xd)
    with r = c*den*xd/d, and flooring r first changes nothing, so
    f(x) = (scale*xn + c*den*xd // d) // (den*xd): two exact floors and no gcd.
    """
    xn, xd = as_rational(x).as_integer_ratio()
    c, d = p.mu.as_integer_ratio()
    scale, _, den = p.form
    return (scale * xn + c * den * xd // d) // (den * xd)


def integer_step(p: Params) -> Callable[[int], int]:
    """Specialise f to integer arguments on ``p.form``, which agrees with
    :func:`eval_map` on every integer. Orbit tails live entirely in Z, so
    this is the hot path for iteration."""
    scale, offset, den = p.form

    def step(z: int) -> int:
        return (scale * z + offset) // den

    return step


@dataclass(frozen=True)
class Orbit:
    """A finite forward orbit: rational start, integer tail f(x), f^2(x), ...

    The tail is always a prefix of the infinite orbit; the caller decides
    whether it was long enough. Its JSON is its own, not the rule of the
    tagged answers: the start is written as "p/q" text, and the constant
    "truncated" flag says that the tail is such a prefix.
    """

    start: Rational
    tail: tuple[int, ...]

    def to_json(self) -> dict:
        return {"start": format_rational(self.start), "tail": list(self.tail), "truncated": True}

    def to_text(self) -> str:
        """One iterate per line."""
        return "\n".join(map(str, self.tail))


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
    return Orbit(start=x, tail=tuple(tail))
