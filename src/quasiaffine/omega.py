"""Exact limit-set classification for f(x) = floor(lam*x + mu).

The limit set of any forward orbit here is one of: a single fixed point,
a 2-cycle, {+inf}, {-inf}, or {-inf, +inf}. For lam >= 0, at lam = -1,
and for starts that land on a fixed point, the answer has a closed form
in the integer z = f(x) and the parameters. The remaining negative-slope
starts are settled by an exact decision procedure on the (monotone
non-decreasing) second iterate: its integer orbit either stops on a
periodic point or strictly passes every periodic point of the map, after
which it can never return. No tolerances, no iteration caps.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .core import Params, Rational, RationalLike, _integer_form, eval_map, floor_rat, integer_step
from .periodic import _two_cycle_runs, fixed_points


@dataclass(frozen=True)
class OmegaLimit:
    """Tagged limit set: Fixed(z), TwoCycle(a, b) with a < b, or an escape
    to {+inf}, {-inf}, or {-inf, +inf}."""

    kind: str  # "fixed" | "two_cycle" | "plus_inf" | "minus_inf" | "plus_minus_inf"
    z: int | None = None
    a: int | None = None
    b: int | None = None

    def __post_init__(self) -> None:
        if self.kind == "fixed":
            if self.z is None or self.a is not None or self.b is not None:
                raise ValueError("fixed limit carries exactly z")
        elif self.kind == "two_cycle":
            if self.z is not None or self.a is None or self.b is None or self.a >= self.b:
                raise ValueError("two-cycle limit carries a < b")
        elif self.kind in ("plus_inf", "minus_inf", "plus_minus_inf"):
            if self.z is not None or self.a is not None or self.b is not None:
                raise ValueError(f"{self.kind} carries no payload")
        else:
            raise ValueError(f"unknown limit kind {self.kind!r}")

    @classmethod
    def fixed(cls, z: int) -> OmegaLimit:
        return cls("fixed", z=z)

    @classmethod
    def two_cycle(cls, a: int, b: int) -> OmegaLimit:
        return cls("two_cycle", a=a, b=b)

    @classmethod
    def plus_inf(cls) -> OmegaLimit:
        return cls("plus_inf")

    @classmethod
    def minus_inf(cls) -> OmegaLimit:
        return cls("minus_inf")

    @classmethod
    def plus_minus_inf(cls) -> OmegaLimit:
        return cls("plus_minus_inf")

    @property
    def is_escape(self) -> bool:
        return self.kind in ("plus_inf", "minus_inf", "plus_minus_inf")

    def to_json(self) -> dict:
        if self.kind == "fixed":
            return {"kind": "fixed", "z": self.z}
        if self.kind == "two_cycle":
            return {"kind": "two_cycle", "a": self.a, "b": self.b}
        return {"kind": self.kind}


class CaseTag(Enum):
    """The nine mutually exclusive parameter/threshold regimes of the
    classification; siblings (i)/(ii), (vi)/(vii) and (viii)/(ix) are told
    apart by whether a fixed point exists."""

    I = "i"
    II = "ii"
    III = "iii"
    IV = "iv"
    V = "v"
    VI = "vi"
    VII = "vii"
    VIII = "viii"
    IX = "ix"

    def to_json(self) -> dict:
        return {"case": self.value}


def floor_affine_fixpoint(p: Params) -> int:
    """floor(mu / (1 - lam)): the floor of the unique fixed point of the
    inducing affine map (lam != 1). For lam < 0 every image of f is this
    value plus a slab index. Clearing b*d turns it into
    offset // (den - scale) on the integer form of the map."""
    if p.lam == 1:
        raise ValueError("the affine map has no unique fixed point at lambda = 1")
    scale, offset, den = _integer_form(p)
    return offset // (den - scale)


def interval_bounds(p: Params, n: int) -> tuple[Rational, Rational]:
    """Endpoints (left, right) of the n-th half-open slab (left, right]:
    exactly the points whose image under f is floor_affine_fixpoint(p) + n.
    Requires lam < 0; the slabs tile the whole line, drifting leftward as
    n grows."""
    if p.lam >= 0:
        raise ValueError("slab partition is defined only for lambda < 0")
    base = floor_affine_fixpoint(p) - p.mu
    return (base + n + 1) / p.lam, (base + n) / p.lam


def interval_index(p: Params, x: RationalLike) -> int:
    """Index n of the slab containing x, i.e. f(x) - floor_affine_fixpoint(p).

    Requires lam < 0 (the partition does not exist otherwise).
    """
    if p.lam >= 0:
        raise ValueError("slab partition is defined only for lambda < 0")
    return eval_map(p, x) - floor_affine_fixpoint(p)


def classify_case(p: Params) -> CaseTag:
    """The unique regime tag for (lam, mu), by exact threshold comparisons."""
    lam = p.lam
    has_fix = fixed_points(p).kind != "empty"
    if lam > 1:
        return CaseTag.I if has_fix else CaseTag.II
    if lam == 1:
        return CaseTag.III
    if lam > 0:
        return CaseTag.IV
    if lam == 0:
        return CaseTag.V
    if lam > -1:
        return CaseTag.VI if has_fix else CaseTag.VII
    return CaseTag.VIII if has_fix else CaseTag.IX


def omega_limit(p: Params, x: RationalLike) -> OmegaLimit:
    """Exact limit set of the forward orbit of x.

    The orbit enters Z after one step, z = f(x), and for lam >= 0 and
    lam = -1 the answer follows from that integer and the fixed run
    lo .. hi of :func:`fixed_points`, without further iteration:

      lam = -1 : f(w) = floor(mu) - w on Z, so the limit is
        {z, floor(mu) - z} (a fixed point when the two coincide);
      0 <= lam < 1 : f is monotone, moves every w outside the run towards
        it and maps lo and hi to themselves, so Fixed(min(max(z, lo), hi));
      lam >= 1, z in the fixed run : Fixed(z), the orbit has stopped;
      lam = 1  : f(w) = w + floor(mu), so +inf when mu >= 1, else -inf;
      lam > 1  : a non-fixed integer w has f(w) > w iff w > mu/(1-lam), and
        f keeps it on that side, so +inf iff z > floor_affine_fixpoint(p),
        else -inf.

    Every other negative-slope start is settled by :func:`resolve_negative`.
    """
    lam = p.lam
    if lam < 0 and lam != -1:
        return resolve_negative(p, x)
    z = eval_map(p, x)
    if lam == -1:
        partner = floor_rat(p.mu) - z
        if partner == z:
            return OmegaLimit.fixed(z)
        return OmegaLimit.two_cycle(min(z, partner), max(z, partner))
    fs = fixed_points(p)
    if lam < 1:
        return OmegaLimit.fixed(min(max(z, fs.lo), fs.hi))
    if z in fs:
        return OmegaLimit.fixed(z)
    if lam == 1:
        return OmegaLimit.plus_inf() if p.mu >= 1 else OmegaLimit.minus_inf()
    return OmegaLimit.plus_inf() if z > floor_affine_fixpoint(p) else OmegaLimit.minus_inf()


def resolve_negative(p: Params, x: RationalLike) -> OmegaLimit:
    """Decide the limit set for lam < 0, lam != -1 by exact iteration of the
    second iterate g = f o f on the integer z = f(x).

    g is monotone non-decreasing, so the orbit z, g(z), g(g(z)), ... is
    monotone; its fixed points are precisely the fixed points of f plus
    the members of its 2-cycles, all finitely many here. Hence the orbit
    either stops (f(z) = z gives Fixed, otherwise the pair {z, f(z)} is
    the limiting 2-cycle) or, once it strictly passes every periodic
    point in its direction of travel, can never stop: the even iterates
    run to one infinity and the odd ones to the other. Both outcomes are
    reached in finitely many steps, so no iteration cap is needed. A start
    whose image z is the fixed point has already stopped and is answered
    before any bound is taken.

    The bound on |periodic point| is taken run by run: the members of the
    pairs {x, x + k}, x in x_lo .. x_hi, lie in x_lo .. x_hi + k and include
    both ends, so max(|x_lo|, |x_hi + k|) is their largest magnitude.
    """
    lam = p.lam
    if lam >= 0:
        raise ValueError("resolution procedure requires lambda < 0")
    if lam == -1:
        raise ValueError("lambda = -1 is answered in closed form, not by iteration")
    z = eval_map(p, x)
    fs = fixed_points(p)
    if z in fs:
        return OmegaLimit.fixed(z)
    bound = max(abs(fs.lo), abs(fs.hi)) if fs.kind == "range" else 0
    for k, x_lo, x_hi in _two_cycle_runs(p):
        if x_lo <= x_hi:
            bound = max(bound, abs(x_lo), abs(x_hi + k))
    step = integer_step(p)
    while True:
        w = step(step(z))
        if w == z:
            fz = step(z)
            if fz == z:
                return OmegaLimit.fixed(z)
            return OmegaLimit.two_cycle(min(z, fz), max(z, fz))
        if (w > z and w > bound) or (w < z and w < -bound):
            return OmegaLimit.plus_minus_inf()
        z = w
