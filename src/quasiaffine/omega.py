"""Exact limit-set classification for f(x) = floor(lam*x + mu).

The limit set of any forward orbit here is one of: a single fixed point,
a 2-cycle, {+inf}, {-inf}, or {-inf, +inf}. For lam >= 0 the answer has
a closed form in the integer z = f(x) and the parameters. Every
negative-slope start is settled by an exact decision procedure on the
(monotone non-decreasing) second iterate: its integer orbit either stops
on a periodic point or strictly passes every periodic point of the map,
after which it can never return. The procedure's first step is two
integer expressions on ``Params.form`` and answers every start on a
periodic point, and so every start at lam = -1. At lam <= -2 the fixed
point is the only periodic point and no other integer maps onto it, so a
start that the first step does not settle has {-inf, +inf}, in closed
form. Only -2 < lam < 0 goes on stepping, through :func:`integer_step`,
whose closure is where a tracer counts the steps. No tolerances, no
iteration caps. An answer allocates at most its own result: the
lam >= 0 branch reads the fixed run as two ints, fixed and 2-cycle
answers are built without re-validation, and the three escape verdicts
are shared module-level constants.

Limit sets depend on mu only through the map on Z, ``Params.form``, and
``omega_limit`` reads mu only through it and :func:`eval_map`. Only
:func:`floor_affine_fixpoint` and the slabs, which are built on the affine
fixed point p* = mu/(1 - lam), keep all of mu.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .core import Params, Rational, RationalLike, eval_map, integer_step
from .periodic import fixed_run, periodic_hull


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

    # fixed and two_cycle answers are built by the library from values it
    # has just computed, so they check only what their own arguments can get
    # wrong and set all four fields at once, skipping __init__ and
    # __post_init__; the instance equals, hashes and prints like a
    # constructed one, and a direct OmegaLimit(kind, ...) call still validates
    @classmethod
    def fixed(cls, z: int) -> OmegaLimit:
        if z is None:
            raise ValueError("fixed limit carries exactly z")
        self = object.__new__(cls)
        object.__setattr__(self, "__dict__", {"kind": "fixed", "z": z, "a": None, "b": None})
        return self

    @classmethod
    def two_cycle(cls, a: int, b: int) -> OmegaLimit:
        if a >= b:
            raise ValueError("two-cycle limit carries a < b")
        self = object.__new__(cls)
        object.__setattr__(self, "__dict__", {"kind": "two_cycle", "z": None, "a": a, "b": b})
        return self

    # the three escapes carry no payload, and the class is frozen, so one
    # shared instance of each serves every answer (built below the class)
    @classmethod
    def plus_inf(cls) -> OmegaLimit:
        return _PLUS_INF

    @classmethod
    def minus_inf(cls) -> OmegaLimit:
        return _MINUS_INF

    @classmethod
    def plus_minus_inf(cls) -> OmegaLimit:
        return _PLUS_MINUS_INF

    @property
    def is_escape(self) -> bool:
        return self.kind in ("plus_inf", "minus_inf", "plus_minus_inf")

    def to_json(self) -> dict:
        if self.kind == "fixed":
            return {"kind": "fixed", "z": self.z}
        if self.kind == "two_cycle":
            return {"kind": "two_cycle", "a": self.a, "b": self.b}
        return {"kind": self.kind}


_PLUS_INF = OmegaLimit("plus_inf")
_MINUS_INF = OmegaLimit("minus_inf")
_PLUS_MINUS_INF = OmegaLimit("plus_minus_inf")


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
    value plus a slab index. It depends on all of mu = c/d, not only on
    the map on Z: with lam = scale/den it is c*den // (d*(den - scale))."""
    scale, _, den = p.form
    if scale == den:
        raise ValueError("the affine map has no unique fixed point at lambda = 1")
    c, d = p.mu.as_integer_ratio()
    return c * den // (d * (den - scale))


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
    if p.form[0] >= 0:
        raise ValueError("slab partition is defined only for lambda < 0")
    return eval_map(p, x) - floor_affine_fixpoint(p)


def classify_case(p: Params) -> CaseTag:
    """The unique regime tag for (lam, mu), by exact threshold comparisons
    of scale against 0 and +-den on ``p.form`` (lam = scale/den). A fixed
    point exists when the run of :func:`fixed_run` is not inverted; the run
    is None only at lam = 1, which is case iii whatever the run."""
    scale, offset, den = p.form
    if scale == den:
        return CaseTag.III
    lo, hi = fixed_run(scale, offset, den)
    has_fix = lo <= hi
    if scale > den:
        return CaseTag.I if has_fix else CaseTag.II
    if scale > 0:
        return CaseTag.IV
    if scale == 0:
        return CaseTag.V
    if scale > -den:
        return CaseTag.VI if has_fix else CaseTag.VII
    return CaseTag.VIII if has_fix else CaseTag.IX


def omega_limit(p: Params, x: RationalLike) -> OmegaLimit:
    """Exact limit set of the forward orbit of x.

    Every lam < 0 is settled by :func:`resolve_negative`. Otherwise the
    orbit enters Z after one step, z = f(x), and the answer follows from
    that integer and the fixed run lo .. hi of :func:`fixed_run` on
    ``p.form``, read as two ints (no set object is built), without
    further iteration:

      lam = 1, 0 <= mu < 1 : fixed_run gives None, every integer is
        fixed, so Fixed(z);
      0 <= lam < 1 : f is monotone, moves every w outside the run towards
        it and maps lo and hi to themselves, so Fixed(min(max(z, lo), hi));
        the run is never empty here, as its interval is at least 1 wide;
      lam >= 1, lo <= z <= hi : Fixed(z), the orbit has stopped;
      lam = 1  : f(w) = w + floor(mu), so +inf when mu >= 1, else -inf;
      lam > 1  : a non-fixed integer w has f(w) > w iff w > mu'/(1-lam), and
        f keeps it on that side, so +inf iff z > floor(mu'/(1 - lam)),
        else -inf.

    The regime is picked by integer tests on the map on Z
    f(z) = (scale*z + offset) // den of ``p.form`` (lam = scale/den and
    mu' = offset/den = floor(den*mu)/den, which gives the same map on Z):

      lam < 0  <=> scale < 0           lam < 1 <=> scale < den
      lam = 1  <=> scale = den         mu >= 1 <=> offset >= den
      floor(mu'/(1 - lam)) = offset // (den - scale), which is not
        floor_affine_fixpoint(p): that one reads all of mu
    """
    scale, offset, den = p.form
    if scale < 0:
        return resolve_negative(p, x)
    z = eval_map(p, x)
    run = fixed_run(scale, offset, den)
    if run is None:
        return OmegaLimit.fixed(z)
    lo, hi = run
    if scale < den:
        return OmegaLimit.fixed(min(max(z, lo), hi))
    if lo <= z <= hi:
        return OmegaLimit.fixed(z)
    if scale == den:
        return _PLUS_INF if offset >= den else _MINUS_INF
    return _PLUS_INF if z > offset // (den - scale) else _MINUS_INF


def resolve_negative(p: Params, x: RationalLike) -> OmegaLimit:
    """Decide the limit set for lam < 0 by exact iteration of the second
    iterate g = f o f on the integer z = f(x).

    g is monotone non-decreasing, so the orbit z, g(z), g(g(z)), ... is
    monotone; its fixed points are precisely the fixed points of f plus
    the members of its 2-cycles. Hence the orbit either stops (f(z) = z
    gives Fixed, otherwise the pair {z, f(z)} is the limiting 2-cycle) or,
    once it strictly passes every periodic point in its direction of
    travel, can never stop: the even iterates run to one infinity and the
    odd ones to the other. Both outcomes are reached in finitely many
    steps, so no iteration cap is needed.

    The first step, f(z) and w = g(z), is two integer expressions on
    ``p.form`` and needs no step function. When w = z the orbit has
    already stopped; this answers every start that is already periodic,
    and every start at lam = -1, where f(w) = floor(mu) - w on Z, so g is
    the identity and the answer is {z, floor(mu) - z}, or Fixed(z) when
    the two coincide.

    lam <= -2 (scale + 2*den <= 0) with w != z is {-inf, +inf} in closed form:

      - |lam + 1| >= 1 leaves no gap k >= 1 (k_hi = 0 in
        :func:`periodic._gaps`), so there is no 2-cycle and the fixed
        point q, if any, is the only periodic point;
      - the integers y with f(y) = q lie in a half-open interval of width
        1/|lam| <= 1/2 that contains q, so q is its own only integer
        preimage, and an orbit from z != q never reaches it;
      - so the monotone orbit of g never stops and is unbounded, and f is
        non-increasing, so the orbit alternates between the two infinities.

    Otherwise -2 < lam < 0, lam != -1, every periodic point lies in
    bottom .. top of :func:`periodic_hull` on ``p.form``, and the orbit
    steps through :func:`integer_step` until it stops or passes them.
    """
    scale, offset, den = p.form
    if scale >= 0:
        raise ValueError("resolution procedure requires lambda < 0")
    z = eval_map(p, x)
    fz = (scale * z + offset) // den
    w = (scale * fz + offset) // den
    if w != z:
        if scale + 2 * den <= 0:
            return _PLUS_MINUS_INF
        # not inlined, so perfbench still counts steps and its traced replay keeps its length (CHANGES.md, FOUND 16)
        step = integer_step(p)
        bottom, top = periodic_hull(scale, offset, den)
        while w != z:
            if (w > z and w > top) or (w < z and w < bottom):
                return _PLUS_MINUS_INF
            z, w = w, step(step(w))
        fz = step(z)
    if fz == z:
        return OmegaLimit.fixed(z)
    return OmegaLimit.two_cycle(min(z, fz), max(z, fz))
