"""Brute-force verification oracles, independent of every closed form.

Nothing here consults the formulas in :mod:`quasiaffine.periodic` or the
classification in :mod:`quasiaffine.omega` (except in
:func:`cross_check`, whose whole job is to compare the two routes). The
oracles only ever apply the map itself: windowed enumeration for
periodic points, plain orbit iteration with pattern detection for limit
sets, and a bounded search refuting cycles of length >= 3, all stepping
inline on their own integer form (:func:`_full_form`). Iteration budgets
are fixed, or derived in integers on that form from lam, mu and the
start alone (:func:`step_budget`, :func:`escape_bound`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence, Union

from .core import Params, Rational, RationalLike, Window, as_rational
from .omega import OmegaLimit, omega_limit
from .periodic import fixed_points, two_cycles

DEFAULT_MAX_STEPS = 512
DEFAULT_ESCAPE_BOUND = 10**9


@dataclass(frozen=True)
class OracleVerdict:
    """Outcome of a verification pass. A disagreement always says what
    mismatched (parameters, point, expected vs found); an agreement may
    still note points the check had to skip. Its JSON is its own, not the
    rule of the tagged answers in ``core``: the oracle imports only values
    from ``core``, so that it stays independent of the closed forms."""

    agrees: bool
    detail: str = ""

    def __post_init__(self) -> None:
        if not self.agrees and not self.detail:
            raise ValueError("a disagreement must describe the mismatch")

    def to_json(self) -> dict:
        return {"agrees": self.agrees, "detail": self.detail}


@dataclass(frozen=True)
class Unresolved:
    """Budget exhausted before any orbit pattern emerged. A value, not an
    error: tests treat it as their failure signal."""


UNRESOLVED = Unresolved()

BruteOmega = Union[OmegaLimit, Unresolved]


def _full_form(p: Params) -> tuple[int, int, int]:
    """(a*d, c*b, b*d) for lam = a/b, mu = c/d, so f(z) = (scale*z + offset) // den.
    Read off lam and mu alone, so agreement tests ``Params.form`` instead of sharing it."""
    a, b = p.lam.as_integer_ratio()
    c, d = p.mu.as_integer_ratio()
    return a * d, c * b, b * d


def brute_fixed_points(p: Params, w: Window) -> list[int]:
    """All z in the window with f(z) = z, by direct scan (f maps into Z,
    so no fixed point inside the window can be missed)."""
    scale, offset, den = _full_form(p)
    return [z for z in w.members() if (scale * z + offset) // den == z]


def brute_two_cycles(p: Params, w: Window) -> list[tuple[int, int]]:
    """All pairs {z, f(z)} with both members in the window, f(z) != z and
    f(f(z)) = z, canonically ordered."""
    lo, hi = w.lo, w.hi
    scale, offset, den = _full_form(p)
    image = [(scale * z + offset) // den for z in w.members()]
    pairs = []
    for z in w.members():
        y = image[z - lo]
        if z < y <= hi and image[y - lo] == z:
            pairs.append((z, y))
    return pairs


def brute_omega(
    p: Params,
    x: RationalLike,
    max_steps: int = DEFAULT_MAX_STEPS,
    escape_bound: int = DEFAULT_ESCAPE_BOUND,
) -> BruteOmega:
    """Estimate the limit set by iterating the integer tail of x = xn/xd
    inline: (scale*xn + offset*xd) // (den*xd), then (scale*z + offset) // den.

    Detects eventual constancy (Fixed), period-2 alternation (TwoCycle),
    a monotone exit with two consecutive iterates beyond +-escape_bound
    (PlusInfinity / MinusInfinity), and an alternating-sign exit
    (PlusMinusInfinity). Anything else within max_steps is UNRESOLVED.
    """
    if max_steps < 2:
        raise ValueError("max_steps must be >= 2")
    xn, xd = as_rational(x).as_integer_ratio()
    scale, offset, den = _full_form(p)
    before: int | None = None
    prev = (scale * xn + offset * xd) // (den * xd)
    cur = (scale * prev + offset) // den
    for _ in range(max_steps - 1):
        if cur == prev:
            return OmegaLimit.fixed(cur)
        if cur == before:
            return OmegaLimit.two_cycle(min(prev, cur), max(prev, cur))
        if abs(prev) > escape_bound and abs(cur) > escape_bound:
            if prev > 0 and cur > prev:
                return OmegaLimit.plus_inf()
            if prev < 0 and cur < prev:
                return OmegaLimit.minus_inf()
            if (prev > 0) != (cur > 0):
                return OmegaLimit.plus_minus_inf()
        before, prev, cur = prev, cur, (scale * cur + offset) // den
    return UNRESOLVED


def periodic_radius(p: Params) -> Rational:
    """The bound r = 1/||lam| - 1| + 1 on |z - p*| over all periodic points z,
    with p* = mu/(1 - lam) and |lam| != 1, read off :func:`_full_form` as
    den/far + 1 for far = ||scale| - den|.

    A fixed point has |(lam - 1)(z - p*)| < 1, and a 2-cycle {u, v} with
    v = lam*u + mu - e1, u = lam*v + mu - e2 (e1, e2 in [0, 1)) gives
    |u - p*|*|1 - lam^2| <= |lam| + 1. The bound comes from the map
    alone, never from the closed forms.
    """
    scale, _, den = _full_form(p)
    return Fraction(den, abs(abs(scale) - den)) + 1


def _budgets(p: Params) -> Callable[[Rational], tuple[int, int]]:
    """The map x -> (:func:`step_budget`, :func:`escape_bound`) of one
    parameter pair, with every start-free term derived once, in integers,
    on f(z) = (scale*z + offset) // den.

    With far = ||scale| - den| and near = den - scale, lam = scale/den
    gives r = ceil(den/far) + 1 (the ceiling of :func:`periodic_radius`)
    and p* = offset/near, so ceil(|p*| + den/far + 1) is one ceiling
    division over |near|*far, plus 1. Per start x = xn/xd only the terms
    in xn and xd remain: 2*ceil(|x|) + 2, and for |lam| < 1 (near > 0)
    ceil(|x - p*|) = ceil(|xn*near - offset*xd| / (xd*near)). At
    |lam| = 1 (far = 0) there is no region: r = 0, the region is 0 and
    the budget is DEFAULT_MAX_STEPS."""
    scale, offset, den = _full_form(p)
    far, near = abs(abs(scale) - den), den - scale
    r = region = 0
    if far:
        r = -(-den // far) + 1
        region = 10 * (-(-(abs(offset) * far + den * abs(near)) // (abs(near) * far)) + 1 + 10**4)
    settle, contracting = 4 * r + 8, abs(scale) < den

    def budgets(x: Rational) -> tuple[int, int]:
        xn, xd = x.as_integer_ratio()
        steps = settle
        if contracting:
            distance = -(-abs(xn * near - offset * xd) // (xd * near))
            steps += (r - 1) * (distance + 2).bit_length()
        return max(DEFAULT_MAX_STEPS, steps), max(region, 2 * -(-abs(xn) // xd) + 2)

    return budgets


def escape_bound(p: Params, x: RationalLike) -> int:
    """Beyond this every orbit from x has left the periodic region for
    good, so an iterate past it is a genuine escape; below it, the start
    cannot fake one. A contracting orbit stays within |x - p*| + r of p*,
    so below |x| + 2|p*| + r: the 2|x| + 2 term covers it for huge starts.
    The bound is max(10*(ceil(|p*| + r) + 10^4), 2*ceil(|x|) + 2), with
    r = :func:`periodic_radius`, computed in integers by :func:`_budgets`.

    At |lam| = 1 there is no such region and the bound is 2*ceil(|x|) + 2:
    lam = -1 orbits are periodic from their first integer on, and lam = 1
    moves a non-fixed orbit by floor(mu) != 0 each step, never back, so
    passing the start suffices."""
    return _budgets(p)(as_rational(x))[1]


def step_budget(p: Params, x: RationalLike) -> int:
    """Steps after which the orbit of x has settled, if it ever does, and
    never fewer than DEFAULT_MAX_STEPS; computed in integers by
    :func:`_budgets`.

    With |lam| != 1 and r = ceil(:func:`periodic_radius`), the periodic
    points lie within r of p*. Inside that region the second iterate is
    monotone and moves by at least 1 until it stops, which 4r + 8 steps
    cover. For |lam| < 1 the orbit also has to come in: each step
    multiplies |z - p*| by |lam| and adds less than 1, so every
    r - 1 = ceil(1/(1 - |lam|)) steps at least halve its excess over
    1/(1 - |lam|), and bit_length of ceil(|x - p*|) + 2 halvings bring it
    within r. At |lam| = 1, where the radius is undefined, every orbit
    stops or moves off at once.
    """
    return _budgets(p)(as_rational(x))[0]


def _mismatch(claimed: OmegaLimit, observed: BruteOmega, max_steps: int) -> str:
    """Why the iterated verdict refutes the claimed limit set, or ""."""
    if isinstance(observed, Unresolved):
        if claimed.is_escape:
            return ""
        return f"claimed {claimed.kind} but iteration was unresolved after {max_steps} steps"
    if claimed == observed:
        return ""
    return f"claimed {claimed.to_json()} != observed {observed.to_json()}"


def check_no_long_cycles(p: Params, w: Window, n_max: int) -> OracleVerdict:
    """Search the window for a point of minimal period 3..n_max; finding
    one falsifies the no-long-cycles claim.

    Orbits are followed inside a padded window [lo - P, hi + P] with
    P = ceil((|lam| + 1)*(hi - lo)); a point whose orbit leaves the
    padding is skipped and counted in the verdict detail as unchecked.
    """
    if n_max < 3:
        raise ValueError("n_max must be >= 3")
    scale, offset, den = _full_form(p)
    pad = -(-(abs(scale) + den) * (w.hi - w.lo) // den)
    lo, hi = w.lo - pad, w.hi + pad
    unchecked = 0
    for z in w.members():
        v = z
        for m in range(1, n_max + 1):
            v = (scale * v + offset) // den
            if v < lo or v > hi:
                unchecked += 1
                break
            if v == z:
                if m >= 3:
                    return OracleVerdict(
                        False,
                        f"lambda={p.lam} mu={p.mu}: z={z} has minimal period {m}",
                    )
                break
    detail = ""
    if unchecked:
        detail = f"unchecked: {unchecked} points left the padded window [{lo}, {hi}]"
    return OracleVerdict(True, detail)


def cross_check(p: Params, w: Window, samples: Sequence[RationalLike]) -> OracleVerdict:
    """Compare every closed form against brute force on one parameter pair.

    Fixed points and 2-cycles are compared window-clipped and exactly.
    For each sample x the classification must match the iterated verdict;
    an UNRESOLVED brute verdict is accepted only when the classification
    says the orbit escapes (the one situation a finite budget cannot
    certify). Each sample is iterated once, to :func:`escape_bound`, for
    :func:`step_budget` steps, both derived by :func:`_budgets` with their
    start-free terms computed once per call. A claimed escape gets only
    ``DEFAULT_MAX_STEPS``: an UNRESOLVED verdict already confirms it, so
    more steps could only cost time. Iteration stops at its first
    detection, so a larger budget never changes a verdict it resolves.
    """
    got = fixed_points(p).clip(w.lo, w.hi)
    want = brute_fixed_points(p, w)
    if got != want:
        return OracleVerdict(
            False,
            f"lambda={p.lam} mu={p.mu}: fixed points {got} != brute {want} on [{w.lo}, {w.hi}]",
        )
    got_pairs = list(two_cycles(p).clip(w.lo, w.hi))
    want_pairs = brute_two_cycles(p, w)
    if got_pairs != want_pairs:
        return OracleVerdict(
            False,
            f"lambda={p.lam} mu={p.mu}: 2-cycles {got_pairs} != brute {want_pairs} on [{w.lo}, {w.hi}]",
        )
    budgets = _budgets(p)
    for raw in samples:
        x = as_rational(raw)
        claimed = omega_limit(p, x)
        steps, bound = budgets(x)
        max_steps = DEFAULT_MAX_STEPS if claimed.is_escape else steps
        detail = _mismatch(claimed, brute_omega(p, x, max_steps, bound), max_steps)
        if detail:
            return OracleVerdict(False, f"lambda={p.lam} mu={p.mu} x={x}: {detail}")
    return OracleVerdict(True, "")


def random_rational(rng: random.Random, lo: int, hi: int, max_den: int = 64) -> Rational:
    """Seeded rational sample in [lo, hi]: a denominator up to max_den,
    then a numerator spanning the window at that resolution."""
    if lo > hi:
        raise ValueError("sample window requires lo <= hi")
    d = rng.randint(1, max_den)
    return Fraction(rng.randint(lo * d, hi * d), d)
