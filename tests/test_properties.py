"""Seeded property checks of the closed forms against the brute-force oracle
in regions the grid tests never reach: slopes lam = +-(n+-1)/n with n up
to 1000 (so |lam| sits within 1/n of 1) and mu with denominators up to 10^4;
for the limit sets also negative slopes with n up to 10^4 and |mu| up to
10^6 started next to p*, and starts as large as 10^100.

Every periodic point z satisfies |z - p*| <= 1/||lam| - 1| + 1 with
p* = mu/(1 - lam) (``oracle.periodic_radius``). The oracle window is
derived from that bound alone, never from the closed forms, so the
unclipped sets are compared, not a window slice; the escape bound of the
iterated limit sets is ``oracle.escape_bound``, derived from it too.
"""

from __future__ import annotations

import math
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasiaffine import (
    CountValue,
    Params,
    Window,
    brute_fixed_points,
    brute_omega,
    brute_two_cycles,
    count_fixed_points,
    count_two_cycles,
    eval_map,
    fixed_points,
    integer_step,
    omega_limit,
    two_cycles,
)
from quasiaffine.oracle import escape_bound, periodic_radius
from quasiaffine.periodic import periodic_hull

SEEDED = settings(derandomize=True, deadline=None, max_examples=250, database=None)

slopes = st.builds(
    lambda sign, n, off: sign * Q(n + off, n),
    st.sampled_from([-1, 1]),
    st.integers(1, 1000),
    st.sampled_from([-1, 1]),
)


def _rationals(max_den: int, max_abs: int) -> st.SearchStrategy[Q]:
    return st.integers(1, max_den).flatmap(
        lambda d: st.integers(-max_abs * d, max_abs * d).map(lambda n: Q(n, d))
    )


def _periodic_window(p: Params) -> Window:
    centre = p.mu / (1 - p.lam)
    r = periodic_radius(p)
    return Window(math.floor(centre - r) - 1, math.ceil(centre + r) + 1)


negative_slopes = st.one_of(
    st.builds(lambda n, off: -Q(n + off, n), st.integers(2, 1000), st.sampled_from([-1, 1])),
    st.integers(2, 1000).flatmap(lambda d: st.integers(1, 2 * d - 1).filter(lambda n: n != d).map(lambda n: -Q(n, d))),
)


@settings(SEEDED, max_examples=150)
@given(lam=negative_slopes, mu=_rationals(10**4, 10**6), t=st.integers(-(10**30), 10**30))
def test_every_gap_holds_at_most_one_two_cycle(lam, mu, t):
    # the two ends of a gap's x-run differ by less than 1, so iteration
    # must never find two pairs {a, b} with the same b - a
    p = Params(lam, mu)
    w = _periodic_window(p)
    fix, pairs = brute_fixed_points(p, w), brute_two_cycles(p, w)
    gaps = [b - a for a, b in pairs]
    assert len(gaps) == len(set(gaps))
    # every periodic point lies between the candidate ends of the widest gap
    bottom, top = periodic_hull(*p.form)
    assert all(bottom <= z <= top for z in fix + [z for pair in pairs for z in pair])
    # and that gap is k_hi, the widest with k_hi*|lam + 1| < 1, no wider
    assert (top - bottom) * abs(p.lam + 1) < 1 <= (top - bottom + 1) * abs(p.lam + 1)
    # mu + (1 - lam)*t conjugates f by z -> z + t: the periodic points and
    # the hull move by t, the hull through offset + (den - scale)*t
    q = Params(lam, mu + (1 - lam) * t)
    moved = Window(w.lo + t, w.hi + t)
    assert brute_fixed_points(q, moved) == [z + t for z in fix]
    assert brute_two_cycles(q, moved) == [(a + t, b + t) for a, b in pairs]
    scale, offset, den = p.form
    assert periodic_hull(scale, offset + (den - scale) * t, den) == periodic_hull(*q.form) == (bottom + t, top + t)


def _wide_rationals() -> st.SearchStrategy[Q]:
    """Either sign, numerators up to 10^100, denominators up to 10^4 or,
    drawn apart so both sizes come up, up to 10^300."""
    return st.builds(Q, st.integers(-(10**100), 10**100), st.integers(1, 10**4) | st.integers(1, 10**300))


@settings(SEEDED, max_examples=100)
@given(lam=_wide_rationals(), mu=_wide_rationals(), x=_wide_rationals() | st.integers(-(10**100), 10**100).map(Q))
def test_eval_map_matches_the_rational_definition(lam, mu, x):
    # eval_map floors mu's share before the last division; the definition
    # floors lam*x + mu
    p = Params(lam, mu)
    want = math.floor(p.lam * x + p.mu)
    assert eval_map(p, x) == eval_map(p, str(x)) == want
    if x.denominator == 1:
        assert eval_map(p, int(x)) == integer_step(p)(int(x)) == want


@SEEDED
@given(lam=slopes, mu=_rationals(10**4, 50) | _rationals(10**300, 50))
def test_periodic_sets_and_counts_match_the_oracle_unclipped(lam, mu):
    p = Params(lam, mu)
    w = _periodic_window(p)
    fs = fixed_points(p)
    listed = list(range(fs.lo, fs.hi + 1)) if fs.kind == "range" else []
    assert fs.kind != "all_integers"
    brute_fix = brute_fixed_points(p, w)
    assert listed == brute_fix
    assert count_fixed_points(p) == fs.size() == CountValue.finite(len(brute_fix))
    tc = two_cycles(p)
    brute_pairs = brute_two_cycles(p, w)
    assert list(tc.pairs) == brute_pairs
    assert count_two_cycles(p) == tc.size() == CountValue.finite(len(brute_pairs))


@settings(SEEDED, max_examples=100)
@given(lam=slopes, mu=_rationals(10**4, 50) | _rationals(10**300, 50), data=st.data())
def test_the_oracle_sees_mu_only_through_floor_b_mu(lam, mu, data):
    # for lam = a/b the map on Z is (a*z + floor(b*mu)) // b; the oracle
    # iterates its own form of lam*z + mu, so it must find the same periodic
    # points and the same limits from integer starts for mu and floor(b*mu)/b
    b = lam.denominator
    p, q = Params(lam, mu), Params(lam, Q(math.floor(b * mu), b))
    w = _periodic_window(p)
    assert brute_fixed_points(p, w) == brute_fixed_points(q, w)
    assert brute_two_cycles(p, w) == brute_two_cycles(q, w)
    for z in data.draw(st.lists(st.integers(w.lo - 10, w.hi + 10), min_size=1, max_size=5)):
        assert brute_omega(p, z) == brute_omega(q, z)


def _assert_omega_matches_iteration(p: Params, x: Q) -> None:
    observed = brute_omega(p, x, max_steps=10**6, escape_bound=escape_bound(p, x))
    assert omega_limit(p, x) == observed


@SEEDED
@given(lam=slopes, mu=_rationals(10**4, 50), data=st.data())
def test_omega_limit_matches_iteration(lam, mu, data):
    p = Params(lam, mu)
    centre, r = p.mu / (1 - p.lam), periodic_radius(p)
    # starts among the periodic points, where the decisions are tight, and far out
    near = _rationals(100, math.ceil(r) + 1).map(lambda t: centre + t).filter(lambda x: abs(x) <= 10**4)
    x = data.draw(near | _rationals(100, 10**4) if abs(centre) < 10**4 else _rationals(100, 10**4))
    _assert_omega_matches_iteration(p, x)


@settings(SEEDED, max_examples=150)
@given(
    lam=st.builds(lambda n, off: -Q(n + off, n), st.integers(2, 10**4), st.sampled_from([-1, 1])),
    mu=_rationals(10**4, 10**6),
    t=_rationals(100, 1),
)
def test_omega_limit_next_to_the_affine_fixed_point(lam, mu, t):
    # resolve_negative bounds the periodic points by an interval around p*,
    # not around 0, so with |mu| large the starts that probe its ends are
    # those within r + 1 of p*
    p = Params(lam, mu)
    _assert_omega_matches_iteration(p, p.mu / (1 - p.lam) + (periodic_radius(p) + 1) * t)


@settings(SEEDED, max_examples=150)
@given(
    lam=st.one_of(
        st.builds(lambda sign, n: sign * Q(n + 1, n), st.sampled_from([-1, 1]), st.integers(1, 1000)),
        st.builds(lambda sign, n: sign * Q(n - 1, n), st.sampled_from([-1, 1]), st.integers(1, 30)),
    ),
    mu=_rationals(10**4, 10**6),
    x=st.builds(lambda sign, k, frac: sign * 10**k + frac, st.sampled_from([-1, 1]), st.integers(0, 100), _rationals(100, 1)),
)
def test_omega_limit_from_huge_starts(lam, mu, x):
    # contracting slopes need about n*log|x| steps to come in, so n stays small there
    _assert_omega_matches_iteration(Params(lam, mu), x)


@pytest.mark.parametrize("d", [2, 7, 1000])
@pytest.mark.parametrize("side", [-1, 0, 1])
@pytest.mark.parametrize("base", [-1, 0, 1])
def test_omega_limit_at_the_regime_thresholds(base, side, d):
    # omega_limit picks its rule by integer tests on scale, offset and den;
    # lam one denominator step either side of -1, 0 and 1, and mu at 0, 1
    # and one step below each, put every such test on both of its sides.
    # Starts are every integer in -5..5 and every fifth one out to +-50,
    # not all 101: at lam = +-1001/1000 each escape takes thousands of
    # oracle steps.
    lam = base + Q(side, d)
    for mu in (Q(0), Q(1), 1 - Q(1, d), -Q(1, d)):
        p = Params(lam, mu)
        for x in sorted({*range(-50, 51, 5), *range(-5, 6)}):
            _assert_omega_matches_iteration(p, Q(x))
