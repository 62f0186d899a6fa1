"""Seeded property checks of the closed forms against the brute-force oracle
in regions the grid tests never reach: slopes lam = +-(n+-1)/n with n up
to 1000 (so |lam| sits within 1/n of 1) and mu with denominators up to 10^4.

Every periodic point z satisfies |z - p*| <= 1/||lam| - 1| + 1 with
p* = mu/(1 - lam):
a fixed point has |(lam - 1)(z - p*)| < 1, and a 2-cycle {u, v} with
v = lam*u + mu - e1, u = lam*v + mu - e2 (e1, e2 in [0, 1)) gives
|u - p*|*|1 - lam^2| <= |lam| + 1. The oracle window is derived from that
bound alone, never from the closed forms, so the unclipped sets are
compared, not a window slice.
"""

from __future__ import annotations

import math
from fractions import Fraction as Q

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
    fixed_points,
    omega_limit,
    two_cycles,
)

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


def _radius(p: Params) -> Q:
    """The bound 1/||lam| - 1| + 1 on |z - p*| over all periodic points z."""
    return 1 / abs(abs(p.lam) - 1) + 1


def _periodic_window(p: Params) -> Window:
    centre = p.mu / (1 - p.lam)
    r = _radius(p)
    return Window(math.floor(centre - r) - 1, math.ceil(centre + r) + 1)


@SEEDED
@given(lam=slopes, mu=_rationals(10**4, 50))
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


@SEEDED
@given(lam=slopes, mu=_rationals(10**4, 50), data=st.data())
def test_omega_limit_matches_iteration(lam, mu, data):
    p = Params(lam, mu)
    centre, r = p.mu / (1 - p.lam), _radius(p)
    # starts among the periodic points, where the decisions are tight, and far out
    near = _rationals(100, math.ceil(r) + 1).map(lambda t: centre + t).filter(lambda x: abs(x) <= 10**4)
    x = data.draw(near | _rationals(100, 10**4) if abs(centre) < 10**4 else _rationals(100, 10**4))
    # beyond this every orbit has left the periodic region for good, so an
    # iterate past it is a genuine escape; below it, starts cannot fake one
    escape = 10 * (math.ceil(abs(centre) + r) + 10**4)
    observed = brute_omega(p, x, max_steps=10**6, escape_bound=escape)
    assert omega_limit(p, x) == observed
