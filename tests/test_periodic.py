"""Closed-form fixed points, 2-cycles, and the two counting formulas."""

from __future__ import annotations

import random
import re
from fractions import Fraction as Q

import pytest

import quasiaffine.periodic as periodic
from quasiaffine import (
    CountValue,
    IntegerSet,
    Params,
    TwoCycleSet,
    Window,
    brute_fixed_points,
    brute_two_cycles,
    count_fixed_points,
    count_two_cycles,
    eval_map,
    fixed_points,
    two_cycles,
)
from quasiaffine.periodic import two_cycle_points


def random_params(rng: random.Random) -> Params:
    lam = Q(rng.randint(-40, 40), rng.randint(1, 12))
    mu = Q(rng.randint(-40, 40), rng.randint(1, 12))
    return Params(lam, mu)


# ---------------------------------------------------------------- fixed points


@pytest.mark.parametrize(
    "lam, mu, expected",
    [
        (Q(3, 2), Q(13, 10), IntegerSet.run(-2, -1)),
        (Q(1), Q(1, 2), IntegerSet.all_integers()),
        (Q(13, 20), Q(3, 5), IntegerSet.run(-1, 1)),
        (Q(5, 2), Q(13, 10), IntegerSet.empty()),
        (Q(1), Q(-1), IntegerSet.empty()),
        (Q(1), Q(1), IntegerSet.empty()),
        (Q(1), Q(0), IntegerSet.all_integers()),
    ],
)
def test_fixed_points_examples(lam, mu, expected):
    assert fixed_points(Params(lam, mu)) == expected


@pytest.mark.parametrize(
    "lam, mu, expected",
    [
        (Q(5, 4), Q(17, 3), CountValue.finite(4)),
        (Q(1), Q(-1), CountValue.finite(0)),
        (Q(1), Q(0), CountValue.infinite()),
        (Q(0), Q(7, 3), CountValue.finite(1)),
    ],
)
def test_count_fixed_points_examples(lam, mu, expected):
    assert count_fixed_points(Params(lam, mu)) == expected


@pytest.mark.parametrize("n", [1, 2, 3, 5, 9, 20])
@pytest.mark.parametrize("mu", [Q(-2), Q(-1, 2), Q(0), Q(3, 4), Q(5)])
def test_slope_families_have_exactly_n_fixed_points(n, mu):
    assert count_fixed_points(Params(Q(n + 1, n), mu)) == CountValue.finite(n)
    if n >= 2:
        assert count_fixed_points(Params(Q(n - 1, n), mu)) == CountValue.finite(n)


def test_count_lower_bounds():
    # away from lam = 1 the run length is bounded below by 1/(lam-1) - 1
    # (lam > 1) and -1 - 1/(lam-1) (lam < 1), compared exactly
    rng = random.Random(11)
    for _ in range(400):
        p = random_params(rng)
        if p.lam == 1:
            continue
        n = count_fixed_points(p).n
        if p.lam > 1:
            assert n >= 1 / (p.lam - 1) - 1
        else:
            assert n >= -1 - 1 / (p.lam - 1)


# ------------------------------------------------------------------- 2-cycles


@pytest.mark.parametrize(
    "lam, mu, expected",
    [
        (Q(-7, 10), Q(1, 2), TwoCycleSet.finite([(-1, 1)])),
        (Q(-1), Q(1, 2), TwoCycleSet.neg_one_family(0)),
        (Q(3), Q(7, 2), TwoCycleSet.finite([])),
        (Q(-5), Q(2), TwoCycleSet.finite([])),
        (Q(-2), Q(1, 3), TwoCycleSet.finite([])),
        (Q(-13, 10), Q(-4, 5), TwoCycleSet.finite([(-1, 0)])),
        (Q(-13, 10), Q(-9, 5), TwoCycleSet.finite([(-2, 0)])),
    ],
)
def test_two_cycles_examples(lam, mu, expected):
    assert two_cycles(Params(lam, mu)) == expected


@pytest.mark.parametrize(
    "lam, mu, expected",
    [
        (Q(-7, 10), Q(1, 2), CountValue.finite(1)),
        (Q(-1), Q(-3), CountValue.infinite()),
        (Q(-5), Q(2), CountValue.finite(0)),
    ],
)
def test_count_two_cycles_examples(lam, mu, expected):
    assert count_two_cycles(Params(lam, mu)) == expected


def test_no_cycles_for_nonnegative_slope():
    rng = random.Random(12)
    for _ in range(200):
        lam = Q(rng.randint(0, 40), rng.randint(1, 12))
        p = Params(lam, Q(rng.randint(-40, 40), rng.randint(1, 12)))
        assert two_cycles(p) == TwoCycleSet.finite([])


def test_enumerated_pairs_satisfy_both_membership_chains():
    # {x, x+k} is a cycle exactly when f(x) = x+k and f(x+k) = x; written as
    # interval chains: (k+1-mu)/(lam-1) < x <= (k-mu)/(lam-1) and
    # (-lam*k-mu+1)/(lam-1) < x <= (-lam*k-mu)/(lam-1)
    rng = random.Random(13)
    seen = 0
    while seen < 60:
        num = rng.randint(-19, -1)
        den = rng.randint(max(1, -num // 2 + 1), 10)
        lam = Q(num, den)
        if not (-2 < lam < 0) or lam == -1:
            continue
        mu = Q(rng.randint(-40, 40), rng.randint(1, 12))
        p = Params(lam, mu)
        s = lam - 1
        for a, b in two_cycles(p).pairs:
            k = b - a
            assert (k + 1 - mu) / s < a <= (k - mu) / s
            assert (-lam * k - mu + 1) / s < a <= (-lam * k - mu) / s
            seen += 1
        seen += 1  # params with empty sets still make progress


def test_counts_match_set_sizes():
    rng = random.Random(14)
    for _ in range(400):
        p = random_params(rng)
        assert count_fixed_points(p) == fixed_points(p).size()
        assert count_two_cycles(p) == two_cycles(p).size()


def _walked_count(p: Params) -> int:
    """The count by the O(k_hi) walk: each gap k <= k_hi has one candidate
    x, and the map itself says whether {x, x + k} is a 2-cycle."""
    scale, offset, den = p.form
    k_hi, span = (den - 1) // abs(scale + den), den - scale
    pairs = 0
    for k in range(1, k_hi + 1):
        x = (offset - max(den, -scale) * k) // span
        pairs += (scale * x + offset) // den == x + k and (scale * (x + k) + offset) // den == x
    return pairs


@pytest.mark.parametrize("n", [10**2, 10**6, 10**9, 10**18])
@pytest.mark.parametrize("side", [-1, 1])
def test_count_two_cycles_does_not_walk_the_gaps(monkeypatch, n, side):
    # at lam = -(n +- 1)/n with c = floor(n*mu) and 0 <= 2c < n, gap k = 2m
    # holds a pair for each m = 1..c and no other gap does, so there are c
    # pairs among k_hi = n - 1 gaps; the count must find them without the walk
    p = Params(Q(-(n + side), n), Q(1, 3))
    if n == 10**2:
        assert _walked_count(p) == n // 3
    monkeypatch.setattr(periodic, "_two_cycle_pairs", lambda *form: pytest.fail("the count walked the gaps"))
    assert count_two_cycles(p) == CountValue.finite(n // 3)
    assert count_two_cycles(Params(p.lam, Q(0))) == CountValue.finite(0)


def test_count_two_cycles_matches_the_walk():
    # slopes next to -1 with n log-uniform up to 10^4 and n = 10^5, and
    # random slopes in (-2, 0); mu in turn small, negative and huge, so
    # offset takes every sign and size
    rng = random.Random(26)
    lams = [Q(-(n + rng.choice((-1, 1))), n) for n in (round(10 ** rng.uniform(0, 4)) for _ in range(24))]
    lams.append(Q(-(10**5) - 1, 10**5))
    for _ in range(400):
        b = rng.randint(1, 200)
        lams.append(Q(rng.randint(1 - 2 * b, -1), b))
    mus = [lambda: Q(rng.randint(-50, 50), rng.randint(1, 50)),
           lambda: Q(-rng.randint(1, 10**30), rng.randint(1, 10**4)),
           lambda: Q(rng.randint(-(10**60), 10**60), rng.randint(1, 10**4))]
    nonzero = 0
    for i, lam in enumerate(lams):
        if lam == -1:
            continue
        p = Params(lam, mus[i % 3]())
        want = _walked_count(p)
        assert count_two_cycles(p) == CountValue.finite(want), p
        nonzero += want > 0
    assert nonzero > 150


def test_small_window_oracle_equivalence():
    rng = random.Random(15)
    w = Window(-60, 60)
    for _ in range(200):
        p = random_params(rng)
        assert fixed_points(p).clip(w.lo, w.hi) == brute_fixed_points(p, w)
        assert list(two_cycles(p).clip(w.lo, w.hi)) == brute_two_cycles(p, w)


# ------------------------------------------------------------------ the types


def test_integer_set_validation():
    with pytest.raises(ValueError):
        IntegerSet.run(3, 1)
    with pytest.raises(ValueError):
        IntegerSet("range", 0, None)
    with pytest.raises(ValueError):
        IntegerSet("empty", 0, 1)
    with pytest.raises(ValueError):
        IntegerSet("strange")


def test_integer_set_behaviour():
    s = IntegerSet.run(-2, 3)
    assert 0 in s and -2 in s and 4 not in s
    assert s.size() == CountValue.finite(6)
    assert s.clip(0, 10) == [0, 1, 2, 3]
    assert s.clip(5, 10) == []
    assert IntegerSet.empty().clip(-5, 5) == []
    assert IntegerSet.all_integers().clip(-2, 2) == [-2, -1, 0, 1, 2]
    assert 123456 in IntegerSet.all_integers()
    assert s.to_json() == {"kind": "range", "lo": -2, "hi": 3}
    assert IntegerSet.empty().to_json() == {"kind": "empty"}
    assert IntegerSet.all_integers().to_json() == {"kind": "all_integers"}


def test_two_cycle_set_canonicalisation():
    s = TwoCycleSet.finite([(4, 1), (1, 4), (-2, 0)])
    assert s.pairs == ((-2, 0), (1, 4))
    with pytest.raises(ValueError):
        TwoCycleSet.finite([(3, 3)])
    with pytest.raises(ValueError):
        TwoCycleSet("finite", ((2, 1),))
    # built directly, the tuple is validated, never re-sorted
    with pytest.raises(ValueError):
        TwoCycleSet("finite", ((1, 4), (-2, 0)))
    with pytest.raises(ValueError):
        TwoCycleSet("finite", ((-2, 0), (1, 4), (1, 4)))
    assert TwoCycleSet("finite", ((-2, 0), (-2, 5), (1, 4))).size() == CountValue.finite(3)
    with pytest.raises(ValueError):
        TwoCycleSet("neg_one_family", ())


def test_neg_one_family_membership_excludes_degenerate_point():
    fam = TwoCycleSet.neg_one_family(0)
    assert fam.contains_pair(-3, 3) and fam.contains_pair(3, -3)
    assert not fam.contains_pair(0, 0)  # fixed point of f, not a cycle
    assert not fam.contains_pair(1, 2)
    assert fam.clip(-2, 2) == ((-2, 2), (-1, 1))
    assert fam.points_in(-2, 2) == [-2, -1, 1, 2]
    fam5 = TwoCycleSet.neg_one_family(5)
    assert fam5.points_in(0, 5) == [0, 1, 2, 3, 4, 5]  # 2x = 5 has no integer solution


def _family_clip_by_points(c, lo, hi):
    """The lam = -1 family clipped by testing every window point, as the
    library once did."""
    out = []
    for a in range(lo, hi + 1):
        b = c - a
        if a < b <= hi:
            out.append((a, b))
    return tuple(out)


def test_family_clip_is_one_range_matching_the_per_point_loop():
    # c even and odd; windows wholly below, straddling and wholly above c/2,
    # single points, and windows whose mirror c - hi lies below lo
    seen = set()
    for c in range(-9, 10):
        fam = TwoCycleSet.neg_one_family(c)
        for lo in range(c // 2 - 12, c // 2 + 12):
            for hi in range(lo, lo + 26):
                got = fam.clip(lo, hi)
                assert got == _family_clip_by_points(c, lo, hi), (c, lo, hi)
                assert TwoCycleSet("finite", got).pairs == got
                seen.add("odd" if c % 2 else "even")
                seen.add("below" if 2 * hi < c else "above" if 2 * lo > c else "straddle")
                if lo == hi:
                    seen.add("single")
                if c - hi < lo and got:
                    seen.add("mirror below lo")
    assert seen == {"odd", "even", "below", "above", "straddle", "single", "mirror below lo"}


def test_two_cycle_set_points_in_keeps_half_pairs():
    s = TwoCycleSet.finite([(-8, 2), (0, 1)])
    assert s.points_in(-1, 3) == [0, 1, 2]


def test_two_cycle_set_json():
    assert TwoCycleSet.finite([(-1, 1)]).to_json() == {"kind": "finite", "pairs": [[-1, 1]]}
    assert TwoCycleSet.neg_one_family(-4).to_json() == {"kind": "neg_one_family", "c": -4}


def test_count_value_validation():
    with pytest.raises(ValueError):
        CountValue.finite(-1)
    with pytest.raises(ValueError):
        CountValue("infinite", 3)
    assert CountValue.finite(2).to_json() == {"kind": "finite", "n": 2}
    assert CountValue.infinite().to_json() == {"kind": "infinite"}


def test_every_fixed_point_is_fixed_and_every_pair_cycles():
    rng = random.Random(16)
    for _ in range(150):
        p = random_params(rng)
        for z in fixed_points(p).clip(-200, 200):
            assert eval_map(p, z) == z
        cyc = two_cycles(p)
        pairs = cyc.pairs if cyc.kind == "finite" else cyc.clip(-50, 50)
        for a, b in pairs:
            assert eval_map(p, a) == b and eval_map(p, b) == a


# The validation branches and small answers no other test reaches: each
# call either raises the given exception (type and message) or returns
# the given value.
@pytest.mark.parametrize(
    "call, expected",
    [
        (lambda: CountValue("many"), ValueError("unknown count kind 'many'")),
        (lambda: 0 in IntegerSet.empty(), False),
        (lambda: IntegerSet.run(0, 3).clip(2, 1), ValueError("clip window requires lo <= hi")),
        (lambda: TwoCycleSet("finite", ((1, 3),), 0), ValueError("finite set carries no family offset")),
        (lambda: TwoCycleSet("cycles"), ValueError("unknown cycle-set kind 'cycles'")),
        (lambda: TwoCycleSet.finite([(1, 3)]).contains_pair(3, 1), True),
        (lambda: TwoCycleSet.finite([(1, 3)]).contains_pair(1, 2), False),
        (lambda: TwoCycleSet.neg_one_family(0).clip(1, -1), ValueError("clip window requires lo <= hi")),
        (lambda: TwoCycleSet.finite([(1, 3)]).points_in(1, -1), ValueError("window requires lo <= hi")),
        (lambda: two_cycle_points(-7, 5, 10, 1, -1), ValueError("window requires lo <= hi")),
    ],
    ids=[
        "count-kind",
        "empty-contains",
        "integer-clip-window",
        "finite-with-offset",
        "cycle-set-kind",
        "finite-contains-pair",
        "finite-lacks-pair",
        "cycle-clip-window",
        "points-in-window",
        "two-cycle-points-window",
    ],
)
def test_rare_branches(call, expected):
    if isinstance(expected, Exception):
        with pytest.raises(type(expected), match=f"^{re.escape(str(expected))}$"):
            call()
    else:
        assert call() is expected
