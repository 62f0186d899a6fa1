"""Brute-force oracles: enumeration, orbit classification, cycle refutation."""

from __future__ import annotations

import math
import random
from fractions import Fraction as Q

import pytest

import quasiaffine.oracle as oracle
from quasiaffine import (
    UNRESOLVED,
    OmegaLimit,
    OracleVerdict,
    Params,
    Unresolved,
    Window,
    brute_fixed_points,
    brute_omega,
    brute_two_cycles,
    check_no_long_cycles,
    cross_check,
    random_rational,
)


@pytest.mark.parametrize(
    "lam, mu, window, expected",
    [
        (Q(3, 2), Q(13, 10), Window(-100, 100), [-2, -1]),
        (Q(1), Q(1, 2), Window(-3, 3), [-3, -2, -1, 0, 1, 2, 3]),
        (Q(5, 2), Q(13, 10), Window(-100, 100), []),
    ],
)
def test_brute_fixed_points_examples(lam, mu, window, expected):
    assert brute_fixed_points(Params(lam, mu), window) == expected


@pytest.mark.parametrize(
    "lam, mu, window, expected",
    [
        (Q(-7, 10), Q(1, 2), Window(-100, 100), [(-1, 1)]),
        (Q(-1), Q(1, 2), Window(-2, 2), [(-2, 2), (-1, 1)]),
        (Q(2), Q(0), Window(-50, 50), []),
    ],
)
def test_brute_two_cycles_examples(lam, mu, window, expected):
    assert brute_two_cycles(Params(lam, mu), window) == expected


@pytest.mark.parametrize(
    "lam, mu, x, expected",
    [
        (Q(3, 2), Q(13, 10), Q(-1, 2), OmegaLimit.plus_inf()),
        (Q(-1), Q(1, 2), Q(5, 2), OmegaLimit.two_cycle(-2, 2)),
        (Q(0), Q(1), Q(-7, 2), OmegaLimit.fixed(1)),
        (Q(-23, 10), Q(-14, 5), Q(0), OmegaLimit.plus_minus_inf()),
        (Q(5, 2), Q(13, 10), Q(-7, 10), OmegaLimit.minus_inf()),
    ],
)
def test_brute_omega_examples(lam, mu, x, expected):
    assert brute_omega(Params(lam, mu), x, max_steps=128, escape_bound=10**6) == expected


def test_brute_omega_unresolved_when_budget_too_small():
    # unit slope with positive drift walks upward by floor(mu) per step:
    # it cannot clear a 10^9 bound within 64 steps
    out = brute_omega(Params(Q(1), Q(2)), Q(0), max_steps=64, escape_bound=10**9)
    assert isinstance(out, Unresolved)
    assert out == UNRESOLVED
    # with a desk-scale bound the same orbit resolves
    assert brute_omega(Params(Q(1), Q(2)), Q(0), max_steps=64, escape_bound=50) == OmegaLimit.plus_inf()


def test_brute_omega_rejects_tiny_budget():
    with pytest.raises(ValueError):
        brute_omega(Params(Q(1), Q(0)), Q(0), max_steps=1)


@pytest.mark.parametrize(
    "lam, mu, window, n_max",
    [
        (Q(-3, 2), Q(7, 10), Window(-200, 200), 6),
        (Q(-1), Q(0), Window(-50, 50), 5),
        (Q(1, 2), Q(0), Window(-10, 10), 3),
    ],
)
def test_check_no_long_cycles_examples(lam, mu, window, n_max):
    assert check_no_long_cycles(Params(lam, mu), window, n_max).agrees


def test_check_no_long_cycles_counts_skipped_points():
    verdict = check_no_long_cycles(Params(Q(-3, 2), Q(7, 10)), Window(-200, 200), 6)
    assert verdict.agrees and "unchecked" in verdict.detail
    # everything stays inside the padding for a contraction
    calm = check_no_long_cycles(Params(Q(1, 2), Q(0)), Window(-10, 10), 3)
    assert calm == OracleVerdict(True, "")


def test_check_no_long_cycles_rejects_small_n_max():
    with pytest.raises(ValueError):
        check_no_long_cycles(Params(Q(1), Q(0)), Window(0, 1), 2)


@pytest.mark.parametrize(
    "lam, mu",
    [
        (Q(3, 2), Q(13, 10)),
        (Q(-7, 10), Q(-1, 2)),
        (Q(-23, 10), Q(-19, 5)),
    ],
)
def test_cross_check_examples(lam, mu):
    samples = [Q(-5, 2), Q(-1, 3), Q(0), Q(7, 5), Q(31, 7)]
    verdict = cross_check(Params(lam, mu), Window(-100, 100), samples)
    assert verdict == OracleVerdict(True, "")


def test_cross_check_over_random_params():
    rng = random.Random(31)
    w = Window(-80, 80)
    for _ in range(60):
        p = Params(Q(rng.randint(-30, 30), rng.randint(1, 10)), Q(rng.randint(-30, 30), rng.randint(1, 10)))
        samples = [random_rational(rng, -40, 40) for _ in range(4)]
        assert cross_check(p, w, samples).agrees


def test_cross_check_reruns_a_large_start_with_a_derived_budget():
    # 10^12 passes the default escape bound of 10^9 with alternating signs
    # long before it comes in to 0, so the default run alone would refute
    p = Params(Q(-1, 2), Q(0))
    assert brute_omega(p, Q(10**12)) == OmegaLimit.plus_minus_inf()
    assert brute_omega(p, Q(10**12), oracle.step_budget(p, 10**12), oracle.escape_bound(p, 10**12)) == OmegaLimit.fixed(0)
    assert cross_check(p, Window(-10, 10), [10**12]) == OracleVerdict(True, "")


def test_cross_check_still_reports_what_the_rerun_confirms(monkeypatch):
    monkeypatch.setattr(oracle, "omega_limit", lambda p, x: OmegaLimit.fixed(7))
    verdict = cross_check(Params(Q(1, 2), Q(0)), Window(-10, 10), [Q(3)])
    assert verdict == OracleVerdict(
        False, "lambda=1/2 mu=0 x=3: claimed {'kind': 'fixed', 'z': 7} != observed {'kind': 'fixed', 'z': 0}"
    )


@pytest.mark.parametrize(
    "lam, mu, x, steps, bound",
    [
        # r = 101: 4r + 8 inside the periodic region, 100 steps per bit of |x - p*| = 10^5
        (Q(99, 100), Q(1000), Q(0), 412 + 100 * 17, 10 * (100_000 + 101 + 10**4)),
        (Q(-3, 2), Q(0), Q(10**12), 512, 2 * 10**12 + 2),
        (Q(-1), Q(1, 2), Q(-7, 2), 512, 10),
        (Q(1), Q(5), Q(0), 512, 2),
    ],
)
def test_derived_budget(lam, mu, x, steps, bound):
    p = Params(lam, mu)
    assert (oracle.step_budget(p, x), oracle.escape_bound(p, x)) == (steps, bound)


def test_window_validation():
    with pytest.raises(ValueError):
        Window(3, 2)
    assert list(Window(-1, 1).members()) == [-1, 0, 1]


def test_verdict_validation():
    with pytest.raises(ValueError):
        OracleVerdict(False, "")
    assert OracleVerdict(True, "").to_json() == {"agrees": True, "detail": ""}


def test_random_rational_stays_in_window_and_is_seeded():
    rng = random.Random(99)
    xs = [random_rational(rng, -50, 50) for _ in range(200)]
    assert all(-50 <= x <= 50 for x in xs)
    rng2 = random.Random(99)
    assert xs == [random_rational(rng2, -50, 50) for _ in range(200)]
    with pytest.raises(ValueError):
        random_rational(rng, 5, 4)


def test_cross_check_catches_a_tampered_form():
    # the oracle reads lam and mu, never Params.form: moving the form's
    # offset moves the library's fixed points (lam = 1/2) or 2-cycles
    # (lam = -3/4), cross_check must see it, and every brute answer on the
    # tampered Params stays what it is on a fresh one
    w = Window(-10, 10)
    xs = [Q(-7, 3), Q(0), Q(5, 2), Q(10**12), Q(10**30 + 1, 7)]
    for lam, mu, moved in [(Q(1, 2), Q(0), "fixed points"), (Q(-3, 4), Q(1, 2), "2-cycles")]:
        p, fresh = Params(lam, mu), Params(lam, mu)
        assert cross_check(p, w, []).agrees
        scale, offset, den = p.form
        object.__setattr__(p, "form", (scale, offset + 1, den))
        verdict = cross_check(p, w, [])
        assert not verdict.agrees and moved in verdict.detail
        assert brute_fixed_points(p, w) == brute_fixed_points(fresh, w)
        assert brute_two_cycles(p, w) == brute_two_cycles(fresh, w)
        assert check_no_long_cycles(p, w, 5) == check_no_long_cycles(fresh, w, 5)
        assert [brute_omega(p, x) for x in xs] == [brute_omega(fresh, x) for x in xs]
    assert brute_fixed_points(Params(Q(1, 2), Q(0)), w) == [-1, 0]
    assert brute_two_cycles(Params(Q(-3, 4), Q(1, 2)), w) == [(-1, 1)]


# Reference iteration through a closure per map (and one more for the first
# step at x = xn/xd). The inline oracle must agree with it verdict for
# verdict, UNRESOLVED included.


def _closure_step(p, xd=1):
    a, b = p.lam.as_integer_ratio()
    c, d = p.mu.as_integer_ratio()
    scale, offset, den = a * d, c * b * xd, b * d * xd
    return lambda n: (scale * n + offset) // den


def _closure_omega(p, x, max_steps, escape_bound):
    xn, xd = Q(x).as_integer_ratio()
    step = _closure_step(p)
    before = None
    prev = _closure_step(p, xd)(xn)
    cur = step(prev)
    for _ in range(max_steps - 1):
        if cur == prev:
            return OmegaLimit.fixed(cur)
        if before is not None and cur == before:
            return OmegaLimit.two_cycle(min(prev, cur), max(prev, cur))
        if abs(prev) > escape_bound and abs(cur) > escape_bound:
            if prev > 0 and cur > prev:
                return OmegaLimit.plus_inf()
            if prev < 0 and cur < prev:
                return OmegaLimit.minus_inf()
            if (prev > 0) != (cur > 0):
                return OmegaLimit.plus_minus_inf()
        before, prev, cur = prev, cur, step(cur)
    return UNRESOLVED


def _closure_windows(p, w, n_max):
    step = _closure_step(p)
    fixed = [z for z in w.members() if step(z) == z]
    pairs = [(z, step(z)) for z in w.members() if z < step(z) <= w.hi and step(step(z)) == z]
    pad = math.ceil((abs(p.lam) + 1) * (w.hi - w.lo))
    lo, hi = w.lo - pad, w.hi + pad
    unchecked = 0
    for z in w.members():
        v = z
        for m in range(1, n_max + 1):
            v = step(v)
            if v < lo or v > hi:
                unchecked += 1
                break
            if v == z:
                if m >= 3:
                    return fixed, pairs, OracleVerdict(False, f"lambda={p.lam} mu={p.mu}: z={z} has minimal period {m}")
                break
    detail = f"unchecked: {unchecked} points left the padded window [{lo}, {hi}]" if unchecked else ""
    return fixed, pairs, OracleVerdict(True, detail)


def _seeded_maps(rng, count):
    for _ in range(count):
        n = rng.randint(2, 64)
        lam = rng.choice([Q(0), Q(1), Q(-1), Q(-(n - 1), n), Q(-(n + 1), n), Q(rng.randint(-192, 192), rng.randint(1, 64))])
        yield Params(lam, Q(rng.randint(-320, 320), rng.randint(1, 64)))


def test_inline_brute_omega_matches_the_closure_iteration():
    rng = random.Random(15)
    kinds = set()
    for p in _seeded_maps(rng, 160):
        big = rng.randint(-(10**30), 10**30)
        x = rng.choice([Q(big), Q(big, rng.randint(2, 64)), Q(rng.randint(-300, 300)), Q(rng.randint(-300, 300), rng.randint(2, 64))])
        for max_steps in (2, 3, 64, 512):
            for bound in (1, 50, 10**9):
                want = _closure_omega(p, x, max_steps, bound)
                assert brute_omega(p, x, max_steps, bound) == want, (p, x, max_steps, bound)
                kinds.add(want.kind if isinstance(want, OmegaLimit) else "unresolved")
    # every verdict occurs, so each branch of the loop was compared
    assert kinds == {"fixed", "two_cycle", "plus_inf", "minus_inf", "plus_minus_inf", "unresolved"}


def test_inline_window_scans_match_the_closure_iteration():
    rng = random.Random(16)
    for p in _seeded_maps(rng, 200):
        lo = rng.randint(-60, 60)
        w = Window(lo, lo + rng.choice([0, 1, 2, 9, 40]))
        n_max = rng.randint(3, 6)
        got = (brute_fixed_points(p, w), brute_two_cycles(p, w), check_no_long_cycles(p, w, n_max))
        assert got == _closure_windows(p, w, n_max), (p, w, n_max)
