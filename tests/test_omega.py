"""Slab partition, regime classification, and exact limit sets."""

from __future__ import annotations

import math
import random
from fractions import Fraction as Q

import pytest

import quasiaffine.omega as omega_module
from quasiaffine import (
    CaseTag,
    OmegaLimit,
    Params,
    brute_omega,
    classify_case,
    count_fixed_points,
    count_two_cycles,
    eval_map,
    fixed_points,
    floor_affine_fixpoint,
    integer_step,
    interval_bounds,
    interval_index,
    iterate_orbit,
    omega_limit,
    resolve_negative,
    two_cycles,
)
from quasiaffine.periodic import periodic_hull


def negative_slope_params(rng: random.Random) -> Params:
    lam = -Q(rng.randint(1, 48), rng.randint(1, 16))
    mu = Q(rng.randint(-36, 36), rng.randint(1, 12))
    return Params(lam, mu)


# ------------------------------------------------------------- slab partition


@pytest.mark.parametrize(
    "lam, mu, x, expected",
    [
        (Q(-1), Q(1, 2), Q(1, 2), 0),
        (Q(-1), Q(1, 2), Q(3, 2), -1),
        (Q(-2), Q(0), Q(0), 0),
    ],
)
def test_interval_index_examples(lam, mu, x, expected):
    assert interval_index(Params(lam, mu), x) == expected


def test_interval_index_rejects_nonnegative_slope():
    for lam in (Q(0), Q(1, 2), Q(1), Q(3)):
        with pytest.raises(ValueError):
            interval_index(Params(lam, Q(1, 2)), Q(0))
        with pytest.raises(ValueError):
            interval_bounds(Params(lam, Q(1, 2)), 0)


def test_interval_bounds_central_slab():
    left, right = interval_bounds(Params(Q(-1), Q(1, 2)), 0)
    assert (left, right) == (Q(-1, 2), Q(1, 2))


def test_floor_affine_fixpoint_rejects_unit_slope():
    with pytest.raises(ValueError):
        floor_affine_fixpoint(Params(Q(1), Q(0)))
    # one denominator step either side of 1: mu/(1 - lam) = -7/2 and 7/2
    assert floor_affine_fixpoint(Params(Q(8, 7), Q(1, 2))) == -4
    assert floor_affine_fixpoint(Params(Q(6, 7), Q(1, 2))) == 3


def test_slab_identity_membership_and_uniqueness():
    rng = random.Random(21)
    for _ in range(400):
        p = negative_slope_params(rng)
        x = Q(rng.randint(-400, 400), rng.randint(1, 20))
        n = interval_index(p, x)
        left, right = interval_bounds(p, n)
        assert left < x <= right
        assert eval_map(p, x) == floor_affine_fixpoint(p) + n
        for other in (n - 1, n + 1):
            lo, ro = interval_bounds(p, other)
            assert not (lo < x <= ro)


def test_second_iterate_monotone_for_negative_slope():
    rng = random.Random(22)
    for _ in range(300):
        p = negative_slope_params(rng)
        step = integer_step(p)
        z = rng.randint(-500, 500)
        w = z + rng.randint(0, 200)
        assert step(step(z)) <= step(step(w))


def test_slab_index_invariance_under_second_iterate():
    # with a fixed point present: for lam <= -1 the outward index classes
    # never move inward; for -1 < lam < 0 they never move outward past 0
    rng = random.Random(23)
    checked_steep = checked_shallow = 0
    while checked_steep < 60 or checked_shallow < 60:
        p = negative_slope_params(rng)
        if fixed_points(p).kind == "empty":
            continue
        x = Q(rng.randint(-300, 300), rng.randint(1, 16))
        n = interval_index(p, x)
        if n == 0:
            continue
        x2 = p.lam * eval_map(p, x) + p.mu  # an exact point whose floor is f^2(x)
        m = interval_index(p, x2)
        if p.lam <= -1:
            # index classes {>= n} (n >= 1) and {<= n} (n <= -1) are invariant
            assert m >= n if n >= 1 else m <= n
            checked_steep += 1
        else:
            # shallow slopes squeeze indices toward the central slab
            assert 0 <= m <= n if n >= 1 else n <= m <= 0
            checked_shallow += 1


# ---------------------------------------------------------------- case labels


@pytest.mark.parametrize(
    "lam, mu, tag",
    [
        (Q(3, 2), Q(13, 10), CaseTag.I),
        (Q(5, 2), Q(13, 10), CaseTag.II),
        (Q(1), Q(2), CaseTag.III),
        (Q(1), Q(-1), CaseTag.III),
        (Q(13, 20), Q(3, 5), CaseTag.IV),
        (Q(0), Q(1), CaseTag.V),
        (Q(-7, 10), Q(1, 2), CaseTag.VI),
        (Q(-7, 10), Q(-1, 2), CaseTag.VII),
        # fixed point -1 exists (f(-1) = floor(13/10 - 9/5) = -1), so the
        # sibling test puts this pair in the with-fixed-point branch
        (Q(-13, 10), Q(-9, 5), CaseTag.VIII),
        (Q(-1), Q(1, 2), CaseTag.VIII),
        (Q(-13, 10), Q(-4, 5), CaseTag.IX),
        (Q(-1), Q(-1, 2), CaseTag.IX),
        (Q(-23, 10), Q(-14, 5), CaseTag.VIII),
    ],
)
def test_classify_case(lam, mu, tag):
    assert classify_case(Params(lam, mu)) == tag


def test_case_tag_json():
    assert CaseTag.VII.to_json() == {"case": "vii"}


def test_sibling_cases_split_on_fixed_point_existence():
    rng = random.Random(24)
    for _ in range(300):
        lam = Q(rng.randint(-40, 40), rng.randint(1, 12))
        p = Params(lam, Q(rng.randint(-40, 40), rng.randint(1, 12)))
        tag = classify_case(p)
        has_fix = fixed_points(p).kind != "empty"
        if tag in (CaseTag.I, CaseTag.VI, CaseTag.VIII):
            assert has_fix
        if tag in (CaseTag.II, CaseTag.VII, CaseTag.IX):
            assert not has_fix
        if tag in (CaseTag.III, CaseTag.IV, CaseTag.V):
            assert p.lam >= 0


# ------------------------------------------------------------------ omega_limit


@pytest.mark.parametrize(
    "lam, mu, x, expected",
    [
        (Q(3, 2), Q(13, 10), Q(-7, 5), OmegaLimit.fixed(-1)),
        (Q(1), Q(2), Q(0), OmegaLimit.plus_inf()),
        (Q(1), Q(-1), Q(0), OmegaLimit.minus_inf()),
        (Q(1), Q(1, 2), Q(22, 7), OmegaLimit.fixed(3)),
        (Q(13, 20), Q(3, 5), Q(100), OmegaLimit.fixed(1)),
        (Q(13, 20), Q(3, 5), Q(-100), OmegaLimit.fixed(-1)),
        (Q(0), Q(1), Q(5, 7), OmegaLimit.fixed(1)),
        (Q(-1), Q(1, 2), Q(5, 2), OmegaLimit.two_cycle(-2, 2)),
        (Q(5, 2), Q(13, 10), Q(-7, 10), OmegaLimit.minus_inf()),
        (Q(5, 2), Q(13, 10), Q(0), OmegaLimit.plus_inf()),
        (Q(-23, 10), Q(-14, 5), Q(0), OmegaLimit.plus_minus_inf()),
        (Q(-7, 10), Q(1, 2), Q(33, 10), OmegaLimit.two_cycle(-1, 1)),
        (Q(-7, 10), Q(1, 2), Q(1, 5), OmegaLimit.fixed(0)),
        # z = -1 = floor(p*) is not fixed and lies below p* = -1/2
        (Q(2), Q(1, 2), Q(-1, 2), OmegaLimit.minus_inf()),
    ],
)
def test_omega_limit_examples(lam, mu, x, expected):
    assert omega_limit(Params(lam, mu), x) == expected


def test_omega_limit_case_vii_always_two_cycle():
    p = Params(Q(-7, 10), Q(-1, 2))
    for x in (Q(47, 20), Q(-3), Q(0), Q(1000), Q(-999, 7)):
        assert omega_limit(p, x).kind == "two_cycle"


@pytest.mark.parametrize(
    "lam, mu, x, expected",
    [
        (Q(-13, 10), Q(-4, 5), Q(-5, 4), OmegaLimit.two_cycle(-1, 0)),
        # from 47/20 the orbit runs -4, 4, -6, 7, -10, ... past every
        # periodic point: it escapes
        (Q(-13, 10), Q(-4, 5), Q(47, 20), OmegaLimit.plus_minus_inf()),
        (Q(-13, 10), Q(-9, 5), Q(-5, 2), OmegaLimit.plus_minus_inf()),
        (Q(-7, 10), Q(1, 2), Q(33, 10), OmegaLimit.two_cycle(-1, 1)),
    ],
)
def test_resolve_negative_examples(lam, mu, x, expected):
    assert resolve_negative(Params(lam, mu), x) == expected


def test_resolve_negative_rejects_out_of_scope_slopes():
    with pytest.raises(ValueError):
        resolve_negative(Params(Q(1, 2), Q(0)), Q(0))
    with pytest.raises(ValueError, match="requires lambda < 0"):
        resolve_negative(Params(Q(0), Q(1, 2)), Q(0))
    # lam = -1 is in scope: f(w) = floor(mu) - w on Z, so g = f o f is the
    # identity and the first step answers {z, floor(mu) - z}
    for mu in (Q(0), Q(1, 2), Q(-7, 3), Q(5, 2)):
        c = math.floor(mu)
        for x in range(-20, 21):
            z = c - x
            want = OmegaLimit.fixed(z) if 2 * z == c else OmegaLimit.two_cycle(min(z, c - z), max(z, c - z))
            assert resolve_negative(Params(Q(-1), mu), Q(x)) == want


def test_resolve_negative_can_land_on_the_fixed_point():
    # shallow slopes with a fixed point may funnel outer starts onto it
    rng = random.Random(25)
    landed = 0
    for _ in range(2000):
        lam = -Q(rng.randint(1, 15), 16)
        p = Params(lam, Q(rng.randint(-30, 30), rng.randint(1, 12)))
        if fixed_points(p).kind == "empty" or lam == -1:
            continue
        x = Q(rng.randint(-900, 900), rng.randint(1, 16))
        if interval_index(p, x) == 0:
            continue
        out = resolve_negative(p, x)
        assert out.kind in ("fixed", "two_cycle")
        if out.kind == "fixed":
            assert out.z == fixed_points(p).lo
            landed += 1
    assert landed > 0


# ------------------------------------------------------------ lam = -1 regime


def test_resolve_negative_reads_mu_only_through_the_form(monkeypatch):
    # for lam = a/b, mu and floor(b*mu)/b give the same map on Z, so from
    # integer starts across the periodic hull and just outside it the
    # decision must take the same steps to the same limit for both
    calls = [0]

    def counted(p):
        step = integer_step(p)

        def counting_step(z):
            calls[0] += 1
            return step(z)

        return counting_step

    monkeypatch.setattr(omega_module, "integer_step", counted)

    def run(p, z):
        calls[0] = 0
        return resolve_negative(p, z), calls[0]

    rng = random.Random(13)
    for _ in range(60):
        n = rng.choice([rng.randint(2, 30), rng.randint(2, 10**4)])
        lam = -Q(n + rng.choice([-1, 1]), n)
        d = rng.choice([rng.randint(1, 10**4), rng.randint(1, 10**30)])
        mu = Q(rng.randint(-(10**6) * d, 10**6 * d), d)
        p, q = Params(lam, mu), Params(lam, Q(math.floor(lam.denominator * mu), lam.denominator))
        assert p.form == q.form
        bottom, top = periodic_hull(*p.form)
        starts = {*range(bottom - 3, bottom + 4), *range(top - 3, top + 4)}
        starts.update(rng.randint(bottom - 3, top + 3) for _ in range(10))
        for z in sorted(starts):
            assert run(p, z) == run(q, z)


def test_lambda_minus_one_third_iterate_equals_first():
    rng = random.Random(26)
    for mu in (Q(-3), Q(-1, 2), Q(0), Q(1, 2), Q(12, 5)):
        p = Params(Q(-1), mu)
        for _ in range(100):
            x = Q(rng.randint(-600, 600), rng.randint(1, 24))
            z1 = eval_map(p, x)
            z3 = eval_map(p, eval_map(p, z1))
            assert z3 == z1


def test_lambda_minus_one_limit_formula():
    rng = random.Random(27)
    for _ in range(300):
        mu = Q(rng.randint(-30, 30), rng.randint(1, 12))
        p = Params(Q(-1), mu)
        x = Q(rng.randint(-600, 600), rng.randint(1, 24))
        first = math.floor(mu - x)
        second = math.floor(mu) - first
        got = omega_limit(p, x)
        if first == second:
            assert got == OmegaLimit.fixed(first)
        else:
            assert got == OmegaLimit.two_cycle(min(first, second), max(first, second))


def test_lambda_minus_one_collapses_to_fixed():
    assert omega_limit(Params(Q(-1), Q(0)), Q(-1, 2)) == OmegaLimit.fixed(0)
    assert omega_limit(Params(Q(-1), Q(5, 2)), Q(5, 4)) == OmegaLimit.fixed(1)


# ----------------------------------------------- agreement with plain orbits


def test_omega_limit_matches_observed_tails():
    rng = random.Random(28)
    for _ in range(250):
        lam = Q(rng.randint(-30, 30), rng.randint(1, 10))
        mu = Q(rng.randint(-30, 30), rng.randint(1, 10))
        p = Params(lam, mu)
        x = Q(rng.randint(-300, 300), rng.randint(1, 12))
        limit = omega_limit(p, x)
        tail = iterate_orbit(p, x, 200).tail
        if limit.kind == "fixed":
            assert tail[-1] == limit.z and tail[-2] == limit.z
        elif limit.kind == "two_cycle":
            assert {tail[-1], tail[-2]} == {limit.a, limit.b}
            assert tail[-1] != tail[-2]
        elif limit.kind == "plus_inf":
            assert tail[-1] > tail[-2] > tail[-3]
        elif limit.kind == "minus_inf":
            assert tail[-1] < tail[-2] < tail[-3]
        else:
            assert tail[-1] * tail[-2] < 0 and abs(tail[-1]) > abs(tail[-3])


def test_omega_limit_at_unit_slope_with_every_integer_fixed():
    # lam = 1, 0 <= mu < 1: f(z) = z on all of Z, so every start stops on f(x)
    for mu in (Q(0), Q(1, 3), Q(99, 100)):
        p = Params(Q(1), mu)
        for x in (Q(-10**30), Q(-7, 2), Q(0), Q(5, 3), Q(2), Q(10**30 + 1, 3)):
            assert omega_limit(p, x) == OmegaLimit.fixed(eval_map(p, x))


def test_omega_limit_clamps_to_both_ends_of_the_fixed_run():
    # lam = 9/10, mu = 5: f(z) = z exactly on 41..50; 0 <= lam < 1 moves
    # every start outside the run onto its nearer end
    p = Params(Q(9, 10), Q(5))
    assert fixed_points(p).to_json() == {"kind": "range", "lo": 41, "hi": 50}
    for x, z in [(Q(-1000), 41), (Q(81, 2), 41), (Q(41), 41), (Q(45), 45), (Q(50), 50), (Q(51), 50), (Q(10**20), 50)]:
        assert omega_limit(p, x) == OmegaLimit.fixed(z) == brute_omega(p, x, 10**4, 10**25)
    # lam = 0: the run is the single point floor(mu)
    assert omega_limit(Params(Q(0), Q(-7, 2)), Q(10**9)) == OmegaLimit.fixed(-4)


def test_omega_limit_expanding_inside_and_outside_the_fixed_run():
    # lam = 11/10, mu = 5/2: f(z) = z exactly on -25..-16; off the run an
    # orbit leaves on its own side of floor(mu'/(1 - lam)) = -25
    p = Params(Q(11, 10), Q(5, 2))
    assert fixed_points(p).to_json() == {"kind": "range", "lo": -25, "hi": -16}
    cases = [
        (Q(-25), OmegaLimit.fixed(-25)),
        (Q(-20), OmegaLimit.fixed(-20)),
        (Q(-16), OmegaLimit.fixed(-16)),
        (Q(-15), OmegaLimit.plus_inf()),
        (Q(10**6), OmegaLimit.plus_inf()),
        (Q(-26), OmegaLimit.minus_inf()),
        (Q(-10**6), OmegaLimit.minus_inf()),
    ]
    for x, want in cases:
        assert omega_limit(p, x) == want == brute_omega(p, x, 10**4, 10**8)


# ------------------------------------------------- integer-only query path


def _closed_form_queries(p: Params, x: Q, negative: bool, unit_slope: bool) -> list:
    out = [eval_map(p, x), omega_limit(p, x), fixed_points(p), count_fixed_points(p),
           two_cycles(p), count_two_cycles(p), classify_case(p)]
    if not unit_slope:
        out.append(floor_affine_fixpoint(p))
    if negative:
        out += [resolve_negative(p, x), interval_index(p, x)]
    return out


def test_queries_do_no_fraction_arithmetic(monkeypatch):
    # one map per regime tag, plus 2-cycle slopes -(n+-1)/n and a huge start
    # at lam = -(n-1)/n; Params and starts are built first, so only the
    # queries run under the patch
    cases = [
        (Params(Q(3, 2), Q(13, 10)), Q(-7, 5)),  # (i)
        (Params(Q(5, 2), Q(13, 10)), Q(0)),  # (ii)
        (Params(Q(1), Q(2)), Q(0)),  # (iii)
        (Params(Q(13, 20), Q(3, 5)), Q(100)),  # (iv)
        (Params(Q(0), Q(1)), Q(5, 7)),  # (v)
        (Params(Q(-7, 10), Q(1, 2)), Q(33, 10)),  # (vi)
        (Params(Q(-7, 10), Q(-1, 2)), Q(47, 20)),  # (vii)
        (Params(Q(-1), Q(1, 2)), Q(5, 2)),  # (viii)
        (Params(Q(-13, 10), Q(-4, 5)), Q(47, 20)),  # (ix)
        (Params(Q(-99, 100), Q(3, 7)), Q(10**60) + Q(1, 3)),
        (Params(Q(-101, 100), Q(-5, 3)), Q(7, 2)),
    ]
    flags = [(p.lam < 0, p.lam == 1) for p, _ in cases]
    expected = [_closed_form_queries(p, x, *f) for (p, x), f in zip(cases, flags)]
    assert sum(len(want[4].pairs) for want in expected) > 2  # some 2-cycles get listed

    def refuse(*args):
        raise AssertionError("Fraction arithmetic on the query path")

    for name in ("__add__", "__radd__", "__mul__", "__rmul__", "__sub__", "__truediv__",
                 "__floordiv__", "__mod__", "__neg__", "__abs__",
                 "__lt__", "__le__", "__gt__", "__ge__", "__eq__", "__ne__"):
        monkeypatch.setattr(Q, name, refuse)
    for (p, x), f, want in zip(cases, flags, expected):
        assert _closed_form_queries(p, x, *f) == want


# ------------------------------------------------------------------ the type


def test_omega_limit_validation():
    with pytest.raises(ValueError):
        OmegaLimit.two_cycle(2, -2)
    with pytest.raises(ValueError):
        OmegaLimit("fixed")
    with pytest.raises(ValueError):
        OmegaLimit("plus_inf", z=1)
    with pytest.raises(ValueError):
        OmegaLimit("sideways")


def test_omega_limit_json_and_escape_flag():
    assert OmegaLimit.fixed(-1).to_json() == {"kind": "fixed", "z": -1}
    assert OmegaLimit.two_cycle(-2, 2).to_json() == {"kind": "two_cycle", "a": -2, "b": 2}
    assert OmegaLimit.plus_inf().to_json() == {"kind": "plus_inf"}
    assert OmegaLimit.minus_inf().to_json() == {"kind": "minus_inf"}
    assert OmegaLimit.plus_minus_inf().to_json() == {"kind": "plus_minus_inf"}
    assert OmegaLimit.plus_inf().is_escape and not OmegaLimit.fixed(0).is_escape


def test_escape_verdicts_are_shared_constants():
    for kind, make in (("plus_inf", OmegaLimit.plus_inf), ("minus_inf", OmegaLimit.minus_inf),
                       ("plus_minus_inf", OmegaLimit.plus_minus_inf)):
        assert make() is make()
        assert make() == OmegaLimit(kind) and hash(make()) == hash(OmegaLimit(kind))
        assert make().kind == kind and make().is_escape
    assert omega_limit(Params(Q(2), Q(0)), Q(1)) is OmegaLimit.plus_inf()
    assert omega_limit(Params(Q(1), Q(-1)), Q(0)) is OmegaLimit.minus_inf()
    assert omega_limit(Params(Q(-3), Q(0)), Q(1)) is OmegaLimit.plus_minus_inf()
