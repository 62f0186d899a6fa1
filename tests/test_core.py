"""Exact-arithmetic core: parsing, floor/ceil, map evaluation, orbits."""

from __future__ import annotations

import math
import random
from fractions import Fraction as Q

import pytest

from quasiaffine import (
    Params,
    Window,
    as_rational,
    eval_map,
    format_rational,
    integer_step,
    iterate_orbit,
    parse_rational,
)


def rationals(seed: int, count: int, span: int = 40, max_den: int = 50):
    rng = random.Random(seed)
    for _ in range(count):
        d = rng.randint(1, max_den)
        yield Q(rng.randint(-span * d, span * d), d)


def floor_rat(x: Q) -> int:
    """floor(x) as f(x) at lam = 1, mu = 0."""
    return eval_map(Params(1, 0), x)


def ceil_rat(x: Q) -> int:
    """ceil(x) as -f(x) at lam = -1, mu = 0, where f(x) = floor(-x)."""
    return -eval_map(Params(-1, 0), x)


@pytest.mark.parametrize(
    "x, expected",
    [(Q(7, 2), 3), (Q(-13, 5), -3), (Q(4), 4), (Q(0), 0), (Q(-1, 1000), -1)],
)
def test_floor_examples(x, expected):
    # eval_map floors toward -inf, exactly for negatives
    assert floor_rat(x) == expected


@pytest.mark.parametrize(
    "x, expected",
    [(Q(-13, 5), -2), (Q(1, 4), 1), (Q(-3), -3), (Q(0), 0), (Q(1, 1000), 1)],
)
def test_ceil_examples(x, expected):
    assert ceil_rat(x) == expected


def test_floor_ceil_bracketing():
    for x in rationals(seed=1, count=500):
        f, c = floor_rat(x), ceil_rat(x)
        assert f <= x < f + 1
        assert c - 1 < x <= c


def test_floor_shift_and_duality():
    rng = random.Random(2)
    for x in rationals(seed=3, count=500):
        n = rng.randint(-100, 100)
        assert floor_rat(x + n) == floor_rat(x) + n == eval_map(Params(1, n), x)
        assert ceil_rat(x + n) == ceil_rat(x) + n == -eval_map(Params(-1, -n), x)
        assert ceil_rat(x) == -floor_rat(-x)


@pytest.mark.parametrize(
    "text, expected",
    [
        ("13/10", Q(13, 10)),
        ("-2", Q(-2)),
        ("0", Q(0)),
        ("+3/6", Q(1, 2)),
        ("-6/4", Q(-3, 2)),
        ("  7/2 ", Q(7, 2)),
    ],
)
def test_parse_rational(text, expected):
    assert parse_rational(text) == expected


@pytest.mark.parametrize(
    "text",
    # the last six are non-ASCII digits and "_" separators, which int() reads
    ["", "1/0", "1.5", "a/b", "1/-2", "3/", "/2", "1 /2", "\u0663", "\u0663/\u0662", "1/\u0662", "\uff11", "1_0", "1/1_0"],
)
def test_parse_rational_rejects(text):
    with pytest.raises(ValueError):
        parse_rational(text)


@pytest.mark.parametrize(
    "lo, hi, error",
    [(0.5, 3, TypeError), (Q(1, 2), 3, TypeError), ("10", "9", TypeError), (0, 3.0, TypeError), (1, 0, ValueError)],
)
def test_window_refuses_bounds_that_are_not_ascending_ints(lo, hi, error):
    with pytest.raises(error):
        Window(lo, hi)


def test_format_rational():
    assert format_rational(Q(13, 10)) == "13/10"
    assert format_rational(Q(-2)) == "-2"
    assert format_rational(Q(0)) == "0"
    assert format_rational(Q(-6, 4)) == "-3/2"


def test_parse_format_round_trip():
    for x in rationals(seed=4, count=300):
        assert parse_rational(format_rational(x)) == x


def test_rational_canonical_form():
    x = parse_rational("-6/4")
    assert x.denominator > 0
    assert x.numerator == -3 and x.denominator == 2


def test_as_rational_refuses_floats():
    with pytest.raises(TypeError):
        as_rational(1.5)
    with pytest.raises(TypeError):
        Params(1.5, 0)
    with pytest.raises(TypeError):
        eval_map(Params(1, 0), 1.5)


def test_params_coerces_strings_and_ints():
    p = Params("3/2", 1)
    assert p.lam == Q(3, 2) and p.mu == Q(1)


def test_params_form_is_the_reduced_map_and_stays_out_of_equality():
    # lam = a/b gives (a, floor(b*mu), b); mu and floor(b*mu)/b share it
    p, q = Params(Q(-7, 10), Q(-13, 30)), Params(Q(-7, 10), Q(-5, 10))
    assert p.form == q.form == (-7, -5, 10)
    assert p != q and p == Params("-7/10", "-13/30")
    assert hash(p) == hash(Params("-7/10", "-13/30"))
    assert repr(p) == "Params(lam=Fraction(-7, 10), mu=Fraction(-13, 30))"


@pytest.mark.parametrize(
    "lam, mu, x, expected",
    [
        (Q(3, 2), Q(13, 10), Q(1), Q(14, 5)),
        (Q(0), Q(1), Q(99), Q(1)),
        (Q(-1), Q(1, 2), Q(1, 2), Q(0)),
    ],
)
def test_eval_affine_examples(lam, mu, x, expected):
    # f is the floor of its inducing affine map lam*x + mu
    p = Params(lam, mu)
    assert p.lam * x + p.mu == expected
    assert eval_map(p, x) == math.floor(expected)


@pytest.mark.parametrize(
    "lam, mu, x, expected",
    [
        (Q(3, 2), Q(13, 10), Q(-1, 2), 0),
        (Q(1), Q(0), Q(5, 3), 1),
        (Q(-1), Q(1, 2), Q(1, 2), 0),
    ],
)
def test_eval_map_examples(lam, mu, x, expected):
    assert eval_map(Params(lam, mu), x) == expected


def test_orbit_examples():
    assert iterate_orbit(Params(Q(3, 2), Q(13, 10)), Q(-1, 2), 4).tail == (0, 1, 2, 4)
    assert iterate_orbit(Params(Q(-1), Q(1, 2)), Q(1, 2), 3).tail == (0, 0, 0)
    orbit = iterate_orbit(Params(Q(2), Q(7)), Q(1, 3), 0)
    assert orbit.tail == () and orbit.start == Q(1, 3)


def test_orbit_rejects_negative_steps():
    with pytest.raises(ValueError):
        iterate_orbit(Params(Q(1), Q(0)), Q(0), -1)


def test_orbit_tail_self_consistent():
    rng = random.Random(5)
    xs = list(rationals(seed=6, count=40))
    for x in xs:
        p = Params(Q(rng.randint(-30, 30), rng.randint(1, 10)), Q(rng.randint(-30, 30), rng.randint(1, 10)))
        tail = iterate_orbit(p, x, 12).tail
        assert tail[0] == eval_map(p, x)
        for prev, cur in zip(tail, tail[1:]):
            assert cur == eval_map(p, prev)


def test_map_monotone_per_slope_sign():
    rng = random.Random(7)
    for _ in range(300):
        lam = Q(rng.randint(-40, 40), rng.randint(1, 12))
        mu = Q(rng.randint(-40, 40), rng.randint(1, 12))
        p = Params(lam, mu)
        x = Q(rng.randint(-200, 200), rng.randint(1, 20))
        y = x + Q(rng.randint(0, 100), rng.randint(1, 20))
        if lam >= 0:
            assert eval_map(p, x) <= eval_map(p, y)
        else:
            assert eval_map(p, x) >= eval_map(p, y)


def test_integer_step_matches_eval_map():
    rng = random.Random(8)
    for _ in range(300):
        p = Params(Q(rng.randint(-50, 50), rng.randint(1, 15)), Q(rng.randint(-50, 50), rng.randint(1, 15)))
        step = integer_step(p)
        z = rng.randint(-10**6, 10**6)
        assert step(z) == eval_map(p, z)


def test_tail_needs_no_rational_arithmetic():
    # composing f with itself through the rational path equals stepping the
    # integer image directly
    rng = random.Random(9)
    for x in rationals(seed=10, count=100):
        p = Params(Q(rng.randint(-20, 20), rng.randint(1, 9)), Q(rng.randint(-20, 20), rng.randint(1, 9)))
        z = eval_map(p, x)
        assert eval_map(p, eval_map(p, x)) == integer_step(p)(z)
