"""Every map with a small slope denominator: closed forms and limit sets
against the oracle.

On Z, f(z) = floor(lam*z + mu) with lam = a/b depends on mu only through
m = floor(b*mu), and adding (1 - lam)*t to mu (m -> m + (b - a)*t)
conjugates f by the shift z -> z + t. So for each slope the residues m0 in
0..|b - a| - 1, with mu = m0/b, stand for every rational mu, and the
translation law, checked on the closed forms themselves, carries the
comparison to every other mu. The window p* +- (periodic_radius + 1) holds
every periodic point, by a bound that comes from the map alone, so the
unclipped sets are compared.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction as Q

import quasiaffine.omega as omega_module
from quasiaffine import (
    CaseTag,
    CountValue,
    IntegerSet,
    OmegaLimit,
    Params,
    TwoCycleSet,
    Unresolved,
    Window,
    brute_fixed_points,
    brute_omega,
    brute_two_cycles,
    classify_case,
    count_fixed_points,
    count_two_cycles,
    fixed_points,
    omega_limit,
    two_cycles,
)
from quasiaffine.oracle import escape_bound, periodic_radius, step_budget
from quasiaffine.periodic import periodic_hull


def _box():
    """Every lam = a/b in [-2, 2] with b <= 16 and lam != +-1, with every residue m0."""
    for b in range(1, 17):
        for a in range(-2 * b, 2 * b + 1):
            if math.gcd(a, b) == 1 and abs(a) != b:
                for m0 in range(abs(b - a)):
                    yield Params(Q(a, b), Q(m0, b))


def _closed_forms(p):
    """The unclipped fixed run, the 2-cycle pairs, and both counts."""
    fs = fixed_points(p)
    assert fs.kind in ("empty", "range")
    run = list(range(fs.lo, fs.hi + 1)) if fs.kind == "range" else []
    return run, list(two_cycles(p).pairs), count_fixed_points(p), count_two_cycles(p)


def test_closed_forms_match_the_oracle_on_every_small_denominator_map():
    # each map is also moved by one t, random or 10^100 in turn, and its
    # closed forms must move with it
    rng = random.Random(5)
    maps = 0
    for p in _box():
        centre, r = p.mu / (1 - p.lam), periodic_radius(p) + 1
        w = Window(math.floor(centre - r), math.ceil(centre + r))
        fix, pairs = brute_fixed_points(p, w), brute_two_cycles(p, w)
        assert _closed_forms(p) == (fix, pairs, CountValue.finite(len(fix)), CountValue.finite(len(pairs))), p
        t = 10**100 if maps % 2 else rng.randint(-(10**6), 10**6)
        q = Params(p.lam, p.mu + (1 - p.lam) * t)
        moved = ([z + t for z in fix], [(u + t, v + t) for u, v in pairs], CountValue.finite(len(fix)), CountValue.finite(len(pairs)))
        assert _closed_forms(q) == moved, (p, t)
        maps += 1
    assert maps == 4315


def test_limit_sets_at_steep_negative_slopes_match_the_oracle(monkeypatch):
    # every lam = a/b in [-4, -2] with b <= 6 is answered without the
    # periodic hull, and lam = -(2b - 1)/b, just above -2, still goes
    # through it; both are compared with iteration from every integer start
    # within periodic_radius + 3 of p*, and from 10^30, for every residue
    # m0 with mu = m0/b and one mu off the 1/b grid
    hull_calls = [0]

    def counted_hull(*form):
        hull_calls[0] += 1
        return periodic_hull(*form)

    monkeypatch.setattr(omega_module, "periodic_hull", counted_hull)
    rng = random.Random(21)
    kinds, cases = set(), 0
    for b in range(1, 7):
        slopes = [a for a in range(-4 * b, -2 * b + 1) if math.gcd(a, b) == 1]
        for a in slopes + ([1 - 2 * b] if b > 1 else []):
            lam = Q(a, b)
            mus = [Q(m0, b) for m0 in range(b - a)] + [Q(rng.randint(-50, 50), b) + Q(3, 7 * b)]
            hull_calls[0] = 0
            for mu in mus:
                p = Params(lam, mu)
                centre, r = mu / (1 - lam), periodic_radius(p) + 3
                for x in (*range(math.floor(centre - r), math.ceil(centre + r) + 1), 10**30):
                    want = brute_omega(p, x, step_budget(p, x), escape_bound(p, x))
                    got = omega_limit(p, x)
                    assert got.is_escape if isinstance(want, Unresolved) else got == want, (p, x)
                    kinds.add(got.kind)
                    cases += 1
            assert (hull_calls[0] > 0) == (lam > -2), lam
    assert kinds == {"fixed", "two_cycle", "plus_minus_inf"}
    assert cases > 5000


def _moved(limit, t):
    """A limit set shifted by t: fixed points and 2-cycles move, escapes stay."""
    if limit.kind == "fixed":
        return OmegaLimit.fixed(limit.z + t)
    if limit.kind == "two_cycle":
        return OmegaLimit.two_cycle(limit.a + t, limit.b + t)
    return limit


def test_limit_sets_between_minus_two_and_zero_match_the_oracle():
    # every lam = a/b in (-2, 0) with b <= 12 and lam != -1, every residue m0
    # with mu = m0/b and one mu off the 1/b grid per slope; every integer
    # start within periodic_radius + 3 of p*, and 10^30 + 1/3 and -10^30,
    # against iteration to the derived budget and bound; each map is also
    # moved by one t (random or 10^100 in turn), and every answer must move
    # with it from x + t
    rng = random.Random(12)
    kinds, maps, starts = set(), 0, 0
    for b in range(1, 13):
        for a in range(1 - 2 * b, 0):
            if math.gcd(a, b) != 1 or a == -b:
                continue
            lam = Q(a, b)
            for mu in [Q(m0, b) for m0 in range(b - a)] + [Q(rng.randint(-50, 50), b) + Q(3, 7 * b)]:
                p = Params(lam, mu)
                t = 10**100 if maps % 2 else rng.randint(-(10**6), 10**6)
                q = Params(lam, mu + (1 - lam) * t)
                centre, r = mu / (1 - lam), periodic_radius(p) + 3
                for x in (*range(math.floor(centre - r), math.ceil(centre + r) + 1), 10**30 + Q(1, 3), -(10**30)):
                    got = omega_limit(p, x)
                    assert brute_omega(p, x, step_budget(p, x), escape_bound(p, x)) == got, (p, x)
                    assert omega_limit(q, x + t) == _moved(got, t), (p, x, t)
                    kinds.add(got.kind)
                    starts += 1
                maps += 1
    assert kinds == {"fixed", "two_cycle", "plus_minus_inf"}
    assert maps == 1586 and starts > 29000


def _case_by_fixed_set(p):
    """The regime tag from lam's thresholds and whether the fixed-point set
    is empty, as classify_case once read it."""
    has_fix = fixed_points(p).kind != "empty"
    if p.lam > 1:
        return CaseTag.I if has_fix else CaseTag.II
    if p.lam == 1:
        return CaseTag.III
    if p.lam > 0:
        return CaseTag.IV
    if p.lam == 0:
        return CaseTag.V
    if p.lam > -1:
        return CaseTag.VI if has_fix else CaseTag.VII
    return CaseTag.VIII if has_fix else CaseTag.IX


def test_classify_case_matches_the_fixed_set_reference():
    # the box stops at |lam| = 2, where a fixed point always exists for
    # lam > 1, so lam = 5/2 is added to reach case ii
    thresholds = [Params(Q(lam), Q(mu, 4)) for lam in (1, -1, 2, -2, Q(5, 2), Q(-5, 2)) for mu in range(-9, 10)]
    tags = set()
    for p in (*_box(), *thresholds):
        tag = classify_case(p)
        assert tag == _case_by_fixed_set(p), p
        tags.add(tag)
    assert tags == set(CaseTag)


def _reflected(p):
    """The map conjugate to p under z -> -z: -f(-z) = (scale*z + den - 1 - offset) // den,
    since -((-n) // den) = (n + den - 1) // den."""
    _, offset, den = p.form
    return Params(p.lam, Q(den - 1 - offset, den))


def _negated_closed_forms(p):
    """The fixed set, the 2-cycle set and the count of p's reflection, read
    off p's own closed forms by negating every point."""
    fs, tc = fixed_points(p), two_cycles(p)
    if fs.kind == "range":
        fs = IntegerSet.run(-fs.hi, -fs.lo)
    if tc.kind == "finite":
        tc = TwoCycleSet.finite((-b, -a) for a, b in tc.pairs)
    else:
        tc = TwoCycleSet.neg_one_family(-tc.c)
    return fs, tc, count_two_cycles(p)


_SWAPPED = {"plus_inf": OmegaLimit.minus_inf(), "minus_inf": OmegaLimit.plus_inf(), "plus_minus_inf": OmegaLimit.plus_minus_inf()}


def _negated(limit):
    """A limit set under z -> -z: points negate, +inf and -inf swap."""
    if limit.kind == "fixed":
        return OmegaLimit.fixed(-limit.z)
    if limit.kind == "two_cycle":
        return OmegaLimit.two_cycle(-limit.b, -limit.a)
    return _SWAPPED[limit.kind]


def test_reflection_conjugates_the_closed_forms():
    # every lam = a/b in [-3, 3] with b <= 10 and every residue m0 with
    # mu = m0/b (the reflection keeps 0 <= m0 < b), then lam = -(n +- 1)/n
    # with mu of every sign and size
    rng = random.Random(26)
    maps = [Params(Q(a, b), Q(m0, b)) for b in range(1, 11) for a in range(-3 * b, 3 * b + 1) if math.gcd(a, b) == 1 for m0 in range(b)]
    assert len(maps) == 1303
    for _ in range(200):
        n = rng.randint(1, 1000)
        mu = Q(rng.randint(-(10**6), 10**6), rng.randint(1, 10**4)) if rng.random() < 0.5 else Q(rng.randint(-(10**40), 10**40), 7)
        maps.append(Params(Q(-(n + rng.choice((-1, 1))), n), mu))
    for p in maps:
        q = _reflected(p)
        assert q.form == (p.form[0], p.form[2] - 1 - p.form[1], p.form[2])
        assert (fixed_points(q), two_cycles(q), count_two_cycles(q)) == _negated_closed_forms(p), p


def test_reflection_conjugates_the_limit_sets():
    # every lam = a/b in [-3, 3] with b <= 4 and every residue m0, and
    # lam = -(n +- 1)/n for n <= 10; each integer start within
    # periodic_radius + 3 of p*, and +-10^30, on the map and, negated, on
    # its reflection, both against iteration
    lams = [Q(a, b) for b in range(1, 5) for a in range(-3 * b, 3 * b + 1) if math.gcd(a, b) == 1]
    lams += [Q(-(n + side), n) for n in range(2, 11) for side in (-1, 1)]
    kinds, starts = set(), 0
    for lam in lams:
        for m0 in range(lam.denominator):
            p = Params(lam, Q(m0, lam.denominator))
            q = _reflected(p)
            if p.lam == 1:
                xs = range(-3, 4)
            else:
                centre, r = p.mu / (1 - p.lam), (periodic_radius(p) + 3 if abs(p.lam) != 1 else 3)
                xs = range(math.floor(centre - r), math.ceil(centre + r) + 1)
            for x in (*xs, 10**30, -(10**30)):
                got = omega_limit(p, x)
                assert omega_limit(q, -x) == _negated(got), (p, x)
                for m, y, want in ((p, x, got), (q, -x, _negated(got))):
                    seen = brute_omega(m, y, step_budget(m, y), escape_bound(m, y))
                    assert want.is_escape if isinstance(seen, Unresolved) else seen == want, (m, y)
                kinds.add(got.kind)
                starts += 1
    assert kinds == {"fixed", "two_cycle", "plus_inf", "minus_inf", "plus_minus_inf"}
    assert starts > 1000
