"""Every map with a small slope denominator: closed forms against the oracle.

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

from quasiaffine import (
    CountValue,
    Params,
    Window,
    brute_fixed_points,
    brute_two_cycles,
    count_fixed_points,
    count_two_cycles,
    fixed_points,
    two_cycles,
)
from quasiaffine.oracle import periodic_radius


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
