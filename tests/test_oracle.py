"""Brute-force oracles: enumeration, orbit classification, cycle refutation."""

from __future__ import annotations

import ast
import inspect
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
    omega_limit,
    random_rational,
)
from quasiaffine.sweep import grid_values


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
    # the padded window is [lo - P, hi + P] with P = ceil((|lam| + 1)*(hi - lo))
    rng = random.Random(221)
    padded = 0
    for p in _seeded_maps(rng, 200):
        lo = rng.randint(-60, 60)
        w = Window(lo, lo + rng.choice([1, 2, 9, 40]))
        pad = math.ceil((abs(p.lam) + 1) * (w.hi - w.lo))
        detail = check_no_long_cycles(p, w, 4).detail
        if detail:
            assert detail.endswith(f" left the padded window [{w.lo - pad}, {w.hi + pad}]"), (p, w)
            padded += 1
    assert padded > 50


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


def test_cross_check_iterates_a_large_start_to_a_derived_bound():
    # 10^12 passes the default escape bound of 10^9 with alternating signs
    # long before it comes in to 0, so a run to that bound would refute;
    # cross_check iterates to the derived bound 2*10^12 + 2, which the
    # orbit never passes, and agrees
    p = Params(Q(-1, 2), Q(0))
    assert brute_omega(p, Q(10**12)) == OmegaLimit.plus_minus_inf()
    assert brute_omega(p, Q(10**12), oracle.step_budget(p, 10**12), oracle.escape_bound(p, 10**12)) == OmegaLimit.fixed(0)
    assert cross_check(p, Window(-10, 10), [10**12]) == OracleVerdict(True, "")


def _record_brute_omega(monkeypatch, calls):
    """Replace oracle.brute_omega by a wrapper that logs (max_steps, escape_bound, verdict)."""
    real = oracle.brute_omega

    def recording(p, x, max_steps=oracle.DEFAULT_MAX_STEPS, escape_bound=oracle.DEFAULT_ESCAPE_BOUND):
        verdict = real(p, x, max_steps, escape_bound)
        calls.append((max_steps, escape_bound, verdict))
        return verdict

    monkeypatch.setattr(oracle, "brute_omega", recording)


def test_cross_check_gives_a_claimed_fixed_point_the_step_budget_in_one_pass(monkeypatch):
    # from 0 the orbit of floor(99z/100 + 1000) creeps up to the fixed run
    # 99901..100000 and stops on its low end after more than 512 steps but
    # fewer than 1,000; a claimed fixed point is iterated once, for the
    # step budget, to the escape bound
    p, x = Params(Q(99, 100), Q(1000)), Q(0)
    bound, budget = oracle.escape_bound(p, x), oracle.step_budget(p, x)
    assert budget == 2112
    assert brute_omega(p, x, 1000, bound) == OmegaLimit.fixed(99901)
    calls = []
    _record_brute_omega(monkeypatch, calls)
    assert cross_check(p, Window(-10, 10), [x]) == OracleVerdict(True, "")
    assert calls == [(budget, bound, OmegaLimit.fixed(99901))]


def test_cross_check_gives_a_claimed_escape_only_the_default_budget(monkeypatch):
    # at lam = -1001/1000 the orbit of 700 spirals out by a factor 1.001 a
    # step: UNRESOLVED confirms the claimed {-inf, +inf}, so the step budget
    # of 4012 would only cost time
    p, x = Params(Q(-1001, 1000), Q(1, 2)), Q(700)
    assert omega_limit(p, x) == OmegaLimit.plus_minus_inf()
    assert (oracle.escape_bound(p, x), oracle.step_budget(p, x)) == (110020, 4012)
    calls = []
    _record_brute_omega(monkeypatch, calls)
    assert cross_check(p, Window(-10, 10), [x]) == OracleVerdict(True, "")
    assert calls == [(512, 110020, UNRESOLVED)]


def test_first_pass_bound_keeps_the_periodic_region(monkeypatch):
    # lam = 5/12, mu = 28: from x = 5/3 the orbit climbs 28, 39, 44, ... to
    # the fixed point 47; past the start-only bound 2*ceil(|x|) + 2 = 6 that
    # climb looks like an escape, so the bound must keep the region term
    p, x = Params(Q(5, 12), Q(28)), Q(5, 3)
    assert brute_omega(p, x, 512, 6) == OmegaLimit.plus_inf()
    assert oracle.escape_bound(p, x) == 10 * (51 + 10**4)  # ceil(p* + r) = ceil(48 + 19/7)
    calls = []
    _record_brute_omega(monkeypatch, calls)
    assert cross_check(p, Window(-10, 10), [x]) == OracleVerdict(True, "")
    assert calls == [(512, oracle.escape_bound(p, x), OmegaLimit.fixed(47))]


def test_cross_check_confirms_every_sample_on_verify_grid_columns(monkeypatch):
    # columns shaped like the verify-grid benchmark: with the derived escape
    # bound, no sample is left UNRESOLVED, escapes at lam = 1 included, and
    # each sample is iterated once; cross_check reaches the four functions it
    # compares through module attributes, so a wrapper (or a tracer) sees
    # each call
    calls = []
    _record_brute_omega(monkeypatch, calls)
    counts = {name: 0 for name in ("brute_fixed_points", "brute_two_cycles", "omega_limit")}
    for name in counts:
        real = getattr(oracle, name)

        def counting(*args, _real=real, _name=name):
            counts[_name] += 1
            return _real(*args)

        monkeypatch.setattr(oracle, name, counting)
    rng = random.Random(16)
    w = Window(-60, 60)
    cells = 0
    for lam in (Q(1), Q(17, 16), Q(-17, 16), Q(2), Q(-2)):
        for mu in (Q(n, 2) for n in range(-4, 6)):
            samples = [random_rational(rng, w.lo, w.hi) for _ in range(8)]
            assert cross_check(Params(lam, mu), w, samples).agrees
            cells += 1
    assert counts == {"brute_fixed_points": cells, "brute_two_cycles": cells, "omega_limit": 8 * cells}
    assert len(calls) == 8 * cells
    assert sum(verdict is UNRESOLVED for _, _, verdict in calls) == 0


def test_cross_check_reports_what_iteration_confirms(monkeypatch):
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


# The budgets' defining formulas on Fractions, as the oracle computed them
# before it derived them in integers on its own form.


def _fraction_radius(p):
    return 1 / abs(abs(p.lam) - 1) + 1


def _fraction_escape_bound(p, x):
    if abs(p.lam) == 1:
        return 2 * math.ceil(abs(x)) + 2
    region = math.ceil(abs(p.mu / (1 - p.lam)) + _fraction_radius(p))
    return max(10 * (region + 10**4), 2 * math.ceil(abs(x)) + 2)


def _fraction_step_budget(p, x):
    if abs(p.lam) == 1:
        return oracle.DEFAULT_MAX_STEPS
    r = math.ceil(_fraction_radius(p))
    steps = 4 * r + 8
    if abs(p.lam) < 1:
        distance = math.ceil(abs(Q(x) - p.mu / (1 - p.lam)))
        steps += (r - 1) * (distance + 2).bit_length()
    return max(oracle.DEFAULT_MAX_STEPS, steps)


def test_escape_bound_matches_the_fraction_formula():
    # the integer budgets against their defining formulas on Fractions:
    # escape bound max(10*(ceil(|mu/(1 - lam)| + r) + 10^4), 2*ceil(|x|) + 2),
    # and 2*ceil(|x|) + 2 alone at |lam| = 1; step budget and radius r
    rng = random.Random(1616)
    for _ in range(1500):
        b = rng.choice((1, 3, 64, 10**6 + 3, 10**15 + 37))
        near = rng.choice((-b, b)) + rng.randint(-3, 3)
        lam = Q(rng.choice((near, rng.randint(-3 * b, 3 * b), -b, b)), b)
        mu = Q(rng.randint(-(10**30), 10**30), rng.randint(1, 10**6)) if rng.random() < 0.5 else Q(rng.randint(-99, 99), rng.randint(1, 9))
        x = Q(rng.randint(-(10**30), 10**30), rng.randint(1, 1000)) if rng.random() < 0.3 else Q(rng.randint(-99, 99), rng.randint(1, 9))
        p = Params(lam, mu)
        assert oracle.escape_bound(p, x) == _fraction_escape_bound(p, x), (lam, mu, x)
        assert oracle.step_budget(p, x) == _fraction_step_budget(p, x), (lam, mu, x)
        if abs(lam) != 1:
            assert oracle.periodic_radius(p) == _fraction_radius(p), (lam, mu)
    for lam in (Q(1), Q(-1)):
        for x in (Q(0), Q(-7, 2), Q(7, 2), Q(-(10**30) - 1, 3)):
            p = Params(lam, Q(10**30, 7))
            assert oracle.escape_bound(p, x) == 2 * math.ceil(abs(x)) + 2
            assert oracle.step_budget(p, x) == oracle.DEFAULT_MAX_STEPS
        with pytest.raises(ZeroDivisionError):
            oracle.periodic_radius(Params(lam, Q(0)))


def _two_pass_cross_check(p, w, samples):
    """The sample loop cross_check ran before it iterated each sample once:
    DEFAULT_MAX_STEPS steps first, then only a mismatch again for the step
    budget, both to the escape bound. Returns the verdict, the samples it
    examined and how many of them it iterated twice."""
    verdict = cross_check(p, w, [])
    if not verdict.agrees:
        return verdict, 0, 0
    reruns = 0
    for seen, raw in enumerate(samples, 1):
        x = Q(raw)
        claimed = oracle.omega_limit(p, x)
        bound = _fraction_escape_bound(p, x)
        if not oracle._mismatch(claimed, brute_omega(p, x, 512, bound), 512):
            continue
        reruns += 1
        max_steps = _fraction_step_budget(p, x)
        detail = oracle._mismatch(claimed, brute_omega(p, x, max_steps, bound), max_steps)
        if detail:
            return OracleVerdict(False, f"lambda={p.lam} mu={p.mu} x={x}: {detail}"), seen, reruns
    return OracleVerdict(True, ""), len(samples), reruns


def test_one_pass_matches_the_two_pass_verdicts(monkeypatch):
    # seeded maps with slopes at and next to +-1 and at +-(n +- 1)/n, starts
    # up to 10^30, and some samples claimed wrongly (Fixed(7), +inf): the
    # verdicts, details included, are the two-pass loop's, and each examined
    # sample is iterated exactly once
    rng = random.Random(1717)
    real = oracle.omega_limit
    wrong = {}
    monkeypatch.setattr(oracle, "omega_limit", lambda p, x: wrong.get(x) or real(p, x))
    calls = []
    _record_brute_omega(monkeypatch, calls)
    kinds, reruns = set(), 0
    w = Window(-30, 30)
    for _ in range(90):
        n = rng.randint(2, 48)
        lam = rng.choice([Q(1), Q(-1), Q(n - 1, n), Q(n + 1, n), -Q(n - 1, n), -Q(n + 1, n), Q(rng.randint(-3 * n, 3 * n), n)])
        p = Params(lam, Q(rng.randint(-40 * n, 40 * n), rng.randint(1, 16)))
        centre = p.mu / (1 - p.lam) if lam != 1 else Q(0)
        samples = [
            rng.choice([random_rational(rng, w.lo, w.hi), Q(rng.randint(-(10**30), 10**30), rng.randint(1, 9)), centre + rng.randint(-3, 3)])
            for _ in range(4)
        ]
        wrong.clear()
        for x in samples:
            if rng.random() < 0.15:
                wrong[x] = rng.choice([OmegaLimit.fixed(7), OmegaLimit.plus_inf()])
        want, seen, rerun = _two_pass_cross_check(p, w, samples)
        del calls[:]
        assert cross_check(p, w, samples) == want, (p, samples)
        assert len(calls) == seen, (p, samples)
        kinds.add("agrees" if want.agrees else "unresolved" if "unresolved after" in want.detail else "refuted")
        reruns += rerun
    # agreements, refuted claims and unresolved claims all occur, and the
    # two-pass loop did rerun samples
    assert kinds == {"agrees", "refuted", "unresolved"} and reruns > 20


@pytest.mark.parametrize(
    "lam_range, mu_range, lo, seed, reran",
    [
        ((Q(95, 100), Q(99, 100), Q(1, 100)), (Q(990), Q(1010), Q(5)), -60, 5, 40),
        ((Q(-1001, 1000), Q(-999, 1000), Q(1, 1000)), (Q(-1, 2), Q(1, 2), Q(1, 4)), -800, 6, 7),
    ],
)
def test_one_pass_on_grids_the_two_pass_loop_reran(monkeypatch, lam_range, mu_range, lo, seed, reran):
    # the cells and samples of `quasiaffine verify --samples 8` on grids where
    # the two-pass loop iterated some samples twice: one iteration per sample
    rng = random.Random(seed)
    w = Window(lo, -lo)
    calls = []
    _record_brute_omega(monkeypatch, calls)
    total = samples_seen = 0
    for lam in grid_values(*lam_range):
        for mu in grid_values(*mu_range):
            p = Params(lam, mu)
            samples = [random_rational(rng, w.lo, w.hi) for _ in range(8)]
            assert cross_check(p, w, samples) == OracleVerdict(True, "")
            samples_seen += len(samples)
            assert len(calls) == samples_seen
            want, _, rerun = _two_pass_cross_check(p, w, samples)
            assert want.agrees
            total += rerun
    assert total == reran


def test_oracle_never_consults_the_closed_forms():
    # agreement is evidence only while the oracle steps the map on its own:
    # it reads no Params.form, imports only values, parsing and the Window
    # type from core, and names the closed forms only inside cross_check
    tree = ast.parse(inspect.getsource(oracle))
    assert not [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr == "form"]
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            imported.setdefault(node.module, set()).update(alias.name for alias in node.names)
        assert not (isinstance(node, ast.Import) and any(a.name.startswith("quasiaffine") for a in node.names))
    assert imported["core"] <= {"Params", "Rational", "RationalLike", "Window", "as_rational"}
    assert imported["omega"] <= {"OmegaLimit", "omega_limit"}
    assert imported["periodic"] <= {"fixed_points", "two_cycles"}
    assert set(imported) == {"core", "omega", "periodic"}
    closed = {"fixed_points", "two_cycles", "omega_limit"}
    (check,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "cross_check"]
    inside = {id(node) for node in ast.walk(check)}
    named = [node for node in ast.walk(tree) if isinstance(node, ast.Name) and node.id in closed]
    assert {node.id for node in named} == closed
    assert [node.id for node in named if id(node) not in inside] == []


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


def test_window_is_one_type_under_every_import():
    import quasiaffine
    import quasiaffine.core
    import quasiaffine.oracle

    assert quasiaffine.Window is quasiaffine.oracle.Window is quasiaffine.core.Window is Window
