"""Acceptance suite: every exit criterion, exact, one PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
verdict lines. All comparisons are exact (rational or integer); there are
no tolerances anywhere.
"""

from __future__ import annotations

import io
import math
import random
from fractions import Fraction as Q

from quasiaffine import (
    Params,
    SweepSpec,
    SweepTarget,
    Unresolved,
    Window,
    brute_fixed_points,
    brute_omega,
    brute_two_cycles,
    check_no_long_cycles,
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
    random_rational,
    sweep,
    two_cycles,
    write_csv,
)
from quasiaffine.omega import CaseTag, OmegaLimit

GRID_LAMBDAS = [Q(-3) + Q(k, 7) for k in range(43)]  # -3 .. 3, step 1/7
GRID_MUS = [Q(-2) + Q(j, 5) for j in range(21)]  # -2 .. 2, step 1/5
GRID_WINDOW = Window(-1000, 1000)

# frozen after the first verified generation (criterion 8)
PINNED_FIX_SWEEP_ROWS = 725
PINNED_PER2_SWEEP_ROWS = 60


def report(criterion: int, ok: bool, note: str) -> None:
    print(f"acceptance criterion {criterion}: {'PASS' if ok else 'FAIL'} - {note}")
    assert ok, f"criterion {criterion}: {note}"


def grid_params():
    for lam in GRID_LAMBDAS:
        for mu in GRID_MUS:
            yield Params(lam, mu)


def test_criterion_1_fixed_point_oracle_equivalence():
    mismatches = []
    for p in grid_params():
        closed = fixed_points(p).clip(GRID_WINDOW.lo, GRID_WINDOW.hi)
        brute = brute_fixed_points(p, GRID_WINDOW)
        if closed != brute:
            mismatches.append((p.lam, p.mu))
    report(1, not mismatches, f"fixed points vs brute on {43 * 21} grid cells, window [-1000, 1000]"
           + (f"; mismatches: {mismatches[:3]}" if mismatches else ""))


def test_criterion_2_two_cycle_oracle_equivalence():
    mismatches = []
    for p in grid_params():
        closed = list(two_cycles(p).clip(GRID_WINDOW.lo, GRID_WINDOW.hi))
        brute = brute_two_cycles(p, GRID_WINDOW)
        if closed != brute:
            mismatches.append((p.lam, p.mu))
    report(2, not mismatches, f"2-cycles (lam = -1 family included) vs brute on {43 * 21} cells"
           + (f"; mismatches: {mismatches[:3]}" if mismatches else ""))


def test_criterion_3_counting_formulas():
    bad = []
    family_window = Window(-200, 200)
    for p in grid_params():
        nf = count_fixed_points(p)
        nc = count_two_cycles(p)
        if nf != fixed_points(p).size() or nc != two_cycles(p).size():
            bad.append(("size", p.lam, p.mu))
            continue
        if nf.kind == "finite" and nf.n != len(brute_fixed_points(p, GRID_WINDOW)):
            bad.append(("fix", p.lam, p.mu))
        if nc.kind == "finite" and nc.n != len(brute_two_cycles(p, GRID_WINDOW)):
            bad.append(("cyc", p.lam, p.mu))
    for n in range(1, 21):
        for mu in (Q(-2), Q(-1, 2), Q(0), Q(3, 4), Q(5)):
            slopes = [Q(n + 1, n)] + ([Q(n - 1, n)] if n >= 2 else [])
            for lam in slopes:
                p = Params(lam, mu)
                if count_fixed_points(p).n != n:
                    bad.append(("family", lam, mu))
                elif len(brute_fixed_points(p, family_window)) != n:
                    bad.append(("family-brute", lam, mu))
    report(3, not bad, "counts equal cardinalities on the grid; slopes (n+1)/n and (n-1)/n "
           "give exactly n fixed points for n = 1..20" + (f"; bad: {bad[:3]}" if bad else ""))


def _tail_confirms_escape(p: Params, x, kind: str) -> bool:
    tail = iterate_orbit(p, x, 540).tail[-24:]
    if kind == "plus_inf":
        return all(a < b for a, b in zip(tail, tail[1:]))
    if kind == "minus_inf":
        return all(a > b for a, b in zip(tail, tail[1:]))
    alternates = all((a > 0) != (b > 0) for a, b in zip(tail, tail[1:]))
    grows = all(abs(tail[i + 2]) > abs(tail[i]) for i in range(len(tail) - 2))
    return alternates and grows


def test_criterion_4_omega_limit_agreement():
    rng = random.Random(20260810)
    bad = []
    unresolved_escapes = 0
    for _ in range(10_000):
        p = Params(rng.choice(GRID_LAMBDAS), rng.choice(GRID_MUS))
        x = random_rational(rng, -50, 50)
        claimed = omega_limit(p, x)
        observed = brute_omega(p, x, max_steps=512, escape_bound=10**9)
        if isinstance(observed, Unresolved):
            # only escapes may outrun a finite budget; confirm the exit shape
            if not claimed.is_escape or not _tail_confirms_escape(p, x, claimed.kind):
                bad.append((p.lam, p.mu, x, claimed.kind, "unresolved"))
            else:
                unresolved_escapes += 1
        elif claimed != observed:
            bad.append((p.lam, p.mu, x, claimed.kind, observed.kind))
    report(4, not bad, "omega_limit vs brute on 10000 seeded triples "
           f"({unresolved_escapes} slow escapes confirmed by monotone exit)"
           + (f"; bad: {bad[:3]}" if bad else ""))


def test_criterion_5_anchored_cases():
    bad = []

    def expect(cond: bool, label: str) -> None:
        if not cond:
            bad.append(label)

    p = Params(Q(3, 2), Q(13, 10))
    expect(omega_limit(p, Q(-7, 5)) == OmegaLimit.fixed(-1), "(3/2,13/10,-7/5) fixed(-1)")
    expect(classify_case(p) == CaseTag.I, "(3/2,13/10) case i")
    expect(brute_omega(p, Q(-7, 5)) == OmegaLimit.fixed(-1), "(3/2,13/10,-7/5) brute")

    p = Params(Q(5, 2), Q(13, 10))
    expect(classify_case(p) == CaseTag.II, "(5/2,13/10) case ii")
    threshold = (math.floor(-p.mu / (p.lam - 1)) - p.mu + 1) / p.lam
    for x in (Q(-7, 10), Q(0), threshold, threshold - Q(1, 1000)):
        want = OmegaLimit.plus_inf() if x >= threshold else OmegaLimit.minus_inf()
        expect(omega_limit(p, x) == want, f"(5/2,13/10,{x}) divergence sign")
        expect(brute_omega(p, x) == want, f"(5/2,13/10,{x}) brute")

    p = Params(Q(1), Q(2))
    for x in (Q(-3), Q(0), Q(7, 2)):
        expect(omega_limit(p, x) == OmegaLimit.plus_inf(), f"(1,2,{x}) plus_inf")
        # unit slope drifts by +2 a step, so confirm against a bound the
        # 512-step budget can actually cross
        expect(brute_omega(p, x, escape_bound=300) == OmegaLimit.plus_inf(), f"(1,2,{x}) brute")

    p = Params(Q(0), Q(1))
    for x in (Q(-7, 2), Q(0), Q(1000)):
        expect(omega_limit(p, x) == OmegaLimit.fixed(1), f"(0,1,{x}) fixed(1)")
        expect(brute_omega(p, x) == OmegaLimit.fixed(1), f"(0,1,{x}) brute")

    p = Params(Q(-1), Q(1, 2))
    expect(omega_limit(p, Q(5, 2)) == OmegaLimit.two_cycle(-2, 2), "(-1,1/2,5/2) two_cycle(-2,2)")
    expect(brute_omega(p, Q(5, 2)) == OmegaLimit.two_cycle(-2, 2), "(-1,1/2,5/2) brute")

    p = Params(Q(-7, 10), Q(-1, 2))
    expect(classify_case(p) == CaseTag.VII, "(-7/10,-1/2) case vii")
    for x in (Q(47, 20), Q(-3), Q(0), Q(111, 13), Q(-500)):
        got = omega_limit(p, x)
        expect(got.kind == "two_cycle", f"(-7/10,-1/2,{x}) lands on a 2-cycle")
        expect(brute_omega(p, x) == got, f"(-7/10,-1/2,{x}) brute")

    p = Params(Q(-23, 10), Q(-14, 5))
    expect(omega_limit(p, Q(0)) == OmegaLimit.plus_minus_inf(), "(-23/10,-14/5,0) plus_minus_inf")
    expect(brute_omega(p, Q(0)) == OmegaLimit.plus_minus_inf(), "(-23/10,-14/5,0) brute")

    report(5, not bad, "anchored parameter/point verdicts, all oracle-confirmed"
           + (f"; bad: {bad[:4]}" if bad else ""))


def test_criterion_6_no_long_cycles():
    bad = []
    for p in grid_params():
        verdict = check_no_long_cycles(p, Window(-200, 200), 8)
        if not verdict.agrees:
            bad.append((p.lam, p.mu, verdict.detail))
    report(6, not bad, f"no cycle of length 3..8 anywhere on the grid, window [-200, 200]"
           + (f"; bad: {bad[:3]}" if bad else ""))


def test_criterion_7_unit_negative_slope_identities():
    rng = random.Random(1423)
    mus = (Q(-3), Q(-1, 2), Q(0), Q(1, 2), Q(12, 5))
    bad = []
    xs = [random_rational(rng, -60, 60, max_den=48) for _ in range(1000)]
    for mu in mus:
        p = Params(Q(-1), mu)
        step = integer_step(p)
        for x in xs:
            z1 = eval_map(p, x)
            if step(step(z1)) != z1:
                bad.append(("f3", mu, x))
                continue
            first = math.floor(mu - x)
            second = math.floor(mu) - first
            want = (
                OmegaLimit.fixed(first)
                if first == second
                else OmegaLimit.two_cycle(min(first, second), max(first, second))
            )
            if omega_limit(p, x) != want:
                bad.append(("omega", mu, x))
    report(7, not bad, "lam = -1: f^3 = f and the two-point limit formula on 1000 seeded "
           "starts at 5 offsets" + (f"; bad: {bad[:3]}" if bad else ""))


def _render_sweep(target: SweepTarget) -> tuple[str, int]:
    spec = SweepSpec(
        lambda_from=Q(-3),
        lambda_to=Q(3),
        lambda_step=Q(1, 50),
        mu_from=Q(0),
        mu_to=Q(0),
        mu_step=Q(1),
        x_window=Window(-30, 30),
        target=target,
    )
    buf = io.StringIO()
    n = write_csv(sweep(spec), buf)
    return buf.getvalue(), n


def test_criterion_8_bifurcation_regression():
    bad = []
    fix_a, n_fix = _render_sweep(SweepTarget.FIXED_POINTS)
    fix_b, _ = _render_sweep(SweepTarget.FIXED_POINTS)
    if fix_a != fix_b:
        bad.append("fixed-point sweep not byte-identical")
    if n_fix != PINNED_FIX_SWEEP_ROWS:
        bad.append(f"fixed-point sweep rows {n_fix} != pinned {PINNED_FIX_SWEEP_ROWS}")
    per2_a, n_per2 = _render_sweep(SweepTarget.PERIOD2_POINTS)
    per2_b, _ = _render_sweep(SweepTarget.PERIOD2_POINTS)
    if per2_a != per2_b:
        bad.append("period-2 sweep not byte-identical")
    if n_per2 != PINNED_PER2_SWEEP_ROWS:
        bad.append(f"period-2 sweep rows {n_per2} != pinned {PINNED_PER2_SWEEP_ROWS}")
    for line in fix_a.splitlines()[1:]:
        lam_s, mu_s, x_s = line.split(",")
        p = Params(lam_s, mu_s)
        if eval_map(p, int(x_s)) != int(x_s):
            bad.append(f"row fails f(x)=x: {line}")
            break
    for line in per2_a.splitlines()[1:]:
        lam_s, mu_s, x_s = line.split(",")
        p = Params(lam_s, mu_s)
        x = int(x_s)
        y = eval_map(p, x)
        if y == x or eval_map(p, y) != x:
            bad.append(f"row fails period-2 predicate: {line}")
            break
    report(8, not bad, f"mu = 0 sweeps deterministic and self-verifying "
           f"({n_fix} fixed rows, {n_per2} period-2 rows)" + (f"; bad: {bad[:3]}" if bad else ""))


def test_criterion_9_slab_partition():
    rng = random.Random(977)
    bad = []
    for _ in range(1000):
        lam = -Q(rng.randint(1, 84), rng.randint(1, 28))
        mu = random_rational(rng, -3, 3, max_den=24)
        p = Params(lam, mu)
        x = random_rational(rng, -20, 20, max_den=32)
        n = interval_index(p, x)
        left, right = interval_bounds(p, n)
        if not (left < x <= right):
            bad.append(("membership", lam, mu, x))
            continue
        neighbours_clear = True
        for other in (n - 1, n + 1):
            lo, ro = interval_bounds(p, other)
            if lo < x <= ro:
                neighbours_clear = False
        if not neighbours_clear:
            bad.append(("uniqueness", lam, mu, x))
            continue
        if eval_map(p, x) != floor_affine_fixpoint(p) + n:
            bad.append(("identity", lam, mu, x))
    report(9, not bad, "slab index unique and f(x) = floor anchor + index on 1000 seeded "
           "negative-slope triples" + (f"; bad: {bad[:3]}" if bad else ""))
