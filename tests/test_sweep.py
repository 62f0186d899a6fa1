"""Grid sweeps and their CSV/JSONL export contract."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasiaffine import (
    Params,
    SweepRow,
    SweepSpec,
    SweepTarget,
    Window,
    brute_fixed_points,
    eval_map,
    fixed_points,
    format_rational,
    grid_values,
    integer_step,
    sweep,
    two_cycles,
    write_csv,
    write_jsonl,
)
from quasiaffine.cli import main

SEEDED = settings(derandomize=True, deadline=None, database=None)


def spec_for(lam_from, lam_to, lam_step, mu_from, mu_to, mu_step, window, target):
    return SweepSpec(
        lambda_from=lam_from,
        lambda_to=lam_to,
        lambda_step=lam_step,
        mu_from=mu_from,
        mu_to=mu_to,
        mu_step=mu_step,
        x_window=window,
        target=target,
    )


def test_grid_values_exact_inclusive_endpoint():
    assert list(grid_values(Q(-3), Q(3), Q(1, 7)))[0] == Q(-3)
    vals = list(grid_values(Q(-3), Q(3), Q(1, 7)))
    assert len(vals) == 43 and vals[-1] == Q(3)
    # overshoot stops before the bound
    assert list(grid_values(Q(0), Q(1), Q(2, 5))) == [Q(0), Q(2, 5), Q(4, 5)]
    assert list(grid_values(Q(1, 2), Q(1, 2), Q(1))) == [Q(1, 2)]
    with pytest.raises(ValueError):
        list(grid_values(Q(0), Q(1), Q(0)))
    with pytest.raises(ValueError):
        list(grid_values(Q(0), Q(1), Q(-1, 3)))


def _added_up(start: Q, stop: Q, step: Q) -> list[Q]:
    """The grid by repeated rational addition: the reference for grid_values."""
    out, v = [], start
    while v <= stop:
        out.append(v)
        v += step
    return out


def _grid_rationals(max_abs: int) -> st.SearchStrategy[Q]:
    # small, large (10^30) and coprime prime denominators
    dens = st.integers(1, 50) | st.integers(1, 10**30) | st.sampled_from([7919, 104729, 10**30 + 57])
    return dens.flatmap(lambda d: st.integers(-max_abs * d, max_abs * d).map(lambda n: Q(n, d)))


@settings(SEEDED, max_examples=100)
@given(
    start=_grid_rationals(50),
    step=_grid_rationals(5).filter(lambda q: q > 0),
    k=st.integers(-2, 40),
    frac=st.sampled_from([Q(0), Q(1, 2), Q(1, 3), Q(99, 100)]) | st.fractions(0, 1, max_denominator=10**6),
)
def test_grid_values_match_repeated_addition(start, step, k, frac):
    # stop lands on the grid (frac = 0), between two values, equals start
    # (k = 0, frac = 0) or lies below it (k < 0); the bounds take either sign
    stop = start + (k + frac) * step
    got = list(grid_values(start, stop, step))
    assert got == _added_up(start, stop, step)
    assert all(type(v) is Q for v in got)


def test_sweep_single_cell_fixed_points():
    spec = spec_for(Q(1, 2), Q(1, 2), Q(1), Q(0), Q(0), Q(1), Window(-5, 5), SweepTarget.FIXED_POINTS)
    rows = list(sweep(spec))
    assert rows == [SweepRow(Q(1, 2), Q(0), -1), SweepRow(Q(1, 2), Q(0), 0)]


def test_sweep_clips_symbolic_all_integers():
    spec = spec_for(Q(1), Q(1), Q(1), Q(0), Q(0), Q(1), Window(-2, 2), SweepTarget.FIXED_POINTS)
    assert [r.x for r in sweep(spec)] == [-2, -1, 0, 1, 2]


def test_sweep_clips_symbolic_pair_family():
    spec = spec_for(Q(-1), Q(-1), Q(1), Q(0), Q(0), Q(1), Window(-1, 1), SweepTarget.PERIOD2_POINTS)
    assert [r.x for r in sweep(spec)] == [-1, 1]  # x = 0 is fixed, not period-2


def test_sweep_rows_are_lexicographic():
    spec = spec_for(Q(-2), Q(2), Q(1, 2), Q(-1), Q(1), Q(1), Window(-8, 8), SweepTarget.FIXED_POINTS)
    keys = [(r.lam, r.mu, r.x) for r in sweep(spec)]
    assert keys == sorted(keys)


def test_sweep_rows_satisfy_their_predicate():
    window = Window(-12, 12)
    fix_spec = spec_for(Q(-3), Q(3), Q(1, 3), Q(-1), Q(1), Q(1, 2), window, SweepTarget.FIXED_POINTS)
    for r in sweep(fix_spec):
        assert eval_map(Params(r.lam, r.mu), r.x) == r.x
    per2_spec = spec_for(Q(-3), Q(3), Q(1, 3), Q(-1), Q(1), Q(1, 2), window, SweepTarget.PERIOD2_POINTS)
    rows = list(sweep(per2_spec))
    assert rows
    for r in rows:
        p = Params(r.lam, r.mu)
        y = eval_map(p, r.x)
        assert y != r.x and eval_map(p, y) == r.x


def test_sweep_clipping_is_sound_against_enumeration():
    window = Window(-10, 10)
    fix_spec = spec_for(Q(-2), Q(2), Q(1, 4), Q(-1), Q(1), Q(1, 2), window, SweepTarget.FIXED_POINTS)
    by_cell: dict[tuple, list[int]] = {}
    for r in sweep(fix_spec):
        by_cell.setdefault((r.lam, r.mu), []).append(r.x)
    for lam in grid_values(Q(-2), Q(2), Q(1, 4)):
        for mu in grid_values(Q(-1), Q(1), Q(1, 2)):
            assert by_cell.get((lam, mu), []) == brute_fixed_points(Params(lam, mu), window)
    per2_spec = spec_for(Q(-2), Q(2), Q(1, 4), Q(-1), Q(1), Q(1, 2), window, SweepTarget.PERIOD2_POINTS)
    by_cell.clear()
    for r in sweep(per2_spec):
        by_cell.setdefault((r.lam, r.mu), []).append(r.x)
    for lam in grid_values(Q(-2), Q(2), Q(1, 4)):
        for mu in grid_values(Q(-1), Q(1), Q(1, 2)):
            step = integer_step(Params(lam, mu))
            want = [z for z in window.members() if step(z) != z and step(step(z)) == z]
            assert by_cell.get((lam, mu), []) == want


def test_invalid_specs_are_rejected():
    with pytest.raises(ValueError):
        spec_for(Q(1), Q(0), Q(1), Q(0), Q(0), Q(1), Window(-1, 1), SweepTarget.FIXED_POINTS)
    with pytest.raises(ValueError):
        spec_for(Q(0), Q(1), Q(0), Q(0), Q(0), Q(1), Window(-1, 1), SweepTarget.FIXED_POINTS)
    with pytest.raises(ValueError):
        spec_for(Q(0), Q(1), Q(1), Q(0), Q(0), Q(-1, 2), Window(-1, 1), SweepTarget.FIXED_POINTS)


# the cell changes in mu only, then in lam only, and (1/2, 1/3) comes back
# after a different cell; equal values arrive as distinct objects
_CELL_CHANGES = [
    SweepRow(Q(1, 2), Q(1, 3), 0),
    SweepRow(Q(1, 2), Q(1, 3), 5),
    SweepRow(Q(1, 2), Q(2, 3), -1),
    SweepRow(Q(-1, 2), Q(2, 3), -1),
    SweepRow(Q(1, 2), Q(1, 3), 10**30),
    SweepRow(Q(2, 4), Q(2, 6), -3),
]


def test_write_csv_contract():
    buf = io.StringIO()
    assert write_csv([], buf) == 0
    assert buf.getvalue() == "lambda,mu,x\n"
    buf = io.StringIO()
    n = write_csv([SweepRow(Q(3, 2), Q(13, 10), -1)], buf)
    assert n == 1
    assert buf.getvalue() == "lambda,mu,x\n3/2,13/10,-1\n"
    buf = io.StringIO()
    assert write_csv(_CELL_CHANGES, buf) == len(_CELL_CHANGES)
    want = "".join(f"{format_rational(r.lam)},{format_rational(r.mu)},{r.x}\n" for r in _CELL_CHANGES)
    assert buf.getvalue() == "lambda,mu,x\n" + want


def test_write_jsonl_contract():
    buf = io.StringIO()
    n = write_jsonl([SweepRow(Q(3, 2), Q(13, 10), -1), SweepRow(Q(-1), Q(0), 4)], buf)
    assert n == 2
    lines = buf.getvalue().splitlines()
    assert json.loads(lines[0]) == {"lambda": "3/2", "mu": "13/10", "x": -1}
    assert json.loads(lines[1]) == {"lambda": "-1", "mu": "0", "x": 4}
    buf = io.StringIO()
    assert write_jsonl(_CELL_CHANGES, buf) == len(_CELL_CHANGES)
    want = "".join(
        json.dumps({"lambda": format_rational(r.lam), "mu": format_rational(r.mu), "x": r.x}, separators=(",", ":"))
        + "\n"
        for r in _CELL_CHANGES
    )
    assert buf.getvalue() == want


def test_identical_specs_give_identical_bytes():
    def render() -> str:
        spec = spec_for(Q(-3), Q(3), Q(1, 5), Q(-1), Q(1), Q(1, 3), Window(-15, 15), SweepTarget.PERIOD2_POINTS)
        buf = io.StringIO()
        write_csv(sweep(spec), buf)
        return buf.getvalue()

    assert render() == render()


_sweep_slopes = st.one_of(
    # lam = -(n+-1)/n: k_hi ~ n, far wider than any window drawn below
    st.builds(lambda n, off: -Q(n + off, n), st.integers(2, 10**4), st.sampled_from([-1, 1])),
    st.sampled_from([Q(-1), Q(1), Q(-2), Q(0)]),
    st.integers(1, 60).flatmap(lambda d: st.integers(-3 * d, 3 * d).map(lambda n: Q(n, d))),
)
_mu_dens = st.integers(1, 13) | st.integers(1, 10**30)


def _window(data, p: Params) -> Window:
    """A window next to p* = mu/(1 - lam), around it, wholly left or right
    of it, or with an end on a 2-cycle member whose partner lies outside."""
    centre = math.floor(p.mu / (1 - p.lam)) if p.lam != 1 else 0
    width = data.draw(st.integers(0, 80), label="width")
    kind = data.draw(st.sampled_from(["around", "left", "right", "pair_low", "pair_high"]), label="kind")
    pairs = two_cycles(p).clip(centre - 200, centre + 200)
    if kind.startswith("pair") and pairs:
        x, y = data.draw(st.sampled_from(pairs), label="pair")
        cut = data.draw(st.integers(0, y - x - 1), label="cut")
        # [x, y - 1 - cut] keeps x but not y; [x + 1 + cut, y] keeps y but not x
        return Window(x, y - 1 - cut) if kind == "pair_low" else Window(x + 1 + cut, y)
    gap = data.draw(st.integers(1, 60), label="gap")
    if kind == "left":
        return Window(centre - gap - width, centre - gap)
    if kind == "right":
        return Window(centre + gap, centre + gap + width)
    lo = centre - data.draw(st.integers(0, width), label="shift")
    return Window(lo, lo + width)


@settings(SEEDED, max_examples=200)
@given(
    lam=_sweep_slopes,
    mu_from=_mu_dens.flatmap(lambda d: st.integers(-40 * d, 40 * d).map(lambda n: Q(n, d))),
    mu_step=_mu_dens.flatmap(lambda d: st.integers(1, 3 * d).map(lambda n: Q(n, d))),
    cells=st.integers(1, 4),
    target=st.sampled_from(list(SweepTarget)),
    data=st.data(),
)
def test_sweep_rows_are_the_closed_forms_and_the_enumeration(lam, mu_from, mu_step, cells, target, data):
    # every cell's rows are fixed_points(p).clip / two_cycles(p).points_in,
    # and what plain enumeration of the window finds; the window is drawn
    # once, from the first cell
    window = _window(data, Params(lam, mu_from))
    spec = spec_for(lam, lam, Q(1), mu_from, mu_from + (cells - 1) * mu_step, mu_step, window, target)
    by_cell: dict[tuple, list[int]] = {}
    for r in sweep(spec):
        by_cell.setdefault((r.lam, r.mu), []).append(r.x)
    lo, hi = window.lo, window.hi
    mus = [mu_from + j * mu_step for j in range(cells)]
    assert set(by_cell) <= {(lam, mu) for mu in mus}
    for mu in mus:
        p = Params(lam, mu)
        got = by_cell.get((lam, mu), [])

        def f(z: int) -> int:
            return math.floor(lam * z + mu)

        if target is SweepTarget.FIXED_POINTS:
            assert got == fixed_points(p).clip(lo, hi)
            assert got == [z for z in range(lo, hi + 1) if f(z) == z]
        else:
            assert got == two_cycles(p).points_in(lo, hi)
            assert got == [z for z in range(lo, hi + 1) if f(z) != z and f(f(z)) == z]


# Digests of `scan` output for a fixed spec set, computed on the tree whose
# sweep still built a Params, an IntegerSet or TwoCycleSet and a Fraction
# sum per cell: the integer kernel must reproduce those bytes. The set spans
# lam = -1 -+ 1/997 with -1 between them, the lam = -1 family, lam = 1
# (all of Z and empty), lam = 0, lam > 1, an off-centre window, and a mu
# grid on the denominator 10^30.
_MU30 = f"1/{10**30}"
_GOLDEN_SPECS = [
    ("per2", "-998/997..-996/997", "1/997", "-5/2..5/2", "1/2", "-40..40"),
    ("fix", "-998/997..-996/997", "1/997", "-3..3", "1", "-40..40"),
    ("fix", "1..1", "1", "-1..5/4", "1/4", "-6..6"),
    ("per2", "-1..1", "1", "-3/2..3/2", "1/2", "-7..5"),
    ("fix", "5/4..3", "7/4", "-2..2", "2/3", "-20..20"),
    ("per2", "-2..1/2", "1/4", f"{_MU30}..5", "3/2", "-25..-3"),
    ("fix", "-2..1/2", "1/4", f"{_MU30}..5", "3/2", "-25..25"),
]
_GOLDEN_SHA256 = {
    "csv": "5530f01774cc05631240d19903fe800fd4621619ad68765dbe7e18b5c948eb7d",
    "jsonl": "65aee9c9641334ec4aeeff4f15a3b9617eee989163a3303e886b3deac612f22d",
}


@pytest.mark.parametrize("fmt", sorted(_GOLDEN_SHA256))
def test_scan_output_matches_pinned_digests(fmt):
    h = hashlib.sha256()
    for target, lam_range, lam_step, mu_range, mu_step, window in _GOLDEN_SPECS:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = main(["scan", "--target", target, "--lambda-range", lam_range, "--lambda-step", lam_step,
                       "--mu-range", mu_range, "--mu-step", mu_step, "--x-window", window, "--format", fmt])
        assert rc == 0
        h.update(buf.getvalue().encode())
    assert h.hexdigest() == _GOLDEN_SHA256[fmt]
