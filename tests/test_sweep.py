"""Grid sweeps and their CSV/JSONL export contract."""

from __future__ import annotations

import io
import json
from fractions import Fraction as Q

import pytest

from quasiaffine import (
    Params,
    SweepRow,
    SweepSpec,
    SweepTarget,
    Window,
    brute_fixed_points,
    eval_map,
    format_rational,
    grid_values,
    integer_step,
    sweep,
    write_csv,
    write_jsonl,
)


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
