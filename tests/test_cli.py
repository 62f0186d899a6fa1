"""CLI surface: flag parsing, JSON/plain rendering, exit codes, thinness."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction as Q
from pathlib import Path
from types import SimpleNamespace

import pytest

import quasiaffine.cli as cli
from quasiaffine import (
    CaseTag,
    IntegerSet,
    OmegaLimit,
    Orbit,
    OracleVerdict,
    Params,
    TwoCycleSet,
    Window,
    classify_case,
    fixed_points,
    omega_limit,
    two_cycles,
)
from quasiaffine.cli import main


def run(capsys, *argv: str) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_fix_json(capsys):
    code, out = run(capsys, "fix", "--lambda", "3/2", "--mu", "13/10")
    assert code == 0
    assert out.strip() == '{"kind":"range","lo":-2,"hi":-1}'


def test_fix_plain(capsys):
    code, out = run(capsys, "--plain", "fix", "--lambda", "3/2", "--mu", "13/10")
    assert code == 0
    assert out.strip() == "{-2..-1}"


def test_omega_json_includes_case(capsys):
    code, out = run(capsys, "omega", "--lambda", "0", "--mu", "1", "--x", "5/7")
    assert code == 0
    assert json.loads(out) == {"kind": "fixed", "z": 1, "case": "v"}


def test_cycles_symbolic_family(capsys):
    code, out = run(capsys, "cycles", "--lambda", "-1", "--mu", "1/2")
    assert code == 0
    assert json.loads(out) == {"kind": "neg_one_family", "c": 0}


def test_cycles_clipped_family(capsys):
    code, out = run(capsys, "cycles", "--lambda", "-1", "--mu", "1/2", "--window", "-2..2")
    assert code == 0
    assert json.loads(out) == {"kind": "finite", "pairs": [[-2, 2], [-1, 1]]}


@pytest.mark.parametrize(
    "lam, mu, windows",
    [
        ("-1", "1/2", ["-2..2", "-5..7", "3..9", "-9..-3", "0..0", "-1000..1000"]),
        ("-1", "7/3", ["-2..2", "1..1", "1..2", "2..9", "-30..40"]),
        ("-99/100", "1/3", ["-40..40", "-20..20", "-33..33", "0..0", "5..5", "-200..200", "100..200"]),
    ],
    ids=["family-c0", "family-c2", "finite"],
)
def test_cycles_window_prints_the_canonicalised_clip(capsys, lam, mu, windows):
    # the clip goes straight to the validating constructor; the reference
    # puts it through the canonicaliser first, as the command once did
    s = two_cycles(Params(Q(lam), Q(mu)))
    empty = 0
    for window in windows:
        lo, hi = map(int, window.split(".."))
        ref = TwoCycleSet.finite(s.clip(lo, hi))
        plain = " ".join(f"{{{a}, {b}}}" for a, b in ref.pairs) or "none"
        assert run(capsys, "cycles", "--lambda", lam, "--mu", mu, "--window", window) == (0, json.dumps(ref.to_json(), separators=(",", ":")) + "\n")
        assert run(capsys, "--plain", "cycles", "--lambda", lam, "--mu", mu, "--window", window) == (0, plain + "\n")
        empty += not ref.pairs
    assert 0 < empty < len(windows)


def test_classify(capsys):
    code, out = run(capsys, "classify", "--lambda", "-7/10", "--mu", "-1/2")
    assert code == 0
    assert json.loads(out) == {"case": "vii"}


def test_orbit_json_and_plain(capsys):
    code, out = run(capsys, "orbit", "--lambda", "3/2", "--mu", "13/10", "--x", "-1/2", "--steps", "4")
    assert code == 0
    assert json.loads(out) == {"start": "-1/2", "tail": [0, 1, 2, 4], "truncated": True}
    code, out = run(capsys, "--plain", "orbit", "--lambda", "3/2", "--mu", "13/10", "--x", "-1/2", "--steps", "4")
    assert code == 0
    assert out == "0\n1\n2\n4\n"


def test_cli_is_a_thin_adapter(capsys):
    p = Params(Q(-13, 10), Q(-4, 5))
    _, out = run(capsys, "fix", "--lambda", "-13/10", "--mu", "-4/5")
    assert json.loads(out) == fixed_points(p).to_json()
    _, out = run(capsys, "omega", "--lambda", "-13/10", "--mu", "-4/5", "--x", "47/20")
    expected = omega_limit(p, Q(47, 20)).to_json()
    expected["case"] = classify_case(p).value
    assert json.loads(out) == expected


def test_scan_to_file_and_determinism(capsys, tmp_path):
    args = [
        "scan", "--target", "fix",
        "--lambda-range", "-2..2", "--lambda-step", "1/2",
        "--mu-range", "0..0", "--mu-step", "1",
        "--x-window", "-5..5",
    ]
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    data = first.read_bytes()
    assert data == second.read_bytes()
    lines = data.decode().splitlines()
    assert lines[0] == "lambda,mu,x"
    assert "1/2,0,-1" in lines and "1/2,0,0" in lines
    capsys.readouterr()


def test_scan_to_stdout_jsonl(capsys):
    code, out = run(
        capsys,
        "scan", "--target", "per2",
        "--lambda-range", "-1..-1", "--lambda-step", "1",
        "--mu-range", "0..0", "--mu-step", "1",
        "--x-window", "-1..1", "--format", "jsonl",
    )
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert rows == [
        {"lambda": "-1", "mu": "0", "x": -1},
        {"lambda": "-1", "mu": "0", "x": 1},
    ]


def test_verify_agreement(capsys):
    code, out = run(
        capsys,
        "verify",
        "--lambda-range", "-2..2", "--lambda-step", "1/2",
        "--mu-range", "-1..1", "--mu-step", "1/2",
        "--window", "-40..40", "--samples", "3", "--seed", "7",
    )
    assert code == 0
    assert json.loads(out) == {"agrees": True, "detail": ""}


def test_verify_disagreement_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(cli, "cross_check", lambda *a, **kw: OracleVerdict(False, "forced"))
    code, out = run(
        capsys,
        "verify",
        "--lambda-range", "0..0", "--lambda-step", "1",
        "--mu-range", "0..0", "--mu-step", "1",
        "--window", "-5..5", "--samples", "1", "--seed", "0",
    )
    assert code == 1
    assert json.loads(out) == {"agrees": False, "detail": "forced"}


def test_usage_error_exit_codes(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fix", "--lambda", "3/2"])  # --mu missing
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["fix", "--lambda", "3/2", "--mu", "1.3"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--mu" in err and "1.3" in err
    with pytest.raises(SystemExit) as exc:
        main(["fix", "--lambda", "3/2", "--mu", "1/0"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["scan", "--target", "fix", "--lambda-range", "0;1", "--lambda-step", "1",
              "--mu-range", "0..0", "--mu-step", "1", "--x-window", "-1..1"])
    assert exc.value.code == 2


_SCAN = ["scan", "--target", "fix", "--mu-range", "0..0", "--mu-step", "1", "--x-window", "-1..1"]
_VERIFY = ["verify", "--mu-range", "0..0", "--mu-step", "1", "--window", "-1..1"]


@pytest.mark.parametrize(
    "argv",
    [
        ["orbit", "--lambda", "1/2", "--mu", "0", "--x", "1", "--steps", "-1"],
        _SCAN + ["--lambda-range", "0..1", "--lambda-step", "0"],
        _SCAN + ["--lambda-range", "1..0", "--lambda-step", "1"],
        ["scan", "--target", "fix", "--lambda-range", "0..0", "--lambda-step", "1",
         "--mu-range", "0..0", "--mu-step", "-1/2", "--x-window", "-1..1"],
        _VERIFY + ["--lambda-range", "0..1", "--lambda-step", "1", "--samples", "-3"],
        _VERIFY + ["--lambda-range", "1..0", "--lambda-step", "1"],
    ],
    ids=["orbit-negative-steps", "scan-zero-step", "scan-reversed-range", "scan-negative-mu-step",
         "verify-negative-samples", "verify-reversed-range"],
)
def test_out_of_range_arguments_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err and "error: argument --" in captured.err


@pytest.mark.parametrize(
    "argv, plain",
    [
        (["fix", "--lambda", "1", "--mu", "1/2"], "all integers"),
        (["cycles", "--lambda", "1/2", "--mu", "0"], "none"),
        (["omega", "--lambda", "-1", "--mu", "1/2", "--x", "5/2"], "2-cycle {-2, 2} [case viii]"),
    ],
    ids=["fix-all-integers", "cycles-none", "omega-two-cycle"],
)
def test_plain_renderings(capsys, argv, plain):
    assert run(capsys, "--plain", *argv) == (0, plain + "\n")


_MAP = ["--lambda", "-1", "--mu", "1/2"]


@pytest.mark.parametrize(
    "argv, flag, message",
    [
        (["fix", "--lambda", "\u0663/\u0662", "--mu", "0"], "--lambda", "malformed rational"),
        (["fix", "--lambda", "1_0", "--mu", "0"], "--lambda", "malformed rational"),
        (["omega", *_MAP, "--x", "\uff11"], "--x", "malformed rational"),
        # only "-" before an ASCII digit starts a negative value; argparse
        # takes anything else that starts with "-" for an option
        (["cycles", *_MAP, "--window", "-\u0661..\u0661"], "--window", "expected one argument"),
        (["cycles", *_MAP, "--window", "\u0661..2"], "--window", "malformed window"),
        (["cycles", *_MAP, "--window", "-1_0..1_0"], "--window", "malformed window"),
        (["orbit", *_MAP, "--x", "1", "--steps", "\u0661"], "--steps", "malformed integer"),
        (["orbit", *_MAP, "--x", "1", "--steps", "1_0"], "--steps", "malformed integer"),
        (_VERIFY + ["--lambda-range", "0..0", "--lambda-step", "1", "--seed", "\u0663"], "--seed", "malformed integer"),
        (_VERIFY + ["--lambda-range", "0..0", "--lambda-step", "1", "--seed", "1_0"], "--seed", "malformed integer"),
        (_VERIFY + ["--lambda-range", "0..0", "--lambda-step", "1", "--samples", "\u0663"], "--samples",
         "malformed integer"),
        (["scan", "--target", "fix", "--lambda-range", "0..0", "--lambda-step", "1",
          "--mu-range", "0..0", "--mu-step", "1", "--x-window", "0..1_0"], "--x-window", "malformed window"),
    ],
    ids=["lambda-arabic-indic", "lambda-underscore", "x-fullwidth", "window-arabic-indic-negative",
         "window-arabic-indic", "window-underscore", "steps-arabic-indic", "steps-underscore",
         "seed-arabic-indic", "seed-underscore", "samples-arabic-indic", "x-window-underscore"],
)
def test_numbers_outside_the_ascii_grammar_are_usage_errors(capsys, argv, flag, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    # argparse prints its usage text first, then this one error line
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1 and f"error: argument {flag}: {message}" in errors[0], captured.err


@pytest.mark.parametrize(
    "argv, dest, value",
    [
        (["orbit", *_MAP, "--x", "0", "--steps", " +3 "], "steps", 3),
        (["orbit", *_MAP, "--x", "0", "--steps", "007"], "steps", 7),
        (["cycles", *_MAP, "--window", " -2 .. +2 "], "window", Window(-2, 2)),
        (_VERIFY + ["--lambda-range", "0..0", "--lambda-step", "1", "--seed", "-5"], "seed", -5),
        (_VERIFY + ["--lambda-range", "0..0", "--lambda-step", "1", "--samples", "+0"], "samples", 0),
    ],
    ids=["steps-signed-spaced", "steps-leading-zeros", "window-spaced", "seed-negative", "samples-signed-zero"],
)
def test_ascii_integers_keep_their_values(argv, dest, value):
    assert getattr(cli._parser().parse_args(argv), dest) == value


@pytest.mark.parametrize("window", ["5", "1..x"], ids=["no-separator", "not-an-integer"])
def test_malformed_window_is_a_usage_error(capsys, window):
    with pytest.raises(SystemExit) as exc:
        main(["cycles", "--lambda", "-1", "--mu", "1/2", "--window", window])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert f"error: argument --window: malformed window {window!r}" in captured.err


@pytest.mark.parametrize(
    "out",
    [
        "missing/f.csv",
        ".",
        # opens fine; the write fails when the file is flushed on close
        pytest.param("/dev/full", marks=pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")),
    ],
    ids=["scan-out-missing-dir", "scan-out-is-a-directory", "scan-out-write-fails"],
)
def test_unwritable_scan_output_is_a_usage_error(capsys, tmp_path, out):
    code = main(_SCAN + ["--lambda-range", "0..0", "--lambda-step", "1", "--out", str(tmp_path / out)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("quasiaffine scan: error: ") and captured.err.count("\n") == 1


def _entrypoint(argv: list[str], stdout) -> subprocess.Popen:
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)  # stdout buffered, as when run from a shell
    return subprocess.Popen(
        [sys.executable, "-c", "from quasiaffine.cli import entrypoint; entrypoint()", *argv],
        stdout=stdout, stderr=subprocess.PIPE, env=env,
    )


def test_scan_into_a_closed_pipe_exits_141_silently():
    argv = ["scan", "--target", "per2", "--lambda-range", "-1..-1", "--lambda-step", "1",
            "--mu-range", "0..200", "--mu-step", "1", "--x-window", "-1000..1000"]
    proc = _entrypoint(argv, subprocess.PIPE)
    assert proc.stdout.readline() == b"lambda,mu,x\n"
    proc.stdout.close()  # the rest of the ~4 MB is never read
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (141, b"")


def test_help_into_a_pipe_without_reader_exits_141_silently():
    # argparse leaves through SystemExit; the help text is still unwritten then
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _entrypoint(["--help"], write_end)
    finally:
        os.close(write_end)
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (141, b"")


def test_orbit_prints_integers_past_the_default_digit_limit():
    # the interpreter refuses str() of ints over 4,300 digits unless lifted
    argv = ["--plain", "orbit", "--lambda", "1" + "0" * 1000, "--mu", "0", "--x", "1", "--steps", "5"]
    proc = _entrypoint(argv, subprocess.PIPE)
    out, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (0, b"")
    assert out.splitlines()[-1] == b"1" + b"0" * 5000


def test_omega_accepts_a_start_past_the_default_digit_limit():
    start = b"9" * 5001
    proc = _entrypoint(["omega", "--lambda", "1", "--mu", "0", "--x", start.decode()], subprocess.PIPE)
    out, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (0, b"")
    assert out == b'{"kind":"fixed","z":' + start + b',"case":"iii"}\n'


@pytest.mark.parametrize("lam, mu", [("1/2", "10000000000"), ("99/100", "1000")])
def test_verify_accepts_orbits_beyond_the_default_budget(capsys, lam, mu):
    # from the window the first orbit passes the default escape bound of
    # 10^9 on its way to a fixed point, the second settles after 745 steps
    code, out = run(
        capsys,
        "--plain", "verify",
        "--lambda-range", f"{lam}..{lam}", "--lambda-step", "1",
        "--mu-range", f"{mu}..{mu}", "--mu-step", "1",
        "--window", "-5..5", "--samples", "3",
    )
    assert (code, out) == (0, "agree (1 parameter pairs)\n")


def _outcome(capsys, argv: list[str]) -> tuple[object, str, str]:
    try:
        status = main(argv)
    except SystemExit as exc:
        status = exc.code
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def _refuse(*args, **kwargs):
    raise AssertionError("rendered the format that is not printed")


class _Unprintable(int):
    """An int that json.dumps writes as usual but that refuses str()."""

    def __str__(self):
        _refuse()


def _unprintable_tail(iterate_orbit):
    def wrapped(*args):
        orbit = iterate_orbit(*args)
        return Orbit(orbit.start, tuple(map(_Unprintable, orbit.tail)))
    return wrapped


_SMALL_VERIFY = ["verify", "--lambda-range", "0..1", "--lambda-step", "1/2", "--mu-range", "-1/2..0",
                 "--mu-step", "1/2", "--window", "-5..5", "--samples", "2"]


@pytest.mark.parametrize(
    "argv, status, as_json, as_plain",
    [
        (["fix", "--lambda", "3/2", "--mu", "13/10"], 0, '{"kind":"range","lo":-2,"hi":-1}', "{-2..-1}"),
        (["fix", "--lambda", "1", "--mu", "1/2"], 0, '{"kind":"all_integers"}', "all integers"),
        (["fix", "--lambda", "1", "--mu", "2"], 0, '{"kind":"empty"}', "empty"),
        (["cycles", *_MAP], 0, '{"kind":"neg_one_family","c":0}',
         "all pairs {x, 0 - x} over the integers (x != 0 - x)"),
        (["cycles", *_MAP, "--window", "-2..2"], 0, '{"kind":"finite","pairs":[[-2,2],[-1,1]]}', "{-2, 2} {-1, 1}"),
        (["cycles", "--lambda", "-99/100", "--mu", "1/3", "--window", "5..5"], 0, '{"kind":"finite","pairs":[]}', "none"),
        (["omega", *_MAP, "--x", "5/2"], 0, '{"kind":"two_cycle","a":-2,"b":2,"case":"viii"}',
         "2-cycle {-2, 2} [case viii]"),
        (["omega", "--lambda", "3/2", "--mu", "0", "--x", "7"], 0, '{"kind":"plus_inf","case":"i"}',
         "+infinity [case i]"),
        (["orbit", "--lambda", "3/2", "--mu", "13/10", "--x", "-1/2", "--steps", "4"], 0,
         '{"start":"-1/2","tail":[0,1,2,4],"truncated":true}', "0\n1\n2\n4"),
        (["classify", "--lambda", "-7/10", "--mu", "-1/2"], 0, '{"case":"vii"}', "vii"),
        (_SMALL_VERIFY, 0, '{"agrees":true,"detail":""}', "agree (6 parameter pairs)"),
        (_SMALL_VERIFY + ["--samples", "0"], 1, '{"agrees":false,"detail":"forced"}', "disagree: forced"),
    ],
    ids=["fix-range", "fix-all-integers", "fix-empty", "cycles-family", "cycles-window", "cycles-none",
         "omega-two-cycle", "omega-escape", "orbit", "classify", "verify-agree", "verify-disagree"],
)
def test_each_command_renders_only_the_format_it_prints(capsys, monkeypatch, argv, status, as_json, as_plain):
    if status == 1:  # the disagreement is forced
        monkeypatch.setattr(cli, "cross_check", lambda *a, **kw: OracleVerdict(False, "forced"))
    with monkeypatch.context() as m:
        for name in ("_plain_integer_set", "_plain_cycles", "_plain_omega"):
            m.setattr(cli, name, _refuse)
        m.setattr(cli, "iterate_orbit", _unprintable_tail(cli.iterate_orbit))
        assert run(capsys, *argv) == (status, as_json + "\n")
    with monkeypatch.context() as m:
        for value_class in (IntegerSet, TwoCycleSet, OmegaLimit, CaseTag, OracleVerdict):
            m.setattr(value_class, "to_json", _refuse)
        m.setattr(cli, "format_rational", _refuse)
        m.setattr(cli, "json", SimpleNamespace(dumps=_refuse))
        assert run(capsys, "--plain", *argv) == (status, as_plain + "\n")


def test_reused_parser_is_order_independent(capsys):
    sequence = [
        ["fix", "--lambda", "3/2"],
        ["--help"],
        ["scan", "--help"],
        _SCAN + ["--lambda-range", "-1..1", "--lambda-step", "1/2"],
        _VERIFY + ["--lambda-range", "0..1", "--lambda-step", "1/2"],
        ["--plain", "fix", "--lambda", "3/2", "--mu", "13/10"],
    ]
    cli._parser.cache_clear()
    forward = [_outcome(capsys, argv) for argv in sequence]
    backward = [_outcome(capsys, argv) for argv in reversed(sequence)][::-1]
    assert forward == backward
    assert [status for status, _, _ in forward] == [2, 0, 0, 0, 0, 0]


def test_repeated_invocations_are_identical(capsys):
    _, first = run(capsys, "cycles", "--lambda", "-13/10", "--mu", "-9/5")
    _, second = run(capsys, "cycles", "--lambda", "-13/10", "--mu", "-9/5")
    assert first == second


@pytest.mark.parametrize("module", ["quasiaffine", "quasiaffine.cli"])
@pytest.mark.parametrize(
    "argv",
    [["--plain", "fix", "--lambda", "3/2", "--mu", "13/10"], ["--plain", "fix", "--lambda", "3/2"]],
    ids=["success", "usage-error"],
)
def test_module_forms_run_the_console_entry_point(capsys, monkeypatch, module, argv):
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", module, *argv], capture_output=True, env=env, timeout=60)
    monkeypatch.setattr(sys, "argv", ["quasiaffine", *argv])
    # entrypoint lifts the int <-> str digit limit for its process; keep this one's
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    try:
        with pytest.raises(SystemExit) as exit_:
            cli.entrypoint()
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    captured = capsys.readouterr()
    assert exit_.value.code in (0, 2)
    assert (proc.returncode, proc.stdout.decode(), proc.stderr.decode()) == (exit_.value.code, captured.out, captured.err)
