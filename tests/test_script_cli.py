import io
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from surfclass.cli import build_parser, main
from surfclass.lattice import BaseSurface, make_base
from surfclass.script import (
    ScriptError,
    parse_class_expr,
    render_reduction,
    render_report,
    run_script,
)
from surfclass.minimal import minimal_model
from surfclass.moves import ReplayError
from surfclass.words import InternalInvariantError, SurfclassError, ValidationError

from conftest import words


# ---------------------------------------------------------------------------
# script parsing and execution
# ---------------------------------------------------------------------------


def test_class_expr_forms():
    surf = make_base(BaseSurface.hirzebruch(2))
    assert parse_class_expr("2S + 3F", surf).coords == (2, 3)
    assert parse_class_expr("2*S+3*F", surf).coords == (2, 3)
    assert parse_class_expr("-S", surf).coords == (-1, 0)
    assert parse_class_expr("F - S + F", surf).coords == (-1, 2)


def test_class_expr_errors():
    surf = make_base(BaseSurface.cp2())
    with pytest.raises(ValidationError, match="unknown basis name 'Q'"):
        parse_class_expr("H + Q", surf)
    with pytest.raises(ValidationError, match="empty class expression"):
        parse_class_expr("   ", surf)
    with pytest.raises(ValidationError, match="missing"):
        parse_class_expr("H E1", make_base(BaseSurface.cp2()))


def test_class_expr_costs_linear_time_on_hostile_input():
    # a run of spaces after a coefficient that no name follows made the
    # term pattern backtrack quadratically (about 23 s for 50,000 spaces),
    # and reading each term off a fresh slice of the rest made a long sum
    # quadratic (about 11 s for 500,000 terms); both take well under a
    # tenth of their bound in linear time
    surf = make_base(BaseSurface.cp2())
    t0 = time.perf_counter()
    with pytest.raises(ValidationError, match="cannot read class expression at '2 "):
        parse_class_expr("2" + " " * 50_000 + "!", surf)
    assert time.perf_counter() - t0 < 1
    t0 = time.perf_counter()
    assert parse_class_expr(" + ".join(["H"] * 500_000), surf).coords == (500_000,)
    assert time.perf_counter() - t0 < 3


TWO_POINTS = """\
# blow up two points of the plane, then contract the line through them
base cp2
blowup
blowup
line L = H - E1 - E2
blowdown L
report
"""


def test_two_points_script():
    out = run_script(TWO_POINTS)
    surf = out.surface
    assert surf.gram == ((0, 1), (1, 0))
    assert surf.canonical.coords == (-2, -2)
    assert surf.k_squared == 8
    # pushed-forward names survive as tracked lines in the new basis
    tracked = dict(surf.tracked)
    assert tracked["E1"].coords == (0, 1)
    assert tracked["E2"].coords == (1, 0)
    assert tracked["H"].coords == (1, 1)
    report = out.reports[0]
    assert "K^2 = 8  chi = 4  b2 = 2" in report
    assert "E1 = B2  (self-intersection 0)" in report


def test_script_minimal_model_replaces_surface():
    out = run_script("base cp2\nblowup\nblowup\nminimal-model\nreport\n")
    assert out.surface.rank == 1
    assert len(out.reductions) == 1
    assert str(out.reductions[0].final) == "CP2"
    assert "b2 = 1" in out.reports[0]


def test_script_reduction_render():
    out = run_script("base cp2\nblowup\nminimal-model\n")
    text = render_reduction(out.reductions[0])
    assert "contract E1 (class at contraction: (0, 1))" in text
    assert "minimal model: CP2" in text
    already = minimal_model(make_base(BaseSurface.hirzebruch(4)))
    assert render_reduction(already).splitlines() == [
        "already minimal: nothing to contract",
        "minimal model: Hirzebruch(4)",
    ]


def test_script_blowup_on_tracked_line():
    out = run_script(
        "base cp2\nline L = H\nblowup on L\nblowup on L\nblowdown L\n"
    )
    # L = H - E1 - E2 after the two constrained blow-ups, so it contracts
    assert out.surface.rank == 2


@pytest.mark.parametrize(
    "script, line_no, fragment",
    [
        ("blowup\n", 1, "start with a base"),
        ("base cp2\nbase cp2\n", 2, "already set"),
        ("base dp6\n", 1, "expected 'base cp2'"),
        ("base hirzebruch x\n", 1, "bad Hirzebruch index"),
        ("base cp2\nfrobnicate\n", 2, "unknown statement 'frobnicate'"),
        ("base cp2\nblowup on\n", 2, "at least one line name"),
        ("base cp2\nblowup unknowable\n", 2, "expected 'blowup'"),
        ("base cp2\nline L = H\nline L = H\n", 3, "already tracked"),
        ("base cp2\nline L = - * H\n", 2, "cannot read class expression at '- * H'"),
        ("base cp2\nline L = H\nblowup on L L\n", 3, "line name 'L' is repeated"),
        ("base cp2\nblowdown\n", 2, "expected 'blowdown <name>'"),
        ("base cp2\nblowdown Z\n", 2, "unknown line name 'Z'"),
        ("base cp2\nminimal-model now\n", 2, "takes no arguments"),
        ("# nothing\n\n", 2, "script is empty"),
    ],
)
def test_script_errors_carry_line_numbers(script, line_no, fragment):
    with pytest.raises(ScriptError) as exc:
        run_script(script)
    assert exc.value.line_no == line_no
    assert fragment in str(exc.value)
    assert str(exc.value).startswith(f"line {line_no}:")


def test_script_keywords_ignore_case():
    # every name in TWO_POINTS is already upper case, so only keywords change
    assert run_script(TWO_POINTS.upper()).reports == run_script(TWO_POINTS).reports


def test_script_rejects_overlong_coefficient():
    with pytest.raises(ScriptError) as exc:
        run_script(f"base cp2\nline L = {'7' * 5000}H\n")
    assert exc.value.line_no == 2
    assert exc.value.bare_message == "coefficient of 'H' is too long (5000 digits)"


# numbers outside the script grammar, which takes ASCII digits only; int()
# would read all but the last
_MISSPELT_NUMBERS = [
    ("base hirzebruch 1_0\n", 1, "bad Hirzebruch index '1_0'"),
    ("base hirzebruch \u0663\n", 1, "bad Hirzebruch index '\u0663'"),
    ("base hirzebruch +3\n", 1, "bad Hirzebruch index '+3'"),
    ("base cp2\nblowup\nline L = \u0662H - E1\n", 3, "cannot read class expression at '\u0662H - E1'"),
    ("base cp2\nblowup\nline L = H - 1_0E1\n", 3, "cannot read class expression at '- 1_0E1'"),
]


@pytest.mark.parametrize("script, line_no, message", _MISSPELT_NUMBERS)
def test_script_numbers_are_ascii_digits(script, line_no, message):
    with pytest.raises(ScriptError) as exc:
        run_script(script)
    assert exc.value.line_no == line_no
    assert exc.value.bare_message == message


@pytest.mark.parametrize("script, line_no, message", _MISSPELT_NUMBERS)
def test_cli_rational_misspelt_number_exits_1(capsys, tmp_path, script, line_no, message):
    f = tmp_path / "digits.srf"
    f.write_text(script, encoding="utf-8")
    assert main(["rational", str(f)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: line {line_no}: {message}\n"


def test_script_negative_index_is_reported_as_negative():
    with pytest.raises(ScriptError) as exc:
        run_script("base hirzebruch -2\n")
    assert exc.value.bare_message == "Hirzebruch index must be non-negative"
    assert run_script("base hirzebruch 03\n").surface.base == BaseSurface.hirzebruch(3)


_SCRIPT_ARGS = ["cp2", "CP2", "hirzebruch", "on", "ON", "0", "1", "-1", "x", "H", "E1", "S", "L", "="]
_EXPR_TERMS = ["H", "E1", "- E2", "+ 2E1", "S", "+ F", "- 3*F", "Q", "+", "7" * 4400 + "H"]
_SCRIPT_LINE = st.one_of(
    st.builds(
        " ".join,
        st.tuples(
            st.sampled_from(
                ["base", "BASE", "blowup", "BlowUp", "line", "blowdown", "minimal-model",
                 "report", "wobble"]
            ),
            st.lists(st.sampled_from(_SCRIPT_ARGS), max_size=6).map(" ".join),
        ),
    ),
    st.builds(
        "{} {} = {}".format,
        st.sampled_from(["line", "LINE"]),
        st.sampled_from(["L", "M", "E1"]),
        st.lists(st.sampled_from(_EXPR_TERMS), max_size=4).map(" ".join),
    ),
    st.text(max_size=12),
)


@given(
    st.sampled_from(["base cp2", "base hirzebruch 0", "base hirzebruch 1", "base hirzebruch 3", ""]),
    st.lists(_SCRIPT_LINE, max_size=8),
)
@settings(max_examples=400)
def test_run_script_raises_only_surfclass_errors(first, lines):
    try:
        run_script("\n".join([first, *lines]))
    except SurfclassError:
        pass


def test_script_rejects_contracting_plus_one_line():
    with pytest.raises(ScriptError) as exc:
        run_script("base cp2\nline L = H\nblowdown L\n")
    assert exc.value.bare_message == (
        "L is a +1 line, not -1 (self-intersection 1, K-degree -3)"
    )


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def test_cli_classify_human(capsys):
    assert main(["classify", "a b a' b'"]) == 0
    out = capsys.readouterr().out
    assert "word: a b a' b'" in out
    assert "type: orientable genus 1 (torus), χ=0" in out
    assert "canonical: a1 b1 a1' b1'" in out


def test_cli_classify_json(capsys):
    assert main(["classify", "a a b b", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {
        "type": "NonOrientable(2)",
        "genus": 0,
        "crosscaps": 2,
        "euler": 0,
        "canonical": "a1 a1 a2 a2",
    }


def test_cli_classify_rejects_bad_word(capsys):
    assert main(["classify", "a b"]) == 1
    assert "symbol a occurs once" in capsys.readouterr().err


def test_cli_normalize_plain(capsys):
    assert main(["normalize", "a b b' a'"]) == 0
    out = capsys.readouterr().out
    assert "type: sphere, χ=2" in out
    assert "moves:" in out


def test_cli_normalize_trace_roundtrip(capsys, tmp_path):
    assert main(["normalize", "a a b b c c'", "--trace"]) == 0
    lines = capsys.readouterr().out.splitlines()
    header = [l for l in lines if l.startswith("#")]
    assert any(l.startswith("# initial: a a b b c c'") for l in header)
    assert any(l.startswith("# type: non-orientable, 2 cross-caps") for l in header)
    tracefile = tmp_path / "moves.txt"
    tracefile.write_text("\n".join(lines) + "\n", encoding="utf-8")
    # the emitted document replays against the initial word as-is
    assert main(["replay", "a a b b c c'", str(tracefile), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["type"] == "NonOrientable(2)"
    assert payload["canonical"] == "a1 a1 a2 a2"


def test_cli_normalize_trace_json(capsys):
    assert main(["normalize", "a a'", "--trace", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["type"] == "Sphere"
    assert isinstance(payload["trace"], list)


def test_cli_sum(capsys):
    assert main(["sum", "a a", "b b"]) == 0
    out = capsys.readouterr().out
    assert "type: non-orientable, 2 cross-caps (Klein bottle), χ=0" in out
    assert main(["sum", "a a", "b b", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["type"], payload["crosscaps"], payload["euler"]) == ("NonOrientable(2)", 2, 0)


def test_cli_glue(capsys, tmp_path):
    f = tmp_path / "polys.txt"
    f.write_text("# two triangles along shared edges\na b c\na' b' c'\n", encoding="utf-8")
    assert main(["glue", str(f)]) == 0
    out = capsys.readouterr().out
    assert "polygons: 2" in out
    assert "type: orientable genus 1 (torus), χ=0" in out
    assert main(["glue", str(f), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["euler"] == 0 and payload["genus"] == 1


def test_cli_replay_exit_codes(capsys, tmp_path):
    bad_syntax = tmp_path / "bad.txt"
    bad_syntax.write_text("rotate one\n", encoding="utf-8")
    assert main(["replay", "a a'", str(bad_syntax)]) == 1
    assert "trace line 1" in capsys.readouterr().err

    corrupt = tmp_path / "corrupt.txt"
    corrupt.write_text("rename q r\n", encoding="utf-8")
    # parses fine, fails mid-replay: an internal-consistency failure, code 2
    assert main(["replay", "a a'", str(corrupt)]) == 2
    assert "step 1" in capsys.readouterr().err


def test_cli_unpaired_word_is_bad_input_for_every_word_command(capsys, tmp_path):
    # replay checks its word before reading the trace, so an unpaired word
    # exits 1 there as it does for classify, normalize and sum
    empty = tmp_path / "empty.txt"
    empty.write_text("", encoding="utf-8")
    for argv in (["replay", "a b", str(empty)], ["classify", "a b"],
                 ["normalize", "a b"], ["sum", "a b", "c c"]):
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: symbol a occurs once; symbol b occurs once\n"


def test_cli_glue_syntax_error_names_line_then_position(capsys, tmp_path):
    f = tmp_path / "polys.txt"
    f.write_text("a b c\n# comment\na b' c!\n")
    assert main(["glue", str(f)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 3: syntax error at position 7: unexpected character '!'\n"


def test_cli_missing_file(capsys, tmp_path):
    assert main(["glue", str(tmp_path / "nope.txt")]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_rational_json(capsys, tmp_path):
    f = tmp_path / "two_points.srf"
    f.write_text(TWO_POINTS, encoding="utf-8")
    assert main(["rational", str(f), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["lattice"]["gram"] == [[0, 1], [1, 0]]
    assert payload["lattice"]["canonical"] == [-2, -2]
    assert payload["lattice"]["tracked"]["E1"] == [0, 1]
    assert payload["k_squared"] == 8
    assert payload["b2"] == 2
    assert payload["euler"] == 4
    assert "minimal" not in payload  # no minimal-model statement in script


def test_cli_rational_minimal_fields(capsys, tmp_path):
    f = tmp_path / "reduce.srf"
    f.write_text("base cp2\nblowup\nblowup\nminimal-model\n", encoding="utf-8")
    assert main(["rational", str(f), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["minimal"] == "CP2"
    assert payload["steps"] == [
        {"line": "E1", "class": [0, 1, 0]},
        {"line": "E2", "class": [0, 1]},
    ]
    assert main(["rational", str(f)]) == 0
    human = capsys.readouterr().out
    assert "contract E1" in human and "minimal model: CP2" in human


def test_cli_rational_human_matches_json(capsys, tmp_path):
    f = tmp_path / "h3.srf"
    f.write_text("base hirzebruch 3\nblowup\nreport\n", encoding="utf-8")
    assert main(["rational", str(f)]) == 0
    human = capsys.readouterr().out
    assert main(["rational", str(f), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert f"K^2 = {payload['k_squared']}" in human
    assert f"b2 = {payload['b2']}" in human
    assert f"chi = {payload['euler']}" in human
    # with no report and no minimal-model statement, the final lattice is
    # reported
    f.write_text("base hirzebruch 3\nblowup\n", encoding="utf-8")
    assert main(["rational", str(f)]) == 0
    assert capsys.readouterr().out == render_report(run_script(f.read_text()).surface) + "\n"


def test_cli_rational_error_line(capsys, tmp_path):
    f = tmp_path / "bad.srf"
    f.write_text("base cp2\nblowup\nblowdown H\n", encoding="utf-8")
    assert main(["rational", str(f)]) == 1
    err = capsys.readouterr().err
    assert "line 3:" in err
    assert "H is a +1 line, not -1" in err


def test_cli_rational_overlong_coefficient_exits_1(capsys, tmp_path):
    f = tmp_path / "long.srf"
    f.write_text(f"base cp2\nline L = {'1' * 5000}H\n", encoding="utf-8")
    assert main(["rational", str(f)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: line 2:")


def test_cli_rational_rejects_repeated_line(capsys, tmp_path):
    f = tmp_path / "twice.srf"
    f.write_text("base cp2\nblowup\nblowup on H E1 H\n", encoding="utf-8")
    assert main(["rational", str(f)]) == 1
    err = capsys.readouterr().err
    assert "line 3:" in err
    assert "line name 'H' is repeated" in err


# ---------------------------------------------------------------------------
# the exit-code contract under random command lines


_COMMANDS = ["classify", "normalize", "sum", "glue", "replay", "rational"]
_DOCUMENTS = [
    TWO_POINTS,
    "base hirzebruch 1\nblowup on S\nminimal-model\nreport\n",
    "a b c\na' b' c'\n",
    "# comment\nrotate 1\nreflect\n",
    "rename q r\n",  # parses, then fails mid-replay: exit 2
]
_FILE_BYTES = st.one_of(
    st.sampled_from(_DOCUMENTS).map(str.encode),
    st.text(max_size=40).map(str.encode),
    st.binary(max_size=40),
)
# FILE0 and FILE1 name the drawn files, MISSING a file that does not exist,
# DIR a directory
_FILE = st.sampled_from(["FILE0", "FILE0", "FILE1", "MISSING", "DIR"])
_WORD = st.one_of(
    words(max_pairs=4).map(lambda w: w.render()),
    st.sampled_from(["a a'", "a b a' b'", "a a b b", "a a a", "a b"]),
    st.text(max_size=12),
)
_ARG = st.one_of(
    st.sampled_from(_COMMANDS + ["bogus", "--json", "--trace", "--stats", "-x", "", "--"]),
    _FILE,
    _WORD,
)
# each command with the positional arguments it takes, then flags
_SHAPES = {
    "classify": [_WORD], "normalize": [_WORD], "sum": [_WORD, _WORD],
    "glue": [_FILE], "replay": [_WORD, _FILE], "rational": [_FILE],
}
_FLAGS = st.lists(st.sampled_from(["--json", "--trace"]), max_size=2, unique=True)
_ARGV = st.one_of(
    *[
        st.builds(lambda c, args, flags: [c, *args, *flags], st.just(c), st.tuples(*shape), _FLAGS)
        for c, shape in _SHAPES.items()
    ],
    st.builds(lambda c, rest: [c, *rest], st.sampled_from(_COMMANDS), st.lists(_ARG, max_size=4)),
    st.lists(_ARG, max_size=5),
)


def _run_main(argv):
    """(return code or None, SystemExit code or None, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    code = exit_code = None
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            exit_code = e.code
    return code, exit_code, out.getvalue(), err.getvalue()


@given(_ARGV, _FILE_BYTES, _FILE_BYTES)
@settings(max_examples=300)
def test_cli_exit_code_contract(argv, data0, data1):
    # 0 success, 1 bad input, 2 only from ReplayError or
    # InternalInvariantError; argparse usage errors exit 2 with a usage
    # message, --help exits 0; no other exception escapes main
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"FILE0": Path(tmp) / "f0", "FILE1": Path(tmp) / "f1",
                 "MISSING": Path(tmp) / "missing", "DIR": Path(tmp)}
        paths["FILE0"].write_bytes(data0)
        paths["FILE1"].write_bytes(data1)
        argv = [str(paths[a]) if a in paths else a for a in argv]
        code, exit_code, out, err = _run_main(argv)
        if code is None:
            if exit_code == 0:
                assert out.startswith("usage:"), argv
            else:
                assert exit_code == 2, argv
                assert err.startswith("usage:"), argv
            return
        assert code in (0, 1, 2), argv
        if code:
            assert err.startswith("error: "), argv
        if code == 2:
            args = build_parser().parse_args(argv)
            with redirect_stdout(io.StringIO()), pytest.raises(
                (ReplayError, InternalInvariantError)
            ):
                args.func(args)


@pytest.mark.parametrize("argv", [[], ["classify"], ["bogus"]])
def test_cli_usage_errors_exit_2(argv):
    code, exit_code, out, err = _run_main(argv)
    assert (code, exit_code, out) == (None, 2, "")
    assert err.startswith("usage: surfclass")


def test_cli_undecodable_file_exits_1(tmp_path):
    f = tmp_path / "latin1.srf"
    f.write_bytes(b"base cp2\n# caf\xe9\n")
    for command in ("glue", "rational"):
        code, exit_code, out, err = _run_main([command, str(f)])
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "utf-8" in err


@pytest.mark.parametrize("argv", [["glue", "\x00"], ["rational", "\x00"], ["replay", "a a'", "\x00"]])
def test_cli_nul_byte_in_file_argument_exits_1(argv):
    # open() rejects such a path with ValueError, not OSError
    code, exit_code, out, err = _run_main(argv)
    assert (code, exit_code, out) == (1, None, "")
    assert err == "error: embedded null byte: '\\x00'\n"


_ROOT = Path(__file__).resolve().parent.parent


def _run_python(*args):
    """A child interpreter that imports surfclass from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(_ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=60,
    )


def _run_repo_script(name, *args):
    return _run_python(str(_ROOT / "scripts" / name), *args)


def test_orbit_census_script_runs():
    proc = _run_repo_script("orbit_census.py", "--symbols", "a,b")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "orbit partition matches type classes"


def test_orbit_census_prints_an_uncertified_word_and_fails(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("orbit_census", _ROOT / "scripts" / "orbit_census.py")
    census = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(census)
    # a trace that replays to the word it started from certifies no word
    # over {a}, as none is spelled with the canonical name a1
    monkeypatch.setattr(census, "replay", lambda trace: trace.initial)
    assert census.main(["--symbols", "a", "--skip-orbits"]) == 1
    out = capsys.readouterr().out
    assert "\"a a'\": normalized to Sphere, invariants give Sphere, trace ends on \"a a'\"" in out
    assert "3 cyclic words over {a}, 2 surface types, 0 certified" in out


# 1,000 construction scripts of 8/16/24 blow-ups over CP2 and F0-F3, half
# of them with points on tracked lines, run in one interpreter; prints how
# far the peak resident set grew, in bytes, past import and generation
_RSS_CHILD = """
import random, resource, sys
from surfclass.script import run_script

rng = random.Random(7)
bases = ("cp2", "hirzebruch 0", "hirzebruch 1", "hirzebruch 2", "hirzebruch 3")
scripts = []
for k in range(1000):
    base = bases[k % len(bases)]
    names = ["H"] if base == "cp2" else ["S", "F"]
    lines = ["base " + base]
    for e in range(1, (8, 16, 24)[k % 3] + 1):
        if k % 2 and rng.random() < 0.6:
            lines.append("blowup on " + " ".join(rng.sample(names, min(len(names), rng.choice((1, 2))))))
        else:
            lines.append("blowup")
        names.append("E%d" % e)
    scripts.append("\\n".join(lines + ["minimal-model", "report"]) + "\\n")
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
for text in scripts:
    run_script(text)
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print((after - before) * (1 if sys.platform == "darwin" else 1024))
"""


def test_run_script_peak_rss_stays_flat():
    # the peak resident set of a long in-process run of scripts must not
    # grow with the number of scripts: a regression of the allocation
    # pattern on the lattice path shows here before a benchmark run
    pytest.importorskip("resource")
    proc = _run_python("-c", _RSS_CHILD)
    assert proc.returncode == 0, proc.stderr
    grown = int(proc.stdout)
    assert grown < 2 * 2**20, f"peak RSS grew {grown / 2**20:.2f} MiB over 1,000 scripts"


def _perfbench_smoke_run(workload):
    # one traced second of a workload: the tracer looks up every layer it
    # wraps by name, so a renamed layer fails here
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=root, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0


def test_perfbench_lattice_smoke_run():
    _perfbench_smoke_run("lattice-scripts")


def test_perfbench_edgeword_smoke_run():
    _perfbench_smoke_run("edgeword-long")
