import gc
import io
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

import spokeseq
from spokeseq import cli, hfp
from spokeseq.cli import main, parse_report
from spokeseq.errors import ConfigError
from spokeseq.grading import TriDegree


def run_cli(args, tmp_path=None):
    """Invoke main() in-process, capturing stdout."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(args)
    return code, buf.getvalue()


def test_mk_table():
    code, out = run_cli(["mk", "--p", "3", "--k-max", "12"])
    assert code == 0
    rows = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert rows[0] == "k | formula | oracle | match"
    assert len(rows) == 14  # header + 13 rows
    assert all(r.endswith("yes") for r in rows[1:])


def test_check_sthh():
    code, out = run_cli(["check", "--preset", "sthh", "--p", "3"])
    assert code == 0
    assert "coassociativity" in out and "FAIL" not in out


def test_pi_hfp_dimensions():
    code, out = run_cli(["pi-hfp", "--p", "3", "--window", "0:2:-2:0", "--variant", "a_free"])
    assert code == 0
    assert "0+0@ | 1 | 1" in out
    assert "1-1@ | 1 | us" in out


def test_ext_routes_agree():
    args = ["ext", "--p", "3", "--n", "1", "--window", "-3:2:-3:3", "--s-max", "2"]
    code1, out1 = run_cli(args + ["--route", "resolution"])
    code2, out2 = run_cli(args + ["--route", "cobar"])
    assert code1 == code2 == 0
    body1 = [l.split("|")[:3] for l in out1.splitlines() if l and not l.startswith("#")]
    body2 = [l.split("|")[:3] for l in out2.splitlines() if l and not l.startswith("#")]
    assert body1 == body2


def test_config_error_exit_code():
    code, _ = run_cli(["segal", "--p", "4"])
    assert code == 2


def test_window_error_exit_code():
    code, _ = run_cli(["segal", "--p", "3", "--window", "0:3:0:3"])
    assert code == 3


def test_segal_window_without_origin_is_a_window_error():
    # without 0+0@ the verdict would miss the a-line it looks for and print false
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run_cli(
            ["segal", "--p", "3", "--n-max", "2", "--window", "-1:0:-2:-2", "--s-max", "1"]
        )
    assert code == 3
    assert out == ""
    assert err.getvalue().startswith("[E_WINDOW] window must contain 0+0@")


def test_bad_window_syntax():
    code, _ = run_cli(["ext", "--p", "3", "--window", "1:2:3"])
    assert code == 2


def test_equal_windows_print_equal_reports():
    # the header prints the canonical window, whatever the spelling
    outs = set()
    for window in ("0:0:-1:0", "+0:+0:-1:+0", " 0:0:-1:0", "-0:0:-1:-0"):
        code, out = run_cli(["ext", "--p", "3", "--window", window, "--s-max", "0"])
        assert code == 0, window
        outs.add(out)
    assert len(outs) == 1
    assert "# window = 0:0:-1:0\n" in outs.pop()


@pytest.mark.parametrize("window", ["\u0663:4:0:0", "0_0:0:-1:0", "0: 0:-1:0", "0x0:0:0:0"])
def test_window_parts_must_be_ascii_integers(window):
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run_cli(["ext", "--p", "3", "--window", window, "--s-max", "0"])
    assert code == 2
    assert out == ""
    assert err.getvalue().startswith("[E_CONFIG] bad window syntax")


def test_large_negative_exponent_is_computed():
    # psi(ul^-1050) squares the one inverse of psi(ul); l = -1050 is 0 mod 3,
    # so the class is primitive
    code, out = run_cli(
        ["ext", "--p", "3", "--n", "1", "--window", "-2100:-2100:2100:2100", "--s-max", "0"]
    )
    assert code == 0
    assert "0 | -2100+2100@ | 1 | ul^-1050" in out.splitlines()


def test_segal_negative_window_parsing_and_files(tmp_path):
    out_dir = tmp_path / "runs"
    code, out = run_cli(
        [
            "segal", "--p", "3", "--n-max", "2",
            "--window", "-6:1:-8:8", "--s-max", "3",
            "--out", str(out_dir),
        ]
    )
    # small window: not stabilized is acceptable; parsing and files matter here
    assert code in (0, 1)
    assert (out_dir / "segal.txt").exists()
    assert (out_dir / "segal.txt").read_text() == out


def test_report_headers_embed_config():
    code, out = run_cli(["mk", "--p", "5", "--k-max", "3"])
    assert code == 0
    assert "# p = 5" in out and "# command = mk" in out
    # one line per accepted setting except --out
    assert set(cli.parse_report(out)[0]) == {"command", "k_max", "p"}


def test_svg_output(tmp_path):
    code, _ = run_cli(
        ["may", "--p", "3", "--n", "1", "--window", "-3:2:-3:3",
         "--s-max", "2", "--svg", "--out", str(tmp_path)]
    )
    assert code == 0
    svg = (tmp_path / "may-page1.svg").read_text()
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    assert "<circle" in svg
    # empty window chart still renders axes
    code, _ = run_cli(
        ["pi-hfp", "--p", "3", "--window", "3:4:1:2", "--svg", "--out", str(tmp_path)]
    )
    assert code == 0
    empty = (tmp_path / "pi-hfp.svg").read_text()
    assert "<line" in empty and "<circle" not in empty


def test_unwritable_out_is_a_config_error_and_prints_no_report():
    # /dev/null is a file, so no directory can be made under it
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run_cli(
            ["ext", "--p", "3", "--n", "1", "--window", "0:0:0:0", "--out", "/dev/null/x"]
        )
    assert code == 2
    assert out == ""
    assert err.getvalue().startswith("[E_CONFIG] cannot write /dev/null/x/ext.txt")


def test_unwritable_svg_is_a_config_error(tmp_path):
    # the report is written; the chart's path is taken by a directory
    (tmp_path / "pi-hfp.svg").mkdir()
    err = io.StringIO()
    with redirect_stderr(err):
        code, _ = run_cli(
            ["pi-hfp", "--p", "3", "--window", "3:4:1:2", "--svg", "--out", str(tmp_path)]
        )
    assert code == 2
    assert (tmp_path / "pi-hfp.txt").exists()
    assert err.getvalue().startswith("[E_CONFIG] cannot write ")


def test_byte_identical_on_repeat():
    # pi-hfp's second run answers from the enumerator memo of the presentation
    # its first run built; the others check that nothing else a run leaves
    # behind in the interpreter changes the next one
    hfp.variant_presentation.cache_clear()
    for args in (
        ["ext", "--p", "3", "--n", "1", "--window", "-5:3:-5:5", "--s-max", "3"],
        ["ext", "--p", "3", "--n", "1", "--window", "-3:2:-3:3", "--s-max", "2",
         "--route", "cobar"],
        ["ext", "--p", "3", "--stabilize", "--n-max", "2", "--window", "-3:2:-3:3",
         "--s-max", "2"],
        ["check", "--preset", "sthh", "--p", "3", "--window", "-4:4:-5:5"],
        ["pi-hfp", "--p", "5", "--window", "-4:4:-5:5"],
    ):
        first = run_cli(args)
        assert first[0] == 0
        assert run_cli(args) == first


@pytest.mark.parametrize(
    "query",
    [
        "segal --p 3 --n-max 3 --window -6:1:-8:8 --s-max 4",
        "ext --p 3 --n 2 --window -10:6:-12:12 --s-max 4",
        "ext --route cobar --p 3 --n 2 --window -1:0:-1:0 --s-max 2",
        "ext --route resolution --p 3 --n 2 --window -1:0:-1:0 --s-max 2",
        "mk --p 5 --k-max 6",
        "may --p 3 --n 1 --window -2:1:-2:2 --svg",
        "check --preset truncated --p 5 --n 2",
    ],
)
def test_a_repeated_query_leaves_no_cyclic_garbage(query, tmp_path):
    # every enumeration is a loop, not a closure that calls itself, so a
    # query leaves no reference cycles behind: the cycle collector has
    # nothing to find, and no full collection lands in a later query
    args = query.split() + (["--out", str(tmp_path)] if "--svg" in query else [])
    assert run_cli(args)[0] == 0  # the first run builds the parser and caches
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        assert run_cli(args)[0] == 0
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()


# the settings each subcommand reads, so the flags it must accept
ACCEPTED = {
    "pi-hfp": {"p", "window", "variant", "out", "svg"},
    "ext": {"p", "n", "n_max", "window", "s_max", "beta", "beta_prime", "route",
            "stabilize", "out"},
    "may": {"p", "n", "window", "s_max", "beta", "beta_prime", "out", "svg"},
    "segal": {"p", "n_max", "window", "s_max", "beta", "beta_prime", "disable_d1", "out"},
    "mk": {"p", "k_max", "out"},
    "check": {"p", "n", "window", "beta", "beta_prime", "preset", "out"},
}
# a valid value per flag (None: a switch); threads was a flag of every command
VALUES = {
    "p": "3", "n": "2", "n_max": "2", "window": "-1:1:-1:1", "s_max": "2",
    "beta": "2", "beta_prime": "2", "variant": "a_free", "route": "cobar",
    "stabilize": None, "disable_d1": None, "k_max": "2", "preset": "geometric",
    "out": "reports", "svg": None, "threads": "2",
}


def flag_argv(key):
    value = VALUES[key]
    return ["--" + key.replace("_", "-")] + ([] if value is None else [value])


def test_each_command_accepts_exactly_the_flags_it_reads():
    accepted = {}
    for command in cli.COMMANDS:
        accepted[command] = set()
        for key in VALUES:
            try:
                cli.build_parser().parse_args([command] + flag_argv(key))
            except ConfigError:
                continue
            accepted[command].add(key)
    assert accepted == ACCEPTED
    assert sum(map(len, accepted.values())) == 41


REJECTED = [
    [command] + flag_argv(key)
    for command in ACCEPTED
    for key in VALUES
    if key not in ACCEPTED[command]
] + [
    ["ext", "--p", "x"],
    ["mk", "--k-max", "2.5"],
    ["ext", "--route", "bogus"],
    ["check", "--preset", "bogus"],
    ["ext", "--p"],
    ["bogus"],
    [],
    # values a command cannot use: stabilization compares consecutive heights
    ["segal", "--p", "3", "--n-max", "1"],
    ["segal", "--p", "3", "--n-max", "0"],
    ["segal", "--p", "3", "--n-max", "-2"],
    ["ext", "--p", "3", "--stabilize", "--n-max", "1"],
    ["mk", "--p", "3", "--k-max", "-1"],
]


@pytest.mark.parametrize("args", REJECTED, ids=lambda args: " ".join(args) or "no-arguments")
def test_rejected_arguments_are_coded_config_errors(args):
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run_cli(args)
    assert code == 2 and out == ""
    assert err.getvalue().startswith("[E_CONFIG] ")
    assert "usage:" not in err.getvalue()


# tiny windows, valid or not, so that every drawn run is fast
FUZZ_VALUES = {
    "p": ["3", "2", "4", "9", "1", "0", "-3", "x"],
    "n": ["1", "0", "-1", "1.5"],
    "n_max": ["2", "1", "0", "-2"],
    "window": ["0:0:0:0", "-1:0:-1:0", "-1:1:-1:1", "1:1:1:1", "2:1:0:0", "0:0:1:0",
               "1:2:3", "a:b:c:d", "0:0:0:0:0", ""],
    "s_max": ["1", "0", "-1", "two"],
    "beta": ["1", "2", "3", "0", "6"],
    "beta_prime": ["1", "2", "3", "-3"],
    "variant": ["a_free", "spoke_suspension", "bogus"],
    "route": ["resolution", "cobar", "bogus"],
    "stabilize": [None],
    "disable_d1": [None],
    "k_max": ["2", "0", "-1"],
    "preset": ["sthh", "truncated", "bogus"],
    "bogus": [None, "1"],
    "threads": ["2"],
}


@st.composite
def cli_arguments(draw):
    """A command with a few flags drawn from FUZZ_VALUES: flags it reads and
    flags it does not, unknown ones included.  A command that reads
    --window, --s-max or --k-max always gets one, so that no run falls back
    to a default sized for real work."""
    command = draw(st.sampled_from(sorted(cli.COMMANDS) + ["bogus"]))
    keys = set(draw(st.lists(st.sampled_from(sorted(FUZZ_VALUES)), max_size=4)))
    keys |= {"window", "s_max", "k_max"} & ACCEPTED.get(command, set())
    args = [command]
    for key in sorted(keys):
        value = draw(st.sampled_from(FUZZ_VALUES[key]))
        args += ["--" + key.replace("_", "-")] + ([] if value is None else [value])
    return args


def run_cli_with_stderr(args):
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run_cli(args)
    return code, out, err.getvalue()


@settings(max_examples=60, deadline=None)
@given(cli_arguments())
def test_every_argument_list_ends_in_a_coded_exit(args):
    code, out, err = run_cli_with_stderr(args)  # nothing may raise out of main
    assert code in (0, 1, 2, 3, 4), args
    if code >= 2:
        assert err.startswith("[E_"), (args, err)
        assert out == "", args
    # the process keeps one parser: a second run answers as the first did
    assert run_cli_with_stderr(args) == (code, out, err), args


# a flag given to a path of its command that does not read it
IGNORED_ON_PATH = [
    (["ext", "--p", "3", "--stabilize", "--n", "2"], "--n"),
    (["ext", "--p", "3", "--stabilize", "--route", "cobar"], "--route"),
    (["ext", "--p", "3", "--n-max", "2"], "--n-max"),
    (["check", "--preset", "geometric", "--p", "3", "--n", "2"], "--n"),
    (["check", "--preset", "geometric", "--p", "3", "--beta", "2"], "--beta"),
    (["check", "--preset", "geometric", "--p", "3", "--beta-prime", "2"], "--beta-prime"),
    (["check", "--preset", "sthh", "--p", "3", "--n", "2"], "--n"),
]


@pytest.mark.parametrize(
    "args, flag", IGNORED_ON_PATH, ids=[" ".join(args) for args, _ in IGNORED_ON_PATH]
)
def test_flags_a_path_ignores_are_coded_config_errors(args, flag):
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run_cli(args)
    assert code == 2 and out == ""
    assert err.getvalue().startswith("[E_CONFIG] ")
    assert err.getvalue().rstrip().endswith(f"does not read {flag}")


def test_error_queries_answer_the_same_on_a_second_pass():
    # main parses every query with the one parser the process builds, so no
    # query may leave parser state behind: the error queries, run twice in
    # turn, give the same exits, reports and messages both times
    cli.build_parser.cache_clear()
    assert cli.build_parser() is cli.build_parser()
    queries = REJECTED + [args for args, _ in IGNORED_ON_PATH]
    first = [run_cli_with_stderr(args) for args in queries]
    assert [run_cli_with_stderr(args) for args in queries] == first
    assert {code for code, _, _ in first} == {2}


def test_flags_a_path_reads_are_accepted():
    # the same flags on the paths that read them, and the ignored ones left
    # at their defaults
    for args in (
        ["check", "--preset", "truncated", "--p", "3", "--n", "1", "--beta", "2",
         "--window", "-1:1:-1:1"],
        ["check", "--preset", "sthh", "--p", "3", "--beta", "2", "--window", "-1:1:-1:1"],
        ["ext", "--p", "3", "--n", "1", "--route", "cobar", "--window", "0:0:0:0",
         "--s-max", "1"],
    ):
        code, _ = run_cli(args)
        assert code == 0, args


def test_console_entry_point():
    # the child imports the package this process imported, with or without
    # PYTHONPATH set by the caller
    src = os.path.dirname(os.path.dirname(spokeseq.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "spokeseq.cli", "mk", "--p", "3", "--k-max", "2"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "formula | oracle" in proc.stdout


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # every run pays for its imports: the value types are NamedTuples and
    # plain classes, so start-up compiles no dataclass and loads no inspect
    src = os.path.dirname(os.path.dirname(spokeseq.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = "import sys, spokeseq.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_report_round_trip():
    from spokeseq.cli import parse_report

    code, out = run_cli(["ext", "--p", "3", "--n", "1", "--window", "-3:2:-3:3", "--s-max", "2"])
    assert code == 0
    header, rows = parse_report(out)
    assert header["command"] == "ext" and header["p"] == "3"
    assert all(len(r) == 4 for r in rows)
    # rows carry s | degree | dim | labels and reparse cleanly
    for r in rows:
        int(r[0])
        assert r[1].endswith("@")
        assert int(r[2]) >= 1


def may_rows_up_to(args, s_cap):
    """The page rows of a may report whose tri-degree has s <= s_cap."""
    code, out = run_cli(["may", *args])
    assert code == 0
    _, rows = parse_report(out)
    return [row for row in rows if TriDegree.parse(row[1]).s <= s_cap]


@pytest.mark.parametrize(
    "p, n, window, count",
    [("3", "1", "-2:1:-2:2", 79), ("3", "2", "-4:2:-4:4", 192), ("5", "1", "-2:1:-3:3", 171)],
)
def test_may_rows_up_to_s_max_do_not_depend_on_s_max(p, n, window, count):
    # the rows above --s-max are wrong (README, "Known issue"); the rows at
    # or below it are not, and raising --s-max leaves them unchanged
    args = ["--p", p, "--n", n, "--window", window]
    low = may_rows_up_to(args + ["--s-max", "1"], 1)
    assert len(low) == count
    assert may_rows_up_to(args + ["--s-max", "3"], 1) == low
