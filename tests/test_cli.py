import gc
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from test_degeneration import _BRANCH_BETA, _cubed, effectivity_of_pell_class
from test_render import _fresh_pell_tables

from epwcalc import cli, degeneration, hodge_ring, lagrangian, llv, mukai
from epwcalc.cli import build_parser, run
from epwcalc.qfield import ParametricScalar

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
GOLDEN = Path(__file__).parent / "golden" / "report_all.json"


def _capture(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "epwcalc.cli", *argv],
        capture_output=True, text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_exit_codes(capsys):
    assert run(["euler", "--case", "natural", "--out", "/dev/null"]) == 0
    assert run(["no-such-command"]) == 2
    assert run([]) == 2
    assert run(["ring", "--q", "abc"]) == 2
    assert run(["betti", "--case", "sideways"]) == 2
    assert run(["lagrangian", "--degree=--"]) == 2
    # inputs past their caps (4300 digits, bound 10^1000) are usage errors
    assert run(["ring", "--q", "1e9999999"]) == 2
    assert run(["pell", "--bound", str(10 ** 1000 + 1)]) == 2
    # precondition violations surface as computation errors
    assert run(["ring", "--q", "-1"]) == 1
    assert run(["relations", "--q", "0"]) == 1
    assert run(["relations", "--q", "-4"]) == 1
    assert run(["walls", "--beta", "-1"]) == 1
    assert run(["pell", "--bound", "0"]) == 1
    # a negative fraction is a value, not an unknown option
    assert run(["ring", "--q", "-1/2"]) == 1
    capsys.readouterr()
    # so is a negative value in exponent notation
    for value in ("-5/2", "-15e-1", "-1.5E0"):
        assert run(["walls", "--beta", value]) == 0
        split = capsys.readouterr().out
        assert run(["walls", f"--beta={value}"]) == 0
        assert split == capsys.readouterr().out != ""
    # a value that starts with "-" but is no number is rejected as a value
    for command, option, value in (("ring", "--q", "-inf"), ("ring", "--q", "-nan"),
                                   ("walls", "--beta", "-Infinity")):
        assert run([command, option, value]) == 2
        split = capsys.readouterr().err
        assert run([command, f"{option}={value}"]) == 2
        assert split == capsys.readouterr().err
        assert f"not a rational number: {value!r}" in split
    # a value too long to print is a computation error, not a traceback
    assert run(["ring", "--q", "1" + "0" * 2000]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="no int-to-str digit limit on this interpreter")
@pytest.mark.parametrize("argv, code, last_line", [
    (["ring", "--q", "1e4300"], 2, "epwcalc ring: error: argument --q: numerator or"
                                   " denominator has more than 4300 digits: '1e4300'"),
    (["ring", "--q", "1e2000", "--json"], 1, "error: the answer has more than {limit} digits"
                                             " (the interpreter's int-to-str limit)"),
], ids=["option", "answer"])
def test_an_answer_past_the_digit_limit_is_one_error_line(argv, code, last_line, capsys):
    """A row that ``str`` cannot write (15q^3 at q = 10^2000 has 6002
    digits) is one line of epwcalc's own that states the limit: exit 1,
    nothing on stdout.  An option that long (q = 10^4300 has 4301 digits),
    which the report could not echo, is a usage error: exit 2, the usage
    line and one error line.  A computation error keeps its own text."""
    assert run(argv) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1] == last_line.format(limit=sys.get_int_max_str_digits())
    # exit 1: the error line alone; exit 2: the usage line, then the error line
    assert err.count("\n") == code and err.count("error:") == 1
    assert run(["ring", "--q", "-1"]) == 1
    assert capsys.readouterr() == (
        "", "error: the BBF square of a polarization must be positive\n")


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="no int-to-str digit limit on this interpreter")
@pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
def test_an_f3_note_past_the_digit_limit_is_one_error_line(fmt, capsys):
    """f3 writes comb(g, 3) into a relation note, and at a genus of 1434
    nines that has 4300 digits or more; the request is the digit-limit line,
    not the interpreter's own text: exit 1, nothing on stdout.  At genus 10
    and at 1433 nines it prints its report, whose notes hold the binomials."""
    for digits in (1434, 1500):
        assert run(["f3", "--genus", "9" * digits, *fmt]) == 1
        assert capsys.readouterr() == (
            "", f"error: the answer has more than {sys.get_int_max_str_digits()} digits"
                " (the interpreter's int-to-str limit)\n")
    for genus in (10, int("9" * 1433)):
        assert run(["f3", "--genus", str(genus), *fmt]) == 0
        out = capsys.readouterr().out
        assert f"h^(0,3) = {math.comb(genus, 3)} + dim H^2(W, R)" in out


@pytest.mark.parametrize("argv, broken, code", [
    pytest.param(["report-all"], "stdout", 1, id="report-all"),
    pytest.param(["fujiki"], "stdout", 1, id="fujiki"),
    pytest.param(["--help"], "stdout", 1, id="help"),
    pytest.param(["ring", "--help"], "stdout", 1, id="ring-help"),
    pytest.param(["ring", "--q", "x"], "stderr", 2, id="usage-error"),
])
def test_a_broken_pipe_exits_1_without_a_traceback(argv, broken, code):
    """As in ``epwcalc report-all | true``: the reader of stdout is gone
    before the report or the help is written.  Exit 1 and print nothing,
    and the flush at exit does not raise again (it would print "Exception
    ignored ... BrokenPipeError" and exit 120).  stdout is block-buffered,
    as it is by default for a pipe, and the fujiki report and the help fit
    in its buffer, so only a flush inside ``run`` sees the broken pipe.  A
    usage error whose reader of stderr has gone keeps its exit code 2."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    read, write = os.pipe()
    os.close(read)
    streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, broken: write}
    try:
        proc = subprocess.run([sys.executable, "-m", "epwcalc.cli", *argv],
                              **streams, text=True, env=env)
    finally:
        os.close(write)
    other = proc.stderr if broken == "stdout" else proc.stdout
    assert (proc.returncode, other) == (code, "")


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
def test_a_broken_pipe_leaks_no_file_descriptor(monkeypatch):
    """In process, ``run`` twice with ``sys.stdout`` a text stream over a pipe
    whose reader has gone: each request exits 1 and points the stream at
    ``os.devnull`` through a descriptor that it closes again, so the count
    of open descriptors ends where it started."""
    before = len(os.listdir("/proc/self/fd"))
    for _ in range(2):
        read, write = os.pipe()
        os.close(read)
        with open(write, "w", encoding="utf-8") as stream, monkeypatch.context() as patch:
            patch.setattr(sys, "stdout", stream)
            assert run(["fujiki"]) == 1
    assert len(os.listdir("/proc/self/fd")) == before


def test_a_closed_stdout_is_an_error_not_a_traceback():
    """As in ``epwcalc report-all >&-``: ``sys.stdout`` is None."""
    proc = subprocess.run(["sh", "-c", 'exec "$0" -m epwcalc.cli report-all >&-',
                           sys.executable], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "error: standard output is closed\n"


def test_run_without_stdout(monkeypatch, capsys, tmp_path):
    """In process, with ``sys.stdout`` None: a report for stdout is an
    error, and one for ``--out`` is still written."""
    target = tmp_path / "ring.txt"
    with monkeypatch.context() as patch:
        patch.setattr(sys, "stdout", None)
        codes = run(["report-all"]), run(["ring", "--out", str(target)])
    assert codes == (1, 0)
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: standard output is closed\n")
    assert target.read_text() == _capture(["ring"])[1]


def test_exponent_notation_is_bounded():
    """A rational option may have at most 4300 digits in its numerator and
    in its denominator, the interpreter's default int-to-str limit; an
    exponent past 4300 in magnitude is refused before any ``Fraction`` is
    built."""
    parse = build_parser("ring").parse_args
    assert parse(["ring", "--q", "1.5e3"]).q == 1500
    assert parse(["ring", "--q", "1e4299"]).q == 10 ** 4299
    assert parse(["ring", "--q", "1e-4299"]).q == Fraction(1, 10 ** 4299)
    assert parse(["ring", "--q", "-5e-4300"]).q == Fraction(-1, 2 * 10 ** 4299)
    for value in ("1e4300", "1e-4300", "-1e4300", "0.1e-4300", "0." + "0" * 4299 + "1",
                  "1e4301", "1E-4301", "2.5e9999999"):
        with pytest.raises(SystemExit) as exc:
            parse(["ring", "--q", value])
        assert exc.value.code == 2


def test_pell_bound_is_capped_at_10_to_the_1000():
    parse = build_parser("pell").parse_args
    for bound in (10 ** 6, 10 ** 300, 10 ** 1000, 0):
        assert parse(["pell", "--bound", str(bound)]).bound == bound
    assert parse(["pell"]).bound == 10 ** 6
    for text in (str(10 ** 1000 + 1), str(10 ** 2000), "abc"):
        with pytest.raises(SystemExit) as exc:
            parse(["pell", "--bound", text])
        assert exc.value.code == 2


#: each option's line in ``--help``, whitespace collapsed, and its default
HELP_LINES = {
    "q": ("--q Q BBF square of the polarization (default 4)", 4),
    "degree": ("--degree DEGREE h^3-degree of the fixed locus (default 720)", 720),
    "case": ("--case {natural,opposite} involution action on the non-Verbitsky summand",
             "natural"),
    "beta": ("--beta BETA beta coordinate on the wall branch (default -2)", -2),
    "bound": ("--bound BOUND list solutions with |x| up to this bound (default 10^6,"
              " at most 10^1000)", 10 ** 6),
    "genus": ("--genus GENUS genus of the curve (default 10)", 10),
}


@pytest.mark.parametrize("section", cli._SECTIONS)
def test_each_section_help_names_its_options_with_their_defaults(section, capsys):
    """``<section> --help`` names exactly the options of its ``_SECTIONS``
    entry, besides --help, --json and --out, each with its help text and
    the default it states; parsing no option gives those defaults."""
    options = cli._SECTIONS[section][2]
    assert run([section, "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    assert set(re.findall(r"--([a-z]+)", text)) == {"help", "json", "out", *options}
    for option in options:
        assert HELP_LINES[option][0] in text
    parsed = vars(build_parser(section).parse_args([section]))
    assert {option: parsed[option] for option in options} == {
        option: HELP_LINES[option][1] for option in options}


def test_symprod_and_f3_print_the_same_genus_line(capsys):
    """Both sections take the one --genus option of ``_OPTIONS``."""
    lines = []
    for section in ("symprod", "f3"):
        assert run([section, "--help"]) == 0
        lines += [line for line in capsys.readouterr().out.splitlines() if "--genus GENUS " in line]
    assert lines == ["  --genus GENUS  genus of the curve (default 10)"] * 2


def test_out_to_an_unwritable_path_is_an_error(tmp_path, capsys):
    for argv in (["ring", "--out", str(tmp_path / "no-such-dir" / "x")],
                 ["report-all", "--out", str(tmp_path)],
                 ["ring", "--out", ""], ["euler", "--out="],
                 # only an in-process argv can carry these: open raises ValueError
                 ["fujiki", "--out", "a\x00b"], ["fujiki", "--out", "\ud800x"]):
        assert run(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


def test_reused_parser_leaks_no_state(tmp_path, capsys):
    assert run(["ring", "--q", "7", "--json"]) == 0
    capsys.readouterr()
    assert run(["ring", "--json"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["params"] == {"q": "4"}
    assert out == _capture(["ring", "--json"])[1]

    target = tmp_path / "ring.txt"
    assert run(["ring", "--out", str(target)]) == 0
    assert run(["ring"]) == 0
    assert capsys.readouterr().out == target.read_text() != ""

    assert run(["lagrangian", "--degree", "72", "--q", "1", "--json"]) == 0
    capsys.readouterr()
    assert run(["lagrangian", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["params"] == {"degree": "720", "q": "4"}
    values = {r["label"]: r["value"] for r in payload["results"]}
    assert values["a (h^3 coefficient)"] == "15/8"


def test_error_goes_to_stderr():
    code, out, err = _capture(["ring", "--q", "-2"])
    assert code == 1
    assert out == ""
    assert "positive" in err


@pytest.mark.parametrize("argv, message", [
    (["walls", "--beta=-4"], "wall points need alpha > 0"),
    (["walls", "--beta=-1/2"], "wall points need alpha > 0"),
    (["walls", "--beta=0"], "wall points need alpha > 0"),
    (["walls", "--beta=-1"], "the wall branch lives at beta < -1"),
    (["symprod", "--genus", "2"], "the calculus needs genus >= 3"),
    (["f3", "--genus", "2"], "the calculus needs genus >= 3"),
])
def test_wall_and_genus_errors_are_one_line(argv, message, capsys):
    """Off the wall branch, and below genus 3, a request exits 1 with
    nothing on stdout and exactly its error line on stderr."""
    assert run(argv) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_json_schema(tmp_path):
    code, out, _ = _capture(["fixed-locus", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"command", "params", "results"}
    assert payload["command"] == "fixed-locus"
    assert payload["params"] == {"degree": "720", "q": "4"}
    for row in payload["results"]:
        assert set(row) == {"label", "value", "paper_anchor"}
        # every reported value is an exact rational in lowest terms
        parsed = Fraction(row["value"])
        assert str(parsed) == row["value"]


def test_reported_reference_values():
    code, out, _ = _capture(["fixed-locus", "--json"])
    values = {r["label"]: r["value"] for r in json.loads(out)["results"]}
    assert values["chi(O)"] == "-130"
    assert values["chi(Omega^1)"] == "470"
    assert values["c1*c2"] == "-3120"
    assert values["K^3"] == "5760"
    assert values["involution case (+1 natural, -1 opposite)"] == "1"
    assert values["hodge symmetry (1=holds)"] == "1"

    code, out, _ = _capture(["lagrangian", "--json"])
    values = {r["label"]: r["value"] for r in json.loads(out)["results"]}
    assert values["a (h^3 coefficient)"] == "15/8"
    assert values["b (h*c2 coefficient)"] == "-5/8"
    assert values["self-intersection of projection"] == "1200"
    assert values["sign convention chi_top/[W]^2"] == "-1"

    code, out, _ = _capture(["relations", "--json"])
    values = {r["label"]: r["value"] for r in json.loads(out)["results"]}
    assert values["c4 -> h^4 coefficient"] == "-10"
    assert values["c4 -> h^2*c2 coefficient"] == "20/3"
    assert values["c2^2 / c4 ratio"] == "5/2"


def test_text_output_mentions_the_values():
    code, out, _ = _capture(["euler", "--case", "opposite"])
    assert code == 0
    assert "chi fixed locus" in out
    assert "-1536" in out


def test_out_writes_the_report(tmp_path):
    target = tmp_path / "report.json"
    assert run(["betti", "--case", "natural", "--json", "--out", str(target)]) == 0
    payload = json.loads(target.read_text())
    values = [r["value"] for r in payload["results"]]
    assert values == ["1", "1", "255", "486"]


def test_custom_parameters_flow_through():
    code, out, _ = _capture(["lagrangian", "--degree", "72", "--q", "1", "--json"])
    payload = json.loads(out)
    assert payload["params"] == {"degree": "72", "q": "1"}
    values = {r["label"]: r["value"] for r in payload["results"]}
    assert values["a (h^3 coefficient)"] == "12"
    assert values["b (h*c2 coefficient)"] == "-1"


def test_pell_lists_solutions():
    code, out, _ = _capture(["pell", "--bound", "2", "--json"])
    values = {r["label"]: r["value"] for r in json.loads(out)["results"]}
    assert values["solution count"] == "6"
    assert values["negative-x effectivity violations"] == "0"
    assert values["x[0]"] == "-2" and values["y[0]"] == "-3"
    assert values["x[5]"] == "2" and values["y[5]"] == "3"


def _violations(bound):
    rows = {label: value for label, value, _ in cli._rows_pell(bound)}
    return rows["negative-x effectivity violations"]


def test_pell_violations_agree_with_the_effectivity_ratio(monkeypatch):
    """The row counts the images (-x, +-y) of the branch with x + y/2 >= 0
    over the integers, as ``effectivity_of_pell_class`` does over the
    rationals: on the Pell solutions, and on a grid of positive points off
    the conic, where the ratio x + y/2 itself is the reference (the conic
    has no violation at all)."""
    for bound in (1, 10 ** 6, 10 ** 300):
        assert _violations(bound) == sum(
            1 for x, y in degeneration.pell_spherical_classes(bound) for sy in (-y, y)
            if effectivity_of_pell_class(-x, sy) >= 0)
    grid = [(x, y) for x in range(1, 7) for y in range(1, 14)]
    _fresh_pell_tables(monkeypatch)  # else bound 1 reads the tables 10^300 filled
    monkeypatch.setattr(degeneration, "pell_spherical_classes", lambda bound: grid)
    assert _violations(1) == sum(
        1 for x, y in grid for sy in (-y, y) if -x + Fraction(sy, 2) >= 0) > 0


def test_import_leaves_out_dataclasses_inspect_typing_and_pathlib():
    """Cold start: importing ``llv`` loads no other ``epwcalc`` module (its
    Euler characteristic 3200 is derived, not read from ``hodge_ring``), and
    importing the CLI loads none of the stdlib modules below.  A successful
    request loads no ``argparse``, ``gettext`` or ``shutil`` either; a usage
    error does load ``argparse``, which writes the message.  ``-S`` skips
    ``site``, whose ``.pth`` files may import ``typing`` or ``pathlib``
    themselves."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import os, sys, epwcalc.llv; "
            "print(*sorted(m for m in sys.modules if m.startswith('epwcalc.')"
            " and m != 'epwcalc.llv')); "
            "import epwcalc.cli; "
            "print(*sorted({'dataclasses', 'inspect', 'typing', 'pathlib'} & set(sys.modules))); "
            "sys.stdout = open(os.devnull, 'w'); "
            "code = epwcalc.cli.run(['report-all', '--json']); "
            "sys.stdout = sys.__stdout__; "
            "print(code, *sorted({'argparse', 'gettext', 'shutil'} & set(sys.modules))); "
            "print(epwcalc.cli.run(['ring', '--q', 'x']), 'argparse' in sys.modules)")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    others_with_llv, stdlib_with_cli, after_success, after_error = proc.stdout.splitlines()
    assert others_with_llv == ""
    assert stdlib_with_cli == ""
    assert after_success == "0"
    assert after_error == "2 True"
    assert "error: argument --q: not a rational number: 'x'" in proc.stderr


def test_report_all_is_byte_deterministic():
    code1, out1, _ = _capture(["report-all", "--json"])
    code2, out2, _ = _capture(["report-all", "--json"])
    assert code1 == code2 == 0
    assert out1 == out2


def test_report_all_matches_golden():
    """Byte-for-byte comparison against the checked-in report."""
    code, out, _ = _capture(["report-all", "--json"])
    assert code == 0
    assert out == GOLDEN.read_text()


def _cold(*args):
    """A fresh ``python`` process with this checkout's ``src`` on its path;
    stdout as bytes, stderr as text."""
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, *args], capture_output=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    return proc.returncode, proc.stdout, proc.stderr.decode()


def test_the_pell_tables_hold_at_most_a_megabyte():
    """The Pell listing's tables keep one str per x, -x, y and -y, shared by
    the text and JSON values, and per format a head per listed value.  A
    fresh process renders ``pell --bound 10^k`` for k = 0..300 in both
    formats; after ``gc.collect()``, what is still allocated since the
    import (tracemalloc) is at most 1.0 MB."""
    code, _, err = _cold("-S", "-c", (
        "import gc, os, sys, tracemalloc\n"
        "import epwcalc.cli\n"
        "sys.stdout = open(os.devnull, 'w')\n"
        "tracemalloc.start()\n"
        "base = tracemalloc.get_traced_memory()[0]\n"
        "for k in range(301):\n"
        "    for fmt in ([], ['--json']):\n"
        "        assert epwcalc.cli.run(['pell', '--bound', str(10 ** k), *fmt]) == 0\n"
        "gc.collect()\n"
        "print(tracemalloc.get_traced_memory()[0] - base, file=sys.stderr)\n"))
    assert code == 0, err
    assert int(err) <= 1_000_000


def test_no_request_leaves_memory_behind():
    """A fresh process grows the Pell tables to ``pell --bound 10^300`` in
    both formats, then runs the first 2000 ``param-sweep`` requests of the
    benchmark stream at seed 0 and 4000 more.  After ``gc.collect()``, what
    the 4000 leave allocated (tracemalloc) is under 16 B a request, and the
    fast parser's table holds at most one entry per section.  Then a usage
    error and a ``--help`` in one section import argparse, and a usage error
    and a ``--help`` in each other section and a bare ``--bogus`` leave
    under 128 KiB allocated: no argparse parser outlives its request."""
    code, _, err = _cold("-S", "-c", (
        "import gc, importlib.util, itertools, os, sys, tracemalloc\n"
        "from epwcalc import cli\n"
        f"spec = importlib.util.spec_from_file_location('workloads', {str(WORKLOADS)!r})\n"
        "workloads = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(workloads)\n"
        "sys.stdout = sys.stderr = open(os.devnull, 'w')\n"
        "for fmt in ([], ['--json']):\n"
        "    assert cli.run(['pell', '--bound', str(10 ** 300), *fmt]) == 0\n"
        "requests = workloads.stream('param-sweep', 0)\n"
        "tracemalloc.start()\n"
        "for argv in itertools.islice(requests, 2000):\n"
        "    assert cli.run(argv) in (0, 1)\n"
        "gc.collect()\n"
        "base = tracemalloc.get_traced_memory()[0]\n"
        "for argv in itertools.islice(requests, 4000):\n"
        "    assert cli.run(argv) in (0, 1)\n"
        "gc.collect()\n"
        "grown = tracemalloc.get_traced_memory()[0] - base\n"
        "assert cli.run(['ring', '--bogus']) == 2 and cli.run(['ring', '--help']) == 0\n"
        "gc.collect()\n"
        "base = tracemalloc.get_traced_memory()[0]\n"
        "for section in [name for name in cli._SECTIONS if name != 'ring']:\n"
        "    assert cli.run([section, '--bogus']) == 2 and cli.run([section, '--help']) == 0\n"
        "assert cli.run(['--bogus']) == 2\n"
        "gc.collect()\n"
        "parsers = tracemalloc.get_traced_memory()[0] - base\n"
        "print(grown, cli._fast_table.cache_info().currsize, parsers, file=sys.__stderr__)\n"))
    assert code == 0, err
    grown, tables, parsers = map(int, err.split())
    assert grown < 16 * 4000
    assert tables <= len(cli._SECTIONS)
    assert parsers < 128 * 1024


def _cold_report_imports() -> list[str]:
    """Every module a cold ``-S`` ``report-all --json`` imports, as ``-X
    importtime`` names them; the report must be the golden one."""
    code, out, err = _cold("-S", "-X", "importtime", "-m", "epwcalc.cli",
                           "report-all", "--json")
    assert code == 0, err
    assert out == GOLDEN.read_bytes()
    return [line.rpartition("|")[2].strip() for line in err.splitlines()
            if line.startswith("import time:")]


def test_a_cold_report_imports_no_json_module():
    """The quoter comes from ``_json``, the C accelerator: ``json`` itself
    would load ``json.decoder`` and ``json.scanner`` with their regexes on
    every cold request."""
    imported = _cold_report_imports()
    assert "_json" in imported
    assert [name for name in imported if name == "json" or name.startswith("json.")] == []


def test_a_cold_report_imports_no_future_module():
    """No src module imports ``__future__``: every annotation names what is
    bound when its ``def`` runs, so postponing them buys nothing, and a cold
    request would load the module for it."""
    imported = _cold_report_imports()
    assert "epwcalc" in imported
    assert "__future__" not in imported


def test_without_json_accelerator_the_report_is_the_same():
    """Where ``_json`` is missing, ``json.encoder`` supplies the quoter
    (its pure-Python one here), and the report does not change."""
    code, out, err = _cold("-S", "-c", (
        "import runpy, sys\n"
        "sys.modules['_json'] = None\n"
        "sys.argv[1:] = ['report-all', '--json']\n"
        "try:\n"
        "    runpy.run_module('epwcalc.cli', run_name='__main__')\n"
        "finally:\n"
        "    print('json.encoder' in sys.modules, file=sys.stderr)\n"))
    assert (code, err) == (0, "True\n")
    assert out == GOLDEN.read_bytes()


@pytest.mark.parametrize("argv", [["report-all", "--json"], ["pell", "--bound", "1000"],
                                  ["pell", "--bound", "1000", "--json"]])
def test_main_without_json_accelerator_writes_the_same_bytes(argv):
    """With ``_json`` blocked before ``epwcalc.cli`` is first imported, the
    import takes its quoter from ``json.encoder``, and ``main`` writes the
    bytes of a normal cold run: the golden report, and the Pell listing in
    both formats."""
    code, out, err = _cold("-S", "-c", (
        "import sys\n"
        "sys.modules['_json'] = None\n"
        "from epwcalc.cli import main\n"
        f"sys.argv[1:] = {argv!r}\n"
        "code = main()\n"
        "print('json.encoder' in sys.modules, file=sys.stderr)\n"
        "sys.exit(code)\n"))
    assert (code, err) == (0, "True\n")
    assert out == _cold("-S", "-m", "epwcalc.cli", *argv)[1]
    if argv[0] == "report-all":
        assert out == GOLDEN.read_bytes()


@pytest.mark.parametrize("section", cli._SECTIONS)
def test_a_cold_process_ends_as_run_in_process(section, capsys):
    """``main`` freezes the heap after ``run`` and changes nothing else: the
    exit code, stdout and stderr of a cold ``-m`` process are ``run``'s."""
    cold = _cold("-m", "epwcalc.cli", section, "--json")
    code = run([section, "--json"])
    out, err = capsys.readouterr()
    assert cold == (code, out.encode(), err)


def test_a_cold_error_keeps_its_code_and_its_one_line():
    """A computation error and a usage error, run cold, keep their exit
    codes (1 and 2) and their lines on stderr."""
    assert _cold("-m", "epwcalc.cli", "ring", "--q", "-1") == (
        1, b"", "error: the BBF square of a polarization must be positive\n")
    code, out, err = _cold("-m", "epwcalc.cli", "ring", "--q", "x")
    assert (code, out) == (2, b"")
    usage, error = err.splitlines()
    assert usage.startswith("usage: epwcalc ring ")
    assert error == "epwcalc ring: error: argument --q: not a rational number: 'x'"


def test_atexit_handlers_run_after_the_report():
    """The process still finalizes: an ``atexit`` handler prints after the
    report, and the exit code is 0.  An exit through ``os._exit`` skips it."""
    code, out, err = _cold("-c", (
        "import atexit, runpy; atexit.register(print, 'atexit ran'); "
        "runpy.run_module('epwcalc.cli', run_name='__main__')"), "fujiki")
    assert (code, err) == (0, "")
    report = cli.Report("fujiki", {}, cli._rows_fujiki()).to_text()
    assert out.decode() == report + "atexit ran\n"


def test_run_freezes_nothing(capsys):
    """Only ``main`` freezes: ``run`` in a process that stays leaves the
    permanent generation as it found it."""
    before = gc.get_freeze_count()
    assert run(["report-all", "--json"]) == 0
    assert gc.get_freeze_count() == before
    capsys.readouterr()


def test_a_cold_report_under_dev_mode_warns_of_nothing():
    """``-X dev`` shows a ResourceWarning and other warnings hidden by
    default, and ``-W error`` makes each one an error."""
    code, out, err = _cold("-X", "dev", "-W", "error", "-m", "epwcalc.cli",
                           "report-all", "--json")
    assert (code, err) == (0, "")
    assert out == GOLDEN.read_bytes()


def test_the_console_script_ends_through_main():
    """``[project.scripts]`` names ``main``, and the callable, imported and
    called as a generated script does, prints the golden report.
    ``tomllib`` is new in 3.11, so the table is read with a regex."""
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    scripts = re.search(r"^\[project\.scripts\]\n(.*?)(?:^\[|\Z)", pyproject, re.M | re.S)
    module, function = re.search(r'^epwcalc\s*=\s*"([\w.]+):(\w+)"\s*$', scripts[1],
                                 re.M).groups()
    assert (module, function) == ("epwcalc.cli", "main")
    code, out, err = _cold("-c", f"import sys; from {module} import {function}; "
                                 f"sys.exit({function}())", "report-all", "--json")
    assert (code, err) == (0, "")
    assert out == GOLDEN.read_bytes()


def test_a_point_where_both_involution_cases_are_admissible(capsys):
    """At q = 213 and degree 272214 both cases admit an eta coefficient:
    fixed-locus cannot pick one and is an error, while lagrangian reports
    the projection and its square only."""
    point = ["--q", "213", "--degree", "272214"]
    assert run(["fixed-locus", *point]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ambiguous") and err.count("\n") == 1
    assert run(["lagrangian", *point, "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)["results"]
    assert [r["label"] for r in rows] == [
        "a (h^3 coefficient)", "b (h*c2 coefficient)", "self-intersection of projection"]
    assert rows[2]["value"] == "1136"


def test_the_opposite_involution_case_at_degree_288_and_q_2(capsys):
    """At (d, q) = (288, 2) the base square 4d^2/(27q^3) = 1536 is -chi_top
    of the opposite action, so the class needs no eta part.  Each number is
    its closed form at K_W = 2h, worked out here from d and q alone:
    c1*c2 = -4d(1 + 1/(3q)), chi(O) = c1*c2/24, chi(Omega^1) =
    chi(O) - chi_top/2 and K^3 = 8d."""
    d, q, chi_top = 288, 2, -1536
    assert 4 * d ** 2 / Fraction(27 * q ** 3) == -chi_top
    c1c2 = -4 * d * (1 + Fraction(1, 3 * q))
    assert (c1c2, c1c2 / 24, c1c2 / 24 - Fraction(chi_top, 2), 8 * d) == (-1344, -56, 712, 2304)
    point = ["--degree", str(d), "--q", str(q), "--json"]
    assert run(["fixed-locus", *point]) == 0
    rows = {r["label"]: r["value"] for r in json.loads(capsys.readouterr().out)["results"]}
    assert rows == {
        "involution case (+1 natural, -1 opposite)": "-1", "eta coefficient": "0",
        "chi_top": "-1536", "c1*c2": "-1344", "chi(O)": "-56", "chi(Omega^1)": "712",
        "c3": "-1536", "K^3": "2304", "hodge symmetry (1=holds)": "1"}
    assert run(["lagrangian", *point]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    rows = {r["label"]: (r["value"], r["paper_anchor"]) for r in results}
    assert rows["[W]^2 (ring value)"][0] == "1536"
    assert rows["chi_top"] == ("-1536", "fixed-locus Euler characteristic (opposite action)")


def test_report_all_walks_the_fixed_locus_once_per_section(monkeypatch, capsys):
    """A warm report-all projects the Lagrangian class once, in the
    lagrangian section: fixed-locus reads its h*c2 pairing and its square as
    degree^k times the single terms built at import, and f3 reads a cache.
    It solves no ring relation: those are solved at import.  It multiplies
    no ring classes and builds no ``ParametricScalar``: the Chern products
    were multiplied out by the first request.  ``evaluate`` serves only the
    integral, Gram-determinant, Chern-number and relation rows (12 calls:
    30 before the Lagrangian values went through the unit pairings, 14
    before the Gram determinant read its entries' pairs, 11 before it
    became one term); every scalar value, those included, is one
    ``pair_at`` (21 calls: 24 before the Gram determinant became one term
    and the fixed-locus numbers stopped evaluating h^3 . [W], which is the
    degree).  The walls rows compute alpha^2 and the two central charges
    once each, and the Kuranishi grid and the walls rows' argument-free
    values were built by the first request, those of the symprod and betti
    rows at import: no Gram matrix, theta map, cube expansion or invariant
    dimension is computed.  The request builds at most 32 ``Fraction``s for
    its 81 rows (39 before the wall ratio became one quotient and the
    symprod rows stayed in the integers; 62 before the walls and symprod
    rows stopped copying ``Fraction``s and expanding the cube; 94 before the
    involution case, the fixed-locus numbers and the Gram determinant were
    computed on integers; Python 3.12 and later build some arithmetic
    results without ``__new__``, so fewer there)."""
    assert run(["report-all", "--json"]) == 0
    capsys.readouterr()
    calls = []
    built = []
    new = Fraction.__new__

    def counted_new(cls, *args, **kwargs):
        built.append(cls)
        return new(cls, *args, **kwargs)

    def count(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    count(ParametricScalar, "__init__")
    count(ParametricScalar, "evaluate")
    count(ParametricScalar, "pair_at")
    count(lagrangian, "project_lagrangian_class")
    count(hodge_ring, "solve_2x2")
    count(lagrangian, "solve_2x2")
    count(degeneration, "wall_alpha_sq")
    count(degeneration, "central_charges")
    count(degeneration, "product")
    count(mukai, "hyperbolic_lattice")
    count(mukai, "theta_map")
    count(cli, "comb")
    count(llv, "invariant_dimension")
    multiply = hodge_ring.multiply
    for module in [m for n, m in sys.modules.items() if n.startswith("epwcalc.")]:
        for name, value in list(vars(module).items()):
            if value is multiply:
                count(module, name)
    monkeypatch.setattr(Fraction, "__new__", counted_new)
    assert run(["report-all", "--json"]) == 0
    fractions_built = len(built)
    monkeypatch.undo()
    assert capsys.readouterr().out == GOLDEN.read_text()
    assert fractions_built <= 32
    assert calls.count("project_lagrangian_class") == 1
    assert "solve_2x2" not in calls
    assert "multiply" not in calls
    assert "__init__" not in calls
    assert calls.count("evaluate") == 12
    assert calls.count("pair_at") == 21
    assert calls.count("wall_alpha_sq") == calls.count("central_charges") == 1
    assert "product" not in calls
    for name in ("hyperbolic_lattice", "theta_map", "comb", "invariant_dimension"):
        assert name not in calls


@given(_BRANCH_BETA)
@example(Fraction(-2))
@example(Fraction(-3, 2))
def test_walls_rows_match_the_library_calls(beta):
    """The walls rows read their beta-free values from constants built on
    first use; each row equals, in value and type, the library call it
    reports, made here at the requested beta."""
    v, s = degeneration.HILB_VECTOR, degeneration.SPHERICAL_VECTOR
    (re_s, im_s), (re_v, im_v), ratio = degeneration.central_charges(s, v, beta)
    gram = mukai.hyperbolic_lattice(v, s)
    image = mukai.theta_map(degeneration.CONTRACTED_RAY_VECTOR)
    expected = [degeneration.wall_alpha_sq(beta), re_v, im_v, re_s, im_s, ratio,
                gram[0][0], gram[0][1], gram[1][1], *image,
                *mukai.square_and_divisibility(image),
                *degeneration.theta_characteristic_counts(2)]
    values = [value for _, value, _ in cli._rows_walls(beta)]
    assert values == expected
    assert [type(value) for value in values] == [type(value) for value in expected]


@given(st.integers(3, 5000))
@example(3)
@example(10)
def test_symprod_rows_match_the_library_calls(genus):
    """The (theta - 6*eta)^3 coefficients are expanded once, at import; the
    cube row equals the expansion multiplied out here, evaluated at the
    requested genus, and each monomial row the monomial written out here.
    Every row is an ``int``."""
    expected = [degeneration.sym_prod_eval(genus, _cubed(1, -6)),
                *(degeneration.sym_prod_eval(genus, tuple(int(i == j) for j in range(4)))
                  for i in (3, 2, 1, 0)),
                degeneration.jacobian_class_of_E(genus)]
    values = [value for _, value, _ in cli._rows_symprod(genus)]
    assert values == expected
    assert [type(value) for value in values] == [int] * 6


def test_report_all_passes_q_and_degree_down():
    """Away from the defaults, each section that takes q or degree reports
    at the requested point, and the others at their defaults."""
    point = {"q": Fraction(16), "degree": Fraction(5760)}
    rows = cli._rows_report_all(**point)
    for name in ("ring", "relations", "lagrangian", "fixed-locus", "walls"):
        kwargs = {opt: point.get(opt, spec["default"])
                  for opt, spec in cli._options(name).items()}
        expected = [(f"{name}: {label}", value, note)
                    for label, value, note in cli._SECTIONS[name][1](**kwargs)]
        assert [row for row in rows if row[0].startswith(f"{name}: ")] == expected
    assert ("ring: integral h^6", 15 * 16 ** 3, "degree-12 monomial integral at q(h)=q") in rows


def test_every_row_value_is_an_exact_int_or_fraction():
    """The report prints an int or Fraction row value as ``str(value)``, so
    every value is exactly one of the two, never a bool ("True") or a str:
    the Pell listing's decimal text is no row value."""
    calls = [(name, {option: spec["default"] for option, spec in cli._options(name).items()})
             for name in cli._SECTIONS]
    calls += [("betti", {"case": "opposite"}), ("euler", {"case": "opposite"}),
              ("fixed-locus", {"degree": Fraction(5760), "q": Fraction(16)}),
              ("lagrangian", {"degree": Fraction(5760), "q": Fraction(16)}),
              ("lagrangian", {"degree": Fraction(72), "q": Fraction(1)}),
              ("pell", {"bound": 10 ** 30})]
    for name, kwargs in calls:
        rows = cli._SECTIONS[name][1](**kwargs)
        assert rows
        for label, value, _ in rows:
            assert type(value) in (int, Fraction), (name, label, value)
