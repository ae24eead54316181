import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from test_degeneration import _BRANCH_BETA, _cubed, effectivity_of_pell_class

from epwcalc import cli, degeneration, hodge_ring, lagrangian, llv, mukai
from epwcalc.cli import build_parser, run
from epwcalc.qfield import ParametricScalar

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
    # inputs past their caps (exponent 4300, bound 10^1000) are usage errors
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
    parse = build_parser().parse_args
    assert parse(["ring", "--q", "1.5e3"]).q == 1500
    assert parse(["ring", "--q", "1e-4300"]).q == Fraction(1, 10 ** 4300)
    for value in ("1e4301", "1E-4301", "2.5e9999999"):
        with pytest.raises(SystemExit) as exc:
            parse(["ring", "--q", value])
        assert exc.value.code == 2


def test_pell_bound_is_capped_at_10_to_the_1000():
    parse = build_parser().parse_args
    for bound in (10 ** 6, 10 ** 300, 10 ** 1000, 0):
        assert parse(["pell", "--bound", str(bound)]).bound == bound
    assert parse(["pell"]).bound == 10 ** 6
    for text in (str(10 ** 1000 + 1), str(10 ** 2000), "abc"):
        with pytest.raises(SystemExit) as exc:
            parse(["pell", "--bound", text])
        assert exc.value.code == 2


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
    assert build_parser() is build_parser()

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
    rows = {label: value for label, value, _ in cli._rows_pell(bound, list_solutions=False)}
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


def test_report_all_walks_the_fixed_locus_once_per_section(monkeypatch, capsys):
    """A warm report-all projects the Lagrangian class once, in the
    lagrangian section: fixed-locus reads its pairings and square as
    degree^k times the single terms built at import, and f3 reads a cache.
    It solves no ring relation: those are solved at import.  It multiplies
    no ring classes and builds no ``ParametricScalar``: the Chern products
    were multiplied out by the first request.  ``evaluate`` serves only the
    integral, Chern-number and relation rows (11 calls: 30 before the
    Lagrangian values went through the unit pairings, 14 before the Gram
    determinant read its entries' pairs); every scalar value, those
    included, is one ``pair_at`` (24 calls).  The walls rows compute alpha^2
    and the two central charges once each, and the Kuranishi grid was walked
    by the first request.  The argument-free values of the walls, symprod
    and betti rows were built at import: no Gram matrix, theta map, cube
    expansion or invariant dimension is computed.  The request builds at
    most 32 ``Fraction``s for its 81 rows (39 before the wall ratio became
    one quotient and the symprod rows stayed in the integers; 62 before the
    walls and symprod rows stopped copying ``Fraction``s and expanding the
    cube; 94 before the
    involution case, the fixed-locus numbers and the Gram determinant were
    computed on integers; Python 3.12 and later build some arithmetic
    results without ``__new__``, so fewer there)."""
    assert run(["report-all", "--json"]) == 0
    capsys.readouterr()
    rewrites = hodge_ring._rewrite.cache_info().misses
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
    assert calls.count("evaluate") == 11
    assert calls.count("pair_at") == 24
    assert calls.count("wall_alpha_sq") == calls.count("central_charges") == 1
    assert "product" not in calls
    for name in ("hyperbolic_lattice", "theta_map", "comb", "invariant_dimension"):
        assert name not in calls
    assert hodge_ring._rewrite.cache_info().misses == rewrites


@given(_BRANCH_BETA)
@example(Fraction(-2))
@example(Fraction(-3, 2))
def test_walls_rows_match_the_library_calls(beta):
    """The walls rows read their beta-free values from a constant built at
    import; each row equals, in value and type, the library call it
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
        _, section_rows, options = cli._SECTIONS[name]
        kwargs = {opt: point.get(opt, spec["default"]) for opt, spec in options.items()}
        expected = [(f"{name}: {label}", value, note)
                    for label, value, note in section_rows(**kwargs)]
        assert [row for row in rows if row[0].startswith(f"{name}: ")] == expected
    assert ("ring: integral h^6", 15 * 16 ** 3, "degree-12 monomial integral at q(h)=q") in rows


def test_every_row_value_is_an_exact_int_or_fraction():
    """The report prints an int or Fraction row value as ``str(value)``, so
    every value is exactly one of the two, never a bool ("True"), or else
    the decimal text of an int, which it prints as it stands."""
    calls = [(name, {option: spec["default"] for option, spec in options.items()})
             for name, (_, _, options) in cli._SECTIONS.items()]
    calls += [("betti", {"case": "opposite"}), ("euler", {"case": "opposite"}),
              ("fixed-locus", {"degree": Fraction(5760), "q": Fraction(16)}),
              ("lagrangian", {"degree": Fraction(5760), "q": Fraction(16)}),
              ("lagrangian", {"degree": Fraction(72), "q": Fraction(1)}),
              ("pell", {"bound": 10 ** 30})]
    for name, kwargs in calls:
        rows = cli._SECTIONS[name][1](**kwargs)
        assert rows
        for label, value, _ in rows:
            assert type(value) in (int, Fraction) or (
                type(value) is str and str(int(value)) == value), (name, label, value)
