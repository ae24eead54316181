import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from epwcalc.cli import build_parser, run

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
    assert run(["walls", "--beta", "-1"]) == 1
    assert run(["pell", "--bound", "0"]) == 1
    # a negative fraction is a value, not an unknown option
    assert run(["ring", "--q", "-1/2"]) == 1
    capsys.readouterr()
    assert run(["walls", "--beta", "-5/2"]) == 0
    split = capsys.readouterr().out
    assert run(["walls", "--beta=-5/2"]) == 0
    assert split == capsys.readouterr().out != ""
    # a value too long to print is a computation error, not a traceback
    assert run(["ring", "--q", "1" + "0" * 2000]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


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
                 ["ring", "--out", ""], ["euler", "--out="]):
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


def test_import_leaves_out_dataclasses_inspect_typing_and_pathlib():
    """Cold start: importing ``llv`` loads no other ``epwcalc`` module (its
    Euler characteristic 3200 is derived, not read from ``hodge_ring``), and
    importing the CLI loads none of the stdlib modules below.  ``-S`` skips
    ``site``, whose ``.pth`` files may import ``typing`` or ``pathlib``
    themselves."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, epwcalc.llv; "
            "print(*sorted(m for m in sys.modules if m.startswith('epwcalc.')"
            " and m != 'epwcalc.llv')); "
            "import epwcalc.cli; "
            "print(*sorted({'dataclasses', 'inspect', 'typing', 'pathlib'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    others_with_llv, stdlib_with_cli = proc.stdout.splitlines()
    assert others_with_llv == ""
    assert stdlib_with_cli == ""


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
