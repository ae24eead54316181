"""The report renderers against the per-row rendering they replaced, and the
Pell listing against its equation at bounds no brute-force search reaches.

``Report.to_text`` and ``Report.to_json`` write each int magnitude's digits
once per report and build the payload with one join; the references below
write every value with ``str`` and quote every string with json's encoder,
row by row, and must give the same bytes."""

import io
import json
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from json.encoder import encode_basestring_ascii

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from epwcalc import cli, degeneration
from epwcalc.cli import Report, run


def _reference_fmt(value) -> str:
    return str(value) if type(value) in (int, Fraction) else str(Fraction(value))


def _reference_text(report: Report) -> str:
    head = report.command
    if report.params:
        head += "  (" + ", ".join(f"{k}={v}" for k, v in report.params.items()) + ")"
    width = max((len(label) for label, _, _ in report.rows), default=0)
    lines = [head]
    for label, value, note in report.rows:
        lines.append(f"  {label:<{width}}  {_reference_fmt(value):>12}  # {note}")
    return "\n".join(lines) + "\n"


def _reference_nested(items, ends):
    return f"{ends[0]}\n    " + ",\n    ".join(items) + f"\n  {ends[1]}" if items else ends


def _reference_json(report: Report) -> str:
    quote = encode_basestring_ascii
    params = [f"{quote(name)}: {quote(value)}" for name, value in report.params.items()]
    results = [f'{{\n      "label": {quote(label)},\n      "value": "{_reference_fmt(value)}",'
               f'\n      "paper_anchor": {quote(note)}\n    }}'
               for label, value, note in report.rows]
    return (f'{{\n  "command": {quote(report.command)},'
            f'\n  "params": {_reference_nested(params, "{}")},'
            f'\n  "results": {_reference_nested(results, "[]")}\n}}\n')


def _reference_pell_rows(bound: int):
    solutions = degeneration.pell_spherical_classes(bound)
    rows = [("solution count", len(solutions), f"2x^2 - y^2 = -1 with |x| <= {bound}"),
            ("negative-x effectivity violations",
             sum(1 for x, y in solutions if x < 0 and 2 * x + y >= 0),
             "x < 0 must force effectivity ratio x + y/2 < 0")]
    for i, (x, y) in enumerate(solutions):
        rows.append((f"x[{i}]", x, "Pell solution, sorted"))
        rows.append((f"y[{i}]", y, "Pell solution, sorted"))
    return rows


def _stdout(argv) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        assert run(argv) == 0
    return out.getvalue()


@pytest.mark.parametrize("digits", [0, 1, 2, 30, 300, 1000])
def test_the_pell_listing_renders_as_the_per_row_reference(digits):
    bound = 10 ** digits
    reference = Report("pell", {"bound": str(bound)}, _reference_pell_rows(bound))
    assert cli._rows_pell(bound) == reference.rows
    argv = ["pell", "--bound", str(bound)]
    assert _stdout(argv) == _reference_text(reference)
    assert _stdout([*argv, "--json"]) == _reference_json(reference)


@st.composite
def mixed_rows(draw):
    """Rows whose values mix ints of either sign and zero, with a few
    magnitudes repeated, and Fractions and bools."""
    magnitudes = draw(st.lists(st.integers(0, 9) | st.integers(0, 10 ** 80),
                               min_size=1, max_size=4))
    ints = st.builds(lambda magnitude, sign: sign * magnitude,
                     st.sampled_from(magnitudes), st.sampled_from((1, -1)))
    values = ints | st.integers() | st.fractions() | st.booleans()
    text = st.text(max_size=8)
    return draw(st.lists(st.tuples(text, values, text), max_size=12))


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=8), st.dictionaries(st.text(max_size=4), st.text(max_size=4),
                                            max_size=3), mixed_rows())
@example("pell", {"bound": "2"}, [("x[0]", -2, "n"), ("x[1]", -2, "n"), ("x[2]", 2, "n"),
                                  ("y[0]", 0, "n"), ("q", Fraction(-2), "n")])
@example("ring", {}, [])
def test_reports_render_as_the_per_row_reference(command, params, rows):
    report = Report(command, params, rows)
    assert report.to_text() == _reference_text(report)
    assert report.to_json() == _reference_json(report)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no int-to-str digit limit on this interpreter")
@pytest.mark.parametrize("value", [10 ** 4300, -(10 ** 4300), Fraction(10 ** 4300, 3)],
                         ids=["int", "negative-int", "fraction"])
def test_a_value_past_the_digit_limit_raises_as_before(value):
    """Rendering a value longer than the interpreter's int-to-str limit
    raises the ``ValueError`` that ``str`` raises; ``run`` turns it into
    exit 1 (``test_exit_codes``).  A short value before it changes nothing."""
    with pytest.raises(ValueError) as expected:
        str(value)
    report = Report("x", {}, [("short", 1, ""), ("long", value, ""), ("again", value, "")])
    for render in (report.to_text, report.to_json):
        with pytest.raises(ValueError) as raised:
            render()
        assert str(raised.value) == str(expected.value)


@pytest.mark.parametrize("digits", [30, 300, 1000])
def test_the_pell_listing_solves_its_equation_up_to_the_bound(digits):
    """Every listed pair solves 2x^2 - y^2 = -1 with |x| <= bound, the pairs
    are sorted and distinct, the next solution (3x + 2y, 4x + 3y) of the
    last pair lies past the bound, and the count row counts the pairs.  The
    listing is also complete: it is exactly the set built here by stepping
    (x, y) -> (3x + 2y, 4x + 3y) from (0, 1) while x <= bound, with every
    sign pair (+-x, +-y)."""
    bound = 10 ** digits
    values = {r["label"]: int(r["value"])
              for r in json.loads(_stdout(["pell", "--bound", str(bound), "--json"]))["results"]}
    count = values["solution count"]
    pairs = [(values[f"x[{i}]"], values[f"y[{i}]"]) for i in range(count)]
    assert len(values) == 2 + 2 * count
    assert pairs == sorted(set(pairs))
    for x, y in pairs:
        assert 2 * x * x - y * y == -1
        assert abs(x) <= bound
    x, y = pairs[-1]
    assert 3 * x + 2 * y > bound
    assert values["negative-x effectivity violations"] == 0
    expected = set()
    x, y = 0, 1
    while x <= bound:
        expected |= {(sx * x, sy * y) for sx in (1, -1) for sy in (1, -1)}
        x, y = 3 * x + 2 * y, 4 * x + 3 * y
    assert set(pairs) == expected
    assert count == len(expected)
