"""The report renderers against the per-row rendering they replaced, and the
Pell listing against its equation at bounds no brute-force search reaches.

``Report.to_text`` and ``Report.to_json`` build the payload with one join,
and the Pell listing takes its values and labels from process-wide tables
of text; the references below write every value with ``str`` and quote
every string with json's encoder, row by row, and must give the same
bytes.  The Pell reference takes its pairs from the set-and-sort
construction, not from the code under test."""

import io
import json
import random
import sys
import threading
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from json.encoder import encode_basestring_ascii

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_degeneration import _pell_set_and_sort

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
    solutions = _pell_set_and_sort(bound)
    rows = [("solution count", len(solutions), f"2x^2 - y^2 = -1 with |x| <= {bound}"),
            ("negative-x effectivity violations",
             sum(1 for x, y in solutions if x < 0 and 2 * x + y >= 0),
             "x < 0 must force effectivity ratio x + y/2 < 0")]
    for i, (x, y) in enumerate(solutions):
        rows.append((f"x[{i}]", x, "Pell solution, sorted"))
        rows.append((f"y[{i}]", y, "Pell solution, sorted"))
    return rows


def _assert_same(got, want):
    """``got == want``, byte for byte; on a mismatch, the first differing
    offset and a short excerpt of each side, not a diff of megabytes."""
    if got != want:
        at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                  min(len(got), len(want)))
        excerpt = slice(max(at - 40, 0), at + 40)
        pytest.fail(f"first difference at offset {at} of {len(got)}/{len(want)}:"
                    f" got {got[excerpt]!r}, want {want[excerpt]!r}", pytrace=False)


def _stdout(argv) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        assert run(argv) == 0
    return out.getvalue()


@pytest.mark.parametrize("digits", [0, 1, 2, 30, 300, 1000])
def test_the_pell_listing_renders_as_the_per_row_reference(digits):
    bound = 10 ** digits
    reference = Report("pell", {"bound": str(bound)}, _reference_pell_rows(bound))
    _assert_same([(label, int(value) if type(value) is str else value, note)
                  for label, value, note in cli._rows_pell(bound)], reference.rows)
    argv = ["pell", "--bound", str(bound)]
    _assert_same(_stdout(argv), _reference_text(reference))
    _assert_same(_stdout([*argv, "--json"]), _reference_json(reference))


def test_the_pell_tables_serve_every_bound_in_any_order(monkeypatch):
    """From empty tables, in one process: the cap 10^1000 first, then bounds
    in descending order, then ascending, with x and x - 1 at the first four
    branch x; and again from empty tables, ascending and then the cap.
    Every request renders as the per-row reference, in text and in JSON,
    and lists what the set-and-sort construction gives, whose part with
    x, y > 0 is the branch ``pell_spherical_classes`` returns.  Changing a
    list it returned leaves the next call as it was.  After the cap, the
    listing's text holds the 1306 branch elements, with labels for all 5226
    listed pairs.  A bound past the cap is rejected (exit 2) and grows
    nothing, even from empty tables."""
    def fresh_tables():
        monkeypatch.setattr(cli, "_PELL_TEXT", [])
        monkeypatch.setattr(cli, "_PELL_LABELS", [])

    def sizes():
        return len(cli._PELL_TEXT), len(cli._PELL_LABELS)

    cap = 10 ** 1000
    ascending = sorted({10 ** k for k in (0, 1, 2, 30, 300)}
                       | {b for x in (2, 12, 70, 408) for b in (x, x - 1)})
    for order in ([cap, *reversed(ascending), *ascending], [*ascending, cap]):
        fresh_tables()
        misrendered = []  # bounds, not megabytes of text for pytest to diff
        for bound in order:
            argv = ["pell", "--bound", str(bound)]
            text, as_json = _stdout(argv), _stdout([*argv, "--json"])
            expected = [(x, y) for x, y in _pell_set_and_sort(bound) if x > 0 and y > 0]
            branch = degeneration.pell_spherical_classes(bound)
            assert branch == expected
            branch[:1] = []
            branch.append((1, 1))
            assert degeneration.pell_spherical_classes(bound) == expected
            reference = Report("pell", {"bound": str(bound)}, _reference_pell_rows(bound))
            if (text, as_json) != (_reference_text(reference), _reference_json(reference)):
                misrendered.append(bound)
            if cap in order[:order.index(bound) + 1]:
                assert sizes() == (1306, 5226)
        assert misrendered == []
    fresh_tables()
    with redirect_stderr(io.StringIO()):
        assert run(["pell", "--bound", str(cap + 1)]) == 2
    assert sizes() == (0, 0)


def test_interleaved_requests_grow_the_pell_tables_once(monkeypatch):
    """Eight threads, released together and switching every microsecond,
    request bounds from empty tables: two ascending, two descending and
    four in shuffled orders, so that several grow the same entries at once.
    Each gets the rows a lone request gets, and the tables end as one
    request for the largest bound leaves them: no entry is written twice or
    dropped.  Five rounds, each from empty tables."""
    bounds = [10 ** k for k in range(0, 301, 7)]
    expected = {bound: cli._rows_pell(bound) for bound in bounds}

    def fresh_tables():
        monkeypatch.setattr(cli, "_PELL_TEXT", [])
        monkeypatch.setattr(cli, "_PELL_LABELS", [])

    def tables():
        return cli._PELL_TEXT, cli._PELL_LABELS

    fresh_tables()
    cli._rows_pell(bounds[-1])
    alone = tables()

    def client(order, start, wrong):
        start.wait(timeout=60)
        wrong.extend(bound for bound in order if cli._rows_pell(bound) != expected[bound])

    rng = random.Random(24)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):  # any one round may interleave without a race
            fresh_tables()
            orders = [bounds, bounds, bounds[::-1], bounds[::-1]]
            orders += [rng.sample(bounds, len(bounds)) for _ in range(4)]
            start, wrong = threading.Barrier(len(orders)), []
            threads = [threading.Thread(target=client, args=(order, start, wrong))
                       for order in orders]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert wrong == []
            assert tables() == alone
    finally:
        sys.setswitchinterval(interval)


@st.composite
def mixed_rows(draw):
    """Rows whose values mix ints of either sign and zero, with a few
    magnitudes repeated, the decimal text of ints, Fractions and bools."""
    magnitudes = draw(st.lists(st.integers(0, 9) | st.integers(0, 10 ** 80),
                               min_size=1, max_size=4))
    ints = st.builds(lambda magnitude, sign: sign * magnitude,
                     st.sampled_from(magnitudes), st.sampled_from((1, -1)))
    values = ints | st.integers() | ints.map(str) | st.fractions() | st.booleans()
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
