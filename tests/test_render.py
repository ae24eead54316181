"""The report renderers against the per-row rendering they replaced, and the
Pell listing against its equation at bounds no brute-force search reaches.

``Report.to_text`` and ``Report.to_json`` build the payload with one join,
and write the Pell listing from process-wide tables of row heads and
values, with no row tuples; the references below write every row, the
listing's too, with ``str`` and quote every string with json's encoder,
row by row, and must give the same bytes.  The Pell reference takes its
pairs from the set-and-sort construction, not from the code under test."""

import importlib.util
import io
import itertools
import json
import random
import sys
import threading
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_degeneration import _pell_set_and_sort, effectivity_of_pell_class

from epwcalc import cli, degeneration
from epwcalc.cli import Report, run

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _reference_text(report: Report) -> str:
    head = report.command
    if report.params:
        head += "  (" + ", ".join(f"{k}={v}" for k, v in report.params.items()) + ")"
    width = max((len(label) for label, _, _ in report.rows), default=0)
    lines = [head]
    for label, value, note in report.rows:
        lines.append(f"  {label:<{width}}  {str(value):>12}  # {note}")
    return "\n".join(lines) + "\n"


def _reference_nested(items, ends):
    return f"{ends[0]}\n    " + ",\n    ".join(items) + f"\n  {ends[1]}" if items else ends


def _reference_json(report: Report) -> str:
    quote = encode_basestring_ascii
    params = [f"{quote(name)}: {quote(value)}" for name, value in report.params.items()]
    results = [f'{{\n      "label": {quote(label)},\n      "value": "{value}",'
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


def _assert_pell_renders(bound):
    """``pell --bound`` in text and JSON is the per-row reference, byte for
    byte, and ``_rows_pell`` returns the reference's two summary rows."""
    reference = Report("pell", {"bound": str(bound)}, _reference_pell_rows(bound))
    assert cli._rows_pell(bound) == reference.rows[:2]
    argv = ["pell", "--bound", str(bound)]
    _assert_same(_stdout(argv), _reference_text(reference))
    _assert_same(_stdout([*argv, "--json"]), _reference_json(reference))


@pytest.mark.parametrize("digits", [0, 1, 2, 3, 7, 30, 150, 299, 300, 1000])
def test_the_pell_listing_renders_as_the_per_row_reference(digits):
    _assert_pell_renders(10 ** digits)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 299).flatmap(lambda k: st.integers(10 ** k + 1, 10 ** (k + 1) - 1)))
@example(11)
@example(10 ** 11 - 1)
def test_the_pell_listing_renders_as_the_reference_between_powers_of_ten(bound):
    """Bounds in [1, 10^300] that are not powers of ten, drawn digit count first."""
    _assert_pell_renders(bound)


@pytest.mark.parametrize("bound", [1, 10, 10 ** 30])
def test_a_pell_report_without_params_renders_as_the_reference(bound):
    """``to_json`` with no params and a Pell listing (the empty params
    object, then the listing's pieces after the summary rows) and
    ``to_text`` with no params head are the per-row reference too."""
    report = Report("pell", {}, cli._rows_pell(bound))
    reference = Report("pell", {}, _reference_pell_rows(bound))
    _assert_same(report.to_json(), _reference_json(reference))
    _assert_same(report.to_text(), _reference_text(reference))


def _fresh_pell_tables(monkeypatch):
    """The Pell state as the import makes it: each listing with no heads and
    values for (0, 1) and (0, -1) alone, no violations counted past the empty
    branch, and no bound walked."""
    for listing in cli._PELL_LISTINGS:
        monkeypatch.setattr(listing, "heads", {})
        for name in ("positive", "negative"):
            monkeypatch.setattr(listing, name, getattr(listing, name)[:2])
    monkeypatch.setattr(cli, "_PELL_VIOLATIONS", [0])
    monkeypatch.setattr(cli, "_PELL_WALKED", 0)


def _pell_tables():
    """Per listing (JSON, text): its positive and negative value tables, each
    led by its half of (0, +-1), and its heads by label width."""
    return [(listing.positive, listing.negative, listing.heads) for listing in cli._PELL_LISTINGS]


def _pell_table_sizes():
    return [(len(positive), len(negative), {width: len(h) for width, h in by_width.items()})
            for positive, negative, by_width in _pell_tables()]


#: the text layout's label width on a ``pell`` report: that of its longest
#: summary label
PELL_TEXT_WIDTH = len("negative-x effectivity violations")


def test_the_pell_tables_serve_every_bound_in_any_order(monkeypatch):
    """From fresh tables, in one process: the cap 10^1000 first, then bounds
    in descending order, then ascending, with x and x - 1 at the first four
    branch x; and again from fresh tables, ascending and then the cap.
    Every request renders as the per-row reference, in text and in JSON,
    and lists what the set-and-sort construction gives, whose part with
    x, y > 0 is the branch ``pell_spherical_classes`` returns.  Changing a
    list it returned leaves the next call as it was.  After the cap, each
    listing holds 8 * 1306 + 4 values, four per side for each of the 1306
    branch elements and the four of (0, +-1), and a head for each of the
    2 * 5226 listed values, in JSON and at the text width.  A bound past the
    cap is rejected (exit 2) and fills nothing, even from fresh tables."""
    cap = 10 ** 1000
    at_cap = [(4 * 1306 + 2, 4 * 1306 + 2, {width: 2 * 5226})
              for width in (0, PELL_TEXT_WIDTH)]
    ascending = sorted({10 ** k for k in (0, 1, 2, 30, 300)}
                       | {b for x in (2, 12, 70, 408) for b in (x, x - 1)})
    for order in ([cap, *reversed(ascending), *ascending], [*ascending, cap]):
        _fresh_pell_tables(monkeypatch)
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
                assert _pell_table_sizes() == at_cap
        assert misrendered == []
    _fresh_pell_tables(monkeypatch)
    with redirect_stderr(io.StringIO()):
        assert run(["pell", "--bound", str(cap + 1)]) == 2
    assert _pell_table_sizes() == [(2, 2, {}), (2, 2, {})]


def _render_pell(bound):
    report = Report("pell", {"bound": str(bound)}, cli._rows_pell(bound))
    return report.to_text(), report.to_json()


def test_interleaved_requests_grow_the_pell_tables_once(monkeypatch):
    """Eight threads, released together and switching every microsecond,
    render bounds in text and JSON from fresh tables: two ascending, two
    descending and four in shuffled orders, so that several grow the same
    entries at once.  Each gets the payloads a lone request gets, and the
    tables end as one request for the largest bound in both formats leaves
    them: no entry is written twice or dropped.  Five rounds, each from
    fresh tables."""
    bounds = [10 ** k for k in range(0, 301, 7)]
    expected = {bound: _render_pell(bound) for bound in bounds}
    _fresh_pell_tables(monkeypatch)
    _render_pell(bounds[-1])
    alone = _pell_tables()

    def client(order, start, wrong):
        start.wait(timeout=60)
        wrong.extend(bound for bound in order if _render_pell(bound) != expected[bound])

    rng = random.Random(24)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):  # any one round may interleave without a race
            _fresh_pell_tables(monkeypatch)
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
            assert _pell_tables() == alone
    finally:
        sys.setswitchinterval(interval)


def test_pell_requests_at_a_walked_bound_read_the_tables(monkeypatch):
    """From fresh state in one process, ``pell --bound 10^300`` walks the
    branch, and then 300 shuffled bounds up to 10^300, each in text and in
    JSON, walk it no more: a counting wrapper sees the real walk called
    once.  Every payload is the per-row reference, and its violations row is
    the sum over the walk at its bound, element by element.  A larger bound
    walks once more, and with the tables full a bound of 0 or -5 still
    walks and exits 1 with the walk's error."""
    _fresh_pell_tables(monkeypatch)
    walk, walked = degeneration.pell_spherical_classes, []
    monkeypatch.setattr(degeneration, "pell_spherical_classes",
                        lambda bound: walked.append(bound) or walk(bound))
    top, rng = 10 ** 300, random.Random(39)
    edges = [b for x, _ in walk(10 ** 12) for b in (x - 1, x, x + 1)]
    bounds = {top - 1, top, *edges}
    while len(bounds) < 300:
        bounds.add(rng.randrange(1, 10 ** rng.randint(1, 300)))
    requests = [(bound, fmt) for bound in sorted(bounds) for fmt in ([], ["--json"])]
    rng.shuffle(requests)
    _stdout(["pell", "--bound", str(top), "--json"])
    misrendered, miscounted = [], []
    for bound, fmt in requests:
        reference = Report("pell", {"bound": str(bound)}, _reference_pell_rows(bound))
        render = _reference_json if fmt else _reference_text
        if _stdout(["pell", "--bound", str(bound), *fmt]) != render(reference):
            misrendered.append((bound, fmt))
        if cli._rows_pell(bound)[1][1] != sum(
                1 for x, y in walk(bound) for sy in (-y, y)
                if effectivity_of_pell_class(-x, sy) >= 0):
            miscounted.append(bound)
    assert walked == [top]
    assert misrendered == [] and miscounted == []
    _stdout(["pell", "--bound", str(10 * top)])
    _stdout(["pell", "--bound", str(top)])
    assert walked == [top, 10 * top]
    for bound in ("0", "-5"):
        err = io.StringIO()
        with redirect_stderr(err), redirect_stdout(io.StringIO()):
            assert run(["pell", "--bound", bound]) == 1
        assert err.getvalue() == "error: bound must be a positive integer\n"
    assert walked == [top, 10 * top, 0, -5]


@st.composite
def mixed_rows(draw):
    """Rows whose values mix ints of either sign and zero, with a few
    magnitudes repeated, and Fractions."""
    magnitudes = draw(st.lists(st.integers(0, 9) | st.integers(0, 10 ** 80),
                               min_size=1, max_size=4))
    ints = st.builds(lambda magnitude, sign: sign * magnitude,
                     st.sampled_from(magnitudes), st.sampled_from((1, -1)))
    values = ints | st.integers() | st.fractions()
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


def _param_sweep_argvs(seed: int, count: int) -> list[list[str]]:
    """The first ``count`` requests of the benchmark's param-sweep stream."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return list(itertools.islice(workloads.stream("param-sweep", seed), count))


def test_every_row_value_is_an_int_or_a_fraction(monkeypatch):
    """The renderers write a row's value with ``str``, which reads right only
    for an int or a Fraction (a bool would print "True").  Every row holds
    one: every section in text and JSON, both involution cases, report-all
    at (720, 4) and (288, 2), and 1000 seeded param-sweep requests."""
    argvs = [[name] for name in cli._SECTIONS]
    argvs += [[name, "--case", "opposite"] for name in ("betti", "euler")]
    argvs += [[name, "--degree", "288", "--q", "2"]
              for name in ("lagrangian", "fixed-locus", "report-all")]
    argvs = [argv + json_flag for argv in argvs for json_flag in ([], ["--json"])]
    sweep = _param_sweep_argvs(1, 1000)
    seen, built = set(), []

    def spy(command, params, rows):
        built.append(command)
        seen.update(type(value) for _, value, _ in rows)
        return Report(command, params, rows)

    monkeypatch.setattr(cli, "Report", spy)
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        codes = [run(argv) for argv in argvs + sweep]
    assert codes[:len(argvs)] == [0] * len(argvs)
    assert set(codes) <= {0, 1} and len(built) > len(argvs) + len(sweep) // 2
    assert seen == {int, Fraction}


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
