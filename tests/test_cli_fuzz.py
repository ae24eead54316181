"""Property tests of the command line: whatever the argv, ``run`` returns
0, 1 or 2, lets no exception escape and prints no traceback; a computation
error is one ``error:`` line on stderr and nothing on stdout; every value of
a JSON report is an exact rational; an option reads a value the same way
whether it is written "--opt value" or "--opt=value"; wherever the fast
parser reads an argv, argparse reads it alike; and a report's JSON is
``json.dumps`` of its payload, whatever its strings hold."""

import importlib.util
import io
import itertools
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from epwcalc.cli import Report, _parse_fast, build_parser, run

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"

#: subcommand -> its own options
OWN_OPTIONS = {
    "fujiki": (), "ring": ("--q",), "relations": ("--q",), "betti": ("--case",),
    "euler": ("--case",), "lagrangian": ("--degree", "--q"),
    "fixed-locus": ("--degree", "--q"), "walls": ("--beta",), "pell": ("--bound",),
    "ext": (), "kuranishi": (), "symprod": ("--genus",), "f3": ("--genus",),
    "report-all": ("--q", "--degree"), "no-such-command": (),
}
OPTIONS = ("--q", "--degree", "--case", "--beta", "--bound", "--genus", "--json", "-h",
           "--nope")
JUNK = ("", "x", "-", "--", "nan", "inf", "-inf", "1/0", "0/0", "1.5e3", "-2.5",
        "natural", "opposite", "sideways", "0x10", "1_000", " 7", "+3", "-0", "3/-4",
        "-15e-1", "-1.5E0", "-.5e1", "-1e-4301", "-1_000", "-2.")


def _digits(count: int, seed: int) -> str:
    return str(random.Random(seed).randrange(10 ** (count - 1), 10 ** count))


def _big(low: int, high: int):
    """Integers of ``low`` to ``high`` decimal digits, either sign."""
    return st.builds(lambda sign, count, seed: sign + _digits(count, seed),
                     st.sampled_from(("", "-")), st.integers(low, high),
                     st.integers(0, 2 ** 32))


SMALL = st.one_of(
    st.integers(-10 ** 6, 10 ** 6).map(str),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-10 ** 4, 10 ** 4), st.integers(0, 10 ** 4)),
    st.sampled_from(JUNK),
    st.just("-h"),
)
VALUES = st.one_of(SMALL, _big(1500, 4200))
# the Pell search walks every solution up to the bound, so bounds stay at the
# sweep's 300 digits, or are past the 10^1000 cap and exit 2 at once
BOUNDS = st.one_of(SMALL, _big(1, 300), _big(1002, 1500))


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(tuple(OWN_OPTIONS)))
    # mostly the subcommand's own options, so that values reach the arithmetic
    options = st.sampled_from(OWN_OPTIONS[command] or OPTIONS) | st.sampled_from(OPTIONS)
    argv = [command]
    for _ in range(draw(st.integers(0, 3))):
        option = draw(options)
        if option in ("--json", "-h"):
            argv.append(option)
            continue
        value = draw(BOUNDS if option == "--bound" else VALUES)
        argv += [f"{option}={value}"] if draw(st.booleans()) else [option, value]
    if draw(st.booleans()):
        argv.append("--json")
    return argv


@settings(max_examples=200, deadline=None)
@given(argvs())
@example(["ring", "--q", "1" + "0" * 2000])
def test_run_never_escapes_its_exit_codes(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 1:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
    if code == 0 and "--json" in argv and "-h" not in argv:
        for row in json.loads(out)["results"]:
            Fraction(row["value"])


def _run(argv):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = run(argv)
    return code, out.getvalue()


#: (subcommand, option) for every option that takes a value
VALUED = tuple((command, option) for command, options in OWN_OPTIONS.items()
               for option in options)


@st.composite
def option_values(draw):
    command, option = draw(st.sampled_from(VALUED))
    return command, option, draw(BOUNDS if option == "--bound" else VALUES)


@settings(max_examples=200, deadline=None)
@given(option_values())
@example(("walls", "--beta", "-15e-1"))
def test_a_value_reads_alike_after_a_space_and_after_an_equals_sign(case):
    command, option, value = case
    joined = _run([command, f"{option}={value}"])
    if joined[0] == 0:
        assert _run([command, option, value]) == joined


@settings(max_examples=300, deadline=None)
@given(argvs() | option_values().flatmap(
    lambda case: st.sampled_from(([case[0], f"{case[1]}={case[2]}"], list(case)))))
@example(["ring", "--q=--"])
@example(["ring", "--q="])
@example(["ring", "--q", "7", "--q=1/3"])
@example(["ring", "--json=1"])
@example(["lagrangian", "--deg", "7"])
@example(["ring", "-h"])
@example(["walls", "--beta", "-5/2"])
@example(["ring", "--out", "-"])
@example(["betti", "--case=sideways"])
@example(["symprod", "--genus", " 7"])
@example(["ring", "--out=--"])
@example(["ring", "--out", "-h"])
@example(["euler", "--out", "--json"])
@example(["ring", "-q", "5"])
def test_the_fast_parser_reads_an_argv_as_argparse_does(argv):
    fast = _parse_fast(argv)
    if fast is not None:
        assert vars(fast) == vars(build_parser().parse_args(argv))


def test_the_fast_parser_reads_every_benchmark_request():
    """The first 1000 requests of each benchmark stream at seed 0 are all
    well formed, so none of them loads argparse."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for name in workloads.STREAMS:
        for argv in itertools.islice(workloads.stream(name, 0), 1000):
            assert _parse_fast(argv) is not None, argv


#: any text: quotes, backslashes, control characters, non-ASCII, lone surrogates
TEXT = st.text(st.characters(exclude_categories=())
               | st.sampled_from('"\\\x00\x1f\x7f\xe9\u2028\ud800\udfff'))
ROW_VALUES = st.integers() | st.fractions() | st.booleans()


@settings(max_examples=300, deadline=None)
@given(TEXT, st.dictionaries(TEXT, TEXT, max_size=4),
       st.lists(st.tuples(TEXT, ROW_VALUES, TEXT), max_size=4))
@example("fujiki", {}, [])
@example("ring", {"q": "4"}, [])
@example("ext", {}, [("dim M(v)", 8, "")])
def test_json_report_is_json_dumps_of_its_payload(command, params, rows):
    payload = {
        "command": command,
        "params": params,
        "results": [{"label": label, "value": str(Fraction(value)), "paper_anchor": note}
                    for label, value, note in rows],
    }
    assert Report(command, params, rows).to_json() == json.dumps(payload, indent=2) + "\n"
