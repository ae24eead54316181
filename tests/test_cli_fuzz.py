"""Property test of the command line: whatever the argv, ``run`` returns
0, 1 or 2, lets no exception escape and prints no traceback; a computation
error is one ``error:`` line on stderr and nothing on stdout; every value of
a JSON report is an exact rational."""

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from epwcalc.cli import run

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
        "natural", "opposite", "sideways", "0x10", "1_000", " 7", "+3", "-0", "3/-4")


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
# the Pell search walks every solution up to the bound, which takes seconds
# at a few thousand digits; bounds stay at the sweep's 300 digits
BOUNDS = st.one_of(SMALL, _big(1, 300))


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
