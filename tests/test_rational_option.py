"""A rational option's value reads as ``Fraction`` reads it: ``cli._rational``
takes a plain ASCII "[-]digits[/digits]" straight from its ints and every
other spelling through ``Fraction``, and either way gives the value
``Fraction(text)`` gives, or the usage message the ``Fraction`` reading
gives, for every string."""

import argparse
import os
import subprocess
import sys
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from epwcalc import cli

LIMIT = 4300  # digits of a numerator or denominator, and an exponent's magnitude


def by_fraction(text: str) -> Fraction | str:
    """``Fraction(text)``, or the usage message for ``text``: an exponent is
    bounded before the power of ten is built, and so is each of the value's
    two ints."""
    _, e, exponent = text.lower().rpartition("e")
    try:
        if e and abs(int(exponent)) > LIMIT:
            return f"exponent beyond {LIMIT} in magnitude: {text!r}"
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        return f"not a rational number: {text!r}"
    if max(abs(value.numerator), value.denominator) >= 10 ** LIMIT:
        return f"numerator or denominator has more than {LIMIT} digits: {text!r}"
    return value


def by_cli(text: str) -> Fraction | str:
    """``cli._rational(text)``, or the text of the usage error it raises."""
    try:
        value = cli._rational(text)
    except argparse.ArgumentTypeError as exc:
        return str(exc)
    assert type(value) is Fraction
    return value


#: the pieces an option value is made of, and look-alikes of each
PIECES = ("", "-", "+", "/", "_", ".", "e", "E", "e-", " ", "\t", "\n", "0", "00", "7",
          "42", "1" * 40, "١٢", "²", "٣", "１", "x", "inf", "nan")
TEXTS = (st.lists(st.sampled_from(PIECES), max_size=8).map("".join)
         | st.text(st.sampled_from("0123456789-+/_.eE \t١²"), max_size=12)
         | st.text(max_size=8))


@settings(max_examples=500, deadline=None)
@given(TEXTS)
@example("-0")
@example("+3")
@example(" 7")
@example("3/-4")
@example("0/0")
@example("1/0")
@example("-0/5")
@example("1.5e3")
@example("1_000")
@example("007/0010")
@example("--5")
@example("5/")
@example("/5")
@example("١٢")
@example("²")
@example("1" * 4300)
@example("1" * 4301)
@example("-1/" + "7" * 4301)
@example("1e4300")
@example("1e4301")
def test_a_rational_reads_as_fraction_reads_it(text):
    assert by_cli(text) == by_fraction(text)


def test_a_lower_digit_limit_binds_both_readings():
    """Under ``PYTHONINTMAXSTRDIGITS=640`` a 641-digit numerator or
    denominator is no rational, written plainly or with a "+", while 640
    digits still read; ``_rational`` and ``Fraction`` agree on each."""
    nines = "9" * 640
    texts = [nines, "-" + nines, f"1/{nines}", nines + "9", "-1/9" + nines,
             "+" + nines, "+9" + nines, "9" + nines + "e0"]
    code = ("import sys\n"
            f"sys.path.insert(0, {os.path.dirname(__file__)!r})\n"
            "from test_rational_option import by_cli, by_fraction\n"
            f"for text in {texts!r}:\n"
            "    got = by_cli(text)\n"
            "    assert got == by_fraction(text), text\n"
            "    print(type(got).__name__)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONINTMAXSTRDIGITS": "640"})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["Fraction"] * 3 + ["str"] * 2 + ["Fraction", "str", "str"]
