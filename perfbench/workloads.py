"""Seeded request streams for the three workloads.

A stream is an endless iterator of argv lists for ``epwcalc.cli``, built
only from a ``random.Random`` seeded by the benchmark; the program under
test sees the generated argv and never the seed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

#: every subcommand of ``epwcalc.cli``
SECTIONS = (
    "fujiki", "ring", "relations", "betti", "euler", "lagrangian", "fixed-locus",
    "walls", "pell", "ext", "kuranishi", "symprod", "f3", "report-all",
)

#: the request every golden check anchors on; also the warm-up and set-up request
REPORT_ALL = ("report-all", "--json")


def cold_cli(rng: random.Random):
    """Sections at their defaults, as fresh processes.

    Each block of 26 holds the 13 other sections once and ``report-all
    --json`` 13 times, shuffled, so every seed has the same mix."""
    others = [[s] for s in SECTIONS if s != "report-all"]
    while True:
        block = others + [list(REPORT_ALL) for _ in others]
        rng.shuffle(block)
        yield from block


def report_all(rng: random.Random):
    """The same warm request over and over; the seed changes nothing."""
    while True:
        yield list(REPORT_ALL)


def _positive_rational(rng: random.Random, max_digits: int) -> Fraction:
    num = rng.randint(1, 10 ** rng.randint(0, max_digits))
    den = rng.randint(1, 10 ** rng.randint(0, max_digits))
    return Fraction(num, den)


def _lagrangian_point(rng: random.Random, epw_like: bool) -> tuple[Fraction, Fraction]:
    """(q, degree).  An EPW-like point scales the EPW point (q, degree) =
    (4, 720) by (m^2, m^3), where exactly one involution case is
    admissible; at an arbitrary point ``fixed-locus`` must exit 1."""
    if epw_like:
        m = rng.randint(1, 50)
        return Fraction(4 * m * m), Fraction(720 * m ** 3)
    return _positive_rational(rng, 12), _positive_rational(rng, 12)


def _wall_beta(rng: random.Random) -> Fraction:
    """A rational beta on the wall branch -2 - sqrt(2) < beta < -1."""
    den = rng.randint(1, 10 ** rng.randint(0, 30))
    # beta = -1 - k/den with 1 <= k <= den + isqrt(2 den^2) < (1 + sqrt 2) den
    k = rng.randint(1, den + math.isqrt(2 * den * den))
    return Fraction(-den - k, den)


SWEEP_KINDS = ("ring", "relations", "lagrangian", "fixed-locus", "walls",
               "pell", "symprod", "f3", "betti", "euler")


def _sweep_request(rng: random.Random, kind: str, as_json: bool, variant: bool) -> list[str]:
    """One request of ``kind``; ``variant`` picks the EPW-like point for the
    two Lagrangian kinds and the opposite case for betti and euler."""
    if kind in ("ring", "relations"):
        argv = [kind, f"--q={_positive_rational(rng, 30)}"]
    elif kind in ("lagrangian", "fixed-locus"):
        q, degree = _lagrangian_point(rng, epw_like=variant)
        argv = [kind, f"--q={q}", f"--degree={degree}"]
    elif kind == "walls":
        # "--beta=<value>": "--beta -5/2" is read by argparse as an option
        argv = [kind, f"--beta={_wall_beta(rng)}"]
    elif kind == "pell":
        argv = [kind, "--bound", str(10 ** rng.randint(0, 300))]
    elif kind in ("symprod", "f3"):
        argv = [kind, "--genus", str(rng.randint(3, 5000))]
    else:
        argv = [kind, "--case", "opposite" if variant else "natural"]
    return argv + ["--json"] if as_json else argv


def param_sweep(rng: random.Random):
    """Seeded arguments that differ on every request.

    Each block of 40 holds every kind 4 times, with and without --json and
    with and without its variant, shuffled, so every seed has the same mix
    and only the arguments and the order vary."""
    while True:
        block = [(kind, as_json, variant) for kind in SWEEP_KINDS
                 for as_json in (False, True) for variant in (False, True)]
        rng.shuffle(block)
        for entry in block:
            yield _sweep_request(rng, *entry)


STREAMS = {"cold-cli": cold_cli, "report-all": report_all, "param-sweep": param_sweep}


def stream(workload: str, seed: int):
    return STREAMS[workload](random.Random(f"{workload}:{seed}"))


def argv_digest(workload: str, seed: int, count: int) -> str:
    """sha256 of the first ``count`` requests, to record what a run sent."""
    head = list(itertools.islice(stream(workload, seed), count))
    return hashlib.sha256(json.dumps(head).encode()).hexdigest()
