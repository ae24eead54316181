"""Output checks, computed by the benchmark itself from the golden report
and closed-form identities, never by the code under test.

``check(golden, argv, code, out, err)`` returns None for a correct response
and a one-line reason otherwise.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from math import comb, perm
from pathlib import Path

GOLDEN = Path("tests") / "golden" / "report_all.json"

#: the CLI's option defaults, which are also report-all's point
DEFAULTS = {"q": Fraction(4), "degree": Fraction(720), "beta": Fraction(-2),
            "bound": 10 ** 6, "genus": None, "case": "natural"}


def parse_argv(argv: list[str]) -> tuple[str, dict, bool]:
    """(command, options with defaults filled in, whether --json was given)."""
    command, opts, as_json = argv[0], dict(DEFAULTS), False
    tokens = iter(argv[1:])
    for token in tokens:
        if token == "--json":
            as_json = True
            continue
        key, sep, value = token[2:].partition("=")
        opts[key] = value if sep else next(tokens)
    for key in ("q", "degree", "beta"):
        opts[key] = Fraction(opts[key])
    for key in ("bound", "genus"):
        if opts[key] is not None:
            opts[key] = int(opts[key])
    if command == "symprod" and opts["genus"] is None:
        opts["genus"] = 10
    return command, opts, as_json


def parse_rows(out: str, as_json: bool) -> list[tuple[str, str]]:
    """(label, value) pairs of a JSON or plain-text report."""
    if as_json:
        return [(r["label"], r["value"]) for r in json.loads(out)["results"]]
    rows = []
    for line in out.splitlines()[1:]:
        label, value = line.split("  # ", 1)[0].rsplit(None, 1)
        rows.append((label.strip(), value))
    return rows


class Golden:
    """The checked-in report-all output, read and never written."""

    def __init__(self, root: Path):
        self.text = (root / GOLDEN).read_text(encoding="utf-8")
        rows = parse_rows(self.text, as_json=True)
        self.rows = {label: Fraction(value) for label, value in rows}

    def section(self, prefix: str) -> dict[str, Fraction]:
        head = prefix + ": "
        return {k[len(head):]: v for k, v in self.rows.items() if k.startswith(head)}

    def __getitem__(self, label: str) -> Fraction:
        return self.rows[label]


def _fujiki(golden: Golden) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    f = golden.section("fujiki")
    return f["C(1)"], f["C(c2)"], f["C(c2^2)"], f["C(c4)"]


def _expect_ring(g: Golden, q: Fraction) -> dict:
    c1, cc2, csq, c4 = _fujiki(g)
    return {
        "integral h^6": c1 * q ** 3,
        "integral h^4*c2": cc2 * q ** 2,
        "integral h^2*c2^2": csq * q,
        "integral h^2*c4": c4 * q,
        "gram det (h^3, h*c2)": (c1 * csq - cc2 ** 2) * q ** 4,
        "independent (1=yes)": 1,
        "c2^3": g["ring: c2^3"],
        "c2*c4": g["ring: c2*c4"],
        "c6": g["ring: c6"],
    }


def _expect_relations(g: Golden, q: Fraction) -> dict:
    c1, cc2, csq, c4 = _fujiki(g)
    c2c4 = g["ring: c2*c4"]
    det = (c1 * csq - cc2 ** 2) * q ** 4
    return {
        "c4 -> h^4 coefficient": (c4 * q * csq * q - cc2 * q ** 2 * c2c4) / det,
        "c4 -> h^2*c2 coefficient": (c1 * q ** 3 * c2c4 - cc2 * q ** 2 * c4 * q) / det,
        "c2^2 / c4 ratio": csq / c4,
        "h^3*c2 -> h^5 coefficient": cc2 / (c1 * q),
        "h*c2^2 -> h^5 coefficient": csq / (c1 * q ** 2),
        "h*c4 -> h^5 coefficient": c4 / (c1 * q ** 2),
    }


def _rational_sqrt(x: Fraction) -> Fraction | None:
    n, d = math.isqrt(x.numerator), math.isqrt(x.denominator)
    return Fraction(n, d) if n * n == x.numerator and d * d == x.denominator else None


def _lagrangian_point(g: Golden, q: Fraction, degree: Fraction):
    """(a, b, base square, [(case, eta coefficient, chi_top)] admissible)."""
    c1, cc2, csq, _ = _fujiki(g)
    b = -degree / (72 * q ** 2)
    a = -12 * b / q
    base = a * a * c1 * q ** 3 + 2 * a * b * cc2 * q ** 2 + b * b * csq * q
    admissible = []
    for case in ("natural", "opposite"):
        chi = g[f"euler {case}: chi fixed locus"]
        c_sq = (-chi - base) / 4
        c = _rational_sqrt(c_sq) if c_sq >= 0 else None
        if c is not None:
            admissible.append((case, c, chi))
    return a, b, base, admissible


def _expect_lagrangian(g: Golden, q: Fraction, degree: Fraction) -> dict:
    a, b, base, admissible = _lagrangian_point(g, q, degree)
    rows = {"a (h^3 coefficient)": a, "b (h*c2 coefficient)": b,
            "self-intersection of projection": base}
    if len(admissible) == 1:
        (_, c, chi), = admissible
        rows.update({"[W]^2 (ring value)": base + 4 * c * c, "chi_top": chi,
                     "sign convention chi_top/[W]^2": chi / (base + 4 * c * c)})
    return rows


def _expect_fixed_locus(g: Golden, q: Fraction, degree: Fraction) -> dict:
    c1, cc2, csq, _ = _fujiki(g)
    a, b, _, ((case, c, chi),) = _lagrangian_point(g, q, degree)
    # pairing of 4*h^3 + h*c2 with a*h^3 + b*h*c2
    c1c2 = -(4 * a * c1 * q ** 3 + (4 * b + a) * cc2 * q ** 2 + b * csq * q)
    return {
        "involution case (+1 natural, -1 opposite)": 1 if case == "natural" else -1,
        "eta coefficient": c,
        "chi_top": chi,
        "c1*c2": c1c2,
        "chi(O)": c1c2 / 24,
        "chi(Omega^1)": c1c2 / 24 - chi / 2,
        "c3": chi,
        "K^3": 8 * degree,
        "hodge symmetry (1=holds)": 1,
    }


def _charge(r: int, c: int, s: int, beta: Fraction, alpha_sq: Fraction):
    """Z(v) = 2c(beta + i alpha) - s - r(beta + i alpha)^2 as (re, im/alpha)."""
    return 2 * c * beta - s - r * (beta ** 2 - alpha_sq), 2 * c - 2 * r * beta


def _expect_walls(g: Golden, beta: Fraction) -> dict:
    alpha_sq = 2 - (beta + 2) ** 2
    (vre, vim), (sre, sim) = (_charge(1, 0, -2, beta, alpha_sq),
                              _charge(1, -1, 2, beta, alpha_sq))
    rows = {label: value for label, value in g.section("walls").items()
            if label.startswith(("gram", "contracted", "odd", "even"))}
    rows.update({
        "alpha^2": alpha_sq,
        "Re Z(v)": vre, "Im Z(v) / alpha": vim,
        "Re Z(s)": sre, "Im Z(s) / alpha": sim,
        "Re(Z(s)/Z(v))": (sre * vre + sim * vim * alpha_sq) / (vre ** 2 + vim ** 2 * alpha_sq),
    })
    return rows


def _check_pell(values: dict, bound: int) -> str | None:
    n = (len(values) - 2) // 2
    pairs = [(values[f"x[{i}]"], values[f"y[{i}]"]) for i in range(n)]
    if values["solution count"] != n or values["negative-x effectivity violations"] != 0:
        return "pell: count or violation row"
    if pairs != sorted(set(pairs)) or not pairs:
        return "pell: pairs not sorted and distinct"
    for x, y in pairs:
        if 2 * x * x - y * y != -1 or abs(x) > bound:
            return f"pell: ({x}, {y}) off the equation or past the bound"
    x, y = pairs[-1]
    if 3 * x + 2 * y <= bound:
        return "pell: the next solution is within the bound"
    return None


def _expect_symprod(genus: int) -> dict:
    rows = {"(theta - 6*eta)^3": sum(comb(3, i) * (-6) ** (3 - i) * perm(genus, i)
                                     for i in range(4))}
    for i in (3, 2, 1, 0):
        rows[f"theta^{i}*eta^{3 - i}"] = perm(genus, i)
    rows["[E] theta-coefficient in the Jacobian"] = genus - 8
    return rows


def _expect_f3(g: Golden, genus: int | None) -> dict:
    rows = dict(g.section("f3"))
    if genus is not None:
        rows.update({"genus": genus, "h^(0,2) lower bound": comb(genus, 2)})
    rows["h^(0,1)"] = 0
    return rows


def expects_error(golden: Golden, argv: list[str]) -> bool:
    """Whether the request must exit 1: only ``fixed-locus`` away from a
    point where exactly one involution case is admissible."""
    command, opts, _ = parse_argv(argv)
    if command != "fixed-locus":
        return False
    return len(_lagrangian_point(golden, opts["q"], opts["degree"])[3]) != 1


def _expected_rows(golden: Golden, command: str, opts: dict) -> dict | None:
    q, degree = opts["q"], opts["degree"]
    if command == "ring":
        return _expect_ring(golden, q)
    if command == "relations":
        return _expect_relations(golden, q)
    if command == "lagrangian":
        return _expect_lagrangian(golden, q, degree)
    if command == "fixed-locus":
        return _expect_fixed_locus(golden, q, degree)
    if command == "walls":
        return _expect_walls(golden, opts["beta"])
    if command == "symprod":
        return _expect_symprod(opts["genus"])
    if command == "f3":
        return _expect_f3(golden, opts["genus"])
    if command in ("betti", "euler"):
        return golden.section(f"{command} {opts['case']}")
    if command in ("fujiki", "ext", "kuranishi"):
        return golden.section(command)
    if command == "report-all":
        return golden.rows
    return None  # pell is checked row by row


def _golden_prefix(argv: list[str], command: str, opts: dict) -> str | None:
    """The golden section a request at its default arguments must match."""
    if any(token != "--json" for token in argv[1:]):
        return None
    return f"{command} {opts['case']}" if command in ("betti", "euler") else command


def check(golden: Golden, argv: list[str], code: int | None, out: str, err: str) -> str | None:
    """Why the response (exit code, stdout, stderr) to ``argv`` is wrong, or None."""
    if "Traceback" in err:
        return "traceback"
    if expects_error(golden, argv):
        if code != 1:
            return f"exit {code} where exit 1 was expected"
        if sum(line.startswith("error:") for line in err.splitlines()) != 1:
            return "exit 1 without exactly one error line"
        return None
    if code != 0:
        return f"exit {code}"
    if list(argv) == ["report-all", "--json"]:
        return None if out == golden.text else "report-all differs from the golden file"
    command, opts, as_json = parse_argv(argv)
    try:
        values = {label: Fraction(value) for label, value in parse_rows(out, as_json)}
    except (ValueError, KeyError, ZeroDivisionError) as exc:
        return f"unparsable output: {exc}"
    prefix = _golden_prefix(argv, command, opts)
    if prefix is not None:
        for label, value in golden.section(prefix).items():
            if values.get(label) != value:
                return f"{prefix}: {label!r} differs from the golden row"
    if command == "pell":
        try:
            return _check_pell(values, opts["bound"])
        except KeyError as exc:
            return f"pell: missing row {exc}"
    expected = _expected_rows(golden, command, opts)
    if values != expected:
        wrong = sorted(set(values.items()) ^ set(expected.items()))
        return f"{command}: rows differ at {wrong[:2]}"
    return None
