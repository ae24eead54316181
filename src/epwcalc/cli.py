"""Command-line front end: every computation exposed as a subcommand, with
plain-text or machine-readable JSON reports.

All reported values are exact rationals rendered as "p/q" (or a bare
integer); facts that are not numbers (the involution case, booleans) are
encoded as +1/-1 or 1/0 with the meaning spelled out in the note field.
Output is byte-deterministic: same arguments, same bytes.

The subcommands come from one registry of sections, and ``report-all``
walks an ordered table over it.  ``run`` reads a well-formed argv straight
from that registry (``_parse_fast``); help, abbreviations and every error go
to the argparse parser of ``build_parser``, imported only then, which writes
every help, usage and error message.  ``run`` can be called again and again
in one process, and no option carries over from one call to the next.
``Report.to_json`` writes the indent-2 layout of ``json.dumps`` itself, with
json's C string encoder: given an indent, ``json.dumps`` never uses its C one.
The Pell listing's values and labels come from process-wide tables of
text, built once and grown only past the largest bound asked for; from
the positive branch that ``degeneration`` walks, ``_rows_pell`` alone
builds the signed, sorted listing.
"""

from __future__ import annotations

import functools
import os
import sys
from collections import namedtuple
from fractions import Fraction
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii as _quote
from math import comb
from types import SimpleNamespace

from . import degeneration, fujiki, hodge_ring, lagrangian, llv, mukai

Row = tuple[str, Fraction | int | str, str]
#: the value types that ``_text`` writes with ``str`` (a set: fast to test)
_EXACT = frozenset((int, Fraction))


def _text(value) -> str:
    """A value as p/q or an integer; a bool goes through Fraction, not as
    "True", and a str, the decimal text of an int, is returned unchanged."""
    return value if type(value) is str else str(value if type(value) in _EXACT else Fraction(value))


def _nested(items: list[str], ends: str, before: str = "", after: str = "") -> str:
    """Encoded items as an object or array one level deep in the indent-2
    layout, between ``before`` and ``after``.  These go onto the first and
    last item, so the one join is the only copy of the items: the Pell
    listing's 6.3 MB of JSON took 20 ms with two more copies and 11 ms
    without (Python 3.11.7, shared 2-vCPU box)."""
    if not items:
        return before + ends + after
    items[0] = f"{before}{ends[0]}\n    {items[0]}"
    items[-1] += f"\n  {ends[1]}{after}"
    return ",\n    ".join(items)


class Report(namedtuple("Report", "command params rows")):
    """A command, its params (name -> value text) and its rows (label,
    value, note), rendered as text or JSON; a value is an int, a Fraction or
    the decimal text of an int (``_text``)."""
    __slots__ = ()

    def to_json(self) -> str:
        """``json.dumps`` of the report's payload at ``indent=2``, and a newline."""
        params = [f"{_quote(name)}: {_quote(value)}" for name, value in self.params.items()]
        # _text yields only "-", digits and "/": nothing for _quote to escape
        results = [f'{{\n      "label": {_quote(label)},\n      "value": "{_text(value)}",'
                   f'\n      "paper_anchor": {_quote(note)}\n    }}'
                   for label, value, note in self.rows]
        head = (f'{{\n  "command": {_quote(self.command)},\n  "params": {_nested(params, "{}")},'
                '\n  "results": ')
        return _nested(results, "[]", head, "\n}\n")

    def to_text(self) -> str:
        """The command and its params, then one aligned line per row, joined
        once: each line ends in its newline, so the payload is not copied
        again to add the last one."""
        head = self.command
        if self.params:
            head += "  (" + ", ".join(f"{k}={v}" for k, v in self.params.items()) + ")"
        width = max((len(label) for label, _, _ in self.rows), default=0)
        lines = [f"{head}\n"]
        lines += [f"  {label.ljust(width)}  {_text(value).rjust(12)}  # {note}\n"
                  for label, value, note in self.rows]
        return "".join(lines)


# ---------------------------------------------------------------------------
# row builders, one per subcommand (report-all reuses them)
# ---------------------------------------------------------------------------

def _rows_fujiki() -> list[Row]:
    note = "generalized Fujiki constant"
    return [(f"C({alpha})", fujiki.fujiki_constant(alpha), note)
            for alpha in fujiki.FUJIKI_CONSTANTS]


def _rows_ring(q: Fraction) -> list[Row]:
    note = "degree-12 monomial integral at q(h)=q"
    rows: list[Row] = [
        (f"integral {m}", ps.evaluate(q), note)
        for m, ps in hodge_ring.TOP_INTEGRALS.items()
    ]
    independent, det = hodge_ring.verify_independence_degree6(q)
    rows.append(("gram det (h^3, h*c2)", det, "degree-6 intersection Gram determinant"))
    rows.append(("independent (1=yes)", int(independent), "h^3, h*c2 stay independent"))
    c2_cubed, c2_c4, c6 = hodge_ring.chern_numbers_from_ring(q)
    rows.append(("c2^3", c2_cubed, "Chern number from ring multiplication"))
    rows.append(("c2*c4", c2_c4, "Chern number from ring multiplication"))
    rows.append(("c6", c6, "top Chern number (stored normalization)"))
    return rows


def _rows_relations(q: Fraction) -> list[Row]:
    x, y = hodge_ring.derive_degree8_relation(q)
    r_h3c2, r_hc2sq, r_hc4 = hodge_ring.derive_degree10_relations(q)
    return [
        ("c4 -> h^4 coefficient", x, "degree-8 relation solved from the pairing system"),
        ("c4 -> h^2*c2 coefficient", y, "degree-8 relation solved from the pairing system"),
        ("c2^2 / c4 ratio", hodge_ring.C2_SQUARED_OVER_C4,
         "both degree-8 classes are proportional"),
        ("h^3*c2 -> h^5 coefficient", r_h3c2, "degree-10 relation from top-integral ratios"),
        ("h*c2^2 -> h^5 coefficient", r_hc2sq, "degree-10 relation from top-integral ratios"),
        ("h*c4 -> h^5 coefficient", r_hc4, "degree-10 relation from top-integral ratios"),
    ]


def _rows_betti(case: str) -> list[Row]:
    note = f"quotient Betti number ({case} action)"
    betti = llv.betti_of_quotient(case)
    return [(f"b_{2 * i}", b, note) for i, b in enumerate(betti)]


def _rows_euler(case: str) -> list[Row]:
    return [
        ("chi quotient", llv.euler_of_quotient(case), f"invariant cohomology, {case} action"),
        ("chi sixfold", llv.SIXFOLD_EULER, "total dimension of the LLV character"),
        ("chi fixed locus", llv.euler_of_fixed_locus(case), "double-cover Euler relation"),
    ]


def _rows_lagrangian(degree: Fraction, q: Fraction) -> list[Row]:
    a, b = lagrangian.project_lagrangian_class(degree, q)
    base = lagrangian.projection_square(degree, q)
    rows: list[Row] = [
        ("a (h^3 coefficient)", a, "projection of the Lagrangian class"),
        ("b (h*c2 coefficient)", b, "projection of the Lagrangian class"),
        ("self-intersection of projection", base, "ring value of [W]^2 (eta part excluded)"),
    ]
    try:
        case, c, chi_top = lagrangian.disambiguate_involution_case(base)
    except ValueError:
        return rows
    full = lagrangian.self_intersection(a, b, c, q)
    num, den = full.as_integer_ratio()
    rows.append(("[W]^2 (ring value)", full, "with the eta contribution 4c^2"))
    rows.append(("chi_top", chi_top, f"fixed-locus Euler characteristic ({case} action)"))
    rows.append(("sign convention chi_top/[W]^2", Fraction(chi_top * den, num),
                 "the ring square and the Euler characteristic differ by sign;"
                 " both are reported rather than reconciled"))
    return rows


def _rows_fixed_locus(degree: Fraction, q: Fraction) -> list[Row]:
    inv = lagrangian.fixed_locus_invariants(degree, q)
    holds = lagrangian.hodge_symmetry_relation(inv.chi_structure, inv.chi_one_forms, inv.c3)
    return [
        ("involution case (+1 natural, -1 opposite)", 1 if inv.case == llv.CASES[0] else -1,
         "the action compatible with a rational eta coefficient"),
        ("eta coefficient", inv.eta, "component of the fixed-locus class outside h^3, h*c2"),
        ("chi_top", inv.c3, "double-cover Euler relation"),
        ("c1*c2", inv.c1c2, "restricted tangent Chern classes paired with the class"),
        ("chi(O)", inv.chi_structure, "Riemann-Roch: c1*c2/24"),
        ("chi(Omega^1)", inv.chi_one_forms, "chi(O) - chi_top/2"),
        ("c3", inv.c3, "equals the Euler characteristic"),
        ("K^3", inv.canonical_cube, "cube of the canonical class"),
        ("hodge symmetry (1=holds)", int(holds), "chi_top/2 = chi(O) - chi(Omega^1)"),
    ]


#: the degree-2 image of the contracted ray, in ``_WALL_CONSTANTS``
_RAY_IMAGE = mukai.theta_map(degeneration.CONTRACTED_RAY_VECTOR)
#: the walls values that depend on no beta, computed once: the Gram matrix of
#: (v, s), the contracted ray's image, its BBF square and divisibility, and
#: the genus-2 (odd, even) theta-characteristic counts
_WALL_CONSTANTS = (
    mukai.hyperbolic_lattice(degeneration.HILB_VECTOR, degeneration.SPHERICAL_VECTOR),
    _RAY_IMAGE, *mukai.square_and_divisibility(_RAY_IMAGE),
    *degeneration.theta_characteristic_counts(2))


def _rows_walls(beta: Fraction) -> list[Row]:
    alpha_sq = degeneration.wall_alpha_sq(beta)
    (re_s, im_s), (re_v, im_v), ratio = degeneration.central_charges(
        degeneration.SPHERICAL_VECTOR, degeneration.HILB_VECTOR, beta)
    gram, (a, b), square, div, odd, even = _WALL_CONSTANTS
    return [
        ("alpha^2", alpha_sq, "wall equation (beta+2)^2 + alpha^2 = 2"),
        ("Re Z(v)", re_v, "central charge of the Hilbert-cube class"),
        ("Im Z(v) / alpha", im_v, "central charge of the Hilbert-cube class"),
        ("Re Z(s)", re_s, "central charge of the spherical class"),
        ("Im Z(s) / alpha", im_s, "central charge of the spherical class"),
        ("Re(Z(s)/Z(v))", ratio, "effectivity ratio on the wall"),
        ("gram(v,v)", gram[0][0], "rank-2 hyperbolic sublattice"),
        ("gram(v,s)", gram[0][1], "rank-2 hyperbolic sublattice"),
        ("gram(s,s)", gram[1][1], "rank-2 hyperbolic sublattice"),
        ("contracted ray -> L coefficient", a, "degree-2 image of the contracted ray"),
        ("contracted ray -> delta coefficient", b, "degree-2 image of the contracted ray"),
        ("contracted ray square", square, "BBF square"),
        ("contracted ray divisibility", div, "divisibility in the full degree-2 lattice"),
        ("odd theta characteristics (genus 2)", odd, "components of the fixed locus downstairs"),
        ("even theta characteristics (genus 2)", even, "components of the fixed locus downstairs"),
    ]


#: per element (x, y) of the Pell branch, the decimal text of x, -x, y and -y;
#: per listed pair i, its labels ("x[i]", "y[i]").  A bound reads a prefix; a
#: table grows by one slice write of entries set by their index alone.
_PELL_TEXT: list[tuple[str, str, str, str]] = []
_PELL_LABELS: list[tuple[str, str]] = []


def _rows_pell(bound: int, list_solutions: bool = True) -> list[Row]:
    # the n branch pairs (x, y), their images (x, -y) and (-x, +-y), and
    # (0, +-1) are the 4n + 2 solutions with |x| <= bound
    branch = degeneration.pell_spherical_classes(bound)
    n = len(branch)
    count = 4 * n + 2
    # the images (-x, +-y) with x + y/2 >= 0, doubled to stay in the integers
    violations = sum(1 for x, y in branch for sy in (-y, y) if sy >= 2 * x)
    rows: list[Row] = [
        ("solution count", count, f"2x^2 - y^2 = -1 with |x| <= {bound}"),
        ("negative-x effectivity violations", violations,
         "x < 0 must force effectivity ratio x + y/2 < 0"),
    ]
    if list_solutions:
        # sorted: the branch negated and reversed, (0, -1) and (0, 1), then
        # the branch, each x with -y before y; zip stops at the 4n + 2 pairs
        text, labels = _PELL_TEXT, _PELL_LABELS
        if (m := len(text)) < n:
            text[m:n] = [(sx := str(x), "-" + sx, sy := str(y), "-" + sy) for x, y in branch[m:n]]
        if (m := len(labels)) < count:
            labels[m:count] = [(f"x[{i}]", f"y[{i}]") for i in range(m, count)]
        values = [v for _, nx, sy, ny in reversed(text[:n]) for v in (nx, ny, nx, sy)]
        values += ("0", "-1", "0", "1")
        values += [v for sx, _, sy, ny in text[:n] for v in (sx, ny, sx, sy)]
        rows += zip(chain.from_iterable(labels), values, repeat("Pell solution, sorted"))
    return rows


def _rows_ext() -> list[Row]:
    note = "Ext^1 dimensions at the polystable point of the contraction"
    return [(label, value, note) for label, value in degeneration.ext_dimensions().items()]


def _rows_kuranishi() -> list[Row]:
    return [
        ("u1^2 - u2*u3 reduces to 0 (1=yes)", int(degeneration.kuranishi_identity_check()),
         "Kuranishi identity under the contraction substitution"),
        ("same with u2 sign flipped (1=yes)",
         int(degeneration.kuranishi_identity_check(u2_sign=+1)),
         "control: the identity needs the minus sign"),
    ]


#: the coefficients of (theta - 6*eta)^3 on theta^i * eta^(3-i), which do
#: not depend on the genus, and of each monomial theta^i * eta^(3-i), by i
_THETA_MINUS_6ETA_CUBED = tuple(comb(3, i) * (-6) ** (3 - i) for i in range(4))
_MONOMIALS = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))


def _rows_symprod(genus: int) -> list[Row]:
    return [
        ("(theta - 6*eta)^3", degeneration.sym_prod_eval(genus, _THETA_MINUS_6ETA_CUBED),
         "self-intersection on the third symmetric product"),
        *((f"theta^{i}*eta^{3 - i}", degeneration.sym_prod_eval(genus, _MONOMIALS[i]),
           "monomial count g!/(g-i)!") for i in (3, 2, 1, 0)),
        ("[E] theta-coefficient in the Jacobian", degeneration.jacobian_class_of_E(genus),
         "collapses to g - 8 by factorial algebra"),
    ]


def _rows_f3(genus: int) -> list[Row]:
    table = degeneration.f3_hodge_relations(genus)
    return [
        ("genus", table.genus, "third symmetric product of a curve of this genus"),
        ("h^(0,1)", table.h1_structure, "vanishes for the fixed threefold"),
        ("h^(0,2) lower bound", table.h02_lower_bound, table.h02_relation),
        ("h^(0,3) - h^(0,2)", table.h03_minus_h02, table.h03_relation),
        ("h^(1,2) - h^(0,2) - h^(1,1)", table.h12_minus_h02_minus_h11,
         "from chi(Omega^1) once h^(0,1) vanishes"),
    ]


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

#: largest exponent a value such as "1.5e3" may carry, and largest --bound.
#: Past the first, ``Fraction`` builds an integer longer than the
#: interpreter's default int-to-str limit of 4300 digits; past the second,
#: the Pell report lists thousands of solutions, megabytes of them.  At the
#: cap, ``pell --bound 10^1000`` walks 1306 branch steps (about 1.3 ms) and
#: lists 5226 pairs (6.3 MB of JSON).  Medians, Python 3.11.7 on a shared
#: 2-vCPU box, text and JSON alike: 14 ms in process with the Pell text
#: tables built and 140 ms as a fresh process (16 runs each).
_MAX_EXPONENT = 4300
_MAX_BOUND = 10 ** 1000


def _invalid(message: str) -> Exception:
    """The error argparse reports for a value its converter rejects."""
    import argparse
    return argparse.ArgumentTypeError(message)


def _rational(text: str) -> Fraction:
    _, e, exponent = text.lower().rpartition("e")
    try:
        # a string with an "e" is a rational only if what follows is an int
        if e and abs(int(exponent)) > _MAX_EXPONENT:
            raise _invalid(f"exponent beyond {_MAX_EXPONENT} in magnitude: {text!r}")
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise _invalid(f"not a rational number: {text!r}") from None


def _bound(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise _invalid(f"invalid int value: {text!r}") from None
    if value > _MAX_BOUND:
        raise _invalid(f"bound above 10^1000: {text!r}")
    return value


_Q = {"type": _rational, "default": lagrangian.EPW_Q,
      "help": f"BBF square of the polarization (default {lagrangian.EPW_Q})"}
_DEGREE = {"type": _rational, "default": lagrangian.EPW_DEGREE,
           "help": f"h^3-degree of the fixed locus (default {lagrangian.EPW_DEGREE})"}
_CASE = {"choices": llv.CASES, "default": llv.CASES[0],
         "help": "involution action on the non-Verbitsky summand"}


def _rows_report_all(q: Fraction, degree: Fraction) -> list[Row]:
    """Every section of ``_REPORT_ALL`` at its defaults, except that q and
    degree pass down to the sections that take them."""
    shared = {"q": q, "degree": degree}
    rows: list[Row] = []
    for head, section_rows, defaults in _REPORT_ALL:
        section = (section_rows(**{k: shared.get(k, v) for k, v in defaults.items()})
                   if defaults else section_rows())
        rows += [(head + label, value, note) for label, value, note in section]
    return rows


#: subcommand -> (help, rows function, options).  ``options`` maps each
#: option name to its ``add_argument`` keywords; the rows function takes the
#: parsed options as keyword arguments, and the report's params are the same
#: options, in declaration order, rendered with ``str``.
_SECTIONS = {
    "fujiki": ("generalized Fujiki constants", _rows_fujiki, {}),
    "ring": ("top-degree integrals, Gram determinant, Chern numbers", _rows_ring,
             {"q": _Q}),
    "relations": ("degree-8 and degree-10 ring relations", _rows_relations, {"q": _Q}),
    "betti": ("Betti numbers of the involution quotient", _rows_betti, {"case": _CASE}),
    "euler": ("Euler characteristics of quotient and fixed locus", _rows_euler,
              {"case": _CASE}),
    "lagrangian": ("projection of the Lagrangian class", _rows_lagrangian,
                   {"degree": _DEGREE, "q": _Q}),
    "fixed-locus": ("invariants of the fixed threefold", _rows_fixed_locus,
                    {"degree": _DEGREE, "q": _Q}),
    "walls": ("wall point, central charges, contracted ray", _rows_walls,
              {"beta": {"type": _rational, "default": Fraction(-2),
                        "help": "beta coordinate on the wall branch (default -2)"}}),
    "pell": ("spherical classes on the wall from the Pell equation", _rows_pell,
             {"bound": {"type": _bound, "default": 10 ** 6,
                        "help": "list solutions with |x| up to this bound "
                                "(default 10^6, at most 10^1000)"}}),
    "ext": ("Ext dimensions at the contraction", _rows_ext, {}),
    "kuranishi": ("Kuranishi identity for the singularity type", _rows_kuranishi, {}),
    "symprod": ("symmetric-product intersection calculus", _rows_symprod,
                {"genus": {"type": int, "default": 10, "help": "genus of the curve (default 10)"}}),
    "f3": ("Hodge-number relations for the fixed threefold", _rows_f3,
           {"genus": {"type": int, "default": degeneration.SEXTIC_GENUS,
                      "help": "genus override (default: plane sextic)"}}),
    "report-all": ("every headline number in one report", _rows_report_all,
                   {"q": _Q, "degree": _DEGREE}),
}


#: (label prefix and ": ", rows function, keyword arguments) in report
#: order, resolved once, at import, from a table of (label prefix, section,
#: arguments beyond the section's options): the keyword arguments are the
#: section's defaults and those arguments, and a request substitutes only q
#: and degree.  A table rather than a walk over the registry, because the
#: report interleaves the betti and euler rows of the two involution cases.
_REPORT_ALL = tuple(
    (prefix + ": ", _SECTIONS[name][1],
     {**{opt: spec["default"] for opt, spec in _SECTIONS[name][2].items()}, **arguments})
    for prefix, name, arguments in (
        ("fujiki", "fujiki", {}),
        ("ring", "ring", {}),
        ("relations", "relations", {}),
        *((f"{name} {case}", name, {"case": case})
          for case in llv.CASES for name in ("betti", "euler")),
        ("lagrangian", "lagrangian", {}),
        ("fixed-locus", "fixed-locus", {}),
        ("walls", "walls", {}),
        ("pell", "pell", {"list_solutions": False}),
        ("ext", "ext", {}),
        ("kuranishi", "kuranishi", {}),
        ("symprod", "symprod", {}),
        ("f3", "f3", {}),
    ))


@functools.cache
def build_parser():
    """The argparse parser of every subcommand, built on the first call and
    shared by every later one; parsing leaves no state in it.  ``run`` uses
    it for every argv that ``_parse_fast`` does not read."""
    import argparse
    import re

    class _Parser(argparse.ArgumentParser):
        """Reads "-5/2", "-15e-1" or "-inf" after an option as its value:
        argparse's own test for negative numbers knows only "-5" and "-2.5",
        and takes anything else that starts with "-" for an option.  Here
        every token that starts with one "-" and is not the help option "-h"
        is a value, and the option's type decides whether it is a valid one;
        every other option name starts with "--".  Rejects "--q=--", for
        which argparse before Python 3.12 drops the "--" and hands the option
        an empty list as its value.  Subparsers inherit the class."""

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self._negative_number_matcher = re.compile(r"^-[^-]")

        def _get_values(self, action, arg_strings):
            if action.option_strings and action.nargs is None and arg_strings == ["--"]:
                raise argparse.ArgumentError(action, "expected one argument")
            return super()._get_values(action, arg_strings)

    parser = _Parser(
        prog="epwcalc",
        description="Exact-arithmetic invariants of EPW cubes and the fixed "
                    "locus of their antisymplectic involution.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a JSON report")
    common.add_argument("--out", metavar="PATH", help="write the report to a file")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, _, options) in _SECTIONS.items():
        p = sub.add_parser(command, parents=[common], help=help_text)
        for name, kwargs in options.items():
            p.add_argument(f"--{name}", **kwargs)
    return parser


def _parse_fast(argv):
    """The namespace ``build_parser().parse_args(argv)`` gives, read straight
    from ``_SECTIONS``, when argv is a section and then only ``--json``,
    ``--opt=value`` or ``--opt value`` (value not starting with "-") for
    ``--out`` and the section's options, each value taken by the option's
    ``type`` and ``choices``; ``None`` for every other argv."""
    if not argv or argv[0] not in _SECTIONS:
        return None
    specs = {"out": {"default": None}, **_SECTIONS[argv[0]][2]}
    args = {"command": argv[0], "json": False}
    args.update((name, spec["default"]) for name, spec in specs.items())
    tokens = iter(argv[1:])
    for token in tokens:
        if token == "--json":
            args["json"] = True
            continue
        option, eq, text = token.partition("=")
        if not eq:
            text = next(tokens, "-")  # no value left: as malformed as "-x"
        name = option[2:] if option.startswith("--") else None
        if name not in specs or text == "--" or not eq and text.startswith("-"):
            return None
        spec = specs[name]
        try:
            args[name] = spec.get("type", str)(text)
        except Exception:  # argparse reports whatever the converter raised
            return None
        if "choices" in spec and args[name] not in spec["choices"]:
            return None
    return SimpleNamespace(**args)


def _error(exc: Exception | str) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return 1


def _flushed(stream, payload: str = "") -> bool:
    """Write and flush ``payload``; False when the reader of ``stream`` has
    gone, and the stream then points at ``os.devnull``, as the Python docs
    advise for SIGPIPE, so that the flush at exit cannot raise again."""
    try:
        stream.write(payload)
        stream.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
        return False
    return True


def run(argv=None) -> int:
    """Entry point; returns the exit code (0 ok, 1 computation, 2 usage).
    ``_parse_fast`` reads the argv if it can, else ``build_parser``'s."""
    args = _parse_fast(sys.argv[1:] if argv is None else argv)
    try:
        args = args or build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse ignores a reader of its help (stdout) or usage error
        # (stderr) that has gone: flush both here, not at exit
        if sys.stdout is not None and not _flushed(sys.stdout):
            return 1
        if sys.stderr is not None:
            _flushed(sys.stderr)
        return exc.code if isinstance(exc.code, int) else 2
    _, rows, options = _SECTIONS[args.command]
    values = {name: getattr(args, name) for name in options}
    try:
        report = Report(args.command, {name: str(value) for name, value in values.items()},
                        rows(**values))
        # rendering raises too: an int past the interpreter's digit limit
        payload = report.to_json() if args.json else report.to_text()
    except (ValueError, ZeroDivisionError) as exc:
        return _error(exc)
    if args.out is None:  # 1 when stdout is closed (None) or its reader has gone
        if sys.stdout is None:
            return _error("standard output is closed")
        return 0 if _flushed(sys.stdout, payload) else 1
    try:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(payload)
    except (OSError, ValueError) as exc:  # ValueError: a NUL or a lone surrogate in the path
        return _error(exc)
    return 0


if __name__ == "__main__":
    sys.exit(run())
