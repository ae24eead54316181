"""Command-line front end: every computation exposed as a subcommand, with
plain-text or machine-readable JSON reports.

Every row value is an int or a ``Fraction``, written with ``str`` as "p/q"
or a bare integer; facts that are not numbers (the involution case,
booleans) are encoded as +1/-1 or 1/0 with the meaning spelled out in the
note field.  Output is byte-deterministic: same arguments, same bytes.  A
value too long for the interpreter's int-to-str limit is one error line.

The subcommands come from one registry of sections, each naming its
options, whose ``add_argument`` keywords are written once, in ``_OPTIONS``;
``report-all`` calls the sections' row builders itself.  ``run`` reads a
well-formed argv straight from the two: ``_parse_fast`` copies its section's
parse table (``_fast_table``, built once per section, the parse layer's only
memo), and ``_rational`` reads a plain "p/q" from its two ints.  Help,
abbreviations and every error go to an argparse parser, imported only then
and built by ``build_parser`` for that argv with the options of the section
it names alone, which writes every help, usage and error message (``vars()``
of its namespace is the same dict).  ``run`` may be called again and again
in one process; no option carries over from one call to the next, and a
broken pipe keeps no descriptor open.
``Report.to_json`` writes ``json.dumps``'s indent-2 layout itself, quoting
with the C encoder of ``_json`` (``json.encoder``'s where it is missing),
which ``json.dumps`` skips once it has an indent.  The Pell listing is
joined once from process-wide tables of its row heads and values, its
negative half put in backwards by one slice (``_PellListing``).  Only a
bound past the largest one walked walks the branch again and grows them.  A
process ends in ``main``, ``run`` then ``gc.freeze()``: shutdown walks no
loaded module.  ``run`` never freezes; a caller that stays would pin garbage.

The seven modules below ``cli`` are bound by ``_lazy``, the lazy-import
recipe of the importlib docs (``importlib.util.LazyLoader``): each is in
``sys.modules`` and on the package from the start, where whatever looks for
it once ``cli`` is imported (the benchmark's tracer does) finds it, but is
compiled and run only when one of its attributes is first read, so a cold
request compiles only the modules its rows use.  For this to pay, nothing
at import reads a section module's attribute: ``_options`` builds an
option's keywords when asked, and the walls constants are built on first
use.  ``run`` holds a lock from parse to payload: before Python 3.13 a
module that one thread is loading is not safe to read from another.
"""

import functools
import gc
import importlib.util
import os
import sys
from _thread import allocate_lock
from collections import namedtuple
from fractions import Fraction
from itertools import accumulate
from math import comb
try:
    from _json import encode_basestring_ascii as _quote
except ImportError:
    from json.encoder import encode_basestring_ascii as _quote


def _lazy(name: str):
    """The module ``epwcalc.<name>``: the one in ``sys.modules`` if it has
    been imported, else a lazy one, put there and on the package."""
    fullname = f"{__package__}.{name}"
    if fullname not in sys.modules:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        sys.modules[fullname] = module = importlib.util.module_from_spec(spec)
        setattr(sys.modules[__package__], name, module)
        spec.loader.exec_module(module)
    return sys.modules[fullname]


qfield, fujiki, hodge_ring, llv, lagrangian, mukai, degeneration = map(
    _lazy, ("qfield", "fujiki", "hodge_ring", "llv", "lagrangian", "mukai", "degeneration"))

Row = tuple[str, Fraction | int, str]
#: each layout's row as the pieces around its label, value and note: module
#: constants, as fast in an f-string as literal text
_JSON_ROW = _J0, _J1, _J2, _J3 = ('{\n      "label": ', ',\n      "value": "',
                                  '",\n      "paper_anchor": ', "\n    }")
_TEXT_ROW = _T0, _T1, _T2, _T3 = ("  ", "  ", "  # ", "\n")
_VALUE_WIDTH, _SEP = 12, ",\n    "  # the text values' column; JSON's object separator


class Report(namedtuple("Report", "command params rows")):
    """A command, its params (name -> value text) and its rows (label, value,
    note), then any Pell listing (``_PellRows``), rendered as text or JSON."""
    __slots__ = ()

    def to_json(self) -> str:
        """``json.dumps`` of the report's payload at ``indent=2``, and a newline,
        joined once: the head goes onto the first piece, the tail onto the last."""
        params = _SEP.join([f"{_quote(k)}: {_quote(v)}" for k, v in self.params.items()])
        params = f"{{\n    {params}\n  }}" if params else "{}"
        head = f'{{\n  "command": {_quote(self.command)},\n  "params": {params},\n  "results": ['
        if not self.rows:
            return f"{head}]\n}}\n"
        # an int or Fraction writes only "-", digits and "/": nothing to escape
        results = [f"{_J0}{_quote(label)}{_J1}{value}{_J2}{_quote(note)}{_J3}"
                   for label, value, note in self.rows]
        results[0] = f"{head}\n    {results[0]}"
        if type(self.rows) is _PellRows:  # the listing's pieces start with a separator
            return _PELL_JSON.render(self.rows.n, 0, lambda label: _quote(label) + _J1,
                                     _SEP.join(results), "\n  ]\n}\n")
        results[-1] += "\n  ]\n}\n"
        return _SEP.join(results)

    def to_text(self) -> str:
        """The command and its params, then one aligned line per row, joined
        once: each line ends in its newline, and any Pell listing takes the
        lines onto its first piece, so no payload is copied again."""
        head = self.command
        if self.params:
            head += "  (" + ", ".join([f"{k}={v}" for k, v in self.params.items()]) + ")"
        width = max([len(label) for label, _, _ in self.rows], default=0)
        lines = [f"{head}\n"]
        lines += [f"{_T0}{label.ljust(width)}{_T1}{str(value).rjust(_VALUE_WIDTH)}"
                  f"{_T2}{note}{_T3}" for label, value, note in self.rows]
        if type(self.rows) is _PellRows:
            return _PELL_TEXT.render(self.rows.n, width, lambda label: label.ljust(width) + _T1,
                                     "".join(lines), "")
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


@functools.cache
def _wall_constants() -> tuple:
    """The walls values that depend on no beta, computed once: the Gram
    matrix of (v, s), the degree-2 image of the contracted ray, its BBF
    square and divisibility, and the genus-2 (odd, even) theta-characteristic
    counts."""
    ray = mukai.theta_map(degeneration.CONTRACTED_RAY_VECTOR)
    return (mukai.hyperbolic_lattice(degeneration.HILB_VECTOR, degeneration.SPHERICAL_VECTOR),
            ray, *mukai.square_and_divisibility(ray),
            *degeneration.theta_characteristic_counts(2))


def _rows_walls(beta: Fraction) -> list[Row]:
    alpha_sq = degeneration.wall_alpha_sq(beta)
    (re_s, im_s), (re_v, im_v), ratio = degeneration.central_charges(
        degeneration.SPHERICAL_VECTOR, degeneration.HILB_VECTOR, beta)
    gram, (a, b), square, div, odd, even = _wall_constants()
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


class _PellRows(list):
    """Rows after which ``Report`` lists the first ``n`` branch elements' 4n + 2 pairs."""
    __slots__ = ("n",)


class _PellListing:
    """The Pell listing in one layout, from tables grown by slice writes of
    entries set by their index alone: row heads by label width and position;
    values padded to ``width``, from (0, 1) x, -y, x, y per branch element,
    and from (0, -1) y, -x, -y, -x, which the listing reads backwards."""

    def __init__(self, row: tuple[str, str, str, str], quote=str, width: int = 0, sep: str = ""):
        a, _, c, d = row  # start: before the first head; joint: from a value to the next
        self.end = f"{c}{quote('Pell solution, sorted')}{d}"
        self.start, self.joint, self.width = sep + a, f"{self.end}{sep}{a}", width
        pad = [v.rjust(width) for v in ("-1", "0", "1")]  # (0, 1), and (0, -1) backwards
        self.heads, self.positive, self.negative = {}, pad[1:], pad[:2]

    def render(self, n: int, label_width: int, head, lead: str, tail: str) -> str:
        """``lead``, the first n branch elements' listing and ``tail``, joined
        once: per value, its head ``head(label)``, the value and ``joint``."""
        heads = self.heads.setdefault(label_width, [])
        if (k := len(heads)) < (m := 8 * n + 4):  # x and y of each pair
            heads[k:m] = [head(f"{'xy'[j % 2]}[{j // 2}]") for j in range(k, m)]
        parts = [self.joint] * (3 * m)
        parts[::3], parts[0], parts[-1] = heads[:m], lead + self.start + heads[0], self.end + tail
        parts[12 * n + 4::-3] = self.negative[:4 * n + 2]  # from (0, -1) backwards
        parts[12 * n + 7::3] = self.positive[:4 * n + 2]
        return "".join(parts)


_PELL_LISTINGS = _PELL_JSON, _PELL_TEXT = (_PellListing(_JSON_ROW, _quote, sep=_SEP),
                                           _PellListing(_TEXT_ROW, width=_VALUE_WIDTH))
#: per k, the effectivity violations among the first k branch elements, written
#: after the listings, and the largest bound walked, stored last: all cover it
_PELL_VIOLATIONS, _PELL_WALKED = [0], 0


def _rows_pell(bound: int) -> list[Row]:
    global _PELL_WALKED
    # the n branch pairs (x, y), their images (x, -y) and (-x, +-y), and
    # (0, +-1) are the 4n + 2 solutions with |x| <= bound
    text, violations = str(bound), _PELL_VIOLATIONS
    if 0 < bound <= _PELL_WALKED:  # no walk: bisect the listed x_k = positive[4k + 2]
        xs, key, n, hi = _PELL_JSON.positive, (len(text), text), 0, len(violations) - 1
        while n < hi:  # positive decimals sort by (length, text)
            x = xs[4 * (mid := (n + hi) // 2) + 2]
            n, hi = (mid + 1, hi) if (len(x), x) <= key else (n, mid)
    else:
        branch = degeneration.pell_spherical_classes(bound)
        # one str per x, -x, y, -y for every listing, each written by index alone
        if (k := len(violations) - 1) < (n := len(branch)):
            texts = [(sx := str(x), "-" + sx, sy := str(y), "-" + sy) for x, y in branch[k:]]
            for f in _PELL_LISTINGS:  # x, -y, x, y and y, -x, -y, -x
                for side, order in ((f.positive, (0, 3, 0, 2)), (f.negative, (2, 1, 3, 1))):
                    side[4 * k + 2:4 * n + 2] = [t[i].rjust(f.width) for t in texts for i in order]
            # the images (-x, +-y) with x + y/2 >= 0, doubled to stay in the
            # integers: x, y > 0 on the branch, so no (-x, -y) is one.  A list,
            # as a slice write fixes its ends before it runs an iterator
            violations[k:n + 1] = list(accumulate((y >= x + x for x, y in branch[k:]),
                                                  initial=violations[k]))
        _PELL_WALKED = bound
    rows = _PellRows([("solution count", 4 * n + 2, f"2x^2 - y^2 = -1 with |x| <= {text}"),
                      ("negative-x effectivity violations", violations[n],
                       "x < 0 must force effectivity ratio x + y/2 < 0")])
    rows.n = n
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

#: most digits of an option value's numerator and denominator, and largest
#: --bound.  The first is the interpreter's default int-to-str limit: the
#: report could not echo a longer value.  It caps the exponent of a value
#: such as "1.5e3" as well, before ``Fraction`` builds the power of ten.
#: Past the second, the Pell report lists thousands of solutions, megabytes of
#: them: ``pell --bound 10^1000`` lists 5226 pairs (6.3 MB of JSON) in 1.9 ms
#: with the tables built, 81 ms as a fresh process, which also walks the 1306
#: branch steps (0.45 ms); medians of 16, Python 3.11.7 on a shared 2-vCPU box.
_MAX_DIGITS = 4300
_TOO_LONG = 10 ** _MAX_DIGITS  # the least integer with more digits
_MAX_BOUND = 10 ** 1000


def _invalid(message: str) -> Exception:
    """The error argparse reports for a value its converter rejects."""
    import argparse
    return argparse.ArgumentTypeError(message)


def _rational(text: str) -> Fraction:
    """``Fraction(text)``: a plain ASCII "[-]digits[/digits]" read from its two
    ints, any other text once its exponent is bounded; a usage error where
    that fails or has more than ``_MAX_DIGITS`` digits in either term."""
    num, slash, den = text.partition("/")
    try:  # int() refuses what Fraction() does: "--5", a non-int exponent, too many digits
        if text.isascii() and num.lstrip("-").isdigit() and (den.isdigit() or not slash):
            value = Fraction(int(num), int(den)) if slash else Fraction(int(num))
        elif "e" in (low := text.lower()) and abs(int(low.rpartition("e")[2])) > _MAX_DIGITS:
            raise _invalid(f"exponent beyond {_MAX_DIGITS} in magnitude: {text!r}")
        else:
            value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise _invalid(f"not a rational number: {text!r}") from None
    if -_TOO_LONG < value.numerator < _TOO_LONG and value.denominator < _TOO_LONG:
        return value
    raise _invalid(f"numerator or denominator has more than {_MAX_DIGITS} digits: {text!r}")


def _bound(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise _invalid(f"invalid int value: {text!r}") from None
    if value > _MAX_BOUND:
        raise _invalid(f"bound above 10^1000: {text!r}")
    return value


#: the walls and pell defaults, which report-all reports at as well
_BETA, _BOUND = Fraction(-2), 10 ** 6

#: option -> a function that returns its ``add_argument`` keywords (``_options``)
_OPTIONS = {
    "q": lambda: {"type": _rational, "default": hodge_ring.EPW_Q,
                  "help": "BBF square of the polarization (default %(default)s)"},
    "degree": lambda: {"type": _rational, "default": lagrangian.EPW_DEGREE,
                       "help": "h^3-degree of the fixed locus (default %(default)s)"},
    "case": lambda: {"choices": llv.CASES, "default": llv.CASES[0],
                     "help": "involution action on the non-Verbitsky summand"},
    "beta": lambda: {"type": _rational, "default": _BETA,
                     "help": "beta coordinate on the wall branch (default %(default)s)"},
    "bound": lambda: {"type": _bound, "default": _BOUND,
                      "help": "list solutions with |x| up to this bound "
                              "(default 10^6, at most 10^1000)"},
    "genus": lambda: {"type": int, "default": degeneration.SEXTIC_GENUS,
                      "help": "genus of the curve (default %(default)s)"},
}


def _rows_report_all(q: Fraction, degree: Fraction) -> list[Row]:
    """Every section in report order, each label behind its section's name,
    at q and degree where it takes them and else at its defaults; the betti
    and euler rows interleave over the two involution cases."""
    genus = degeneration.SEXTIC_GENUS
    sections = [
        ("fujiki", _rows_fujiki()), ("ring", _rows_ring(q)), ("relations", _rows_relations(q)),
        *((f"{name} {case}", section(case)) for case in llv.CASES
          for name, section in (("betti", _rows_betti), ("euler", _rows_euler))),
        ("lagrangian", _rows_lagrangian(degree, q)), ("fixed-locus", _rows_fixed_locus(degree, q)),
        ("walls", _rows_walls(_BETA)), ("pell", _rows_pell(_BOUND)), ("ext", _rows_ext()),
        ("kuranishi", _rows_kuranishi()), ("symprod", _rows_symprod(genus)),
        ("f3", _rows_f3(genus)),
    ]
    return [(f"{head}: {label}", value, note)
            for head, rows in sections for label, value, note in rows]


#: subcommand -> (help, rows function, option names).  The rows function takes
#: the options as keywords; the report's params are the same options, as ``str``.
_SECTIONS = {
    "fujiki": ("generalized Fujiki constants", _rows_fujiki, ()),
    "ring": ("top-degree integrals, Gram determinant, Chern numbers", _rows_ring, ("q",)),
    "relations": ("degree-8 and degree-10 ring relations", _rows_relations, ("q",)),
    "betti": ("Betti numbers of the involution quotient", _rows_betti, ("case",)),
    "euler": ("Euler characteristics of quotient and fixed locus", _rows_euler, ("case",)),
    "lagrangian": ("projection of the Lagrangian class", _rows_lagrangian, ("degree", "q")),
    "fixed-locus": ("invariants of the fixed threefold", _rows_fixed_locus, ("degree", "q")),
    "walls": ("wall point, central charges, contracted ray", _rows_walls, ("beta",)),
    "pell": ("spherical classes on the wall from the Pell equation", _rows_pell, ("bound",)),
    "ext": ("Ext dimensions at the contraction", _rows_ext, ()),
    "kuranishi": ("Kuranishi identity for the singularity type", _rows_kuranishi, ()),
    "symprod": ("symmetric-product intersection calculus", _rows_symprod, ("genus",)),
    "f3": ("Hodge-number relations for the fixed threefold", _rows_f3, ("genus",)),
    "report-all": ("every headline number in one report", _rows_report_all, ("q", "degree")),
}


def _options(command: str) -> dict[str, dict]:
    """``command``'s options, each name -> its ``add_argument`` keywords."""
    return {name: _OPTIONS[name]() for name in _SECTIONS[command][2]}


def build_parser(command: str | None = None):
    """The argparse parser of every subcommand, with the options of
    ``command`` alone (none for ``None``).  ``run`` builds one for every
    argv that ``_parse_fast`` does not read."""
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
    for name, (help_text, _, _) in _SECTIONS.items():
        p = sub.add_parser(name, parents=[common], help=help_text)
        if name == command:
            for option, kwargs in _options(name).items():
                p.add_argument(f"--{option}", **kwargs)
    return parser


@functools.cache
def _fast_table(command: str) -> tuple[dict, dict]:
    """``_parse_fast``'s table for ``command``, built once: each option, ``out``
    too, -> its ``type`` or a lookup in its ``choices``; the bare command's parse."""
    specs = {"out": {"default": None}, **_options(command)}
    return ({name: {c: c for c in spec["choices"]}.__getitem__ if "choices" in spec
             else spec.get("type", str) for name, spec in specs.items()},
            {"command": command, "json": False, **{k: v["default"] for k, v in specs.items()}})


def _parse_fast(argv) -> dict | None:
    """``vars()`` of ``build_parser().parse_args(argv)``, read with the
    section's ``_fast_table`` when argv is a section and then only ``--json``,
    ``--opt=value`` or ``--opt value`` (value not starting with "-") for
    ``--out`` and the section's options, each value taken by the option's
    ``type`` and ``choices``; ``None`` for every other argv."""
    if not argv or argv[0] not in _SECTIONS:
        return None
    readers, defaults = _fast_table(argv[0])
    args = defaults.copy()
    tokens = iter(argv[1:])
    for token in tokens:
        if token == "--json":
            args["json"] = True
            continue
        option, eq, text = token.partition("=")
        if not eq:
            text = next(tokens, "-")  # no value left: as malformed as "-x"
        name = option[2:] if option.startswith("--") else None
        if name not in readers or text == "--" or not eq and text.startswith("-"):
            return None
        try:
            args[name] = readers[name](text)
        except Exception:  # argparse reports whatever the converter raised
            return None
    return args


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
        os.dup2(devnull := os.open(os.devnull, os.O_WRONLY), stream.fileno())
        os.close(devnull)
        return False
    return True


#: held by a request from its parse to its payload.  Before Python 3.13 a
#: lazy module is not thread-safe: a thread that reads it while another is
#: still loading it finds attributes missing (AttributeError).  From
#: ``_thread``, which the interpreter has loaded; ``threading`` may not be.
_REQUEST_LOCK = allocate_lock()


def run(argv=None) -> int:
    """Entry point; returns the exit code (0 ok, 1 computation, 2 usage).
    ``_parse_fast`` reads the argv if it can, else ``build_parser``'s."""
    argv = sys.argv[1:] if argv is None else argv
    with _REQUEST_LOCK:
        args = _parse_fast(argv)
        try:
            # only options that take no value precede the subcommand, which
            # argparse takes unabbreviated: argv's first section name, if any
            args = args or vars(build_parser(
                next((token for token in argv if token in _SECTIONS), None)).parse_args(argv))
        except SystemExit as exc:
            # argparse ignores a reader of its help (stdout) or usage error
            # (stderr) that has gone: flush both here, not at exit
            if sys.stdout is not None and not _flushed(sys.stdout):
                return 1
            if sys.stderr is not None:
                _flushed(sys.stderr)
            return exc.code if isinstance(exc.code, int) else 2
        _, rows, options = _SECTIONS[args["command"]]
        values, params = {}, {}
        try:  # str raises ValueError on an int past the interpreter's digit limit
            for name in options:
                values[name] = value = args[name]
                params[name] = str(value)
            try:
                report = Report(args["command"], params, rows(**values))
            except (ValueError, ZeroDivisionError) as exc:  # a computation error,
                if "int_max_str_digits" in str(exc):  # unless a note hit the limit (f3's)
                    raise
                return _error(exc)
            payload = report.to_json() if args["json"] else report.to_text()
        except ValueError:
            return _error(f"the answer has more than {sys.get_int_max_str_digits()} digits"
                          " (the interpreter's int-to-str limit)")
    if args["out"] is None:  # 1 when stdout is closed (None) or its reader has gone
        if sys.stdout is None:
            return _error("standard output is closed")
        return 0 if _flushed(sys.stdout, payload) else 1
    try:
        with open(args["out"], "w", encoding="utf-8") as f:
            f.write(payload)
    except (OSError, ValueError) as exc:  # ValueError: a NUL or a lone surrogate in the path
        return _error(exc)
    return 0


def main() -> int:
    """Process entry point: ``run``, then ``gc.freeze()``; ``run``'s exit code."""
    code = run()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(main())
