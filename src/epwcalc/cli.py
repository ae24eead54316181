"""Command-line front end: every computation exposed as a subcommand, with
plain-text or machine-readable JSON reports.

All reported values are exact rationals rendered as "p/q" (or a bare
integer); facts that are not numbers (the involution case, booleans) are
encoded as +1/-1 or 1/0 with the meaning spelled out in the note field.
Output is byte-deterministic: same arguments, same bytes.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from . import degeneration, fujiki, hodge_ring, lagrangian, llv, mukai

Row = tuple[str, Fraction | int, str]


def _fmt(value) -> str:
    return str(Fraction(value))


@dataclass
class Report:
    command: str
    params: dict[str, str] = field(default_factory=dict)
    rows: list[Row] = field(default_factory=list)

    def add(self, label: str, value, note: str) -> None:
        self.rows.append((label, value, note))

    def extend(self, rows, prefix: str | None = None) -> None:
        for label, value, note in rows:
            self.add(f"{prefix}: {label}" if prefix else label, value, note)

    def to_json(self) -> str:
        payload = {
            "command": self.command,
            "params": self.params,
            "results": [
                {"label": label, "value": _fmt(value), "paper_anchor": note}
                for label, value, note in self.rows
            ],
        }
        return json.dumps(payload, indent=2) + "\n"

    def to_text(self) -> str:
        head = self.command
        if self.params:
            head += "  (" + ", ".join(f"{k}={v}" for k, v in self.params.items()) + ")"
        width = max((len(label) for label, _, _ in self.rows), default=0)
        lines = [head]
        for label, value, note in self.rows:
            lines.append(f"  {label:<{width}}  {_fmt(value):>12}  # {note}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# row builders, one per subcommand (report-all reuses them)
# ---------------------------------------------------------------------------

def _rows_fujiki() -> list[Row]:
    note = "generalized Fujiki constant"
    return [(f"C({alpha})", c, note) for alpha, c in fujiki.FUJIKI_CONSTANTS.items()]


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
    ratio = fujiki.fujiki_constant("c2^2") / fujiki.fujiki_constant("c4")
    r_h3c2, r_hc2sq, r_hc4 = hodge_ring.derive_degree10_relations(q)
    return [
        ("c4 -> h^4 coefficient", x, "degree-8 relation solved from the pairing system"),
        ("c4 -> h^2*c2 coefficient", y, "degree-8 relation solved from the pairing system"),
        ("c2^2 / c4 ratio", ratio, "both degree-8 classes are proportional"),
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
        ("chi sixfold", llv.SIXFOLD_EULER, "top Chern number"),
        ("chi fixed locus", llv.euler_of_fixed_locus(case), "double-cover Euler relation"),
    ]


def _rows_lagrangian(degree: Fraction, q: Fraction) -> list[Row]:
    a, b = lagrangian.project_lagrangian_class(degree, q)
    base = lagrangian.self_intersection(a, b, 0, q)
    rows: list[Row] = [
        ("a (h^3 coefficient)", a, "projection of the Lagrangian class"),
        ("b (h*c2 coefficient)", b, "projection of the Lagrangian class"),
        ("self-intersection of projection", base, "ring value of [W]^2 (eta part excluded)"),
    ]
    try:
        case, c, chi_top = lagrangian.disambiguate_involution_case(degree, q)
    except ValueError:
        return rows
    full = lagrangian.self_intersection(a, b, c, q)
    rows.append(("[W]^2 (ring value)", full, "with the eta contribution 4c^2"))
    rows.append(("chi_top", chi_top, f"fixed-locus Euler characteristic ({case} action)"))
    rows.append(("sign convention chi_top/[W]^2", Fraction(chi_top) / full,
                 "the ring square and the Euler characteristic differ by sign;"
                 " both are reported rather than reconciled"))
    return rows


def _rows_fixed_locus(degree: Fraction, q: Fraction) -> list[Row]:
    case, c, chi_top = lagrangian.disambiguate_involution_case(degree, q)
    inv = lagrangian.fixed_locus_invariants(degree, q, chi_top)
    holds = lagrangian.hodge_symmetry_relation(inv.chi_structure, inv.chi_one_forms, inv.c3)
    return [
        ("involution case (+1 natural, -1 opposite)", 1 if case == "natural" else -1,
         "the action compatible with a rational eta coefficient"),
        ("eta coefficient", c, "component of the fixed-locus class outside h^3, h*c2"),
        ("chi_top", chi_top, "double-cover Euler relation"),
        ("c1*c2", inv.c1c2, "restricted tangent Chern classes paired with the class"),
        ("chi(O)", inv.chi_structure, "Riemann-Roch: c1*c2/24"),
        ("chi(Omega^1)", inv.chi_one_forms, "chi(O) - chi_top/2"),
        ("c3", inv.c3, "equals the Euler characteristic"),
        ("K^3", inv.canonical_cube, "cube of the canonical class"),
        ("hodge symmetry (1=holds)", int(holds), "chi_top/2 = chi(O) - chi(Omega^1)"),
    ]


def _rows_walls(beta: Fraction) -> list[Row]:
    point = degeneration.WallPoint.from_beta(beta)
    v = degeneration.HILB_VECTOR
    s = degeneration.SPHERICAL_VECTOR
    z_v = degeneration.central_charge(v, point)
    z_s = degeneration.central_charge(s, point)
    gram = mukai.hyperbolic_lattice(v, s)
    image = mukai.theta_map(degeneration.CONTRACTED_RAY_VECTOR)
    square, div = mukai.square_and_divisibility(image)
    odd, even = degeneration.theta_characteristic_counts(2)
    return [
        ("alpha^2", point.alpha_sq, "wall equation (beta+2)^2 + alpha^2 = 2"),
        ("Re Z(v)", z_v.re, "central charge of the Hilbert-cube class"),
        ("Im Z(v) / alpha", z_v.im, "central charge of the Hilbert-cube class"),
        ("Re Z(s)", z_s.re, "central charge of the spherical class"),
        ("Im Z(s) / alpha", z_s.im, "central charge of the spherical class"),
        ("Re(Z(s)/Z(v))", degeneration.effectivity_ratio(s, v, point),
         "effectivity ratio on the wall"),
        ("gram(v,v)", gram[0][0], "rank-2 hyperbolic sublattice"),
        ("gram(v,s)", gram[0][1], "rank-2 hyperbolic sublattice"),
        ("gram(s,s)", gram[1][1], "rank-2 hyperbolic sublattice"),
        ("contracted ray -> L coefficient", image.a, "degree-2 image of the contracted ray"),
        ("contracted ray -> delta coefficient", image.b, "degree-2 image of the contracted ray"),
        ("contracted ray square", square, "BBF square"),
        ("contracted ray divisibility", div, "divisibility in the full degree-2 lattice"),
        ("odd theta characteristics (genus 2)", odd, "components of the fixed locus downstairs"),
        ("even theta characteristics (genus 2)", even, "components of the fixed locus downstairs"),
    ]


def _rows_pell(bound: int, list_solutions: bool = True) -> list[Row]:
    solutions = degeneration.pell_spherical_classes(bound)
    violations = sum(
        1
        for x, y in solutions
        if x < 0 and degeneration.effectivity_of_pell_class(x, y) >= 0
    )
    rows: list[Row] = [
        ("solution count", len(solutions), f"2x^2 - y^2 = -1 with |x| <= {bound}"),
        ("negative-x effectivity violations", violations,
         "x < 0 must force effectivity ratio x + y/2 < 0"),
    ]
    if list_solutions:
        for i, (x, y) in enumerate(solutions):
            rows.append((f"x[{i}]", x, "Pell solution, sorted"))
            rows.append((f"y[{i}]", y, "Pell solution, sorted"))
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


def _rows_symprod(genus: int) -> list[Row]:
    cube = degeneration.sym_prod_eval(
        degeneration.SymProdClass.linear_form_cubed(genus, 1, -6))
    rows: list[Row] = [
        ("(theta - 6*eta)^3", cube, "self-intersection on the third symmetric product"),
    ]
    for i in (3, 2, 1, 0):
        value = degeneration.sym_prod_eval(degeneration.SymProdClass.monomial(genus, i))
        rows.append((f"theta^{i}*eta^{3 - i}", value, "monomial count g!/(g-i)!"))
    rows.append(("[E] theta-coefficient in the Jacobian",
                 degeneration.jacobian_class_of_E(genus),
                 "collapses to g - 8 by factorial algebra"))
    return rows


def _rows_f3(genus: int | None) -> list[Row]:
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

def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from None


class _Parser(argparse.ArgumentParser):
    """Reads "-5/2" after an option as its value: argparse's own test for
    negative numbers knows only "-5" and "-2.5", and takes anything else
    that starts with "-" for an option.  Subparsers inherit the class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")


def _build_fujiki(args) -> Report:
    return Report("fujiki", {}, _rows_fujiki())


def _build_ring(args) -> Report:
    return Report("ring", {"q": _fmt(args.q)}, _rows_ring(args.q))


def _build_relations(args) -> Report:
    return Report("relations", {"q": _fmt(args.q)}, _rows_relations(args.q))


def _build_betti(args) -> Report:
    return Report("betti", {"case": args.case}, _rows_betti(args.case))


def _build_euler(args) -> Report:
    return Report("euler", {"case": args.case}, _rows_euler(args.case))


def _build_lagrangian(args) -> Report:
    return Report("lagrangian", {"degree": _fmt(args.degree), "q": _fmt(args.q)},
                  _rows_lagrangian(args.degree, args.q))


def _build_fixed_locus(args) -> Report:
    return Report("fixed-locus", {"degree": _fmt(args.degree), "q": _fmt(args.q)},
                  _rows_fixed_locus(args.degree, args.q))


def _build_walls(args) -> Report:
    return Report("walls", {"beta": _fmt(args.beta)}, _rows_walls(args.beta))


def _build_pell(args) -> Report:
    return Report("pell", {"bound": str(args.bound)}, _rows_pell(args.bound))


def _build_ext(args) -> Report:
    return Report("ext", {}, _rows_ext())


def _build_kuranishi(args) -> Report:
    return Report("kuranishi", {}, _rows_kuranishi())


def _build_symprod(args) -> Report:
    return Report("symprod", {"genus": str(args.genus)}, _rows_symprod(args.genus))


def _build_f3(args) -> Report:
    genus = args.genus
    report = Report("f3", {}, _rows_f3(genus))
    report.params["genus"] = str(report.rows[0][1])
    return report


def _build_report_all(args) -> Report:
    q, degree = args.q, args.degree
    report = Report("report-all", {"q": _fmt(q), "degree": _fmt(degree)})
    report.extend(_rows_fujiki(), "fujiki")
    report.extend(_rows_ring(q), "ring")
    report.extend(_rows_relations(q), "relations")
    for case in llv.CASES:
        report.extend(_rows_betti(case), f"betti {case}")
        report.extend(_rows_euler(case), f"euler {case}")
    report.extend(_rows_lagrangian(degree, q), "lagrangian")
    report.extend(_rows_fixed_locus(degree, q), "fixed-locus")
    report.extend(_rows_walls(Fraction(-2)), "walls")
    report.extend(_rows_pell(10 ** 6, list_solutions=False), "pell")
    report.extend(_rows_ext(), "ext")
    report.extend(_rows_kuranishi(), "kuranishi")
    report.extend(_rows_symprod(10), "symprod")
    report.extend(_rows_f3(None), "f3")
    return report


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="epwcalc",
        description="Exact-arithmetic invariants of EPW cubes and the fixed "
                    "locus of their antisymplectic involution.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a JSON report")
    common.add_argument("--out", metavar="PATH", help="write the report to a file")

    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name, builder, help_text, **extra):
        p = sub.add_parser(name, parents=[common], help=help_text)
        for flag, kwargs in extra.items():
            p.add_argument(f"--{flag}", **kwargs)
        p.set_defaults(builder=builder)
        return p

    q_opt = {"type": _rational, "default": Fraction(4),
             "help": "BBF square of the polarization (default 4)"}
    degree_opt = {"type": _rational, "default": Fraction(720),
                  "help": "h^3-degree of the fixed locus (default 720)"}
    case_opt = {"choices": ("natural", "opposite"), "default": "natural",
                "help": "involution action on the non-Verbitsky summand"}

    cmd("fujiki", _build_fujiki, "generalized Fujiki constants")
    cmd("ring", _build_ring, "top-degree integrals, Gram determinant, Chern numbers",
        q=dict(q_opt))
    cmd("relations", _build_relations, "degree-8 and degree-10 ring relations",
        q=dict(q_opt))
    cmd("betti", _build_betti, "Betti numbers of the involution quotient",
        case=dict(case_opt))
    cmd("euler", _build_euler, "Euler characteristics of quotient and fixed locus",
        case=dict(case_opt))
    cmd("lagrangian", _build_lagrangian, "projection of the Lagrangian class",
        degree=dict(degree_opt), q=dict(q_opt))
    cmd("fixed-locus", _build_fixed_locus, "invariants of the fixed threefold",
        degree=dict(degree_opt), q=dict(q_opt))
    cmd("walls", _build_walls, "wall point, central charges, contracted ray",
        beta=dict(type=_rational, default=Fraction(-2),
                  help="beta coordinate on the wall branch (default -2)"))
    cmd("pell", _build_pell, "spherical classes on the wall from the Pell equation",
        bound=dict(type=int, default=10 ** 6,
                   help="list solutions with |x| up to this bound (default 10^6)"))
    cmd("ext", _build_ext, "Ext dimensions at the contraction")
    cmd("kuranishi", _build_kuranishi, "Kuranishi identity for the singularity type")
    cmd("symprod", _build_symprod, "symmetric-product intersection calculus",
        genus=dict(type=int, default=10, help="genus of the curve (default 10)"))
    cmd("f3", _build_f3, "Hodge-number relations for the fixed threefold",
        genus=dict(type=int, default=None, help="genus override (default: plane sextic)"))
    cmd("report-all", _build_report_all, "every headline number in one report",
        q=dict(q_opt), degree=dict(degree_opt))
    return parser


def run(argv=None) -> int:
    """Entry point; returns the exit code (0 ok, 1 computation, 2 usage)."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        report = args.builder(args)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    payload = report.to_json() if args.json else report.to_text()
    if args.out:
        Path(args.out).write_text(payload, encoding="utf-8")
    else:
        sys.stdout.write(payload)
    return 0


if __name__ == "__main__":
    sys.exit(run())
