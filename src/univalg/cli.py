"""Command-line interface: construction, verification, factorization, and
deterministic report emission.

Exit codes: 0 pass, 1 semantic failure, 2 parse or usage failure, 3 resource
budget.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from collections import Counter

from . import poly
from .coalgebra import (
    CoalgebraOnU,
    bmodule_on_tensor_square,
    verify_bmodule_coalgebra,
    verify_comodule,
)
from .formats import (
    MatrixRepData,
    ParseError,
    ValidationError,
    _INTEGER,
    _read_algebra_text,
    parse_algebra,
    parse_module,
    parse_morphism,
    render_report,
)
from .lie import (
    LieAlgebra,
    LieModule,
    Report,
    Violation,
    validate_lie_module,
)
from .modgb import render_module_vector
from .pbw import render_pbw
from .poly import DEFAULT_PAIR_BUDGET, DEGREVLEX, LEX, ResourceBudgetError
from .representations import MatrixARep, validate_arep
from .universal_algebra import (
    BialgebraStructure,
    UniversalAlgebra,
    monomial_basis_up_to_degree,
)
from .universal_modules import (
    UniversalAModule,
    build_universal_amodule,
    build_universal_lie_hmodule,
    direct_sum_check,
    factorize_lie,
    factorize_through_universal,
    gamma,
    gamma_lie,
)

EXIT_PASS = 0
EXIT_SEMANTIC = 1
EXIT_PARSE = 2
EXIT_BUDGET = 3


class UsageError(Exception):
    """A command line that argparse accepts but the command cannot run."""


def _universal_algebra(args, h_file: str, g_file: str | None = None):
    """h, g and A(h,g) with the command's --order and --budget, which only
    a command that reads a Groebner basis uses: A builds its basis on first
    read.  Without a g file, g is h."""
    h = parse_algebra(h_file)
    g = parse_algebra(g_file) if g_file else h
    order = LEX if args.order == "lex" else DEGREVLEX
    return h, g, UniversalAlgebra(h, g, order=order, budget=args.budget)


def _budget(args) -> int:
    """The budget of S-pair reductions: --budget, else UNIVALG_BUDGET, else
    the default; a usage error unless it is an integer of at least 0,
    written as in files (``formats._INTEGER``: ASCII digits with an optional
    sign)."""
    source, text = "--budget", args.budget
    if text is None:
        source, text = "UNIVALG_BUDGET", os.environ.get("UNIVALG_BUDGET",
                                                        str(DEFAULT_PAIR_BUDGET))
    if not _INTEGER.fullmatch(text):
        raise UsageError(f"{source} must be an integer, got {text!r}")
    budget = int(text)
    if budget < 0:
        raise UsageError(f"{source} must be at least 0, got {budget}")
    return budget


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_lie_module(path: str, algebra: LieAlgebra) -> LieModule:
    obj = parse_module(path, algebra)
    if not isinstance(obj, LieModule):
        raise ValidationError(f"{path}: expected a kind-lie module file")
    return obj


def _load_rep_data(path: str) -> MatrixRepData:
    obj = parse_module(path)
    if not isinstance(obj, MatrixRepData):
        raise ValidationError(f"{path}: expected a kind assoc-matrix module file")
    return obj


def _load_arep(path: str, A) -> MatrixARep:
    """The A-module in an assoc-matrix file, validated against A."""
    X = _load_rep_data(path).to_rep(A)
    validate_arep(X).require(ValidationError, f"{path}: not an A-module")
    return X


def golden_sl2_polynomials(ring) -> list:
    """The nine-polynomial reference basis for the 3-dimensional case with
    [e1,e2]=e3, [e3,e1]=2e1, [e3,e2]=-2e2 (h = g), as packed terms of
    ``ring``; used by --golden."""
    if ring.nvars != 9:
        raise ValidationError("--golden requires 3-dimensional h = g")
    keys = poly._variable_keys(ring)

    def x(*ijs):  # the key of the product of the X[i,j] named by the digits ij
        return sum(keys[(ij // 10 - 1) * 3 + ij % 10 - 1] for ij in ijs)

    return [
        {x(13): 1, x(12, 31): -2, x(11, 32): 2},
        {x(11): 1, x(11, 33): -1, x(13, 31): 1},
        {x(12): 1, x(13, 32): -1, x(12, 33): 1},
        {x(23): 1, x(21, 32): -2, x(22, 31): 2},
        {x(21): 1, x(23, 31): -1, x(21, 33): 1},
        {x(22): 1, x(22, 33): -1, x(23, 32): 1},
        {x(33): 1, x(11, 22): -1, x(12, 21): 1},
        {x(31): 2, x(21, 13): -1, x(11, 23): 1},
        {x(32): 2, x(12, 23): -1, x(13, 22): 1},
    ]


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_univalg(args) -> int:
    if args.degree_probe is not None and args.degree_probe < 0:
        raise UsageError(f"--degree-probe must be at least 0, got {args.degree_probe}")
    h, g, A = _universal_algebra(args, args.h_file, args.g_file)
    lines = [f"universal-algebra h={h.name} g={g.name}"]
    lines.append("variables " + " ".join(A.ring.names))
    for label, terms in zip(A.labels, A.relations):
        lines.append(f"generator {label[0]},{label[1]},{label[2]}: "
                     f"{poly.render(terms, A.ring)}")
    for terms in A.gb.basis:
        lines.append(f"groebner: {poly.render(terms, A.ring)}")
    if args.degree_probe is not None:
        # One enumeration at the top degree; the count up to d is a running sum.
        degrees = Counter(map(sum, monomial_basis_up_to_degree(A, args.degree_probe)))
        count = 0
        for d in range(args.degree_probe + 1):
            count += degrees[d]
            lines.append(f"standard-monomials degree<={d}: {count}")
    status = 0
    if args.golden:
        # A.gb already spans the ideal of A.relations; only the golden set
        # needs its own basis.
        nine = golden_sl2_polynomials(A.ring)
        gold = poly.groebner(nine, A.ring, budget=args.budget)
        same = (all(poly.ideal_contains(gold, terms) for terms in A.relations)
                and all(poly.ideal_contains(A.gb, p) for p in nine))
        lines.append(f"golden-ideal-match {'pass' if same else 'fail'}")
        if not same:
            status = EXIT_SEMANTIC
    _emit("\n".join(lines) + "\n", args.out)
    return status


def cmd_univmod(args) -> int:
    h, g, A = _universal_algebra(args, args.h_file, args.g_file)
    U = _load_lie_module(args.u_file, h)
    Z = _load_lie_module(args.z_file, g)
    um = UniversalAModule(A, U, Z, budget=args.budget)
    lines = [f"universal-amodule U={U.name} Z={Z.name} rank={um.rank}"]
    for s in range(1, U.dim + 1):
        for r in range(1, Z.dim + 1):
            lines.append(f"generator y[{s},{r}] at position {um.pos(s, r) + 1}")
    for label, gen in zip(um.rel_labels, um.relgens):
        lines.append(
            f"relation {label[0]},{label[1]},{label[2]}: {render_module_vector(gen)}"
        )
    for gvec in um.mgb.generators:
        lines.append(f"module-groebner: {render_module_vector(gvec)}")
    return _emit_reports("\n".join(lines) + "\n", [
        ("module-relations", um.check_relations()),
        ("structure-map-equivariance", um.check_rho_equivariance()),
    ], args.out)


def cmd_univliemod(args) -> int:
    h, g, A = _universal_algebra(args, args.h_file, args.g_file)
    V = _load_arep(args.v_file, A)
    W = _load_lie_module(args.w_file, g)
    vm = build_universal_lie_hmodule(A, V, W)
    lines = [f"universal-lie-module V={V.name} W={W.name} rank={vm.rank}"]
    for r in range(1, W.dim + 1):
        for s in range(1, V.dim + 1):
            lines.append(f"generator y[{r},{s}] at position {vm.pos(r, s) + 1}")
    for label, gen in zip(vm.rel_labels, vm.relgens):
        comps = " + ".join(
            f"({render_pbw(e)})*e{p + 1}" for p, e in sorted(gen.components.items())
        ) or "0"
        lines.append(f"relation {label[0]},{label[1]},{label[2]}: {comps}")
    for r, pairs in sorted(vm.tau_images().items()):
        tau = " + ".join(f"y(pos {p + 1})(x)v{s}" for p, s in pairs)
        lines.append(f"tau w{r}: {tau}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_PASS


def _round_trip(args, kind, h_file, g_file, first, second, target, f_file):
    """Factor f through U(U,Z) (kind amod) or V(V,W) (liemod), reading no
    Groebner basis, and map theta back by Gamma: the factorization, and
    whether its witnesses vanish and Gamma(theta) = f."""
    h, g, A = _universal_algebra(args, h_file, g_file)
    f = parse_morphism(f_file)
    if kind == "amod":
        U, Z = _load_lie_module(first, h), _load_lie_module(second, g)
        X = _load_arep(target, A)
        um = UniversalAModule(A, U, Z)
        um.check_rho_equivariance().require(AssertionError, "structure map is not equivariant")
        result = factorize_through_universal(um, X, f)
        return result, result.ok and gamma(um, X, result.images).mat() == f.mat()
    V, W = _load_arep(first, A), _load_lie_module(second, g)
    Y = _load_lie_module(target, h)
    vm = build_universal_lie_hmodule(A, V, W)
    result = factorize_lie(vm, Y, f)
    return result, result.ok and gamma_lie(vm, Y, result.images).mat() == f.mat()


def cmd_factorize(args) -> int:
    result, ok = _round_trip(args, args.kind, args.h_file, args.g_file, args.first,
                             args.second, args.target, args.f_file)
    lines = [f"image y[{i},{j}]: {' '.join(map(str, v))}"
             for (i, j), v in sorted(result.images.items())]
    lines += [f"witness {a},{i},{j}: {' '.join(map(str, v)) or 'empty'}"
              for (a, i, j), v in sorted(result.witnesses.items())]
    # The diagram commutes when Gamma(theta) = f, which is the round trip.
    lines.append(f"diagram-commutes {'pass' if ok else 'fail'}")
    lines.append(f"round-trip {'pass' if ok else 'fail'}")
    lines.append(f"status {'pass' if ok else 'fail'}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_PASS if ok else EXIT_SEMANTIC


def _check_lie(args) -> tuple[str, Report]:
    # Read without validating, so a file that breaks the axioms gets a report.
    with open(args.files[0]) as fh:
        L = _read_algebra_text(fh.read(), args.files[0])
    return "lie-axioms", L.validation


# `univalg check KIND FILE...`: kind -> number of files.
_CHECK_FILES = {
    "lie": 1, "module": 2, "rep": 3, "bialgebra": 1, "coalgebra": 2,
    "comodule": 2, "adjunction": 6, "direct-sum": 5,
}


def cmd_check(args) -> int:
    nfiles = _CHECK_FILES[args.kind]
    if len(args.files) != nfiles:
        raise UsageError(
            f"check {args.kind} takes {nfiles} file(s), got {len(args.files)}"
        )
    reports: list[tuple[str, Report]] = []
    if args.kind == "lie":
        reports.append(_check_lie(args))
    elif args.kind == "module":
        L = parse_algebra(args.files[0])
        M = _load_lie_module(args.files[1], L)
        reports.append(("lie-module-axioms", validate_lie_module(M)))
    elif args.kind == "rep":
        h, g, A = _universal_algebra(args, args.files[0], args.files[1])
        X = _load_rep_data(args.files[2]).to_rep(A)
        reports.append(("rep-relations", validate_arep(X)))
    elif args.kind == "bialgebra":
        B = BialgebraStructure(_universal_algebra(args, args.files[0])[2])
        reports.append(("bialgebra-laws", B.verify()))
    elif args.kind == "coalgebra":
        um, C = _coalgebra_on(args, args.files[0], args.files[1])
        verify_comodule(um, C).require(AssertionError, "comodule axioms fail")
        reports += _coalgebra_reports(um, C, ("coalgebra-laws", C.verify()))
    elif args.kind == "comodule":
        um, C = _coalgebra_on(args, args.files[0], args.files[1])
        C.bial.descent.require(AssertionError, "bialgebra verification failed")
        C.verify().require(AssertionError, "coalgebra verification failed")
        reports.append(("comodule-axioms", verify_comodule(um, C)))
    elif args.kind == "adjunction":
        ok = _round_trip(args, "amod", *args.files)[1]
        bad = () if ok else (Violation("adjunction-round-trip", (), "fails"),)
        reports.append(("adjunction-round-trip", Report(bad)))
    elif args.kind == "direct-sum":
        h, g, A = _universal_algebra(args, args.files[0], args.files[1])
        U = _load_lie_module(args.files[2], h)
        W1 = _load_lie_module(args.files[3], g)
        W2 = _load_lie_module(args.files[4], g)
        reports.append(("direct-sum", direct_sum_check(A, U, W1, W2, budget=args.budget)))
    return _emit_reports("", reports, args.out)


def _emit_reports(head: str, reports: list[tuple[str, Report]],
                  out_path: str | None) -> int:
    _emit(head + "".join(render_report(title, rep) for title, rep in reports),
          out_path)
    return EXIT_PASS if all(rep.ok for _, rep in reports) else EXIT_SEMANTIC


def _coalgebra_on(args, h_file: str, u_file: str):
    """U(U) over A(h,h) with its coalgebra structure, not yet certified past
    B's laws: each command computes the rest itself."""
    h, _, A = _universal_algebra(args, h_file)
    U = _load_lie_module(u_file, h)
    um = build_universal_amodule(A, U, U, budget=args.budget)
    B = BialgebraStructure(A)
    B.laws().require(AssertionError, "bialgebra verification failed")
    return um, CoalgebraOnU(um, B)


def _coalgebra_reports(um, C, *first: tuple[str, Report]) -> list[tuple[str, Report]]:
    """The reports that the command computed itself, then the two shared by
    `check coalgebra` and `coalgebra`."""
    return [
        *first,
        ("bmodule-coalgebra", verify_bmodule_coalgebra(um, C)),
        ("tensor-square-action", bmodule_on_tensor_square(um, C.bial)),
    ]


def cmd_coalgebra(args) -> int:
    um, C = _coalgebra_on(args, args.h_file, args.u_file)
    m = um.U.dim
    lines = [f"coalgebra-on-universal-module U={um.U.name} rank={um.rank}"]
    for l in range(1, m + 1):
        for t in range(1, m + 1):
            pairs = " + ".join(
                f"y(pos {um.pos(l, s) + 1})(x)y(pos {um.pos(s, t) + 1})"
                for s in range(1, m + 1)
            )
            lines.append(f"delta y[{l},{t}]: {pairs}")
            lines.append(f"epsilon y[{l},{t}]: {1 if l == t else 0}")
    reports = _coalgebra_reports(um, C, ("coalgebra-laws", C.verify()),
                                 ("comodule-axioms", verify_comodule(um, C)))
    return _emit_reports("\n".join(lines) + "\n", reports, args.out)


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--order", choices=["degrevlex", "lex"], default="degrevlex")
    p.add_argument("--budget", default=None,
                   help="budget of S-pair reductions, the pairs a criterion skips"
                        " not counted (default from UNIVALG_BUDGET or 100000);"
                        " accepted with no effect, as --order is, by the commands"
                        " that build no Groebner basis: univliemod, factorize and"
                        " check lie, module, rep and adjunction")
    p.add_argument("--out", default=None, help="write output to a file")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="univalg",
        description="Exact universal algebras and universal modules over Q",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("univalg", help="construct A(h,g)")
    p.add_argument("h_file")
    p.add_argument("g_file")
    p.add_argument("--degree-probe", type=int, default=None)
    p.add_argument("--golden", action="store_true",
                   help="assert the ideal matches the 3-dim reference basis")
    _add_common(p)
    p.set_defaults(func=cmd_univalg)

    p = sub.add_parser("univmod", help="construct the universal A-module U(U,Z)")
    p.add_argument("h_file")
    p.add_argument("g_file")
    p.add_argument("u_file")
    p.add_argument("z_file")
    _add_common(p)
    p.set_defaults(func=cmd_univmod)

    p = sub.add_parser("univliemod",
                       help="construct the universal Lie h-module V(V,W)")
    p.add_argument("h_file")
    p.add_argument("g_file")
    p.add_argument("v_file")
    p.add_argument("w_file")
    _add_common(p)
    p.set_defaults(func=cmd_univliemod)

    p = sub.add_parser("factorize", help="factor a morphism through a universal object")
    p.add_argument("kind", choices=["amod", "liemod"])
    p.add_argument("h_file")
    p.add_argument("g_file")
    p.add_argument("first", help="U module file (amod) or V rep file (liemod)")
    p.add_argument("second", help="Z module file (amod) or W module file (liemod)")
    p.add_argument("target", help="target rep file (amod) or Lie module file (liemod)")
    p.add_argument("f_file", help="morphism file")
    _add_common(p)
    p.set_defaults(func=cmd_factorize)

    p = sub.add_parser("check", help="run a verification suite")
    p.add_argument("kind", choices=list(_CHECK_FILES))
    p.add_argument("files", nargs="+")
    _add_common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("coalgebra", help="coalgebra structure on U(U)")
    p.add_argument("h_file")
    p.add_argument("u_file")
    _add_common(p)
    p.set_defaults(func=cmd_coalgebra)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.budget = _budget(args)
        return args.func(args)
    except (ParseError, FileNotFoundError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ResourceBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValidationError, ValueError, AssertionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SEMANTIC


if __name__ == "__main__":
    sys.exit(main())
