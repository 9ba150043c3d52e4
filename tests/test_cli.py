import os
import time
from fractions import Fraction

import pytest

from helpers import (
    count_calls,
    forbid_engine,
    jgens,
    natural3,
    principal_images,
    render_algebra,
    render_matrix_rep_data,
    render_module,
    render_morphism,
    sl3,
)
from univalg import cli, linalg, poly, universal_modules
from univalg.cli import main
from univalg.coalgebra import CoalgebraOnU, TensorSquare
from univalg.formats import (
    MAX_SIZE,
    MatrixRepData,
    ParseError,
    parse_algebra_text,
    parse_module_text,
    parse_morphism_text,
)
from univalg.lie import LieModule, LinearMap, Report, Violation, sl2
from univalg.poly import LEX
from univalg.representations import tensor_lie_module
from univalg.universal_algebra import BialgebraStructure, UniversalAlgebra
from univalg.universal_modules import UniversalAModule

FIX = os.path.join(os.path.dirname(__file__), "fixtures")
ONE = Fraction(1)


def fx(name: str) -> str:
    return os.path.join(FIX, name)


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


# ---------------------------------------------------------------------------
# File format round trips
# ---------------------------------------------------------------------------


def test_algebra_round_trip():
    L = sl2()
    text = render_algebra(L)
    back = parse_algebra_text(text)
    assert back.dim == L.dim and back.table == L.table and back.name == L.name


def test_module_round_trip():
    L = sl2()
    M = LieModule.adjoint(L)
    text = render_module(M)
    back = parse_module_text(text, algebra=L)
    assert back.dim == M.dim and back.matrices == M.matrices and back.name == M.name


def test_matrix_rep_round_trip():
    with open(fx("counit3.rep")) as fh:
        text = fh.read()
    data = parse_module_text(text, "counit3.rep")
    again = parse_module_text(render_matrix_rep_data(data))
    assert again.dim == data.dim and again.entries == data.entries
    assert again.name == data.name and again.over == data.over


def test_morphism_round_trip():
    f = LinearMap.from_matrix([[ONE, Fraction(1, 2)], [Fraction(-3), ONE]])
    back = parse_morphism_text(render_morphism(f))
    assert back.mat() == f.mat()


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as exc:
        parse_algebra_text("algebra x\ndim 2\nbracket 1 2: 3:1\n", "bad.alg")
    assert exc.value.line_no == 3
    with pytest.raises(ParseError):
        parse_algebra_text("algebra x\nbracket 1 2: 1:1\n")  # dim missing
    with pytest.raises(ParseError):
        parse_morphism_text("morphism f\nrows 1\ncols 2\nrow 1: 1\n")


@pytest.mark.parametrize("text, line", [
    ("kind lie\ndim 1\nmat 7 7: 1:5", 3),
    ("kind assoc-matrix\ndim 1\naction 9 1: 1:5", 3),
    ("dim 1\nmat 1 1: 1:1\nkind lie\n", 2),
    ("dim 1\naction 1 1: 1:1\nkind assoc-matrix\n", 2),
])
def test_module_entry_of_the_other_kind_is_parse_error(text, line):
    # An entry of the other kind is an error wherever the kind line stands.
    with pytest.raises(ParseError, match="line in a kind") as exc:
        parse_module_text(text, algebra=sl2())
    assert exc.value.line_no == line


def test_duplicate_bracket_entry_rejected():
    with pytest.raises(ParseError):
        parse_algebra_text("dim 2\nbracket 1 2: 1:1\nbracket 1 2: 1:2\n")


# ---------------------------------------------------------------------------
# Subcommands and exit codes
# ---------------------------------------------------------------------------


def test_univalg_golden_pass(capsys):
    code, out = run(capsys, "univalg", fx("sl2.alg"), fx("sl2.alg"), "--golden")
    assert code == 0
    assert "golden-ideal-match pass" in out


golden = cli.golden_sl2_polynomials


@pytest.mark.parametrize("wrong_golden", [
    lambda ring: golden(ring)[1:],
    lambda ring: golden(ring) + [ring.var(0)],
], ids=["one-polynomial-dropped", "x11-added"])
def test_univalg_golden_fail(capsys, monkeypatch, wrong_golden):
    # Dropping a polynomial leaves A's ideal outside the golden one; adding
    # X[1,1] (1 at the identity of sl2) leaves the golden ideal outside A's.
    monkeypatch.setattr(cli, "golden_sl2_polynomials", wrong_golden)
    code, out = run(capsys, "univalg", fx("sl2.alg"), fx("sl2.alg"), "--golden")
    assert code == 1
    assert "golden-ideal-match fail" in out


@pytest.mark.parametrize("flags", [[], ["--golden"], ["--order", "lex", "--golden"]],
                         ids=["plain", "golden", "lex-golden"])
def test_univalg_prints_and_matches_the_packed_relations(capsys, monkeypatch, flags):
    # The generator lines are printed from A.relations, and --golden tests
    # the golden basis against them too, so the command unpacks no relation
    # into a polynomial; every generator and groebner line goes through the
    # one text form, linalg.combination_str.
    built, original = [], cli.UniversalAlgebra

    def build(*args, **kwargs):
        built.append(original(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(cli, "UniversalAlgebra", build)
    texts = count_calls(monkeypatch, linalg, "combination_str")
    unpacked = count_calls(monkeypatch, poly, "_unpack")
    code, out = run(capsys, "univalg", fx("sl2.alg"), fx("sl2.alg"), *flags)
    monkeypatch.undo()
    (A,) = built
    assert code == 0 and unpacked == []
    assert len(texts) == len(A.relations) + len(A.gb)
    lines = [line for line in out.splitlines() if line.startswith("generator ")]
    assert lines == [f"generator {a},{i},{j}: {poly.render(p)}"
                     for (a, i, j), p in zip(A.labels, jgens(A))]


@pytest.mark.parametrize("command", [
    "check bialgebra sl2.alg",
    "check rep sl2.alg sl2.alg counit3.rep",
    "check comodule sl2.alg natural2_sl2.mod",
    "coalgebra sl2.alg natural2_sl2.mod",
])
def test_bialgebra_rep_and_coalgebra_commands_leave_jgens_unfilled(capsys, monkeypatch,
                                                                   command):
    # These commands read J's generators as packed terms only: none of them
    # unpacks a term into a polynomial.
    unpacked = count_calls(monkeypatch, poly, "_unpack")
    code, _ = run(capsys, *[fx(w) if "." in w else w for w in command.split()])
    assert code == 0 and unpacked == []


def test_univalg_deterministic_output(capsys, tmp_path):
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    assert main(["univalg", fx("sl2.alg"), fx("sl2.alg"), "--golden",
                 "--out", str(p1)]) == 0
    assert main(["univalg", fx("sl2.alg"), fx("sl2.alg"), "--golden",
                 "--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_univalg_degree_probe_abelian(capsys):
    code, out = run(capsys, "univalg", fx("abelian2.alg"), fx("abelian2.alg"),
                    "--degree-probe", "2")
    assert code == 0
    # 4 variables, 6 binomial relations; counts C(4+d, d) of a 2-var free part?
    assert "standard-monomials degree<=0: 1" in out
    assert "standard-monomials degree<=2:" in out


def test_univmod_abelian_relation(capsys):
    code, out = run(capsys, "univmod", fx("abelian1.alg"), fx("abelian1.alg"),
                    fx("scaling1.mod"), fx("scaling5.mod"))
    assert code == 0
    assert "rank=1" in out
    assert "status pass" in out and "status fail" not in out


def test_univliemod_runs(capsys):
    code, out = run(capsys, "univliemod", fx("abelian1.alg"), fx("abelian1.alg"),
                    fx("counit1.rep"), fx("scaling1.mod"))
    assert code == 0
    assert "rank=1" in out
    assert "relation 1,1,1:" in out
    assert "tau w1:" in out


def test_factorize_amod_round_trip(capsys):
    # f: Z -> U (x) X must be equivariant; with Z trivial and U (x) X the
    # adjoint module the only such morphism is zero.
    code, out = run(capsys, "factorize", "amod", fx("sl2.alg"), fx("sl2.alg"),
                    fx("adjoint_sl2.mod"), fx("trivial1_sl2.mod"),
                    fx("counit3.rep"), fx("zero3x1.mor"))
    assert code == 0
    assert "diagram-commutes pass" in out
    assert "round-trip pass" in out
    assert "status pass" in out


def test_factorize_liemod_identity(capsys):
    code, out = run(capsys, "factorize", "liemod", fx("sl2.alg"), fx("sl2.alg"),
                    fx("counit3.rep"), fx("adjoint_sl2.mod"),
                    fx("adjoint_sl2.mod"), fx("identity3.mor"))
    assert code == 0
    assert "diagram-commutes pass" in out
    assert "unique" not in out  # no line for a check that cannot fail
    assert "status pass" in out


def test_check_lie_pass(capsys):
    code, out = run(capsys, "check", "lie", fx("sl2.alg"))
    assert code == 0
    assert "status pass" in out


def test_check_lie_corrupted_reports_violation(capsys, tmp_path):
    bad = tmp_path / "bad.alg"
    bad.write_text("algebra bad\ndim 2\nbracket 1 2: 1:1\n")  # not antisymmetric
    code, out = run(capsys, "check", "lie", str(bad))
    assert code == 1
    assert "status fail" in out
    assert "antisymmetry" in out


def test_check_module_and_rep(capsys):
    code, out = run(capsys, "check", "module", fx("sl2.alg"), fx("adjoint_sl2.mod"))
    assert code == 0
    code, out = run(capsys, "check", "rep", fx("sl2.alg"), fx("sl2.alg"),
                    fx("counit3.rep"))
    assert code == 0


def test_check_bialgebra(capsys):
    code, out = run(capsys, "check", "bialgebra", fx("abelian2.alg"))
    assert code == 0
    assert "bialgebra-laws" in out


def test_check_bialgebra_sl2(capsys):
    code, out = run(capsys, "check", "bialgebra", fx("sl2.alg"))
    assert code == 0
    assert "bialgebra-laws" in out and "status pass" in out


def test_check_direct_sum(capsys):
    code, out = run(capsys, "check", "direct-sum", fx("sl2.alg"), fx("sl2.alg"),
                    fx("natural2_sl2.mod"), fx("trivial1_sl2.mod"),
                    fx("trivial1_sl2.mod"))
    assert code == 0
    assert "direct-sum" in out and "status pass" in out


def test_check_coalgebra_and_comodule_abelian(capsys):
    code, out = run(capsys, "check", "coalgebra", fx("abelian1.alg"),
                    fx("scaling1.mod"))
    assert code == 0
    assert "coalgebra-laws" in out and "status fail" not in out
    code, out = run(capsys, "check", "comodule", fx("abelian1.alg"),
                    fx("scaling1.mod"))
    assert code == 0


def test_check_adjunction(capsys):
    code, out = run(capsys, "check", "adjunction", fx("sl2.alg"), fx("sl2.alg"),
                    fx("adjoint_sl2.mod"), fx("trivial1_sl2.mod"),
                    fx("counit3.rep"), fx("zero3x1.mor"))
    assert code == 0
    assert "adjunction-round-trip" in out


def test_check_adjunction_rejects_a_file_that_is_not_an_a_module(capsys, tmp_path):
    # x11 acts as 1 and every other generator as 0: the relation
    # x11 - x11*x33 + x13*x31 of A(sl2, sl2) evaluates to 1, not 0.
    bad = tmp_path / "bad.rep"
    bad.write_text("module bad\nover universal\nkind assoc-matrix\ndim 1\n"
                   "mat 1 1: 1:1\n")
    code = main(["check", "adjunction", fx("sl2.alg"), fx("sl2.alg"),
                 fx("adjoint_sl2.mod"), fx("trivial1_sl2.mod"), str(bad),
                 fx("zero3x1.mor")])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err.startswith(f"error: {bad}: not an A-module:\n")


@pytest.mark.parametrize("command,files,golden", [
    ("factorize amod", ["sl2.alg", "sl2.alg", "natural2_sl2.mod", "natural2_sl2.mod",
                        "counit3.rep", "identity2.mor"],
     "factorize_amod_sl2_natural2.txt"),
    ("factorize liemod", ["sl2.alg", "sl2.alg", "counit3.rep", "adjoint_sl2.mod",
                          "adjoint_sl2.mod", "identity3.mor"],
     "factorize_liemod_sl2_adjoint.txt"),
    ("univliemod", ["sl2.alg", "sl2.alg", "counit3.rep", "adjoint_sl2.mod"],
     "univliemod_sl2_adjoint.txt"),
    ("univmod", ["sl2.alg", "sl2.alg", "natural2_sl2.mod", "natural2_sl2.mod"],
     "univmod_sl2_natural2.txt"),
    ("check comodule", ["sl2.alg", "natural2_sl2.mod"],
     "check_comodule_sl2_natural2.txt"),
    ("check direct-sum", ["sl2.alg", "sl2.alg", "adjoint_sl2.mod", "adjoint_sl2.mod",
                          "trivial1_sl2.mod"],
     "check_direct-sum_sl2_adjoint.txt"),
])
def test_adjunction_reports_match_golden(capsys, command, files, golden):
    # Identity maps, so the images are not all zero as in test_check_adjunction.
    code, out = run(capsys, *command.split(), *map(fx, files))
    with open(fx(os.path.join("golden", golden))) as fh:
        assert (code, out) == (0, fh.read())


# The commands that read no Groebner basis, on the fixtures, each with its
# golden report if it has one.
NO_BASIS_COMMANDS = [
    ("factorize amod", ["sl2.alg", "sl2.alg", "natural2_sl2.mod", "natural2_sl2.mod",
                        "counit3.rep", "identity2.mor"], "factorize_amod_sl2_natural2.txt"),
    ("factorize liemod", ["sl2.alg", "sl2.alg", "counit3.rep", "adjoint_sl2.mod",
                          "adjoint_sl2.mod", "identity3.mor"],
     "factorize_liemod_sl2_adjoint.txt"),
    ("univliemod", ["sl2.alg", "sl2.alg", "counit3.rep", "adjoint_sl2.mod"],
     "univliemod_sl2_adjoint.txt"),
    ("check rep", ["sl2.alg", "sl2.alg", "counit3.rep"], None),
    ("check adjunction", ["sl2.alg", "sl2.alg", "natural2_sl2.mod", "natural2_sl2.mod",
                          "counit3.rep", "identity2.mor"], None),
]


@pytest.mark.parametrize("command, files, golden", NO_BASIS_COMMANDS,
                         ids=[c for c, _, _ in NO_BASIS_COMMANDS])
def test_commands_that_read_no_basis_run_no_engine(capsys, monkeypatch, command, files,
                                                  golden):
    argv = [*command.split(), *map(fx, files)]
    code, expected = run(capsys, *argv)
    if golden:
        with open(fx(os.path.join("golden", golden))) as fh:
            assert expected == fh.read()
    forbid_engine(monkeypatch)
    assert run(capsys, *argv) == (0, expected) and code == 0


def test_factorization_passes_where_the_basis_exhausts_the_budget(capsys):
    # A(sl2, sl2)'s basis needs more than 0 S-pair reductions, and the
    # factorization reads none, so only the command that builds it exits 3.
    files = ["sl2.alg", "sl2.alg", "natural2_sl2.mod", "natural2_sl2.mod",
             "counit3.rep", "identity2.mor"]
    assert run(capsys, "univalg", *map(fx, files[:2]), "--budget", "0")[0] == 3
    with open(fx(os.path.join("golden", "factorize_amod_sl2_natural2.txt"))) as fh:
        assert run(capsys, "factorize", "amod", *map(fx, files), "--budget", "0") == (
            0, fh.read())


def test_sl3_principal_embedding_through_the_cli(capsys, monkeypatch, tmp_path):
    # Over A(sl3, sl2), whose basis no engine run reaches: U = natural3, X the
    # principal point module, Z = U (x) X and f the identity.
    h, g = sl3(), sl2()
    A = UniversalAlgebra(h, g)
    X = MatrixRepData("principal", "universal", 1, {
        (s, i): [[c]] for i, image in enumerate(principal_images(), 1)
        for s, c in enumerate(image, 1) if c})
    U = natural3(h)
    texts = {"sl3.alg": render_algebra(h), "natural3.mod": render_module(U),
             "z.mod": render_module(tensor_lie_module(U, X.to_rep(A)), over="sl2"),
             "x.rep": render_matrix_rep_data(X)}
    for name, text in texts.items():
        (tmp_path / name).write_text(text)
    sl3_file, u, z, x = (str(tmp_path / name) for name in texts)
    forbid_engine(monkeypatch)
    code, out = run(capsys, "factorize", "amod", sl3_file, fx("sl2.alg"), u, z, x,
                    fx("identity3.mor"))
    assert code == 0 and out.endswith("round-trip pass\nstatus pass\n")
    witnesses = [line for line in out.splitlines() if line.startswith("witness ")]
    assert len(witnesses) == 27 and all(line.endswith(": 0") for line in witnesses)
    assert run(capsys, "check", "rep", sl3_file, fx("sl2.alg"), x) == (
        0, "check rep-relations\nstatus pass\n")
    assert run(capsys, "check", "adjunction", sl3_file, fx("sl2.alg"), u, z, x,
               fx("identity3.mor")) == (0, "check adjunction-round-trip\nstatus pass\n")
    # V(V,W) with V = X, W = Z and Y = U: Y (x) V is U (x) X again.
    code, out = run(capsys, "factorize", "liemod", sl3_file, fx("sl2.alg"), x, z, u,
                    fx("identity3.mor"))
    assert code == 0 and out.endswith("round-trip pass\nstatus pass\n")


def test_coalgebra_subcommand(capsys):
    code, out = run(capsys, "coalgebra", fx("abelian1.alg"), fx("scaling1.mod"))
    assert code == 0
    assert "delta y[1,1]:" in out
    assert "epsilon y[1,1]: 1" in out
    assert "status fail" not in out


@pytest.mark.parametrize("command", ["coalgebra", "check coalgebra"])
def test_coalgebra_reports_match_golden(capsys, command):
    code, out = run(capsys, *command.split(), fx("sl2.alg"), fx("natural2_sl2.mod"))
    golden = fx(os.path.join("golden", command.replace(" ", "_") + "_sl2_natural2.txt"))
    with open(golden) as fh:
        assert (code, out) == (0, fh.read())


def test_check_coalgebra_verifies_laws_once(capsys, monkeypatch):
    calls = []
    verify = CoalgebraOnU.verify

    def counted(self):
        calls.append(self)
        return verify(self)

    monkeypatch.setattr(CoalgebraOnU, "verify", counted)
    code, out = run(capsys, "check", "coalgebra", fx("abelian1.alg"), fx("scaling1.mod"))
    assert code == 0 and "check coalgebra-laws\nstatus pass" in out
    assert len(calls) == 1


def test_univmod_runs_each_check_once(capsys, monkeypatch):
    calls = []
    for name in ("check_relations", "check_rho_equivariance"):
        check = getattr(UniversalAModule, name)

        def counted(self, name=name, check=check):
            calls.append(name)
            return check(self)

        monkeypatch.setattr(UniversalAModule, name, counted)
    code, out = run(capsys, "univmod", fx("abelian1.alg"), fx("abelian1.alg"),
                    fx("scaling1.mod"), fx("scaling1.mod"))
    assert code == 0 and "check structure-map-equivariance\nstatus pass" in out
    assert sorted(calls) == ["check_relations", "check_rho_equivariance"]


@pytest.mark.parametrize("command", ["coalgebra", "check coalgebra", "check comodule"])
def test_coalgebra_compares_delta_with_coaction_once(capsys, monkeypatch, command):
    calls = []
    matches = CoalgebraOnU._delta_matches_coaction

    def counted(self, l, r):
        calls.append((l, r))
        return matches(self, l, r)

    monkeypatch.setattr(CoalgebraOnU, "_delta_matches_coaction", counted)
    code, _ = run(capsys, *command.split(), fx("sl2.alg"), fx("natural2_sl2.mod"))
    assert code == 0
    assert sorted(calls) == [(l, r) for l in (1, 2) for r in (1, 2)]


@pytest.mark.parametrize("command", ["check coalgebra", "check comodule", "coalgebra"])
def test_swapped_delta_exits_1(capsys, monkeypatch, command):
    # Delta(y_lr) = sum_s y_sr (x) y_ls, the two tensor factors exchanged.
    right_way = TensorSquare.delta_of_terms

    def swapped(sq, terms):
        return {(b, a): c for (a, b), c in right_way(sq, terms).items()}

    monkeypatch.setattr(TensorSquare, "delta_of_terms", swapped)
    code = main([*command.split(), fx("sl2.alg"), fx("natural2_sl2.mod")])
    captured = capsys.readouterr()
    assert code == 1
    if command == "check coalgebra":
        # It prints the laws and requires the comodule axioms.
        assert captured.out == ""
        assert captured.err.startswith("error: ")
    else:
        assert ("check comodule-axioms\nstatus fail\n"
                "item comodule-axiom (1): fails\nitem comodule-axiom (2): fails\n"
                ) in captured.out
        assert captured.err == ""


def test_epsilon_killing_y11_exits_1(capsys, monkeypatch):
    # epsilon(y_11) = 0 instead of 1 breaks the counit axiom of the comodule.
    right_way = TensorSquare.epsilon_of_terms

    def wrong(sq, terms):
        table = sq.table  # y_11 is e_0, the key of 1 at position 0
        y11 = table.row(table.key(0, (0,) * table.ring.nvars))[1]
        return 0 if terms == y11 else right_way(sq, terms)

    monkeypatch.setattr(TensorSquare, "epsilon_of_terms", wrong)
    code = main(["check", "comodule", fx("sl2.alg"), fx("natural2_sl2.mod")])
    captured = capsys.readouterr()
    assert (code, captured.err) == (1, "")
    assert captured.out == ("check comodule-axioms\nstatus fail\n"
                            "item comodule-axiom (1): fails\n")


@pytest.mark.parametrize("command, files, patched, report", [
    ("univmod", "abelian1.alg abelian1.alg scaling1.mod scaling1.mod",
     (UniversalAModule, "check_rho_equivariance",
      Violation("rho-equivariance", (1, 1), "nonzero")),
     "check structure-map-equivariance\nstatus fail\n"
     "item rho-equivariance (1,1): nonzero\n"),
    ("check coalgebra", "abelian1.alg scaling1.mod",
     (CoalgebraOnU, "verify",
      Violation("comult-descends", (1, 1, 1), "nonzero normal form")),
     "check coalgebra-laws\nstatus fail\n"
     "item comult-descends (1,1,1): nonzero normal form\n"),
], ids=["univmod", "check-coalgebra"])
def test_failing_printed_certificate_reaches_stdout(capsys, monkeypatch, command,
                                                    files, patched, report):
    # A command prints the reports it computes, so a failing one shows its
    # items on stdout instead of ending as an error on stderr.
    cls, name, violation = patched
    monkeypatch.setattr(cls, name, lambda self: Report((violation,)))
    code = main([*command.split(), *map(fx, files.split())])
    captured = capsys.readouterr()
    assert (code, captured.err) == (1, "")
    assert report in captured.out


@pytest.mark.parametrize("command", ["coalgebra", "check coalgebra", "check comodule"])
def test_failing_descent_is_reported(capsys, monkeypatch, command):
    # The coalgebra commands require B's laws and print B's descent, so a
    # relation that Delta does not carry into the tensor ideal shows there;
    # check comodule prints no descent, so it requires it.
    violation = Violation("comult-descends", (1, 1, 2), "Delta(P) not in tensor ideal")
    monkeypatch.setattr(BialgebraStructure, "descent",
                        property(lambda self: Report((violation,))))
    code = main([*command.split(), fx("sl2.alg"), fx("natural2_sl2.mod")])
    captured = capsys.readouterr()
    assert code == 1
    if command == "check comodule":
        assert captured.out == ""
        assert captured.err.startswith("error: bialgebra verification failed:\n")
    else:
        assert captured.err == ""
        assert ("check tensor-square-action\nstatus fail\n"
                "item comult-descends (1,1,2): Delta(P) not in tensor ideal\n"
                ) in captured.out
        assert [line for line in captured.out.splitlines()
                if line.startswith("item ")] == [
            "item comult-descends (1,1,2): Delta(P) not in tensor ideal"]


@pytest.mark.parametrize("command", ["coalgebra", "check coalgebra", "check comodule"])
def test_corrupted_counit_table_fails_descent(capsys, monkeypatch, command):
    # epsilon(x_11 x_22) = 0 instead of 1 in every B's table: the laws read
    # epsilon of the variables only and pass, and B's own descent reports
    # the two generators with the term X_11 X_22.
    init = BialgebraStructure.__init__

    def corrupted(self, owner):
        init(self, owner)
        x = self.variables
        self._epsilons[owner.table.times(x[0], x[4])] = 0

    monkeypatch.setattr(BialgebraStructure, "__init__", corrupted)
    code = main([*command.split(), fx("sl2.alg"), fx("natural2_sl2.mod")])
    captured = capsys.readouterr()
    assert code == 1
    items = ["counit-kills-ideal (3,1,2): eps = 1", "counit-kills-ideal (3,2,1): eps = -1"]
    if command == "check comodule":
        assert captured.out == ""
        assert captured.err == ("error: bialgebra verification failed:\nfail\n"
                                "  counit-kills-ideal at (3, 1, 2): eps = 1\n"
                                "  counit-kills-ideal at (3, 2, 1): eps = -1\n")
    else:
        assert captured.err == ""
        assert ("check tensor-square-action\nstatus fail\n"
                + "".join(f"item {item}\n" for item in items)) in captured.out
        assert [line for line in captured.out.splitlines()
                if line.startswith("item ")] == [f"item {item}" for item in items]


def test_broken_induced_map_fails_direct_sum(capsys, monkeypatch):
    # Every induced map sends y_sr to twice its image, so no relation maps to
    # its expected image and no composite is the identity.
    induced = universal_modules._induced

    def doubled(x, y, f, others):
        return {p: [(q, 2 * c) for q, c in pairs]
                for p, pairs in induced(x, y, f, others).items()}

    monkeypatch.setattr(universal_modules, "_induced", doubled)
    code, out = run(capsys, "check", "direct-sum", fx("sl2.alg"), fx("sl2.alg"),
                    fx("adjoint_sl2.mod"), fx("adjoint_sl2.mod"), fx("trivial1_sl2.mod"))
    assert code == 1
    assert out == ("check direct-sum\nstatus fail\n"
                   "item direct-sum-forward (): relations not preserved\n"
                   "item direct-sum-backward (): relations not preserved\n"
                   "item direct-sum-round-trip (): not identity\n")


@pytest.mark.parametrize("files", [
    "rep abelian1.alg abelian1.alg counit1.rep",
    "bialgebra abelian1.alg",
    "coalgebra abelian1.alg scaling1.mod",
    "comodule abelian1.alg scaling1.mod",
    "adjunction abelian1.alg abelian1.alg scaling1.mod scaling1.mod counit1.rep one.mor",
    "direct-sum abelian1.alg abelian1.alg scaling1.mod scaling1.mod scaling1.mod",
])
def test_check_honours_order(capsys, monkeypatch, tmp_path, files):
    (tmp_path / "one.mor").write_text("morphism one\nrows 1\ncols 1\nrow 1: 1\n")
    orders = []
    build = cli.UniversalAlgebra

    def recorded(h, g, **options):
        orders.append(options.get("order"))
        return build(h, g, **options)

    monkeypatch.setattr(cli, "UniversalAlgebra", recorded)
    kind, *names = files.split()
    paths = [str(tmp_path / n) if n.endswith(".mor") else fx(n) for n in names]
    assert main(["check", kind, *paths, "--order", "lex"]) == 0
    assert orders == [LEX]


def test_missing_file_exit_2(capsys):
    code, _ = run(capsys, "univalg", fx("nope.alg"), fx("sl2.alg"))
    assert code == 2


@pytest.mark.parametrize("kind, files, want", [
    ("coalgebra", ["sl2.alg"], 2),
    ("rep", ["sl2.alg"], 3),
    ("lie", ["sl2.alg", "sl2.alg"], 1),
])
def test_check_wrong_file_count_exit_2(capsys, kind, files, want):
    code = main(["check", kind, *map(fx, files)])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: check {kind} takes {want} file(s), got {len(files)}\n"


def test_parse_error_exit_2(capsys, tmp_path):
    garbled = tmp_path / "x.alg"
    garbled.write_text("dim two\n")
    code, _ = run(capsys, "check", "lie", str(garbled))
    assert code == 2


def test_mat_line_in_a_lie_module_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.mod"
    bad.write_text("module bad\nkind lie\ndim 1\nmat 1 1: 1:1\n")
    code = main(["check", "module", fx("sl2.alg"), str(bad)])
    assert code == 2
    assert "bad.mod:4: mat line in a kind lie file" in capsys.readouterr().err


@pytest.mark.parametrize("sizes, line", [
    ("rows\ncols 1\n", 2),
    ("rows 1\ncols\n", 3),
    ("rows 1\ncols 1\nrow 1: 0\nrows 2\n", 5),
    ("rows 1\ncols 1\ncols 1\n", 4),
])
def test_bare_rows_cols_exit_2(capsys, tmp_path, sizes, line):
    bad = tmp_path / "bad.mor"
    bad.write_text("morphism f\n" + sizes + "row 1: 0\n")
    code = main(["factorize", "amod", fx("abelian1.alg"), fx("abelian1.alg"),
                 fx("scaling1.mod"), fx("scaling1.mod"), fx("counit1.rep"), str(bad)])
    assert code == 2
    assert f"bad.mor:{line}:" in capsys.readouterr().err


@pytest.mark.parametrize("parse, text", [
    (parse_algebra_text, "dim\n"),
    (parse_module_text, "kind assoc-matrix\ndim\n"),
    (parse_morphism_text, "rows 1\ncols\n"),
    (parse_algebra_text, "dim 3\nbracket 1 2: 3:1\ndim 2\n"),
    (parse_module_text, "kind assoc-matrix\ndim 2\ndim 1\n"),
    (parse_morphism_text, "rows 2\ncols 1\nrow 1: 0\nrow 2: 0\nrows 1\n"),
    (parse_algebra_text, "dim 1_0\n"),
    (parse_morphism_text, "rows \u0662\n"),
])
def test_bare_size_line_is_parse_error(parse, text):
    # A size line without its integer, with an integer outside ASCII
    # [+-]digits, or a second one, is an error on the last line of the text.
    with pytest.raises(ParseError,
                       match="takes one integer|repeated|bad integer") as exc:
        parse(text)
    assert exc.value.line_no == text.count("\n")


@pytest.mark.parametrize("text", ["1e5", "0.5", "1e10000000", "1_0", "\u0663", "1/2/3", "/2",
                                  "1/0", "3/00"])
def test_rational_outside_p_or_p_over_q_is_parse_error(text):
    # Only [+-]digits(/digits) is a rational; float syntax such as 1e10000000
    # would otherwise reach Fraction, which expands the exponent.
    with pytest.raises(ParseError, match="bad rational") as exc:
        parse_morphism_text(f"rows 1\ncols 1\nrow 1: {text}\n")
    assert exc.value.line_no == 3


def test_rational_forms_parse():
    f = parse_morphism_text("rows 1\ncols 5\nrow 1: 3 -2/4 +7 0/5 1/010\n")
    assert f.mat() == [[3, Fraction(-1, 2), 7, 0, Fraction(1, 10)]]


@pytest.mark.parametrize("text", ["1e5", "0.5"])
def test_float_syntax_exit_2(capsys, tmp_path, text):
    bad = tmp_path / "f.mor"
    bad.write_text(f"morphism f\nrows 1\ncols 1\nrow 1: {text}\n")
    code = main(["factorize", "amod", fx("abelian1.alg"), fx("abelian1.alg"),
                 fx("scaling1.mod"), fx("scaling1.mod"), fx("counit1.rep"), str(bad)])
    assert code == 2
    assert f"f.mor:4: bad rational {text!r}" in capsys.readouterr().err


@pytest.mark.parametrize("dim", ["0", "-2"])
def test_nonpositive_dim_exit_2(capsys, tmp_path, dim):
    bad = tmp_path / "dim.alg"
    bad.write_text(f"algebra bad\ndim {dim}\n")
    code = main(["univalg", str(bad), str(bad)])
    assert code == 2
    assert "dim.alg:2: dim must be at least 1" in capsys.readouterr().err


def test_budget_exit_3_flag(capsys):
    code, _ = run(capsys, "univalg", fx("sl2.alg"), fx("sl2.alg"), "--budget", "1")
    assert code == 3


def test_budget_exit_3_env(capsys, monkeypatch):
    monkeypatch.setenv("UNIVALG_BUDGET", "1")
    code, _ = run(capsys, "univalg", fx("sl2.alg"), fx("sl2.alg"))
    assert code == 3


def test_negative_budget_flag_exit_2(capsys):
    code = main(["univalg", fx("abelian1.alg"), fx("abelian1.alg"), "--budget", "-1"])
    assert code == 2
    assert capsys.readouterr().err == "error: --budget must be at least 0, got -1\n"


def test_negative_budget_env_exit_2(capsys, monkeypatch):
    monkeypatch.setenv("UNIVALG_BUDGET", "-1")
    code = main(["univalg", fx("abelian1.alg"), fx("abelian1.alg")])
    assert code == 2
    assert capsys.readouterr().err == "error: UNIVALG_BUDGET must be at least 0, got -1\n"


def test_non_integer_budget_env_exit_2(capsys, monkeypatch):
    monkeypatch.setenv("UNIVALG_BUDGET", "abc")
    code = main(["univalg", fx("abelian1.alg"), fx("abelian1.alg")])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: UNIVALG_BUDGET must be an integer, got 'abc'\n")


@pytest.mark.parametrize("text", ["1_0", " 5 ", "\u0662"],
                         ids=["underscore", "blanks", "arabic-indic-two"])
@pytest.mark.parametrize("source", ["--budget", "UNIVALG_BUDGET"])
def test_budget_takes_only_ascii_integers(capsys, monkeypatch, source, text):
    # A budget is an integer as the input files write one; int() would also
    # take these three, as 10, 5 and 2.
    argv = ["univalg", fx("abelian1.alg"), fx("abelian1.alg")]
    if source == "--budget":
        argv += ["--budget", text]
    else:
        monkeypatch.setenv("UNIVALG_BUDGET", text)
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"error: {source} must be an integer, got {text!r}\n"


def test_negative_degree_probe_exit_2(capsys):
    code = main(["univalg", fx("abelian1.alg"), fx("abelian1.alg"), "--degree-probe", "-2"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "error: --degree-probe must be at least 0, got -2\n"


def test_zero_budget_is_valid(capsys, monkeypatch):
    # A budget of 0 pairs is a budget, not a usage error: A(ab1,ab1) needs no
    # pair and A(sl2,sl2) runs out.
    assert run(capsys, "univalg", fx("abelian1.alg"), fx("abelian1.alg"),
               "--budget", "0")[0] == 0
    monkeypatch.setenv("UNIVALG_BUDGET", "0")
    assert run(capsys, "univalg", fx("sl2.alg"), fx("sl2.alg"))[0] == 3


@pytest.mark.parametrize("name, text, argv", [
    ("big.alg", "algebra big\ndim 1000000\n", ["univalg", "{f}", "{f}"]),
    ("big.mod", "kind lie\ndim 1000000\n", ["check", "module", "abelian1.alg", "{f}"]),
    ("big.mor", "morphism big\nrows 1000000\ncols 1\n",
     ["factorize", "amod", "abelian1.alg", "abelian1.alg", "scaling1.mod",
      "scaling1.mod", "counit1.rep", "{f}"]),
], ids=["alg-dim", "mod-dim", "mor-rows"])
def test_huge_size_exit_2_quickly(capsys, tmp_path, name, text, argv):
    path = tmp_path / name
    path.write_text(text)
    args = [str(path) if a == "{f}" else fx(a) if "." in a else a for a in argv]
    start = time.perf_counter()
    code = main(args)
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code == 2
    directive = text.splitlines()[1].split()[0]
    assert f"{name}:2: {directive} must be at most {MAX_SIZE}" in err
    assert elapsed < 1.0


def test_size_cap_is_64():
    assert MAX_SIZE == 64
    assert parse_morphism_text("morphism m\nrows 64\ncols 1\n").mat() == [[0]] * 64
    with pytest.raises(ParseError, match="rows must be at most 64"):
        parse_morphism_text("morphism m\nrows 65\ncols 1\n")


def test_calls_in_sequence_share_no_state(capsys, monkeypatch):
    # The parser is built once per process; no call may leak its options
    # into the next one.
    monkeypatch.delenv("UNIVALG_BUDGET", raising=False)
    sl2_file = fx("sl2.alg")
    code, out = run(capsys, "univalg", sl2_file, sl2_file, "--golden")
    assert code == 0 and "golden-ideal-match" in out
    code, out = run(capsys, "univalg", sl2_file, sl2_file)
    assert code == 0 and "golden-ideal-match" not in out
    assert run(capsys, "univalg", sl2_file, sl2_file, "--budget", "1")[0] == 3
    assert run(capsys, "univalg", sl2_file, sl2_file)[0] == 0


def test_out_writes_file(capsys, tmp_path):
    target = tmp_path / "report.txt"
    code = main(["check", "lie", fx("sl2.alg"), "--out", str(target)])
    assert code == 0
    assert "status pass" in target.read_text()
    assert capsys.readouterr().out == ""


def test_lex_order_accepted(capsys):
    code, out = run(capsys, "univalg", fx("abelian1.alg"), fx("abelian1.alg"),
                    "--order", "lex")
    assert code == 0
