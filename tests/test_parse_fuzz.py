"""Fuzzing of the file parsers: any text made of the directive vocabulary
either parses or raises ParseError/ValidationError, never another exception,
and the CLI turns a parse failure in any file position into exit code 2."""

import os
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from univalg.cli import main
from univalg.formats import (
    ParseError,
    ValidationError,
    parse_algebra_text,
    parse_module_text,
    parse_morphism_text,
)
from univalg.lie import LieAlgebra, sl2

# Small sizes, and formats.MAX_SIZE = 64 and one past it, which the parsers
# must reject.  The Jacobi sweep visits only nonzero brackets, so a 64-dim
# algebra with a few bracket lines validates at once.
SIZES = ["1", "2", "3", "4", "0", "-1", "64", "65"]  # simplest first, for shrinking
COEFFS = ["1", "-1", "2", "-2", "1/2", "-3/4", "0", "5", "1/3", "3/0", "0.5"]
TOKENS = SIZES + COEFFS + [f"{n}:" for n in SIZES] + [":", "x", "lie", "assoc-matrix", "#"]
FIELD = re.compile(r"\{(\w+)\}")


@st.composite
def document(draw, header: str, templates: list[str], directives: list[str]):
    """In three cases of four the ``header`` first, its {n} and {m} fields
    sizes; then up to six lines, three in five of them ``templates``:
    each {i} field an index up to one past the size n, {k} a flat index up to
    one past n*n, {pairs} some "index:coefficient" and {coeffs} some
    coefficients.  The others are one of ``directives``, or an unknown one,
    with random tokens, or blank."""
    n, m = draw(st.sampled_from(SIZES)), draw(st.sampled_from(SIZES))
    top = max(int(n), 1) + 1
    fill = {
        "n": lambda: n, "m": lambda: m,
        "i": lambda: str(draw(st.integers(1, top))),
        "k": lambda: str(draw(st.integers(1, top * top))),
        "pairs": lambda: " ".join(
            f"{fill['i']()}:{draw(st.sampled_from(COEFFS))}"
            for _ in range(draw(st.integers(1, 2)))),
        "coeffs": lambda: " ".join(draw(st.lists(st.sampled_from(COEFFS), max_size=4))),
    }
    lines = [FIELD.sub(lambda f: fill[f[1]](), header)] if draw(st.integers(0, 3)) else []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.integers(0, 4))
        if kind < 3:
            lines.append(FIELD.sub(lambda f: fill[f[1]](), draw(st.sampled_from(templates))))
        elif kind == 3:
            tokens = draw(st.lists(st.sampled_from(TOKENS), max_size=5))
            lines.append(" ".join([draw(st.sampled_from([*directives, "bogus"])), *tokens]))
        else:
            lines.append(draw(st.sampled_from(["", "# comment"])))
    return "\n".join(lines)


ALGEBRA_TEXT = document("dim {n}", ["algebra x", "bracket {i} {i}: {pairs}"],
                        ["algebra", "dim", "bracket"])
MODULE_TEXT = document(
    "dim {n}",
    ["module x", "over sl2", "kind lie", "kind assoc-matrix",
     "action {i} {i}: {pairs}", "mat {i} {i}: {k}:1 {pairs}"],
    ["module", "over", "kind", "dim", "action", "mat"])
MORPHISM_TEXT = document("rows {n}\ncols {m}", ["morphism f", "row {i}: {coeffs}"],
                         ["morphism", "rows", "cols", "row"])

FUZZ = settings(max_examples=100, deadline=None)


@FUZZ
@given(ALGEBRA_TEXT)
def test_algebra_text_parses_or_raises_parse_errors(body):
    try:
        parse_algebra_text(body)
    except (ParseError, ValidationError):
        pass


@pytest.mark.parametrize("algebra", [None, LieAlgebra.abelian(1), sl2()],
                         ids=["no-algebra", "abelian1", "sl2"])
@FUZZ
@given(body=MODULE_TEXT, kind=st.sampled_from(["lie", "assoc-matrix"]))
def test_module_text_parses_or_raises_parse_errors(algebra, body, kind):
    try:
        parse_module_text(f"kind {kind}\n{body}", algebra=algebra)
    except (ParseError, ValidationError):
        pass


@FUZZ
@given(MORPHISM_TEXT)
def test_morphism_text_parses_or_raises_parse_errors(body):
    try:
        parse_morphism_text(body)
    except (ParseError, ValidationError):
        pass


FIX = os.path.join(os.path.dirname(__file__), "fixtures")
MALFORMED_ALGEBRA = "algebra bad\ndim 3\nbracket 1 2 3:1\n"
MALFORMED_REP = "module bad\nkind assoc-matrix\nmat 1 1: 1:1\n"


@pytest.mark.parametrize("position", [0, 1, 2])
def test_check_rep_parse_failure_in_any_file_exits_2(capsys, tmp_path, position):
    files = [os.path.join(FIX, name) for name in ("sl2.alg", "sl2.alg", "counit3.rep")]
    bad = tmp_path / ("bad.rep" if position == 2 else "bad.alg")
    bad.write_text(MALFORMED_REP if position == 2 else MALFORMED_ALGEBRA)
    files[position] = str(bad)
    code = main(["check", "rep", *files])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith(f"error: {bad}:3: ")
