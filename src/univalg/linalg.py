"""Small exact linear algebra over Q, on plain lists of exact scalars.

A scalar is an exact rational held as ``int | Fraction``: every entry point of
univalg stores an integral value as a Python ``int`` (see :func:`scalar`), so
integer-only work runs on machine-size ints, and a genuine fraction stays a
``Fraction``.  No scalar is divided with ``/``: a quotient is
``scalar(Fraction(a, b))``, which keeps it exact for ``int`` operands too.
Everything here works on row-major lists of lists of scalars, and reads the
immutable tuples of tuples (:func:`freeze`) in which structures store their
matrices as well.  Dimensions are
desk scale (tens), so sparsity goes no further than skipping zero entries.

The constructions that several modules share live here once: the block sum
of two matrices (``block_diag``, for direct sums of Lie modules and of
A-modules), the intertwining test F M_i = N_i F (``intertwines``, for maps of
Lie modules and of A-modules), the pairs of non-commuting matrices
(``noncommuting_pairs``) and the image of a free vector given by words in
matrices (``evaluate``, for the relations of A, of U(U,Z) and of V(V,W)).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator

Scalar = int | Fraction
Vec = list[Scalar]
Mat = list[list[Scalar]]
Frozen = tuple[tuple[Scalar, ...], ...]

ZERO = 0
ONE = 1


def scalar(x) -> Scalar:
    """The exact scalar of ``x``: an ``int`` passes through unchanged, anything
    else becomes a ``Fraction``, returned as its numerator when it is
    integral."""
    if type(x) is int:
        return x
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def freeze(m) -> Frozen:
    """The immutable copy of a matrix (or of any table of rows): a tuple of
    row tuples, each entry its exact :func:`scalar`."""
    return tuple(tuple(scalar(x) for x in row) for row in m)


def vec_str(v: Vec) -> str:
    """A vector as report text, each entry as ``str`` writes it ("-1/2"), so
    the text does not depend on the type of a scalar."""
    return "[" + ", ".join(str(x) for x in v) + "]"


def combination_str(terms) -> str:
    """A linear combination as report text.  ``terms`` are (basis name,
    scalar) pairs in the order to print, the unit named "1"; a coefficient
    of 1 or -1 is not printed before a name, and signs join the terms, so
    ("x", 1), ("y", -2), ("1", 3) reads "x - 2*y + 3".  No terms read "0"."""
    parts = []
    for name, c in terms:
        if name == "1":
            body = str(c)
        elif c == 1:
            body = name
        elif c == -1:
            body = f"-{name}"
        else:
            body = f"{c}*{name}"
        if parts and not body.startswith("-"):
            parts.append(f" + {body}")
        elif parts:
            parts.append(f" - {body[1:]}")
        else:
            parts.append(body)
    return "".join(parts) or "0"


def zeros(rows: int, cols: int) -> Mat:
    return [[ZERO] * cols for _ in range(rows)]


def identity(n: int) -> Mat:
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def mat_sub(a: Mat, b: Mat) -> Mat:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_mul(a: Mat, b: Mat) -> Mat:
    if a and b and len(a[0]) != len(b):
        raise ValueError("matrix dimension mismatch")
    n, k = len(a), len(b)
    m = len(b[0]) if b else 0
    out = zeros(n, m)
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            c = ai[t]
            if c:
                bt = b[t]
                for j in range(m):
                    if bt[j]:
                        oi[j] += c * bt[j]
    return out


def mat_vec(a: Mat, v: Vec) -> Vec:
    if a and len(a[0]) != len(v):
        raise ValueError("matrix/vector dimension mismatch")
    return [sum((c * x for c, x in zip(row, v) if c and x), ZERO) for row in a]


def commutator(a: Mat, b: Mat) -> Mat:
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


def is_zero_mat(a: Mat) -> bool:
    return all(x == 0 for row in a for x in row)


def noncommuting_pairs(mats: list[Mat]) -> Iterator[tuple[int, int]]:
    """The index pairs (a, b), a < b, of the matrices with a nonzero
    commutator, in lexicographic order."""
    for a in range(len(mats)):
        for b in range(a + 1, len(mats)):
            if not is_zero_mat(commutator(mats[a], mats[b])):
                yield a, b


def intertwines(f: Mat, ms: Iterable[Mat], ns: Iterable[Mat]) -> bool:
    """True iff F M_i = N_i F for each pair (M_i, N_i) of ``zip(ms, ns)``;
    the pairs are tested in order, up to the first that fails."""
    return all(mat_mul(f, m) == mat_mul(n, f) for m, n in zip(ms, ns))


def block_diag(a: Mat, b: Mat) -> Mat:
    """The square block-diagonal matrix with the square ``a`` above ``b``."""
    d1, d2 = len(a), len(b)
    return ([list(row) + [ZERO] * d2 for row in a]
            + [[ZERO] * d1 + list(row) for row in b])


def evaluate(terms, mats: list[Mat], images: dict[int, Vec], dim: int) -> Vec:
    """Image of one free vector under the module map sending position p to
    images[p].

    The vector is given as terms (p, word, c).  A word is a tuple of indices
    into ``mats`` and acts right to left: (a, b) sends v to a(b(v)).
    """
    out = [ZERO] * dim
    for p, word, c in terms:
        v = images[p]
        if dim and len(v) != dim:
            raise ValueError("matrix/vector dimension mismatch")
        for a in reversed(word):
            v = mat_vec(mats[a], v)
        for i, x in enumerate(v):
            if x:
                out[i] += c * x
    return out


def kron(a: Mat, b: Mat) -> Mat:
    """Kronecker product, blocks ordered by the rows/cols of ``a``."""
    if not a or not b:
        return []
    n, m = len(a), len(a[0])
    p, q = len(b), len(b[0])
    out = zeros(n * p, m * q)
    for i in range(n):
        for j in range(m):
            c = a[i][j]
            if c:
                for r in range(p):
                    for s in range(q):
                        out[i * p + r][j * q + s] = c * b[r][s]
    return out


def rref(a: Mat) -> tuple[Mat, list[int]]:
    """Reduced row echelon form and the list of pivot columns."""
    m = [row[:] for row in a]
    rows = len(m)
    cols = len(m[0]) if m else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = scalar(Fraction(1, m[r][c]))
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def rank(a: Mat) -> int:
    return len(rref(a)[1])
