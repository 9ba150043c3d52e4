"""Exact arithmetic of the benchmark's own, written apart from univalg.

The output checks use only this module, so a fault in univalg's reducers,
Groebner engines or linear algebra cannot hide itself by being used to check
its own results.

Polynomials are dicts from exponent tuples to nonzero Fractions.  The
monomial order is degrevlex with the first variable largest, the order the
program documents for its rings.  Matrices are lists of rows of Fractions,
column convention (column j is the image of the j-th basis vector).
"""

from __future__ import annotations

import re
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


# ---------------------------------------------------------------------------
# Polynomials
# ---------------------------------------------------------------------------


def order_key(m):
    """degrevlex: higher total degree wins; on a tie, the monomial with the
    smaller exponent in the last variable where the two differ wins."""
    return (sum(m), [-e for e in reversed(m)])


def lead(p):
    return max(p, key=order_key)


def divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def add_into(acc: dict, p: dict, c=ONE, shift=None) -> None:
    """acc += c * x^shift * p, in place, dropping zeros."""
    for m, x in p.items():
        if shift is not None:
            m = tuple(u + v for u, v in zip(m, shift))
        v = acc.get(m, ZERO) + c * x
        if v:
            acc[m] = v
        else:
            acc.pop(m, None)


def mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            out[m] = out.get(m, ZERO) + c1 * c2
    return {m: c for m, c in out.items() if c}


def var(n: int, i: int) -> dict:
    return {tuple(1 if k == i else 0 for k in range(n)): ONE}


def reduce(p: dict, basis: list[dict]) -> dict:
    """Remainder of full division of p by the basis: no term of the result
    is divisible by a lead monomial of the basis."""
    leads = [(lead(g), g) for g in basis if g]
    leads = [(lm, g[lm], g) for lm, g in leads]
    work = dict(p)
    rest: dict = {}
    while work:
        m = lead(work)
        c = work[m]
        for lm, lc, g in leads:
            if divides(lm, m):
                q = tuple(x - y for x, y in zip(m, lm))
                add_into(work, g, -c / lc, q)
                break
        else:
            rest[m] = c
            del work[m]
    return rest


def s_poly(f: dict, g: dict) -> dict:
    lf, lg = lead(f), lead(g)
    lcm = tuple(max(x, y) for x, y in zip(lf, lg))
    out: dict = {}
    add_into(out, f, ONE / f[lf], tuple(x - y for x, y in zip(lcm, lf)))
    add_into(out, g, -ONE / g[lg], tuple(x - y for x, y in zip(lcm, lg)))
    return out


_TERM = re.compile(r"^(?:(?P<coef>[0-9]+(?:/[0-9]+)?)\*?)?(?P<mono>.*)$")


def parse_poly(text: str, index: dict[str, int]) -> dict:
    """Read a polynomial in the program's report syntax, e.g.
    ``X[1,3] - 2*X[1,2]*X[3,1] + 1/2*X[1,1]^2 - 3``."""
    n = len(index)
    text = text.strip()
    if text == "0":
        return {}
    sign = ONE
    if text.startswith("-"):
        sign, text = -ONE, text[1:]
    out: dict = {}
    for k, piece in enumerate(re.split(r" ([+-]) ", text)):
        if k % 2:
            sign = ONE if piece == "+" else -ONE
            continue
        match = _TERM.match(piece)
        coef = Fraction(match.group("coef")) if match.group("coef") else ONE
        exps = [0] * n
        mono = match.group("mono")
        if mono:
            for factor in mono.split("*"):
                name, _, power = factor.partition("^")
                if name not in index:
                    raise ValueError(f"unknown variable {name!r} in {text!r}")
                exps[index[name]] += int(power) if power else 1
        elif not match.group("coef"):
            raise ValueError(f"empty term in {text!r}")
        m = tuple(exps)
        v = out.get(m, ZERO) + sign * coef
        if v:
            out[m] = v
        else:
            out.pop(m, None)
    return out


# ---------------------------------------------------------------------------
# Module vectors over the polynomial ring: dicts {(position, monomial): c},
# ordered position over term, the lower position larger.
# ---------------------------------------------------------------------------


def vkey(term):
    pos, m = term
    return (-pos, order_key(m))


def reduce_vector(v: dict, basis: list[dict]) -> dict:
    leads = []
    for g in basis:
        if g:
            lt = max(g, key=vkey)
            leads.append((lt, g[lt], g))
    work = dict(v)
    rest: dict = {}
    while work:
        t = max(work, key=vkey)
        c = work[t]
        for (lpos, lm), lc, g in leads:
            if lpos == t[0] and divides(lm, t[1]):
                q = tuple(x - y for x, y in zip(t[1], lm))
                for (gpos, gm), gc in g.items():
                    key = (gpos, tuple(x + y for x, y in zip(gm, q)))
                    nv = work.get(key, ZERO) - c / lc * gc
                    if nv:
                        work[key] = nv
                    else:
                        work.pop(key, None)
                break
        else:
            rest[t] = c
            del work[t]
    return rest


# ---------------------------------------------------------------------------
# Matrices
# ---------------------------------------------------------------------------


def zeros(r: int, c: int):
    return [[ZERO] * c for _ in range(r)]


def identity(n: int):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    cols = len(b[0]) if b else 0
    return [
        [sum((row[k] * b[k][j] for k in range(len(b))), ZERO) for j in range(cols)]
        for row in a
    ]


def mat_vec(a, v):
    return [sum((x * y for x, y in zip(row, v)), ZERO) for row in a]


def mat_add(a, b, c=ONE):
    return [[x + c * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(c, a):
    return [[c * x for x in row] for row in a]


def commutator(a, b):
    return mat_add(mat_mul(a, b), mat_mul(b, a), -ONE)


def is_zero(a) -> bool:
    return all(not x for row in a for x in row)


def nullspace(rows, n: int):
    """Basis of {x : row . x = 0 for every row}, by Gauss-Jordan elimination."""
    m = [list(r) for r in rows if any(r)]
    pivots: list[int] = []
    r = 0
    for c in range(n):
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        inv = ONE / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    basis = []
    for free in (c for c in range(n) if c not in pivots):
        v = [ZERO] * n
        v[free] = ONE
        for i, pc in enumerate(pivots):
            v[pc] = -m[i][free]
        basis.append(v)
    return basis


def intertwiners(src, tgt, rng=None):
    """Basis of the maps F (tgt_dim x src_dim) with F a_i = b_i F for all
    paired action matrices (a_i of the source, b_i of the target); with an
    ``rng``, one random integer combination of that basis instead."""
    ds = len(src[0]) if src and src[0] else 0
    dt = len(tgt[0]) if tgt and tgt[0] else 0
    rows = []
    for a, b in zip(src, tgt):
        for t in range(dt):
            for j in range(ds):
                row = [ZERO] * (dt * ds)
                for s in range(ds):
                    row[t * ds + s] += a[s][j]
                for u in range(dt):
                    row[u * ds + j] -= b[t][u]
                rows.append(row)
    basis = nullspace(rows, dt * ds)
    mats = [[[v[t * ds + s] for s in range(ds)] for t in range(dt)] for v in basis]
    if rng is None:
        return mats
    out = zeros(dt, ds)
    for m in mats:
        c = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)))
        out = mat_add(out, m, c)
    return out
