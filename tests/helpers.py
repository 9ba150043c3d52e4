"""Shared pools of small exact instances and random-but-valid morphism
generators for the property suites, the oracles they check against, and the
writers of the input formats."""

import itertools
from fractions import Fraction
from math import lcm
from random import Random

from univalg import linalg, modgb, poly
from univalg.coalgebra import FiniteCoalgebraModule
from univalg.formats import MatrixRepData
from univalg.lie import LieAlgebra, LieModule, LinearMap, Report, Violation, sl2
from univalg.modgb import ModuleVector, _terms
from univalg.poly import PolyRing, Polynomial
from univalg.representations import MatrixARep
from univalg.universal_algebra import add_pairs, tensor_normal_form, universal_polynomials
from univalg.universal_modules import PresentedMap

ZERO = Fraction(0)
ONE = Fraction(1)


def count_calls(monkeypatch, owner, name):
    """Count the calls of ``owner.name`` while the test runs."""
    calls = []
    fn = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def forbid_engine(monkeypatch):
    """Make the Groebner engine raise wherever univalg holds it, so that a
    test shows a computation builds no basis."""
    def engine(*args, **kwargs):
        raise RuntimeError("the Groebner engine ran")

    for owner in (poly, modgb):
        monkeypatch.setattr(owner, "_buchberger", engine)


def unit_vector(dim, i):
    """The i-th basis vector of a space of dimension ``dim``, i from 1."""
    v = [0] * dim
    v[i - 1] = 1
    return v


def free_generator(F, pos):
    """The generator e_pos of the free module F."""
    return ModuleVector(F, {pos: F.ring.one()})


def compose(f, g):
    """The linear map f after g."""
    if g.target_dim != f.source_dim:
        raise ValueError("composition dimension mismatch")
    if not f.matrix or not g.matrix:
        return LinearMap.zero(g.source_dim, f.target_dim)
    return LinearMap.from_matrix(linalg.mat_mul(f.mat(), g.mat()), g.source_dim)


def compose_presented(a, b):
    """The map a after b of presented modules: the normal forms of b's images
    with each generator replaced by its image under a."""
    if b.target is not a.source:
        raise ValueError("composition mismatch")
    target = a.target
    return PresentedMap(b.source, target, {
        p: target.mgb.remainder(target.table.substitute(t, a.terms))
        for p, t in b.terms.items()})


def identity_presented(um):
    """The identity of U(U,Z) as a map of presented modules."""
    return PresentedMap(um, um, {
        p: um.mgb.remainder({um._key(p): 1}) for p in range(um.rank)})


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(c, a):
    return [[c * x for x in row] for row in a]


def nullspace(a):
    """Basis of the right kernel of ``a``, read off its reduced row echelon
    form: one vector per free column."""
    cols = len(a[0]) if a else 0
    red, pivots = linalg.rref(a)
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        v = [0] * cols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def term(table, key):
    """(position, monomial) of a packed key of a multiplication table."""
    return table._codec.unpack(key)


def rho(um, z):
    """The structure map of U(U,Z) at z: sum_s u_s (x) sum_r z_r y_sr, as the
    normal forms of its components, one per basis vector u_s of U, each the
    remainder of its packed terms."""
    return [modgb._vector(um.free, um.mgb.remainder(
        {um._key(um.pos(s, r)): linalg.scalar(c) for r, c in enumerate(z, start=1) if c}))
        for s in range(1, um.U.dim + 1)]


def mono_div(a, b):
    """The quotient a / b of monomials, b dividing a."""
    return tuple(x - y for x, y in zip(a, b))


def mono_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def greater(order, a, b) -> bool:
    """Whether the monomial a is larger than b in ``order``."""
    return order.key(a) > order.key(b)


def const(R: PolyRing, c) -> Polynomial:
    """The constant polynomial c of the ring R."""
    return R.monomial((0,) * R.nvars, c)


def lead_monomial(p: Polynomial):
    """The largest monomial of a nonzero polynomial in its ring's order."""
    return max(p.terms, key=p.ring.order.key)


def monomials_up_to_degree(R: PolyRing, dmax: int) -> list:
    """All monomials of R of total degree <= dmax, ascending in R's order."""
    monos = []
    for d in range(dmax + 1):
        for combo in itertools.combinations_with_replacement(range(R.nvars), d):
            e = [0] * R.nvars
            for i in combo:
                e[i] += 1
            monos.append(tuple(e))
    return sorted(monos, key=R.order.key)


def jgens(A) -> list[Polynomial]:
    """The generators P_(a,i,j) of J as polynomials, in the order of A.labels."""
    return universal_polynomials(A.h, A.g, A.ring)


def nf(um, v: ModuleVector) -> ModuleVector:
    """The normal form of ``v`` in the presented module ``um``."""
    return modgb.module_normal_form(v, um.mgb)


def trivial_on_k(owner) -> FiniteCoalgebraModule:
    """The coalgebra k, grouplike 1, with B acting through its counit."""
    one = LinearMap.from_matrix([[ONE]])
    return FiniteCoalgebraModule(MatrixARep.counit(owner), one, one)


def contains_unit(gb) -> bool:
    """Whether the Groebner basis ``gb`` has a constant lead: the unit ideal."""
    return any(not any(lm) for lm in gb.lead_monomials())


def lead(v: ModuleVector):
    """Lead term position and monomial of a module vector under
    position-over-term."""
    pos = min(v.components)
    return pos, lead_monomial(v.components[pos])


def lead_coeff(x):
    """The coefficient of the lead term of a polynomial or module vector."""
    if isinstance(x, ModuleVector):
        pos, mono = lead(x)
        return x.components[pos].terms[mono]
    return x.terms[lead_monomial(x)]


def zero_dimensional(owner) -> MatrixARep:
    """The 0-dimensional module over the universal algebra ``owner``."""
    return MatrixARep(owner, 0, {}, name="0")


def from_lie_homomorphism(owner, images) -> MatrixARep:
    """The 1-dimensional module of a Lie algebra map g -> h: x_si acts by the
    s-th coordinate of the image of f_i."""
    mats = {(s, i): [[images[i - 1][s - 1]]]
            for s in range(1, owner.h.dim + 1) for i in range(1, owner.g.dim + 1)}
    return MatrixARep(owner, 1, mats, name="scalar")


def poly_mul(v: ModuleVector, f: Polynomial) -> ModuleVector:
    """The module vector v times the polynomial f."""
    return ModuleVector(v.module, {p: q * f for p, q in v.components.items()})


def degree(p: Polynomial) -> int:
    """Total degree of a polynomial; -1 for zero."""
    return max((sum(m) for m in p.terms), default=-1)


def solve_unique(a, b):
    """Solve a x = b; the solution if it exists and is unique, else None."""
    cols = len(a[0]) if a else 0
    red, pivots = linalg.rref([row[:] + [bi] for row, bi in zip(a, b)])
    if cols in pivots or len(pivots) < cols:
        return None  # inconsistent or underdetermined
    x = [ZERO] * cols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][cols]
    return x


def pbw_words(v):
    """The terms (p, word, c) of a free PBW vector: the word (t1, ..., tk)
    acts as e_t1 after ... after e_tk, so it indexes h's basis from 0."""
    return tuple(
        (p, tuple(t - 1 for t in w), c)
        for p, e in v.components.items() for w, c in e.terms.items()
    )


def push_to_module(fbar, Y, images):
    """A map V(V,X) -> V(V,Y), whose images are word terms, composed with a
    factorization target map given on the generators of V(V,Y)."""
    return {p: linalg.evaluate(terms, Y.matrices, images, Y.dim)
            for p, terms in fbar.images.items()}


def is_collapsed(um) -> bool:
    """Whether every generator of U(U,Z) reduces to zero (degenerate but
    legal)."""
    return all(nf(um, free_generator(um.free, p)).is_zero() for p in range(um.rank))


def is_abelian(L: LieAlgebra) -> bool:
    return all(c == 0 for plane in L.table for row in plane for c in row)


def solvable2() -> LieAlgebra:
    """The 2-dimensional non-abelian algebra: [e1, e2] = e2."""
    return LieAlgebra.from_brackets(
        2, {(1, 2): {2: ONE}}, name="solvable2", antisymmetrize=True
    )


def heisenberg() -> LieAlgebra:
    """3-dimensional: [e1, e2] = e3, e3 central."""
    return LieAlgebra.from_brackets(
        3, {(1, 2): {3: ONE}}, name="heisenberg", antisymmetrize=True
    )


def natural2(L: LieAlgebra) -> LieModule:
    """The 2-dimensional module of sl(2): e1, e2 the nilpotents, e3 diagonal."""
    mats = [
        [[ZERO, ONE], [ZERO, ZERO]],
        [[ZERO, ZERO], [ONE, ZERO]],
        [[ONE, ZERO], [ZERO, -ONE]],
    ]
    return LieModule.from_matrices(L, mats, name="natural2")


# sl3's basis: the E_ij with i != j, in lexicographic order of (i, j), then
# E11 - E22 and E22 - E33.
_SL3_UNITS = [(i, j) for i in range(3) for j in range(3) if i != j]


def sl3_matrix(k: int) -> list:
    """The 3x3 matrix of sl3's basis element k, from 0."""
    m = [[ZERO] * 3 for _ in range(3)]
    if k < len(_SL3_UNITS):
        i, j = _SL3_UNITS[k]
        m[i][j] = ONE
    else:
        d = k - len(_SL3_UNITS)
        m[d][d], m[d + 1][d + 1] = ONE, -ONE
    return m


def sl3_coordinates(m) -> list:
    """The coordinates of a traceless 3x3 matrix in sl3's basis: its entries
    off the diagonal, then d1 and -d3 for its diagonal (d1, d2, d3)."""
    return [m[i][j] for i, j in _SL3_UNITS] + [m[0][0], -m[2][2]]


def sl3() -> LieAlgebra:
    """sl(3) on the basis of ``sl3_matrix``, its brackets the commutators."""
    mats = [sl3_matrix(k) for k in range(8)]
    return LieAlgebra(8, [[sl3_coordinates(linalg.commutator(a, b)) for b in mats]
                          for a in mats], name="sl3")


def natural3(L: LieAlgebra) -> LieModule:
    """The 3-dimensional module of ``sl3()``: each basis element acts by its
    matrix."""
    return LieModule(L, [sl3_matrix(k) for k in range(8)], name="natural3")


def principal_matrices(e_scale=ONE) -> list:
    """The images of sl2's basis e1 = e, e2 = f, e3 = h under the principal
    embedding into sl3, e -> E12 + E23, f -> 2 E21 + 2 E32 and
    h -> diag(2, 0, -2), with e's image times ``e_scale``."""
    e = [[ZERO, e_scale, ZERO], [ZERO, ZERO, e_scale], [ZERO, ZERO, ZERO]]
    f = [[ZERO, ZERO, ZERO], [2 * ONE, ZERO, ZERO], [ZERO, 2 * ONE, ZERO]]
    h = [[2 * ONE, ZERO, ZERO], [ZERO, ZERO, ZERO], [ZERO, ZERO, -2 * ONE]]
    return [e, f, h]


def principal_images(e_scale=ONE) -> list:
    """``principal_matrices`` in sl3's coordinates."""
    return [sl3_coordinates(m) for m in principal_matrices(e_scale)]


def principal_point(owner, e_scale=ONE) -> MatrixARep:
    """The point module over A(sl3, sl2) of ``principal_images``."""
    return from_lie_homomorphism(owner, principal_images(e_scale))


def algebra_pool() -> list[LieAlgebra]:
    return [
        LieAlgebra.abelian(1),
        LieAlgebra.abelian(2),
        LieAlgebra.abelian(3),
        sl2(),
        solvable2(),
        heisenberg(),
    ]


def module_pool(L: LieAlgebra, rng: Random, max_dim: int = 3) -> LieModule:
    """A random valid Lie module over L of dimension <= max_dim."""
    options = [LieModule.trivial(L, rng.randint(1, max_dim))]
    if L.dim <= max_dim:
        options.append(LieModule.adjoint(L))
    if L.name == "sl2" and max_dim >= 2:
        options.append(natural2(L))
    if L.name == "abelian1":
        # Any single matrix is a module over the 1-dim abelian algebra.
        d = rng.randint(1, max_dim)
        m = [[Fraction(rng.randint(-2, 2)) for _ in range(d)] for _ in range(d)]
        options.append(LieModule.from_matrices(L, [m], name="random1"))
    small = [M for M in options if M.dim <= max_dim]
    return rng.choice(small)


def rep_pool(A, rng: Random, max_dim: int = 3) -> MatrixARep:
    """A random valid matrix module over the universal algebra A."""
    options = [from_lie_homomorphism(
        A, [[ZERO] * A.h.dim for _ in range(A.g.dim)]
    )]
    if A.is_same_hg():
        options.append(MatrixARep.counit(A))
    if is_abelian(A.h) and is_abelian(A.g):
        # All relations vanish identically, so commuting (diagonal) matrices
        # of any size are valid.
        d = rng.randint(1, max_dim)
        mats = {
            (s, i): [
                [Fraction(rng.randint(-2, 2)) if r == c else ZERO for c in range(d)]
                for r in range(d)
            ]
            for s in range(1, A.h.dim + 1)
            for i in range(1, A.g.dim + 1)
        }
        options.append(MatrixARep(A, d, mats, name="diag"))
    base = rng.choice(options)
    if base.dim < max_dim and rng.random() < 0.5:
        other = rng.choice(options)
        if base.dim + other.dim <= max_dim:
            return base.direct_sum(other)
    return base


def _solution_space(rows: list[list[Fraction]], n_unknowns: int) -> list[list[Fraction]]:
    if not rows:
        return [
            [ONE if i == j else ZERO for j in range(n_unknowns)]
            for i in range(n_unknowns)
        ]
    return nullspace(rows)


def random_equivariant_map(rng: Random, M: LieModule, N: LieModule) -> LinearMap:
    """A random morphism of Lie modules M -> N: exact nullspace of the
    intertwining constraints, then a random integer combination."""
    src, tgt = M.dim, N.dim
    n_unknowns = tgt * src
    rows: list[list[Fraction]] = []
    for a_m, a_n in zip(M.matrices, N.matrices):
        for j in range(src):
            for t in range(tgt):
                row = [ZERO] * n_unknowns
                # (F a_m)[t][j] - (a_n F)[t][j] = 0
                for s in range(src):
                    row[t * src + s] += a_m[s][j]
                for u in range(tgt):
                    row[u * src + j] -= a_n[t][u]
                rows.append(row)
    basis = _solution_space(rows, n_unknowns)
    flat = [ZERO] * n_unknowns
    for b in basis:
        c = Fraction(rng.randint(-2, 2))
        if c:
            flat = [x + c * y for x, y in zip(flat, b)]
    mat = [[flat[t * src + s] for s in range(src)] for t in range(tgt)]
    return LinearMap.from_matrix(mat, src)


def random_arep_morphism(rng: Random, V: MatrixARep, W: MatrixARep) -> LinearMap:
    """A random A-module map V -> W (intertwines every generator matrix)."""
    src, tgt = V.dim, W.dim
    n_unknowns = tgt * src
    rows: list[list[Fraction]] = []
    for a_v, a_w in zip(V.matrices, W.matrices):
        for j in range(src):
            for t in range(tgt):
                row = [ZERO] * n_unknowns
                for s in range(src):
                    row[t * src + s] += a_v[s][j]
                for u in range(tgt):
                    row[u * src + j] -= a_w[t][u]
                rows.append(row)
    basis = _solution_space(rows, n_unknowns)
    flat = [ZERO] * n_unknowns
    for b in basis:
        c = Fraction(rng.randint(-2, 2))
        if c:
            flat = [x + c * y for x, y in zip(flat, b)]
    mat = [[flat[t * src + s] for s in range(src)] for t in range(tgt)]
    return LinearMap.from_matrix(mat, src)


def reference_row(components):
    """A normal form given by its components (position -> polynomial) as a
    row (den, {(position, monomial): numerator}), den the lcm of its
    coefficients' denominators: the oracle for a multiplication table row,
    from one normal_form or module_normal_form reduction."""
    den = lcm(*(Fraction(c).denominator
                for p in components.values() for c in p.terms.values()))
    return den, {(q, m): int(c * den)
                 for q, p in components.items() for m, c in p.terms.items()}


def row_entries(table, row):
    """A stored table row as its denominator and a dict (position, monomial)
    -> numerator, its keys read through ``term``."""
    den, nums = row
    return den, {term(table, k): n for k, n in nums.items()}


def act(um, p, v: ModuleVector) -> ModuleVector:
    """p . v in U(U,Z) read off the module's multiplication table: the rows
    of the products of their terms, scaled and summed."""
    table, acc = um.table, {}
    factor = poly._pack({0: p}, poly._codec_of(p.ring))
    for k1, c1 in _terms(v).items():
        for k2, c2 in factor.items():
            den, nums = table.row(table.times(k1, k2))
            for u, n in nums.items():
                acc[u] = acc.get(u, ZERO) + Fraction(c1 * c2 * n, den)
    return modgb._vector(um.free, {u: linalg.scalar(c) for u, c in acc.items() if c})


def eval_scalars(p: Polynomial, values) -> Fraction:
    """p at rational values, one per variable."""
    out = ZERO
    for m, c in p.terms.items():
        for x, e in zip(values, m):
            c *= x ** e
        out += c
    return out


def epsilon(B, p: Polynomial):
    """The counit of B on a polynomial of A: p at X[i,j] = delta_ij."""
    n = B.n
    return eval_scalars(p, [int(k // n == k % n) for k in range(n * n)])


def tensor_ring(B) -> PolyRing:
    """The doubled ring {X'[i,j]} u {X''[i,j]} of B (x) B, whose ideal is
    J' + J''."""
    n = B.n
    names = [f"X'[{i},{j}]" for i in range(1, n + 1) for j in range(1, n + 1)]
    names += [f"X''[{i},{j}]" for i in range(1, n + 1) for j in range(1, n + 1)]
    return PolyRing(names, B.owner.ring.order)


def delta(B, p: Polynomial) -> Polynomial:
    """Delta(p) of B, reduced factor-wise, as a polynomial of the doubled
    ring: Delta of each monomial read from B's table."""
    table, pairs = B.owner.table, {}
    for k, c in poly._pack({0: p}, poly._codec_of(p.ring)).items():
        add_pairs(pairs, B._delta_of_key(k), c)
    return Polynomial(tensor_ring(B), {
        term(table, a)[1] + term(table, b)[1]: c
        for (a, b), c in tensor_normal_form(pairs, table).items()})


def ring_map(p, target, images):
    """The ring homomorphism into ``target`` sending variable i to
    images[i], applied to ``p`` term by term."""
    out = target.zero()
    for m, c in p.terms.items():
        t = const(target, c)
        for i, e in enumerate(m):
            for _ in range(e):
                t = t * images[i]
        out = out + t
    return out


def doubled(table, ring2, elem):
    """A tensor-square element, pairs of ``table``'s keys -> scalar, as
    position pair -> polynomial in the doubled ring ``ring2``, its keys read
    through ``term``."""
    out = {}
    for (k1, k2), c in elem.items():
        (p1, m1), (p2, m2) = term(table, k1), term(table, k2)
        out.setdefault((p1, p2), {})[m1 + m2] = c
    return {key: Polynomial(ring2, terms) for key, terms in out.items()}


def delta_images(B):
    """Delta(x_ij) = sum_s X'[i,s] X''[s,j] in B's doubled ring, built from
    its variables, one image per variable of A in ring order."""
    n, R = B.n, tensor_ring(B)
    return [sum((R.var(i * n + s) * R.var(n * n + s * n + j) for s in range(n)),
                R.zero())
            for i in range(n) for j in range(n)]


def reference_delta_of_vector(um, B, v):
    """TensorSquare.delta_of_terms of U(U) in the doubled ring: the ring map
    Delta of B, applied to each coefficient polynomial as a whole."""
    images = delta_images(B)
    out = {}
    for p, q in v.components.items():
        l, t = p // um.Z.dim + 1, p % um.Z.dim + 1
        dq = ring_map(q, tensor_ring(B), images)
        for s in range(1, um.U.dim + 1):
            key = (um.pos(l, s), um.pos(s, t))
            out[key] = out[key] + dq if key in out else dq
    return {key: p for key, p in out.items() if not p.is_zero()}


def reference_tensor_normal_form(um, B, elem, rows):
    """TensorSquare.normal_form of U(U) in the doubled ring, as a loop over
    exact scalars: ``elem`` maps position pairs to polynomials, the rows are
    the module normal forms of x^m e_p, memoised in ``rows``, and every
    product and sum is a Fraction operation."""
    n2 = um.A.ring.nvars

    def row(pos, m):
        if (pos, m) not in rows:
            v = nf(um, ModuleVector(um.free, {pos: um.A.ring.monomial(m)}))
            rows[(pos, m)] = {q: p.terms for q, p in v.components.items()}
        return rows[(pos, m)]

    acc = {}
    for (p1, p2), q in elem.items():
        for m, c in q.terms.items():
            row2 = row(p2, m[n2:])
            for q1, f1 in row(p1, m[:n2]).items():
                for q2, f2 in row2.items():
                    terms = acc.setdefault((q1, q2), {})
                    for m1, c1 in f1.items():
                        c1 = Fraction(c1) * c
                        for m2, c2 in f2.items():
                            m12 = m1 + m2
                            terms[m12] = terms.get(m12, ZERO) + c1 * c2
    out = {}
    for key, terms in acc.items():
        p = Polynomial(tensor_ring(B), terms)
        if not p.is_zero():
            out[key] = p
    return out


def tensor_square_inputs(um, sq):
    """What the coalgebra certificates give TensorSquare: the vectors whose
    Delta they take (every relation, every generator y_lt and every
    x_ab . y_lt), and the tensor elements x_ab . Delta(y_lt)."""
    n, m = um.A.h.dim, um.U.dim
    gens = [free_generator(um.free, um.pos(l, t))
            for l in range(1, m + 1) for t in range(1, m + 1)]
    vectors = list(um.relgens) + gens
    acted = []
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            xab = um.A.ring.var(um.A.var_index(a, b))
            for y in gens:
                vectors.append(act(um, xab, y))
                acted.append(sq.bmodule_act(a, b, sq.delta_of_terms(_terms(y))))
    return vectors, acted


def reference_universal_polynomials(h: LieAlgebra, g: LieAlgebra, ring) -> list:
    """The generators P_(a,i,j) of J in (a,i,j) order, zeros retained, by
    ``Polynomial`` arithmetic over exact scalars: the linear part
    sum_u beta^u_ij X_au minus tau^a_st X_si X_tj for every (s, t), each a
    product of two variables, zero structure constants skipped."""
    n, d = h.dim, g.dim

    def vidx(s: int, i: int) -> int:  # 1-based (s,i) -> variable index
        return (s - 1) * d + (i - 1)

    gens = []
    for a in range(1, n + 1):
        for i in range(1, d + 1):
            for j in range(1, d + 1):
                p = ring.zero()
                for u in range(1, d + 1):
                    beta = g.table[i - 1][j - 1][u - 1]
                    if beta:
                        p = p + ring.var(vidx(a, u)).scale(beta)
                for s in range(1, n + 1):
                    for t in range(1, n + 1):
                        tau = h.table[s - 1][t - 1][a - 1]
                        if tau:
                            p = p - (
                                ring.var(vidx(s, i)) * ring.var(vidx(t, j))
                            ).scale(tau)
                gens.append(p)
    return gens


def reference_eval_matrices(p: Polynomial, mats: list) -> list:
    """p at square matrices, one per variable, as a loop over matrix
    products: each monomial is M_0^e0 ... M_k^ek with the factors in ring
    order, so the matrices need not commute."""
    dim = len(mats[0]) if mats else 0
    out = linalg.zeros(dim, dim)
    for m, c in p.terms.items():
        acc = linalg.identity(dim)
        for i, e in enumerate(m):
            for _ in range(e):
                acc = linalg.mat_mul(acc, mats[i])
        out = mat_add(out, mat_scale(c, acc))
    return out


def reference_validate_arep(R: MatrixARep) -> tuple:
    """The violations of ``validate_arep`` on a rep of positive dimension, as
    (check, location) pairs: a nonzero commutator for each pair of variables
    (s, i) in ring order, then each relation of A with a nonzero matrix under
    ``reference_eval_matrices``."""
    keys = [(s, i) for s in range(1, R.owner.h.dim + 1)
            for i in range(1, R.owner.g.dim + 1)]
    mats = [R.matrix(*key) for key in keys]
    out = [("commutativity", keys[a] + keys[b])
           for a in range(len(keys)) for b in range(a + 1, len(keys))
           if linalg.mat_mul(mats[a], mats[b]) != linalg.mat_mul(mats[b], mats[a])]
    out += [("relation", label)
            for label, gen in zip(R.owner.labels, jgens(R.owner))
            if any(any(row) for row in reference_eval_matrices(gen, mats))]
    return tuple(out)


def reference_validate_lie_algebra(L: LieAlgebra) -> Report:
    """``validate_lie_algebra`` as a dense sweep: every (i, j, s) for
    antisymmetry, then every triple i < j < k for Jacobi through
    ``L.bracket`` on basis vectors, zero structure constants included."""
    bad = []
    n = L.dim
    for i in range(n):
        for j in range(n):
            for s in range(n):
                if L.table[i][j][s] != -L.table[j][i][s]:
                    bad.append(Violation(
                        "antisymmetry", (i + 1, j + 1, s + 1),
                        f"c[{i+1}][{j+1}][{s+1}]={L.table[i][j][s]} vs "
                        f"-c[{j+1}][{i+1}][{s+1}]={-L.table[j][i][s]}"))
    for i in range(n):
        ei = unit_vector(L.dim, i + 1)
        for j in range(i + 1, n):
            ej = unit_vector(L.dim, j + 1)
            for k in range(j + 1, n):
                ek = unit_vector(L.dim, k + 1)
                acc = L.bracket(L.bracket(ei, ej), ek)
                acc = [a + b for a, b in zip(acc, L.bracket(L.bracket(ej, ek), ei))]
                acc = [a + b for a, b in zip(acc, L.bracket(L.bracket(ek, ei), ej))]
                if any(acc):
                    bad.append(Violation("jacobi", (i + 1, j + 1, k + 1),
                                         f"residual {linalg.vec_str(acc)}"))
    return Report(tuple(bad))


def reference_remainder(basis, v, order):
    """The remainder of full division of ``v`` by ``basis`` over Q, both as
    dicts (position, monomial) -> exact scalar, under position-over-term
    order (a lower position wins, then ``order``).  Tuple monomials, the
    whole basis rescanned for every term, each quotient a ``Fraction``: no
    packed term, integer row or scale factor of the engine."""
    def key(t):
        return -t[0], order.key(t[1])

    leads = [max(b, key=key) for b in basis]
    work, rem = dict(v), {}
    while work:
        t = max(work, key=key)
        c = work.pop(t)
        for b, (p, lm) in zip(basis, leads):
            if p != t[0] or any(x > y for x, y in zip(lm, t[1])):
                continue
            f = Fraction(c) / b[(p, lm)]
            q = tuple(y - x for x, y in zip(lm, t[1]))
            for (bp, bm), bc in b.items():
                if (bp, bm) != (p, lm):
                    u = (bp, tuple(x + y for x, y in zip(bm, q)))
                    w = work.get(u, ZERO) - f * bc
                    if w:
                        work[u] = w
                    else:
                        work.pop(u, None)
            break
        else:
            rem[t] = c
    return rem


# ---------------------------------------------------------------------------
# Writers of the input formats: canonical, sorted, deterministic text, which
# the parsers read back to the same object.
# ---------------------------------------------------------------------------


def render_algebra(L: LieAlgebra) -> str:
    out = [f"algebra {L.name or 'unnamed'}", f"dim {L.dim}"]
    for i in range(L.dim):
        for j in range(L.dim):
            pairs = [f"{s + 1}:{L.table[i][j][s]}" for s in range(L.dim)
                     if L.table[i][j][s]]
            if pairs:
                out.append(f"bracket {i + 1} {j + 1}: " + " ".join(pairs))
    return "\n".join(out) + "\n"


def render_module(M: LieModule, over: str = "") -> str:
    out = [
        f"module {M.name or 'unnamed'}",
        f"over {over or M.algebra.name or 'unnamed'}",
        "kind lie",
        f"dim {M.dim}",
    ]
    for i, m in enumerate(M.matrices):
        for j in range(M.dim):
            pairs = [f"{s + 1}:{row[j]}" for s, row in enumerate(m) if row[j]]
            if pairs:
                out.append(f"action {i + 1} {j + 1}: " + " ".join(pairs))
    return "\n".join(out) + "\n"


def render_matrix_rep_data(D: MatrixRepData) -> str:
    out = [
        f"module {D.name or 'unnamed'}",
        f"over {D.over or 'unnamed'}",
        "kind assoc-matrix",
        f"dim {D.dim}",
    ]
    for (s, i) in sorted(D.entries):
        m = D.entries[(s, i)]
        pairs = [f"{r * D.dim + c + 1}:{m[r][c]}"
                 for r in range(D.dim) for c in range(D.dim) if m[r][c]]
        if pairs:
            out.append(f"mat {s} {i}: " + " ".join(pairs))
    return "\n".join(out) + "\n"


def render_morphism(f: LinearMap, name: str = "unnamed") -> str:
    out = [f"morphism {name}", f"rows {f.target_dim}", f"cols {f.source_dim}"]
    for k, row in enumerate(f.matrix, start=1):
        out.append(f"row {k}: " + " ".join(str(x) for x in row))
    return "\n".join(out) + "\n"
