"""The benchmark's inputs, written from structure constants, and the Lie
algebra homomorphisms that serve as evaluation points for the output checks.

A ``Lie`` holds a bracket table c[i][j][s] (0-based: [e_i, e_j] = sum_s
c[i][j][s] e_s).  A ``Mod`` holds one action matrix per basis element of its
algebra, column convention.  Both are checked here, with the benchmark's own
arithmetic, before the program sees them.  Scaled copies (basis e'_i = k_i e_i)
give seeded inputs whose Groebner work has the same shape as the base
algebra's, so the seed changes coefficients, not the cost class of an input.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import oracle
from oracle import ONE, ZERO

# ---------------------------------------------------------------------------
# Lie algebras
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Lie:
    name: str
    kind: str                 # the base algebra this is a scaled copy of
    dim: int
    c: tuple                  # c[i][j][s], Fractions
    scale: tuple              # k_i of the basis e'_i = k_i e_i of the base

    def bracket(self, x, y):
        out = [ZERO] * self.dim
        for i, xi in enumerate(x):
            if xi:
                for j, yj in enumerate(y):
                    if yj:
                        for s, cs in enumerate(self.c[i][j]):
                            if cs:
                                out[s] += xi * yj * cs
        return out

    def basis(self, i):
        return [ONE if k == i else ZERO for k in range(self.dim)]

    def ad(self, i):
        """Matrix of ad(e_i)."""
        return [[self.c[i][j][s] for j in range(self.dim)] for s in range(self.dim)]

    def text(self) -> str:
        """The algebra in the program's .alg file syntax (1-based)."""
        lines = [f"algebra {self.name}", f"dim {self.dim}"]
        for i in range(self.dim):
            for j in range(self.dim):
                pairs = [f"{s + 1}:{v}" for s, v in enumerate(self.c[i][j]) if v]
                if pairs:
                    lines.append(f"bracket {i + 1} {j + 1}: " + " ".join(pairs))
        return "\n".join(lines) + "\n"


def _lie(name, dim, brackets) -> Lie:
    """From 1-based entries {(i, j): {s: c}}, filling in (j, i) by
    antisymmetry, then checked for antisymmetry and Jacobi."""
    t = [[[ZERO] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j), row in brackets.items():
        for s, v in row.items():
            t[i - 1][j - 1][s - 1] = Fraction(v)
            t[j - 1][i - 1][s - 1] = -Fraction(v)
    L = Lie(name, name, dim, tuple(tuple(tuple(r) for r in p) for p in t),
            (ONE,) * dim)
    check_lie(L)
    return L


def check_lie(L: Lie) -> None:
    n = L.dim
    for i in range(n):
        for j in range(n):
            ij, ji = L.bracket(L.basis(i), L.basis(j)), L.bracket(L.basis(j), L.basis(i))
            if ij != [-x for x in ji]:
                raise ValueError(f"{L.name}: not antisymmetric")
            for k in range(n):
                a, b, c = L.basis(i), L.basis(j), L.basis(k)
                jac = [x + y + z for x, y, z in zip(
                    L.bracket(L.bracket(a, b), c),
                    L.bracket(L.bracket(b, c), a),
                    L.bracket(L.bracket(c, a), b))]
                if any(jac):
                    raise ValueError(f"{L.name}: Jacobi fails")


def abelian(n: int) -> Lie:
    return _lie(f"ab{n}", n, {})


def sol2() -> Lie:
    """[e1, e2] = e2."""
    return _lie("sol2", 2, {(1, 2): {2: 1}})


def heis() -> Lie:
    """[e1, e2] = e3, e3 central."""
    return _lie("heis", 3, {(1, 2): {3: 1}})


def sl2() -> Lie:
    """[e1, e2] = e3, [e3, e1] = 2 e1, [e3, e2] = -2 e2 (the program's sl2)."""
    return _lie("sl2", 3, {(1, 2): {3: 1}, (3, 1): {1: 2}, (3, 2): {2: -2}})


def gl2() -> Lie:
    """sl2 plus a central e4."""
    return _lie("gl2", 4, {(1, 2): {3: 1}, (3, 1): {1: 2}, (3, 2): {2: -2}})


def scaled(L: Lie, k) -> Lie:
    """The same algebra in the basis e'_i = k_i e_i:
    [e'_i, e'_j] = sum_s k_i k_j c_ij^s / k_s e'_s."""
    k = [Fraction(x) for x in k]
    n = L.dim
    t = tuple(tuple(tuple(k[i] * k[j] * L.c[i][j][s] / k[s] for s in range(n))
                    for j in range(n)) for i in range(n))
    scale = tuple(a * b for a, b in zip(L.scale, k))
    out = Lie(f"{L.kind}s", L.kind, n, t, scale)
    check_lie(out)
    return out


def random_scale(rng, n: int):
    return [Fraction(rng.choice((1, 2, 3))) * rng.choice((1, -1))
            / rng.choice((1, 2)) for _ in range(n)]


def to_program(uv, L: Lie):
    table = [[list(row) for row in plane] for plane in L.c]
    return uv.lie.LieAlgebra(L.dim, table, name=L.name)


# ---------------------------------------------------------------------------
# Modules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Mod:
    name: str
    alg: Lie
    dim: int
    act: tuple                # act[i] = matrix of e_i

    def apply(self, i, v):
        return oracle.mat_vec(self.act[i], v)


def make_mod(name, L: Lie, mats) -> Mod:
    mats = tuple(tuple(tuple(Fraction(x) for x in row) for row in m) for m in mats)
    M = Mod(name, L, len(mats[0]) if mats else 0, mats)
    check_mod(M)
    return M


def check_mod(M: Mod) -> None:
    """rho([e_i, e_j]) = [rho(e_i), rho(e_j)] for all i, j."""
    L = M.alg
    for i in range(L.dim):
        for j in range(L.dim):
            lhs = oracle.zeros(M.dim, M.dim)
            for s, v in enumerate(L.c[i][j]):
                if v:
                    lhs = oracle.mat_add(lhs, M.act[s], v)
            rhs = oracle.commutator([list(r) for r in M.act[i]],
                                    [list(r) for r in M.act[j]])
            if lhs != rhs:
                raise ValueError(f"{M.name}: not a Lie module")


def trivial(L: Lie, d: int) -> Mod:
    return make_mod(f"trivial{d}", L, [oracle.zeros(d, d)] * L.dim)


def adjoint(L: Lie) -> Mod:
    return make_mod("adjoint", L, [L.ad(i) for i in range(L.dim)])


def natural2(L: Lie) -> Mod:
    """The natural module of sl2: e1, e2 nilpotent, e3 diagonal."""
    return make_mod("natural2", L, [
        [[0, 1], [0, 0]], [[0, 0], [1, 0]], [[1, 0], [0, -1]]])


def to_program_module(uv, M: Mod, algebra):
    return uv.lie.LieModule.from_matrices(
        algebra, [[list(r) for r in m] for m in M.act], name=M.name)


def tensor_action(U: Mod, X: dict, q: int, g: Lie):
    """Action matrices of g on U (x) X for an A(h,g)-module X given by the
    matrices X[(r, j)] (1-based), basis u_l (x) x_t at l*q + t:
    f_j (u_l (x) x_t) = sum_r (e_r u_l) (x) (X[(r, j)] x_t)."""
    m = U.dim
    mats = []
    for j in range(1, g.dim + 1):
        a = oracle.zeros(m * q, m * q)
        for l in range(m):
            for t in range(q):
                for r in range(1, U.alg.dim + 1):
                    xr = X[(r, j)]
                    for s in range(m):
                        w = U.act[r - 1][s][l]
                        if w:
                            for p in range(q):
                                if xr[p][t]:
                                    a[s * q + p][l * q + t] += w * xr[p][t]
        mats.append(a)
    return mats


# ---------------------------------------------------------------------------
# Homomorphisms g -> h: evaluation points of A(h,g)
# ---------------------------------------------------------------------------


def is_hom(g: Lie, h: Lie, phi) -> bool:
    """phi([f_i, f_j]) = [phi f_i, phi f_j] for all i < j."""
    cols = [[phi[s][i] for s in range(h.dim)] for i in range(g.dim)]
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            lhs = oracle.mat_vec(phi, g.bracket(g.basis(i), g.basis(j)))
            if lhs != h.bracket(cols[i], cols[j]):
                return False
    return True


def _base(L: Lie) -> Lie:
    return {"sl2": sl2, "gl2": gl2, "heis": heis, "sol2": sol2}.get(
        L.kind, lambda: abelian(L.dim))()


def _inner(h: Lie, rng):
    """A random inner automorphism exp(ad(t e_k)) of h, for an e_k whose ad is
    nilpotent; the identity if there is none."""
    autos = [oracle.identity(h.dim)]
    for k in range(h.dim):
        n = h.ad(k)
        powers = [oracle.identity(h.dim)]
        for _ in range(h.dim):
            powers.append(oracle.mat_mul(powers[-1], n))
        if oracle.is_zero(powers[-1]):
            t = Fraction(rng.choice((-2, -1, 1, 2)), rng.choice((1, 2)))
            e = oracle.zeros(h.dim, h.dim)
            fact = ONE
            for p, np_ in enumerate(powers):
                if p:
                    fact *= p
                e = oracle.mat_add(e, np_, t ** p / fact)
            autos.append(e)
    return autos[rng.randrange(len(autos))]


def _rank_one(g: Lie, h: Lie, rng):
    """f_i -> a_i x for a functional a vanishing on [g, g] and any x in h."""
    rows = [g.bracket(g.basis(i), g.basis(j))
            for i in range(g.dim) for j in range(g.dim)]
    funcs = oracle.nullspace(rows, g.dim)
    if not funcs:
        return None
    a = [ZERO] * g.dim
    for f in funcs:
        a = [x + rng.choice((-2, -1, 1, 2)) * y for x, y in zip(a, f)]
    x = [Fraction(rng.randint(-2, 2)) for _ in range(h.dim)]
    return [[x[s] * a[i] for i in range(g.dim)] for s in range(h.dim)]


def _special(g: str, h: str):
    """Non-zero homomorphisms between base algebras in base coordinates."""
    out = []
    if g == h or (g, h) == ("sl2", "gl2"):
        # identity, or the inclusion sl2 -> gl2
        out.append(lambda gd, hd: [[ONE if s == i else ZERO for i in range(gd)]
                                   for s in range(hd)])
    if (g, h) == ("gl2", "sl2"):
        out.append(lambda gd, hd: [[ONE if s == i else ZERO for i in range(gd)]
                                   for s in range(hd)])
    if g == "sol2" and h in ("sl2", "gl2"):
        # e1 -> e3/2, e2 -> e1
        out.append(lambda gd, hd: [[ZERO, ONE]] + [[ZERO, ZERO]]
                   + [[Fraction(1, 2), ZERO]] + [[ZERO, ZERO]] * (hd - 3))
    return out


def homomorphisms(g: Lie, h: Lie, rng):
    """Seeded Lie algebra maps g -> h, as dim h x dim g matrices: zero, maps
    through the abelianization, identities, inclusions and projections, each
    composed with a random inner automorphism of h.  Every one is checked."""
    bg, bh = _base(g), _base(h)
    base = [oracle.zeros(h.dim, g.dim)]
    for _ in range(2):
        r1 = _rank_one(bg, bh, rng)
        if r1 is not None:
            base.append(r1)
    for make in _special(g.kind, h.kind):
        base.append(make(g.dim, h.dim))
    out = []
    for phi in base:
        phi = oracle.mat_mul(_inner(bh, rng), phi)
        if not is_hom(bg, bh, phi):
            raise ValueError(f"bench input error: not a homomorphism {g.kind}->{h.kind}")
        # to scaled coordinates: phi' = diag(1/k_h) phi diag(k_g)
        phi = [[phi[s][i] * g.scale[i] / h.scale[s] for i in range(g.dim)]
               for s in range(h.dim)]
        if not is_hom(g, h, phi):
            raise ValueError(f"bench input error: scaling {g.name}->{h.name}")
        out.append(phi)
    return out


def point_rep(phi, h: Lie, g: Lie) -> dict:
    """The 1-dimensional A(h,g)-module of a homomorphism: x_si acts as
    phi[s][i] (1-based keys)."""
    return {(s, i): [[phi[s - 1][i - 1]]]
            for s in range(1, h.dim + 1) for i in range(1, g.dim + 1)}


def sum_rep(reps: list[dict], h: Lie, g: Lie) -> tuple[dict, int]:
    """Block-diagonal sum of 1-dimensional point modules."""
    q = len(reps)
    out = {}
    for key in reps[0]:
        m = oracle.zeros(q, q)
        for k, r in enumerate(reps):
            m[k][k] = r[key][0][0]
        out[key] = m
    return out, q
