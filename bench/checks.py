"""Output checks that do not use the program's reducers.

Each check takes plain data (dicts, lists, Fractions) read off the program's
outputs and returns a list of problems; an empty list is a pass.  The
reference objects (the defining polynomials, the relation vectors, the
tensor-module actions) are rebuilt here from the structure constants, with
the arithmetic of ``oracle``.
"""

from __future__ import annotations

import re
from fractions import Fraction

import oracle
from inputs import Lie, Mod, tensor_action
from oracle import ONE, ZERO

# ---------------------------------------------------------------------------
# Reading program outputs into plain data
# ---------------------------------------------------------------------------


def canon(x) -> str:
    """Canonical text of a program output, for byte comparison across rounds.
    Reads attributes only; calls no program function."""
    if x is None or isinstance(x, (bool, int, str, bytes, Fraction)):
        return repr(x)
    if isinstance(x, dict):
        items = sorted(((canon(k), canon(v)) for k, v in x.items()))
        return "{" + ",".join(f"{k}:{v}" for k, v in items) + "}"
    if isinstance(x, (list, tuple)):
        return "[" + ",".join(canon(v) for v in x) + "]"
    if hasattr(x, "__dataclass_fields__"):
        return f"{type(x).__name__}:" + canon(
            {k: getattr(x, k) for k in x.__dataclass_fields__})
    if hasattr(x, "mgb"):  # U(U,Z): its relations and module basis
        return f"{type(x).__name__}:" + canon([x.relgens, x.mgb.generators])
    for attr in ("relgens", "terms", "components"):
        if hasattr(x, attr):
            return f"{type(x).__name__}:{canon(getattr(x, attr))}"
    return type(x).__name__


def var_index(names) -> dict[tuple[int, int], int]:
    """(s, i) -> position, read from the ring's variable names X[s,i]."""
    out = {}
    for k, name in enumerate(names):
        s, i = re.fullmatch(r"X\[(\d+),(\d+)\]", name).groups()
        out[(int(s), int(i))] = k
    return out


def vector_data(v) -> dict:
    """A program ModuleVector as {(position, monomial): coefficient}."""
    return {(p, m): c for p, q in v.components.items() for m, c in q.terms.items()}


# ---------------------------------------------------------------------------
# The ideal J of A(h,g)
# ---------------------------------------------------------------------------


def defining_polynomials(h: Lie, g: Lie, index) -> dict:
    """P_(a,i,j) = sum_u c^g_ij^u X_au - sum_{s,t} c^h_st^a X_si X_tj."""
    n = len(index)
    out = {}
    for a in range(1, h.dim + 1):
        for i in range(1, g.dim + 1):
            for j in range(1, g.dim + 1):
                p: dict = {}
                for u in range(1, g.dim + 1):
                    beta = g.c[i - 1][j - 1][u - 1]
                    if beta:
                        oracle.add_into(p, oracle.var(n, index[(a, u)]), beta)
                for s in range(1, h.dim + 1):
                    for t in range(1, h.dim + 1):
                        tau = h.c[s - 1][t - 1][a - 1]
                        if tau:
                            oracle.add_into(p, oracle.mul(
                                oracle.var(n, index[(s, i)]),
                                oracle.var(n, index[(t, j)])), -tau)
                out[(a, i, j)] = p
    return out


def targets(h: Lie, g: Lie, index, homs, rng) -> list:
    """Finite-dimensional A(h,g)-modules to evaluate outputs in, as
    (matrices in variable order, dimension): the point module of each
    homomorphism phi (x_si acts as phi[s][i]) and, where the tangent space
    of the relations at phi is nonzero, one first-order module
    x_si -> [[phi_si, psi_si], [0, phi_si]] for a seeded tangent vector psi."""
    polys = [p for p in defining_polynomials(h, g, index).values() if p]
    n = len(index)
    out = []
    for phi in homs:
        vals = [ZERO] * n
        for (s, i), k in index.items():
            vals[k] = phi[s - 1][i - 1]
        out.append(([[[v]] for v in vals], 1))
        rows = [[_partial(p, k, vals) for k in range(n)] for p in polys]
        tangent = oracle.nullspace(rows, n)
        if tangent:
            psi = [ZERO] * n
            for t in tangent:
                c = rng.choice((-2, -1, 1, 2))
                psi = [a + c * b for a, b in zip(psi, t)]
            out.append(([[[v, d], [ZERO, v]] for v, d in zip(vals, psi)], 2))
    return out


def _partial(p: dict, k: int, vals) -> Fraction:
    total = ZERO
    for m, c in p.items():
        if m[k]:
            v = c * m[k]
            for x, e in zip(vals, m[:k] + (m[k] - 1,) + m[k + 1:]):
                if e:
                    v *= x ** e
            total += v
    return total


def mono_matrix(m, mats, q, cache) -> list:
    if m not in cache:
        out = oracle.identity(q)
        for k, e in enumerate(m):
            for _ in range(e):
                out = oracle.mat_mul(out, mats[k])
        cache[m] = out
    return cache[m]


def poly_at(p: dict, mats, q, cache) -> list:
    out = oracle.zeros(q, q)
    for m, c in p.items():
        out = oracle.mat_add(out, mono_matrix(m, mats, q, cache), c)
    return out


def check_groebner(basis: list[dict], gens: list[dict], mods) -> list[str]:
    """The basis is reduced, every S-pair reduces to 0 on it, every generator
    of J reduces to 0 on it, and every element acts as 0 on every module in
    ``mods`` (see ``targets``)."""
    bad = []
    leads = [oracle.lead(b) for b in basis]
    if len(set(leads)) != len(leads):
        bad.append("two basis elements share a lead monomial")
    for k, b in enumerate(basis):
        if b[leads[k]] != 1:
            bad.append(f"basis element {k + 1} is not monic")
        for m in b:
            if any(oracle.divides(lm, m) for l, lm in enumerate(leads)
                   if l != k):
                bad.append(f"basis element {k + 1} is not reduced")
                break
    for k in range(len(basis)):
        for l in range(k):
            lcm = tuple(max(x, y) for x, y in zip(leads[k], leads[l]))
            if lcm == tuple(x + y for x, y in zip(leads[k], leads[l])):
                continue  # coprime leads: the S-polynomial reduces to 0
            if oracle.reduce(oracle.s_poly(basis[k], basis[l]), basis):
                bad.append(f"S-pair ({l + 1},{k + 1}) does not reduce to 0")
    for p in gens:
        if oracle.reduce(p, basis):
            bad.append("a defining polynomial does not reduce to 0")
            break
    for mats, q in mods:
        cache: dict = {}
        for k, b in enumerate(basis):
            if not oracle.is_zero(poly_at(b, mats, q, cache)):
                bad.append(f"basis element {k + 1} is nonzero on a module of A")
                break
    return bad


def check_ideal_report(text: str, h: Lie, g: Lie, homs, rng, golden=False) -> list[str]:
    """Check a ``univalg univalg`` report: its generator lines are the
    defining polynomials and its groebner lines a reduced Groebner basis of
    the ideal they generate."""
    lines = text.splitlines()
    names = next((l.split()[1:] for l in lines if l.startswith("variables ")), None)
    if names is None:
        return ["no variables line"]
    index = var_index(names)
    if sorted(index) != [(s, i) for s in range(1, h.dim + 1)
                         for i in range(1, g.dim + 1)]:
        return ["variables are not X[s,i] for the basis pairs"]
    ref = defining_polynomials(h, g, index)
    rev = {name: k for k, name in enumerate(names)}
    bad = []
    seen = 0
    for l in lines:
        if l.startswith("generator "):
            label, _, body = l[len("generator "):].partition(": ")
            a, i, j = (int(x) for x in label.split(","))
            if oracle.parse_poly(body, rev) != ref[(a, i, j)]:
                bad.append(f"generator {label} differs from P_({label})")
            seen += 1
    if seen != len(ref):
        bad.append(f"{seen} generator lines, expected {len(ref)}")
    basis = [oracle.parse_poly(l[len("groebner: "):], rev)
             for l in lines if l.startswith("groebner: ")]
    mods = targets(h, g, index, homs, rng)
    bad += check_groebner(basis, [p for p in ref.values() if p], mods)
    if golden and "golden-ideal-match pass" not in lines:
        bad.append("golden ideal does not match")
    return bad


# ---------------------------------------------------------------------------
# U(U,Z)
# ---------------------------------------------------------------------------


def relation_vectors(U: Mod, Z: Mod, g: Lie, index) -> dict:
    """The defining relations of U(U,Z), one per (s, i, j), position
    (s,r) -> (s-1) dim Z + (r-1): equivariance of z_i -> sum_s u_s (x) y_si
    under f_j, with f_j (u_t (x) x) = sum_r (e_r u_t) (x) x_rj x."""
    n = len(index)
    one = (0,) * n
    out = {}
    for s in range(1, U.dim + 1):
        for i in range(1, Z.dim + 1):
            for j in range(1, g.dim + 1):
                v: dict = {}
                for p in range(1, Z.dim + 1):
                    eta = Z.act[j - 1][p - 1][i - 1]
                    if eta:
                        key = ((s - 1) * Z.dim + p - 1, one)
                        v[key] = v.get(key, ZERO) + eta
                for t in range(1, U.dim + 1):
                    for r in range(1, U.alg.dim + 1):
                        omega = U.act[r - 1][s - 1][t - 1]
                        if omega:
                            m = tuple(1 if k == index[(r, j)] else 0 for k in range(n))
                            key = ((t - 1) * Z.dim + i - 1, m)
                            v[key] = v.get(key, ZERO) - omega
                out[(s, i, j)] = {k: c for k, c in v.items() if c}
    return out


def eval_vector(v: dict, mats, q, theta, cache) -> list:
    """Image of a module vector under the A-module map to a target module
    sending position p to the vector theta[p]."""
    total = [ZERO] * q
    for (p, m), c in v.items():
        w = oracle.mat_vec(mono_matrix(m, mats, q, cache), theta[p])
        total = [a + c * b for a, b in zip(total, w)]
    return total


def target_maps(U: Mod, Z: Mod, g: Lie, index, mods):
    """For each target module X, a basis of Hom_g(Z, U (x) X), i.e. of the maps
    from U(U,Z) to X, each as generator images theta[(s-1) dim Z + (r-1)]."""
    for mats, q in mods:
        X = {key: mats[k] for key, k in index.items()}
        tgt = tensor_action(U, X, q, g)
        for F in oracle.intertwiners([list(map(list, a)) for a in Z.act], tgt):
            theta = [[F[s * q + t][r] for t in range(q)]
                     for s in range(U.dim) for r in range(Z.dim)]
            yield mats, q, theta


def check_module_basis(basis: list[dict], h: Lie, g: Lie, U: Mod, Z: Mod,
                       index, mods) -> list[str]:
    """The module basis of U(U,Z): it is reduced and every S-vector reduces to
    0 on it, every relation vector and every P e_p reduces to 0 on it, and
    every element maps to 0 under every map to a module in ``mods``."""
    bad = []
    rank = U.dim * Z.dim
    leads = [max(v, key=oracle.vkey) for v in basis]
    for k, v in enumerate(basis):
        if v[leads[k]] != 1:
            bad.append(f"module basis element {k + 1} is not monic")
        for pos, m in v:
            if any(lp == pos and oracle.divides(lm, m)
                   for l, (lp, lm) in enumerate(leads) if l != k):
                bad.append(f"module basis element {k + 1} is not reduced")
                break
    for k in range(len(basis)):
        for l in range(k):
            (pk, mk), (pl, ml) = leads[k], leads[l]
            if pk != pl:
                continue
            lcm = tuple(max(x, y) for x, y in zip(mk, ml))
            sv: dict = {}
            for v, lm in ((basis[k], mk), (basis[l], ml)):
                shift = tuple(x - y for x, y in zip(lcm, lm))
                sign = ONE if v is basis[k] else -ONE
                for (p, m), c in v.items():
                    key = (p, tuple(x + y for x, y in zip(m, shift)))
                    sv[key] = sv.get(key, ZERO) + sign * c / v[(pk, lm)]
            sv = {t: c for t, c in sv.items() if c}
            if oracle.reduce_vector(sv, basis):
                bad.append(f"S-vector ({l + 1},{k + 1}) does not reduce to 0")
    for label, rel in relation_vectors(U, Z, g, index).items():
        if oracle.reduce_vector(rel, basis):
            bad.append(f"relation {label} does not reduce to 0")
    for label, p in defining_polynomials(h, g, index).items():
        if not p:
            continue
        for pos in range(rank):
            if oracle.reduce_vector({(pos, m): c for m, c in p.items()}, basis):
                bad.append(f"P_{label} e_{pos + 1} does not reduce to 0")
                break
    for mats, q, theta in target_maps(U, Z, g, index, mods):
        cache: dict = {}
        for k, b in enumerate(basis):
            if any(eval_vector(b, mats, q, theta, cache)):
                bad.append(f"module basis element {k + 1} is nonzero under a map to a module")
                break
    return bad


def check_presented_map(images: dict, U: Mod, X: Mod, Y: Mod, f, g: Lie,
                        index, mods) -> list[str]:
    """Naturality of the induced map U(U,X) -> U(U,Y) of f: X -> Y: composed
    with any map theta of U(U,Y) to a module in ``mods``, it gives the map of
    U(U,X) whose generator images are those of theta after f."""
    bad = []
    for mats, q, theta in target_maps(U, Y, g, index, mods):
        cache: dict = {}
        for s in range(U.dim):
            for r in range(X.dim):
                want = [sum((theta[s * Y.dim + rp][t] * f[rp][r] for rp in range(Y.dim)), ZERO)
                        for t in range(q)]
                got = eval_vector(images[s * X.dim + r], mats, q, theta, cache)
                if got != want:
                    bad.append(f"induced map fails naturality at y[{s + 1},{r + 1}]")
    return bad


# ---------------------------------------------------------------------------
# Factorizations and the bijections Gamma
# ---------------------------------------------------------------------------


def check_amod_factorization(U: Mod, Z: Mod, g: Lie, X: dict, q: int, f,
                             images: dict) -> list[str]:
    """(Id (x) theta) o rho = f, and theta kills every relation vector."""
    bad = []
    m = U.dim
    for r in range(Z.dim):
        for s in range(m):
            for t in range(q):
                if f[s * q + t][r] != images[(s + 1, r + 1)][t]:
                    bad.append(f"(Id (x) theta) o rho differs from f at ({s + 1},{t + 1};{r + 1})")
    for s in range(1, m + 1):
        for i in range(1, Z.dim + 1):
            for j in range(1, g.dim + 1):
                acc = [ZERO] * q
                for p in range(1, Z.dim + 1):
                    eta = Z.act[j - 1][p - 1][i - 1]
                    if eta:
                        acc = [a + eta * b for a, b in zip(acc, images[(s, p)])]
                for t in range(1, m + 1):
                    for r in range(1, U.alg.dim + 1):
                        omega = U.act[r - 1][s - 1][t - 1]
                        if omega:
                            w = oracle.mat_vec(X[(r, j)], images[(t, i)])
                            acc = [a - omega * b for a, b in zip(acc, w)]
                if any(acc):
                    bad.append(f"theta does not kill relation ({s},{i},{j})")
    return bad


def check_lie_factorization(V: dict, l: int, W: Mod, Y: Mod, g: Lie, f,
                            images: dict) -> list[str]:
    """(theta (x) Id_V) o tau = f, and theta kills every relation of
    V(V,W): sum_p sigma_jr^p y_pk - sum_{s,t} V(x_tj)[k][s] e_t y_rs."""
    bad = []
    for r in range(W.dim):
        for s in range(l):
            for a in range(Y.dim):
                if f[a * l + s][r] != images[(r + 1, s + 1)][a]:
                    bad.append(f"(theta (x) Id) o tau differs from f at ({a + 1},{s + 1};{r + 1})")
    for k in range(1, l + 1):
        for r in range(1, W.dim + 1):
            for j in range(1, g.dim + 1):
                acc = [ZERO] * Y.dim
                for p in range(1, W.dim + 1):
                    sigma = W.act[j - 1][p - 1][r - 1]
                    if sigma:
                        acc = [a + sigma * b for a, b in zip(acc, images[(p, k)])]
                for s in range(1, l + 1):
                    for t in range(1, Y.alg.dim + 1):
                        gam = V[(t, j)][k - 1][s - 1]
                        if gam:
                            w = Y.apply(t - 1, images[(r, s)])
                            acc = [a - gam * b for a, b in zip(acc, w)]
                if any(acc):
                    bad.append(f"theta does not kill relation ({k},{r},{j})")
    return bad


def check_coalgebra_map(theta: dict, m: int, delta, eps, q: int) -> list[str]:
    """Delta_X(theta(y_lt)) = sum_s theta(y_ls) (x) theta(y_st) and
    eps_X(theta(y_lt)) = delta_lt."""
    bad = []
    for l in range(1, m + 1):
        for t in range(1, m + 1):
            z = theta[(l, t)]
            right = [ZERO] * (q * q)
            for s in range(1, m + 1):
                a, b = theta[(l, s)], theta[(s, t)]
                for t1 in range(q):
                    for t2 in range(q):
                        right[t1 * q + t2] += a[t1] * b[t2]
            if oracle.mat_vec(delta, z) != right:
                bad.append(f"Delta(theta(y[{l},{t}])) is not theta (x) theta of Delta")
            if oracle.mat_vec(eps, z) != [ONE if l == t else ZERO]:
                bad.append(f"eps(theta(y[{l},{t}])) is not delta_lt")
    return bad


def lie_relations(V: dict, l: int, W: Mod, h: Lie, g: Lie) -> dict:
    """The relations of V(V,W) in PBW form {(position, word): c}, position
    (r,s) -> (r-1) l + (s-1), one per (s, r, j)."""
    out = {}
    for s in range(1, l + 1):
        for r in range(1, W.dim + 1):
            for j in range(1, g.dim + 1):
                v: dict = {}
                for p in range(1, W.dim + 1):
                    sigma = W.act[j - 1][p - 1][r - 1]
                    if sigma:
                        key = ((p - 1) * l + s - 1, ())
                        v[key] = v.get(key, ZERO) + sigma
                for k in range(1, l + 1):
                    for t in range(1, h.dim + 1):
                        gam = V[(t, j)][s - 1][k - 1]
                        if gam:
                            key = ((r - 1) * l + k - 1, (t,))
                            v[key] = v.get(key, ZERO) - gam
                out[(s, r, j)] = {key: c for key, c in v.items() if c}
    return out


def check_lie_relations(got: dict, V: dict, l: int, W: Mod, h: Lie, g: Lie) -> list[str]:
    """The program's relations of V(V,W), {label: {(position, word): c}},
    against those rebuilt from the definitions."""
    return [] if got == lie_relations(V, l, W, h, g) else [
        "V(V,W) relations differ from the definition"]


def pbw_vector_data(vm) -> dict:
    """A program V(V,W)'s relations as {label: {(position, word): c}}."""
    return {label: {(p, w): c for p, e in gen.components.items() for w, c in e.terms.items()}
            for label, gen in zip(vm.rel_labels, vm.relgens)}
