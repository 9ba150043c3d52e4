"""The three workloads.  Each has a ``setup(uv, seed, workdir)`` that builds
the inputs and the objects made before the first round, and an ``ops(state)``
that lists one round: a ladder of a few heavy operations and a seeded swarm
of at least 30 small ones.  Every round repeats the same operations.

Operations call univalg through its module attributes at call time, so that
a traced run sees the wrappers.  Each operation carries a check, run on the
first round with the benchmark's own arithmetic (see checks.py).

The seed picks coefficients (basis scalings, homomorphisms, equivariant
maps), never the kind or size of an input, so every seed gives rounds of the
same shape and cost class.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Any, Callable

import checks
import inputs
import oracle
from oracle import ONE, ZERO


@dataclass
class Op:
    name: str
    call: Callable[[], Any]
    check: Callable[[Any], list]


def _points(h, g, rng, n=2):
    """n seeded homomorphisms g -> h (zero excluded where possible)."""
    homs = inputs.homomorphisms(g, h, rng)
    nonzero = [p for p in homs if not oracle.is_zero(p)] or homs
    return [nonzero[rng.randrange(len(nonzero))] for _ in range(n)]


# ---------------------------------------------------------------------------
# ideal-ladder: A(h,g) through the CLI
# ---------------------------------------------------------------------------

IDEAL_RUNGS = [
    ("ab3", "ab2", False),
    ("sol2", "sol2", False),
    ("heis", "heis", False),
    ("heis", "sl2", False),
    ("sl2", "sol2", False),
    ("sl2", "heis", False),
    ("sl2", "sl2", True),
    ("gl2", "sl2", False),
]

# The swarm: 32 small pairs, each algebra a seeded scaled copy of its kind.
# Half of it is one kind of pair, so that the median latency of a run falls
# among operations of equal cost and does not jump between kinds.
IDEAL_SWARM = (
    [("ab1", "ab1"), ("ab2", "ab1"), ("sol2", "ab1"), ("heis", "ab1")] * 2
    + [("heis", "ab2")] * 16
    + [("heis", "heis"), ("sol2", "heis"), ("heis", "sol2"), ("sol2", "sol2"),
       ("ab1", "sl2"), ("ab3", "sol2"), ("ab2", "heis"), ("sl2", "ab1")]
)


def base_lie(kind: str) -> inputs.Lie:
    if kind.startswith("ab"):
        return inputs.abelian(int(kind[2:]))
    return {"sol2": inputs.sol2, "heis": inputs.heis, "sl2": inputs.sl2, "gl2": inputs.gl2}[kind]()


class IdealLadder:
    name = "ideal-ladder"

    def setup(self, uv, seed, workdir):
        rng = Random(seed)
        jobs = []
        for k, (hk, gk, golden) in enumerate(IDEAL_RUNGS):
            jobs.append((f"rung{k}-{hk}x{gk}", base_lie(hk), base_lie(gk), golden))
        for k, (hk, gk) in enumerate(IDEAL_SWARM):
            h = inputs.scaled(base_lie(hk), inputs.random_scale(rng, base_lie(hk).dim))
            g = inputs.scaled(base_lie(gk), inputs.random_scale(rng, base_lie(gk).dim))
            jobs.append((f"swarm{k}-{hk}x{gk}", h, g, False))
        state = {"uv": uv, "jobs": [], "seed": seed}
        for name, h, g, golden in jobs:
            hp = os.path.join(workdir, f"{name}-h.alg")
            gp = os.path.join(workdir, f"{name}-g.alg")
            out = os.path.join(workdir, f"{name}.out")
            for path, L in ((hp, h), (gp, g)):
                with open(path, "w") as fh:
                    fh.write(L.text())
            argv = ["univalg", hp, gp, "--out", out] + (["--golden"] if golden else [])
            state["jobs"].append((name, h, g, golden, argv, out))
        return state

    def ops(self, state):
        uv = state["uv"]
        rng = Random(state["seed"] + 1)
        out = []
        for name, h, g, golden, argv, path in state["jobs"]:
            def call(argv=argv, path=path):
                code = uv.cli.main(argv)
                with open(path, "rb") as fh:
                    return code, fh.read()

            def check(res, h=h, g=g, golden=golden):
                code, text = res
                if code != 0:
                    return [f"exit code {code}"]
                homs = inputs.homomorphisms(g, h, rng)
                return checks.check_ideal_report(text.decode(), h, g, homs, rng, golden)

            out.append(Op(name, call, check))
        return out


# ---------------------------------------------------------------------------
# module-ladder: U(U,Z) over prebuilt A's
# ---------------------------------------------------------------------------


def _small_module(L: inputs.Lie, rng, d: int) -> inputs.Mod:
    """A seeded module of dimension d (1 or 2) over a scaled copy of a small
    algebra: characters and their non-split 2-dimensional extensions."""
    def r():
        return Fraction(rng.choice((-2, -1, 1, 2, 3)))
    n = [[0, 1], [0, 0]]
    kind = L.kind
    if kind.startswith("ab"):
        base = [[[r()]] for _ in range(L.dim)] if d == 1 else [
            oracle.mat_add(oracle.mat_scale(r(), oracle.identity(2)), n, r())
            for _ in range(L.dim)]
    elif kind == "sol2":
        lam = r()
        base = [[[lam]], [[0]]] if d == 1 else [
            [[lam + 1, 0], [0, lam]], oracle.mat_scale(r(), n)]
    elif kind == "heis":
        base = [[[r()]], [[r()]], [[0]]] if d == 1 else [
            oracle.mat_add(oracle.mat_scale(r(), oracle.identity(2)), n, r()),
            oracle.mat_add(oracle.mat_scale(r(), oracle.identity(2)), n, r()),
            oracle.zeros(2, 2)]
    else:
        raise ValueError(kind)
    # in the basis e'_i = k_i e_i the action of e'_i is k_i times that of e_i
    mats = [oracle.mat_scale(k, [list(map(Fraction, row)) for row in m])
            for k, m in zip(L.scale, base)]
    return inputs.make_mod(f"{kind}-mod{d}", L, mats)


# (h kind, g kind, dim U, dim Z); as in the ideal-ladder swarm, half of it
# is one kind, so that the median latency falls among equal-cost operations.
MODULE_SWARM = (
    [("ab1", "ab1", 1, 2), ("ab1", "ab1", 2, 1), ("ab2", "ab1", 1, 2), ("ab2", "ab1", 2, 1),
     ("sol2", "ab1", 1, 2), ("sol2", "ab1", 2, 1), ("sol2", "sol2", 1, 1), ("ab1", "ab1", 1, 1)]
    + [("heis", "ab2", 1, 1)] * 16
    + [("sol2", "sol2", 1, 2), ("sol2", "sol2", 2, 1), ("sol2", "sol2", 2, 2),
       ("heis", "heis", 1, 1), ("heis", "heis", 1, 2), ("heis", "heis", 2, 1),
       ("heis", "ab2", 2, 1), ("ab1", "ab1", 2, 2)]
)


class ModuleLadder:
    name = "module-ladder"

    def setup(self, uv, seed, workdir):
        rng = Random(seed)
        s = inputs.sl2()
        hs = inputs.heis()
        algs = {}

        def algebra(h, g):
            key = (h.name, g.name)
            if key not in algs:
                hp, gp = inputs.to_program(uv, h), inputs.to_program(uv, g)
                A = uv.universal_algebra.build_universal_algebra(hp, gp)
                algs[key] = (h, g, hp, gp, A)
            return algs[key]

        sl = algebra(s, s)
        heis_a = algebra(hs, hs)
        smalls = {}
        for hk in ("ab1", "ab2", "sol2", "heis"):
            smalls[hk] = inputs.scaled(base_lie(hk), inputs.random_scale(rng, base_lie(hk).dim))
        swarm = []
        for hk, gk, du, dz in MODULE_SWARM:
            h, g = smalls[hk], smalls[gk]
            entry = algebra(h, g)
            U = _small_module(h, rng, du)
            Z = _small_module(g, rng, dz)
            swarm.append((entry, U, Z))
        t1, n2, ad = inputs.trivial(s, 1), inputs.natural2(s), inputs.adjoint(s)
        ladder = [(sl, U, Z) for U, Z in
                  ((t1, n2), (t1, ad), (n2, n2), (n2, t1), (ad, t1))]
        # direct sums over A(heis,heis): U = W1 = adjoint, W2 = trivial1
        dsum = (heis_a, inputs.adjoint(hs), inputs.adjoint(hs), inputs.trivial(hs, 1))
        # V(V,W) over A(sl2,sl2): V the sum of two point modules, W adjoint
        phis = _points(s, s, rng)
        V, l = inputs.sum_rep([inputs.point_rep(p, s, s) for p in phis], s, s)
        Vp = uv.representations.MatrixARep(sl[4], l, V, name="points")
        return {"uv": uv, "ladder": ladder, "dsum": dsum, "swarm": swarm,
                "vrep": (V, l, Vp, ad), "seed": seed}

    def ops(self, state):
        uv = state["uv"]
        rng = Random(state["seed"] + 1)
        out = []

        def amodule(tag, entry, U, Z):
            h, g, hp, gp, A = entry
            Up, Zp = inputs.to_program_module(uv, U, hp), inputs.to_program_module(uv, Z, gp)

            def call():
                return uv.universal_modules.build_universal_amodule(A, Up, Zp)

            def check(um):
                index = checks.var_index(um.A.ring.names)
                basis = [checks.vector_data(v) for v in um.mgb.generators]
                mods = checks.targets(h, g, index, inputs.homomorphisms(g, h, rng), rng)
                return checks.check_module_basis(basis, h, g, U, Z, index, mods)

            return Op(f"{tag}-U({U.name},{Z.name})", call, check)

        for k, (entry, U, Z) in enumerate(state["ladder"]):
            out.append(amodule(f"rung{k}", entry, U, Z))
        entry, U, W1, W2 = state["dsum"]
        h, g, hp, gp, A = entry
        progs = [inputs.to_program_module(uv, M, hp) for M in (U, W1, W2)]
        out.append(Op("direct-sum", lambda: uv.universal_modules.direct_sum_check(A, *progs),
                      lambda cert: [] if cert.ok else ["direct-sum certificate fails"]))
        V, l, Vp, W = state["vrep"]
        sl_entry = state["ladder"][0][0]
        Wp = inputs.to_program_module(uv, W, sl_entry[3])

        def lie_check(vm, V=V, l=l, W=W, h=sl_entry[0], g=sl_entry[1]):
            return checks.check_lie_relations(checks.pbw_vector_data(vm), V, l, W, h, g)

        out.append(Op("V(points,adjoint)",
                      lambda: uv.universal_modules.build_universal_lie_hmodule(
                          sl_entry[4], Vp, Wp), lie_check))
        for k, (entry, U, Z) in enumerate(state["swarm"]):
            out.append(amodule(f"swarm{k}", entry, U, Z))
        return out


# ---------------------------------------------------------------------------
# certify: queries against fixed bases
# ---------------------------------------------------------------------------


class Certify:
    name = "certify"

    def setup(self, uv, seed, workdir):
        rng = Random(seed)
        s = inputs.sl2()
        sp = inputs.to_program(uv, s)
        A = uv.universal_algebra.build_universal_algebra(sp, sp)
        B = uv.universal_algebra.bialgebra_structure(A)
        n2, ad, t1 = inputs.natural2(s), inputs.adjoint(s), inputs.trivial(s, 1)
        prog = {M.name: inputs.to_program_module(uv, M, sp) for M in (n2, ad, t1)}
        um_nn = uv.universal_modules.build_universal_amodule(A, prog["natural2"], prog["natural2"])
        um_ta = uv.universal_modules.build_universal_amodule(A, prog["trivial1"], prog["adjoint"])
        hs = inputs.scaled(inputs.heis(), inputs.random_scale(rng, 3))
        hsp = inputs.to_program(uv, hs)
        Ah = uv.universal_algebra.build_universal_algebra(hsp, hsp)
        hmods = [_small_module(hs, rng, d) for d in (1, 2)]
        um_h = [uv.universal_modules.build_universal_amodule(
            Ah, inputs.to_program_module(uv, M, hsp), inputs.to_program_module(uv, M, hsp))
            for M in hmods]
        counit = inputs.point_rep(oracle.identity(3), s, s)
        vms = []
        for W in (ad, n2):
            vms.append((W, uv.universal_modules.build_universal_lie_hmodule(
                A, uv.representations.MatrixARep(A, 1, counit, name="counit"),
                prog[W.name])))

        # The swarm: 32 round trips (factorize, then Gamma of the result).  Half
        # of them are one kind, U(natural2, natural2) into a point module, so
        # that the median latency falls among equal-cost operations.
        def sl2_points(n):
            phis = _points(s, s, rng, n)
            return inputs.sum_rep([inputs.point_rep(p, s, s) for p in phis], s, s)

        def heis_points(n):
            phis = _points(hs, hs, rng, n)
            return inputs.sum_rep([inputs.point_rep(p, hs, hs) for p in phis], hs, hs)

        trips = []
        for k in range(4):
            trips.append(("amod", (hs, hs, Ah, um_h[0], hmods[0], hmods[0]),
                          *heis_points(1 + k % 2)))
            W, vm = vms[1]                                # V(counit, natural2)
            trips.append(("lie", (s, s, A, vm, W, (n2, ad)[k % 2]), counit, 1))
        for k in range(16):
            trips.append(("amod", (s, s, A, um_nn, n2, n2), *sl2_points(1)))
        for k in range(3):
            W, vm = vms[0]                                # V(counit, adjoint)
            trips.append(("lie", (s, s, A, vm, W, (ad, n2, t1)[k]), counit, 1))
            trips.append(("amod", (s, s, A, um_nn, n2, n2), *sl2_points(2)))
        for k in range(2):
            trips.append(("amod", (hs, hs, Ah, um_h[1], hmods[1], hmods[1]),
                          *heis_points(2)))
        swarm = []
        for kind, data, X, q in trips:
            h, g, Aa, um, Z, Y = data
            # f: Z -> Y (x) X, with Y the U of U(U,Z) or the target of V(V,W)
            tgt = inputs.tensor_action(Y, X, q, g)
            f = oracle.intertwiners([list(map(list, a)) for a in Z.act], tgt, rng)
            if kind == "amod":
                target = uv.representations.MatrixARep(Aa, q, X, name="points")
            else:
                target = inputs.to_program_module(uv, Y, Aa.h)
            swarm.append((kind, data, X, q, f, target))

        # the coalgebra ladder's targets: k and k (+) k with grouplike bases
        FC = uv.coalgebra.FiniteCoalgebraModule
        LM = uv.lie.LinearMap
        rep1 = uv.representations.MatrixARep.counit(A)
        rep2 = rep1.direct_sum(rep1)
        d2 = [[ONE if r == a * 2 + a else ZERO for a in range(2)] for r in range(4)]
        coal = [
            (FC(rep1, LM.from_matrix([[ONE]]), LM.from_matrix([[ONE]])), 1,
             LM.identity(2), [[ONE]], [[ONE]]),
            (FC(rep2, LM.from_matrix(d2), LM.from_matrix([[ONE, ONE]])), 2,
             LM.from_matrix([[ONE if r == l * 2 + 1 else ZERO for l in range(2)]
                             for r in range(4)]), d2, [[ONE, ONE]]),
        ]
        c = Fraction(rng.choice((-3, -2, 2, 3)))
        return {"uv": uv, "B": B, "um_nn": um_nn, "um_ta": um_ta,
                "mods": (s, n2, ad, t1), "swarm": swarm, "coal": coal,
                "scalar": c, "seed": seed}

    def ops(self, state):
        uv = state["uv"]
        rng = Random(state["seed"] + 1)
        co, um_mod = uv.coalgebra, uv.universal_modules
        B, um = state["B"], state["um_nn"]
        s, n2, ad, t1 = state["mods"]
        ctx = {}
        LM = uv.lie.LinearMap

        def build():
            ctx["C"] = co.build_coalgebra(um, B)
            return ctx["C"]

        def report_ok(rep):
            return [] if rep.ok else [f"certificate fails: {rep}"]

        def eps_check(res):
            X = inputs.point_rep(oracle.identity(3), s, s)
            bad = checks.check_amod_factorization(n2, n2, s, X, 1, oracle.identity(2), res.images)
            if any(v != [ONE if a == b else ZERO] for (a, b), v in res.images.items()):
                bad.append("epsilon is not delta_lt")
            return bad + ([] if res.ok else ["factorization not ok"])

        out = [
            Op("build_coalgebra", build, lambda C: []),
            Op("coalgebra.verify", lambda: ctx["C"].verify(), report_ok),
            Op("verify_comodule", lambda: co.verify_comodule(um, ctx["C"]), report_ok),
            Op("verify_bmodule_coalgebra", lambda: co.verify_bmodule_coalgebra(um, ctx["C"]),
               report_ok),
            Op("bmodule_on_tensor_square", lambda: co.bmodule_on_tensor_square(um, B), report_ok),
            Op("epsilon_by_factorization", lambda: ctx["C"].epsilon_by_factorization(), eps_check),
        ]
        for k, (X, q, psi, delta, eps) in enumerate(state["coal"]):
            def ucm(X=X, psi=psi):
                return co.universal_coalgebra_map(um, ctx["C"], X, psi)

            def ucm_check(theta, q=q, psi=psi, delta=delta, eps=eps):
                # X is q copies of the counit module: x_ab acts as delta_ab
                Xd = {(a, b): oracle.identity(q) if a == b else oracle.zeros(q, q)
                      for a in range(1, 4) for b in range(1, 4)}
                return (checks.check_coalgebra_map(theta, 2, delta, eps, q)
                        + checks.check_amod_factorization(n2, n2, s, Xd, q, psi.mat(), theta))

            out.append(Op(f"universal_coalgebra_map-{q}", ucm, ucm_check))
        c = state["scalar"]
        for tag, umx, U, Z in (("nn", um, n2, n2), ("ta", state["um_ta"], t1, ad)):
            f = oracle.mat_scale(c, oracle.identity(Z.dim))

            def functor(umx=umx, f=f):
                return um_mod.functor_on_morphism_U(umx, umx, LM.from_matrix(f))

            def functor_check(fbar, U=U, Z=Z, f=f, umx=umx):
                index = checks.var_index(umx.A.ring.names)
                images = {p: checks.vector_data(v) for p, v in fbar.images.items()}
                mods = checks.targets(s, s, index, inputs.homomorphisms(s, s, rng), rng)
                return checks.check_presented_map(images, U, Z, Z, f, s, index, mods)

            out.append(Op(f"functor_on_morphism_U-{tag}", functor, functor_check))

        for k, (kind, data, X, q, f, target) in enumerate(state["swarm"]):
            _, g, _, umv, Z, Y = data
            fp = LM.from_matrix(f, Z.dim)
            if kind == "amod":
                def trip(umv=umv, Xp=target, fp=fp):
                    res = um_mod.factorize_through_universal(umv, Xp, fp)
                    return res, um_mod.gamma(umv, Xp, res.images)

                def trip_check(out_, Z=Z, Y=Y, g=g, X=X, q=q, f=f):
                    res, back = out_
                    bad = checks.check_amod_factorization(Y, Z, g, X, q, f, res.images)
                    bad += [] if res.ok else ["factorization not ok"]
                    return bad + ([] if back.mat() == f else ["Gamma(theta) differs from f"])
            else:
                def trip(umv=umv, Yp=target, fp=fp):
                    res = um_mod.factorize_lie(umv, Yp, fp)
                    return res, um_mod.gamma_lie(umv, Yp, res.images)

                def trip_check(out_, Z=Z, Y=Y, g=g, X=X, q=q, f=f):
                    res, back = out_
                    bad = checks.check_lie_factorization(X, q, Z, Y, g, f, res.images)
                    bad += [] if res.ok else ["factorization not ok"]
                    return bad + ([] if back.mat() == f else ["Gamma(theta) differs from f"])
            out.append(Op(f"swarm{k}-{kind}", trip, trip_check))
        return out


WORKLOADS = {w.name: w for w in (IdealLadder(), ModuleLadder(), Certify())}
