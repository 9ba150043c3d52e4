"""Self-test of the benchmark's output checks: each accepts a true output of
the program and rejects the same output with one defect put in (a basis
element dropped, one coefficient changed, one entry of theta changed).

    python3 bench/selftest.py
"""

from __future__ import annotations

import copy
import os
import sys
import tempfile
import unittest
from fractions import Fraction
from pathlib import Path
from random import Random

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import oracle  # noqa: E402
import univalg  # noqa: E402
import univalg.cli  # noqa: E402

ONE = Fraction(1)


def bump(d: dict, key=None):
    """A copy of a coefficient dict with one coefficient changed."""
    out = dict(d)
    key = key if key is not None else sorted(out, key=repr)[0]
    out[key] = out[key] + ONE
    return out


class IdealReport(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.h, cls.g = inputs.heis(), inputs.sl2()
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for name, L in (("h", cls.h), ("g", cls.g)):
                paths.append(os.path.join(tmp, f"{name}.alg"))
                Path(paths[-1]).write_text(L.text())
            out = os.path.join(tmp, "report")
            assert univalg.cli.main(["univalg", *paths, "--out", out]) == 0
            cls.text = Path(out).read_text()
        cls.homs = inputs.homomorphisms(cls.g, cls.h, Random(3))

    def check(self, text):
        return checks.check_ideal_report(text, self.h, self.g, self.homs, Random(4))

    def groebner_lines(self):
        return [l for l in self.text.splitlines() if l.startswith("groebner: ")]

    def test_true_report_passes(self):
        self.assertEqual(self.check(self.text), [])

    def test_dropped_basis_element_fails(self):
        for line in self.groebner_lines():
            with self.subTest(line=line):
                self.assertNotEqual(self.check(self.text.replace(line + "\n", "")), [])

    def test_changed_coefficient_fails(self):
        for line in self.groebner_lines():
            body = line[len("groebner: "):]
            changed = "groebner: 3*" + body if not body.startswith("-") else \
                "groebner: -3*" + body[1:]
            if " + " in body or " - " in body:
                # change a non-leading term, so the element stays monic
                head, sep, tail = body.rpartition(" ")
                changed = f"groebner: {head} 5/7*{tail}" if "*" not in tail else \
                    f"groebner: {head} 5/7*{tail.split('*', 1)[1]}"
            with self.subTest(line=line):
                self.assertNotEqual(self.check(self.text.replace(line, changed)), [])

    def test_changed_generator_line_fails(self):
        line = next(l for l in self.text.splitlines() if l.startswith("generator ")
                    and not l.endswith(": 0"))
        self.assertNotEqual(self.check(self.text.replace(line, line + " + 1")), [])


class ModuleBasis(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        s = inputs.sl2()
        sp = inputs.to_program(univalg, s)
        A = univalg.build_universal_algebra(sp, sp)
        cls.s, cls.U, cls.Z = s, inputs.natural2(s), inputs.natural2(s)
        cls.um = univalg.build_universal_amodule(
            A, inputs.to_program_module(univalg, cls.U, sp),
            inputs.to_program_module(univalg, cls.Z, sp))
        cls.index = checks.var_index(A.ring.names)
        cls.basis = [checks.vector_data(v) for v in cls.um.mgb.generators]
        homs = inputs.homomorphisms(s, s, Random(5))
        cls.mods = checks.targets(s, s, cls.index, homs, Random(6))

    def check(self, basis):
        return checks.check_module_basis(basis, self.s, self.s, self.U, self.Z,
                                         self.index, self.mods)

    def test_true_basis_passes(self):
        self.assertEqual(self.check(self.basis), [])

    def test_dropped_basis_element_fails(self):
        for k in range(len(self.basis)):
            with self.subTest(k=k):
                self.assertNotEqual(self.check(self.basis[:k] + self.basis[k + 1:]), [])

    def test_changed_coefficient_fails(self):
        for k, v in enumerate(self.basis):
            with self.subTest(k=k):
                lead = max(v, key=oracle.vkey)
                others = [t for t in v if t != lead] or [lead]
                self.assertNotEqual(
                    self.check(self.basis[:k] + [bump(v, others[0])] + self.basis[k + 1:]), [])

    def test_presented_map_changed_coefficient_fails(self):
        f = oracle.mat_scale(Fraction(2), oracle.identity(2))
        fbar = univalg.functor_on_morphism_U(self.um, self.um, univalg.LinearMap.from_matrix(f))
        images = {p: checks.vector_data(v) for p, v in fbar.images.items()}
        args = (self.U, self.Z, self.Z, f, self.s, self.index, self.mods)
        self.assertEqual(checks.check_presented_map(images, *args), [])
        for p in images:
            if images[p]:
                wrong = dict(images)
                wrong[p] = bump(images[p])
                self.assertNotEqual(checks.check_presented_map(wrong, *args), [])


class Factorizations(unittest.TestCase):
    def test_amodule_factorization_theta_entry(self):
        s = inputs.sl2()
        sp = inputs.to_program(univalg, s)
        A = univalg.build_universal_algebra(sp, sp)
        n2 = inputs.natural2(s)
        um = univalg.build_universal_amodule(
            A, inputs.to_program_module(univalg, n2, sp),
            inputs.to_program_module(univalg, n2, sp))
        rng = Random(7)
        phi = [p for p in inputs.homomorphisms(s, s, rng) if not oracle.is_zero(p)][0]
        X, q = inputs.sum_rep([inputs.point_rep(phi, s, s)] * 2, s, s)
        f = oracle.intertwiners([list(map(list, a)) for a in n2.act],
                                inputs.tensor_action(n2, X, q, s), rng)
        Xp = univalg.MatrixARep(A, q, X)
        res = univalg.factorize_through_universal(um, Xp, univalg.LinearMap.from_matrix(f))
        self.assertEqual(checks.check_amod_factorization(n2, n2, s, X, q, f, res.images), [])
        for key in res.images:
            for t in range(q):
                wrong = copy.deepcopy(res.images)
                wrong[key][t] += ONE
                with self.subTest(key=key, t=t):
                    self.assertNotEqual(
                        checks.check_amod_factorization(n2, n2, s, X, q, f, wrong), [])

    def test_lie_factorization_theta_entry(self):
        s = inputs.sl2()
        sp = inputs.to_program(univalg, s)
        A = univalg.build_universal_algebra(sp, sp)
        ad = inputs.adjoint(s)
        V = inputs.point_rep(oracle.identity(3), s, s)
        vm = univalg.build_universal_lie_hmodule(
            A, univalg.MatrixARep(A, 1, V), inputs.to_program_module(univalg, ad, sp))
        f = oracle.intertwiners([list(map(list, a)) for a in ad.act],
                                inputs.tensor_action(ad, V, 1, s), Random(8))
        res = univalg.factorize_lie(vm, inputs.to_program_module(univalg, ad, sp),
                                    univalg.LinearMap.from_matrix(f))
        self.assertEqual(checks.check_lie_factorization(V, 1, ad, ad, s, f, res.images), [])
        for key in res.images:
            for a in range(3):
                wrong = copy.deepcopy(res.images)
                wrong[key][a] += ONE
                with self.subTest(key=key, a=a):
                    self.assertNotEqual(
                        checks.check_lie_factorization(V, 1, ad, ad, s, f, wrong), [])
        got = checks.pbw_vector_data(vm)
        self.assertEqual(checks.check_lie_relations(got, V, 1, ad, s, s), [])
        for label in got:
            if got[label]:
                wrong = dict(got)
                wrong[label] = bump(got[label])
                with self.subTest(label=label):
                    self.assertNotEqual(checks.check_lie_relations(wrong, V, 1, ad, s, s), [])

    def test_coalgebra_map_theta_entry(self):
        # theta(y_lt) = delta_lt e_2 into k (+) k with grouplike e_1, e_2
        d2 = [[ONE if r == a * 3 else Fraction(0) for a in range(2)] for r in range(4)]
        eps = [[ONE, ONE]]
        theta = {(l, t): [Fraction(0), ONE if l == t else Fraction(0)]
                 for l in (1, 2) for t in (1, 2)}
        self.assertEqual(checks.check_coalgebra_map(theta, 2, d2, eps, 2), [])
        for key in theta:
            for a in range(2):
                wrong = copy.deepcopy(theta)
                wrong[key][a] += ONE
                with self.subTest(key=key, a=a):
                    self.assertNotEqual(checks.check_coalgebra_map(wrong, 2, d2, eps, 2), [])


if __name__ == "__main__":
    unittest.main()
