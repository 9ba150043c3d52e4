"""Tracing from outside the program: each public function named in LAYERS is
replaced by a timing wrapper in every univalg module namespace that holds it.
No source file changes.

A span is (name, start, end, parent); spans stay in memory and are written
out when the run ends.  Self time is a span's duration minus the durations of
its child spans.  The program is single-threaded, so there is no waiting to
report.
"""

from __future__ import annotations

import json
import sys
import time

# (module, attribute) -> layer name.  Several functions may share a layer.
LAYERS = {
    ("poly", "groebner"): "poly.groebner",
    ("poly", "normal_form"): "poly.normal_form",
    ("poly", "ideal_equal"): "poly.ideal_equal",
    ("poly", "render"): "formats.render",
    ("modgb", "module_buchberger"): "modgb.module_buchberger",
    ("modgb", "module_normal_form"): "modgb.module_normal_form",
    ("coalgebra", "TensorSquare.normal_form"): "coalgebra.TensorSquare.normal_form",
    ("coalgebra", "build_coalgebra"): "coalgebra.build_coalgebra",
    ("coalgebra", "verify_bmodule_coalgebra"): "coalgebra.verify_bmodule_coalgebra",
    ("pbw", "normalize_word"): "pbw.normalize_word",
    ("linalg", "rank"): "linalg.rank",
    ("lie", "is_module_morphism"): "lie.is_module_morphism",
    ("lie", "validate_lie_algebra"): "lie.validate_lie_algebra",
    ("representations", "tensor_lie_module"): "representations.tensor_lie_module",
    ("universal_modules", "factorize_through_universal"):
        "universal_modules.factorize_through_universal",
    ("universal_modules", "gamma"): "universal_modules.gamma",
    ("universal_modules", "factorize_lie"): "universal_modules.factorize_lie",
    ("universal_modules", "gamma_lie"): "universal_modules.gamma_lie",
    ("universal_modules", "functor_on_morphism_U"): "universal_modules.functor_on_morphism_U",
    ("universal_modules", "build_universal_amodule"): "universal_modules.build_universal_amodule",
    ("universal_modules", "direct_sum_check"): "universal_modules.direct_sum_check",
    ("universal_algebra", "build_universal_algebra"):
        "universal_algebra.build_universal_algebra",
    ("universal_algebra", "check_defining_relations"):
        "universal_algebra.check_defining_relations",
    ("universal_algebra", "bialgebra_structure"): "universal_algebra.bialgebra_structure",
    ("formats", "parse_algebra"): "formats.parse",
    ("formats", "parse_module"): "formats.parse",
    ("formats", "parse_morphism"): "formats.parse",
    ("formats", "render_report"): "formats.render",
    ("cli", "main"): "cli.main",
}


def _terms_in(args):
    """Terms of the polynomial or module vector entering a normal form."""
    x = args[0] if args else None
    if hasattr(x, "terms"):
        return len(x.terms)
    if hasattr(x, "components"):
        return sum(len(q.terms) for q in x.components.values())
    return 0


class Tracer:
    def __init__(self):
        self.spans: list = []         # (name, start, end, parent index)
        self.stack: list[int] = []
        self.child: list[float] = []  # time covered by children, per span
        self.phase = "setup"
        self.stats: dict = {}         # (phase, layer) -> [calls, self_s, terms_in, basis_len]

    def _wrap(self, layer, fn):
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else -1
            idx = len(tracer.spans)
            tracer.spans.append(None)
            tracer.child.append(0.0)
            tracer.stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                tracer.stack.pop()
                tracer.spans[idx] = (layer, start, end, parent)
                dur = end - start
                if parent >= 0:
                    tracer.child[parent] += dur
                st = tracer.stats.setdefault((tracer.phase, layer), [0, 0.0, 0, 0])
                st[0] += 1
                st[1] += dur - tracer.child[idx]
            st[2] += _terms_in(args)
            if hasattr(out, "generators"):
                st[3] += len(out.generators)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every function in LAYERS wherever univalg holds it."""
        mods = [m for name, m in sys.modules.items()
                if name == "univalg" or name.startswith("univalg.")]
        for (modname, attr), layer in LAYERS.items():
            owner = sys.modules[f"univalg.{modname}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self._wrap(layer, getattr(cls, meth)))
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrap(layer, orig)
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapped)

    def per_layer(self, rounds: int) -> dict:
        """Per layer: the set-up's figures plus the mean of one round's."""
        out: dict = {}
        for (phase, layer), st in self.stats.items():
            acc = out.setdefault(layer, [0, 0.0, 0, 0])
            div = rounds if phase == "round" else 1
            for k in range(4):
                acc[k] += st[k] / div
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")
