"""An independent certificate for reduced Groebner bases of ideals and of
submodules of free modules.

It trusts nothing of the engine in ``univalg.poly``: no packed terms, no
reducer, no pair criteria.  Elements are dicts from (position, monomial) to
an exact scalar (``int`` or ``Fraction``), with tuple monomials and
``MonomialOrder.key`` under position-over-term order; an ideal is the rank-1
case, every term at position 0.  Division is the naive one, rescanning the
whole basis for every term; each quotient is a ``Fraction(a, b)``, so ``int``
coefficients never turn into floats.  A reduced basis B of the span of the
generators G and the copies C passes iff

1. every element of G reduces to 0 modulo B;
2. every element of C reduces to 0 modulo B;
3. every S-element of two elements of B with leads at the same position
   reduces to 0 modulo B (no pair is skipped);
4. every lead of B is monic and divides no term of another element of B.
"""

from __future__ import annotations

from fractions import Fraction

Element = dict[tuple[int, tuple[int, ...]], Fraction]


def _divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


class _Certifier:
    def __init__(self, basis: list[Element], order):
        self.key = lambda t: (-t[0], order.key(t[1]))
        self.basis = basis
        self.leads = [max(b, key=self.key) for b in basis]

    def remainder(self, v: Element) -> Element:
        work = dict(v)
        rem: Element = {}
        while work:
            t = max(work, key=self.key)
            c = work.pop(t)
            for b, (p, lm) in zip(self.basis, self.leads):
                if p != t[0] or not _divides(lm, t[1]):
                    continue
                q = tuple(x - y for x, y in zip(t[1], lm))
                f = Fraction(c, b[(p, lm)])
                for (bp, bm), bc in b.items():
                    if (bp, bm) == (p, lm):
                        continue
                    u = (bp, tuple(x + y for x, y in zip(bm, q)))
                    work[u] = work.get(u, Fraction(0)) - f * bc
                    if not work[u]:
                        del work[u]
                break
            else:
                rem[t] = c
        return rem

    def s_element(self, i: int, j: int) -> Element:
        (_, mi), (_, mj) = self.leads[i], self.leads[j]
        lcm = tuple(max(x, y) for x, y in zip(mi, mj))
        out: Element = {}
        for b, lead, sign in ((self.basis[i], self.leads[i], 1),
                              (self.basis[j], self.leads[j], -1)):
            q = tuple(x - y for x, y in zip(lcm, lead[1]))
            f = Fraction(sign, b[lead])
            for (p, m), c in b.items():
                u = (p, tuple(x + y for x, y in zip(m, q)))
                out[u] = out.get(u, Fraction(0)) + f * c
        return {u: c for u, c in out.items() if c}


def certify(basis: list[Element], gens: list[Element], copies: list[Element],
            order) -> list[str]:
    """The conditions the basis breaks, one line each; empty iff it passes."""
    cert = _Certifier(basis, order)
    failures = []
    for name, elems in (("generator", gens), ("copy", copies)):
        for k, v in enumerate(elems):
            if cert.remainder(v):
                failures.append(f"{name} {k} does not reduce to 0")
    for i in range(len(basis)):
        for j in range(i):
            if cert.leads[i][0] == cert.leads[j][0] and cert.remainder(
                cert.s_element(i, j)
            ):
                failures.append(f"S-element ({i}, {j}) does not reduce to 0")
    for i, (b, (p, lm)) in enumerate(zip(basis, cert.leads)):
        if b[(p, lm)] != 1:
            failures.append(f"lead of element {i} is not monic")
        for j, other in enumerate(basis):
            if j != i and any(q == p and _divides(lm, m) for q, m in other):
                failures.append(f"lead of element {i} divides a term of {j}")
    return failures


def _poly_element(p, pos: int = 0) -> Element:
    return {(pos, m): c for m, c in p.terms.items()}


def _vector_element(v) -> Element:
    return {(p, m): c for p, q in v.components.items() for m, c in q.terms.items()}


def ideal_failures(gb, gens) -> list[str]:
    """Certificate of a GroebnerBasis of the ideal generated by ``gens``."""
    return certify([_poly_element(g) for g in gb.generators],
                   [_poly_element(g) for g in gens], [], gb.ring.order)


def module_failures(mgb, gens, ring_ideal) -> list[str]:
    """Certificate of a ModuleGroebnerBasis of the submodule generated by
    ``gens`` and j*e_p for the generators j of ``ring_ideal`` (or None)."""
    copies = [] if ring_ideal is None else [
        _poly_element(j, p)
        for j in ring_ideal.generators
        for p in range(mgb.module.rank)
    ]
    return certify([_vector_element(v) for v in mgb.generators],
                   [_vector_element(v) for v in gens], copies,
                   mgb.module.ring.order)
