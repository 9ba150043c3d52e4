"""Enveloping-algebra elements in PBW normal form.

Basis words are non-decreasing tuples of 1-based basis indices of the Lie
algebra; the empty word is the unit.  Arbitrary words are normalized with the
rewrite e_j e_i -> e_i e_j + [e_j, e_i] applied at descents, which terminates
because each step either shortens the word or removes an inversion.
"""

from __future__ import annotations

from .lie import LieAlgebra
from .linalg import Scalar, combination_str

ZERO = 0
ONE = 1

Word = tuple[int, ...]


class PBWElement:
    """Element of the enveloping algebra: map from sorted word to coefficient."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: LieAlgebra, terms: dict[Word, Scalar]):
        self.algebra = algebra
        self.terms = {w: c for w, c in terms.items() if c}

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "PBWElement") -> "PBWElement":
        terms = dict(self.terms)
        for w, c in other.terms.items():
            terms[w] = terms.get(w, ZERO) + c
        return PBWElement(self.algebra, terms)

    def __mul__(self, other: "PBWElement") -> "PBWElement":
        out: dict[Word, Scalar] = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                for w, c in normalize_word(self.algebra, w1 + w2).items():
                    out[w] = out.get(w, ZERO) + c1 * c2 * c
        return PBWElement(self.algebra, out)

    def __eq__(self, other):
        return (
            isinstance(other, PBWElement)
            and self.algebra == other.algebra
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        return f"PBWElement({render_pbw(self)})"


def normalize_word(algebra: LieAlgebra, word: Word) -> dict[Word, Scalar]:
    """PBW normal form of a single (unsorted) word, memoized on the algebra
    instance."""
    return _normalize(algebra, word, algebra._pbw_words)


def _normalize(algebra, word, cache):
    hit = cache.get(word)
    if hit is not None:
        return hit
    descent = next(
        (k for k in range(len(word) - 1) if word[k] > word[k + 1]), None
    )
    if descent is None:
        out = {word: ONE}
    else:
        j, i = word[descent], word[descent + 1]
        swapped = word[:descent] + (i, j) + word[descent + 2 :]
        out = dict(_normalize(algebra, swapped, cache))
        for s in range(1, algebra.dim + 1):
            tau = algebra.table[j - 1][i - 1][s - 1]
            if tau:
                shorter = word[:descent] + (s,) + word[descent + 2 :]
                for w, c in _normalize(algebra, shorter, cache).items():
                    out[w] = out.get(w, ZERO) + tau * c
        out = {w: c for w, c in out.items() if c}
    cache[word] = out
    return out


def render_pbw(p: PBWElement) -> str:
    """Text form: words by length, then lexicographically."""
    return combination_str(
        ("*".join(f"e{t}" for t in w) if w else "1", c)
        for w, c in sorted(p.terms.items(), key=lambda t: (len(t[0]), t[0]))
    )
