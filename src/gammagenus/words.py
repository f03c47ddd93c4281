"""Words in letters z_1, z_2, ... with the stuffle (quasi-shuffle) product.

A word is a tuple of positive integer subscripts; weight is the subscript
sum and depth the length.  Letters compare with z_1 > z_2 > z_3 > ..., the
order extends lexicographically to words, and a proper prefix precedes its
extensions.  Under this order the Lyndon words (words strictly smaller than
every proper nonempty suffix) freely generate the stuffle algebra, which is
what lyndon_decompose exploits.  A QsymPoly is a rational linear
combination of words (a rationals.LinearCombination) whose product is the
stuffle; its structure constants are integers (Hoffman, Quasi-shuffle
products, 2000), so coefficients stay ints until lyndon_decompose divides.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .partitions import are_letters, as_partition, partitions_of
from .rationals import LinearCombination, exact, frac_str
from .symfunc import SymPoly, to_basis
from .symfunc import _orbit_exponent_vectors

Word = tuple


def check_word(w) -> Word:
    word = tuple(w)
    if not are_letters(word):
        raise ValueError(f"word letters must be integers >= 1: {w!r}")
    return word


def word_key(w):
    """Sort key realizing the fixed word order (z_1 greatest, prefix first)."""
    return tuple(-i for i in w)


def words_of_weight(n: int) -> list:
    """All words (compositions) of weight n, in descending word order: the
    arrangements of the parts of each partition of n."""
    if n < 0:
        raise ValueError("weight must be >= 0")
    return sorted(
        (w for lam in partitions_of(n) for w in _orbit_exponent_vectors(lam, len(lam))),
        key=word_key,
        reverse=True,
    )


class QsymPoly(LinearCombination):
    """Rational linear combination of words."""

    __slots__ = ()
    _key = staticmethod(check_word)

    @classmethod
    def from_word(cls, w) -> "QsymPoly":
        return cls({check_word(w): 1})

    def __mul__(self, other: "QsymPoly") -> "QsymPoly":
        return stuffle(self, other)

    def weights(self) -> list:
        return sorted({sum(w) for w in self.terms})

    def max_word(self):
        if not self.terms:
            raise ValueError("zero polynomial has no extremal word")
        return max(self.terms, key=word_key)

    def sorted_terms(self):
        """Terms in descending word order (the canonical display order)."""
        return sorted(self.terms.items(), key=lambda t: word_key(t[0]), reverse=True)

    def __repr__(self) -> str:
        body = " + ".join(f"{c}*z{list(w)}" for w, c in self.sorted_terms())
        return f"QsymPoly({body or '0'})"


@lru_cache(maxsize=None)
def _stuffle_words(u: Word, v: Word):
    """Stuffle of two bare words, as a tuple of (word, int coeff) pairs.

    Inductive rule: the first letter of the product comes from u, from v, or
    from fusing both first letters into z_{i+j}; the empty word is the unit.
    """
    if not u:
        return ((v, 1),)
    if not v:
        return ((u, 1),)
    out: dict = {}
    cases = ((u[0], u[1:], v), (v[0], u, v[1:]), (u[0] + v[0], u[1:], v[1:]))
    for head, left, right in cases:
        for w, c in _stuffle_words(left, right):
            key = (head,) + w
            out[key] = out.get(key, 0) + c
    return tuple(out.items())


def stuffle(a: QsymPoly, b: QsymPoly) -> QsymPoly:
    """Bilinear extension of the word-level stuffle product."""
    a._check_compatible(b)
    out: dict = {}
    for u, cu in a.terms.items():
        for v, cv in b.terms.items():
            c = cu * cv
            for w, k in _stuffle_words(u, v):
                out[w] = out.get(w, 0) + c * k
    return a._like(out)


def stuffle_word_pair(u, v) -> QsymPoly:
    return stuffle(QsymPoly.from_word(u), QsymPoly.from_word(v))


# --- Lyndon machinery ---------------------------------------------------------


def is_lyndon(w) -> bool:
    """True if w is strictly smaller than all of its proper nonempty suffixes."""
    word = check_word(w)
    if not word:
        return False
    k = word_key(word)
    return all(word_key(word[i:]) > k for i in range(1, len(word)))


def lyndon_words(weight: int) -> list:
    """All Lyndon words of the given weight, in descending word order."""
    if weight < 1:
        raise ValueError("weight must be >= 1")
    return [w for w in words_of_weight(weight) if is_lyndon(w)]


def lyndon_factorize(w) -> tuple:
    """Chen-Fox-Lyndon factorization: weakly decreasing Lyndon factors.

    Duval's algorithm, run on the letter keys (negated subscripts) so the
    package-wide order is the one being used.
    """
    word = check_word(w)
    s = word_key(word)
    n = len(s)
    factors = []
    i = 0
    while i < n:
        j, k = i + 1, i
        while j < n and s[k] <= s[j]:
            k = i if s[k] < s[j] else k + 1
            j += 1
        while i <= k:
            factors.append(word[i : i + j - k])
            i += j - k
    return tuple(factors)


def stuffle_power_product(factors) -> QsymPoly:
    """Stuffle product of a sequence of words (the unit for an empty list)."""
    acc = QsymPoly.from_word(())
    for f in factors:
        acc = stuffle(acc, QsymPoly.from_word(f))
    return acc


def lyndon_decompose(q: QsymPoly) -> dict:
    """Rewrite q as a polynomial in commuting Lyndon generators.

    Returns a map from monomials (tuples of Lyndon words, weakly decreasing
    in the word order) to rational coefficients.  Works by leading-term
    elimination: the stuffle expansion of the factorization of a word has
    that word as its maximal term, which is asserted on every pivot.  One
    pass over all of q is enough: the stuffle keeps weight, so an expansion
    only touches words of its pivot's weight, and each weight is eliminated
    exactly as it would be on its own.
    """
    result: dict = {}
    residual = q
    while residual:
        pivot = residual.max_word()
        coeff = residual.terms[pivot]
        factors = lyndon_factorize(pivot)
        expansion = stuffle_power_product(factors)
        if expansion.max_word() != pivot:
            raise AssertionError(
                f"triangularity violated at pivot {pivot}: "
                f"expansion leads with {expansion.max_word()}"
            )
        c = exact(Fraction(coeff, expansion.terms[pivot]))
        result[factors] = result.get(factors, 0) + c
        residual = residual - expansion.scaled(c)
    return {mono: c for mono, c in result.items() if c}


def lyndon_recompose(decomposition: dict) -> QsymPoly:
    """Evaluate a Lyndon-generator polynomial back in the word algebra."""
    acc = QsymPoly.zero()
    for mono, c in decomposition.items():
        acc = acc + stuffle_power_product(mono).scaled(c)
    return acc


# --- embedding of symmetric functions ----------------------------------------


def sym_to_words(f: SymPoly) -> QsymPoly:
    """Embed a symmetric function as a word polynomial.

    m_lam maps to the sum of all distinct words whose letter multiset is
    lam; consequently p_i lands on z_i and e_i on z_1^i.  The embedding
    turns products into stuffle products, which the suites verify.
    """
    fm = to_basis(f, "m")
    out: dict = {}
    for lam, c in fm.terms.items():
        for vec in _orbit_exponent_vectors(as_partition(lam), len(lam)):
            out[vec] = out.get(vec, 0) + c
    return QsymPoly(out)


# --- JSON ---------------------------------------------------------------------


def qsym_to_json(q: QsymPoly) -> list:
    return [
        {"word": list(w), "coeff": frac_str(c)} for w, c in q.sorted_terms()
    ]
