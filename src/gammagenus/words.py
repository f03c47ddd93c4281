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
The word-level product is memoised per pair of words, since the Lyndon
machinery and the algebra checks ask for the same products again and
again; the memo holds only those products, each over words stored once.
A pair whose product would build more than STUFFLE_BUDGET letters is
refused with ValueError before any work.

zeta_word is the word route into the coefficient ring: it sends z_1 to
gamma and every other Lyndon factor to its multiple zeta symbol, in an
MzvValue, and stuffle_reduce rewrites a value of depth <= 2 in the ring
through the identities the stuffle forces.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .partitions import are_letters, as_partition, partitions_of
from .rationals import LinearCombination, exact, frac_str
from .symfunc import SymPoly, _orbit_exponent_vectors, to_basis
from .zetaring import GAMMA, ZetaPoly, check_convergent_composition, zeta_gen

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


# One object for each word and coefficient tuple the _stuffle_words memo
# holds: a word that turns up in many products is stored once.  Clearing
# the memo leaves this table full; freeing the memory takes clearing both.
_SHARED: dict = {}

# Letters one word product may build.  Its table holds the product of
# each suffix of u with each suffix of v, D(a, b) words of length at most
# a + b for suffixes of lengths a and b, where D(a, b) = sum_k C(a,k) C(b,k)
# 2^k is the Delannoy number; the time follows the sum.  Memory follows
# only the two rows alive at once, over the shorter word, plus the output.
STUFFLE_BUDGET = 20_000_000


def _check_stuffle_size(m: int, n: int) -> None:
    """Raise ValueError if a product of words of lengths m and n would build
    more than STUFFLE_BUDGET letters: sum_{a<=m, b<=n} D(a, b) (a + b).
    The count bounds the time; memory holds only two rows of it at once."""
    row = [1] * (n + 1)  # D(0, b)
    letters = n * (n + 1) // 2
    for a in range(1, m + 1):
        if letters > STUFFLE_BUDGET:
            break
        diag = 1
        for b in range(1, n + 1):
            diag, row[b] = row[b], row[b] + row[b - 1] + diag
        letters += sum(d * (a + b) for b, d in enumerate(row))
    if letters > STUFFLE_BUDGET:
        raise ValueError(
            f"a product of words of lengths {m} and {n} builds more than "
            f"STUFFLE_BUDGET = {STUFFLE_BUDGET} letters"
        )


@lru_cache(maxsize=None)
def _stuffle_words(u: Word, v: Word):
    """Stuffle of two bare words, as parallel tuples (words, int coeffs).

    Inductive rule: the first letter of the product comes from u, from v, or
    from fusing both first letters into z_{i+j}; the empty word is the unit.
    The rule runs bottom up over the suffix pairs (u[i:], v[j:]), one row of
    the table per suffix of the longer word from the ends, with a cell per
    suffix of the shorter one, so at most two rows of min(len(u), len(v)) + 1
    cells are alive at once.  The table is dropped on return, so the memo
    keeps only the products stuffle asks for, over _SHARED's objects.  A
    pair past STUFFLE_BUDGET raises ValueError before any work.
    """
    _check_stuffle_size(len(u), len(v))
    # x runs the rows and y the cells of a row; y is the shorter word
    swap = len(u) < len(v)
    x, y = (v, u) if swap else (u, v)
    below = [{y[j:]: 1} for j in range(len(y) + 1)]
    for i in range(len(x) - 1, -1, -1):
        row = [None] * len(y) + [{x[i:]: 1}]
        for j in range(len(y) - 1, -1, -1):
            out: dict = {}
            from_x = (x[i], below[j])  # (x[i+1:], y[j:])
            from_y = (y[j], row[j + 1])  # (x[i:], y[j+1:])
            # the rule's order whichever word runs the rows: u's first
            # letter, v's, then both fused, (x[i+1:], y[j+1:])
            first, second = (from_y, from_x) if swap else (from_x, from_y)
            cases = (first, second, (x[i] + y[j], below[j + 1]))
            for head, cell in cases:
                for w, c in cell.items():
                    key = (head,) + w
                    out[key] = out.get(key, 0) + c
            row[j] = out
        below = row
    share = _SHARED.setdefault
    coeffs = tuple(below[0].values())
    return tuple(share(w, w) for w in below[0]), share(coeffs, coeffs)


def stuffle(a: QsymPoly, b: QsymPoly) -> QsymPoly:
    """Bilinear extension of the word-level stuffle product."""
    a._check_compatible(b)
    out: dict = {}
    for u, cu in a.terms.items():
        for v, cv in b.terms.items():
            c = cu * cv
            for w, k in zip(*_stuffle_words(u, v)):
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


# --- multiple zeta values of words --------------------------------------------


class MzvValue(LinearCombination):
    """Polynomial in unevaluated MZV symbols with ZetaPoly coefficients.

    Keys are sorted tuples of convergent compositions (commuting atoms); the
    empty key carries the pure ring part.  This is the closure of what the
    Lyndon-multiplicative evaluation of words can produce: z_1 contributes
    gamma to the ring part, every other Lyndon factor contributes an atom.
    """

    __slots__ = ()

    @staticmethod
    def _key(atoms) -> tuple:
        return tuple(sorted(check_convergent_composition(a) for a in atoms))

    @staticmethod
    def _coeff(c) -> ZetaPoly:
        return c if isinstance(c, ZetaPoly) else ZetaPoly.constant(c)

    @classmethod
    def from_ring(cls, poly: ZetaPoly) -> "MzvValue":
        return cls({(): poly})

    @classmethod
    def one(cls) -> "MzvValue":
        return cls.from_ring(ZetaPoly.one())

    @classmethod
    def from_atom(cls, composition) -> "MzvValue":
        return cls({(tuple(composition),): ZetaPoly.one()})

    def __mul__(self, other: "MzvValue") -> "MzvValue":
        return self._combine(other, lambda a1, a2: tuple(sorted(a1 + a2)))

    def zeta_part(self) -> ZetaPoly:
        """The coefficient of the empty atom monomial (the pure ring part)."""
        return self.terms.get((), ZetaPoly.zero())


def zeta_word(w) -> MzvValue:
    """Evaluate a word through the Lyndon-multiplicative extension.

    A convergent word (first letter subscript >= 2) is a single MZV symbol
    with coefficient 1.  Otherwise the word is rewritten as a polynomial in
    Lyndon generators; z_1 evaluates to gamma and any other Lyndon factor to
    its MZV symbol, with distinct symbols kept as independent commuting
    atoms.
    """
    word = check_word(w)
    if not word:
        return MzvValue.one()
    if word[0] >= 2:
        return MzvValue.from_atom(word)
    decomposition = lyndon_decompose(QsymPoly.from_word(word))
    acc = MzvValue.zero()
    for factors, c in decomposition.items():
        term = MzvValue.one().scaled(c)
        for factor in factors:
            if factor == (1,):
                term = term * MzvValue.from_ring(ZetaPoly.generator(GAMMA))
            else:
                term = term * MzvValue.from_atom(factor)
        acc = acc + term
    return acc


def zeta_word_poly(q) -> MzvValue:
    """Linear extension of zeta_word to word polynomials (QsymPoly)."""
    acc = MzvValue.zero()
    for w, c in q.terms.items():
        acc = acc + zeta_word(w).scaled(c)
    return acc


def stuffle_reduce(value: MzvValue) -> ZetaPoly:
    """Rewrite a depth <= 2 MzvValue in the ring, using only forced identities.

    Single symbols zeta(k) are ring elements outright.  A depth-2 symbol is
    only reducible when stuffle forces it: zeta(a,a) = (zeta(a)^2 -
    zeta(2a))/2, and a symmetric pair zeta(a,b) + zeta(b,a) with equal
    coefficients collapses to zeta(a) zeta(b) - zeta(a+b).  Anything beyond
    that raises, because no honest reduction exists at this level.
    """
    acc = value.zeta_part()
    pending: dict = {}
    for atoms, poly in value.terms.items():
        if not atoms:
            continue
        if len(atoms) > 1:
            raise ValueError(f"no forced reduction for symbol products: {atoms}")
        comp = atoms[0]
        if len(comp) == 1:
            acc = acc + poly * zeta_gen(comp[0])
        elif len(comp) == 2:
            pending[comp] = poly
        else:
            raise ValueError(f"no forced reduction at depth {len(comp)}: {comp}")
    while pending:
        a, b = next(iter(pending))
        poly = pending.pop((a, b))
        # zeta(a,a) is its own partner, so it stands for half the pair
        if a == b:
            poly = poly.scaled(Fraction(1, 2))
        elif pending.pop((b, a), None) != poly:
            raise ValueError(
                f"zeta({a},{b}) lacks a matching zeta({b},{a}) term; "
                "the stuffle identity does not apply"
            )
        acc = acc + poly * (zeta_gen(a) * zeta_gen(b) - zeta_gen(a + b))
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
