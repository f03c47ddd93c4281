"""The exact coefficient policy: ints until a denominator appears.

Every linear combination stores its coefficients through rationals.exact,
so integer structure constants stay ints and a division brings a Fraction.
These properties check that no float or bool ever reaches a coefficient,
and that an int-seeded computation equals the same computation seeded with
Fractions, term for term.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from gammagenus.partitions import partitions_of
from gammagenus.rationals import exact
from gammagenus.symfunc import BASES, SymPoly, to_basis
from gammagenus.words import (
    QsymPoly,
    lyndon_decompose,
    lyndon_recompose,
    stuffle,
    sym_to_words,
    words_of_weight,
)
from gammagenus.zetaring import zeta_hom

coeffs = st.one_of(
    st.integers(-4, 4),
    st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4)),
)
word = st.integers(0, 6).flatmap(lambda n: st.sampled_from(words_of_weight(n)))
partition = st.integers(0, 8).flatmap(lambda n: st.sampled_from(partitions_of(n)))
qsym = st.dictionaries(word, coeffs, min_size=1, max_size=3).map(QsymPoly)
sym = st.tuples(
    st.sampled_from(BASES), st.dictionaries(partition, coeffs, min_size=1, max_size=3)
).map(lambda t: SymPoly(*t))


def assert_exact(values):
    for c in values:
        assert type(c) in (int, Fraction), f"{c!r} is a {type(c).__name__}"


def assert_whole_values_are_ints(values):
    for c in values:
        assert not (type(c) is Fraction and c.denominator == 1), f"{c!r} is whole"


def fraction_seeded(poly):
    """The same combination with every coefficient held as a Fraction."""
    return poly._like({k: Fraction(c) for k, c in poly.terms.items()})


def test_exact_reads_whole_values_as_ints():
    assert type(exact(3)) is int
    assert type(exact(Fraction(6, 2))) is int and exact(Fraction(6, 2)) == 3
    assert type(exact(True)) is int and exact(True) == 1
    assert exact(Fraction(1, 3)) == Fraction(1, 3)
    assert exact(0.5) == Fraction(1, 2)
    assert exact(2.0) == 2 and type(exact(2.0)) is int


@settings(max_examples=40, deadline=None)
@given(qsym, qsym)
def test_stuffle_is_exact_and_seed_independent(a, b):
    got = stuffle(a, b)
    assert_exact(got.terms.values())
    assert got == stuffle(fraction_seeded(a), fraction_seeded(b))


@settings(max_examples=40, deadline=None)
@given(qsym)
def test_lyndon_roundtrip_is_exact_and_seed_independent(q):
    decomposition = lyndon_decompose(q)
    assert_exact(decomposition.values())
    assert decomposition == lyndon_decompose(fraction_seeded(q))
    back = lyndon_recompose(decomposition)
    assert_exact(back.terms.values())
    assert back == q
    assert back == lyndon_recompose(
        {mono: Fraction(c) for mono, c in decomposition.items()}
    )


@settings(max_examples=60, deadline=None)
@given(sym)
def test_symmetric_maps_are_exact_and_seed_independent(f):
    seeded = fraction_seeded(f)
    for target in BASES:
        got = to_basis(f, target)
        assert_exact(got.terms.values())
        assert got == to_basis(seeded, target)
    words_image = sym_to_words(f)
    assert_exact(words_image.terms.values())
    assert words_image == sym_to_words(seeded)
    ring_image = zeta_hom(f)
    assert_exact(ring_image.terms.values())
    assert_whole_values_are_ints(ring_image.terms.values())
    assert ring_image == zeta_hom(seeded)


def test_zeta_hom_stores_whole_coefficients_as_ints():
    # the images of every m_lam and e_lam up to weight 8; m_(3) maps to
    # zeta(3) with the int coefficient 1
    for n in range(1, 9):
        for lam in partitions_of(n):
            for basis in ("m", "e"):
                image = zeta_hom(SymPoly.basis_element(basis, lam))
                assert_exact(image.terms.values())
                assert_whole_values_are_ints(image.terms.values())
    assert type(zeta_hom(SymPoly.basis_element("m", (3,))).terms[(("zeta3", 1),)]) is int


@settings(max_examples=40, deadline=None)
@given(word)
def test_int_and_fraction_seeds_are_the_same_poly(w):
    a, b = QsymPoly({w: 1}), QsymPoly({w: Fraction(1)})
    assert a == b
    assert hash(frozenset(a.terms.items())) == hash(frozenset(b.terms.items()))
