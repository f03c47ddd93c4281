import copy
import pickle
from fractions import Fraction

import pytest

from gammagenus.partitions import partitions_of
from gammagenus.symfunc import SymPoly, to_basis
from gammagenus.zetaring import (
    DivergentMzvError,
    GAMMA,
    MzvTerm,
    ZetaPoly,
    bernoulli,
    check_convergent_composition,
    zeta_even,
    zeta_gen,
    zeta_hom,
    zetapoly_to_json,
)
from gammagenus.words import (
    MzvValue,
    stuffle_reduce,
    sym_to_words,
    zeta_word,
    zeta_word_poly,
)

GAMMA_GEN = ZetaPoly.generator(GAMMA)
PI2 = ZetaPoly.generator("pi2")


def test_bool_exponents_are_rejected():
    with pytest.raises(ValueError, match="must be an int >= 0"):
        ZetaPoly.generator(GAMMA, True)
    with pytest.raises(ValueError, match="must be an int >= 0"):
        ZetaPoly({(("zeta3", False),): 1})


def test_bernoulli_numbers():
    expected = {
        0: Fraction(1),
        1: Fraction(-1, 2),
        2: Fraction(1, 6),
        3: Fraction(0),
        4: Fraction(-1, 30),
        6: Fraction(1, 42),
        8: Fraction(-1, 30),
        10: Fraction(5, 66),
        12: Fraction(-691, 2730),
    }
    for n, b in expected.items():
        assert bernoulli(n) == b


def test_zetapoly_monomials_are_canonical():
    a = GAMMA_GEN * PI2
    b = PI2 * GAMMA_GEN
    assert a == b
    assert list(a.terms) == [((GAMMA, 1), ("pi2", 1))]
    assert ZetaPoly.generator("zeta3") == zeta_gen(3)
    # only the spelling zeta_generator_name(k) names zeta(k)
    for name in ("zeta03", "zeta 3", "zeta+3", "zeta3 ", "zeta4", "zeta1", "3"):
        with pytest.raises(ValueError):
            ZetaPoly.generator(name)
    # exponents are ints >= 0
    for power in (-1, 0.5, 1.0):
        with pytest.raises(ValueError):
            ZetaPoly.generator(GAMMA, power)


def test_zetapoly_arithmetic():
    p = (GAMMA_GEN + PI2) * (GAMMA_GEN - PI2)
    assert p == GAMMA_GEN ** 2 - PI2 ** 2
    assert GAMMA_GEN ** 0 == ZetaPoly.one()
    assert (GAMMA_GEN - GAMMA_GEN) == ZetaPoly.zero()
    assert not ZetaPoly.zero()


def test_zetapoly_weights_and_homogeneity():
    assert GAMMA_GEN.is_homogeneous(1)
    assert PI2.is_homogeneous(2)
    assert zeta_gen(5).is_homogeneous(5)
    mixed = GAMMA_GEN + PI2
    assert not mixed.is_homogeneous(1)
    assert not mixed.is_homogeneous(2)
    assert (GAMMA_GEN ** 3).is_homogeneous(3)


def test_even_zeta_values():
    assert zeta_even(2) == PI2.scaled(Fraction(1, 6))
    assert zeta_even(4) == (PI2 ** 2).scaled(Fraction(1, 90))
    assert zeta_even(6) == (PI2 ** 3).scaled(Fraction(1, 945))
    assert zeta_even(8) == (PI2 ** 4).scaled(Fraction(1, 9450))
    assert zeta_even(12) == (PI2 ** 6).scaled(Fraction(691, 638512875))


def test_zeta_even_rejects_odd_or_small():
    with pytest.raises(ValueError):
        zeta_even(3)
    with pytest.raises(ValueError):
        zeta_even(0)


def test_zeta_gen_split():
    assert zeta_gen(2) == zeta_even(2)
    assert zeta_gen(3) == ZetaPoly.generator("zeta3")
    assert zeta_gen(7) == ZetaPoly.generator("zeta7")
    assert zeta_gen(10) == zeta_even(10)


def test_zeta_hom_on_elementary():
    e1 = SymPoly.basis_element("e", (1,))
    assert zeta_hom(e1) == GAMMA_GEN
    e2 = SymPoly.basis_element("e", (2,))
    expected = (GAMMA_GEN ** 2).scaled(Fraction(1, 2)) - PI2.scaled(Fraction(1, 12))
    assert zeta_hom(e2) == expected


def test_zeta_hom_on_monomials():
    m2 = SymPoly.basis_element("m", (2,))
    assert zeta_hom(m2) == zeta_even(2)
    m21 = SymPoly.basis_element("m", (2, 1))
    expected = (GAMMA_GEN * PI2).scaled(Fraction(1, 6)) - zeta_gen(3)
    assert zeta_hom(m21) == expected


@pytest.mark.parametrize("n", range(1, 9))
def test_zeta_hom_matches_ring_products(n):
    # oracle: each p_lam term as a product of one-term ring elements, one
    # factor per part, compared by exact ring equality
    for lam in partitions_of(n):
        m = SymPoly.basis_element("m", lam)
        expected = ZetaPoly.zero()
        for mu, c in to_basis(m, "p").terms.items():
            term = ZetaPoly.constant(c)
            for part in mu:
                term = term * (GAMMA_GEN if part == 1 else zeta_gen(part))
            expected = expected + term
        assert zeta_hom(m) == expected, lam
        # the same element given in the p and e bases, and scaled
        assert zeta_hom(to_basis(m, "p")) == expected, lam
        assert zeta_hom(to_basis(m, "e").scaled(-3)) == expected.scaled(-3), lam


def test_zeta_hom_m22_closed_form():
    m22 = SymPoly.basis_element("m", (2, 2))
    assert zeta_hom(m22) == zeta_even(4).scaled(Fraction(3, 4))
    assert zeta_hom(m22) == (PI2 ** 2).scaled(Fraction(1, 120))


def test_zeta_hom_is_weight_graded():
    for lam in [(3,), (2, 1), (3, 2), (2, 2, 1)]:
        poly = zeta_hom(SymPoly.basis_element("m", lam))
        assert poly.is_homogeneous(sum(lam))


def test_check_convergent_composition():
    assert check_convergent_composition((2, 1)) == (2, 1)
    assert check_convergent_composition([3]) == (3,)
    with pytest.raises(DivergentMzvError, match=r"^zeta\(1,2\) diverges"):
        check_convergent_composition((1, 2))
    with pytest.raises(DivergentMzvError, match=r"^zeta\(1\) diverges"):
        check_convergent_composition((1,))
    with pytest.raises(ValueError):
        check_convergent_composition(())
    with pytest.raises(ValueError):
        check_convergent_composition((2, 0))


def test_mzv_term():
    t = MzvTerm(Fraction(3, 2), (6, 2))
    assert t.to_json() == {"args": [6, 2], "coeff": "3/2"}
    with pytest.raises(ValueError):
        MzvTerm(Fraction(1), (1, 2))


def test_mzv_term_is_an_immutable_value():
    t = MzvTerm(coeff=Fraction(3, 2), args=(6, 2))
    assert t == MzvTerm(Fraction(3, 2), [6, 2])
    assert hash(t) == hash(MzvTerm(Fraction(6, 4), (6, 2)))
    assert type(MzvTerm(2, (3,)).coeff) is Fraction
    assert t != MzvTerm(Fraction(3, 2), (2, 6))
    assert t != (Fraction(3, 2), (6, 2))
    assert len({t, MzvTerm(Fraction(3, 2), (6, 2)), MzvTerm(1, (2,))}) == 2
    assert repr(t) == "MzvTerm(coeff=Fraction(3, 2), args=(6, 2))"
    with pytest.raises(AttributeError):
        t.coeff = Fraction(1)
    with pytest.raises(AttributeError):
        t.args = (2,)
    assert t.coeff == Fraction(3, 2) and t.args == (6, 2)
    assert pickle.loads(pickle.dumps(t)) == t
    assert copy.deepcopy(t) == t
    with pytest.raises(DivergentMzvError):
        MzvTerm(Fraction(1), (1, 2))


def test_mzv_value_product_sorts_atoms():
    a = MzvValue.from_atom((3,))
    b = MzvValue.from_atom((2,))
    assert (a * b) == (b * a)
    assert list((a * b).terms) == [((2,), (3,))]


def test_mzv_value_zeta_part_and_terms():
    v = MzvValue.from_ring(GAMMA_GEN) + MzvValue.from_atom((2, 1)).scaled(-1)
    assert v.zeta_part() == GAMMA_GEN


def test_zeta_word_on_convergent_words():
    assert zeta_word(()) == MzvValue.one()
    assert zeta_word((2,)) == MzvValue.from_atom((2,))
    assert zeta_word((2, 1)) == MzvValue.from_atom((2, 1))
    assert zeta_word((6, 2)) == MzvValue.from_atom((6, 2))


def test_zeta_word_z1():
    assert zeta_word((1,)) == MzvValue.from_ring(GAMMA_GEN)


def test_zeta_word_z1_z2():
    got = zeta_word((1, 2))
    expected = (
        MzvValue.from_ring(GAMMA_GEN) * MzvValue.from_atom((2,))
        - MzvValue.from_atom((2, 1))
        - MzvValue.from_atom((3,))
    )
    assert got == expected


def test_zeta_word_z1_z1():
    got = zeta_word((1, 1))
    expected = MzvValue.from_ring(
        (GAMMA_GEN ** 2).scaled(Fraction(1, 2))
    ) - MzvValue.from_atom((2,)).scaled(Fraction(1, 2))
    assert got == expected


def test_stuffle_reduce_single_and_equal_pair():
    assert stuffle_reduce(MzvValue.from_atom((4,))) == zeta_even(4)
    reduced = stuffle_reduce(MzvValue.from_atom((2, 2)))
    half = Fraction(1, 2)
    assert reduced == (zeta_even(2) * zeta_even(2) - zeta_even(4)).scaled(half)
    assert reduced == (PI2 ** 2).scaled(Fraction(1, 120))


def test_stuffle_reduce_symmetric_pair():
    v = MzvValue.from_atom((3, 2)) + MzvValue.from_atom((2, 3))
    assert stuffle_reduce(v) == zeta_even(2) * zeta_gen(3) - zeta_gen(5)


def test_stuffle_reduce_refuses_unforced_cases():
    with pytest.raises(ValueError):
        stuffle_reduce(MzvValue.from_atom((3, 2)))
    with pytest.raises(ValueError):
        stuffle_reduce(MzvValue.from_atom((2, 1, 1)))
    with pytest.raises(ValueError):
        stuffle_reduce(MzvValue.from_atom((2,)) * MzvValue.from_atom((3,)))


def test_path_independence_through_words():
    for lam in [(2,), (2, 2), (3, 2), (4, 2), (3, 3)]:
        f = SymPoly.basis_element("m", lam)
        assert zeta_hom(f) == stuffle_reduce(zeta_word_poly(sym_to_words(f)))


def test_path_independence_e2():
    # e_2 embeds as z_1 z_1, whose reduction needs the gamma bookkeeping
    e2 = SymPoly.basis_element("e", (2,))
    assert zeta_hom(e2) == stuffle_reduce(zeta_word_poly(sym_to_words(e2)))


def test_zeta_word_poly_linear():
    q = sym_to_words(SymPoly.basis_element("m", (2, 2)))
    assert zeta_word_poly(q) == MzvValue.from_atom((2, 2))


def test_zetapoly_json_roundtrip():
    p = zeta_hom(SymPoly.basis_element("e", (3,)))
    data = zetapoly_to_json(p)
    assert len(data) == len(p.terms)
    assert all(set(entry) == {"monomial", "coeff"} for entry in data)


def test_zetapoly_sorted_terms_order():
    p = ZetaPoly.one() + GAMMA_GEN + PI2 + zeta_gen(3) + GAMMA_GEN ** 3
    monos = [mono for mono, _ in p.sorted_terms()]
    assert monos == [
        (),
        ((GAMMA, 3),),
        ((GAMMA, 1),),
        (("pi2", 1),),
        (("zeta3", 1),),
    ]
