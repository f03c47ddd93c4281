from fractions import Fraction

from gammagenus.genus import (
    CyGenusPolynomial,
    GenusPolynomial,
    mzv_expansion,
    q_genus,
    q_genus_cy,
)
from gammagenus.numeric import BoundedValue
from gammagenus.render import (
    ASCII,
    format_bounded,
    format_c_monomial,
    format_cy_genus_line,
    format_genus_line,
    format_mzv_terms,
    format_qsym,
    format_zeta_poly,
)
from gammagenus.symfunc import SymPoly
from gammagenus.words import QsymPoly, qsym_to_json, stuffle_word_pair
from gammagenus.zetaring import MzvTerm, ZetaPoly, mzv_label, zeta_hom


def test_format_zeta_poly():
    p = zeta_hom(SymPoly.basis_element("e", (2,)))
    assert format_zeta_poly(p) == "1/2 γ^2 - 1/12 π^2"
    assert format_zeta_poly(p).translate(ASCII) == "1/2 gamma^2 - 1/12 pi^2"
    assert format_zeta_poly(ZetaPoly.zero()) == "0"
    assert format_zeta_poly(ZetaPoly.constant(Fraction(3, 4))) == "3/4"
    assert format_zeta_poly(ZetaPoly.constant(3)) == "3"
    assert format_zeta_poly(ZetaPoly.constant(Fraction(-5, 3))) == "-5/3"
    assert format_zeta_poly(ZetaPoly.constant(Fraction(1, 2))) == "1/2"
    gamma = ZetaPoly.generator("gamma")
    assert format_zeta_poly(-gamma) == "-γ"
    assert format_zeta_poly(gamma) == "γ"


def test_format_word_and_qsym():
    assert format_qsym(QsymPoly.from_word(())) == "1"
    assert format_qsym(QsymPoly.from_word((2, 6))) == "z_2z_6"
    q = stuffle_word_pair((2,), (6,))
    assert format_qsym(q) == "z_2z_6 + z_6z_2 + z_8"
    assert format_qsym(stuffle_word_pair((1,), ())) == "z_1"
    doubled = q + q
    assert format_qsym(doubled) == "2 z_2z_6 + 2 z_6z_2 + 2 z_8"


def test_int_coefficients_spell_like_fractions():
    # stored as ints, printed as the equal Fraction always was
    one = QsymPoly.from_word((2,))
    assert type(one.terms[(2,)]) is int
    assert qsym_to_json(one) == [{"word": [2], "coeff": "1/1"}]
    three = QsymPoly({(2,): 3, (): -3})
    assert format_qsym(three) == "3 z_2 - 3"
    assert format_qsym(three) == format_qsym(QsymPoly({(2,): Fraction(6, 2), (): -3}))
    assert format_zeta_poly(ZetaPoly.constant(Fraction(6, 2))) == "3"


def test_format_c_monomial():
    assert format_c_monomial(()) == "1"
    assert format_c_monomial((3,)) == "c_3"
    assert format_c_monomial((2, 1, 1)) == "c_2c_1^2"


def test_format_mzv():
    assert mzv_label((6, 2), "ζ") == "ζ(6,2)"
    assert mzv_label((6, 2)) == "zeta(6,2)"
    terms = mzv_expansion((6, 2))
    assert format_mzv_terms(terms) == "ζ(6,2) + ζ(2,6)"


def test_format_genus_lines():
    assert format_genus_line(q_genus(1)) == "Q_1 = γ c_1"
    assert format_genus_line(q_genus(1)).translate(ASCII) == "Q_1 = gamma c_1"
    line2 = format_genus_line(q_genus(2))
    assert line2 == "Q_2 = 1/6 π^2 c_2 + (1/2 γ^2 - 1/12 π^2) c_1^2"


def test_format_cy_genus_lines():
    assert format_cy_genus_line(q_genus_cy(2)) == "Q_2[c_1=0] = ζ(2) c_2"
    line4 = format_cy_genus_line(q_genus_cy(4))
    assert line4 == "Q_4[c_1=0] = ζ(4) c_4 + ζ(2,2) c_2^2"
    line6 = format_cy_genus_line(q_genus_cy(6))
    assert "(ζ(4,2) + ζ(2,4)) c_4c_2" in line6


def test_genus_lines_share_one_parenthesis_rule():
    # a lone negative coefficient is parenthesised in both tables
    negative = CyGenusPolynomial(2, {(2,): [MzvTerm(-1, (2,))]})
    assert format_cy_genus_line(negative) == "Q_2[c_1=0] = (-ζ(2)) c_2"
    gamma = ZetaPoly.generator("gamma")
    assert format_genus_line(GenusPolynomial(1, {(1,): -gamma})) == "Q_1 = (-γ) c_1"


def test_format_bounded():
    bv = BoundedValue(1.6449340668482264, 3.2e-09)
    # the float's repr, and its bound rounded up past 3.2e-09 plus the
    # distance from those digits to the float
    assert format_bounded(bv) == "1.6449340668482264 +/- 3.21e-09"
    # the printed interval holds [value - bound, value + bound], also when
    # the bound is far below the value's 12th digit
    for value, bound in ((0.1, 0.0), (1.6449340668482264, 3e-17), (-2.0 / 3, 1e-300)):
        shown, printed = format_bounded(BoundedValue(value, bound)).split(" +/- ")
        gap = abs(Fraction(shown) - Fraction(value)) + Fraction(bound)
        assert gap <= Fraction(printed)
