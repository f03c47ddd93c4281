import random
from fractions import Fraction
from functools import cache
from math import comb, prod

import pytest

from gammagenus.genus import (
    DEGREE_BUDGET,
    CyGenusPolynomial,
    GenusPolynomial,
    cy_genus_to_json,
    genus_to_json,
    mzv_expansion,
    q_genus,
    q_genus_cy,
    q_genus_oracle,
)
from gammagenus.numeric import eval_mzv_terms, eval_zeta_poly
from gammagenus.partitions import partitions_of
from gammagenus.symfunc import SymPoly
from gammagenus.words import sym_to_words, word_key
from gammagenus.zetaring import GAMMA, MzvTerm, ZetaPoly, zeta_even, zeta_gen

GAMMA_GEN = ZetaPoly.generator(GAMMA)
PI2 = ZetaPoly.generator("pi2")


def test_q1():
    q = q_genus(1)
    assert q.degree == 1
    assert q.coeffs == {(1,): GAMMA_GEN}


def test_q2_coefficients():
    q = q_genus(2)
    assert q.coeffs[(2,)] == zeta_even(2)
    c11 = (GAMMA_GEN ** 2 - zeta_even(2)).scaled(Fraction(1, 2))
    assert q.coeffs[(1, 1)] == c11


def test_q3_c1_cube():
    q = q_genus(3)
    expected = (
        zeta_gen(3).scaled(Fraction(1, 3))
        - (GAMMA_GEN * zeta_even(2)).scaled(Fraction(1, 2))
        + (GAMMA_GEN ** 3).scaled(Fraction(1, 6))
    )
    assert q.coeffs[(1, 1, 1)] == expected


@pytest.mark.parametrize("i", range(2, 9))
def test_leading_coefficient_is_single_zeta(i):
    assert q_genus(i).coeffs[(i,)] == zeta_gen(i)


@pytest.mark.parametrize("i", range(1, 9))
def test_homogeneity_and_coefficient_count(i):
    q = q_genus(i)
    assert set(q.coeffs) == set(partitions_of(i))
    for lam, c in q.coeffs.items():
        assert c.is_homogeneous(i), lam


@pytest.mark.parametrize("i", range(1, 5))
def test_oracle_agrees(i):
    assert q_genus(i) == q_genus_oracle(i)


def _elementary(t):
    """e_0(t), ..., e_n(t) for the numbers t, read off prod_j (1 + t_j x)."""
    e = [Fraction(1)]
    for x in t:
        e = [a + x * b for a, b in zip(e + [0], [0] + e)]
    return e


def _generating_coefficient(p, i):
    """[s^i] prod_j 1/Gamma(1 + t_j s) in the ring, without zeta_hom.

    The roots t_j enter only through their power sums p(k) = p_k(t), so a
    root of negative multiplicity (a virtual root) is allowed.  The product
    is exp(sum_k l_k p_k(t) s^k) with l_1 = gamma and
    l_k = (-1)^(k-1) zeta(k)/k, so its coefficients obey
    n g_n = sum_k k l_k p_k(t) g_(n-k).
    """
    b = [None] + [
        (GAMMA_GEN if k == 1 else zeta_gen(k).scaled((-1) ** (k - 1)))
        .scaled(p(k))
        for k in range(1, i + 1)
    ]
    g = [ZetaPoly.one()]
    for n in range(1, i + 1):
        acc = ZetaPoly.zero()
        for k in range(1, n + 1):
            acc = acc + b[k] * g[n - k]
        g.append(acc.scaled(Fraction(1, n)))
    return g[i]


@pytest.mark.parametrize("i", range(1, DEGREE_BUDGET + 1))
def test_q_genus_matches_generating_product_exactly(i):
    # sum_lam Q_i[lam] e_lam(t) is the degree-i part of prod_j 1/Gamma(1 + t_j)
    # at i rational Chern roots t, so every e_lam can be nonzero
    rng = random.Random(i)
    q = q_genus(i)
    for _ in range(3):
        t = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(i)]
        e = _elementary(t)
        lhs = ZetaPoly.zero()
        for lam, c in q.coeffs.items():
            lhs = lhs + c.scaled(prod(e[part] for part in lam))
        assert lhs == _generating_coefficient(
            lambda k: sum(x**k for x in t), i
        ), t


@cache
def _zeta_of_m(lam):
    """zeta(m_lam) by the product rule, in ring arithmetic only.

    With lam = mu + {k}, p_k m_mu = r m_lam + sum_v c_v m_(mu, v -> v + k):
    r is the multiplicity of k in lam, v runs over the distinct parts of mu
    and c_v is the multiplicity of v + k in the raised partition.  zeta sends
    p_1 to gamma and p_k to zeta(k); a raised partition has fewer parts than
    lam, so the recursion ends at m_() = 1.
    """
    if not lam:
        return ZetaPoly.one()
    k, mu = lam[-1], lam[:-1]
    acc = (GAMMA_GEN if k == 1 else zeta_gen(k)) * _zeta_of_m(mu)
    for v in set(mu):
        rest = list(mu)
        rest.remove(v)
        raised = tuple(sorted(rest + [v + k], reverse=True))
        acc = acc - _zeta_of_m(raised).scaled(raised.count(v + k))
    return acc.scaled(Fraction(1, lam.count(k)))


@pytest.mark.parametrize("i", range(1, DEGREE_BUDGET + 1))
def test_q_genus_matches_the_product_rule_recurrence(i):
    # a second exact oracle: the coefficient of c_lam is zeta(m_lam), here
    # built from p_k m_mu without the p-basis rows zeta_hom reads
    for lam, c in q_genus(i).coeffs.items():
        assert c == _zeta_of_m(lam), lam


# Calabi-Yau complete intersections X in P^n of degrees d_a (sum d_a = n + 1)
# and the integral of Q_dim over X.  Their Gamma-factor is
# prod_a Gamma(1 + d_a H) / Gamma(1 + H)^(n+1): n + 1 Chern roots H and a
# virtual root d_a H of multiplicity -1 for each a.
CY_COMPLETE_INTERSECTIONS = [
    (4, (5,), zeta_gen(3).scaled(-200)),  # the quintic threefold
    (5, (3, 3), zeta_gen(3).scaled(-144)),
    (5, (2, 4), zeta_gen(3).scaled(-176)),
    (6, (2, 2, 3), zeta_gen(3).scaled(-144)),
    (7, (2, 2, 2, 2), zeta_gen(3).scaled(-128)),
    (3, (4,), PI2.scaled(4)),  # the quartic K3 surface: 24 zeta(2)
    (5, (6,), (PI2**2).scaled(Fraction(161, 4))),  # the sextic fourfold
    (2, (3,), ZetaPoly.zero()),  # the plane cubic curve
]


def test_quintic_threefold():
    # c(X) = (1 + H)^(n+1) / prod_a (1 + d_a H) and the integral of H^dim is
    # prod_a d_a.  For the quintic c_1 = 0, c_2 = 10 H^2 and c_3 = -40 H^3,
    # so the integral of Q_3 is 5 * (-40) zeta(3) = -200 zeta(3).  Each
    # integral must equal the generating product at the virtual roots, whose
    # power sums are p_k = (n + 1) - sum_a d_a^k.
    for n, degrees, expected in CY_COMPLETE_INTERSECTIONS:
        dim = n - len(degrees)
        c = [comb(n + 1, j) for j in range(dim + 1)]
        for d in degrees:
            for j in range(1, dim + 1):
                c[j] -= d * c[j - 1]
        assert c[1] == 0, degrees
        deg = prod(degrees)
        integral = ZetaPoly.zero()
        for lam, coeff in q_genus(dim).coeffs.items():
            integral = integral + coeff.scaled(deg * prod(c[j] for j in lam))
        virtual = _generating_coefficient(
            lambda k: n + 1 - sum(d**k for d in degrees), dim
        )
        assert integral == virtual.scaled(deg) == expected, degrees


def test_budgets():
    with pytest.raises(ValueError):
        q_genus(DEGREE_BUDGET + 1)
    with pytest.raises(ValueError):
        q_genus(0)
    with pytest.raises(ValueError):
        q_genus_oracle(DEGREE_BUDGET + 1)
    for bad in (2.7, 2.0, True, "2"):
        with pytest.raises(TypeError):
            q_genus(bad)
    with pytest.raises(TypeError):
        q_genus_oracle(False)


def test_validate_catches_bad_leading_coefficient():
    q = q_genus(2)
    broken = GenusPolynomial(
        2, {(2,): GAMMA_GEN ** 2, (1, 1): q.coeffs[(1, 1)]}
    )
    with pytest.raises(ValueError):
        broken.validate()


def test_validate_catches_missing_partition():
    with pytest.raises(ValueError):
        GenusPolynomial(2, {(2,): zeta_even(2)}).validate()


def test_mzv_expansion_examples():
    assert mzv_expansion((2,)) == [MzvTerm(Fraction(1), (2,))]
    assert mzv_expansion((2, 2)) == [MzvTerm(Fraction(1), (2, 2))]
    assert mzv_expansion((6, 2)) == [
        MzvTerm(Fraction(1), (6, 2)),
        MzvTerm(Fraction(1), (2, 6)),
    ]
    assert mzv_expansion((2, 2, 2)) == [MzvTerm(Fraction(1), (2, 2, 2))]


def test_mzv_expansion_is_the_monomial_word_expansion():
    # the words of sym_to_words(m_lam) in word order, each with coefficient 1,
    # for every partition of weight <= 16 with all parts >= 2
    checked = 0
    for n in range(2, 17):
        for lam in partitions_of(n):
            if min(lam) < 2:
                continue
            words = sym_to_words(SymPoly.basis_element("m", lam)).terms
            assert set(words.values()) == {1}, lam
            expected = [MzvTerm(1, w) for w in sorted(words, key=word_key)]
            assert mzv_expansion(lam) == expected, lam
            checked += 1
    assert checked == 230


def test_mzv_expansion_rejects_unit_parts():
    with pytest.raises(ValueError):
        mzv_expansion((2, 1))
    with pytest.raises(ValueError):
        mzv_expansion(())


def test_cy_genus_small():
    cy2 = q_genus_cy(2)
    assert cy2.coeffs == {(2,): [MzvTerm(Fraction(1), (2,))]}
    cy4 = q_genus_cy(4)
    assert set(cy4.coeffs) == {(4,), (2, 2)}
    assert cy4.coeffs[(2, 2)] == [MzvTerm(Fraction(1), (2, 2))]
    cy5 = q_genus_cy(5)
    assert set(cy5.coeffs) == {(5,), (3, 2)}
    assert cy5.coeffs[(3, 2)] == [
        MzvTerm(Fraction(1), (3, 2)),
        MzvTerm(Fraction(1), (2, 3)),
    ]


def test_cy_genus_requires_degree_two():
    with pytest.raises(ValueError):
        q_genus_cy(1)


def test_cy_rejects_partitions_with_unit_parts():
    with pytest.raises(ValueError):
        CyGenusPolynomial(3, {(2, 1): []})


def test_cy_matches_full_genus_numerically():
    # the c_1 = 0 coefficients must evaluate to the same numbers as the
    # ring coefficients they restrict
    for i in (2, 3, 4):
        full = q_genus(i)
        cy = q_genus_cy(i)
        for lam, terms in cy.coeffs.items():
            a = eval_mzv_terms(terms, tol=1e-7)
            b = eval_zeta_poly(full.coeffs[lam])
            assert a.agrees_with(b), lam


def test_genus_json_roundtrip():
    q = q_genus(3)
    data = genus_to_json(q)
    assert data["degree"] == 3
    assert [t["c_partition"] for t in data["terms"]] == [
        [3],
        [2, 1],
        [1, 1, 1],
    ]


def test_cy_genus_json_roundtrip():
    cy = q_genus_cy(4)
    data = cy_genus_to_json(cy)
    assert data["degree"] == 4
    assert data["terms"][0] == {
        "c_partition": [4],
        "mzv_terms": [{"args": [4], "coeff": "1/1"}],
    }
