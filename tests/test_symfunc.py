"""Basis conversions checked against raw expansions in honest variables.

The e->m and p->m transition rows are counted combinatorially, so these
tests lean on an independent route, the brute-force expansion oracle:
expand both sides in t_1..t_n and compare coefficient dictionaries.
The storage contract that SymPoly shares with the other sparse linear
combinations (QsymPoly, ZetaPoly, MzvValue, MultiPoly) is checked here too.
"""

import random
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import prod
from operator import add, mul, sub

import pytest
from hypothesis import given, settings, strategies as st

from gammagenus.partitions import partitions_of
from gammagenus.symfunc import (
    MultiPoly,
    SymPoly,
    _coefficient,
    _m_in_p,
    _orbit_exponent_vectors,
    e_to_m_matrix,
    expand_in_vars,
    to_basis,
)
from gammagenus.words import MzvValue, QsymPoly
from gammagenus.zetaring import ZetaPoly


def test_multipoly_arithmetic():
    x = MultiPoly(2, {(1, 0): 1})
    y = MultiPoly(2, {(0, 1): 1})
    assert (x + y) * (x + y) == MultiPoly(
        2, {(2, 0): 1, (1, 1): 2, (0, 2): 1}
    )
    assert x - x == MultiPoly.zero(2)
    assert (x * y).terms == {(1, 1): 1}
    assert MultiPoly.one(3).terms == {(0, 0, 0): 1}


def test_multipoly_high_degree_product():
    # square of (t1 + t2)^5: binomial coefficients of (t1 + t2)^10
    base = MultiPoly(2, {(1, 0): 1, (0, 1): 1})
    p = MultiPoly.one(2)
    for _ in range(5):
        p = p * base
    sq = p * p
    assert sq.terms[(5, 5)] == 252
    assert sq.terms[(10, 0)] == 1
    assert sum(sq.terms.values()) == 2**10


def test_e_expansion_in_three_vars():
    e2 = SymPoly.basis_element("e", (2,))
    mp = expand_in_vars(e2, 3)
    assert mp.terms == {
        (1, 1, 0): Fraction(1),
        (1, 0, 1): Fraction(1),
        (0, 1, 1): Fraction(1),
    }


def test_p_expansion_in_two_vars():
    p3 = SymPoly.basis_element("p", (3,))
    mp = expand_in_vars(p3, 2)
    assert mp.terms == {(3, 0): Fraction(1), (0, 3): Fraction(1)}


def test_expansion_rejects_degenerate_variable_count():
    with pytest.raises(ValueError):
        expand_in_vars(SymPoly.basis_element("e", (3,)), 2)
    with pytest.raises(ValueError):
        expand_in_vars(SymPoly.basis_element("m", (1, 1, 1)), 2)


@pytest.mark.parametrize("n", range(0, 9))
def test_orbit_vectors_match_brute_force_permutations(n):
    # the --cy tables list arrangements in this order, so pin it, not just the set
    for lam in partitions_of(n):
        for nvars in (len(lam), len(lam) + 2):
            padded = lam + (0,) * (nvars - len(lam))
            want = sorted(set(permutations(padded)), reverse=True)
            assert _orbit_exponent_vectors(lam, nvars) == want, (lam, nvars)


def test_e_to_m_matrix_weight_2():
    assert e_to_m_matrix(2) == [
        [Fraction(0), Fraction(1)],
        [Fraction(1), Fraction(2)],
    ]


def test_e_to_m_matrix_weight_3():
    assert e_to_m_matrix(3) == [
        [Fraction(0), Fraction(0), Fraction(1)],
        [Fraction(0), Fraction(1), Fraction(3)],
        [Fraction(1), Fraction(3), Fraction(6)],
    ]


@pytest.mark.parametrize("n", range(1, 9))
def test_e_to_m_matrix_symmetric(n):
    mat = e_to_m_matrix(n)
    parts = partitions_of(n)
    size = len(mat)
    assert size == len(parts)
    for i in range(size):
        for j in range(size):
            assert mat[i][j] == mat[j][i]
    # the counted e and p rows match the brute-force expansion oracle
    oracle = {}
    for basis in ("e", "p"):
        for lam in parts:
            f = SymPoly.basis_element(basis, lam)
            terms = expand_in_vars(f, n).terms
            # the coefficient of m_mu is that of t^mu, mu padded to n entries
            oracle[basis, lam] = {
                mu: terms.get(mu + (0,) * (n - len(mu)), 0) for mu in parts
            }
            row = [_coefficient(basis, lam, mu) for mu in parts]
            assert row == [oracle[basis, lam][mu] for mu in parts]
    # and so does m_lam rewritten in e and p by triangular substitution:
    # expanding sum_nu c_nu target_nu in n variables must give m_lam back,
    # summed here in the m basis from the expansions above
    for lam in parts:
        for target in ("e", "p"):
            got: dict = {}
            m = SymPoly.basis_element("m", lam)
            for nu, c in to_basis(m, target).terms.items():
                for mu, k in oracle[target, nu].items():
                    got[mu] = got.get(mu, 0) + c * k
            assert {mu: c for mu, c in got.items() if c} == {lam: 1}


def _e_values(x):
    """e_0(x), ..., e_n(x): the coefficients of prod_i (1 + x_i t)."""
    e = [1] + [0] * len(x)
    for xi in x:
        for k in range(len(x), 0, -1):
            e[k] += xi * e[k - 1]
    return e


@pytest.mark.parametrize("n", [8, 9])
def test_m_in_e_rows_at_seeded_points(n):
    # m_lam = sum_nu c_nu e_nu checked by value at seeded points of n
    # variables, where symmetric functions of weight n are faithful: m_lam(x)
    # sums prod x_i^alpha_i over the distinct arrangements alpha of lam
    # padded with zeros, e_k(x) comes from prod (1 + x_i t).  A wrong row
    # leaves a nonzero difference of degree n, which vanishes at a point
    # with coordinates drawn from 2*10^6 + 1 integers with probability at
    # most n / (2*10^6 + 1) (Schwartz 1980; Zippel 1979).
    rng = random.Random(n)
    points = [[rng.randint(-10**6, 10**6) for _ in range(n)] for _ in range(2)]
    powers = [[[xi**k for k in range(n + 1)] for xi in x] for x in points]
    e_at = [_e_values(x) for x in points]
    for lam in partitions_of(n):
        row = to_basis(SymPoly.basis_element("m", lam), "e").terms
        orbit = _orbit_exponent_vectors(lam, n)
        for pw, e in zip(powers, e_at):
            m_value = sum(
                prod(pw[i][a] for i, a in enumerate(alpha) if a) for alpha in orbit
            )
            e_value = sum(c * prod(e[k] for k in nu) for nu, c in row.items())
            assert m_value == e_value, lam


@lru_cache(maxsize=None)
def _m_in_p_by_substitution(lam):
    """m_lam in the p basis by triangular substitution (the oracle).

    The counted row of p_lam is prod_i mult_i(lam)! m_lam plus m_mu terms
    with mu strictly above lam in dominance order (Macdonald I (6.9)), so
    m_lam = (p_lam - sum_mu c_mu m_mu) / c_lam along that order.
    """
    out = {lam: Fraction(1)}
    for mu in partitions_of(sum(lam)):
        c = _coefficient("p", lam, mu) if mu != lam else 0
        if c:
            for nu, q in _m_in_p_by_substitution(mu).items():
                out[nu] = out.get(nu, 0) - c * q
    scale = _coefficient("p", lam, lam)
    return {nu: q / scale for nu, q in out.items() if q}


@pytest.mark.parametrize("n", range(0, 13))
def test_m_in_p_mobius_row_matches_substitution(n):
    # the integer Mobius row r * m_lam = sum_mu k_mu p_mu, read through
    # to_basis, equals the substitution oracle for every lam of n
    for lam in partitions_of(n):
        r, row = _m_in_p(lam)
        assert r == _coefficient("p", lam, lam)
        assert all(type(k) is int for k in row.values())
        m = SymPoly.basis_element("m", lam)
        assert to_basis(m, "p").terms == _m_in_p_by_substitution(lam), lam


def test_e2_in_power_sums():
    e2 = SymPoly.basis_element("e", (2,))
    assert to_basis(e2, "p") == SymPoly(
        "p", {(1, 1): Fraction(1, 2), (2,): Fraction(-1, 2)}
    )


def test_m21_in_power_sums():
    m21 = SymPoly.basis_element("m", (2, 1))
    assert to_basis(m21, "p") == SymPoly(
        "p", {(2, 1): Fraction(1), (3,): Fraction(-1)}
    )


def test_to_basis_preserves_expansion():
    f = SymPoly("e", {(2, 1): Fraction(3), (3,): Fraction(-1, 2), (1,): Fraction(2)})
    for target in ("m", "p"):
        g = to_basis(f, target)
        assert expand_in_vars(g, 3) == expand_in_vars(f, 3)


def test_to_basis_handles_constants():
    f = SymPoly("e", {(): Fraction(7, 2), (1,): Fraction(1)})
    g = to_basis(f, "p")
    assert g.terms[()] == Fraction(7, 2)


def _random_sympoly(draw):
    basis = draw(st.sampled_from(("m", "e", "p")))
    weights = draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
    terms = {}
    for w in weights:
        lam = draw(st.sampled_from(partitions_of(w)))
        terms[lam] = Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 4)))
    return SymPoly(basis, terms)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_conversion_roundtrip(data):
    f = _random_sympoly(data.draw)
    for target in ("m", "e", "p"):
        back = to_basis(to_basis(f, target), f.basis)
        assert back == f


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_conversion_agrees_with_raw_expansion(data):
    f = _random_sympoly(data.draw)
    n = max((sum(lam) for lam in f.terms), default=1)
    n = max(n, 1)
    target = data.draw(st.sampled_from(("m", "e", "p")))
    g = to_basis(f, target)
    assert expand_in_vars(g, n) == expand_in_vars(f, n)


def test_product_routes_through_expansion():
    a = SymPoly.basis_element("m", (1,))
    assert a * a == SymPoly("m", {(2,): Fraction(1), (1, 1): Fraction(2)})
    e1 = SymPoly.basis_element("e", (1,))
    e2 = SymPoly.basis_element("e", (2,))
    prod = e1 * e2
    assert to_basis(prod, "e") == SymPoly.basis_element("e", (2, 1))


def test_product_refuses_another_class_before_converting():
    m2 = SymPoly.basis_element("m", (2,))
    for other, name in ((ZetaPoly.one(), "ZetaPoly"), (2, "int")):
        with pytest.raises(TypeError, match=f"cannot combine SymPoly with {name}"):
            m2 * other
    # the check is on the class only: mixed-basis products still work
    assert m2 * SymPoly.basis_element("e", (1,)) == SymPoly("m", {(3,): 1, (2, 1): 1})


# class -> (constructor from a terms dict, a key, another spelling of that
# key, a second key, an operand whose extra state differs, the operations
# that must reject it)
CONTRACT = {
    "ZetaPoly": (
        ZetaPoly,
        (("gamma", 1), ("pi2", 1)),
        (("pi2", 1), ("gamma", 1)),
        (("zeta3", 2),),
        None,
        (),
    ),
    "MzvValue": (MzvValue, ((2,), (3,)), ((3,), (2,)), ((2, 1),), None, ()),
    "QsymPoly": (QsymPoly, (2, 1), range(2, 0, -1), (3,), None, ()),
    "SymPoly": (
        lambda terms: SymPoly("m", terms),
        (2, 1),
        range(2, 0, -1),
        (3,),
        SymPoly.basis_element("e", (1,)),
        (add, sub),
    ),
    "MultiPoly": (
        lambda terms: MultiPoly(2, terms),
        (1, 0),
        range(1, -1, -1),
        (0, 2),
        MultiPoly.one(3),
        (add, sub, mul),
    ),
}


@pytest.mark.parametrize("name", sorted(CONTRACT))
def test_linear_combination_contract(name):
    make, key, alias, other, mismatched, rejected = CONTRACT[name]
    merged = make({key: 1, alias: 1})
    assert len(merged.terms) == 1
    assert merged == make({key: 2})
    a = make({key: Fraction(1, 2), other: -3})
    assert (a - a).terms == {}
    assert not a.scaled(0)
    assert a == make({other: -3, key: Fraction(1, 2)})
    assert a != make({key: Fraction(1, 2)})
    half = make({key: 0.5})  # a float is stored as the Fraction of its value
    assert half == make({key: Fraction(1, 2)})
    for q in (half, half.scaled(0.1), half + half):
        assert not any(isinstance(c, float) for c in q.terms.values())
    for op in rejected:
        with pytest.raises(ValueError):
            op(a, mismatched)
    # an operand of another class never combines, whatever its keys
    foreign = (ZetaPoly.one(), MzvValue.one(), QsymPoly.from_word((2,)), mismatched, 1)
    for other in foreign:
        if type(other) is not type(a):
            for op in (add, sub, mul, lambda x, y: x._combine(y, max)):
                with pytest.raises(TypeError):
                    op(a, other)
