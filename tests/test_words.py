"""Stuffle algebra, Lyndon machinery, and the symmetric-function embedding."""

import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import assume, given, settings, strategies as st

from gammagenus.symfunc import SymPoly
from gammagenus.words import (
    STUFFLE_BUDGET,
    MzvValue,
    QsymPoly,
    _check_stuffle_size,
    _stuffle_words,
    is_lyndon,
    lyndon_decompose,
    lyndon_factorize,
    lyndon_recompose,
    lyndon_words,
    qsym_to_json,
    stuffle,
    stuffle_word_pair,
    sym_to_words,
    word_key,
    words_of_weight,
    zeta_word,
)
from gammagenus.zetaring import GAMMA, ZetaPoly

words = st.lists(st.integers(1, 4), min_size=0, max_size=4).map(tuple)
small_words = st.lists(st.integers(1, 3), min_size=0, max_size=3).map(tuple)
long_words = st.lists(st.integers(1, 4), min_size=0, max_size=6).map(tuple)


def test_words_of_weight():
    assert words_of_weight(0) == [()]
    assert words_of_weight(1) == [(1,)]
    assert words_of_weight(2) == [(1, 1), (2,)]
    assert words_of_weight(3) == [(1, 1, 1), (1, 2), (2, 1), (3,)]
    assert len(words_of_weight(7)) == 64


@pytest.mark.parametrize("n", range(1, 11))
def test_words_of_weight_matches_cut_point_compositions(n):
    # a composition of n is a subset of the n - 1 cut points between n ones
    want = []
    for k in range(n):
        for cuts in combinations(range(1, n), k):
            ends = (0,) + cuts + (n,)
            want.append(tuple(b - a for a, b in zip(ends, ends[1:])))
    assert len(want) == 2 ** (n - 1)
    assert words_of_weight(n) == sorted(want, key=word_key, reverse=True)


def test_empty_word_is_the_unit():
    one = QsymPoly.from_word(())
    w = QsymPoly.from_word((2, 1))
    assert stuffle(one, w) == w
    assert stuffle(w, one) == w


def test_stuffle_z2_z6():
    got = stuffle_word_pair((2,), (6,))
    assert got == QsymPoly(
        {(2, 6): Fraction(1), (6, 2): Fraction(1), (8,): Fraction(1)}
    )


def test_stuffle_z1_z2():
    got = stuffle_word_pair((1,), (2,))
    assert got == QsymPoly(
        {(1, 2): Fraction(1), (2, 1): Fraction(1), (3,): Fraction(1)}
    )


def test_stuffle_z1_z1():
    got = stuffle_word_pair((1,), (1,))
    assert got == QsymPoly({(1, 1): Fraction(2), (2,): Fraction(1)})


def test_stuffle_depth_two_pair():
    # (a)(b,c): b can land before, between, or fuse with either letter
    got = stuffle_word_pair((2,), (3, 1))
    assert got == QsymPoly(
        {
            (2, 3, 1): Fraction(1),
            (3, 2, 1): Fraction(1),
            (3, 1, 2): Fraction(1),
            (5, 1): Fraction(1),
            (3, 3): Fraction(1),
        }
    )


def test_display_order_of_product():
    got = stuffle_word_pair((2,), (6,))
    assert [w for w, _ in got.sorted_terms()] == [(2, 6), (6, 2), (8,)]


@settings(max_examples=80, deadline=None)
@given(words, words)
def test_stuffle_commutative(u, v):
    assert stuffle_word_pair(u, v) == stuffle_word_pair(v, u)


@settings(max_examples=40, deadline=None)
@given(small_words, small_words, small_words)
def test_stuffle_associative(u, v, w):
    a = stuffle(stuffle_word_pair(u, v), QsymPoly.from_word(w))
    b = stuffle(QsymPoly.from_word(u), stuffle_word_pair(v, w))
    assert a == b


@settings(max_examples=80, deadline=None)
@given(words, words)
def test_stuffle_weight_additive(u, v):
    prod = stuffle_word_pair(u, v)
    assert prod.weights() == [sum(u) + sum(v)]


@settings(max_examples=60, deadline=None)
@given(words, words)
def test_stuffle_coefficients_positive_integers(u, v):
    for c in stuffle_word_pair(u, v).terms.values():
        assert c.denominator == 1
        assert c > 0


def _stuffle_by_steps(u, v):
    """Counter over every step sequence merging u and v: a step takes u's
    head, takes v's head, or fuses both heads into one letter."""
    got = Counter()
    for fused in range(min(len(u), len(v)) + 1):
        n = len(u) + len(v) - fused
        for from_u in combinations(range(n), len(u)):
            v_only = [t for t in range(n) if t not in from_u]
            for both in combinations(from_u, fused):
                letters = [0] * n
                for t, a in zip(from_u, u):
                    letters[t] += a
                for t, b in zip(sorted(v_only + list(both)), v):
                    letters[t] += b
                got[tuple(letters)] += 1
    return got


def test_stuffle_counts_every_step_sequence():
    # the commutativity, associativity and weight tests all pass a plain
    # shuffle; this one fails without the fused letter
    ws = [w for n in range(1, 6) for w in words_of_weight(n)]
    assert len(ws) == 31
    for u in ws:
        for v in ws:
            assert stuffle_word_pair(u, v).terms == dict(_stuffle_by_steps(u, v))


@settings(max_examples=60, deadline=None)
@given(long_words, long_words)
def test_stuffle_of_unequal_lengths_counts_every_step_sequence(u, v):
    # the table's rows run over the longer word whichever comes first, so
    # stuffle_word_pair(v, u) is no independent check of (u, v); the step
    # sequences merge u into v in the order given
    assume(len(u) != len(v))
    assert stuffle_word_pair(u, v).terms == dict(_stuffle_by_steps(u, v))
    assert stuffle_word_pair(v, u).terms == dict(_stuffle_by_steps(v, u))


def test_stuffle_memo_keeps_the_asked_products_over_shared_words():
    _stuffle_words.cache_clear()
    a = stuffle_word_pair((2, 1, 1), (3, 2))
    b = stuffle_word_pair((2, 1), (1, 3, 2))
    assert _stuffle_words.cache_info().currsize == 2
    (in_a,) = [w for w in a.terms if w == (2, 1, 3, 3)]
    (in_b,) = [w for w in b.terms if w == (2, 1, 3, 3)]
    assert in_a is in_b


def _table_letters(m, n):
    """Letters of every suffix-pair product, sum D(a, b) (a + b) by comb."""
    return sum(
        comb(a, k) * comb(b, k) * 2**k * (a + b)
        for a in range(m + 1)
        for b in range(n + 1)
        for k in range(min(a, b) + 1)
    )


# for each second length n, the longest first word the budget admits
@pytest.mark.parametrize("m, n", [(6324, 0), (309, 1), (77, 2), (10, 7), (8, 8)])
def test_stuffle_budget_bounds_the_letters_its_table_builds(m, n):
    assert _table_letters(m, n) <= STUFFLE_BUDGET < _table_letters(m + 1, n)
    _check_stuffle_size(m, n)
    _check_stuffle_size(n, m)
    with pytest.raises(ValueError, match=f"STUFFLE_BUDGET = {STUFFLE_BUDGET} "):
        _check_stuffle_size(m + 1, n)


def test_stuffle_budget_is_checked_only_when_a_product_is_built(monkeypatch):
    checked = []
    monkeypatch.setattr(
        "gammagenus.words._check_stuffle_size", lambda *mn: checked.append(mn)
    )
    _stuffle_words.cache_clear()
    for _ in range(3):
        stuffle_word_pair((2, 1), (3,))
    assert checked == [(2, 1)]


def test_stuffle_memory_follows_the_shorter_word():
    # the table keeps two rows over the shorter word, so a 1 x n product
    # holds O(n^2) letters at once (4x from n = 100 to 200); rows over the
    # longer word held O(n^3) (8x).  Both pairs fit STUFFLE_BUDGET.
    def peak(n):
        _stuffle_words.cache_clear()
        tracemalloc.start()
        try:
            _stuffle_words((2,), (1,) * n)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            _stuffle_words.cache_clear()

    assert peak(200) < 6 * peak(100)


def test_words_suite_leaves_little_memory_behind():
    script = (
        "import gc, tracemalloc\n"
        "from gammagenus.verify import run_suite\n"
        "tracemalloc.start()\n"
        "passed = run_suite('words').passed\n"
        "gc.collect()\n"
        "print(passed, tracemalloc.get_traced_memory()[0])\n"
    )
    res = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=300
    )
    assert res.returncode == 0, res.stderr
    passed, held = res.stdout.split()
    assert passed == "True"
    assert int(held) < 2 * 1024 * 1024


def test_is_lyndon():
    assert is_lyndon((2,))
    assert is_lyndon((2, 1))
    assert not is_lyndon((1, 2))
    assert not is_lyndon((2, 2))
    assert not is_lyndon(())
    assert is_lyndon((3, 1, 2))
    assert not is_lyndon((2, 1, 2))


def test_lyndon_words_by_weight():
    assert lyndon_words(1) == [(1,)]
    assert lyndon_words(2) == [(2,)]
    assert lyndon_words(3) == [(2, 1), (3,)]
    assert lyndon_words(4) == [(2, 1, 1), (3, 1), (4,)]
    assert [len(lyndon_words(w)) for w in range(1, 6)] == [1, 1, 2, 3, 6]


def test_only_weight_one_lyndon_word_starts_with_z1():
    for w in range(1, 9):
        starting = [u for u in lyndon_words(w) if u[0] == 1]
        assert starting == ([(1,)] if w == 1 else [])


def test_lyndon_factorize_examples():
    assert lyndon_factorize((2,)) == ((2,),)
    assert lyndon_factorize((1, 2)) == ((1,), (2,))
    assert lyndon_factorize((2, 1)) == ((2, 1),)
    assert lyndon_factorize((2, 1, 2, 1)) == ((2, 1), (2, 1))
    assert lyndon_factorize((1, 1, 3, 2)) == ((1,), (1,), (3, 2))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(1, 4), min_size=1, max_size=6).map(tuple))
def test_lyndon_factorization_properties(w):
    factors = lyndon_factorize(w)
    assert sum(factors, ()) == w
    assert all(is_lyndon(f) for f in factors)
    keys = [word_key(f) for f in factors]
    assert keys == sorted(keys, reverse=True)  # weakly decreasing factors


def test_lyndon_decompose_z1_z2():
    q = QsymPoly.from_word((1, 2))
    decomp = lyndon_decompose(q)
    assert decomp == {
        ((1,), (2,)): Fraction(1),
        ((2, 1),): Fraction(-1),
        ((3,),): Fraction(-1),
    }


def test_lyndon_decompose_roundtrip_exhaustive():
    for weight in range(1, 7):
        for w in words_of_weight(weight):
            q = QsymPoly.from_word(w)
            assert lyndon_recompose(lyndon_decompose(q)) == q


def test_lyndon_decompose_random_combinations():
    rng = random.Random(7)
    for _ in range(10):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            w = rng.choice(words_of_weight(rng.randint(1, 6)))
            terms[w] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        q = QsymPoly(terms)
        assert lyndon_recompose(lyndon_decompose(q)) == q


def test_decomposition_uses_only_lyndon_generators():
    q = stuffle_word_pair((1, 1), (2,))
    for mono in lyndon_decompose(q):
        assert all(is_lyndon(f) for f in mono)


def _zeta_word_by_products(word):
    """zeta_word as a product of one MzvValue per Lyndon factor, summed."""
    if not word:
        return MzvValue.one()
    if word[0] >= 2:
        return MzvValue.from_atom(word)
    acc = MzvValue.zero()
    for factors, c in lyndon_decompose(QsymPoly.from_word(word)).items():
        term = MzvValue.one().scaled(c)
        for factor in factors:
            if factor == (1,):
                term = term * MzvValue.from_ring(ZetaPoly.generator(GAMMA))
            else:
                term = term * MzvValue.from_atom(factor)
        acc = acc + term
    return acc


def test_zeta_word_matches_the_product_of_its_factors():
    ws = [w for n in range(8) for w in words_of_weight(n)]
    assert len(ws) == 128
    for w in ws:
        assert zeta_word(w) == _zeta_word_by_products(w), w


def test_sym_to_words_basics():
    p3 = SymPoly.basis_element("p", (3,))
    assert sym_to_words(p3) == QsymPoly.from_word((3,))
    e2 = SymPoly.basis_element("e", (2,))
    assert sym_to_words(e2) == QsymPoly.from_word((1, 1))
    m21 = SymPoly.basis_element("m", (2, 1))
    assert sym_to_words(m21) == QsymPoly(
        {(2, 1): Fraction(1), (1, 2): Fraction(1)}
    )


def test_sym_to_words_is_multiplicative():
    pairs = [
        ((2,), (1, 1)),
        ((2, 1), (1,)),
        ((3,), (2,)),
    ]
    for lam, mu in pairs:
        f = SymPoly.basis_element("m", lam)
        g = SymPoly.basis_element("m", mu)
        lhs = sym_to_words(f * g)
        rhs = stuffle(sym_to_words(f), sym_to_words(g))
        assert lhs == rhs


def test_qsym_json_roundtrip():
    q = stuffle_word_pair((2,), (6,))
    data = qsym_to_json(q)
    assert data[0] == {"word": [2, 6], "coeff": "1/1"}


def test_qsym_rejects_bad_letters():
    with pytest.raises(ValueError):
        QsymPoly({(0,): 1})
    with pytest.raises(ValueError):
        QsymPoly.from_word((2, -1))


def test_bool_letters_are_rejected():
    for word in ((True, 2), (2, False), (True,)):
        with pytest.raises(ValueError, match="letters must be integers"):
            QsymPoly.from_word(word)
    with pytest.raises(ValueError):
        stuffle_word_pair((True,), (2,))


def test_stuffle_refuses_another_class():
    # each of these has the empty key, which the stuffle would treat as the unit
    for other in (ZetaPoly.one(), MzvValue.one(), SymPoly.basis_element("m", ())):
        with pytest.raises(TypeError):
            QsymPoly.from_word((2,)) * other
        with pytest.raises(TypeError):
            stuffle(QsymPoly.from_word((2,)), other)
