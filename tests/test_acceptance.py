"""Release gate: numbered end-to-end checks with runtime budgets.

Each criterion runs inside the `criterion` context manager, which records
wall time, enforces the budget, and feeds the one-line-per-criterion
summary printed by conftest. The numbered checks pin the headline results
(exact spot coefficients, the two even-zeta identities, oracle agreement,
the Taylor-coefficient bridge) plus the algebraic property suites.

Conversion tables behind q_genus are process-level caches, so whichever
test touches them first would be billed for the whole build. The autouse
fixture below does that build once, cold, and charges its time against
criterion 9, the criterion whose contract actually needs every Q_i up to
degree 10; criterion 1 then measures its own comparisons warm.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import mpmath
import pytest

from conftest import ACCEPTANCE_RESULTS
from gammagenus.genus import DEGREE_BUDGET, q_genus, q_genus_oracle
from gammagenus.numeric import (
    eval_qsym,
    eval_zeta_poly,
    gamma_recip_coeffs,
    mzv,
)
from gammagenus.partitions import partitions_of
from gammagenus.symfunc import SymPoly, e_to_m_matrix
from gammagenus.words import (
    QsymPoly,
    is_lyndon,
    lyndon_decompose,
    lyndon_factorize,
    lyndon_recompose,
    lyndon_words,
    stuffle,
    stuffle_word_pair,
    word_key,
    words_of_weight,
)
from gammagenus.zetaring import GAMMA, ZetaPoly, zeta_even, zeta_gen, zeta_hom

GAMMA_GEN = ZetaPoly.generator(GAMMA)
PI2 = ZetaPoly.generator("pi2")

SEED = 74207


@contextmanager
def criterion(num, title, budget, already_spent=0.0):
    rec = {
        "title": title,
        "budget": budget,
        "status": "fail",
        "elapsed": None,
    }
    ACCEPTANCE_RESULTS[num] = rec
    start = time.perf_counter()
    try:
        yield
    finally:
        rec["elapsed"] = already_spent + time.perf_counter() - start
    assert rec["elapsed"] < budget, (
        f"criterion {num} overran its budget: "
        f"{rec['elapsed']:.2f}s >= {budget:.0f}s"
    )
    rec["status"] = "pass"


@pytest.fixture(scope="module", autouse=True)
def cold_build_seconds():
    start = time.perf_counter()
    for i in range(1, 11):
        q_genus(i)
    return time.perf_counter() - start


def test_criterion_1_spot_values():
    title = "exact spot coefficients of Q_1..Q_3 and leading terms through Q_10"
    with criterion(1, title, budget=5.0):
        assert q_genus(1).coeffs == {(1,): GAMMA_GEN}
        for i in range(2, 11):
            assert q_genus(i).coeffs[(i,)] == zeta_gen(i)
        c11 = (GAMMA_GEN ** 2 - zeta_even(2)).scaled(Fraction(1, 2))
        assert q_genus(2).coeffs[(1, 1)] == c11
        c111 = (
            zeta_gen(3).scaled(Fraction(1, 3))
            - (GAMMA_GEN * zeta_even(2)).scaled(Fraction(1, 2))
            + (GAMMA_GEN ** 3).scaled(Fraction(1, 6))
        )
        assert q_genus(3).coeffs[(1, 1, 1)] == c111


def test_criterion_2_double_2():
    title = "zeta_hom(m_(2,2)) = (3/4) zeta(4) exactly; mzv(2,2) agrees"
    with criterion(2, title, budget=30.0):
        target = zeta_even(4).scaled(Fraction(3, 4))
        assert zeta_hom(SymPoly.basis_element("m", (2, 2))) == target
        assert target == (PI2 ** 2).scaled(Fraction(1, 120))
        assert mzv((2, 2), 1e-6).agrees_with(eval_zeta_poly(target))


def test_criterion_3_six_two():
    title = "zeta(6,2)+zeta(2,6) = (2/3) zeta(8) via stuffle, exact and numeric"
    with criterion(3, title, budget=60.0):
        product = stuffle_word_pair((2,), (6,))
        assert product == QsymPoly({(2, 6): 1, (6, 2): 1, (8,): 1})
        # so the depth-2 pair sum collapses to zeta(2)zeta(6) - zeta(8)
        pair_sum = zeta_even(2) * zeta_even(6) - zeta_even(8)
        target = zeta_even(8).scaled(Fraction(2, 3))
        assert pair_sum == target
        assert target == (PI2 ** 4).scaled(Fraction(1, 14175))
        assert zeta_hom(SymPoly.basis_element("m", (6, 2))) == target
        numeric = mzv((6, 2), 1e-6) + mzv((2, 6), 1e-6)
        assert numeric.agrees_with(eval_zeta_poly(target))


def test_criterion_4_oracle_agreement():
    title = f"q_genus matches the generating-product oracle for i = 1..{DEGREE_BUDGET}"
    with criterion(4, title, budget=60.0):
        for i in range(1, DEGREE_BUDGET + 1):
            assert q_genus(i) == q_genus_oracle(i)


def test_criterion_5_taylor_bridge():
    title = "zeta_hom(e_i) matches 1/Gamma(1+z) Taylor coefficients and samples"
    with criterion(5, title, budget=30.0):
        coeffs = gamma_recip_coeffs(10)
        for i in range(11):
            symbolic = eval_zeta_poly(zeta_hom(SymPoly.basis_element("e", (i,) if i else ())))
            diff = abs(symbolic.value - coeffs[i].value)
            assert diff <= symbolic.bound + coeffs[i].bound, i
        series = gamma_recip_coeffs(12)
        for z in (-0.4, -0.2, 0.1, 0.3, 0.5):
            horner = 0.0
            for c in reversed(series):
                horner = horner * z + c.value
            assert abs(horner - float(mpmath.rgamma(1 + z))) < 1e-6, z


def test_criterion_6_matrix_symmetry():
    title = "e_to_m_matrix(n) exact and symmetric for n = 1..8"
    with criterion(6, title, budget=30.0):
        for n in range(1, 9):
            matrix = e_to_m_matrix(n)
            size = len(partitions_of(n))
            assert len(matrix) == size
            for a in range(size):
                assert len(matrix[a]) == size
                for b in range(size):
                    assert isinstance(matrix[a][b], Fraction)
                    assert matrix[a][b] == matrix[b][a], (n, a, b)


def _assert_weight_additive(product, *operands):
    total = sum(sum(u) for u in operands)
    for w in product.terms:
        assert sum(w) == total, (operands, w)


def _random_word(rng, max_weight):
    return rng.choice(words_of_weight(rng.randint(1, max_weight)))


def test_criterion_7_stuffle_algebra():
    title = "stuffle commutes/associates, adds weight; numeric homomorphism"
    with criterion(7, title, budget=300.0):
        small = [w for n in range(1, 5) for w in words_of_weight(n)]
        for u in small:
            for v in small:
                uv = stuffle_word_pair(u, v)
                assert uv == stuffle_word_pair(v, u)
                _assert_weight_additive(uv, u, v)
        for u in small:
            for v in small:
                uv = stuffle_word_pair(u, v)
                for w in small:
                    left = stuffle(uv, QsymPoly.from_word(w))
                    right = stuffle(QsymPoly.from_word(u), stuffle_word_pair(v, w))
                    assert left == right
                    _assert_weight_additive(left, u, v, w)

        rng = random.Random(SEED)
        for _ in range(20):
            u, v = _random_word(rng, 7), _random_word(rng, 7)
            uv = stuffle_word_pair(u, v)
            assert uv == stuffle_word_pair(v, u)
            _assert_weight_additive(uv, u, v)
        for _ in range(12):
            u, v, w = (_random_word(rng, 7) for _ in range(3))
            left = stuffle(stuffle_word_pair(u, v), QsymPoly.from_word(w))
            right = stuffle(QsymPoly.from_word(u), stuffle_word_pair(v, w))
            assert left == right
            _assert_weight_additive(left, u, v, w)

        convergent = [
            w
            for n in range(2, 9)
            for w in words_of_weight(n)
            if len(w) <= 2 and w[0] >= 2
        ]
        for _ in range(20):
            u, v = rng.choice(convergent), rng.choice(convergent)
            # product words can pick up two trailing 1s, whose tail decays
            # like 1/N, so the per-word tolerance stays at 1e-4 to keep the
            # summation cutoffs affordable; the agreement check uses the
            # accumulated bounds, not a fixed tolerance
            left = eval_qsym(stuffle_word_pair(u, v), tol=1e-4)
            right = mzv(u, 1e-6) * mzv(v, 1e-6)
            assert left.agrees_with(right), (u, v)


def test_criterion_8_lyndon_suite():
    title = "only z_1 itself is a Lyndon word starting with z_1; roundtrips"
    with criterion(8, title, budget=60.0):
        for n in range(1, 9):
            from_generator = [w for w in lyndon_words(n) if w[0] == 1]
            from_filter = [
                w for w in words_of_weight(n) if w[0] == 1 and is_lyndon(w)
            ]
            expected = [(1,)] if n == 1 else []
            assert from_generator == expected, n
            assert from_filter == expected, n
        for n in range(1, 7):
            for w in words_of_weight(n):
                factors = lyndon_factorize(w)
                assert sum(factors, ()) == w
                assert all(is_lyndon(f) for f in factors)
                keys = [word_key(f) for f in factors]
                assert keys == sorted(keys, reverse=True)
                q = QsymPoly.from_word(w)
                assert lyndon_recompose(lyndon_decompose(q)) == q


def test_criterion_9_homogeneity(cold_build_seconds):
    title = "q_genus(i) weight-homogeneous with p(i) coefficients, i <= 10"
    with criterion(9, title, budget=60.0, already_spent=cold_build_seconds):
        for i in range(1, 11):
            q = q_genus(i)
            assert len(q.coeffs) == len(partitions_of(i))
            assert set(q.coeffs) == set(partitions_of(i))
            for lam, c in q.coeffs.items():
                assert c.is_homogeneous(i), (i, lam)
