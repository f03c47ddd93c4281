"""Self-check suites behind the `verify` subcommand.

Three suites: `symbolic` covers the exact ring identities and the oracle
match, `words` covers the stuffle algebra and Lyndon machinery, `numeric`
covers summation against the symbolic values and stored constants.  Checks
are deliberately smaller than the acceptance tests so a full `verify all`
stays interactive; the heavyweight sweeps live in the test suite.

A check takes no arguments and returns a verdict, the tuple (ok, expected,
actual, bound) of a truth value and three strings, empty where there is
nothing to show.  `_same`, `_none_bad` and `_agree` build the common kinds.
`CHECKS` names each check's suite, id and description, and `run_suite`
turns every verdict into a `CheckRecord`.  A check that raises has failed,
with the exception as its actual value, except `MemoryError`,
`RecursionError` and `ImportError`: they mean the process ran out or the
install lacks a module (numpy, say), not that the check failed, so they
propagate and the CLI exits 4.

Randomized checks draw from a fixed seed so repeated runs are
byte-identical.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import product

from .genus import mzv_expansion, q_genus, q_genus_oracle, q_genus_cy
from .numeric import (
    _dp_sum,
    eval_mzv_terms,
    eval_qsym,
    eval_zeta_poly,
    generator_value,
    gamma_recip_coeffs,
    mzv,
    mzv_info,
)
from .partitions import partitions_of
from .render import format_bound, format_bounded, format_qsym, format_zeta_poly
from .symfunc import SymPoly, e_to_m_matrix
from .words import (
    QsymPoly,
    is_lyndon,
    lyndon_decompose,
    lyndon_factorize,
    lyndon_recompose,
    lyndon_words,
    stuffle,
    stuffle_reduce,
    stuffle_word_pair,
    sym_to_words,
    word_key,
    words_of_weight,
    zeta_word_poly,
)
from .zetaring import GAMMA, PI2, ZetaPoly, zeta_even, zeta_gen, zeta_hom

SEED = 20318


class CheckRecord:
    __slots__ = ("id", "description", "status", "expected", "actual", "bound")

    def __init__(self, id, description, status, expected="", actual="", bound=""):
        self.id = id
        self.description = description
        self.status = status
        self.expected = expected
        self.actual = actual
        self.bound = bound

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


class Report:
    __slots__ = ("suite", "checks")

    def __init__(self, suite: str, checks: list):
        self.suite = suite
        self.checks = checks

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "overall": "pass" if self.passed else "fail",
            "checks": [c.to_json() for c in self.checks],
        }


def _same(got, want, fmt=str):
    """Verdict that `got` equals `want`, both shown through `fmt`."""
    return got == want, fmt(want), fmt(got), ""


def _none_bad(bad, label="{}", show=None):
    """Verdict that `bad` is empty; else show its first `show` items in `label`."""
    return not bad, "none", label.format(bad[:show]) if bad else "none", ""


def _agree(got, want):
    """Verdict that two bounded values agree within their summed bounds."""
    return (
        got.agrees_with(want),
        format_bounded(want),
        format_bounded(got),
        format_bound(Fraction(got.bound) + Fraction(want.bound)),
    )


# --- symbolic -------------------------------------------------------------------


def _check_q1():
    return _same(q_genus(1).coeffs[(1,)], ZetaPoly.generator(GAMMA), format_zeta_poly)


def _check_q2_c1sq():
    got = q_genus(2).coeffs[(1, 1)]
    want = ZetaPoly({((GAMMA, 2),): Fraction(1, 2)}) - zeta_even(2).scaled(
        Fraction(1, 2)
    )
    return _same(got, want, format_zeta_poly)


def _check_q3_c1cube():
    got = q_genus(3).coeffs[(1, 1, 1)]
    want = (
        ZetaPoly({((GAMMA, 3),): Fraction(1, 6)})
        - ZetaPoly.generator(GAMMA).scaled(Fraction(1, 2)) * zeta_even(2)
        + zeta_gen(3).scaled(Fraction(1, 3))
    )
    return _same(got, want, format_zeta_poly)


def _check_leading():
    bad = [i for i in range(2, 9) if q_genus(i).coeffs[(i,)] != zeta_gen(i)]
    return _none_bad(bad, "mismatches at {}")


def _check_m22():
    got = zeta_hom(SymPoly.basis_element("m", (2, 2)))
    return _same(got, zeta_even(4).scaled(Fraction(3, 4)), format_zeta_poly)


def _check_m62():
    got = zeta_gen(2) * zeta_gen(6) - zeta_gen(8)
    want = zeta_even(8).scaled(Fraction(2, 3))
    also = zeta_hom(SymPoly.basis_element("m", (6, 2)))
    ok, expected, actual, bound = _same(got, want, format_zeta_poly)
    return ok and also == want, expected, actual, bound


def _check_oracle():
    bad = [i for i in range(1, 5) if q_genus(i) != q_genus_oracle(i)]
    return _none_bad(bad, "mismatches at {}")


def _check_matrix_symmetry():
    bad = []
    for n in range(1, 7):
        m = e_to_m_matrix(n)
        size = len(m)
        if any(m[a][b] != m[b][a] for a in range(size) for b in range(size)):
            bad.append(n)
    return _none_bad(bad, "asymmetric at {}")


def _check_homogeneity():
    bad = []
    for i in range(1, 7):
        coeffs = q_genus(i).coeffs
        if len(coeffs) != len(partitions_of(i)) or any(
            not c.is_homogeneous(i) for c in coeffs.values()
        ):
            bad.append(i)
    return _none_bad(bad, "failures at {}")


def _check_word_route():
    bad = []
    for lam in ((2, 2), (3, 2), (4, 2), (3, 3), (6, 2)):
        f = SymPoly.basis_element("m", lam)
        if zeta_hom(f) != stuffle_reduce(zeta_word_poly(sym_to_words(f))):
            bad.append(lam)
    return _none_bad(bad, "mismatches at {}")


# --- words ----------------------------------------------------------------------


def _random_word(rng, max_weight):
    w = rng.randint(1, max_weight)
    out = []
    while w > 0:
        letter = rng.randint(1, w)
        out.append(letter)
        w -= letter
    return tuple(out)


def _random_tuples(seed, count, size, max_weight):
    """`count` tuples of `size` seeded random words, drawn word by word."""
    rng = random.Random(seed)
    return [
        tuple(_random_word(rng, max_weight) for _ in range(size))
        for _ in range(count)
    ]


def _small_words(max_weight):
    return [w for n in range(1, max_weight + 1) for w in words_of_weight(n)]


def _check_unit_law():
    z1 = QsymPoly.from_word((1,))
    return _same(stuffle(z1, QsymPoly.from_word(())), z1, format_qsym)


def _letter_stuffle(a, b):
    """z_a * z_b = z_az_b + z_bz_a + z_(a+b)."""
    got = stuffle(QsymPoly.from_word((a,)), QsymPoly.from_word((b,)))
    want = (
        QsymPoly.from_word((a, b))
        + QsymPoly.from_word((b, a))
        + QsymPoly.from_word((a + b,))
    )
    return _same(got, want, format_qsym)


def _check_commutative():
    pairs = [*product(_small_words(4), repeat=2), *_random_tuples(SEED, 30, 2, 7)]
    bad = [
        (u, v) for u, v in pairs if stuffle_word_pair(u, v) != stuffle_word_pair(v, u)
    ]
    return _none_bad(bad, show=3)


def _check_associative():
    triples = [*product(_small_words(3), repeat=3), *_random_tuples(SEED + 1, 15, 3, 6)]
    bad = [
        (u, v, t)
        for u, v, t in triples
        if stuffle(stuffle_word_pair(u, v), QsymPoly.from_word(t))
        != stuffle(QsymPoly.from_word(u), stuffle_word_pair(v, t))
    ]
    return _none_bad(bad, show=3)


def _check_weight_additive():
    bad = [
        (u, v)
        for u, v in _random_tuples(SEED + 2, 40, 2, 7)
        if stuffle_word_pair(u, v).weights() not in ([], [sum(u) + sum(v)])
    ]
    return _none_bad(bad, show=3)


def _check_lyndon_z1():
    bad = [
        w
        for w in range(1, 7)
        if [u for u in lyndon_words(w) if u[0] == 1] != ([(1,)] if w == 1 else [])
    ]
    return _none_bad(bad, "weights {}")


def _check_lyndon_counts():
    return _same([len(lyndon_words(w)) for w in range(1, 6)], [1, 1, 2, 3, 6])


def _check_cfl_roundtrip():
    bad = []
    for w in _small_words(5):
        factors = lyndon_factorize(w)
        keys = [word_key(f) for f in factors]
        if (
            tuple(x for f in factors for x in f) != w
            or not all(is_lyndon(f) for f in factors)
            or keys != sorted(keys, reverse=True)
        ):
            bad.append(w)
    return _none_bad(bad, show=3)


def _check_decompose_roundtrip():
    bad = []
    q = QsymPoly.from_word((1, 2))
    decomposition = lyndon_decompose(q)
    want = {((1,), (2,)): 1, ((2, 1),): -1, ((3,),): -1}
    if decomposition != want or lyndon_recompose(decomposition) != q:
        bad.append((1, 2))
    rng = random.Random(SEED + 3)
    for _ in range(10):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            terms[_random_word(rng, 5)] = rng.randint(-3, 3)
        poly = QsymPoly(terms)
        if lyndon_recompose(lyndon_decompose(poly)) != poly:
            bad.append(tuple(terms))
    return _none_bad(bad, show=2)


def _check_sym_homomorphism():
    pairs = (
        (("m", (2,)), ("m", (1,))),
        (("e", (2,)), ("p", (2,))),
        (("m", (2, 1)), ("m", (1,))),
    )
    bad = []
    for (b1, l1), (b2, l2) in pairs:
        f = SymPoly.basis_element(b1, l1)
        g = SymPoly.basis_element(b2, l2)
        if sym_to_words(f * g) != stuffle(sym_to_words(f), sym_to_words(g)):
            bad.append((b1, l1, b2, l2))
    return _none_bad(bad)


# --- numeric --------------------------------------------------------------------


def _check_zeta2():
    got = mzv((2,), 1e-8)
    ok, expected, actual, bound = _agree(got, eval_zeta_poly(zeta_even(2)))
    return ok and got.bound <= 1e-8, expected, actual, bound


def _check_zeta22():
    want = eval_zeta_poly(zeta_even(4).scaled(Fraction(3, 4)))
    return _agree(mzv((2, 2), 1e-6), want)


def _check_zeta62():
    got = mzv((6, 2), 1e-6) + mzv((2, 6), 1e-6)
    return _agree(got, eval_zeta_poly(zeta_even(8).scaled(Fraction(2, 3))))


def _check_doubling():
    bad = []
    for comp in ((2,), (3,), (2, 1), (2, 2), (6, 2)):
        first, cutoff = mzv_info(comp, 1e-6)
        second, _ = mzv_info(comp, 1e-6, cutoff=2 * cutoff)
        if abs(first.value - second.value) >= first.bound:
            bad.append(comp)
    return _none_bad(bad)


def _check_taylor():
    g = gamma_recip_coeffs(8)
    bad = [
        i
        for i in range(9)
        if not eval_zeta_poly(
            zeta_hom(SymPoly.basis_element("e", (i,))) if i else ZetaPoly.one()
        ).agrees_with(g[i])
    ]
    return _none_bad(bad, "degrees {}")


def _check_product_validation():
    gamma_recip_coeffs(12)  # raises unless its log series meets the product
    return True, "validated", "validated", ""


def _near_stored(name, approx, tol):
    """Verdict that the stored constant `name` is within `tol` of `approx`."""
    stored = generator_value(name).value
    return abs(stored - approx) <= tol, f"{stored:.12g}", f"{approx:.12g}", f"{tol:.0e}"


def _check_gamma_limit():
    n = 1_000_000
    approx = _dp_sum((1,), n)[0] - math.log(n) - 1.0 / (2 * n)
    return _near_stored(GAMMA, approx, 1e-7)


def _check_pi2_series():
    # at depth 1 the value is the partial sum plus the zeta-tail midpoint
    approx = 6.0 * mzv_info((2,), 1e-9, cutoff=1_000_000)[0].value
    return _near_stored(PI2, approx, 1e-9)


def _check_cy_consistency():
    bad = [
        lam
        for i in range(2, 7)
        for lam in q_genus_cy(i).coeffs
        if not eval_mzv_terms(mzv_expansion(lam), 1e-6).agrees_with(
            eval_zeta_poly(zeta_hom(SymPoly.basis_element("m", lam)))
        )
    ]
    return _none_bad(bad)


def _check_stuffle_numeric():
    pairs = (((2,), (2, 1)), ((3,), (2,)), ((2, 2), (3,)))
    bad = [
        (u, v)
        for u, v in pairs
        if not eval_qsym(stuffle_word_pair(u, v), 1e-6).agrees_with(
            mzv(u, 1e-6) * mzv(v, 1e-6)
        )
    ]
    return _none_bad(bad)


# --- the suites -----------------------------------------------------------------

# (suite, id, description, check), in the order the checks run and print
CHECKS = (
    ("symbolic", "sym.q1", "Q_1 equals γ c_1", _check_q1),
    ("symbolic", "sym.q2-c1sq", "coefficient of c_1^2 in Q_2 is (γ^2 - ζ(2))/2",
     _check_q2_c1sq),
    ("symbolic", "sym.q3-c1cube",
     "coefficient of c_1^3 in Q_3 is ζ(3)/3 - γζ(2)/2 + γ^3/6", _check_q3_c1cube),
    ("symbolic", "sym.leading", "coefficient of c_i in Q_i is ζ(i) for i = 2..8",
     _check_leading),
    ("symbolic", "sym.m22", "ζ of m_(2,2) equals (3/4) ζ(4)", _check_m22),
    ("symbolic", "sym.m62", "ζ(2)ζ(6) - ζ(8) equals (2/3) ζ(8), matching ζ of m_(6,2)",
     _check_m62),
    ("symbolic", "sym.oracle", "generating-product oracle matches Q_i for i = 1..4",
     _check_oracle),
    ("symbolic", "sym.matrix-symmetry",
     "elementary-to-monomial transition matrix is symmetric, n = 1..6",
     _check_matrix_symmetry),
    ("symbolic", "sym.homogeneity",
     "Q_i coefficients are weight-i homogeneous with p(i) terms, i <= 6",
     _check_homogeneity),
    ("symbolic", "sym.word-route",
     "word-algebra route to ζ(m_lam) agrees with the p-basis route", _check_word_route),
    ("words", "words.unit", "empty word is the stuffle unit", _check_unit_law),
    ("words", "words.stuffle-2-6", "z_2 * z_6 = z_2z_6 + z_6z_2 + z_8",
     lambda: _letter_stuffle(2, 6)),
    ("words", "words.stuffle-1-2", "z_1 * z_2 = z_1z_2 + z_2z_1 + z_3",
     lambda: _letter_stuffle(1, 2)),
    ("words", "words.commutative",
     "stuffle commutes (exhaustive weight <= 4, random weight <= 7)",
     _check_commutative),
    ("words", "words.associative",
     "stuffle associates (exhaustive weight <= 3, random weight <= 6)",
     _check_associative),
    ("words", "words.weight-additive",
     "stuffle products are homogeneous of the summed weight", _check_weight_additive),
    ("words", "words.lyndon-z1",
     "z_1 is the only Lyndon word starting with z_1, weight <= 6", _check_lyndon_z1),
    ("words", "words.lyndon-counts",
     "Lyndon word counts for weights 1..5 are 1,1,2,3,6", _check_lyndon_counts),
    ("words", "words.cfl-roundtrip",
     "Lyndon factorization is nonincreasing and concatenates back",
     _check_cfl_roundtrip),
    ("words", "words.decompose-roundtrip",
     "Lyndon decomposition inverts through the stuffle product",
     _check_decompose_roundtrip),
    ("words", "words.sym-homomorphism",
     "sym_to_words carries products to stuffle products", _check_sym_homomorphism),
    ("numeric", "num.zeta2", "summation of ζ(2) meets π^2/6 within bounds at tol 1e-8",
     _check_zeta2),
    ("numeric", "num.zeta22", "ζ(2,2) meets (3/4) ζ(4) within bounds", _check_zeta22),
    ("numeric", "num.zeta62", "ζ(6,2)+ζ(2,6) meets (2/3) ζ(8) within bounds",
     _check_zeta62),
    ("numeric", "num.doubling",
     "doubling the cutoff moves values less than the reported bound", _check_doubling),
    ("numeric", "num.taylor",
     "1/Γ Taylor coefficients match ζ(e_i) within bounds, i <= 8", _check_taylor),
    ("numeric", "num.product-validation",
     "Taylor series validates against the Weierstrass product",
     _check_product_validation),
    ("numeric", "num.gamma-limit", "stored γ matches H_n - ln n - 1/2n at n = 10^6",
     _check_gamma_limit),
    ("numeric", "num.pi2-series", "stored π^2 matches 6 Σ n^-2 plus tail at n = 10^6",
     _check_pi2_series),
    ("numeric", "num.cy-consistency",
     "MZV expansions match ζ(m_lam) numerically, weight <= 6", _check_cy_consistency),
    ("numeric", "num.stuffle-numeric",
     "ζ is multiplicative across the stuffle product, sample pairs",
     _check_stuffle_numeric),
)

SUITES = tuple(dict.fromkeys(suite for suite, _, _, _ in CHECKS))


def run_suite(name: str) -> Report:
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    records = []
    for suite, check_id, description, check in CHECKS:
        if name not in ("all", suite):
            continue
        try:
            ok, expected, actual, bound = check()
        except (MemoryError, RecursionError, ImportError):
            raise  # out of resources or a broken install: an internal error, not a verdict
        except Exception as exc:  # a crashed check is a failed check
            ok, expected, actual, bound = False, "", f"raised {exc!r}", ""
        status = "pass" if ok else "fail"
        records.append(
            CheckRecord(check_id, description, status, expected, actual, bound)
        )
    return Report(name, records)
