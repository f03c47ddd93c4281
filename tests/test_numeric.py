"""Numeric engine tests.

mpmath serves as the independent oracle throughout: every computed value
must land inside its own reported error bound of the oracle value, not just
"close".  A bound that fails to contain the truth is a real bug even when
the value looks fine.
"""

import hashlib
import itertools
import math
import random
import resource
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import mpmath
import pytest
from mpmath import mp

from gammagenus import numeric
from gammagenus.genus import q_genus
from gammagenus.numeric import (
    BLOCK,
    CACHED_ROW_CUTOFF,
    MAX_CUTOFF,
    BoundedValue,
    CutoffBudgetError,
    DivergentMzvError,
    GAMMA_DECIMAL,
    PI_DECIMAL,
    PLAN_CACHE_SIZE,
    POWER_CACHE_SIZE,
    _cached_power_row,
    _check_log_series,
    _choose_cutoff,
    _dp_sum,
    _plan,
    _power_row,
    _slop,
    eval_mzv_terms,
    eval_qsym,
    eval_zeta_poly,
    gamma_recip_coeffs,
    generator_value,
    generator_values,
    mzv,
    mzv_info,
    tail_integral,
    zeta_tail_estimate,
)
from gammagenus.words import stuffle_word_pair
from gammagenus.zetaring import MzvTerm, zeta_even


def test_bounded_value_construction():
    x = BoundedValue.exact(1.5)
    assert x.value == 1.5
    assert x.bound == 0.0


@pytest.mark.parametrize(
    "value, bound",
    [(math.nan, 0.0), (math.inf, 0.0), (-math.inf, 1.0), (1.0, math.inf)],
)
def test_bounded_value_must_be_finite(value, bound):
    with pytest.raises(ValueError, match="finite"):
        BoundedValue(value, bound)


def test_overflowed_product_is_refused_not_vacuously_agreeing():
    with pytest.raises(ValueError, match="finite"):
        BoundedValue(1e308, 0.0) * BoundedValue(10.0, 0.0)


def test_bounded_value_arithmetic_grows_bounds():
    x = BoundedValue(1.0, 1e-10)
    y = BoundedValue(2.0, 1e-12)
    s = x + y
    assert s.value == 3.0
    assert s.bound >= 1e-10 + 1e-12
    d = x - y
    assert d.value == -1.0
    p = x * y
    assert p.value == 2.0
    assert p.bound >= 2 * 1e-10
    assert (-x).value == -1.0
    assert x.power(3).value == 1.0


def test_bounded_value_scale_fraction_is_exact_mult():
    x = BoundedValue(0.1, 1e-15)
    y = x.scale_fraction(Fraction(3))
    # one rounding after an exact rational multiply, not three float adds
    assert y.value == float(Fraction(0.1) * 3)
    assert y.bound >= 3 * 1e-15


def test_bounded_value_agrees_with():
    a = BoundedValue(1.0, 1e-6)
    b = BoundedValue(1.0000015, 1e-6)
    c = BoundedValue(1.00001, 1e-6)
    assert a.agrees_with(b)
    assert not a.agrees_with(c)


def test_agreement_is_judged_exactly():
    # the gap 2 + 2^-53 rounds to 2.0 in floats, yet exceeds the bounds' sum
    a, b = BoundedValue(2.0, 1.0), BoundedValue(-(2.0**-53), 1.0)
    assert not a.agrees_with(b)
    assert not b.agrees_with(a)
    assert a.agrees_with(BoundedValue(0.0, 1.0))


def test_bounded_value_json():
    x = BoundedValue(0.25, 2e-9)
    data = x.to_json()
    assert set(data) == {"value", "bound"}
    assert data == {"value": 0.25, "bound": 2e-9}


def test_check_composition():
    # mzv and mzv_info validate their composition before any summation
    mp.dps = 30
    for args in ([3], (3,)):
        v, _ = mzv_info(args, 1e-6)
        assert abs(v.value - float(mp.zeta(3))) <= v.bound
    for entry in (mzv, mzv_info):
        with pytest.raises(DivergentMzvError, match=r"^zeta\(1,2\) diverges"):
            entry((1, 2), 1e-6)
        with pytest.raises(ValueError):
            entry((), 1e-6)
        with pytest.raises(ValueError):
            entry((2, 0), 1e-6)


def test_bool_composition_entries_are_rejected():
    # True == 1, but a bool is not a composition entry at any tolerance
    for tol in (1e-6, 1e-12):
        with pytest.raises(ValueError, match="composition entries must be integers"):
            mzv((2, True), tol)
    with pytest.raises(ValueError, match="composition entries must be integers"):
        MzvTerm(1, (True, 2))


def test_tail_integral_r0():
    # with no log factors the closed form is N^(1-s)/(s-1)
    assert tail_integral(100.0, 3, 0, 0) == pytest.approx(100.0**-2 / 2, rel=1e-12)
    assert tail_integral(50.0, 2, 0, 0) == pytest.approx(1 / 50, rel=1e-12)


def test_zeta_tail_estimate_against_mpmath():
    mp.dps = 30
    for s in (2, 3, 6):
        for n in (10, 100, 1000):
            mid, err = zeta_tail_estimate(n, s)
            true_tail = mp.zeta(s) - mp.nsum(lambda k: k**-s, [1, n])
            assert abs(float(true_tail) - mid) <= err


def test_zeta_tail_estimate_domain():
    with pytest.raises(ValueError):
        zeta_tail_estimate(5, 2)
    with pytest.raises(ValueError):
        zeta_tail_estimate(100, 1)


def test_mzv_zeta2():
    mp.dps = 30
    v = mzv((2,), 1e-8)
    assert v.bound <= 1e-8
    assert abs(v.value - float(mp.pi**2 / 6)) <= v.bound


def test_mzv_zeta3():
    mp.dps = 30
    v = mzv((3,), 1e-9)
    assert abs(v.value - float(mp.zeta(3))) <= v.bound


def test_mzv_euler_identity():
    # zeta(2,1) sums H_(n-1)/n^2 and collapses to zeta(3)
    mp.dps = 30
    v = mzv((2, 1), 1e-6)
    assert abs(v.value - float(mp.zeta(3))) <= v.bound


def test_mzv_zeta22_closed_form():
    mp.dps = 30
    v = mzv((2, 2), 1e-6)
    assert abs(v.value - float(mp.pi**4 / 120)) <= v.bound


def test_mzv_62_against_direct_summation():
    # independent oracle: straight double sum at high precision plus a
    # rigorous tail cap sum_(m>400) m^-6 * zeta(2)
    mp.dps = 30
    inner = mp.mpf(0)
    total = mp.mpf(0)
    for m in range(1, 401):
        if m > 1:
            total += mp.mpf(m) ** -6 * inner
        inner += mp.mpf(m) ** -2
    tail = mp.zeta(2) * mp.mpf(400) ** -5 / 5
    v = mzv((6, 2), 1e-6)
    assert abs(v.value - float(total)) <= v.bound + float(tail)


def test_mzv_62_plus_26_reflection():
    mp.dps = 30
    expected = mp.zeta(2) * mp.zeta(6) - mp.zeta(8)
    a = mzv((6, 2), 1e-6)
    b = mzv((2, 6), 1e-6)
    assert abs(a.value + b.value - float(expected)) <= a.bound + b.bound


def test_mzv_depth_three():
    # zeta(2,1,1) = zeta(4); forced by duality, and a good depth-3 exercise.
    # Two trailing ones push the certified-tail cost up, hence the looser tol.
    mp.dps = 30
    v = mzv((2, 1, 1), 1e-5)
    assert abs(v.value - float(mp.pi**4 / 90)) <= v.bound


# The stream spends its time on the deepest rung the ladder picks,
# N = 3 276 800; duality gives zeta(2,1^(k-2)) = zeta(k).
@pytest.mark.parametrize(
    "comp, tol, k",
    [((2, 1), 4e-7, 3), ((2, 1, 1), 7.3e-6, 4), ((2, 1, 1, 1), 1.4e-4, 5)],
)
def test_mzv_at_the_deepest_rung(comp, tol, k):
    mp.dps = 30
    v, n = mzv_info(comp, tol)
    assert n == 3_276_800
    assert abs(v.value - float(mp.zeta(k))) <= v.bound <= tol


def test_mzv_bound_contains_refined_value():
    coarse = mzv((2, 2), 1e-4)
    fine = mzv((2, 2), 1e-8)
    assert abs(coarse.value - fine.value) <= coarse.bound


def test_mzv_explicit_cutoff_is_honest():
    mp.dps = 30
    v, n = mzv_info((2,), 1e-2, cutoff=1000)
    assert n == 1000
    assert abs(v.value - float(mp.pi**2 / 6)) <= v.bound


@pytest.mark.parametrize("cutoff", [99, MAX_CUTOFF + 1, 150.5, True])
def test_mzv_explicit_cutoff_must_be_an_int_in_range(cutoff):
    with pytest.raises(ValueError, match="cutoff must be an int"):
        mzv_info((2,), 1e-2, cutoff=cutoff)


def _nested_sum(comp, N):
    """_dp_sum's (partial, carries) in pure Python: each level's terms from
    the previous level's exclusive prefix, every total by math.fsum."""
    prefix = [1.0] * N
    carries = {}
    for j in range(len(comp), 0, -1):
        terms = [m ** -comp[j - 1] * t for m, t in zip(range(1, N + 1), prefix)]
        if j == 1:
            return math.fsum(terms), carries
        carries[j] = math.fsum(terms)
        prefix = [0.0, *itertools.accumulate(terms)][:N]


@pytest.mark.parametrize(
    "N", [100, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK, 2 * BLOCK + 37]
)
@pytest.mark.parametrize(
    "comp", [(2,), (2, 1), (3, 1, 2), (2, 1, 1, 1), (2, 2, 2, 2, 2), (1,)]
)
def test_dp_sum_matches_nested_sum_across_block_boundaries(comp, N):
    partial, carries = _dp_sum(comp, N)
    want_partial, want_carries = _nested_sum(comp, N)
    slop = _slop(len(comp), N, want_partial + sum(want_carries.values()) + 1.0)
    assert abs(partial - want_partial) <= slop
    assert carries.keys() == want_carries.keys()
    for j, carry in carries.items():
        assert abs(carry - want_carries[j]) <= slop, j


def _ulps_off(got, n, s):
    exact = Fraction(1, n**s)
    return abs(Fraction(got) - exact) / Fraction(math.ulp(float(exact)))


def _sample_n(count):
    rng = random.Random(16)
    return [1, BLOCK - 1, BLOCK, BLOCK + 1, MAX_CUTOFF] + [
        rng.randint(2, MAX_CUTOFF) for _ in range(count)
    ]


@pytest.mark.parametrize("s", [1, 2])
def test_power_rows_below_three_are_correctly_rounded(s):
    import numpy as np

    ns = _sample_n(2000)
    row = np.empty(len(ns))
    _power_row(np.array(ns, dtype=float), s, row)
    assert row.tolist() == [float(Fraction(1, n**s)) for n in ns]


def test_power_rows_from_three_are_faithful():
    import numpy as np

    ns = _sample_n(4000)
    row = np.empty(len(ns))
    for s in range(3, 13):
        _power_row(np.array(ns, dtype=float), s, row)
        assert max(_ulps_off(x, n, s) for x, n in zip(row.tolist(), ns)) < 1, s


def test_dp_sum_memory_does_not_grow_with_the_cutoff():
    _dp_sum((2,), 100)  # numpy loaded before tracing
    tracemalloc.start()
    try:
        _dp_sum((2, 1, 1, 1), 3_276_800)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # six rows of BLOCK doubles (n, two power rows, vals, terms, and one to
    # spare) plus 64 KB for the lane rows and numpy's small temporaries
    assert peak < 6 * BLOCK * 8 + 64 * 1024


def test_mzv_largest_cutoff_fits_in_1gb():
    # the CLI's ladder never picks the largest rung for (2,1), so the
    # library call asks for it explicitly
    mp.dps = 30
    script = (
        "from gammagenus.numeric import MAX_CUTOFF, mzv_info\n"
        "v, n = mzv_info((2, 1), 1e-2, cutoff=MAX_CUTOFF)\n"
        "print(repr(v.value), repr(v.bound), n)\n"
    )

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    res = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=300,
        preexec_fn=cap_address_space,
    )
    assert res.returncode == 0, res.stderr
    value, bound, n = res.stdout.split()
    assert int(n) == 20_000_000
    # zeta(2,1) = zeta(3)
    assert abs(float(value) - float(mp.zeta(3))) <= float(bound)


def test_mzv_divergent():
    with pytest.raises(DivergentMzvError):
        mzv((1, 2), 1e-6)
    with pytest.raises(DivergentMzvError, match=r"^zeta\(1\) diverges"):
        mzv((1,), 1e-6)


def test_mzv_unreachable_tolerance_reports_none():
    # rounding slop grows with the cutoff, so 1e-14 can never be certified
    with pytest.raises(CutoffBudgetError) as info:
        mzv((2,), 1e-14)
    # no cutoff helps, so the message spells zeta(2) and advises only the
    # tolerance
    message = str(info.value)
    assert message.startswith("tolerance 1e-14 for zeta(2) needs more than")
    assert message.endswith("relax the tolerance")
    assert "max_cutoff" not in message


def test_distinct_mzv_requests_do_not_grow_the_process():
    # a stream of distinct requests keeps no result: once the plan of (2,1)
    # is built, 2000 tolerances retain next to nothing
    mzv((2, 1), 1e-3)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(2000):
            mzv((2, 1), 1e-3 * (1 + i / 2000))
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 4096


# (composition, tol) -> the cutoff mzv_info chooses, or the message of the
# CutoffBudgetError it raises, as the ladder decided them rung by rung.
# Every stream family appears; a tolerance listed with its two float
# neighbours is a rung's predicted bound over 0.8, where the choice flips
# between rungs or to a refusal.
MZV_DECISIONS = [
    ((3,), 1e-11, 100),
    ((12,), 0.001, 100),
    ((2, 1), 0.001, 800),
    ((2, 1), 3.7e-06, 204800),
    ((2, 1), 1e-08, (
        "tolerance 1e-08 for zeta(2,1) needs "
        "more than 64-bit summation can certify; "
        "the tightest it certifies is 4.0e-07; "
        "relax the tolerance"
    )),
    ((5, 1), 3.7e-06, 100),
    ((5, 1), 1e-11, (
        "tolerance 1e-11 for zeta(5,1) needs "
        "more than 64-bit summation can certify; "
        "the tightest it certifies is 1.2e-11; "
        "relax the tolerance"
    )),
    ((7, 1), 1e-11, 100),
    ((2, 1, 1), 0.001, 12800),
    ((2, 1, 1), 3.7e-06, (
        "tolerance 3.7e-06 for zeta(2,1,1) needs "
        "more than 64-bit summation can certify; "
        "the tightest it certifies is 7.3e-06; "
        "relax the tolerance"
    )),
    ((2, 1, 1, 1), 0.001, 204800),
    ((2, 1, 1, 1), 3.7e-06, (
        "tolerance 3.7e-06 for zeta(2,1,1,1) needs "
        "more than 64-bit summation can certify; "
        "the tightest it certifies is 1.4e-04; "
        "relax the tolerance"
    )),
    ((2, 2), 3.7e-06, 800),
    ((2, 2), 1e-08, 12800),
    ((2, 2), 1e-11, (
        "tolerance 1e-11 for zeta(2,2) needs "
        "more than 64-bit summation can certify; "
        "the tightest it certifies is 1.1e-09; "
        "relax the tolerance"
    )),
    ((2, 2, 2, 2, 2), 3.7e-06, 1600),
    ((2, 2, 2, 2, 2), 1e-08, 25600),
    ((2, 2, 2, 2, 2), 1e-11, (
        "tolerance 1e-11 for zeta(2,2,2,2,2) needs "
        "more than 64-bit summation can certify; "
        "the tightest it certifies is 9.0e-09; "
        "relax the tolerance"
    )),
    ((3, 3), 1e-11, 800),
    ((6, 6), 1e-11, 100),
    ((3, 2, 2), 1e-08, 400),
    ((3, 2, 2), 1e-11, (
        "tolerance 1e-11 for zeta(3,2,2) needs "
        "more than 64-bit summation can certify; "
        "the tightest it certifies is 1.3e-10; "
        "relax the tolerance"
    )),
    ((2, 3, 2), 1e-08, 400),
    ((2, 2, 3), 3.7e-06, 800),
    ((2, 2, 3), 1e-08, 12800),
    ((4, 2, 2, 2), 1e-11, (
        "tolerance 1e-11 for zeta(4,2,2,2) needs "
        "more than 64-bit summation can certify; "
        "the tightest it certifies is 5.3e-11; "
        "relax the tolerance"
    )),
    ((2, 4, 3, 3), 1e-08, 100),
    ((2, 4, 3, 3), 1e-11, (
        "tolerance 1e-11 for zeta(2,4,3,3) needs "
        "more than 64-bit summation can certify; "
        "the tightest it certifies is 2.8e-11; "
        "relax the tolerance"
    )),
    ((2,), 6.849617797429321e-13, (
        "tolerance 6.84962e-13 for zeta(2) needs "
        "more than 64-bit summation can certify; "
        "the tightest it certifies is 6.9e-13; "
        "relax the tolerance"
    )),
    ((2,), 6.849617797429322e-13, 100),
    ((2,), 6.849617797429323e-13, 100),
    ((2, 1), 0.006875000009484148, 200),
    ((2, 1), 0.006875000009484149, 100),
    ((2, 1), 0.00687500000948415, 100),
    ((2, 1), 0.0017187500136972731, 800),
    ((2, 1), 0.0017187500136972734, 400),
    ((2, 1), 0.0017187500136972736, 400),
    ((2, 1), 5.371144553888458e-05, 25600),
    ((2, 1), 5.371144553888459e-05, 12800),
    ((2, 1), 5.3711445538884596e-05, 12800),
    ((2, 1), 3.909561898757254e-07, (
        "tolerance 3.90956e-07 for zeta(2,1) needs "
        "more than 64-bit summation can certify; "
        "the tightest it certifies is 4.0e-07; "
        "relax the tolerance"
    )),
    ((2, 1), 3.9095618987572544e-07, 3276800),
    ((2, 1), 3.909561898757255e-07, 3276800),
    ((3, 2, 2), 5.674928479302627e-07, 200),
    ((3, 2, 2), 5.674928479302628e-07, 100),
    ((3, 2, 2), 5.674928479302629e-07, 100),
    ((3, 2, 2), 8.880006239755668e-09, 800),
    ((3, 2, 2), 8.88000623975567e-09, 400),
    ((3, 2, 2), 8.880006239755671e-09, 400),
    ((2, 1, 1, 1), 0.4196594171512985, 200),
    ((2, 1, 1, 1), 0.41965941715129856, 100),
    ((2, 1, 1, 1), 0.4196594171512986, 100),
    ((2, 1, 1, 1), 0.0001358641330574868, (
        "tolerance 0.000135864 for zeta(2,1,1,1) needs "
        "more than 64-bit summation can certify; "
        "the tightest it certifies is 1.4e-04; "
        "relax the tolerance"
    )),
    ((2, 1, 1, 1), 0.00013586413305748682, 3276800),
    ((2, 1, 1, 1), 0.00013586413305748685, 3276800),
    ((2, 1), 1e-09, (
        "tolerance 1e-09 for zeta(2,1) needs "
        "more than 64-bit summation can certify; "
        "the tightest it certifies is 4.0e-07; "
        "relax the tolerance"
    )),
    ((2, 1, 1), 1e-08, (
        "tolerance 1e-08 for zeta(2,1,1) needs "
        "more than 64-bit summation can certify; "
        "the tightest it certifies is 7.3e-06; "
        "relax the tolerance"
    )),
    ((2, 1, 1, 1), 1e-07, (
        "tolerance 1e-07 for zeta(2,1,1,1) needs "
        "more than 64-bit summation can certify; "
        "the tightest it certifies is 1.4e-04; "
        "relax the tolerance"
    )),
    ((2,), 1e-13, (
        "tolerance 1e-13 for zeta(2) needs "
        "more than 64-bit summation can certify; "
        "the tightest it certifies is 6.9e-13; "
        "relax the tolerance"
    )),
    ((3,), 1e-15, (
        "tolerance 1e-15 for zeta(3) needs "
        "more than 64-bit summation can certify; "
        "the tightest it certifies is 6.1e-13; "
        "relax the tolerance"
    )),
]


def test_mzv_decisions_are_pinned():
    for comp, tol, want in MZV_DECISIONS:
        if isinstance(want, int):
            assert mzv_info(comp, tol)[1] == want, (comp, tol)
            continue
        with pytest.raises(CutoffBudgetError) as info:
            mzv_info(comp, tol)
        assert str(info.value) == want, (comp, tol)


def test_an_explicit_cutoff_reproduces_the_ladder_bit_for_bit():
    # the explicit path and the plan take the tail terms from one function,
    # and num.doubling relies on the two agreeing bit for bit; 70 of these
    # 90 requests are answered, the rest refused
    answered = 0
    for comp in [(2,), (3,), (2, 1), (3, 1), (2, 2), (6, 2), (2, 1, 1),
                 (3, 2, 2), (4, 2, 2, 2), (7, 1)]:
        for tol in (10.0 ** -e for e in range(3, 12)):
            try:
                laddered, N = mzv_info(comp, tol)
            except CutoffBudgetError:
                continue
            explicit, M = mzv_info(comp, tol, cutoff=N)
            assert M == N
            assert explicit.value == laddered.value, (comp, tol, N)
            assert explicit.bound == laddered.bound, (comp, tol, N)
            answered += 1
    assert answered == 70


def _compositions(weight):
    """Every composition of weight, in lexicographic order."""
    if weight == 0:
        yield ()
    for first in range(1, weight + 1):
        for rest in _compositions(weight - first):
            yield (first, *rest)


def convergent_compositions(max_weight):
    """The 2^(w-2) convergent compositions of each weight 2 <= w <= max_weight."""
    return [
        comp
        for weight in range(2, max_weight + 1)
        for comp in _compositions(weight)
        if comp[0] >= 2
    ]


# SHA-256 over every _choose_cutoff decision for the 511 convergent
# compositions of weight <= 10 at 54 tolerances from 1e-1 to 1e-14, each
# line the cutoff and tail terms in float hex or the refusal message.  Any
# change to the ladder, its bounds or its messages moves it.
LADDER_DECISIONS_SHA256 = (
    "7b73089b5c94d6799b5ea4a4ba123cfe10dc9238bf6c80a79a4a548d20235260"
)


def test_every_ladder_decision_is_pinned():
    digest = hashlib.sha256()
    tols = [10 ** (-1 - 13 * i / 53) for i in range(54)]
    for comp in convergent_compositions(10):
        for tol in tols:
            try:
                N, *tail = _choose_cutoff(comp, tol)
                line = f"{comp} {tol!r} {N} " + " ".join(map(float.hex, tail))
            except CutoffBudgetError as exc:
                line = f"{comp} {tol!r} {exc}"
            digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == LADDER_DECISIONS_SHA256


# SHA-256 over _dp_sum(comp, N) for the 127 convergent compositions of
# weight <= 8 at N = 100, 1600 and BLOCK, each line the partial and every
# carry in float hex.  A sum that fits in one block runs as one row, one
# running sum over the block, and every pinned stdout digest is built from
# such sums; any change to their arithmetic moves this.
ONE_BLOCK_SUMS_SHA256 = (
    "568fa236db5e9509476470779a1ab4e7f8f9c7c04c8d8c92740942ce4b4b5cda"
)


def test_one_block_sums_are_pinned():
    digest = hashlib.sha256()
    for comp in convergent_compositions(8):
        for N in (100, 1600, BLOCK):
            partial, carries = _dp_sum(comp, N)
            values = [partial, *(carries[j] for j in sorted(carries))]
            line = f"{comp} {N} " + " ".join(map(float.hex, values))
            digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == ONE_BLOCK_SUMS_SHA256


def _one_row_sum(comp, N):
    """_dp_sum's one-block arithmetic as one row of N fresh power entries:
    per level one running sum, shifted one place, times the next power row."""
    import numpy as np

    n = np.arange(1.0, N + 1.0)
    level = _power_row(n, comp[-1], np.empty(N))
    carries = {}
    for j in range(len(comp), 1, -1):
        csum = np.add.accumulate(level)
        carries[j] = 0.0 + float(csum[-1])
        vals = np.concatenate(([0.0], csum[:-1]))
        level = _power_row(n, comp[j - 2], np.empty(N)) * vals
    return 0.0 + float(level.sum()), carries


@pytest.mark.parametrize(
    "N",
    [100, 150, CACHED_ROW_CUTOFF - 1, CACHED_ROW_CUTOFF, CACHED_ROW_CUTOFF + 1, BLOCK],
)
def test_cached_and_fresh_power_rows_sum_to_the_same_bits(N):
    # sums up to CACHED_ROW_CUTOFF slice cached rows, longer ones compute
    # them; 150 is an explicit cutoff that is no rung
    for comp in convergent_compositions(6):
        partial, carries = _dp_sum(comp, N)
        want_partial, want_carries = _one_row_sum(comp, N)
        assert partial.hex() == want_partial.hex(), comp
        assert list(carries) == sorted(want_carries), comp
        for j, carry in carries.items():
            assert carry.hex() == want_carries[j].hex(), (comp, j)


def test_cached_power_rows_are_read_only_and_bounded():
    row = _cached_power_row(3)
    assert len(row) == CACHED_ROW_CUTOFF
    with pytest.raises(ValueError, match="read-only"):
        row[0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        row[:100] *= 2.0
    for s in range(2, 42):
        _dp_sum((s, 2), 100)
    info = _cached_power_row.cache_info()
    assert info.maxsize == POWER_CACHE_SIZE
    assert info.currsize <= info.maxsize


def test_every_refusal_names_a_tolerance_that_certifies():
    for comp in convergent_compositions(12):
        with pytest.raises(CutoffBudgetError) as info:
            _choose_cutoff(comp, 1e-30)
        _, _, named = str(info.value).partition("the tightest it certifies is ")
        tightest = float(named.partition(";")[0])
        # raises CutoffBudgetError if the named tolerance is not certified
        _choose_cutoff(comp, tightest)


def test_plan_is_built_once_per_composition(monkeypatch):
    # certified and refused tolerances alike read the one plan of (2,2)
    _plan.cache_clear()
    outcomes = set()
    for i in range(1000):
        try:
            outcomes.add(mzv_info((2, 2), 10.0 ** (-3 - 8 * i / 1000))[1])
        except CutoffBudgetError:
            outcomes.add("refused")
    assert "refused" in outcomes and len(outcomes) > 5
    info = _plan.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 999, 1)
    # and one build takes the composition's majorant constants once, not
    # once per rung: at most one _sum_majorant call per part
    calls = []

    def counted(s, r):
        calls.append((s, r))
        return sum_majorant(s, r)

    sum_majorant = numeric._sum_majorant
    monkeypatch.setattr(numeric, "_sum_majorant", counted)
    for comp in [(2,), (3,), (2, 2), (3, 1, 2), (2, 1, 1, 1), (4, 2, 2, 2)]:
        calls.clear()
        _plan.__wrapped__(comp)
        assert len(calls) <= len(comp), (comp, calls)


def test_plan_cache_is_bounded():
    _plan.cache_clear()
    comps = [(a, b) for a in range(2, 20) for b in range(2, 20)]
    comps = comps[: PLAN_CACHE_SIZE + 10]
    for comp in comps:
        mzv_info(comp, 1e-3)
    info = _plan.cache_info()
    assert info.maxsize == PLAN_CACHE_SIZE
    assert info.currsize == PLAN_CACHE_SIZE
    mzv_info(comps[-1], 1e-4)
    assert _plan.cache_info().hits == info.hits + 1


@pytest.mark.parametrize("comp", [(2, 1), (2, 1, 1), (2, 1, 1, 1)])
def test_ladder_never_passes_the_least_bound_rung(comp):
    # The predicted bound is least at 100 * 2^15 = 3 276 800, where the plan
    # ends, so the ladder never picks the 6.5M, 13.1M and 20M rungs; an
    # explicit cutoff still reaches them (test_mzv_largest_cutoff_fits_in_1gb
    # sums the top one).
    ladder = [min(100 << i, MAX_CUTOFF) for i in range(19)]
    bounds = list(_plan(comp)[::4])
    least = bounds.index(min(bounds))
    assert ladder[least:] == [3_276_800, 6_553_600, 13_107_200, MAX_CUTOFF]
    tightest = bounds[least] / 0.8
    chosen = set()
    for i in range(400):
        tol = tightest * 10.0 ** (6 * i / 400)
        chosen.add(_choose_cutoff(comp, tol)[0])
    assert max(chosen) == 3_276_800
    assert mzv_info(comp, tightest * (1 + 1e-12))[1] == 3_276_800
    with pytest.raises(CutoffBudgetError):
        mzv_info(comp, tightest * (1 - 1e-9))


def test_mzv_rejects_bad_tolerance():
    with pytest.raises(ValueError):
        mzv((2,), 0.0)
    with pytest.raises(ValueError):
        mzv((2,), -1e-6)


def test_stored_constants_against_mpmath():
    mp.dps = 60
    assert abs(mp.mpf(GAMMA_DECIMAL) - mp.euler) < mp.mpf(10) ** -49
    assert abs(mp.mpf(PI_DECIMAL) - mp.pi) < mp.mpf(10) ** -49


def test_generator_values():
    mp.dps = 30
    g = generator_value("gamma")
    assert abs(g.value - float(mp.euler)) <= g.bound
    p2 = generator_value("pi2")
    assert abs(p2.value - float(mp.pi**2)) <= p2.bound
    z3 = generator_value("zeta3")
    assert abs(z3.value - float(mp.zeta(3))) <= z3.bound
    table = generator_values(odd_limit=9)
    assert {"gamma", "pi2", "zeta3", "zeta5", "zeta7", "zeta9"} <= set(table)


def test_eval_zeta_poly_even_zeta():
    mp.dps = 30
    v = eval_zeta_poly(zeta_even(4))
    assert abs(v.value - float(mp.pi**4 / 90)) <= v.bound


def test_eval_mzv_terms():
    mp.dps = 30
    v = eval_mzv_terms([MzvTerm(Fraction(1), (2, 2))], tol=1e-7)
    assert abs(v.value - float(mp.pi**4 / 120)) <= v.bound


def test_eval_qsym_is_multiplicative_spot():
    mp.dps = 30
    prod = eval_qsym(stuffle_word_pair((2,), (3,)), tol=1e-7)
    direct = mp.zeta(2) * mp.zeta(3)
    assert abs(prod.value - float(direct)) <= prod.bound


def test_gamma_recip_coeffs_against_mpmath_taylor():
    mp.dps = 40
    oracle = mpmath.taylor(lambda t: 1 / mp.gamma(1 + t), 0, 10)
    g = gamma_recip_coeffs(10)
    assert len(g) == 11
    assert g[0].value == 1.0
    for i in range(11):
        want = float(oracle[i])
        assert abs(g[i].value - want) <= g[i].bound + 1e-14, f"coefficient {i}"


def test_gamma_recip_coeffs_leading_terms():
    mp.dps = 30
    g = gamma_recip_coeffs(3)
    assert abs(g[1].value - float(mp.euler)) <= g[1].bound + 1e-15
    want2 = float(mp.euler**2 / 2 - mp.pi**2 / 12)
    assert abs(g[2].value - want2) <= g[2].bound + 1e-15


def test_gamma_recip_coeffs_rejects_bad_degree():
    with pytest.raises(ValueError):
        gamma_recip_coeffs(-1)


@pytest.mark.parametrize("N", [True, 2.5, 2.0])
def test_gamma_recip_coeffs_needs_an_int_degree(N):
    with pytest.raises(TypeError, match="must be an int"):
        gamma_recip_coeffs(N)


def test_taylor_series_evaluates_near_direct_product():
    # degree-12 partial sums stay within 1e-6 of mpmath's 1/Gamma(1+z)
    g = gamma_recip_coeffs(12)
    for z in (-0.4, 0.5):
        acc = 0.0
        for i in range(12, -1, -1):
            acc = acc * z + g[i].value
        assert abs(acc - float(mpmath.rgamma(1 + z))) <= 1e-6


def _log_series(K):
    ell = [None, generator_value("gamma")]
    for k in range(2, K + 1):
        sign = Fraction((-1) ** (k - 1), k)
        ell.append(numeric._zeta(k).scale_fraction(sign))
    return ell


@pytest.mark.parametrize("k", range(1, 41))
def test_log_series_check_catches_a_flipped_sign(k):
    # a Taylor sum of degree 12 at sample points never sees l_13 and up
    ell = _log_series(40)
    ell[k] = -ell[k]
    with pytest.raises(ArithmeticError, match="misses its closed value"):
        _check_log_series(ell)


def test_gamma_recip_coeffs_raises_on_a_flipped_zeta(monkeypatch):
    zeta = numeric._zeta

    def flipped(k):
        value = zeta(k)
        return -value if k == 13 else value

    monkeypatch.setattr(numeric, "_zeta", flipped)
    with pytest.raises(ArithmeticError, match="misses its closed value"):
        gamma_recip_coeffs(3)
    # nothing of the failed call is kept: the true zeta passes again
    monkeypatch.undo()
    assert len(gamma_recip_coeffs(3)) == 4


def test_zeta_ball_holds_mpmath_zeta():
    mp.dps = 40
    for k in range(2, 61):
        z = numeric._zeta(k)
        want = mp.zeta(k)
        assert abs(mp.mpf(z.value) - want) <= z.bound, k
        assert z.bound <= 1e-15 * want, k


def test_every_genus_coefficient_to_degree_12_evaluates_tightly():
    # the worst is 3.3e-8, at degree 12; it grows with the degree (0.099 at 20)
    for i in range(1, 13):
        for lam, c in q_genus(i).coeffs.items():
            v = eval_zeta_poly(c)
            assert v.bound <= 1e-7 * abs(v.value), (i, lam)


def test_ring_values_run_no_mzv_and_no_numpy():
    # the single zetas of gamma_recip_coeffs and eval_zeta_poly are summed
    # without the certified-MZV ladder or its numpy kernel
    script = (
        "import sys\n"
        "from gammagenus import genus, numeric\n"
        "def refuse(*args, **kwargs):\n"
        "    raise AssertionError('the ladder was called')\n"
        "numeric.mzv = numeric.mzv_info = numeric._dp_sum = refuse\n"
        "numeric.gamma_recip_coeffs(12)\n"
        "for c in genus.q_genus(12).coeffs.values():\n"
        "    numeric.eval_zeta_poly(c)\n"
        "print('numpy' in sys.modules)\n"
    )
    res = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=300
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout == "False\n"
