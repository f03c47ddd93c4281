"""Floating-point evaluation with explicit absolute error bounds.

Convergent multiple zeta values are computed by nested truncated summation
over n_1 > n_2 > ... > n_k >= 1.  The truncation error is controlled
rigorously: the inner partial-sum functions are bounded by explicit
majorants A_j (1 + ln n)^{r_j} built from comparison integrals, the
outermost tail gets an Euler-Maclaurin estimate with an enveloping
remainder term, and floating-point accumulation is covered by a separate
rounding allowance.  A sum that fits in one block of BLOCK terms is one
running sum per level over fresh power rows.  The sums at the ladder's first
six rungs, up to CACHED_ROW_CUTOFF = 3200, are kept per composition, all six
from one such pass over n <= 3200 (the last 256 compositions, 18 doubles
each), so a later request at those rungs sums nothing.  A cutoff past one
block works in a few fixed cache-sized rows whatever the cutoff, each block
laid out as 16 rows of 2048 lanes, 16 consecutive n to a lane, so a running
sum is vector adds down the rows plus one short running sum across the
lanes.  Either way each running-sum entry takes at most N additions of
nonnegative terms (2 * 16 + 2048 + ceil(N / BLOCK) past one block), inside
the allowance.  Bounds are absolute and intended to be honest, not tight.

gamma and pi enter as stored decimal constants (50 digits).  A single
zeta(k), for the ring's odd generators and for 1/Gamma's log series, is the
ladder's first rung alone: 100 terms and the Euler-Maclaurin tail past them,
summed once by fsum in plain floats, within about 4.3e-16 zeta(k).  Taylor
coefficients of 1/Gamma(1+z) are produced by exponentiating the log of the
Weierstrass product, an evaluation route that never touches the symbolic
zeta homomorphism, so the two can be compared as independent checks; that
log is checked at z = 1/2 and -1/2, where the product has closed values.

numpy is imported by the summation kernel alone, on its first call, not at
import, so the symbolic commands, eval_zeta_poly and gamma_recip_coeffs
never load it.
"""

from __future__ import annotations

import math
from array import array
from fractions import Fraction
from functools import lru_cache
from math import comb

from .zetaring import (
    DivergentMzvError,
    GAMMA,
    MzvTerm,
    PI2,
    ZetaPoly,
    check_convergent_composition,
    generator_weight,
    mzv_label,
    zeta_generator_name,
)

# Per-operation rounding allowance for BoundedValue arithmetic: generous
# next to the true 2^-53 unit roundoff, so compound expressions stay honest
# without per-op ulp bookkeeping.
EPS_OP = 2.0 ** -48

# Unit roundoff allowance per accumulated float operation in the big
# summation loops (covers pow at ~2 ulp plus the running additions).
SUM_EPS = 2.5e-16

BLOCK = 1 << 15
# Rows of a _dp_sum block when N > BLOCK; each holds BLOCK // _ROWS lanes.
_ROWS = 16

FIRST_RUNG = 100
MAX_CUTOFF = 20_000_000
# Rung i of the cutoff ladder is min(FIRST_RUNG * 2^i, MAX_CUTOFF): 19 rungs.
_LADDER = tuple(min(FIRST_RUNG << i, MAX_CUTOFF) for i in range(19))

# Sums at the ladder's rungs up to this cutoff, its first six, are kept by
# _rung_sums; one pass to 25 600 would cost about 0.3 ms per composition.
CACHED_ROW_CUTOFF = _LADDER[5]

# Cutoff plans and rung sums kept, one each per composition, each well under a
# kilobyte: the 232 compositions of weight <= 12 with every part >= 2 fit.
PLAN_CACHE_SIZE = 256

GAMMA_DECIMAL = "0.57721566490153286060651209008240243104215933593992"
PI_DECIMAL = "3.14159265358979323846264338327950288419716939937510"


class CutoffBudgetError(ValueError):
    """The request cannot be certified: either no rung of the cutoff ladder
    meets the tolerance, and the message names the tightest tolerance the
    ladder does certify, or the composition's bound leaves the float range,
    and the message names the composition and says so."""


class BoundedValue:
    """A float paired with a rigorous absolute error bound.

    Both must be finite: an overflowed value or an infinite bound would make
    agrees_with hold vacuously, so the constructor raises ValueError instead.
    """

    __slots__ = ("value", "bound")

    def __init__(self, value: float, bound: float):
        value = float(value)
        bound = float(bound)
        if not (bound >= 0.0):
            raise ValueError(f"error bound must be >= 0, got {bound!r}")
        if not (math.isfinite(value) and math.isfinite(bound)):
            raise ValueError(
                f"value and error bound must be finite, got {value!r} and {bound!r}"
            )
        self.value = value
        self.bound = bound

    @classmethod
    def exact(cls, value: float) -> "BoundedValue":
        return cls(value, 0.0)

    def __add__(self, other: "BoundedValue") -> "BoundedValue":
        v = self.value + other.value
        return BoundedValue(v, self.bound + other.bound + abs(v) * EPS_OP)

    def __sub__(self, other: "BoundedValue") -> "BoundedValue":
        return self + -other

    def __neg__(self) -> "BoundedValue":
        return BoundedValue(-self.value, self.bound)

    def __mul__(self, other: "BoundedValue") -> "BoundedValue":
        v = self.value * other.value
        b = (
            abs(self.value) * other.bound
            + abs(other.value) * self.bound
            + self.bound * other.bound
            + abs(v) * EPS_OP
        )
        return BoundedValue(v, b)

    def scale_fraction(self, q) -> "BoundedValue":
        """Multiply by an exact rational, rounding once."""
        q = Fraction(q)
        v = float(Fraction(self.value) * q)
        qmag = abs(float(q)) * (1.0 + 2.0 ** -50)
        return BoundedValue(v, self.bound * qmag + abs(v) * 2.0 ** -52)

    def power(self, k: int) -> "BoundedValue":
        if k < 0:
            raise ValueError("negative powers are not supported")
        acc = BoundedValue.exact(1.0)
        for _ in range(k):
            acc = acc * self
        return acc

    def agrees_with(self, other: "BoundedValue") -> bool:
        """|self - other| <= the sum of the bounds, judged exactly: a float
        difference or sum could round down and pass a gap past the bounds."""
        gap = abs(Fraction(self.value) - Fraction(other.value))
        return gap <= Fraction(self.bound) + Fraction(other.bound)

    def to_json(self) -> dict:
        return {"value": self.value, "bound": self.bound}

    def __repr__(self) -> str:
        return f"BoundedValue({self.value!r}, bound={self.bound!r})"


# --- tail estimates -----------------------------------------------------------


def zeta_tail_estimate(N: int, s: int):
    """(midpoint, error) for sum_{n>N} n^-s, s >= 2 integer, N >= 10.

    Euler-Maclaurin through the B_4 term; for the completely monotone
    integrand x^-s the remainder is enveloped by the first omitted term.
    """
    if s < 2 or N < 10:
        raise ValueError("need s >= 2 and N >= 10")
    nf = float(N)
    mid = (
        nf ** (1 - s) / (s - 1)
        - nf ** (-s) / 2.0
        + (s / 12.0) * nf ** (-s - 1)
        - (s * (s + 1) * (s + 2) / 720.0) * nf ** (-s - 3)
    )
    err = (
        s * (s + 1) * (s + 2) * (s + 3) * (s + 4) / 30240.0 * nf ** (-s - 5)
        + abs(mid) * 1e-14
    )
    return mid, err


def tail_integral(N: float, s: int, r: int, a: int) -> float:
    """Closed form of the comparison integral

        integral_N^inf x^-s (1 + ln x)^r ln(x/N)^a dx,   s >= 2.

    Substituting x = N e^u turns each piece into a gamma integral, giving
    N^(1-s) sum_t C(r,t) (1+ln N)^(r-t) (t+a)! / (s-1)^(t+a+1).
    """
    if s < 2:
        raise ValueError("comparison integral needs s >= 2")
    base = 1.0 + math.log(N)
    total = 0.0
    for t in range(r + 1):
        total += (
            comb(r, t)
            * base ** (r - t)
            * math.factorial(t + a)
            / (s - 1.0) ** (t + a + 1)
        )
    return float(N) ** (1 - s) * total


def _sum_majorant(s: int, r: int) -> float:
    """Upper bound for sum_{m>=1} m^-s (1+ln m)^r, s >= 2.

    First nine terms directly; for m >= 10 each term is at most
    (10/9)^r times the integral over [m-1, m], since the log factor grows
    by at most a factor m/(m-1) per step.
    """
    head = sum(m ** (-float(s)) * (1.0 + math.log(m)) ** r for m in range(1, 10))
    return head + (10.0 / 9.0) ** r * tail_integral(9.0, s, r, 0)


def _majorant_chain(comp):
    """Constants A[j], r[j] with T_j(n) <= A[j] (1+ln n)^r[j].

    T_j(n) = sum_{m<n} m^-s_j T_{j+1}(m) is the level-j inner partial sum,
    T_{k+1} identically 1.  A unit exponent bumps the log power by one
    (harmonic growth), anything larger absorbs into a convergent constant.
    """
    k = len(comp)
    A = {k + 1: 1.0}
    r = {k + 1: 0}
    for j in range(k, 1, -1):
        s_j = comp[j - 1]
        if s_j >= 2:
            A[j] = A[j + 1] * _sum_majorant(s_j, r[j + 1])
            r[j] = 0
        else:
            A[j] = A[j + 1]
            r[j] = r[j + 1] + 1
    return A, r


def _tail_terms(comp, N: int, A, r) -> tuple:
    """(zeta-tail midpoint, its error, drift cap) for the tail past cutoff N.

    The tail sum_{m>N} m^-s_1 T_2(m) is split as T_2(N+1) * zeta-tail,
    estimated by zeta_tail_estimate, plus the drift
    sum_{m>N} m^-s_1 (T_2(m) - T_2(N+1)), which the cap bounds (0 at depth 1).
    """
    zmid, ez = zeta_tail_estimate(N, comp[0])
    if len(comp) == 1:
        return zmid, ez, 0.0
    s_1, s_2 = comp[0], comp[1]
    step = (1.0 + 1.0 / N) ** r[3]
    if s_2 >= 2:
        drift_max = A[3] * step * tail_integral(float(N), s_2, r[3], 0)
        return zmid, ez, drift_max * float(N) ** (1 - s_1) / (s_1 - 1)
    return zmid, ez, A[3] * step * tail_integral(float(N), s_1, r[3], 1)


def _slop(k: int, N: int, magnitude: float) -> float:
    return 3.0 * (k + 1) * N * SUM_EPS * magnitude


def _bound(t2: float, ez: float, rup: float, slop: float) -> float:
    """Tail, drift and rounding terms with headroom (actual values or caps)."""
    return (t2 * ez + 0.55 * rup + slop) * (1.0 + 1e-9)


# --- nested summation -----------------------------------------------------------


def _power_row(n, s: int, out=None):
    """n^-s elementwise, for a row n of integer-valued doubles, into out (a
    fresh row when out is None), which is returned.

    For s <= 2 each entry is one correctly rounded division of 1 by n or by
    n*n (n*n is an exact double for n < 2^26.5, past MAX_CUTOFF); for s >= 3
    numpy's power is faithful, within 1 ulp, though not correctly rounded.
    """
    import numpy as np

    if s == 1:
        return np.divide(1.0, n, out=out)
    if s == 2:
        out = np.multiply(n, n, out=out)
        return np.divide(1.0, out, out=out)
    return np.power(n, -float(s), out=out)


def _one_block(comp, N: int, at) -> tuple:
    """(level, carries) of one pass over n <= N <= BLOCK: level the N terms
    m^-s_1 T_2(m), and carries[i] the list T_2(M+1) .. T_k(M+1) at M = at[i].

    One running sum per level over fresh power rows, so every running-sum
    entry takes at most N additions.  Running sums are sequential scans and a
    power entry depends on its n alone, so the first M entries of each row
    are those of the pass over n <= M, bit for bit.
    """
    import numpy as np

    k = len(comp)
    n = np.arange(1.0, N + 1.0)
    power = {s: _power_row(n, s) for s in set(comp)}
    level = power[comp[-1]]
    carries, csum, terms = np.empty((k - 1, len(at))), np.empty(N), np.empty(N)
    terms[0] = 0.0
    for j in range(k, 1, -1):
        # level j - 1 at m is m^-s times the running sum below m
        np.add.accumulate(level, out=csum)
        carries[j - 2] = csum[[M - 1 for M in at]]
        level = terms
        np.multiply(power[comp[j - 2]][1:], csum[:-1], out=level[1:])
    if not level.min() >= 0.0:
        raise AssertionError("negative summand in a positive series")
    return level, carries.T.tolist()


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def _rung_sums(comp) -> array:
    """The partial sum, T_2(N+1) (1 at depth 1) and the carries' total at
    each rung N up to CACHED_ROW_CUTOFF, with the bits mzv_info would take
    from _dp_sum(comp, N): one _one_block pass's rows are prefix-stable,
    level[:N].sum() is numpy's pairwise sum of the same contiguous prefix,
    and the carries add in mzv_info's order, 2 .. k."""
    level, carries = _one_block(comp, CACHED_ROW_CUTOFF, _LADDER[:6])
    table = array("d")
    for N, carried in zip(_LADDER[:6], carries):
        t2 = carried[0] if carried else 1.0
        table.extend((float(level[:N].sum()), t2, sum(carried)))
    return table


def _dp_sum(comp, N: int):
    """Partial sum over n_1 <= N by blockwise dynamic programming.

    Returns (partial, carries) where partial = sum_{m<=N} m^-s_1 T_2(m) and
    carries[j] = T_j(N+1) for 2 <= j <= k.  All terms are nonnegative, which
    is asserted along the way (monotone convergence in the cutoff).  The
    sum is finite, so s_1 = 1 is valid here: (1,) gives the harmonic H_N.

    A sum with N <= BLOCK is one _one_block pass.  Past one block, rows of
    BLOCK doubles are allocated once per call, whatever N is, and each block
    is laid out as _ROWS = 16 rows of BLOCK // 16 = 2048 lanes, lane l
    holding 16 consecutive n (n[t, l] = lo + 16 l + t).  A level's running
    sum is built from the lane totals (a sum down the rows), one running sum
    over the 2048 lane totals plus the carry for row 0, and 15 row adds
    vals[t] = vals[t-1] + level[t-1]: vector adds, not one scalar chain over
    the block.  The last block keeps ceil(m / 16) lanes and sets n past N to
    infinity, so its power rows read 0 there.  Every running-sum entry is
    formed with at most 2 * 16 + 2048 + ceil(N / BLOCK) additions of
    nonnegative terms (down the rows, across the lanes, the carries, along
    the rows), fewer than N.

    So _slop's allowance of N additions per level covers every route.  The
    power rounding is one correctly rounded division for s <= 2 and within
    1 ulp for s >= 3 (_power_row), both inside SUM_EPS's allowance.
    """
    if N <= BLOCK:
        level, (carried,) = _one_block(comp, N, (N,))
        return float(level.sum()), dict(enumerate(carried, 2))
    import numpy as np

    k = len(comp)
    carry = {j: 0.0 for j in range(2, k + 1)}
    lanes = BLOCK // _ROWS
    n = np.add.outer(np.arange(1.0, _ROWS + 1.0), np.arange(0.0, BLOCK, _ROWS))
    power = {s: np.empty((_ROWS, lanes)) for s in set(comp)}
    vals, terms = np.empty((_ROWS, lanes)), np.empty((_ROWS, lanes))
    csum = np.empty(lanes)
    partial = 0.0
    for lo in range(1, N + 1, BLOCK):
        if lo > 1:
            n += BLOCK
        m = min(BLOCK, N - lo + 1)
        if m < BLOCK:
            lanes = -(-m // _ROWS)
            n, vals, terms = n[:, :lanes], vals[:, :lanes], terms[:, :lanes]
            csum = csum[:lanes]
            power = {s: row[:, :lanes] for s, row in power.items()}
            n[m - _ROWS * (lanes - 1) :, -1] = np.inf
        for s, row in power.items():
            _power_row(n, s, row)
        level = power[comp[-1]]
        for j in range(k, 1, -1):
            # running sum of the lane totals
            np.add.accumulate(np.add.reduce(level, axis=0, out=csum), out=csum)
            vals[0, 0] = carry[j]
            np.add(csum[:-1], carry[j], out=vals[0, 1:])
            carry[j] += float(csum[-1])
            for t in range(1, _ROWS):
                np.add(vals[t - 1], level[t - 1], out=vals[t])
            level = np.multiply(power[comp[j - 2]], vals, out=terms)
        if not level.min() >= 0.0:
            raise AssertionError("negative summand in a positive series")
        partial += float(level.sum())
    return partial, carry


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def _plan(comp) -> array:
    """The tolerance-free part of the cutoff choice, four doubles per rung.

    The array runs from rung 0 up to the rung whose predicted bound is least
    (no later rung can be first to meet a target) and holds, per rung, that
    bound and _tail_terms.  The bound caps the reported one: T_j(N+1) by
    A[j] (1 + ln(N+1))^r[j], and the partial sum by a constant of the
    composition.
    """
    k = len(comp)
    A, r = _majorant_chain(comp)
    partial_cap = A[2] * _sum_majorant(comp[0], r[2])
    bounds, rungs = [], array("d")
    for N in _LADDER:
        zmid, ez, rup = _tail_terms(comp, N, A, r)
        logcap = 1.0 + math.log(N + 1.0)
        # caps on T_2(N+1) .. T_k(N+1); at depth 1 the one cap is T_2 = 1
        caps = [A[j] * logcap ** r[j] for j in range(2, max(k, 2) + 1)]
        slop_cap = _slop(k, N, partial_cap + sum(caps) + 1.0)
        bounds.append(_bound(caps[0], ez, rup, slop_cap))
        rungs.extend((bounds[-1], zmid, ez, rup))
    del rungs[4 * bounds.index(min(bounds)) + 4 :]
    return rungs


def _choose_cutoff(comp, tol: float) -> tuple:
    """(N, zeta-tail midpoint, its error, drift cap) for the first rung of the
    plan whose predicted bound is at most 0.8 * tol; CutoffBudgetError if none."""
    rungs = _plan(comp)
    target = 0.8 * tol
    for i in range(0, len(rungs), 4):
        if rungs[i] <= target:
            return _LADDER[i // 4], *rungs[i + 1 : i + 4]
    tightest = rungs[-4] / 0.8
    step = 10.0 ** (math.floor(math.log10(tightest)) - 1)  # round up, 2 digits
    tightest = math.ceil(tightest / step) * step
    raise CutoffBudgetError(
        f"tolerance {tol:g} for {mzv_label(comp)} needs "
        "more than 64-bit summation can certify; "
        f"the tightest it certifies is {tightest:.1e}; relax the tolerance"
    )


def mzv_info(args, tol: float, *, cutoff=None):
    """(BoundedValue, cutoff used) for the multiple zeta value at args.

    The cutoff is normally the first rung of the fixed doubling ladder (100,
    200, 400, ... up to MAX_CUTOFF) whose predicted bound is at most
    0.8 * tol; the ladder and its bounds are planned once per composition
    and kept, and so are the sums at the first six rungs (_rung_sums), read
    whenever the cutoff is one of them; any other is summed by _dp_sum, with
    the same bits.  Passing cutoff explicitly skips the ladder (the reported
    bound is then whatever that cutoff honestly achieves, and tol is only
    checked to be positive); it must be an int from FIRST_RUNG = 100 to
    MAX_CUTOFF = 20 000 000, else ValueError.  Both paths take the tail
    terms from _tail_terms, so a cutoff the ladder chose gives the same
    value and bound bit for bit.

    The predicted bound falls with the cutoff until the rounding allowance,
    which grows with it, takes over; the ladder never goes past the rung
    where it is least.  For (2,1), (2,1,1) and (2,1,1,1) that rung is
    N = 3 276 800, so the 6 553 600, 13 107 200 and 20 000 000 rungs are
    never chosen: only an explicit cutoff reaches them.
    """
    comp = check_convergent_composition(args)
    tol = float(tol)
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    try:
        if cutoff is None:
            N, zmid, ez, rup = _choose_cutoff(comp, tol)
        else:
            if type(cutoff) is not int or not FIRST_RUNG <= cutoff <= MAX_CUTOFF:
                raise ValueError(
                    f"cutoff must be an int from {FIRST_RUNG} to {MAX_CUTOFF}, "
                    f"got {cutoff!r}"
                )
            N = cutoff
            zmid, ez, rup = _tail_terms(comp, N, *_majorant_chain(comp))
    except OverflowError:
        # a huge exponent, or a majorant's factorial after many 1s
        raise CutoffBudgetError(
            f"the error bound for {mzv_label(comp)} leaves the float range; "
            "64-bit summation cannot certify it"
        ) from None
    k = len(comp)
    if N <= CACHED_ROW_CUTOFF and N in _LADDER:
        i = 3 * _LADDER.index(N)
        partial, t2, carried = _rung_sums(comp)[i : i + 3]
    else:
        partial, carry = _dp_sum(comp, N)
        t2, carried = carry.get(2, 1.0), sum(carry.values())
    # The drift lies in [0, rup]; center it and report a touch over half the
    # width so a doubled-cutoff rerun stays inside this run's bound.
    value = partial + t2 * zmid + 0.5 * rup
    slop = _slop(k, N, partial + carried + 1.0)
    bound = _bound(t2, ez, rup, slop)
    if cutoff is None and bound > tol:
        raise AssertionError(
            f"bound {bound:g} exceeded tol {tol:g} after ladder choice"
        )
    return BoundedValue(value, bound), N


def mzv(args, tol: float) -> BoundedValue:
    """Convergent multiple zeta value with error_bound <= tol."""
    return mzv_info(args, tol)[0]


# --- generator values -----------------------------------------------------------


def _zeta(k: int) -> BoundedValue:
    """zeta(k), k >= 2: one fsum of the FIRST_RUNG terms 1/n^k, each an int
    division rounded once, and the tail's midpoint.  Those roundings stay within
    (2^-52 + 2^-106) value; headroom 2^-50 covers 2^-106 and the bound's own."""
    mid, err = zeta_tail_estimate(FIRST_RUNG, k)
    value = math.fsum([*(1 / n**k for n in range(1, FIRST_RUNG + 1)), mid])
    return BoundedValue(value, (err + 2.0 ** -52 * value) * (1.0 + 2.0 ** -50))


@lru_cache(maxsize=None)
def generator_value(name: str) -> BoundedValue:
    """gamma and pi^2 from the stored decimals, an odd zeta from _zeta."""
    if name not in (GAMMA, PI2):
        return _zeta(generator_weight(name))
    v = float(GAMMA_DECIMAL if name == GAMMA else PI_DECIMAL)
    stored = BoundedValue(v, abs(v) * 2.0 ** -52)
    return stored if name == GAMMA else stored * stored


def generator_values(odd_limit: int = 13) -> dict:
    """Numeric values for gamma, pi^2 and the odd zetas up to odd_limit."""
    out = {GAMMA: generator_value(GAMMA), PI2: generator_value(PI2)}
    for name in map(zeta_generator_name, range(3, odd_limit + 1, 2)):
        out[name] = generator_value(name)
    return out


def eval_zeta_poly(p: ZetaPoly) -> BoundedValue:
    """Evaluate a ring element; rational coefficients convert last."""
    acc = BoundedValue.exact(0.0)
    for mono, c in p.sorted_terms():
        term = BoundedValue.exact(1.0)
        for name, e in mono:
            term = term * generator_value(name).power(e)
        acc = acc + term.scale_fraction(c)
    return acc


def eval_mzv_terms(terms, tol: float = 1e-8) -> BoundedValue:
    """Evaluate a list of MzvTerm objects numerically.

    tol applies to each MZV on its own, so the bound returned is the sum of
    their bounds, each times |coeff|, plus rounding: up to sum |coeff| * tol,
    not tol.  At tol 1e-8 the 3 words of lambda = (3,2,2) give 1.84e-8, and
    the 12 of (4,3,2,2) give 5.43e-8.
    """
    acc = BoundedValue.exact(0.0)
    for term in terms:
        acc = acc + mzv(term.args, tol).scale_fraction(term.coeff)
    return acc


def eval_qsym(q, tol: float = 1e-8) -> BoundedValue:
    """Evaluate a word polynomial; every word must be convergent.

    As in eval_mzv_terms, each word is certified to tol, so the bound can
    reach sum |coeff| * tol.
    """
    return eval_mzv_terms([MzvTerm(c, w) for w, c in sorted(q.terms.items())], tol)


# --- Taylor coefficients of 1/Gamma(1+z) ----------------------------------------


def _check_log_series(ell) -> None:
    """Raise ArithmeticError unless L_K(z) = sum_{k=1..K} ell[k] z^k,
    K = len(ell) - 1, meets log P(z) at z = 1/2 and z = -1/2, where
    P(z) = e^(gamma z) prod_{n>=1} (1 + z/n) e^(-z/n) = 1/Gamma(1+z) is
    the Weierstrass product.  Its values there are closed:

        P(1/2) P(-1/2) = prod (1 - 1/(4n^2)) = 2/pi (Wallis),
        P(1/2) / P(-1/2) = e^gamma prod (2n+1)/(2n-1) e^(-1/n)
                         = lim_M (2M+1) e^(gamma - H_M) = 2 (telescoping),

    so log P(1/2) = log 2 - log(pi)/2 and log P(-1/2) = -log(pi)/2, pi
    being the stored PI_DECIMAL.  Each ell[k] z^k is exact and fsum rounds
    each sum once.  The allowance is the ell[k] bounds times 2^-k, 2^-50
    for the stored pi, the logs and the rounded sums, and the tail: each
    |l_k| past K is at most zeta(K+1)/(K+1) < 2/(K+1), and the 2^-k past K
    sum to 2^-K.  Flipping the sign of l_k moves both sums by
    2 zeta(k)/k 2^-k, at z = -1/2 always upward, the side the truncation
    already leaves that sum on (by 2.2e-14 at K = 40): past the allowance
    (4.5e-14 at K = 40) for every k <= 40.
    """
    K = len(ell) - 1
    half_log_pi = 0.5 * math.log(float(PI_DECIMAL))
    allowed = math.fsum(ell[k].bound * 2.0 ** -k for k in range(1, K + 1))
    allowed += 2.0 / (K + 1) * 2.0 ** -K + 2.0 ** -50
    for z, target in ((0.5, math.log(2.0) - half_log_pi), (-0.5, -half_log_pi)):
        total = math.fsum(ell[k].value * z ** k for k in range(1, K + 1))
        if not abs(total - target) <= allowed:
            raise ArithmeticError(
                f"log series of 1/Gamma(1+z) misses its closed value at "
                f"z={z}: |{total} - {target}| = {abs(total - target):g} > "
                f"{allowed:g}"
            )


def gamma_recip_coeffs(N: int):
    """Taylor coefficients g_0..g_N of 1/Gamma(1+z), each with a bound.

    The log of the Weierstrass product is gamma z plus a power series whose
    degree-k coefficient works out to l_k = (-1)^(k-1) zeta(k)/k;
    exponentiating through the usual recurrence n g_n = sum k l_k g_{n-k}
    gives the g_i.  The zeta inputs come from _zeta, 100 terms and the
    Euler-Maclaurin tail, never from the symbolic homomorphism, so this
    stays an independent oracle.
    Every call checks l_1..l_K, K = max(N, 40), against the Weierstrass
    product's closed values at z = 1/2 and z = -1/2 (_check_log_series),
    and a failure raises before any g_i is computed.
    """
    if type(N) is not int:
        raise TypeError(f"N must be an int, got {N!r}")
    if N < 0:
        raise ValueError("N must be >= 0")
    ell = [None, generator_value(GAMMA)]
    for k in range(2, max(N, 40) + 1):
        sign = Fraction((-1) ** (k - 1), k)
        ell.append(_zeta(k).scale_fraction(sign))
    _check_log_series(ell)
    g = [BoundedValue.exact(1.0)]
    for n in range(1, N + 1):
        acc = BoundedValue.exact(0.0)
        for k in range(1, n + 1):
            acc = acc + ell[k].scale_fraction(k) * g[n - k]
        g.append(acc.scale_fraction(Fraction(1, n)))
    return g
