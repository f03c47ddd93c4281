"""Seeded MZV request stream and its independent references.

The stream is what the `mzv-stream` workload sends: an endless, seeded
sequence of distinct requests.  Each request names one MZV family and a
tolerance drawn log-uniformly in [1e-11, 1e-3], so no two requests share a
(composition, tolerance) key and the package's per-process `mzv` cache never
hits.  The families mix fast-converging values with trailing-1 compositions,
whose cutoff grows like 1/tol and which the cutoff ladder refuses at small
tolerances.  The caller answers a refusal as the `CutoffBudgetError` message
advises: it relaxes the tolerance tenfold and asks again, so a refused request
costs its retries and is certified at a looser tolerance than it asked for.

References are computed with mpmath at 40 digits from closed forms only, so
they never share code with the summation they check.  Only this module's
`reference` imports mpmath; the stream itself is stdlib.
"""

from __future__ import annotations

import math
import random
from functools import lru_cache

# (family, weight in the mix).  Every family except "cy" is one composition
# sent to `mzv`; "cy" is the c_1 = 0 coefficient sum of a partition, sent to
# `eval_mzv_terms(mzv_expansion(lam))`.
FAMILIES = (
    ("zeta", 0.25),  # zeta(k), 2 <= k <= 12
    ("euler", 0.20),  # zeta(n,1), 2 <= n <= 7
    ("dual", 0.10),  # zeta(2,{1}^m), 1 <= m <= 3
    ("twos", 0.15),  # zeta({2}^n), 1 <= n <= 5
    ("pair", 0.15),  # zeta(a,a), 2 <= a <= 6
    ("cy", 0.15),  # sum of the distinct rearrangements of lam
)

TOL_LOG10 = (-11.0, -3.0)
# A refused request is asked again at RELAX times its tolerance, until it is
# certified or the tolerance would pass LOOSEST_TOL.
RELAX = 10.0
LOOSEST_TOL = 1e-2


def _cy_partitions(max_weight: int = 12) -> tuple:
    """Partitions of 2..max_weight with every part >= 2, ascending weight."""
    out = []

    def descend(remaining, cap, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for part in range(min(cap, remaining), 1, -1):
            descend(remaining - part, part, prefix + [part])

    for n in range(2, max_weight + 1):
        descend(n, n, [])
    return tuple(out)


CY_PARTITIONS = _cy_partitions()


def _draw_args(rng: random.Random, family: str) -> tuple:
    if family == "zeta":
        return (rng.randint(2, 12),)
    if family == "euler":
        return (rng.randint(2, 7), 1)
    if family == "dual":
        return (2,) + (1,) * rng.randint(1, 3)
    if family == "twos":
        return (2,) * rng.randint(1, 5)
    if family == "pair":
        a = rng.randint(2, 6)
        return (a, a)
    return rng.choice(CY_PARTITIONS)


def requests(seed: int):
    """Yield (index, family, args, tol) forever; the same seed, the same stream."""
    rng = random.Random(seed)
    names = [f for f, _ in FAMILIES]
    weights = [w for _, w in FAMILIES]
    seen = set()
    index = 0
    while True:
        family = rng.choices(names, weights)[0]
        args = _draw_args(rng, family)
        tol = 10.0 ** rng.uniform(*TOL_LOG10)
        if (family, args, tol) in seen:
            continue
        seen.add((family, args, tol))
        yield index, family, args, tol
        index += 1


def tolerances(tol: float):
    """The tolerances a request is asked at: tol, then relaxed until LOOSEST_TOL."""
    while tol <= LOOSEST_TOL:
        yield tol
        tol *= RELAX


# --- references ----------------------------------------------------------------


def _mp():
    import mpmath

    mpmath.mp.dps = 40
    return mpmath


def _zeta(k: int):
    return _mp().zeta(k)


def euler_double(n: int):
    """Euler: zeta(n,1) = (n/2) zeta(n+1) - 1/2 sum_{k=1}^{n-2} zeta(n-k) zeta(k+1)."""
    mp = _mp()
    total = mp.mpf(n) / 2 * _zeta(n + 1)
    for k in range(1, n - 1):
        total -= _zeta(n - k) * _zeta(k + 1) / 2
    return total


def symmetric_sum(parts):
    """Sum of zeta over the distinct rearrangements of parts (all >= 2).

    Hoffman's theorem gives the sum over all k! orderings as
    sum over set partitions P of {1..k} of (-1)^(k-|P|) prod_B (|B|-1)! zeta(sum_B);
    dividing by prod(mult!) leaves one term per distinct rearrangement.
    """
    mp = _mp()
    k = len(parts)
    total = mp.mpf(0)
    for blocks in _set_partitions(list(range(k))):
        term = mp.mpf((-1) ** (k - len(blocks)))
        for block in blocks:
            term *= math.factorial(len(block) - 1) * _zeta(sum(parts[i] for i in block))
        total += term
    for part in set(parts):
        total /= math.factorial(parts.count(part))
    return total


def _set_partitions(items):
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for blocks in _set_partitions(rest):
        yield [[head]] + blocks
        for i in range(len(blocks)):
            yield blocks[:i] + [[head] + blocks[i]] + blocks[i + 1 :]


@lru_cache(maxsize=None)
def reference(family: str, args: tuple):
    """mpmath value (40 digits) of the request's exact answer."""
    mp = _mp()
    if family == "zeta":
        return _zeta(args[0])
    if family == "euler":
        return euler_double(args[0])
    if family == "dual":
        return _zeta(len(args) + 1)
    if family == "twos":
        n = len(args)
        return mp.pi ** (2 * n) / mp.factorial(2 * n + 1)
    if family == "pair":
        a = args[0]
        return (_zeta(a) ** 2 - _zeta(2 * a)) / 2
    if family == "cy":
        return symmetric_sum(args)
    raise ValueError(f"unknown family {family!r}")


def contains(value: float, bound: float, ref) -> bool:
    """True when the certified interval value +/- bound holds the reference."""
    mp = _mp()
    return abs(mp.mpf(value) - ref) <= mp.mpf(bound)
