"""Sweeps of the certified MZV evaluator against references that share no
code with it: the closed forms of the benchmark's request stream, and
duality, ζ(s) = ζ(dual s).

mpmath has no multiple zeta function, so these are the references a new
evaluator must pass before it replaces the cutoff ladder.  The refusal
counts are pinned: an evaluator that certifies more requests lowers them,
and one that refuses more shows here.
"""

import sys
from itertools import product
from pathlib import Path

import pytest

from gammagenus import CutoffBudgetError, eval_mzv_terms, mzv, mzv_expansion

pytest.importorskip("mpmath")

# the benchmark's stream module, read only, as perfbench's own tests import it
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import stream  # noqa: E402

TOLS = [10.0**-k for k in range(3, 12)]

# every request kind the stream draws: ζ(2..12), ζ(n,1), ζ(2,1^m), ζ({2}^n),
# ζ(a,a) and the c_1 = 0 sums over the 76 partitions with parts >= 2
KINDS = (
    [("zeta", (k,)) for k in range(2, 13)]
    + [("euler", (n, 1)) for n in range(2, 8)]
    + [("dual", (2,) + (1,) * m) for m in range(1, 4)]
    + [("twos", (2,) * n) for n in range(1, 6)]
    + [("pair", (a, a)) for a in range(2, 7)]
    + [("cy", lam) for lam in stream.CY_PARTITIONS]
)


def test_every_stream_kind_holds_its_closed_form():
    assert len(KINDS) == 106
    refused, uncovered = 0, []
    for (family, args), tol in product(KINDS, TOLS):
        try:
            if family == "cy":
                value = eval_mzv_terms(mzv_expansion(args), tol)
            else:
                value = mzv(args, tol)
        except CutoffBudgetError:
            refused += 1
            continue
        if not stream.contains(value.value, value.bound, stream.reference(family, args)):
            uncovered.append((family, args, tol, value))
    assert uncovered == []
    assert refused == 130


def _compositions(weight):
    """Convergent compositions (first part >= 2) of the given weight."""
    if weight == 0:
        yield ()
        return
    for first in range(1, weight + 1):
        for rest in _compositions(weight - first):
            yield (first,) + rest


def dual(s):
    """τ(s): write s as a word in x0, x1, reverse it and swap the letters."""
    word = "".join("0" * (k - 1) + "1" for k in s)
    flipped = "".join("1" if c == "0" else "0" for c in reversed(word))
    return tuple(len(run) + 1 for run in flipped.split("1")[:-1])


def test_dual_compositions_agree():
    comps = [s for w in range(2, 11) for s in _compositions(w) if s[0] >= 2]
    assert len(comps) == 511
    assert all(dual(dual(s)) == s for s in comps)
    pairs = {frozenset((s, dual(s))) for s in comps if dual(s) != s}
    assert (len(pairs), sum(dual(s) == s for s in comps)) == (240, 31)
    refused, disagree = 0, []
    for s, t in sorted(tuple(sorted(pair)) for pair in pairs):
        try:
            a, b = mzv(s, 1e-6), mzv(t, 1e-6)
        except CutoffBudgetError:
            refused += 1
            continue
        if not a.agrees_with(b):
            disagree.append((s, t, a, b))
    assert disagree == []
    assert refused == 122
