"""Symmetric functions over exact rationals in the m / e / p bases.

A SymPoly is a basis tag plus a sparse map from partitions to rational
coefficients, stored and combined by rationals.LinearCombination.  The e->m
and p->m transition matrices are counted directly (Macdonald, Symmetric
Functions and Hall Polynomials, ch. I sec. 6): the coefficient of m_mu in
e_lam is the number of 0/1 matrices with row sums lam and column sums mu,
and in p_lam it is the number of ways to place the parts of lam on len(mu)
variables so that the exponents come out as mu.  m_lam in the p basis is
an integer row counted by Mobius inversion on set partitions (Doubilet
1972); in the e basis it is the row of e_lam' less the m_mu already
rewritten, by substitution along dominance order; e <-> p goes through m.

Brute-force expansion into honest variables t_1..t_n (a MultiPoly, the
same linear-combination storage keyed by exponent vectors; see
expand_in_vars) is kept as the test oracle for the counted rows, and the
tests keep the p-basis substitution as the oracle for the Mobius rows.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import comb, factorial, prod
from operator import add

from .partitions import Partition, as_partition, partitions_of, sort_key
from .rationals import LinearCombination, exact

BASES = ("m", "e", "p")


class MultiPoly(LinearCombination):
    """Sparse polynomial in t_1..t_n with exact coefficients.

    Keys are exponent tuples of length ``nvars``.  Coefficients follow
    rationals.exact like every other linear combination: ints or Fractions,
    never floats; zeros are never stored.
    """

    __slots__ = ("nvars",)
    _mismatch = "variable counts differ"

    def __init__(self, nvars: int, terms=None):
        self.nvars = int(nvars)
        super().__init__(terms)

    def _key(self, exps) -> tuple:
        key = tuple(exps)
        if len(key) != self.nvars:
            raise ValueError(
                f"exponent vector {key} does not have {self.nvars} entries"
            )
        return key

    @classmethod
    def one(cls, nvars: int) -> "MultiPoly":
        return cls(nvars, {(0,) * nvars: 1})

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        return self._combine(other, lambda e1, e2: tuple(map(add, e1, e2)))

    def __repr__(self) -> str:
        return f"MultiPoly({self.nvars}, {self.terms!r})"


def _orbit_exponent_vectors(lam: Partition, n: int):
    """All distinct arrangements of the multiset lam padded with 0s to length n.

    They come in descending lexicographic order, by the previous-permutation
    step (Knuth, TAOCP 4A sec. 7.2.1.2, Algorithm L run downward): take the
    last i with vec[i] > vec[i+1], swap vec[i] with the rightmost smaller
    entry and reverse the tail; stop when no such i exists.
    """
    vec = sorted(lam, reverse=True) + [0] * (n - len(lam))
    out = [tuple(vec)]
    while True:
        i = n - 2
        while i >= 0 and vec[i] <= vec[i + 1]:
            i -= 1
        if i < 0:
            return out
        j = n - 1
        while vec[j] >= vec[i]:
            j -= 1
        vec[i], vec[j] = vec[j], vec[i]
        vec[i + 1 :] = vec[:i:-1]
        out.append(tuple(vec))


def _expand_element(basis: str, lam: Partition, n: int) -> MultiPoly:
    """Expansion of one basis element in n variables (the test oracle)."""
    if basis == "m":
        if len(lam) > n:
            raise ValueError(
                f"m_{lam} collapses to 0 in {n} variables; need n >= {len(lam)}"
            )
        return MultiPoly(n, {vec: 1 for vec in _orbit_exponent_vectors(lam, n)})
    # e_k is m_(1^k) and p_k is m_(k)
    out = MultiPoly.one(n)
    for k in lam:
        out = out * _expand_element("m", (1,) * k if basis == "e" else (k,), n)
    return out


class SymPoly(LinearCombination):
    """Symmetric function written in one of the bases "m", "e", "p"."""

    __slots__ = ("basis",)
    _mismatch = "mixed-basis addition; convert explicitly first"
    _key = staticmethod(as_partition)

    def __init__(self, basis: str, terms=None):
        if basis not in BASES:
            raise ValueError(f"basis must be one of {BASES}, got {basis!r}")
        self.basis = basis
        super().__init__(terms)

    @classmethod
    def basis_element(cls, basis: str, lam) -> "SymPoly":
        return cls(basis, {as_partition(lam): 1})

    def __mul__(self, other: "SymPoly") -> "SymPoly":
        """Product, routed through the p basis where it is free."""
        self._check_type(other)
        fp = to_basis(self, "p")
        product = fp._combine(
            to_basis(other, "p"),
            lambda lam, mu: tuple(sorted(lam + mu, reverse=True)),
        )
        return to_basis(product, self.basis)

    def __repr__(self) -> str:
        body = ", ".join(
            f"{lam}: {c}" for lam, c in sorted(self.terms.items(), key=lambda t: sort_key(t[0]))
        )
        return f"SymPoly({self.basis!r}, {{{body}}})"


def expand_in_vars(f: SymPoly, n: int) -> MultiPoly:
    """Expand f as an honest polynomial in t_1..t_n.

    Rejects any request where a basis element of f would degenerate to an
    untruncated-inequivalent form: m_lam needs n >= len(lam) and e_k needs
    n >= k, otherwise they collapse to 0.  With n at least the weight of f
    the expansion is faithful, which is how the oracle call sites use it.
    """
    if n < 1:
        raise ValueError("need at least one variable")
    out = MultiPoly.zero(n)
    for lam, c in f.terms.items():
        out = out + _expand_element(f.basis, lam, n).scaled(c)
    return out


# --- basis conversion ------------------------------------------------------


@lru_cache(maxsize=None)
def _coefficient(basis: str, lam: Partition, mu: Partition) -> int:
    """Coefficient of t^mu in e_lam or p_lam over len(mu) variables.

    Removes one factor at a time: p_k lowers one exponent by k, e_k lowers k
    distinct exponents by 1.  The remaining exponents are sorted, and zeros
    dropped, before the memo lookup; that is valid because the rest of the
    product is symmetric and no factor can lower a spent exponent.
    """
    if not lam:
        return int(not mu)
    k, rest = lam[0], lam[1:]
    step, width = (k, 1) if basis == "p" else (1, k)
    total = 0
    for idx in combinations(range(len(mu)), width):
        left = list(mu)
        for i in idx:
            left[i] -= step
        if min(left) >= 0:
            total += _coefficient(
                basis, rest, tuple(sorted((x for x in left if x), reverse=True))
            )
    return total


def _conjugate(lam: Partition) -> Partition:
    return tuple(sum(p > i for p in lam) for i in range(lam[0] if lam else 0))


@lru_cache(maxsize=None)
def _m_in_e(lam: Partition) -> dict:
    """m_lam in the e basis, as a map from partitions to ints.

    The counted row of e_lam' is m_lam plus m_mu terms with mu strictly below
    lam in dominance order (Macdonald I (2.3)), so m_lam = e_lam' - sum_mu
    c_mu m_mu by substitution along that order.  The map is cached and
    shared; callers must not mutate it.
    """
    lead = _conjugate(lam)
    out = {lead: 1}
    for mu, c in _row("e", "m", lead).items():
        if mu != lam:
            for nu, q in _m_in_e(mu).items():
                out[nu] = out.get(nu, 0) - c * q
    return {nu: q for nu, q in out.items() if q}


@lru_cache(maxsize=None)
def _m_in_p(lam: Partition) -> tuple:
    """(r, row) with r * m_lam = sum_mu row[mu] p_mu, all ints.

    r = prod_i mult_i(lam)!.  Mobius inversion on the lattice of set
    partitions of the parts (Doubilet 1972) gives r * m_lam as the sum over
    set partitions pi of mu(0, pi) p_(block sums of pi), where
    mu(0, pi) = prod_B (-1)^(|B|-1) (|B|-1)!.  The block holding the first
    part takes a sub-multiset T of the others, which (k_v of the r_v copies
    of each value v) happens prod_v C(r_v, k_v) ways with weight
    (-1)^|T| |T|!; the rest is the row of the parts left over.  The row is
    cached and shared; callers must not mutate it.
    """
    if not lam:
        return 1, {(): 1}
    rest = Counter(lam[1:])
    values = sorted(rest, reverse=True)
    row: dict = {}
    for ks in product(*(range(rest[v] + 1) for v in values)):
        weight = (-1) ** sum(ks) * factorial(sum(ks))
        block, left = lam[0], []
        for v, k in zip(values, ks):
            weight *= comb(rest[v], k)
            block += v * k
            left += [v] * (rest[v] - k)
        for mu, c in _m_in_p(tuple(left))[1].items():
            key = tuple(sorted(mu + (block,), reverse=True))
            row[key] = row.get(key, 0) + weight * c
    return prod(factorial(r) for r in Counter(lam).values()), row


def _row(src: str, dst: str, lam: Partition) -> dict:
    """src_lam in the dst basis, as a map that must not be mutated.

    One of src and dst is "m" (to_basis composes e <-> p through m).  The
    m -> e row is _m_in_e's cached dict itself; the other rows are
    rebuilt from the cached _m_in_p and _coefficient entries.
    """
    if src == "m":
        if dst == "e":
            return _m_in_e(lam)
        r, row = _m_in_p(lam)
        return {mu: exact(Fraction(c, r)) for mu, c in row.items()}
    return {
        mu: c for mu in partitions_of(sum(lam)) if (c := _coefficient(src, lam, mu))
    }


def e_to_m_matrix(n: int):
    """Transition matrix M with e_lam = sum_mu M[lam][mu] m_mu at weight n.

    Rows and columns follow the fixed partition order.  Entry [lam][mu]
    counts the 0/1 matrices with row sums lam and column sums mu, so the
    matrix is symmetric; the verification suites assert that, and the tests
    check every row against a brute-force expansion.
    """
    if n < 1:
        raise ValueError("weight must be >= 1")
    parts = partitions_of(n)
    rows = [_row("e", "m", lam) for lam in parts]
    return [[Fraction(row.get(mu, 0)) for mu in parts] for row in rows]


def to_basis(f: SymPoly, target: str) -> SymPoly:
    """Rewrite f exactly in the target basis ("m", "e" or "p")."""
    if target not in BASES:
        raise ValueError(f"basis must be one of {BASES}, got {target!r}")
    if f.basis == target:
        return f
    if "m" not in (f.basis, target):
        f = to_basis(f, "m")
    out: dict = {}
    for lam, a in f.terms.items():
        for mu, c in _row(f.basis, target, lam).items():
            out[mu] = out.get(mu, 0) + a * c
    return SymPoly(target, out)
