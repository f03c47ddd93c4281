"""The graded coefficient ring Q[gamma, pi^2, zeta(3), zeta(5), ...].

Single zeta values at even arguments are normalized to rational multiples
of powers of pi^2 through Euler's formula with Bernoulli numbers, so the
ring's generators are gamma (weight 1), pi^2 (weight 2) and the odd zetas
zeta(2k+1) (weight 2k+1).  gamma and the odd zetas are kept as independent
atoms; no conjectural relations are ever applied.  A ZetaPoly maps
canonical monomials to rational coefficients through
rationals.LinearCombination; a generator is spelled only GAMMA, PI2 or
zeta_generator_name(k), with int exponents >= 0, so equal ring elements
are equal as ZetaPolys.

zeta_hom is the ring homomorphism from symmetric functions determined by
p_1 -> gamma and p_i -> zeta(i) for i >= 2.  It reads each p_lambda as one
monomial times an int over a denominator shared by its weight (cached per
weight), and each m_lambda from its integer Mobius row in the p basis, so
every coefficient is summed in ints and divided by prod mult_i! and that
denominator once; under zeta_hom that row is Hoffman's symmetric-sum
theorem (Multiple harmonic series, 1992).  The multiple zeta symbols here
(MzvTerm) are what the genus tables print once c_1 = 0; the word route to
the same ring values lives in words, which imports this module.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm

from .partitions import are_letters, partitions_of
from .rationals import LinearCombination, exact, frac_str
from .symfunc import SymPoly, _m_in_p, to_basis

GAMMA = "gamma"
PI2 = "pi2"


def zeta_generator_name(k: int) -> str:
    if k < 3 or k % 2 == 0:
        raise ValueError(f"odd zeta generators need odd k >= 3, got {k}")
    return f"zeta{k}"


def generator_weight(name: str) -> int:
    """Weight of a ring generator, spelled GAMMA, PI2 or zeta_generator_name(k)."""
    if name == GAMMA:
        return 1
    if name == PI2:
        return 2
    if isinstance(name, str) and name[4:].isdigit():
        k = int(name[4:])
        if k >= 3 and k % 2 == 1 and name == f"zeta{k}":
            return k
    raise ValueError(f"unknown ring generator {name!r}")


def _monomial(pairs) -> tuple:
    """Canonical monomial: (name, exponent) pairs sorted by generator weight.

    Exponents must be ints >= 0; zero exponents drop out and repeated names
    merge.
    """
    merged: dict = {}
    for name, e in pairs:
        generator_weight(name)
        if type(e) is not int or e < 0:
            raise ValueError(f"exponent of {name!r} must be an int >= 0: {e!r}")
        if e:
            merged[name] = merged.get(name, 0) + e
    return tuple(sorted(merged.items(), key=lambda t: generator_weight(t[0])))


def monomial_weight(mono) -> int:
    return sum(generator_weight(n) * e for n, e in mono)


class ZetaPoly(LinearCombination):
    """Polynomial in the ring generators with exact rational coefficients."""

    __slots__ = ()
    _key = staticmethod(_monomial)

    @classmethod
    def constant(cls, q) -> "ZetaPoly":
        return cls({(): Fraction(q)})

    @classmethod
    def one(cls) -> "ZetaPoly":
        return cls.constant(1)

    @classmethod
    def generator(cls, name: str, power: int = 1) -> "ZetaPoly":
        return cls({((name, power),): Fraction(1)})

    def __mul__(self, other: "ZetaPoly") -> "ZetaPoly":
        return self._combine(other, lambda m1, m2: _monomial(m1 + m2))

    def __pow__(self, k: int) -> "ZetaPoly":
        if k < 0:
            raise ValueError("negative powers are not in the ring")
        acc = ZetaPoly.one()
        for _ in range(k):
            acc = acc * self
        return acc

    def is_homogeneous(self, w: int) -> bool:
        return all(monomial_weight(m) == w for m in self.terms)

    def sorted_terms(self):
        """Terms in the canonical display order (gamma powers first)."""

        def mono_key(mono):
            return tuple((generator_weight(n), n, -e) for n, e in mono)

        return sorted(self.terms.items(), key=lambda t: mono_key(t[0]))

    def __repr__(self) -> str:
        body = " + ".join(f"{c}*{dict(m)}" for m, c in self.sorted_terms())
        return f"ZetaPoly({body or '0'})"


# --- Bernoulli numbers and even zeta normalization ---------------------------


@lru_cache(maxsize=None)
def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n (B_1 = -1/2), by the defining recurrence."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return Fraction(1)
    # sum_{j=0}^{n} C(n+1, j) B_j = 0
    acc = Fraction(0)
    for j in range(n):
        acc += comb(n + 1, j) * bernoulli(j)
    return -acc / (n + 1)


def zeta_even(k: int) -> ZetaPoly:
    """zeta(k) for even k >= 2, as an exact rational multiple of (pi^2)^(k/2).

    Euler: zeta(2m) = (-1)^(m+1) B_{2m} (2 pi)^(2m) / (2 (2m)!).
    """
    if k < 2 or k % 2:
        raise ValueError(f"zeta_even needs even k >= 2, got {k}")
    m = k // 2
    coeff = (
        Fraction((-1) ** (m + 1))
        * bernoulli(2 * m)
        * Fraction(2 ** (2 * m), 2 * factorial(2 * m))
    )
    return ZetaPoly({((PI2, m),): coeff})


def zeta_gen(i: int) -> ZetaPoly:
    """The ring element representing the single zeta value zeta(i), i >= 2."""
    if i < 2:
        raise ValueError(f"zeta_gen needs i >= 2, got {i}")
    if i % 2 == 0:
        return zeta_even(i)
    return ZetaPoly.generator(zeta_generator_name(i))


@lru_cache(maxsize=None)
def _power_sum_images(n: int) -> tuple:
    """(D, images) with zeta_hom(p_mu) = (a / D) * monomial for every mu |- n.

    images maps mu to (a, monomial), a an int; D is the lcm of the rational
    factors' denominators, so the images of one weight add as ints.
    """
    factors = {}
    for mu in partitions_of(n):
        q, pairs = Fraction(1), []
        for part in mu:
            if part == 1:
                pairs.append((GAMMA, 1))
            else:
                ((mono, c),) = zeta_gen(part).terms.items()
                q *= c
                pairs += mono
        factors[mu] = q, _monomial(pairs)
    D = lcm(*(q.denominator for q, _ in factors.values()))
    return D, {
        mu: (q.numerator * (D // q.denominator), mono)
        for mu, (q, mono) in factors.items()
    }


def zeta_hom(f: SymPoly) -> ZetaPoly:
    """Ring homomorphism: p_1 -> gamma, p_i -> zeta(i) for i >= 2.

    Any basis is rewritten in m first; each m_lambda is read from its integer
    row r * m_lambda = sum_mu k_mu p_mu, and each p_mu maps to one monomial
    (the factors of its parts multiply, their exponents add).  Every term is
    scaled to one common denominator, the sums run over ints, and each output
    coefficient is divided once, through rationals.exact (an int if whole).
    """
    f = to_basis(f, "m")
    rows = []
    for lam, c in f.terms.items():
        r, row = _m_in_p(lam)
        D, images = _power_sum_images(sum(lam))
        rows.append((c.numerator, c.denominator * r * D, row, images))
    common = lcm(*(den for _, den, _, _ in rows))
    out: dict = {}
    for num, den, row, images in rows:
        scale = num * (common // den)
        for mu, k in row.items():
            a, mono = images[mu]
            out[mono] = out.get(mono, 0) + scale * k * a
    return ZetaPoly.zero()._like(
        {m: exact(Fraction(n, common)) for m, n in out.items()}
    )


# --- multiple zeta symbols ----------------------------------------------------


class DivergentMzvError(ValueError):
    """Raised for compositions with first entry < 2 (the series diverges)."""


def mzv_label(args, head: str = "zeta") -> str:
    """The symbol of a composition as "zeta(6,2)", or with another head."""
    return f"{head}({','.join(str(i) for i in args)})"


def check_convergent_composition(args) -> tuple:
    comp = tuple(args)
    if not comp or not are_letters(comp):
        raise ValueError(f"composition entries must be integers >= 1: {args!r}")
    if comp[0] < 2:
        raise DivergentMzvError(
            f"{mzv_label(comp)} diverges: the first argument must be >= 2"
        )
    return comp


class MzvTerm:
    """One rational multiple of a convergent multiple zeta symbol (immutable)."""

    __slots__ = ("coeff", "args")

    def __init__(self, coeff, args):
        object.__setattr__(self, "coeff", Fraction(coeff))
        object.__setattr__(self, "args", check_convergent_composition(args))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of MzvTerm")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of MzvTerm")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.coeff, self.args) == (other.coeff, other.args)

    def __hash__(self):
        return hash((self.coeff, self.args))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(coeff={self.coeff!r}, args={self.args!r})"

    def __reduce__(self):
        return type(self), (self.coeff, self.args)

    def to_json(self) -> dict:
        return {"args": list(self.args), "coeff": frac_str(self.coeff)}


# --- JSON ---------------------------------------------------------------------


def zetapoly_to_json(p: ZetaPoly) -> list:
    out = []
    for mono, c in p.sorted_terms():
        out.append({"monomial": {n: e for n, e in mono}, "coeff": frac_str(c)})
    return out
