"""Exact rationals: the coefficient policy, "p/q" and the linear-combination base.

exact: int until a denominator appears, so integer structure constants (the
stuffle, the counted basis rows) never pay for Fraction arithmetic; equality
stays exact, since 1 == Fraction(1) and their hashes match.

LinearCombination is the one storage policy behind SymPoly (partitions),
QsymPoly (words), ZetaPoly (ring monomials), MzvValue (products of MZV
atoms) and MultiPoly (exponent vectors): a dict from a canonical key to a
nonzero exact coefficient, with the sums, scalings, equality and key-wise
products that policy implies.
"""

from __future__ import annotations

from fractions import Fraction


def exact(c):
    """c as an int if it is whole, else as a Fraction (a float by its binary value)."""
    if type(c) is int:
        return c
    q = Fraction(c)
    return q.numerator if q.denominator == 1 else q


def frac_str(q) -> str:
    """Render an exact rational as the canonical decimal-free string "p/q"."""
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


class LinearCombination:
    """Sparse exact linear combination: canonical key -> nonzero coefficient.

    The constructor is the entry for outside input.  Every key goes through
    the subclass hook ``_key``, which canonicalises it or raises ValueError,
    and every coefficient through ``_coeff`` (``exact`` unless a subclass
    stores ring elements); keys that coincide merge and zeros are dropped.
    Sums, scalings and products of canonical operands have canonical keys
    already, so they are built by ``_like``, which only drops zeros.

    A subclass's own ``__slots__`` name its extra state (SymPoly.basis,
    MultiPoly.nvars).  Results carry that state over, equality compares it,
    and combining operands whose state differs raises ValueError with the
    subclass's ``_mismatch`` message; operands of different classes do not
    combine at all (TypeError).
    """

    __slots__ = ("terms",)
    _coeff = staticmethod(exact)

    def __init__(self, terms=None):
        clean: dict = {}
        for key, c in (terms or {}).items():
            key, c = self._key(key), self._coeff(c)
            if c:
                prev = clean.get(key)
                clean[key] = c if prev is None else prev + c
        self.terms = {k: c for k, c in clean.items() if c}

    @classmethod
    def zero(cls, *state):
        return cls(*state)

    def _like(self, terms: dict):
        """An instance with self's class and state holding the nonzero terms."""
        out = object.__new__(type(self))
        for name in self.__slots__:
            setattr(out, name, getattr(self, name))
        out.terms = {k: c for k, c in terms.items() if c}
        return out

    def _check_type(self, other) -> None:
        if type(other) is not type(self):
            raise TypeError(
                f"cannot combine {type(self).__name__} with {type(other).__name__}"
            )

    def _check_compatible(self, other) -> None:
        self._check_type(other)
        if any(getattr(self, n) != getattr(other, n) for n in self.__slots__):
            raise ValueError(self._mismatch)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and all(getattr(self, n) == getattr(other, n) for n in self.__slots__)
            and self.terms == other.terms
        )

    def __add__(self, other):
        self._check_compatible(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            prev = out.get(key)
            out[key] = c if prev is None else prev + c
        return self._like(out)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return self.scaled(-1)

    def scaled(self, q):
        q = self._coeff(q)
        return self._like({key: c * q for key, c in self.terms.items()})

    def _combine(self, other, key_fn):
        """Product that multiplies coefficients and joins keys with key_fn."""
        self._check_compatible(other)
        out: dict = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                key, c = key_fn(k1, k2), c1 * c2
                prev = out.get(key)
                out[key] = c if prev is None else prev + c
        return self._like(out)
