"""Chern-class polynomials of the multiplicative sequence for 1/Gamma(1+z).

The generating identity sum_i Q_i(e_1,...,e_i) = prod_j 1/Gamma(1+t_j)
determines the Q_i.  The direct route reads each coefficient off as the
zeta homomorphism applied to a monomial symmetric function: the coefficient
of c_lambda in Q_i is zeta_hom(m_lambda).  An independent oracle reads the
product the other way round: with G_d = zeta_hom(e_d), the coefficient of
m_mu in prod_j (sum_d G_d t_j^d) is G_mu = prod_j G_(mu_j), and each m_mu is
rewritten in the elementary basis (counted rows, then triangular
substitution along dominance order); the two must agree, and do so only
because the elementary-to-monomial transition matrix is symmetric.

Setting c_1 = 0 (the Calabi-Yau specialization) kills every partition with
a part 1, and the surviving coefficients become plain sums of convergent
multiple zeta values.
"""

from __future__ import annotations

from math import prod

from .partitions import as_partition, partitions_of, sort_key
from .symfunc import SymPoly, _m_in_e, _orbit_exponent_vectors
from .zetaring import (
    GAMMA,
    MzvTerm,
    ZetaPoly,
    zeta_gen,
    zeta_hom,
    zetapoly_to_json,
)

DEGREE_BUDGET = 12


class _Genus:
    """A degree and a map from partitions (indexing c_lambda) to coefficients."""

    __slots__ = ("degree", "coeffs")

    def sorted_terms(self):
        return [
            (lam, self.coeffs[lam])
            for lam in sorted(self.coeffs, key=sort_key)
        ]

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self.degree == other.degree
            and self.coeffs == other.coeffs
        )


class GenusPolynomial(_Genus):
    """Q_i as a map from partitions (indexing c_lambda) to ring coefficients."""

    __slots__ = ()

    def __init__(self, degree: int, coeffs: dict):
        self.degree = int(degree)
        self.coeffs = {as_partition(lam): c for lam, c in coeffs.items()}

    def validate(self) -> "GenusPolynomial":
        i = self.degree
        expected = set(partitions_of(i))
        if set(self.coeffs) != expected:
            raise ValueError(
                f"degree-{i} polynomial must have one coefficient per "
                f"partition of {i}"
            )
        for lam, c in self.coeffs.items():
            if not c.is_homogeneous(i):
                raise ValueError(f"coefficient of c_{lam} is not weight-{i}")
        lead = self.coeffs[(i,)]
        want = ZetaPoly.generator(GAMMA) if i == 1 else zeta_gen(i)
        if lead != want:
            raise ValueError(f"leading coefficient of Q_{i} is wrong")
        return self


class CyGenusPolynomial(_Genus):
    """Q_i at c_1 = 0: partitions without 1s, coefficients as MZV sums."""

    __slots__ = ()

    def __init__(self, degree: int, coeffs: dict):
        self.degree = int(degree)
        self.coeffs = {}
        for lam, terms in coeffs.items():
            lam = as_partition(lam)
            if lam and min(lam) < 2:
                raise ValueError(f"partition {lam} has a part 1")
            self.coeffs[lam] = list(terms)


def _check_degree(i: int, label: str) -> int:
    if type(i) is not int:
        raise TypeError(f"{label} degree must be an int, got {i!r}")
    if i < 1:
        raise ValueError(f"{label} degree must be >= 1, got {i}")
    if i > DEGREE_BUDGET:
        raise ValueError(
            f"{label} degree {i} is beyond the configured budget {DEGREE_BUDGET}"
        )
    return i


def q_genus(i: int) -> GenusPolynomial:
    """Q_i with the coefficient of c_lambda given by zeta_hom(m_lambda)."""
    i = _check_degree(i, "genus")
    coeffs = {}
    for lam in partitions_of(i):
        f = SymPoly.basis_element("m", lam)
        coeffs[lam] = zeta_hom(f)
    return GenusPolynomial(i, coeffs).validate()


def q_genus_oracle(i: int) -> GenusPolynomial:
    """Q_i read directly off the generating product prod_j (sum_d G_d t_j^d).

    With G_0 = 1 and G_d = zeta_hom(e_d), the monomial t^mu has coefficient
    G_mu = prod_j G_(mu_j), so the degree-i part is sum_(mu |- i) G_mu m_mu;
    each m_mu is rewritten in the elementary basis from the counted e->m
    rows by triangular substitution along dominance order.
    """
    i = _check_degree(i, "oracle")
    g = [zeta_hom(SymPoly.basis_element("e", (d,))) for d in range(1, i + 1)]
    coeffs = {lam: ZetaPoly.zero() for lam in partitions_of(i)}
    for mu in partitions_of(i):
        b = prod((g[part - 1] for part in mu), start=ZetaPoly.one())
        for lam, q in _m_in_e(mu).items():
            coeffs[lam] = coeffs[lam] + b.scaled(q)
    return GenusPolynomial(i, coeffs).validate()


def mzv_expansion(lam) -> list:
    """zeta_hom(m_lam) as a plain sum of convergent MZVs, coefficient 1 each.

    Applies only to partitions with every part >= 2; the terms are exactly
    the distinct rearrangements of the parts, i.e. the words underlying
    sym_to_words(m_lam), in ascending word order.
    """
    lam = as_partition(lam)
    if not lam or min(lam) < 2:
        raise ValueError(f"partition {lam or '()'} must have all parts >= 2")
    return [MzvTerm(1, w) for w in _orbit_exponent_vectors(lam, len(lam))]


def q_genus_cy(i: int) -> CyGenusPolynomial:
    """The c_1 = 0 restriction of Q_i, coefficients as MZV term lists."""
    i = _check_degree(i, "genus")
    if i < 2:
        raise ValueError("the c_1 = 0 specialization needs degree >= 2")
    coeffs = {}
    for lam in partitions_of(i):
        if min(lam) >= 2:
            coeffs[lam] = mzv_expansion(lam)
    return CyGenusPolynomial(i, coeffs)


# --- JSON ---------------------------------------------------------------------


def _genus_json(gp: _Genus, key: str, coeff_json) -> dict:
    return {
        "degree": gp.degree,
        "terms": [
            {"c_partition": list(lam), key: coeff_json(c)}
            for lam, c in gp.sorted_terms()
        ],
    }


def genus_to_json(gp: GenusPolynomial) -> dict:
    return _genus_json(gp, "coeff", zetapoly_to_json)


def cy_genus_to_json(gp: CyGenusPolynomial) -> dict:
    return _genus_json(gp, "mzv_terms", lambda terms: [t.to_json() for t in terms])
