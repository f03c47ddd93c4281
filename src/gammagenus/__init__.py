"""Multiplicative-sequence polynomials for 1/Gamma(1+z).

The coefficient of c_lambda in the degree-i polynomial Q_i is the zeta
homomorphism applied to the monomial symmetric function m_lambda: gamma
for part 1, zeta values for larger parts, sums of convergent multiple
zeta values once c_1 = 0.  The package provides the symmetric-function
and word algebra needed to state that, numeric evaluation with rigorous
error bounds, and a CLI for tables and self-checks.

The public names are imported from their modules on first access (PEP
562), so `import gammagenus` loads nothing else and a program pays only
for the modules whose names it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "partitions": "Partition partitions_of sort_key weight",
    "symfunc": "MultiPoly SymPoly e_to_m_matrix expand_in_vars to_basis",
    "words": "MzvValue QsymPoly Word is_lyndon lyndon_decompose lyndon_factorize "
    "lyndon_recompose lyndon_words stuffle stuffle_reduce sym_to_words "
    "words_of_weight zeta_word",
    "zetaring": "MzvTerm ZetaPoly bernoulli zeta_even zeta_gen zeta_hom",
    "numeric": "BoundedValue CutoffBudgetError DivergentMzvError eval_mzv_terms "
    "eval_qsym eval_zeta_poly gamma_recip_coeffs generator_values mzv mzv_info",
    "genus": "CyGenusPolynomial GenusPolynomial mzv_expansion q_genus q_genus_cy "
    "q_genus_oracle",
    "verify": "Report run_suite",
}
_HOME = {name: mod for mod, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name):
    """Import a public name from its module and keep it in the namespace."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
