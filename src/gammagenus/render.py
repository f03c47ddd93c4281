"""Plain-text rendering of ring elements, words and genus tables.

Unicode glyphs by default; the ascii flag swaps gamma, pi^2 and zeta(k)
spellings in for scripts that cannot take UTF-8.
"""

from __future__ import annotations

from collections import Counter
from decimal import ROUND_CEILING, Context
from fractions import Fraction

from .zetaring import GAMMA, PI2, ZetaPoly, generator_weight, mzv_label


def _signed_sum(terms) -> str:
    """Join (coefficient, body) pairs as "a - b + c", or "0" for no pairs.

    A piece is |coefficient| and its body, the body alone when |coefficient|
    is 1, and |coefficient| alone when the body is empty (a constant).
    """
    pieces = []
    for c, body in terms:
        q = abs(c)
        if not body:
            text = str(q)
        elif q == 1:
            text = body
        else:
            text = f"{q} {body}"
        pieces.append(("- " if c < 0 else "+ ") + text)
    if not pieces:
        return "0"
    out = " ".join(pieces)
    return out[2:] if out[0] == "+" else "-" + out[2:]


def _generator_text(name: str, power: int, ascii_mode: bool) -> str:
    if name == GAMMA:
        head = "gamma" if ascii_mode else "γ"
        return head if power == 1 else f"{head}^{power}"
    if name == PI2:
        head = "pi" if ascii_mode else "π"
        return f"{head}^{2 * power}"
    k = generator_weight(name)
    head = f"zeta({k})" if ascii_mode else f"ζ({k})"
    return head if power == 1 else f"{head}^{power}"


def format_zeta_poly(p: ZetaPoly, ascii_mode: bool = False) -> str:
    return _signed_sum(
        (c, " ".join(_generator_text(n, e, ascii_mode) for n, e in mono))
        for mono, c in p.sorted_terms()
    )


def format_qsym(q) -> str:
    return _signed_sum((c, "".join(f"z_{i}" for i in w)) for w, c in q.sorted_terms())


def format_c_monomial(lam) -> str:
    if not lam:
        return "1"
    return "".join(
        f"c_{part}" if e == 1 else f"c_{part}^{e}"
        for part, e in sorted(Counter(lam).items(), reverse=True)
    )


def format_mzv_args(args, ascii_mode: bool = False) -> str:
    return mzv_label(args, "zeta" if ascii_mode else "ζ")


def format_mzv_terms(terms, ascii_mode: bool = False) -> str:
    return _signed_sum((t.coeff, format_mzv_args(t.args, ascii_mode)) for t in terms)


def _genus_line(head: str, gp, fmt, ascii_mode: bool) -> str:
    """Join the "coefficient c_lambda" pieces after "head = ", bracketing a
    coefficient of more than one term or with a leading minus sign."""
    parts = []
    for lam, coeff in gp.sorted_terms():
        body = fmt(coeff, ascii_mode)
        terms = coeff.terms if isinstance(coeff, ZetaPoly) else coeff
        if len(terms) > 1 or body.startswith("-"):
            body = f"({body})"
        parts.append(f"{body} {format_c_monomial(lam)}")
    return f"{head} = " + " + ".join(parts)


def format_genus_line(gp, ascii_mode: bool = False) -> str:
    return _genus_line(f"Q_{gp.degree}", gp, format_zeta_poly, ascii_mode)


def format_cy_genus_line(gp, ascii_mode: bool = False) -> str:
    return _genus_line(f"Q_{gp.degree}[c_1=0]", gp, format_mzv_terms, ascii_mode)


def format_bounded(bv) -> str:
    """bv as "value +/- bound", an interval holding [value - bound, value + bound].

    The value prints as its repr.  The bound grows by the exact distance from
    those digits to the float and is rounded up to 3 significant digits.
    """
    shown = repr(bv.value)
    err = Fraction(bv.bound) + abs(Fraction(shown) - Fraction(bv.value))
    up = Context(prec=3, rounding=ROUND_CEILING).divide(err.numerator, err.denominator)
    return f"{shown} +/- {float(up):.3g}"
