"""Block-exponent encodings, continuants, continued fractions, convergents.

A directive word is encoded by its run lengths read as b-blocks at even
positions and a-blocks at odd positions; a word starting with 'a' therefore
has a leading 0.  Continuants over (shifted) exponent lists give the length,
minimal period, slope, and b-count of closure images without building them.
"""
from __future__ import annotations

from dataclasses import dataclass

from .words import Rational, Word, check_ints, check_word

IntRep = tuple[int, ...]
CfTerms = tuple[int, ...]


def to_integral(v: Word) -> IntRep:
    """Run-length exponents of v, b-blocks first: bbabaa -> (2, 1, 1, 2), ab -> (0, 1, 1).

    >>> to_integral("aaababb")
    (0, 3, 1, 1, 2)
    """
    check_word(v)
    if not v:
        return ()
    rep = [0] if v[0] == "a" else []
    run = 1
    for prev, cur in zip(v, v[1:]):
        if cur == prev:
            run += 1
        else:
            rep.append(run)
            run = 1
    rep.append(run)
    return tuple(rep)


def validate_integral(rep) -> IntRep:
    """Canonical-form gate: first entry >= 0, later entries >= 1, () for the empty word."""
    out = check_ints(rep)
    if not out:
        return out
    if out == (0,):
        raise ValueError("(0,) is not canonical; the empty word is ()")
    if out[0] < 0:
        raise ValueError("leading exponent must be >= 0")
    if any(x < 1 for x in out[1:]):
        raise ValueError("exponents after the first must be >= 1")
    return out


def from_integral(rep) -> Word:
    """Decode an exponent tuple; rejects non-canonical forms.

    >>> from_integral((0, 1))
    'a'
    """
    out = validate_integral(rep)
    return "".join(("b" if i % 2 == 0 else "a") * k for i, k in enumerate(out))


def continuant(terms) -> int:
    """K[] = 1, K[t] = t, K[..., s, t] = t * K[..., s] + K[...].

    >>> continuant((1, 2, 2, 2))
    17
    """
    prev, cur = 0, 1
    for t in check_ints(terms):
        prev, cur = cur, t * cur + prev
    return cur


def validate_cf(terms) -> CfTerms:
    """Continued-fraction terms: non-empty, head >= 0, later terms >= 1."""
    out = check_ints(terms)
    if not out:
        raise ValueError("a continued fraction needs at least one term")
    if out[0] < 0:
        raise ValueError("head term must be >= 0")
    if any(t < 1 for t in out[1:]):
        raise ValueError("terms after the head must be >= 1")
    return out


def cf_eval(terms) -> Rational:
    """Value of [a0; a1, ..., an] as an irreducible fraction.

    >>> str(cf_eval((0, 2, 2, 2)))
    '5/12'
    """
    out = validate_cf(terms)
    return Rational.reduced(continuant(out), continuant(out[1:]))


@dataclass(frozen=True)
class ConvergentTable:
    """Rows (A_k, B_k, P_k) for k = -1 .. n: numerator, denominator, and their sum."""

    terms: CfTerms
    rows: tuple[tuple[int, int, int], ...]


def convergents(terms) -> ConvergentTable:
    """Numerators and denominators of every truncation of the continued fraction."""
    out = validate_cf(terms)
    rows = [(1, 0, 1)]
    a_prev, b_prev = 1, 0
    a_cur, b_cur = out[0], 1
    rows.append((a_cur, b_cur, a_cur + b_cur))
    for t in out[1:]:
        a_prev, a_cur = a_cur, t * a_cur + a_prev
        b_prev, b_cur = b_cur, t * b_cur + b_prev
        rows.append((a_cur, b_cur, a_cur + b_cur))
    return ConvergentTable(out, tuple(rows))


def _slope_terms(rep: IntRep) -> CfTerms:
    if not rep:
        rep = (0,)
    return rep[:-1] + (rep[-1] + 1,)


def _length_terms(rep: IntRep) -> CfTerms:
    if not rep:
        rep = (0,)
    if len(rep) == 1:
        return (rep[0] + 2,)
    return (rep[0] + 1,) + rep[1:-1] + (rep[-1] + 1,)


def slope_from_directive(v: Word) -> Rational:
    """Slope of 'a' + psi(v) + 'b' evaluated by continued fraction, never materializing.

    >>> str(slope_from_directive("aabba"))
    '5/12'
    """
    return cf_eval(_slope_terms(to_integral(v)))


def christoffel_length_from_directive(v: Word) -> int:
    """|'a' + psi(v) + 'b'| as a continuant.

    >>> christoffel_length_from_directive("aabba")
    17
    """
    return continuant(_length_terms(to_integral(v)))


def minimal_period_from_directive(v: Word) -> int:
    """Minimal period of psi(v): continuant over all block exponents but the last.

    >>> minimal_period_from_directive("aabba")
    7
    """
    head = to_integral(v)[:-1]
    if not head:
        return 1
    return continuant((head[0] + 1,) + head[1:])


def bcount_from_directive(v: Word) -> int:
    """Number of 'b' letters in psi(v): the slope numerator minus 1.

    >>> bcount_from_directive("aabba")
    4
    """
    return continuant(_slope_terms(to_integral(v))) - 1


def psi_stats_from_directive(v: Word) -> tuple[int, int, int]:
    """(length, minimal period, b-count) of psi(v), all by continuants."""
    return (
        christoffel_length_from_directive(v) - 2,
        minimal_period_from_directive(v),
        bcount_from_directive(v),
    )
