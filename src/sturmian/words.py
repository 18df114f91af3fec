"""Basics over the two-letter alphabet: periods, palindromes, slope, Fibonacci numbers.

Words are plain str values over {'a', 'b'}; the empty string is the empty
word.  Every public entry point validates its word arguments.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from . import _kernels

Word = str

ALPHABET = ("a", "b")


def check_word(w: str) -> str:
    """Reject anything but a str over {'a', 'b'}; returns w unchanged.

    The letters are tested by two C-level counts, so a long word costs no
    Python work per letter.
    """
    if not isinstance(w, str):
        raise ValueError(f"word must be a str, got {type(w).__name__}: {w!r}")
    if w.count("a") + w.count("b") != len(w):
        raise ValueError(f"word must use only letters 'a' and 'b': {w!r}")
    return w


def check_letter(x: str) -> str:
    if x not in ("a", "b"):
        raise ValueError(f"letter must be 'a' or 'b': {x!r}")
    return x


def check_ints(terms) -> tuple[int, ...]:
    """Tuple of terms, each an int and not a bool; a float or str is refused, never truncated."""
    out = tuple(terms)
    for t in out:
        if type(t) is not int:
            raise ValueError(f"terms must be integers, got {t!r}")
    return out


@dataclass(frozen=True)
class Rational:
    """Irreducible non-negative fraction; the infinite slope is canonically 1/0."""

    num: int
    den: int

    def __post_init__(self) -> None:
        check_ints((self.num, self.den))
        if self.num < 0 or self.den < 0:
            raise ValueError("components must be non-negative")
        if self.den == 0:
            if self.num != 1:
                raise ValueError("the infinite value is canonically 1/0")
        elif gcd(self.num, self.den) != 1:
            raise ValueError(f"{self.num}/{self.den} is not irreducible")

    @classmethod
    def reduced(cls, num: int, den: int) -> "Rational":
        """Reduce num/den to lowest terms; den == 0 yields the infinite value."""
        if den == 0:
            if num == 0:
                raise ValueError("0/0 has no value")
            return cls(1, 0)
        g = gcd(num, den)
        return cls(num // g, den // g)

    @property
    def is_infinite(self) -> bool:
        return self.den == 0

    def __str__(self) -> str:
        return f"{self.num}/{self.den}"


RATIONAL_INF = Rational(1, 0)


def reverse(w: Word) -> Word:
    """Mirror image of w."""
    check_word(w)
    return w[::-1]


def is_palindrome(w: Word) -> bool:
    check_word(w)
    return w == w[::-1]


def has_period(w: Word, p: int) -> bool:
    """True iff w[i] == w[i+p] wherever both positions exist (vacuously for p >= |w|)."""
    check_word(w)
    if p < 1:
        raise ValueError("a period must be >= 1")
    return all(w[i] == w[i + p] for i in range(len(w) - p))


def minimal_period(w: Word) -> int:
    """Smallest period of w; 1 for the empty word."""
    check_word(w)
    return _kernels.min_period(w)


def fine_wilf_collapse(w: Word, p: int, q: int) -> bool:
    """Whether |w| reaches the threshold p + q - gcd(p, q) forcing period gcd(p, q).

    Requires that w actually has both periods; the gcd period itself is a
    theorem once the threshold is met, and callers can confirm it with
    has_period(w, gcd(p, q)).
    """
    if not (has_period(w, p) and has_period(w, q)):
        raise ValueError(f"word must have both periods {p} and {q}")
    return len(w) >= p + q - gcd(p, q)


def count_letter(w: Word, x: str) -> int:
    check_word(w)
    check_letter(x)
    return w.count(x)


def slope_eta(w: Word) -> Rational:
    """(|w|_b) / (|w|_a) in lowest terms; 1/1 for the empty word, 1/0 when a is absent."""
    check_word(w)
    if not w:
        return Rational(1, 1)
    nb = w.count("b")
    na = len(w) - nb
    if na == 0:
        return RATIONAL_INF
    return Rational.reduced(nb, na)


def fibonacci(n: int) -> int:
    """F(-1) = F(0) = 1 and F(n) = F(n-1) + F(n-2); defined for n >= -1."""
    if n < -1:
        raise ValueError("Fibonacci index must be >= -1")
    prev, cur = 1, 1
    for _ in range(n):
        prev, cur = cur, prev + cur
    return cur if n >= 0 else prev


def is_lyndon(w: Word) -> bool:
    """True iff w is non-empty and strictly smaller than every proper suffix.

    Duval's scan: w is a Lyndon word iff it is its own first Lyndon factor,
    i.e. the scan reaches the end of w with its period still |w| (k = 0).
    """
    check_word(w)
    k = 0
    for j in range(1, len(w)):
        if w[k] > w[j]:
            return False
        k = k + 1 if w[k] == w[j] else 0
    return bool(w) and k == 0
