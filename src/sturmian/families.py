"""Central, standard, and Christoffel words and their factorization laws."""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .config import ensure_materializable
from .errors import (
    NotCentralError,
    NotChristoffelError,
    NotStandardError,
    SturmianError,
)
from .palindromization import directive_word_of, p_x
from .words import Word, check_ints, check_word


def is_central(w: Word) -> bool:
    """True iff w is an iterated-palindromic-closure image (definitional round trip)."""
    check_word(w)
    if w != w[::-1]:
        return False
    try:
        directive_word_of(w)
    except NotCentralError:
        return False
    return True


@dataclass(frozen=True)
class CentralCertificate:
    """A central word with its coprime period pair (p = smaller) and directive word."""

    word: Word
    p: int
    q: int
    directive: Word


def central_certificate(w: Word) -> CentralCertificate:
    """Certify centrality: the two coprime periods with |w| = p + q - 2, plus the directive.

    >>> central_certificate("aabaabaaabaabaa").p
    7
    """
    v = directive_word_of(w)  # raises NotCentralError
    pa = p_x(v, "a")
    pb = p_x(v, "b")
    p, q = sorted((pa, pb))
    return CentralCertificate(w, p, q, v)


def central_decompose(w: Word) -> tuple[Word, Word] | None:
    """The unique pair with w = w1 + 'ab' + w2 = w2 + 'ba' + w1; None for letter powers.

    Both parts are central, |w1| + 2 and |w2| + 2 are the periods of w.

    >>> central_decompose("ababaababa")
    ('ababa', 'aba')
    """
    cert = central_certificate(w)  # raises NotCentralError
    if len(set(w)) < 2:
        return None
    for k in (cert.p - 2, cert.q - 2):
        if 0 <= k <= len(w) - 2 and w[k : k + 2] == "ab" and w == w[k + 2 :] + "ba" + w[:k]:
            return w[:k], w[k + 2 :]
    raise SturmianError(f"central word failed its structural decomposition: {w[:40]!r}")


@dataclass(frozen=True)
class StandardSequence:
    """Terms of the two-seed recurrence t_{-1} = 'b', t_0 = 'a', t_n = t_{n-1}^{c_n} t_{n-2}."""

    coefficients: tuple[int, ...]
    terms: tuple[Word, ...]

    def term(self, n: int) -> Word:
        """t_n for -1 <= n <= len(coefficients)."""
        if n < -1 or n > len(self.coefficients):
            raise ValueError(f"term index out of range: {n}")
        return self.terms[n + 1]


def standard_from_coefficients(coefficients) -> StandardSequence:
    """Build the standard sequence for (c_1, c_2, ...); c_1 >= 0, later ones >= 1.

    >>> standard_from_coefficients((1, 1, 1)).term(3)
    'abaab'
    """
    coeffs = check_ints(coefficients)
    if coeffs and coeffs[0] < 0:
        raise ValueError("the first coefficient must be >= 0")
    if any(c < 1 for c in coeffs[1:]):
        raise ValueError("coefficients after the first must be >= 1")
    terms = ["b", "a"]
    for c in coeffs:
        ensure_materializable(c * len(terms[-1]) + len(terms[-2]))
        terms.append(terms[-1] * c + terms[-2])
    return StandardSequence(coeffs, tuple(terms))


def is_standard(w: Word) -> bool:
    """True iff w is a letter or a central word followed by 'ab' or 'ba'."""
    check_word(w)
    if len(w) == 1:
        return True
    return len(w) >= 2 and w[-2:] in ("ab", "ba") and is_central(w[:-2])


def standard_decompose(w: Word) -> tuple[Word, str, str]:
    """Split a standard word of length >= 2 into (directive, x, y) with w = psi(directive) + x + y.

    >>> standard_decompose("abaab")
    ('ab', 'a', 'b')
    """
    check_word(w)
    if len(w) < 2:
        raise ValueError("standard decomposition needs length >= 2")
    if w[-2:] not in ("ab", "ba"):
        raise NotStandardError(f"not a standard word (tail {w[-2:]!r} is a repeated letter)")
    try:
        v = directive_word_of(w[:-2])
    except NotCentralError:
        raise NotStandardError(f"not a standard word: {w[:40]!r}") from None
    return v, w[-2], w[-1]


def christoffel(p: int, q: int) -> Word:
    """Christoffel word with p letters 'b' and q letters 'a' (coprime, not both zero).

    Built by Euclid's algorithm down the Christoffel tree (Berstel, Lauve,
    Reutenauer and Saliola 2008): (A, B) are the images of 'a' and 'b' under
    the morphisms composed so far. While q > p, k = (q - 1) // p steps of
    b -> ab take (p, q) to (p, q - k*p) and B to A^k B; while p > q, k steps
    of a -> ab take it to (p - k*q, q) and A to A B^k. At (1, 1) the word is
    A + B. That is O(log(p + q)) string repeats and joins, no per-letter loop.

    >>> christoffel(5, 12)
    'aaabaabaaabaabaab'
    """
    check_ints((p, q))
    if p < 0 or q < 0 or p + q == 0:
        raise ValueError("need non-negative p, q, not both zero")
    if gcd(p, q) != 1:
        raise ValueError(f"({p}, {q}) is not a coprime pair")
    if p == 0:
        return "a"
    if q == 0:
        return "b"
    ensure_materializable(p + q)
    a, b = "a", "b"
    while p != q:
        if q > p:
            k = (q - 1) // p
            q -= k * p
            b = a * k + b
        else:
            k = (p - 1) // q
            p -= k * q
            a = a + b * k
    return a + b


def is_christoffel(w: Word) -> bool:
    """True iff w is a letter or 'a' + central + 'b'.

    Tested by rebuilding the unique Christoffel word with the same letter
    counts; the central-strip characterization is checked in the test suite.
    """
    check_word(w)
    if not w:
        return False
    if len(w) == 1:
        return True
    nb = w.count("b")
    na = len(w) - nb
    if gcd(nb, na) != 1:
        return False
    return christoffel(nb, na) == w


@dataclass(frozen=True)
class ChristoffelFactorization:
    """The unique split of a Christoffel word into two Christoffel words.

    w1 < w2 lexicographically, and the factor lengths are the modular
    inverses of the letter counts: |w1| = |w|_b^(-1) and |w2| = |w|_a^(-1)
    modulo |w|.
    """

    whole: Word
    w1: Word
    w2: Word
    p_inv: int
    q_inv: int


def christoffel_factorize(w: Word) -> ChristoffelFactorization:
    """Factor a non-letter Christoffel word; w2 is its longest proper Lyndon suffix.

    The split falls at |w1| = |w|_b^(-1) mod |w| (Berstel, Lauve, Reutenauer
    and Saliola 2008); both factors are then validated by regeneration.

    >>> christoffel_factorize("aaabaabaaabaabaab").w1
    'aaabaab'
    """
    check_word(w)
    if len(w) == 1:
        raise ValueError("letter Christoffel words do not factorize")
    if not is_christoffel(w):
        raise NotChristoffelError(f"not a Christoffel word: {w[:40]!r}")
    n = len(w)
    nb = w.count("b")
    p_inv = pow(nb, -1, n)
    q_inv = pow(n - nb, -1, n)
    w1, w2 = w[:p_inv], w[p_inv:]
    if not (is_christoffel(w1) and is_christoffel(w2) and w1 < w2):
        raise SturmianError(f"factor validation failed for {w[:40]!r}")
    if len(w2) != q_inv:
        raise SturmianError(f"modular length cross-check failed for {w[:40]!r}")
    return ChristoffelFactorization(w, w1, w2, p_inv, q_inv)


def count_central(n: int) -> int:
    """How many central words have length n: Euler's totient of n + 2.

    >>> count_central(4)
    2
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    return _totient(n + 2)


def _totient(m: int) -> int:
    result = m
    d = 2
    while d * d <= m:
        if m % d == 0:
            while m % d == 0:
                m //= d
            result -= result // d
        d += 1
    if m > 1:
        result -= result // m
    return result
