"""Iterated palindromic closure and its companions.

The map psi sends a finite directive word to the palindrome obtained by
closing after each letter; its images are exactly the central words.  psi
and the streams build them by Justin's formula psi(vx) = mu_v(x) psi(v),
which needs no closure at all; palindromic_closure stays the definitional
construction that justin_check compares against.  The morphism route (mu)
produces the same words by substitution and is kept strictly separate so
the routes can cross-check each other.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

from . import _kernels
from .arithmetic import minimal_period_from_directive
from .config import ensure_materializable
from .errors import NotCentralError
from .words import Word, check_letter, check_word

_EXCHANGE = str.maketrans("ab", "ba")

_RUN = re.compile("a+|b+")


def palindromic_closure(w: Word) -> Word:
    """Shortest palindrome having w as a prefix.

    >>> palindromic_closure("abaa")
    'abaaba'
    """
    check_word(w)
    q = _kernels.lps_length(w)
    ensure_materializable(2 * len(w) - q)
    head = w[: len(w) - q]
    return w + head[::-1]


def _justin(v: Word, stop: int | None = None) -> Word:
    """psi(v), or its first `stop` letters, grown from "" by Justin's step.

    The step for a letter x prepends mu_u(x) to the image and to the other
    letter's morphism image.  Along a run of k letters x, mu_u(x) does not
    change, so the whole run costs one prepend of mu_u(x) * k to each.
    Without stop, each run's projected image length is checked first, so the
    cap is hit exactly when |psi(v)| exceeds it.  With stop, the caller
    answers for the cap, and the walk ends at the run that reaches stop
    letters: psi(u x^k) = mu_u(x)^k psi(u) begins with psi(u), so the fewest
    copies of mu_u(x) that reach stop letters, then psi(u), begin with the
    answer, and as |mu_u(x)| <= |psi(u)| + 1 those copies hold at most stop
    letters.
    """
    w, ma, mb = "", "a", "b"
    for run in _RUN.finditer(v):
        i, j = run.span()
        m = ma if v[i] == "a" else mb
        if stop is None:
            ensure_materializable(len(w) + (j - i) * len(m))
        elif len(w) + (j - i) * len(m) >= stop:
            head = m * -(-(stop - len(w)) // len(m))
            return head + w[: stop - len(head)]
        block = m * (j - i)
        w = block + w
        if v[i] == "a":
            mb = block + mb
        else:
            ma = block + ma
    return w


def psi(v: Word) -> Word:
    """Iterated palindromic closure directed by v, built by Justin's formula.

    >>> psi("abba")
    'ababaababa'
    """
    check_word(v)
    return _justin(v)


def directive_word_of(w: Word) -> Word:
    """Inverse of psi: the letters following each proper palindromic prefix.

    If w = psi(v), the palindromic prefixes of w are the images of the
    prefixes of v, and their lengths follow |psi(ux)| = |psi(u)| + |mu_u(x)|
    with |mu_ux(y)| = |mu_u(y)| + |mu_u(x)| for y != x.  One pass reads the
    candidate directive off w along these lengths.  Raises NotCentralError
    when the lengths overshoot |w| or the candidate's image differs from w.
    The round trip stops at the |w| letters the caller already holds, so it
    is exempt from the materialization cap.
    """
    check_word(w)
    letters = []
    n, la, lb = 0, 1, 1
    while n < len(w):
        x = w[n]
        letters.append(x)
        if x == "a":
            n, lb = n + la, lb + la
        else:
            n, la = n + lb, la + lb
    v = "".join(letters)
    if n != len(w) or _justin(v, stop=n) != w:
        raise NotCentralError(f"not an iterated-closure image: {w[:40]!r}")
    return v


def mu(v: Word, target: Word) -> Word:
    """Composed substitution: letter 'a' contributes a -> a, b -> ab; 'b' contributes a -> ba, b -> b.

    Letters of v compose left-to-right with the rightmost applied first.  A
    run of k letters 'a' sends b -> a^k b and a run of k letters 'b' sends
    a -> b^k a, so each run costs one replace, checked against the cap first.

    >>> mu("a", "ba")
    'aba'
    """
    check_word(v)
    check_word(target)
    w = target
    for run in reversed(_RUN.findall(v)):
        y = "b" if run[0] == "a" else "a"
        ensure_materializable(len(w) + len(run) * w.count(y))
        w = w.replace(y, run + y)
    return w


def p_x(v: Word, x: str) -> int:
    """|mu_v(x)|, the x-indexed period of the closure image of v.

    Evaluated as a continuant, never by building mu_v(x): |mu_v(x)| is the
    minimal period of psi(v + x).
    """
    check_word(v)
    check_letter(x)
    return minimal_period_from_directive(v + x)


def justin_check(v: Word, u: Word) -> bool:
    """Evaluate psi(v + u) by iterated closure and mu(v, psi(u)) + psi(v) by
    substitution; True iff equal."""
    w = ""
    for x in v + u:
        w = palindromic_closure(w + x)
    return w == mu(v, psi(u)) + psi(v)


def exchange_E(w: Word) -> Word:
    """Swap the two letters everywhere."""
    check_word(w)
    return w.translate(_EXCHANGE)


def op_c(v: Word) -> Word:
    """Swap the last two letters; identity on words shorter than 2."""
    check_word(v)
    if len(v) < 2:
        return v
    return v[:-2] + v[-1] + v[-2]


def op_d(v: Word) -> Word:
    """Swap the first two letters; identity on words shorter than 2."""
    check_word(v)
    if len(v) < 2:
        return v
    return v[1] + v[0] + v[2:]


def fibonacci_directive_prefix(n: int) -> Word:
    """First n letters of the alternating directive a b a b ...

    >>> fibonacci_directive_prefix(5)
    'ababa'
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    return "ab" * (n // 2) + "a" * (n % 2)


@dataclass(frozen=True)
class DirectiveSpec:
    """Eventually periodic infinite directive word: preperiod then period forever."""

    preperiod: Word
    period: Word

    def __post_init__(self) -> None:
        check_word(self.preperiod)
        check_word(self.period)
        if not self.period:
            raise ValueError("period must be non-empty")

    @classmethod
    def parse(cls, text: str) -> "DirectiveSpec":
        """Parse 'preperiod|period', e.g. 'abb|ab' or '|ab'."""
        pre, sep, per = text.partition("|")
        if not sep:
            raise ValueError("directive spec must look like 'preperiod|period'")
        return cls(pre, per)

    def __str__(self) -> str:
        return f"{self.preperiod}|{self.period}"

    def letter(self, i: int) -> str:
        """The i-th directive letter, 0-based."""
        if i < 0:
            raise ValueError("index must be >= 0")
        if i < len(self.preperiod):
            return self.preperiod[i]
        return self.period[(i - len(self.preperiod)) % len(self.period)]

    def prefix(self, n: int) -> Word:
        """The first n directive letters."""
        if n < 0:
            raise ValueError("n must be >= 0")
        reps = (max(n - len(self.preperiod), 0) // len(self.period)) + 1
        return (self.preperiod + self.period * reps)[:n]

    def is_characteristic(self) -> bool:
        """True iff each letter recurs forever, i.e. both letters occur in the period."""
        return "a" in self.period and "b" in self.period


@dataclass(frozen=True)
class PsiStream:
    """Checkpoint of the infinite closure image: directive letters consumed so far
    and the palindrome they produce."""

    spec: DirectiveSpec
    emitted: int = 0
    current: Word = ""


def psi_stream(spec: DirectiveSpec) -> PsiStream:
    """Fresh stream positioned before the first directive letter."""
    return PsiStream(spec, 0, "")


def psi_stream_advance(s: PsiStream, steps: int) -> PsiStream:
    """Consume `steps` further directive letters; the image is rebuilt by Justin's step."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    emitted = s.emitted + steps
    return PsiStream(s.spec, emitted, _justin(s.spec.prefix(emitted)))


def stream_prefix(spec: DirectiveSpec, prefix_len: int) -> Word:
    """First prefix_len letters of the infinite closure image of spec.

    Justin's step runs along the first prefix_len directive letters and stops
    at the run whose image reaches prefix_len letters; an image is never
    shorter than its directive, so that run lies within them.  No string
    longer than prefix_len is built.
    """
    if prefix_len < 0:
        raise ValueError("prefix_len must be >= 0")
    ensure_materializable(prefix_len)
    return _justin(spec.prefix(prefix_len), stop=prefix_len)
