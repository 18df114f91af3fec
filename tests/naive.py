"""Definitional reference implementations used only as test oracles.

Everything here follows the literal definitions with no algorithmic
shortcuts; the library must agree with these wherever both run.
"""
from itertools import product


def all_words(n):
    """Every word over {a, b} of length exactly n."""
    for tup in product("ab", repeat=n):
        yield "".join(tup)


def words_upto(n):
    for k in range(n + 1):
        yield from all_words(k)


def lps_naive(w):
    """Longest palindromic suffix length, by scanning lengths downward."""
    for k in range(len(w), -1, -1):
        tail = w[len(w) - k :]
        if tail == tail[::-1]:
            return k
    return 0


def closure_naive(w):
    return w + w[: len(w) - lps_naive(w)][::-1]


def psi_naive(v):
    w = ""
    for x in v:
        w = closure_naive(w + x)
    return w


def min_period_naive(w):
    """Smallest period, by testing every candidate from 1 upward."""
    n = len(w)
    if n == 0:
        return 1
    for p in range(1, n + 1):
        if all(w[i] == w[i + p] for i in range(n - p)):
            return p
    raise AssertionError("unreachable: len(w) is always a period")


def mu_naive(v, target):
    for x in reversed(v):
        target = target.replace("b", "ab") if x == "a" else target.replace("a", "ba")
    return target


def christoffel_naive(p, q):
    """Christoffel word with p letters 'b' and q letters 'a', by the letter rule.

    With n = p + q, letter i (1 <= i <= n) is 'a' when i*p mod n rose from
    (i - 1)*p mod n and 'b' when it fell.
    """
    if p == 0:
        return "a"
    if q == 0:
        return "b"
    n = p + q
    out = []
    prev = 0
    for i in range(1, n + 1):
        cur = i * p % n
        out.append("a" if cur > prev else "b")
        prev = cur
    return "".join(out)


def is_lyndon_naive(w):
    """Primitive and minimal among its rotations."""
    if not w:
        return False
    rotations = {w[i:] + w[:i] for i in range(len(w))}
    return len(rotations) == len(w) and w == min(rotations)


def compositions(n):
    """Admissible exponent lists of weight n: head >= 0, later entries >= 1."""

    def positive_tails(m):
        for first in range(1, m + 1):
            if first == m:
                yield (first,)
            else:
                for rest in positive_tails(m - first):
                    yield (first,) + rest

    if n == 0:
        yield (0,)
        return
    for head in range(n + 1):
        rest = n - head
        if rest == 0:
            yield (head,)
        else:
            for tail in positive_tails(rest):
                yield (head,) + tail


def continuant_matrix(terms):
    """Continuant as the top-left entry of the product of [[t, 1], [1, 0]] factors."""
    m00, m01, m10, m11 = 1, 0, 0, 1
    for t in terms:
        m00, m01 = t * m00 + m01, m00
        m10, m11 = t * m10 + m11, m10
    return m00


def continuant_poly5(a0, a1, a2, a3, a4):
    """Closed-form degree-5 continuant polynomial."""
    return (
        a0 * a1 * a2 * a3 * a4
        + a2 * a3 * a4
        + a0 * a3 * a4
        + a0 * a1 * a4
        + a0 * a1 * a2
        + a0
        + a2
        + a4
    )
