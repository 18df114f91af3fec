"""Pure-Python hot kernels.

Three operations dominate the runtime of the exhaustive verifiers:
longest-palindromic-suffix queries, minimal-period queries, and the
directive-tree scan that evaluates word statistics through integer
recurrences only.  Call sites reach them through `sturmian._kernels`.
"""
from __future__ import annotations

BACKEND = "pure"


def lps_length(s: str) -> int:
    """Length of the longest palindromic suffix of s (0 only for the empty string).

    Single left-to-right pass over the interleaved string; the first center
    whose palindrome touches the right edge is the longest suffix palindrome.
    """
    n = len(s)
    if n < 2:
        return n
    t = "\x00" + "\x00".join(s) + "\x00"
    m = len(t)
    radii = [0] * m
    center = right = 0
    for i in range(m):
        if i < right:
            k = radii[2 * center - i]
            if i + k > right:
                k = right - i
        else:
            k = 0
        while i - k - 1 >= 0 and i + k + 1 < m and t[i - k - 1] == t[i + k + 1]:
            k += 1
        radii[i] = k
        if i + k > right:
            center, right = i, i + k
        if i + k == m - 1:
            return k
    return 0


def min_period(s: str) -> int:
    """Smallest p >= 1 with s[i] == s[i+p] wherever both exist; 1 for the empty string."""
    n = len(s)
    if n == 0:
        return 1
    fail = [0] * n
    k = 0
    for i in range(1, n):
        c = s[i]
        while k > 0 and s[k] != c:
            k = fail[k - 1]
        if s[k] == c:
            k += 1
        fail[i] = k
    return n - fail[n - 1]


def arith_scan(n: int, stat: int, a_start: bool) -> tuple[int, list[str]]:
    """Maximum of a closure-image statistic over all directive words of length n.

    stat 0: image length, 1: minimal period of the image, 2: image b-count.
    a_start restricts the scan to directives beginning with 'a'.  Returns
    (maximum, lexicographically sorted argmax directives).  No word is ever
    materialized: each directive letter updates two continuant pairs, one for
    the head-incremented block exponents (length/period track) and one for
    the raw exponents (b-count track).  The continuants are Python integers,
    so any order is exact; the cost, 2^n leaves, is the only limit.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if stat not in (0, 1, 2):
        raise ValueError("stat must be 0, 1, or 2")
    best = -1
    arg: list[str] = []
    path: list[str] = []

    def walk(depth: int, last_b: bool, p1: int, c1: int, p2: int, c2: int) -> None:
        nonlocal best, arg
        if depth == n:
            if stat == 0:
                val = c1 + p1 - 2
            elif stat == 1:
                val = p1
            else:
                val = c2 + p2 - 1
            if val > best:
                best = val
                arg = ["".join(path)]
            elif val == best:
                arg.append("".join(path))
            return
        path.append("a")
        if last_b:
            walk(depth + 1, False, c1, c1 + p1, c2, c2 + p2)
        else:
            walk(depth + 1, False, p1, c1 + p1, p2, c2 + p2)
        path.pop()
        if depth > 0 or not a_start:
            path.append("b")
            if last_b:
                walk(depth + 1, True, p1, c1 + p1, p2, c2 + p2)
            else:
                walk(depth + 1, True, c1, c1 + p1, c2, c2 + p2)
            path.pop()

    # The empty directive behaves as if preceded by 'b': its exponent list
    # starts with the (possibly zero) leading b-block.
    walk(0, True, 1, 1, 1, 0)
    return best, sorted(arg)
