"""Pure-Python hot kernels.

Two loops carry the exhaustive verifiers: the prefix function, which answers
minimal-period and longest-palindromic-suffix queries, and the directive-tree
walk that evaluates word statistics through integer recurrences only.  Call
sites reach them through `sturmian._kernels`.
"""
from __future__ import annotations

BACKEND = "pure"


def borders(s: str, fail: list[int] | None = None) -> list[int]:
    """Prefix function of a non-empty s: entry i is the longest proper border of s[:i+1].

    If `fail` is given, it must hold the prefix function of a prefix of s
    (possibly empty); it is extended in place over the rest of s and returned.
    """
    if fail is None:
        fail = []
    if not fail:
        fail.append(0)
    k = fail[-1]
    append = fail.append
    for c in s[len(fail) :]:
        if s[k] == c:
            k += 1
        else:
            while k:
                k = fail[k - 1]
                if s[k] == c:
                    k += 1
                    break
        append(k)
    return fail


def lps_length(s: str) -> int:
    """Length of the longest palindromic suffix of s (0 only for the empty string).

    A suffix of s that is a prefix of reverse(s) is a palindrome: take the
    longest border of reverse(s) + s no longer than s.
    """
    n = len(s)
    if n < 2:
        return n
    fail = borders(s[::-1] + s)
    k = fail[-1]
    while k > n:
        k = fail[k - 1]
    return k


def min_period(s: str) -> int:
    """Smallest p >= 1 with s[i] == s[i+p] wherever both exist; 1 for the empty string."""
    return len(s) - borders(s)[-1] if s else 1


def arith_orders(n: int, stat: int, a_start: bool) -> list[tuple[int, list[str]]]:
    """Maximum of a closure-image statistic over the directive words of each length 0..n.

    stat 0: image length, 1: minimal period of the image, 2: image b-count.
    a_start restricts the walk to directives beginning with 'a'.  Entry k is
    (maximum, lexicographically sorted argmax directives) over length k: one
    walk of the directive tree scores every node, and a node of depth k is
    a directive of length k.  No word is ever materialized: a switch of
    letter maps the continuant pair (p, c) to (c, c+p), a repeat to
    (p, c+p).  The root is (1, 1) for the length and period, (1, 0) for the
    b-count.  The integers are exact at any order; the cost, 2^(n+1) - 1
    nodes, is the only limit.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if stat not in (0, 1, 2):
        raise ValueError("stat must be 0, 1, or 2")
    best = [-1] * (n + 1)
    arg: list[list[str]] = [[] for _ in range(n + 1)]
    path: list[str] = []

    # Children are visited 'a' first, so each depth's argmax comes out sorted.
    def walk(depth: int, last_b: bool, p: int, c: int) -> None:
        if stat == 0:
            val = c + p - 2
        elif stat == 1:
            val = p
        else:
            val = c + p - 1
        if val > best[depth]:
            best[depth] = val
            arg[depth] = ["".join(path)]
        elif val == best[depth]:
            arg[depth].append("".join(path))
        if depth == n:
            return
        path.append("a")
        if last_b:
            walk(depth + 1, False, c, c + p)
        else:
            walk(depth + 1, False, p, c + p)
        path.pop()
        if depth > 0 or not a_start:
            path.append("b")
            if last_b:
                walk(depth + 1, True, p, c + p)
            else:
                walk(depth + 1, True, c, c + p)
            path.pop()

    # The empty directive behaves as if preceded by 'b': its exponent list
    # starts with the (possibly zero) leading b-block.
    walk(0, True, 1, 0 if stat == 2 else 1)
    return list(zip(best, arg))


def arith_scan(n: int, stat: int, a_start: bool) -> tuple[int, list[str]]:
    """(maximum, lexicographically sorted argmax) of a statistic over the
    directive words of length n: the order-n entry of `arith_orders`."""
    return arith_orders(n, stat, a_start)[n]
