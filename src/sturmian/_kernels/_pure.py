"""Pure-Python hot kernels.

Two loops carry the exhaustive verifiers: the prefix function, which answers
minimal-period and longest-palindromic-suffix queries, and the directive-tree
walk that evaluates word statistics through integer recurrences only.  Call
sites reach them through `sturmian._kernels`.
"""
from __future__ import annotations

from operator import add

BACKEND = "pure"

# The longest level list a block of the continuant walk holds before it is
# split; at least 2, so that every block's index parity reads its last letter.
_BLOCK = 1 << 11
_AB = str.maketrans("01", "ab")


def borders(s: str) -> list[int]:
    """Prefix function of a non-empty s: entry i is the longest proper border of s[:i+1]."""
    fail = [0]
    k = 0
    append = fail.append
    for c in s[1:]:
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
    a directive of length k.  No word is ever materialized.  A node holds
    (x, y) = (p, c) of its continuant pair after an 'a' and (c, p) after a
    'b'; its 'a' child is (x, x+y) and its 'b' child (x+y, y).  The root
    counts as after a 'b': (1, 1) for the length and period, (0, 1) for the
    b-count.  The length is x+y-2, the b-count x+y-1, and the period p is x
    after an 'a' and y after a 'b': in a level listed in lexicographic
    order, x at even indices and y at odd ones.

    The walk advances whole levels of (x, y) lists with C-level list steps.
    A level longer than _BLOCK is split into its 'a' half and its 'b' half,
    which wait on a stack, so memory stays O(n * _BLOCK) at any order.  The
    integers are exact at any order; the cost, 2^(n+1) - 1 nodes, is the
    only limit.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if stat not in (0, 1, 2):
        raise ValueError("stat must be 0, 1, or 2")
    x = 0 if stat == 2 else 1  # the root is (x, 1)
    # best holds the period, or x + y for the length and b-count, until the
    # shift at the end.  The root's period is its y, as after a 'b'.
    shift = (2, 0, 1)[stat]
    best = [1 if stat == 1 else x + 1] + [-1] * n
    arg: list[list[str]] = [[""]] + [[] for _ in range(n)]
    # A block is (prefix, depth, X, Y): the level at `depth` of the subtree
    # below `prefix`, 2^(depth - len(prefix)) nodes in lexicographic order.
    # The 'a'-only level 1 is one node, whose index parity still reads 'a'.
    if not n:
        stack = []
    elif a_start:
        stack = [("a", 1, [x], [x + 1])]
    else:
        stack = [("", 1, [x, x + 1], [x + 1, 1])]
    while stack:
        prefix, depth, xs, ys = stack.pop()
        sums = list(map(add, xs, ys))
        if stat == 1:
            vals = xs[:]
            vals[1::2] = ys[1::2]
        else:
            vals = sums
        top = max(vals)
        if top >= best[depth]:
            if top > best[depth]:
                best[depth] = top
                arg[depth] = []
            # Index i reads as its bits below a leading 1: 0 -> 'a', 1 -> 'b'.
            lead = len(vals)
            i = -1
            for _ in range(vals.count(top)):
                i = vals.index(top, i + 1)
                arg[depth].append(prefix + format(lead + i, "b")[1:].translate(_AB))
        if depth == n:
            continue
        xs2 = [0] * (2 * len(xs))
        xs2[0::2] = xs
        xs2[1::2] = sums
        ys2 = [0] * len(xs2)
        ys2[0::2] = sums
        ys2[1::2] = ys
        if len(xs2) > _BLOCK:
            # The 'a' half is popped first, so each depth's argmax comes
            # out sorted.
            half = len(xs)
            stack.append((prefix + "b", depth + 1, xs2[half:], ys2[half:]))
            stack.append((prefix + "a", depth + 1, xs2[:half], ys2[:half]))
        else:
            stack.append((prefix, depth + 1, xs2, ys2))
    return [(b - shift, a) for b, a in zip(best, arg)]


def arith_scan(n: int, stat: int, a_start: bool) -> tuple[int, list[str]]:
    """(maximum, lexicographically sorted argmax) of a statistic over the
    directive words of length n: the order-n entry of `arith_orders`."""
    return arith_orders(n, stat, a_start)[n]
