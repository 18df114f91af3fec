"""Exhaustive verification of the extremal laws of closure images.

Each verifier enumerates every directive word of a given length (or every
admissible exponent list of a given weight), measures the target statistic
along two fully independent routes, and compares maximum and argmax against
the closed-form prediction: the alternating directive and its images under
the letter exchange and the first/last-pair swaps, with Fibonacci-number
maxima.

Routes never mix: "materialized" builds each image and reads statistics off
the string; "arithmetic" walks the same tree updating continuant pairs and
never builds a word.  A node of depth k is a directive of length k, so one
walk per route answers every order of a `verify` run.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from itertools import repeat
from operator import add
from typing import Callable, Iterator

from . import _kernels
from .arithmetic import (
    IntRep,
    christoffel_length_from_directive,
    minimal_period_from_directive,
    psi_stats_from_directive,
    to_integral,
)
from .config import (
    ARITHMETIC_ORDER_BOUND,
    CENSUS_LENGTH_BOUND,
    MATERIALIZED_ORDER_BOUND,
    ensure_materializable,
    max_word_len,
)
from .errors import BoundExceededError
from .families import count_central
from .palindromization import (
    DirectiveSpec,
    exchange_E,
    fibonacci_directive_prefix,
    op_c,
    op_d,
    psi,
)
from .words import Word, fibonacci

MODES = ("materialized", "arithmetic")
ANY_MODE = MODES + ("both",)


@dataclass(frozen=True)
class ExtremalReport:
    """Outcome of one exhaustive scan at one order."""

    order: int
    maximum: int
    argmax: tuple
    expected_max: int
    expected_argmax: tuple
    passed: bool


def _preorder(
    top: int | None, a_start: bool = False, max_len: int | None = None
) -> Iterator[tuple[Word, Word]]:
    """Yield (v, psi(v)) for every directive word v of length at most `top`
    (of any length when top is None), parents before children and 'a'
    before 'b', so each length comes in lexicographic order.

    a_start keeps only the directives that begin with 'a'.  A node whose
    image is longer than max_len is yielded but not expanded.  Images grow
    by prepending the morphism image of the new letter, so the whole tree
    costs one string concatenation per node.
    """
    stack = [("", "", "a", "b")]
    while stack:
        v, w, ma, mb = stack.pop()
        yield v, w
        if len(v) == top or (max_len is not None and len(w) > max_len):
            continue
        if v or not a_start:
            stack.append((v + "b", mb + w, mb + ma, mb))
        stack.append((v + "a", ma + w, ma, ma + mb))


def directive_images(n: int, a_start: bool = False) -> Iterator[tuple[Word, Word]]:
    """Yield (v, psi(v)) for every directive word v of length n, in
    lexicographic order.

    The materialization cap is read once; the first image longer than it
    raises MaterializationLimitError.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    limit = max_word_len()
    for v, w in _preorder(n, a_start):
        if len(v) == n:
            if len(w) > limit:
                ensure_materializable(len(w))
            yield v, w


def _statistic(w: Word, stat: int) -> int:
    """Statistic `stat` of an image read off the string: 0 its length, 1 its
    minimal period, 2 its number of 'b' letters."""
    if stat == 0:
        return len(w)
    if stat == 1:
        return _kernels.min_period(w)
    return w.count("b")


# The longest level list a block of the materialized walk holds before it
# is split into its 'a' and 'b' halves.
_LEVEL = 1 << 6
_LETTERS = str.maketrans("01", "ab")


def _image_period(w: Word, u: Word) -> int:
    """Minimal period of w, read faster when u is a proper border of w (as
    the parent's image is of a closure image).

    If it is, any longer border of w starts where w[:|u|+1] occurs, so the
    first such occurrence p that starts a border gives the period p, and
    if none does, u is the longest border.  If u is not a proper border,
    the prefix function reads the period.
    """
    n, k = len(w), len(u)
    if not (k < n and w.startswith(u) and w.endswith(u)):
        return _kernels.min_period(w)
    head = w[: k + 1]
    p = w.find(head, 1)
    while p != -1:
        if w.startswith(w[p:]):
            return p
        p = w.find(head, p + 1)
    return n - k


def _interleave(evens, odds, size: int) -> list:
    out: list = [None] * size
    out[0::2] = evens
    out[1::2] = odds
    return out


def _push_halves(stack: list, prefix: str, depth: int, lists) -> None:
    """Push the 'b' half of a level, then its 'a' half, so the 'a' half is
    popped first and each depth's argmax comes out sorted."""
    half = len(lists[0]) // 2
    stack.append((prefix + "b", depth, *(c[half:] for c in lists)))
    stack.append((prefix + "a", depth, *(c[:half] for c in lists)))


def _materialized_orders(
    top: int, stats: tuple[int, ...]
) -> tuple[dict[int, list[tuple[int, list[Word]]]], tuple[int, int] | None]:
    """(table, over): the maximum and sorted argmax of each statistic in
    `stats` (numbered as in _statistic) over the psi images at every order
    0..top, from one walk of the directive tree; the b-count ranges over
    'a'-leading directives only, and a walk of the b-count alone visits
    only those.

    table[stat][k] is (maximum, argmax) at order k.  over is None, or
    (k, length) for the first order k with an image over the
    materialization cap and the length of its lexicographically first such
    image; such an image is not expanded, and the entries from order k on
    are then incomplete.

    The walk builds a whole level of images at a time by Justin's step: a
    node with image w and morphism pair (ma, mb) has the 'a' child ma + w
    with pair (ma, ma + mb) and the 'b' child mb + w with pair
    (mb + ma, mb).  A level lists its nodes in lexicographic order, so a
    node's index spells its letters below the block's prefix.  A level
    longer than _LEVEL is split into its 'a' and 'b' halves, which wait on
    a stack, and a level holding an image over the cap is halved down to
    that image.  Each period is read by _image_period against the parent's
    image.
    """
    limit = max_word_len()
    a_only, periods = stats == (2,), 1 in stats
    best = {stat: [-1] * (top + 1) for stat in stats}
    arg: dict[int, list[list[Word]]] = {stat: [[] for _ in range(top + 1)] for stat in stats}
    over = None
    # A block is (prefix, depth, images, mu(a) list, mu(b) list, parent
    # images): the level at `depth` of the subtree below `prefix`.  The mu
    # lists are empty at the last level, which has no children, and the
    # parent list is empty when no period is read.  The root is its own
    # parent, so its period reads as min_period("") = 1.
    stack = [("", 0, [""], ["a"], ["b"], [""])]
    while stack:
        prefix, depth, images, mas, mbs, parents = stack.pop()
        sizes = list(map(len, images))
        if max(sizes) > limit:
            if len(images) > 1:
                _push_halves(stack, prefix, depth, (images, mas, mbs, parents))
            elif over is None or depth < over[0]:
                over = (depth, sizes[0])
            continue
        lead = len(images)
        for stat in stats:
            if stat == 0:
                vals = sizes
            elif stat == 1:
                vals = list(map(_image_period, images, parents))
            elif prefix[:1] == "b":
                continue
            else:
                # Below the root, an unsplit level's second half leads with 'b'.
                counted = images if prefix else images[: lead // 2 or 1]
                vals = list(map(str.count, counted, repeat("b")))
            high = max(vals)
            if high < best[stat][depth]:
                continue
            if high > best[stat][depth]:
                best[stat][depth] = high
                arg[stat][depth] = []
            # Index i reads as its bits below a leading 1: 0 -> 'a', 1 -> 'b'.
            i = -1
            for _ in range(vals.count(high)):
                i = vals.index(high, i + 1)
                arg[stat][depth].append(prefix + format(lead + i, "b")[1:].translate(_LETTERS))
        if depth == top:
            continue
        size = 2 * lead
        level = (
            _interleave(map(add, mas, images), map(add, mbs, images), size),
            _interleave(mas, map(add, mbs, mas), size) if depth + 1 < top else [],
            _interleave(map(add, mas, mbs), mbs, size) if depth + 1 < top else [],
            _interleave(images, images, size) if periods else [],
        )
        if a_only and not depth:
            stack.append(("a", 1, *(c[:1] for c in level)))
        elif size > _LEVEL:
            _push_halves(stack, prefix, depth + 1, level)
        else:
            stack.append((prefix, depth + 1, *level))
    return {stat: list(zip(best[stat], arg[stat])) for stat in stats}, over


def _check_order(name: str, n: int, label: str = "n") -> None:
    first = THEOREMS[name].first
    if n < first:
        raise ValueError(f"{label} must be >= {first}")


def _route_bound(route: str, bound: int | None) -> int:
    """`bound` when given, else the default bound of `route`: "materialized",
    "arithmetic" or "census".  The defaults are read at call time, so a
    lowered module bound takes effect."""
    if bound is not None:
        return bound
    return {
        "materialized": MATERIALIZED_ORDER_BOUND,
        "arithmetic": ARITHMETIC_ORDER_BOUND,
        "census": CENSUS_LENGTH_BOUND,
    }[route]


def _check_route(n: int, mode: str, bound: int | None) -> None:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    bound = _route_bound(mode, bound)
    if n > bound:
        raise BoundExceededError(f"order {n} exceeds the {mode} enumeration bound {bound}")


class _Run:
    """One verify run: its mode, its bound, the one seeded rng its sampled
    checks share, and its all-orders walks.

    Each walk runs once, at the first order that reads it, down to the
    run's n_max or the route's bound, whichever is lower; later orders
    read their entries from it.  The arithmetic route walks once per
    statistic, the materialized route once for all of `stats`, and the
    census once.
    """

    def __init__(
        self, n_max: int, bound: int | None, stats: tuple[int, ...], mode: str, seed: int
    ) -> None:
        self.n_max, self.bound, self.stats, self.mode = n_max, bound, stats, mode
        self.rng = random.Random(seed)
        self.arithmetic: dict[int, list[tuple[int, list[str]]]] = {}
        self.materialized = None
        self.census_counts: list[int] | None = None

    def _top(self, route: str) -> int:
        return min(self.n_max, _route_bound(route, self.bound))

    def scan(self, route: str, stat: int, n: int) -> tuple[int, list[str]]:
        """(maximum, sorted argmax) of statistic `stat` at order n, by
        `route`; raises MaterializationLimitError from the first order whose
        images outgrow the cap.  The b-count ranges over 'a'-leading
        directives only."""
        if route == "arithmetic":
            if stat not in self.arithmetic:
                self.arithmetic[stat] = _kernels.arith_orders(self._top(route), stat, stat == 2)
            return self.arithmetic[stat][n]
        if self.materialized is None:
            self.materialized = _materialized_orders(self._top(route), self.stats)
        table, over = self.materialized
        if over is not None and n >= over[0]:
            ensure_materializable(over[1])
        return table[stat][n]

    def census(self, k: int) -> int:
        """How many distinct closure images have length k."""
        if self.census_counts is None:
            self.census_counts = _census_counts(min(self._top("census"), max_word_len()))
        return self.census_counts[k]


def expected_max_length(n: int) -> tuple[int, list[Word]]:
    """F(n+1) - 2, attained exactly by the alternating directive and its exchange."""
    v = fibonacci_directive_prefix(n)
    return fibonacci(n + 1) - 2, sorted({v, exchange_E(v)})


def expected_max_period(n: int) -> tuple[int, list[Word]]:
    """F(n-1), attained exactly by the alternating directive, its last-pair swap,
    and their exchanges."""
    v = fibonacci_directive_prefix(n)
    cv = op_c(v)
    return fibonacci(n - 1), sorted({v, exchange_E(v), cv, exchange_E(cv)})


def expected_max_bcount(n: int) -> tuple[int, list[Word]]:
    """F(n-1) - 1 over 'a'-leading directives, attained by the alternating directive
    and the exchange of its first-pair swap."""
    v = fibonacci_directive_prefix(n)
    cand = {v, exchange_E(op_d(v))}
    return fibonacci(n - 1) - 1, sorted(u for u in cand if u.startswith("a"))


def expected_continuant_max(n: int) -> tuple[int, list[IntRep]]:
    """F(n+1), attained only by the all-ones lists with and without a leading zero."""
    fams = [(0,) + (1,) * n]
    if n >= 1:
        fams.append((1,) * n)
    return fibonacci(n + 1), sorted(fams)


def expected_period_continuant_max(n: int) -> tuple[int, list[IntRep]]:
    """F(n-1), attained by the block encodings of the four extremal directives."""
    v = fibonacci_directive_prefix(n)
    cv = op_c(v)
    reps = {to_integral(u) for u in (v, exchange_E(v), cv, exchange_E(cv))}
    return fibonacci(n - 1), sorted(reps)


def period_continuant_equality_lists(n: int) -> list[IntRep]:
    """The four equality families of the period continuant, in closed form (n >= 4)."""
    if n < 4:
        raise ValueError("closed-form equality lists need n >= 4")
    return sorted(
        {
            (0,) + (1,) * n,
            (0,) + (1,) * (n - 3) + (2, 1),
            (1,) * n,
            (1,) + (1,) * (n - 4) + (2, 1),
        }
    )


# Each extremal theorem: the image statistic it scans, the offset from
# that statistic to the continuant (None for a word theorem, whose argmax
# stays directives), and its closed form.
_EXTREMAL = {
    "max-length": (0, None, expected_max_length),
    "max-period": (1, None, expected_max_period),
    "max-bcount": (2, None, expected_max_bcount),
    "continuant-max": (0, 2, expected_continuant_max),
    "period-continuant-max": (1, 0, expected_period_continuant_max),
}


def _report(
    name: str, n: int, mode: str, bound: int | None, run: _Run | None = None
) -> ExtremalReport:
    """One order of extremal theorem `name` by `mode`'s route, read from the
    run's walk (a walk of order n alone without a run)."""
    stat, offset, expected = _EXTREMAL[name]
    _check_order(name, n)
    _check_route(n, mode, bound)
    run = run or _Run(n, bound, (stat,), mode, 0)
    got_max, got_arg = run.scan(mode, stat, n)
    if offset is not None:
        # The empty directive's exponent list is (0,).
        got_max += offset
        got_arg = sorted(to_integral(v) if v else (0,) for v in got_arg)
    exp_max, exp_arg = expected(n)
    got_t, exp_t = tuple(got_arg), tuple(exp_arg)
    passed = got_max == exp_max and set(got_t) == set(exp_t)
    return ExtremalReport(n, got_max, got_t, exp_max, exp_t, passed)


def verify_max_length(n: int, mode: str = "arithmetic", bound: int | None = None) -> ExtremalReport:
    """Scan every directive word of length n for the longest closure image."""
    return _report("max-length", n, mode, bound)


def verify_max_period(n: int, mode: str = "arithmetic", bound: int | None = None) -> ExtremalReport:
    """Scan every directive word of length n for the largest minimal period."""
    return _report("max-period", n, mode, bound)


def verify_max_bcount(n: int, mode: str = "arithmetic", bound: int | None = None) -> ExtremalReport:
    """Scan every 'a'-leading directive word of length n for the most 'b' letters."""
    return _report("max-bcount", n, mode, bound)


def verify_continuant_max(n: int, bound: int | None = None) -> ExtremalReport:
    """Maximize the head-and-tail-shifted continuant over exponent lists of weight n.

    The admissible lists are exactly the block encodings of directive words
    of length n, so the scan walks the directive tree; the continuant is the
    image length plus 2.
    """
    return _report("continuant-max", n, "arithmetic", bound)


def verify_period_continuant_max(n: int, bound: int | None = None) -> ExtremalReport:
    """Maximize the drop-last-then-shift-head continuant over exponent lists of weight n."""
    return _report("period-continuant-max", n, "arithmetic", bound)


def _fib_row_ok(x: int, lhs: int, rhs: int) -> bool:
    """One row of the Fibonacci lemma: lhs <= rhs, with equality exactly at x = 1."""
    return lhs <= rhs and (lhs == rhs) == (x == 1)


def fib_lemma_holds_at(n: int) -> bool:
    """x*F(n-x) + F(n-x+1) <= F(n+1) for 1 <= x <= n, with equality only at x = 1.

    x runs from n down to 1, carrying (F(n-x), F(n-x+1)), so the check is
    linear in n.
    """
    _check_order("fib-lemma", n)
    rhs = fibonacci(n + 1)
    f, g = fibonacci(0), fibonacci(1)
    for x in range(n, 0, -1):
        if not _fib_row_ok(x, x * f + g, rhs):
            return False
        f, g = g, f + g
    return True


def harmonic_at(n: int) -> tuple[int, int, int, bool]:
    """(period, modulus, residue, ok): the squared period of the alternating image
    is +-1 modulo its length + 2.  Evaluated by continuants only."""
    _check_order("harmonic", n)
    v = fibonacci_directive_prefix(n)
    period = minimal_period_from_directive(v)
    modulus = christoffel_length_from_directive(v)
    residue = pow(period, 2, modulus)
    return period, modulus, residue, residue in (1 % modulus, modulus - 1)


def _check_census(n_max: int, bound: int | None) -> None:
    _check_order("central-count", n_max, "n_max")
    bound = _route_bound("census", bound)
    if n_max > bound:
        raise BoundExceededError(f"length {n_max} exceeds the census bound {bound}")
    ensure_materializable(n_max)


def _census_counts(n_max: int) -> list[int]:
    """Entry k counts the distinct closure images of length k <= n_max.

    One walk of the directive tree, pruned once an image outgrows n_max
    (images only grow along a directive); distinct directives give
    distinct images, so each image is counted once.
    """
    counts = [0] * (n_max + 1)
    for _, w in _preorder(None, max_len=n_max):
        if len(w) <= n_max:
            counts[len(w)] += 1
    return counts


def central_length_census(n_max: int, bound: int | None = None) -> dict[int, int]:
    """How many distinct closure images have each length 0..n_max.

    It builds images of up to n_max letters, so n_max is checked against
    the materialization cap before the walk.
    """
    _check_census(n_max, bound)
    return dict(enumerate(_census_counts(n_max)))


# One row per extremal stream: (field, word theorem, directive, first
# order).  From its first order on, the stream's image must attain the
# theorem's maximum, and its directive prefix must be in the argmax.
_STREAMS = (
    ("length", "max-length", DirectiveSpec.parse("|ab"), 1),
    ("period", "max-period", DirectiveSpec.parse("|ba"), 1),
    ("bcount", "max-bcount", DirectiveSpec.parse("abb|ab"), 3),
)


def _stream_check(n: int, run: _Run) -> dict[str, object]:
    """One order of the streams scoreboard; see stream_rows."""
    row: dict[str, object] = {}
    for field, name, spec, first in _STREAMS:
        if n < first:
            row[field], row[field + "_ok"] = None, True
            continue
        rep, _, agree = _checked_report(name, n, run)
        prefix, stat = spec.prefix(n), _EXTREMAL[name][0]
        if run.mode == "arithmetic":
            row[field] = value = psi_stats_from_directive(prefix)[stat]
        else:
            row[field] = value = _statistic(psi(prefix), stat)
        row[field + "_ok"] = agree and rep.passed and value == rep.maximum and prefix in rep.argmax
    row["passed"] = all(row[field + "_ok"] for field, *_ in _STREAMS)
    return row


def stream_rows(
    order_max: int, mode: str = "both", bound: int | None = None, seed: int = 0
) -> list[dict[str, object]]:
    """Per-order scoreboard for the three extremal streams.

    The alternating stream must attain the length maximum, its exchange the
    period maximum, and the heavy stream (preperiod 'abb') the b-count
    maximum from order 3 on; each stream's directive prefix must sit in the
    enumerated argmax, and the enumeration itself must match the closed
    form.  Each statistic's ok flag also requires its routes to agree under
    `mode`, as the word theorems check them.
    """
    _check_order("streams", order_max, "order_max")
    orders = range(1, order_max + 1)
    results = THEOREMS["streams"].rows(orders, mode, bound, seed)
    return [{"order": n, **result} for n, result in zip(orders, results)]


_SAMPLES = 64


def _sampled_agreement(n: int, stat: int, expected: tuple, rng: random.Random) -> bool:
    """Spot-check route agreement above the materialized bound: _SAMPLES random
    directives plus the expected argmax, each measured by string scan and by
    continuant.  Where fewer directives exist than that, all of them are checked."""
    pool = set(expected)
    want = min(_SAMPLES + len(pool), 2 ** (n - 1 if stat == 2 else n))
    while len(pool) < want:
        head = "a" if stat == 2 else rng.choice("ab")
        pool.add(head + "".join(rng.choice("ab") for _ in range(n - 1)))
    return all(
        _statistic(psi(v), stat) == psi_stats_from_directive(v)[stat] for v in sorted(pool)
    )


def _checked_report(name: str, n: int, run: _Run) -> tuple[ExtremalReport, str, bool]:
    """One order of word theorem `name`: (report, check, agreement).

    A single mode runs that route alone.  "both" compares the arithmetic
    report with the materialized one up to the materialized route's bound,
    and above it checks the routes on sampled directives.
    """
    if run.mode != "both":
        return _report(name, n, run.mode, run.bound, run), run.mode, True
    rep = _report(name, n, "arithmetic", run.bound, run)
    if n <= _route_bound("materialized", run.bound):
        other = _report(name, n, "materialized", run.bound, run)
        return rep, "full", rep.maximum == other.maximum and set(rep.argmax) == set(other.argmax)
    stat = _EXTREMAL[name][0]
    return rep, "sampled", _sampled_agreement(n, stat, rep.expected_argmax, run.rng)


# The checks below return one order's result fields as plain values: ints,
# bools, None, exponent tuples and lists of witnesses.


def _report_fields(rep: ExtremalReport) -> dict[str, object]:
    return {
        "maximum": rep.maximum,
        "expected_max": rep.expected_max,
        "argmax": list(rep.argmax),
        "expected_argmax": list(rep.expected_argmax),
        "argmax_size": len(rep.argmax),
    }


def _word_check(name: str, n: int, run: _Run) -> dict[str, object]:
    rep, check, agree = _checked_report(name, n, run)
    passed = rep.passed and agree
    return {**_report_fields(rep), "check": check, "agreement": agree, "passed": passed}


def _continuant_check(name: str, n: int, run: _Run) -> dict[str, object]:
    rep = _report(name, n, "arithmetic", run.bound, run)
    return {**_report_fields(rep), "passed": rep.passed}


def _fib_lemma_check(n: int, run: _Run) -> dict[str, object]:
    return {"passed": fib_lemma_holds_at(n)}


def _harmonic_check(n: int, run: _Run) -> dict[str, object]:
    period, modulus, residue, ok = harmonic_at(n)
    return {"period": period, "modulus": modulus, "residue": residue, "passed": ok}


def _census_check(k: int, run: _Run) -> dict[str, object]:
    _check_census(k, run.bound)
    count, expected = run.census(k), count_central(k)
    return {"count": count, "expected": expected, "passed": count == expected}


@dataclass(frozen=True)
class Theorem:
    """One `sturmian verify` theorem.

    It checks the orders first..n_max (n_max defaults to default_n_max) and
    accepts the --mode values in `modes`; `bounded` is False for a theorem
    that enumerates nothing and so takes no --bound.  check(n, run) checks
    one order and returns its result fields, with "passed" a bool; it reads
    its mode, bound, rng and scans from the run, whose materialized walk
    reads the statistics in `stats`.  A record's inputs name its order
    `index` and show `route` as the mode when the theorem has one fixed
    route.
    """

    first: int
    default_n_max: int
    modes: tuple[str, ...]
    check: Callable[[int, _Run], dict[str, object]]
    route: str | None = None
    bounded: bool = True
    index: str = "order"
    stats: tuple[int, ...] = ()

    def rows(
        self, orders: range, mode: str, bound: int | None, seed: int
    ) -> Iterator[dict[str, object]]:
        """Yield the result fields of one record per order.

        Each walk runs once, at the first order that reads it, down to the
        last order or the route's bound, so a record appears once its walk
        is done; an order whose check raises stops the run after the
        records of the orders before it.  Sampled checks share the run's
        seeded rng.
        """
        run = _Run(orders[-1] if orders else 0, bound, self.stats, mode, seed)
        for n in orders:
            yield self.check(n, run)


_ARITHMETIC_ONLY = ("arithmetic", "both")

THEOREMS: dict[str, Theorem] = {
    "max-length": Theorem(0, 14, ANY_MODE, partial(_word_check, "max-length"), stats=(0,)),
    "max-period": Theorem(1, 14, ANY_MODE, partial(_word_check, "max-period"), stats=(1,)),
    "max-bcount": Theorem(1, 14, ANY_MODE, partial(_word_check, "max-bcount"), stats=(2,)),
    "continuant-max": Theorem(
        0, 20, _ARITHMETIC_ONLY, partial(_continuant_check, "continuant-max"), "arithmetic"
    ),
    "period-continuant-max": Theorem(
        2, 20, _ARITHMETIC_ONLY, partial(_continuant_check, "period-continuant-max"), "arithmetic"
    ),
    "fib-lemma": Theorem(1, 60, _ARITHMETIC_ONLY, _fib_lemma_check, "arithmetic", bounded=False),
    "harmonic": Theorem(1, 20, _ARITHMETIC_ONLY, _harmonic_check, "arithmetic", bounded=False),
    # The census builds every image, so it has no arithmetic route.
    "central-count": Theorem(
        0, 14, ("materialized", "both"), _census_check, "census", index="length"
    ),
    "streams": Theorem(1, 14, ANY_MODE, _stream_check, stats=(0, 1, 2)),
}
