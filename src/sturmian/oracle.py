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


def _scored_images(top: int, stats: tuple[int, ...]) -> Iterator[tuple[Word, int, tuple | None]]:
    """Yield (v, |psi(v)|, scores) for every directive v of length at most
    top, in the order of _preorder; scores[i] is statistic stats[i] of
    psi(v), read off the string as _statistic does, and None for the
    b-count of a directive that begins with 'b'.  A walk of the b-count
    alone visits only the 'a'-leading directives.

    An image longer than the materialization cap is yielded with scores
    None and not expanded.  The periods share one prefix-function list:
    psi(parent) is a prefix of psi(v), and every node visited since the
    parent extends psi(parent), so the list is cut back to |psi(parent)|
    and extended over the new letters.
    """
    limit = max_word_len()
    periods = 1 in stats
    fail: list[int] = []
    image_len = [0] * (top + 1)
    for v, w in _preorder(top, stats == (2,), limit):
        depth, size = len(v), len(w)
        if size > limit:
            yield v, size, None
            continue
        image_len[depth] = size
        if periods and depth:
            del fail[image_len[depth - 1] :]
            _kernels.borders(w, fail)
        scores = []
        for stat in stats:
            if stat == 0:
                scores.append(size)
            elif stat == 1:
                scores.append(size - fail[-1] if depth else 1)
            else:
                scores.append(None if v[:1] == "b" else w.count("b"))
        yield v, size, tuple(scores)


def _materialized_orders(
    top: int, stats: tuple[int, ...]
) -> tuple[dict[int, list[tuple[int, list[Word]]]], tuple[int, int] | None]:
    """(table, over): the maximum and sorted argmax of each statistic in
    `stats` over the psi images at every order 0..top, from one walk; the
    b-count ranges over 'a'-leading directives only.

    table[stat][k] is (maximum, argmax) at order k.  over is None, or
    (k, length) for the first order k with an image over the
    materialization cap and the length of its lexicographically first such
    image; the entries from order k on are then incomplete.
    """
    best = {stat: [-1] * (top + 1) for stat in stats}
    arg: dict[int, list[list[Word]]] = {stat: [[] for _ in range(top + 1)] for stat in stats}
    over = None
    for v, size, scores in _scored_images(top, stats):
        depth = len(v)
        if scores is None:
            if over is None or depth < over[0]:
                over = (depth, size)
            continue
        for stat, val in zip(stats, scores):
            if val is None or val < best[stat][depth]:
                continue
            if val > best[stat][depth]:
                best[stat][depth] = val
                arg[stat][depth] = [v]
            else:
                arg[stat][depth].append(v)
    return {stat: list(zip(best[stat], arg[stat])) for stat in stats}, over


def _check_order(name: str, n: int, label: str = "n") -> None:
    first = THEOREMS[name].first
    if n < first:
        raise ValueError(f"{label} must be >= {first}")


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


def _check_bound(n: int, mode: str, bound: int | None) -> None:
    if bound is None:
        bound = MATERIALIZED_ORDER_BOUND if mode == "materialized" else ARITHMETIC_ORDER_BOUND
    if n > bound:
        raise BoundExceededError(f"order {n} exceeds the {mode} enumeration bound {bound}")


class _Walks:
    """The all-orders walks of one verify run.

    Each walk runs once, at the first order that reads it, down to the
    run's n_max or the route's enumeration bound (`bound` when given),
    whichever is lower; later orders read their entries from it.  The
    arithmetic route walks once per statistic, the materialized route once
    for all of `stats`, and the census once.
    """

    def __init__(self, n_max: int, bound: int | None, stats: tuple[int, ...] = ()) -> None:
        self.n_max, self.bound, self.stats = n_max, bound, stats
        self.arithmetic: dict[int, list[tuple[int, list[str]]]] = {}
        self.materialized = None
        self.census_counts: list[int] | None = None

    def _top(self, default: int) -> int:
        return min(self.n_max, default if self.bound is None else self.bound)

    def scan(self, mode: str, stat: int, n: int) -> tuple[int, list[str]]:
        """(maximum, sorted argmax) of statistic `stat` at order n, by `mode`'s
        route; raises MaterializationLimitError from the first order whose
        images outgrow the cap.  The b-count ranges over 'a'-leading
        directives only."""
        if mode == "arithmetic":
            if stat not in self.arithmetic:
                top = self._top(ARITHMETIC_ORDER_BOUND)
                self.arithmetic[stat] = _kernels.arith_orders(top, stat, stat == 2)
            return self.arithmetic[stat][n]
        if self.materialized is None:
            top = self._top(MATERIALIZED_ORDER_BOUND)
            self.materialized = _materialized_orders(top, self.stats)
        table, over = self.materialized
        if over is not None and n >= over[0]:
            ensure_materializable(over[1])
        return table[stat][n]

    def census(self, k: int) -> int:
        """How many distinct closure images have length k."""
        if self.census_counts is None:
            top = min(self._top(CENSUS_LENGTH_BOUND), max_word_len())
            self.census_counts = _census_counts(top)
        return self.census_counts[k]


def _make_report(order, got_max, got_arg, exp_max, exp_arg) -> ExtremalReport:
    got_t, exp_t = tuple(got_arg), tuple(exp_arg)
    passed = got_max == exp_max and set(got_t) == set(exp_t)
    return ExtremalReport(order, got_max, got_t, exp_max, exp_t, passed)


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


def _verify_word(
    stat: int, n: int, mode: str, bound: int | None, walks: _Walks | None = None
) -> ExtremalReport:
    name, expected = _WORD_THEOREMS[stat]
    _check_order(name, n)
    _check_mode(mode)
    _check_bound(n, mode, bound)
    walks = walks or _Walks(n, bound, (stat,))
    got_max, got_arg = walks.scan(mode, stat, n)
    return _make_report(n, got_max, got_arg, *expected(n))


# Indexed by statistic: the theorem's name and its closed form.
_WORD_THEOREMS = (
    ("max-length", expected_max_length),
    ("max-period", expected_max_period),
    ("max-bcount", expected_max_bcount),
)


def verify_max_length(n: int, mode: str = "arithmetic", bound: int | None = None) -> ExtremalReport:
    """Scan every directive word of length n for the longest closure image."""
    return _verify_word(0, n, mode, bound)


def verify_max_period(n: int, mode: str = "arithmetic", bound: int | None = None) -> ExtremalReport:
    """Scan every directive word of length n for the largest minimal period."""
    return _verify_word(1, n, mode, bound)


def verify_max_bcount(n: int, mode: str = "arithmetic", bound: int | None = None) -> ExtremalReport:
    """Scan every 'a'-leading directive word of length n for the most 'b' letters."""
    return _verify_word(2, n, mode, bound)


def expected_continuant_max(n: int) -> tuple[int, list[IntRep]]:
    """F(n+1), attained only by the all-ones lists with and without a leading zero."""
    fams = [(0,) + (1,) * n]
    if n >= 1:
        fams.append((1,) * n)
    return fibonacci(n + 1), sorted(fams)


def _verify_continuant(
    stat: int, n: int, bound: int | None, walks: _Walks | None = None
) -> ExtremalReport:
    name, offset, expected = _CONTINUANT_THEOREMS[stat]
    _check_order(name, n)
    _check_bound(n, "arithmetic", bound)
    raw_max, raw_arg = (walks or _Walks(n, bound)).scan("arithmetic", stat, n)
    # The empty directive's exponent list is (0,).
    argmax = sorted(to_integral(v) if v else (0,) for v in raw_arg)
    return _make_report(n, raw_max + offset, argmax, *expected(n))


def verify_continuant_max(n: int, bound: int | None = None) -> ExtremalReport:
    """Maximize the head-and-tail-shifted continuant over exponent lists of weight n.

    The admissible lists are exactly the block encodings of directive words
    of length n, so the scan walks the directive tree; the continuant is the
    image length plus 2.
    """
    return _verify_continuant(0, n, bound)


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


def verify_period_continuant_max(n: int, bound: int | None = None) -> ExtremalReport:
    """Maximize the drop-last-then-shift-head continuant over exponent lists of weight n."""
    return _verify_continuant(1, n, bound)


# Indexed by statistic: the theorem's name, the offset from the image
# statistic to the continuant, and its closed form.
_CONTINUANT_THEOREMS = (
    ("continuant-max", 2, expected_continuant_max),
    ("period-continuant-max", 0, expected_period_continuant_max),
)


def fib_lemma_holds_at(n: int) -> bool:
    """x*F(n-x) + F(n-x+1) <= F(n+1) for 1 <= x <= n, with equality only at x = 1."""
    _check_order("fib-lemma", n)
    rhs = fibonacci(n + 1)
    for x in range(1, n + 1):
        lhs = x * fibonacci(n - x) + fibonacci(n - x + 1)
        if lhs > rhs or (lhs == rhs) != (x == 1):
            return False
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
    bound = CENSUS_LENGTH_BOUND if bound is None else bound
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


# One row per extremal stream: (field, statistic, directive, first order).
# From its first order on, the stream's image must attain the statistic's
# maximum, and its directive prefix must be in the argmax.
_STREAMS = (
    ("length", 0, DirectiveSpec.parse("|ab"), 1),
    ("period", 1, DirectiveSpec.parse("|ba"), 1),
    ("bcount", 2, DirectiveSpec.parse("abb|ab"), 3),
)


def _stream_check(
    n: int, mode: str, bound: int | None, rng: random.Random, walks: _Walks
) -> dict[str, object]:
    """One order of the streams scoreboard; see stream_rows."""
    row: dict[str, object] = {}
    for field, stat, spec, first in _STREAMS:
        if n < first:
            row[field], row[field + "_ok"] = None, True
            continue
        rep, _, agree = _checked_report(stat, n, mode, bound, rng, walks)
        prefix = spec.prefix(n)
        if mode == "arithmetic":
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
    rows = THEOREMS["streams"].rows(range(1, order_max + 1), mode, bound, seed)
    return [{"order": inputs["order"], **result} for inputs, result in rows]


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


def _checked_report(
    stat: int, n: int, mode: str, bound: int | None, rng: random.Random, walks: _Walks
) -> tuple[ExtremalReport, str, bool]:
    """One order of a word theorem: (report, check, agreement).

    A single mode runs that route alone.  "both" compares the arithmetic
    report with the materialized one up to the materialized bound (or
    `bound`), and above it checks the routes on sampled directives.
    """
    if mode != "both":
        return _verify_word(stat, n, mode, bound, walks), mode, True
    rep = _verify_word(stat, n, "arithmetic", bound, walks)
    if n <= (MATERIALIZED_ORDER_BOUND if bound is None else bound):
        other = _verify_word(stat, n, "materialized", bound, walks)
        return rep, "full", rep.maximum == other.maximum and set(rep.argmax) == set(other.argmax)
    return rep, "sampled", _sampled_agreement(n, stat, rep.expected_argmax, rng)


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


def _word_check(stat: int, n: int, mode: str, bound, rng, walks) -> dict[str, object]:
    rep, check, agree = _checked_report(stat, n, mode, bound, rng, walks)
    passed = rep.passed and agree
    return {**_report_fields(rep), "check": check, "agreement": agree, "passed": passed}


def _continuant_check(stat: int, n: int, mode: str, bound, rng, walks) -> dict[str, object]:
    rep = _verify_continuant(stat, n, bound, walks)
    return {**_report_fields(rep), "passed": rep.passed}


def _fib_lemma_check(n: int, mode: str, bound, rng, walks) -> dict[str, object]:
    return {"passed": fib_lemma_holds_at(n)}


def _harmonic_check(n: int, mode: str, bound, rng, walks) -> dict[str, object]:
    period, modulus, residue, ok = harmonic_at(n)
    return {"period": period, "modulus": modulus, "residue": residue, "passed": ok}


def _census_check(k: int, mode: str, bound, rng, walks) -> dict[str, object]:
    _check_census(k, bound)
    count, expected = walks.census(k), count_central(k)
    return {"count": count, "expected": expected, "passed": count == expected}


Row = tuple[dict[str, object], dict[str, object]]


@dataclass(frozen=True)
class Theorem:
    """One `sturmian verify` theorem.

    It checks the orders first..n_max (n_max defaults to default_n_max) and
    accepts the --mode values in `modes`; `bounded` is False for a theorem
    that enumerates nothing and so takes no --bound.  check(n, mode, bound,
    rng, walks) checks one order and returns its result fields, with
    "passed" a bool; it reads its scans from the run's walks, whose
    materialized walk reads the statistics in `stats`.  A record's inputs
    name its order `index` and show `route` as the mode when the theorem
    has one fixed route.
    """

    first: int
    default_n_max: int
    modes: tuple[str, ...]
    check: Callable[[int, str, int | None, random.Random, _Walks], dict[str, object]]
    route: str | None = None
    bounded: bool = True
    index: str = "order"
    stats: tuple[int, ...] = ()

    def rows(self, orders: range, mode: str, bound: int | None, seed: int) -> Iterator[Row]:
        """Yield the inputs and result fields of one record per order.

        Each walk runs once, at the first order that reads it, down to the
        last order or the route's bound, so a record appears once its walk
        is done; an order whose check raises stops the run after the
        records of the orders before it.  Sampled checks share one seeded
        rng.
        """
        rng = random.Random(seed)
        walks = _Walks(orders[-1] if orders else 0, bound, self.stats)
        for n in orders:
            result = self.check(n, mode, bound, rng, walks)
            yield {self.index: n, "mode": self.route or mode}, result


_ARITHMETIC_ONLY = ("arithmetic", "both")

THEOREMS: dict[str, Theorem] = {
    "max-length": Theorem(0, 14, ANY_MODE, partial(_word_check, 0), stats=(0,)),
    "max-period": Theorem(1, 14, ANY_MODE, partial(_word_check, 1), stats=(1,)),
    "max-bcount": Theorem(1, 14, ANY_MODE, partial(_word_check, 2), stats=(2,)),
    "continuant-max": Theorem(0, 20, _ARITHMETIC_ONLY, partial(_continuant_check, 0), "arithmetic"),
    "period-continuant-max": Theorem(
        2, 20, _ARITHMETIC_ONLY, partial(_continuant_check, 1), "arithmetic"
    ),
    "fib-lemma": Theorem(1, 60, _ARITHMETIC_ONLY, _fib_lemma_check, "arithmetic", bounded=False),
    "harmonic": Theorem(1, 20, _ARITHMETIC_ONLY, _harmonic_check, "arithmetic", bounded=False),
    # The census builds every image, so it has no arithmetic route.
    "central-count": Theorem(
        0, 14, ("materialized", "both"), _census_check, "census", index="length"
    ),
    "streams": Theorem(1, 14, ANY_MODE, _stream_check, stats=(0, 1, 2)),
}
