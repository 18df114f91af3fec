"""Extremal verifiers against frozen tables, closed forms, and brute force."""
import functools
import random
import tracemalloc

import pytest

import naive
from sturmian import (
    BoundExceededError,
    count_letter,
    central_length_census,
    count_central,
    directive_images,
    exchange_E,
    expected_continuant_max,
    expected_max_bcount,
    expected_max_length,
    expected_max_period,
    expected_period_continuant_max,
    fib_lemma_holds_at,
    fibonacci,
    fibonacci_directive_prefix,
    harmonic_at,
    minimal_period,
    period_continuant_equality_lists,
    psi,
    psi_stats_from_directive,
    stream_rows,
    to_integral,
    verify_continuant_max,
    verify_max_bcount,
    verify_max_length,
    verify_max_period,
    verify_period_continuant_max,
)
from sturmian.arithmetic import _length_terms, continuant
from sturmian import config, oracle
from sturmian.oracle import THEOREMS, _fib_row_ok, _image_period, _materialized_orders

MAX_LENGTH_TABLE = {n: v for n, v in enumerate([0, 1, 3, 6, 11, 19, 32, 53, 87])}
MAX_PERIOD_TABLE = {n + 1: v for n, v in enumerate([1, 2, 3, 5, 8, 13, 21, 34])}
MAX_BCOUNT_TABLE = {n + 1: v for n, v in enumerate([0, 1, 2, 4, 7, 12, 20, 33])}
CONTINUANT_MAX_TABLE = {n: v for n, v in enumerate([2, 3, 5, 8, 13, 21, 34, 55, 89])}
PERIOD_CONTINUANT_TABLE = {n + 2: v for n, v in enumerate([2, 3, 5, 8, 13, 21, 34])}


def all_orders_pass(name, n_max, mode="both"):
    """Every registry row of theorem `name` from its first order to n_max passes."""
    orders = range(THEOREMS[name].first, n_max + 1)
    rows = THEOREMS[name].rows(orders, mode, None, 0)
    return all(result["passed"] is True for result in rows)


def test_directive_images_match_psi(psi12):
    # Pins the morphism route (used by every materialized scan and by the
    # psi12 fixture itself) to the definitional closure construction.
    assert len(psi12) == 2**13 - 1
    for v, w in psi12.items():
        assert psi(v) == w


def test_directive_images_a_start():
    for n in range(0, 8):
        got = dict(directive_images(n, a_start=True))
        assert all(v.startswith("a") for v in got if v)
        assert len(got) == (2 ** (n - 1) if n else 1)
    with pytest.raises(ValueError):
        list(directive_images(-1))


@functools.cache
def _naive_period(w):
    return naive.min_period_naive(w)


def _brute_orders(psi12, stat, top):
    """(maximum, sorted argmax) of one statistic at each order <= top, read off
    the psi12 images; the b-count ranges over 'a'-leading directives only."""
    out = []
    for k in range(top + 1):
        vals = {
            v: (len(w), _naive_period(w), w.count("b"))[stat]
            for v, w in psi12.items()
            if len(v) == k and not (stat == 2 and v.startswith("b"))
        }
        best = max(vals.values())
        out.append((best, sorted(v for v, val in vals.items() if val == best)))
    return out


@pytest.mark.parametrize("stats", [(0,), (1,), (2,), (0, 1, 2)])
def test_materialized_walk_matches_brute_force(psi12, stats):
    # One walk answers every order <= 12: maximum and full argmax of each
    # statistic, with the periods of the naive definition.  A walk of the
    # b-count alone visits the 'a'-leading subtree only; the full walk
    # scores the b-count on its 'a'-leading nodes.
    table, over = _materialized_orders(12, stats)
    assert over is None and list(table) == list(stats)
    for stat in stats:
        assert table[stat] == _brute_orders(psi12, stat, 12)


@pytest.mark.parametrize("stats, cap", [((0,), 10), ((1,), 40), ((2,), 25), ((0, 1, 2), 25)])
def test_materialized_walk_stops_at_the_first_order_over_the_cap(psi12, monkeypatch, stats, cap):
    # It reports the first order with an image over the cap and the length
    # of that order's lexicographically first such image; the orders before
    # it are exact.
    monkeypatch.setattr(config, "_override", cap)
    a_only = stats == (2,)
    over = [
        (len(v), v, len(w))
        for v, w in psi12.items()
        if len(w) > cap and not (a_only and v.startswith("b"))
    ]
    k, _, length = min(over)
    table, got = _materialized_orders(12, stats)
    assert got == (k, length)
    for stat in stats:
        assert table[stat][:k] == _brute_orders(psi12, stat, k - 1)


@pytest.mark.parametrize("level", [2, 4])
def test_materialized_walk_splits_small_levels(psi12, monkeypatch, level):
    # Levels split from depth 1 or 2 on: halves, prefixes and the 'a'-leading
    # half of the unsplit levels still give every order exactly.
    monkeypatch.setattr(oracle, "_LEVEL", level)
    for stats in [(0, 1, 2), (2,)]:
        table, over = _materialized_orders(10, stats)
        assert over is None
        for stat in stats:
            assert table[stat] == _brute_orders(psi12, stat, 10)


def test_image_period_matches_the_naive_period():
    # Against every proper prefix and suffix of w (a border or not), w itself
    # and the empty word: the border search, its fallback and the guard
    # against u = w.
    for w in naive.words_upto(10):
        if not w:
            continue
        want = naive.min_period_naive(w)
        candidates = {w, ""} | {w[:k] for k in range(len(w))} | {w[k:] for k in range(1, len(w))}
        for u in candidates:
            assert _image_period(w, u) == want, (w, u)


def test_materialized_walk_memory_is_bounded():
    """Order 14 for all three statistics in well under the 2^14-image level a
    whole-level walk would hold."""
    tracemalloc.start()
    try:
        _materialized_orders(14, (0, 1, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_max_length_frozen():
    for n, value in MAX_LENGTH_TABLE.items():
        for mode in ("materialized", "arithmetic"):
            rep = verify_max_length(n, mode)
            assert rep.passed
            assert rep.maximum == value == fibonacci(n + 1) - 2
    assert verify_max_length(2, "materialized").argmax == ("ab", "ba")


def test_max_period_frozen():
    for n, value in MAX_PERIOD_TABLE.items():
        for mode in ("materialized", "arithmetic"):
            rep = verify_max_period(n, mode)
            assert rep.passed
            assert rep.maximum == value == fibonacci(n - 1)
    assert verify_max_period(3).argmax == ("aab", "aba", "bab", "bba")
    assert verify_max_period(5).argmax == ("abaab", "ababa", "babab", "babba")
    assert verify_max_period(8).argmax == (
        "abababab",
        "abababba",
        "bababaab",
        "babababa",
    )


def test_max_bcount_frozen():
    for n, value in MAX_BCOUNT_TABLE.items():
        for mode in ("materialized", "arithmetic"):
            rep = verify_max_bcount(n, mode)
            assert rep.passed
            assert rep.maximum == value == fibonacci(n - 1) - 1
    assert verify_max_bcount(5).argmax == ("ababa", "abbab")
    assert verify_max_bcount(8).argmax == ("abababab", "abbababa")


def test_modes_agree():
    for n in range(0, 11):
        for verify, lo in (
            (verify_max_length, 0),
            (verify_max_period, 1),
            (verify_max_bcount, 1),
        ):
            if n < lo:
                continue
            assert verify(n, "materialized") == verify(n, "arithmetic")


def test_bad_arguments():
    with pytest.raises(ValueError):
        verify_max_length(-1)
    with pytest.raises(ValueError):
        verify_max_period(0)
    with pytest.raises(ValueError):
        verify_max_bcount(0)
    with pytest.raises(ValueError):
        verify_max_length(3, "florid")
    with pytest.raises(ValueError):
        verify_continuant_max(-1)
    with pytest.raises(ValueError):
        verify_period_continuant_max(1)


def test_enumeration_bounds():
    with pytest.raises(BoundExceededError):
        verify_max_length(15, "materialized")
    with pytest.raises(BoundExceededError):
        verify_max_length(23, "arithmetic")
    with pytest.raises(BoundExceededError):
        verify_continuant_max(23)
    with pytest.raises(BoundExceededError):
        verify_period_continuant_max(23)
    # An explicit bound loosens the guard.
    assert verify_max_length(15, "materialized", bound=15).passed
    with pytest.raises(BoundExceededError):
        verify_max_length(9, "arithmetic", bound=8)


def test_expected_constructors():
    assert expected_max_length(0) == (0, [""])
    assert expected_max_length(3) == (6, ["aba", "bab"])
    assert expected_max_period(3) == (3, ["aab", "aba", "bab", "bba"])
    assert expected_max_period(1) == (1, ["a", "b"])
    assert expected_max_bcount(3) == (2, ["aba", "abb"])
    assert expected_max_bcount(1) == (0, ["a"])
    assert expected_continuant_max(0) == (2, [(0,)])
    assert expected_continuant_max(3) == (8, [(0, 1, 1, 1), (1, 1, 1)])
    assert expected_period_continuant_max(2) == (2, [(0, 1, 1), (1, 1)])


def test_continuant_max_frozen():
    for n, value in CONTINUANT_MAX_TABLE.items():
        rep = verify_continuant_max(n)
        assert rep.passed
        assert rep.maximum == value == fibonacci(n + 1)
    rep = verify_continuant_max(14)
    assert rep.passed and rep.argmax == ((0,) + (1,) * 14, (1,) * 14)


def test_continuant_max_matches_composition_brute_force():
    for n in range(0, 12):
        best, arg = -1, []
        for rep in naive.compositions(n):
            val = continuant(_length_terms(rep))
            if val > best:
                best, arg = val, [rep]
            elif val == best:
                arg.append(rep)
        got = verify_continuant_max(n)
        assert got.maximum == best
        assert got.argmax == tuple(sorted(arg))


def test_period_continuant_frozen():
    for n, value in PERIOD_CONTINUANT_TABLE.items():
        rep = verify_period_continuant_max(n)
        assert rep.passed
        assert rep.maximum == value == fibonacci(n - 1)
    assert verify_period_continuant_max(2).argmax == ((0, 1, 1), (1, 1))


def test_period_continuant_matches_composition_brute_force():
    for n in range(2, 12):
        best, arg = -1, []
        for rep in naive.compositions(n):
            head = rep[:-1]
            val = continuant((head[0] + 1,) + head[1:]) if head else 1
            if val > best:
                best, arg = val, [rep]
            elif val == best:
                arg.append(rep)
        got = verify_period_continuant_max(n)
        assert got.maximum == best
        assert got.argmax == tuple(sorted(arg))


def test_period_continuant_equality_lists():
    assert period_continuant_equality_lists(4) == [
        (0, 1, 1, 1, 1),
        (0, 1, 2, 1),
        (1, 1, 1, 1),
        (1, 2, 1),
    ]
    for n in range(4, 13):
        lists = period_continuant_equality_lists(n)
        assert len(lists) == 4
        rep = verify_period_continuant_max(n)
        assert tuple(lists) == rep.argmax
        for r in lists:
            assert sum(r) == n
    with pytest.raises(ValueError):
        period_continuant_equality_lists(3)


def test_period_continuant_at_order_three():
    # The four-list closed form needs n >= 4; at n = 3 the argmax still has
    # four members, one of which replaces the degenerate fourth family.
    rep = verify_period_continuant_max(3)
    assert rep.passed
    assert rep.argmax == ((0, 1, 1, 1), (0, 2, 1), (1, 1, 1), (2, 1))


def test_fib_lemma():
    assert all_orders_pass("fib-lemma", 60)
    assert fib_lemma_holds_at(1)
    with pytest.raises(ValueError):
        fib_lemma_holds_at(0)


def test_fib_row_ok_needs_equality_exactly_at_x_1():
    assert _fib_row_ok(1, 5, 5)
    assert not _fib_row_ok(1, 4, 5)
    assert not _fib_row_ok(2, 5, 5)
    assert not _fib_row_ok(2, 6, 5)


def test_harmonic():
    assert all_orders_pass("harmonic", 20)
    for n in range(1, 13):
        period, modulus, residue, ok = harmonic_at(n)
        assert ok
        assert period == fibonacci(n - 1)
        assert modulus == fibonacci(n + 1)
        assert residue == pow(fibonacci(n - 1), 2, fibonacci(n + 1))
        if n >= 3:
            assert residue == (1 if n % 2 == 1 else modulus - 1)
    with pytest.raises(ValueError):
        harmonic_at(0)


def test_central_census():
    census = central_length_census(14)
    assert census == {n: count_central(n) for n in range(15)}
    assert all_orders_pass("central-count", 14)
    assert all_orders_pass("central-count", 0)
    with pytest.raises(BoundExceededError, match="length 17 exceeds the census bound 16"):
        central_length_census(17)
    assert central_length_census(17, bound=17)[17] == count_central(17)
    with pytest.raises(ValueError):
        central_length_census(-1)


def test_stream_rows():
    rows = stream_rows(10)
    assert len(rows) == 10
    for row in rows:
        n = row["order"]
        assert row["passed"]
        assert row["length"] == fibonacci(n + 1) - 2
        assert row["period"] == fibonacci(n - 1)
        if n >= 3:
            assert row["bcount"] == fibonacci(n - 1) - 1
        else:
            assert row["bcount"] is None
    assert all_orders_pass("streams", 10)
    assert all_orders_pass("streams", 6, mode="materialized")
    assert all_orders_pass("streams", 6, mode="arithmetic")
    with pytest.raises(ValueError):
        stream_rows(0)
    with pytest.raises(ValueError):
        stream_rows(3, mode="nope")


def _morphism_image(v):
    # Same recurrence as directive_images (pinned against psi above), inlined
    # so single images can be built without walking a whole tree level.
    w, ma, mb = "", "a", "b"
    for x in v:
        if x == "a":
            w, ma, mb = ma + w, ma, ma + mb
        else:
            w, ma, mb = mb + w, mb + ma, mb
    return w


def test_dual_path_agreement_on_random_directives():
    # Arithmetic stats against direct scans of materialized images, on random
    # directives longer than the exhaustive range.  Directives whose image
    # would be huge are re-drawn; length 13 always qualifies, so the loop
    # always makes progress.
    sample = 20_000
    rng = random.Random(20260821)
    checked = 0
    while checked < sample:
        n = rng.randint(13, 28)
        v = "".join(rng.choice("ab") for _ in range(n))
        length, period, bcount = psi_stats_from_directive(v)
        if length > 2000:
            continue
        w = _morphism_image(v)
        assert len(w) == length
        assert minimal_period(w) == period
        assert count_letter(w, "b") == bcount
        if checked % 200 == 0:
            assert psi(v) == w
        checked += 1
