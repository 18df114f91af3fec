"""Kernel contracts, each pinned to a naive reimplementation."""
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

import naive
from sturmian import _kernels, psi, psi_stats_from_directive
from sturmian._kernels import arith_orders, arith_scan, borders, lps_length, min_period


def _scan_brute(n, stat, a_start):
    best, arg = -1, []
    for v in naive.all_words(n):
        if a_start and n > 0 and v[0] != "a":
            continue
        w = naive.psi_naive(v)
        val = (len(w), naive.min_period_naive(w), w.count("b"))[stat]
        if val > best:
            best, arg = val, [v]
        elif val == best:
            arg.append(v)
    return best, sorted(arg)


def test_backend_selected():
    assert _kernels.BACKEND == "pure"


def test_lps_matches_naive_exhaustively():
    for w in naive.words_upto(12):
        assert lps_length(w) == naive.lps_naive(w)


def test_lps_examples():
    assert lps_length("") == 0
    assert lps_length("a") == 1
    assert lps_length("ab") == 1
    assert lps_length("abaa") == 2
    assert lps_length("abab") == 3
    assert lps_length("abaab") == 4
    assert lps_length("aab") == 1
    assert lps_length("abba") == 4


@given(st.text(alphabet="abc", max_size=200))
def test_lps_matches_naive_random(w):
    assert lps_length(w) == naive.lps_naive(w)


def test_min_period_matches_naive_exhaustively():
    for w in naive.words_upto(12):
        assert min_period(w) == naive.min_period_naive(w)


@given(st.text(alphabet="abc", max_size=200))
def test_min_period_matches_naive_random(w):
    assert min_period(w) == naive.min_period_naive(w)


def test_arith_scan_matches_brute_force():
    for n in range(0, 10):
        for stat in (0, 1, 2):
            for a_start in (False, True):
                assert arith_scan(n, stat, a_start) == _scan_brute(n, stat, a_start)


@pytest.mark.parametrize(
    "w, lps, period",
    [
        (psi("ab" * 10), 28655, 10946),  # the order-20 alternating image; F(19) = 10946
        ("a" * 10**5, 10**5, 1),
        ("ab" * 5 * 10**4, 10**5 - 1, 2),
    ],
    ids=["fibonacci-20", "a-power", "ab-power"],
)
def test_string_kernels_on_long_words(w, lps, period):
    assert lps_length(w) == lps
    assert min_period(w) == period


@pytest.mark.parametrize("n", range(10, 15))
def test_arith_scan_matches_run_length_continuants(n):
    """Above the brute-force orders, scan psi_stats_from_directive (no kernel code)."""
    stats = {v: psi_stats_from_directive(v) for v in naive.all_words(n)}
    for stat in (0, 1, 2):
        for a_start in (False, True):
            vals = {v: s[stat] for v, s in stats.items() if not a_start or v[0] == "a"}
            best = max(vals.values())
            assert arith_scan(n, stat, a_start) == (
                best,
                sorted(v for v, val in vals.items() if val == best),
            )


def test_borders_reads_the_naive_period():
    # One entry per letter, and the last one gives the naive period.
    for w in naive.words_upto(9):
        if not w:
            continue
        whole = borders(w)
        assert len(whole) == len(w) and len(w) - whole[-1] == naive.min_period_naive(w)


@pytest.fixture(scope="module")
def run_length_orders():
    """Every order <= 12 of each statistic and a_start, scanned by
    psi_stats_from_directive (no kernel code): {(stat, a_start): orders}."""
    stats = {v: psi_stats_from_directive(v) for v in naive.words_upto(12)}
    table = {}
    for stat in (0, 1, 2):
        for a_start in (False, True):
            orders = []
            for k in range(13):
                vals = {
                    v: s[stat]
                    for v, s in stats.items()
                    if len(v) == k and not (a_start and v.startswith("b"))
                }
                best = max(vals.values())
                orders.append((best, sorted(v for v, val in vals.items() if val == best)))
            table[stat, a_start] = orders
    return table


def test_arith_orders_matches_run_length_continuants(run_length_orders):
    """Every order of one walk, scanned by psi_stats_from_directive (no kernel code)."""
    n = 12
    for (stat, a_start), expected in run_length_orders.items():
        orders = arith_orders(n, stat, a_start)
        assert len(orders) == n + 1
        assert orders == expected
        assert arith_scan(n, stat, a_start) == orders[n]


@pytest.mark.parametrize("block", [2, 4, 8])
def test_arith_orders_splits_blocks(monkeypatch, run_length_orders, block):
    """Small blocks split at every level past log2(block): halves, prefixes
    and index parity still give every order's maximum and sorted argmax."""
    monkeypatch.setattr(_kernels._pure, "_BLOCK", block)
    for (stat, a_start), expected in run_length_orders.items():
        for n in range(13):
            assert arith_orders(n, stat, a_start) == expected[: n + 1]


@pytest.mark.parametrize("stat", [0, 1, 2])
def test_arith_orders_memory_is_bounded(stat):
    """Order 20 in well under the 2^20-node level a whole-level walk would hold."""
    tracemalloc.start()
    try:
        arith_orders(20, stat, stat == 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_arith_scan_rejects_bad_arguments():
    with pytest.raises(ValueError):
        arith_scan(-1, 0, False)
    with pytest.raises(ValueError):
        arith_scan(3, 5, False)
    with pytest.raises(ValueError):
        arith_orders(-1, 0, False)


def test_dispatcher_exposes_kernels():
    assert _kernels.min_period("abaab") == 3
    assert _kernels.min_period("abaababaaba") == 5
    assert _kernels.lps_length("abaab") == 4
    assert _kernels.arith_scan(4, 1, False)[0] == 5
