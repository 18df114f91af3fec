"""Acceptance gate: ten exhaustive checks, one verdict line each.

Each test prints '[criterion NN] PASS/FAIL ...' before asserting, so a run
always shows the per-criterion outcome, and pins the exact values with no
tolerances.
"""
import random
import time
from math import gcd

import naive
from sturmian import (
    christoffel,
    christoffel_factorize,
    count_central,
    central_length_census,
    continuant,
    count_letter,
    exchange_E,
    fibonacci,
    fibonacci_directive_prefix,
    harmonic_at,
    is_christoffel,
    justin_check,
    minimal_period,
    palindromic_closure,
    psi,
    psi_stats_from_directive,
    slope_eta,
    slope_from_directive,
    stream_prefix,
    verify_continuant_max,
    verify_max_bcount,
    verify_max_length,
    verify_max_period,
    DirectiveSpec,
    Rational,
)
from sturmian.arithmetic import christoffel_length_from_directive

_PSI12 = None


def psi_cache():
    """Closure images for every |v| <= 12, built once by the definitional
    closure in tests/naive.py and checked against psi on every entry."""
    global _PSI12
    if _PSI12 is None:
        table = {}
        for n in range(13):
            for v in naive.all_words(n):
                table[v] = naive.psi_naive(v)
        mismatched = [v for v, w in table.items() if psi(v) != w]
        assert not mismatched, f"psi differs from the naive closure on {mismatched[:5]}"
        _PSI12 = table
    return _PSI12


def report(num, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}", flush=True)
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_max_length_both_routes():
    failures = []
    t0 = time.perf_counter()
    for n in range(0, 15):
        rep = verify_max_length(n, "materialized")
        if not (rep.passed and rep.maximum == fibonacci(n + 1) - 2):
            failures.append(("materialized", n))
        v = fibonacci_directive_prefix(n)
        if set(rep.argmax) != {v, exchange_E(v)}:
            failures.append(("materialized-argmax", n))
    t_mat = time.perf_counter() - t0
    t0 = time.perf_counter()
    for n in range(0, 23):
        rep = verify_max_length(n, "arithmetic")
        if not (rep.passed and rep.maximum == fibonacci(n + 1) - 2):
            failures.append(("arithmetic", n))
    t_arith = time.perf_counter() - t0
    if t_mat >= 10.0:
        failures.append(("materialized-runtime", t_mat))
    if t_arith >= 60.0:
        failures.append(("arithmetic-runtime", t_arith))
    report(
        1,
        not failures,
        f"max |psi(v)| = F(n+1)-2: n<=14 materialized in {t_mat:.2f}s, "
        f"n<=22 arithmetic in {t_arith:.2f}s"
        + (f"; failures: {failures}" if failures else ""),
    )


def test_criterion_02_max_period_with_order_four_table():
    failures = []
    for n in range(1, 15):
        for mode in ("materialized", "arithmetic"):
            rep = verify_max_period(n, mode)
            if not (rep.passed and rep.maximum == fibonacci(n - 1)):
                failures.append((mode, n))
        if n == 2 and len(verify_max_period(n).argmax) != 2:
            failures.append(("argmax-size", n))
        if n >= 3 and len(verify_max_period(n).argmax) != 4:
            failures.append(("argmax-size", n))
    four = verify_max_period(4, "materialized")
    if four.maximum != 5 or four.argmax != ("abab", "abba", "baab", "baba"):
        failures.append(("order-4-table", four.argmax))
    if psi("abab") != "abaababaaba" or psi("abba") != "ababaababa":
        failures.append(("order-4-images", None))
    if minimal_period("abaababaaba") != 5 or minimal_period("ababaababa") != 5:
        failures.append(("order-4-periods", None))
    report(
        2,
        not failures,
        "max period = F(n-1) for 1<=n<=14, order-4 table reproduced"
        + (f"; failures: {failures}" if failures else ""),
    )


def test_criterion_03_max_bcount_with_order_five_case():
    failures = []
    for n in range(3, 15):
        for mode in ("materialized", "arithmetic"):
            rep = verify_max_bcount(n, mode)
            if not (rep.passed and rep.maximum == fibonacci(n - 1) - 1):
                failures.append((mode, n))
    five = verify_max_bcount(5, "materialized")
    if five.maximum != 7 or five.argmax != ("ababa", "abbab"):
        failures.append(("order-5-case", five.argmax))
    w = psi("abbab")
    if w != "ababaabababaababa" or count_letter(w, "b") != 7:
        failures.append(("order-5-image", w))
    report(
        3,
        not failures,
        "max b-count over a-leading directives = F(n-1)-1 for 3<=n<=14, "
        "order-5 case reproduced" + (f"; failures: {failures}" if failures else ""),
    )


def test_criterion_04_continuant_maximum():
    failures = []
    t0 = time.perf_counter()
    for n in range(0, 21):
        rep = verify_continuant_max(n)
        if not (rep.passed and rep.maximum == fibonacci(n + 1)):
            failures.append(("value", n))
        expected = {(0,) + (1,) * n} | ({(1,) * n} if n >= 1 else set())
        if set(rep.argmax) != expected:
            failures.append(("families", n))
    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        failures.append(("runtime", elapsed))
    report(
        4,
        not failures,
        f"max continuant over weight-n lists = F(n+1) for n<=20, two equality "
        f"families only, in {elapsed:.2f}s"
        + (f"; failures: {failures}" if failures else ""),
    )


def test_criterion_05_cross_path_identities():
    cache = psi_cache()
    nonempty = sum(1 for v in cache if v)
    mismatches = 0
    for v, w in cache.items():
        length, period, bcount = psi_stats_from_directive(v)
        ok = (
            length == len(w)
            and period == minimal_period(w)
            and bcount == count_letter(w, "b")
            and slope_from_directive(v) == slope_eta("a" + w + "b")
        )
        if not ok:
            mismatches += 1
    ex_ok = True
    w = christoffel(5, 12)
    ex_ok &= w == "aaabaabaaabaabaab"
    ex_ok &= slope_eta(w) == Rational(5, 12)
    ex_ok &= len(w) == 17 == continuant((1, 2, 2, 2))
    ex_ok &= minimal_period(psi("aabba")) == 7 == continuant((1, 2, 2))
    fac = christoffel_factorize(w)
    ex_ok &= (len(fac.w1), len(fac.w2)) == (7, 10)
    ex_ok &= (5 * 7) % 17 == 1 and (12 * 10) % 17 == 1
    ok = nonempty == 8190 and mismatches == 0 and ex_ok
    report(
        5,
        ok,
        f"cross-path length/period/slope/b-count on {nonempty} non-empty "
        f"directives |v|<=12: {mismatches} mismatches; 5/12 worked example "
        f"{'reproduced' if ex_ok else 'FAILED'}",
    )


def test_criterion_06_christoffel_factorization():
    failures = 0
    pairs = 0
    for p in range(1, 200):
        for q in range(1, 200 - p + 1):
            if gcd(p, q) != 1 or p + q < 2:
                continue
            pairs += 1
            w = christoffel(p, q)
            n = p + q
            fac = christoffel_factorize(w)
            ok = (
                fac.w1 + fac.w2 == w
                and fac.w1 < fac.w2
                and len(fac.w1) == pow(p, -1, n)
                and len(fac.w2) == pow(q, -1, n)
            )
            if ok and n <= 60:
                splits = [
                    i
                    for i in range(1, n)
                    if is_christoffel(w[:i]) and is_christoffel(w[i:])
                ]
                # w2 is the longest proper Lyndon suffix.
                lyndon = next(i for i in range(1, n) if naive.is_lyndon_naive(w[i:]))
                ok = splits == [len(fac.w1)] == [lyndon]
            if not ok:
                failures += 1
    report(
        6,
        failures == 0,
        f"Lyndon factorization on {pairs} coprime pairs with p+q<=200 "
        f"(uniqueness and the longest Lyndon suffix verified for p+q<=60): "
        f"{failures} failures",
    )


def test_criterion_07_closure_properties_and_justin():
    cache = psi_cache()
    bad = []
    if len(set(cache.values())) != len(cache):
        bad.append("P1")
    for v in naive.words_upto(10):
        w = cache[v]
        for k in range(len(v)):
            u = cache[v[:k]]
            if not (w.startswith(u) and w.endswith(u)):
                bad.append("P2")
    rng = random.Random(3)
    pool = list(naive.words_upto(6)) + [
        "".join(rng.choice("ab") for _ in range(rng.randint(7, 12))) for _ in range(40)
    ]
    for v in pool:
        w = cache.get(v) or psi(v)
        for k in range(len(w) + 1):
            if not w.startswith(palindromic_closure(w[:k])):
                bad.append("P3")
    for v in naive.words_upto(10):
        w = cache[v]
        pal_prefixes = {w[:k] for k in range(len(w) + 1) if w[:k] == w[:k][::-1]}
        if pal_prefixes != {cache[v[:k]] for k in range(len(v) + 1)}:
            bad.append("P4")
    for v in naive.words_upto(12):
        if cache[exchange_E(v)] != exchange_E(cache[v]):
            bad.append("P5")
        if len(cache[v[::-1]]) != len(cache[v]):
            bad.append("P6")
    for n in range(0, 11):
        for w in naive.all_words(n):
            for k in range(n + 1):
                if not justin_check(w[:k], w[k:]):
                    bad.append("justin")
    bad = sorted(set(bad))
    report(
        7,
        not bad,
        "P1-P6 and the composition formula, exhaustive at stated orders: "
        + ("zero counterexamples" if not bad else f"counterexamples in {bad}"),
    )


def test_criterion_08_central_count():
    census = central_length_census(14)
    bad = {n: (census[n], count_central(n)) for n in range(15) if census[n] != count_central(n)}
    report(
        8,
        not bad,
        "central words of length n number phi(n+2) for n<=14"
        + (f"; mismatches {bad}" if bad else ""),
    )


def test_criterion_09_harmonic_prefixes():
    bad = []
    for n in range(1, 21):
        period, modulus, residue, ok = harmonic_at(n)
        if not ok or period != fibonacci(n - 1) or modulus != fibonacci(n + 1):
            bad.append(n)
    report(
        9,
        not bad,
        "squared period of each alternating-prefix image is +-1 mod length+2 "
        "for orders 1..20" + (f"; failing orders {bad}" if bad else ""),
    )


def test_criterion_10_fibonacci_stream():
    prefix = stream_prefix(DirectiveSpec.parse("|ab"), 25)
    prefix_ok = prefix == "abaababaabaababaababaabaa"
    length_ok = all(
        christoffel_length_from_directive(fibonacci_directive_prefix(n)) - 2
        == fibonacci(n + 1) - 2
        for n in range(0, 26)
    )
    report(
        10,
        prefix_ok and length_ok,
        f"stream '|ab' 25-letter prefix {'byte-exact' if prefix_ok else 'WRONG'}; "
        f"arithmetic image lengths F(n+1)-2 for n<=25 "
        f"{'hold' if length_ok else 'FAIL'}",
    )
