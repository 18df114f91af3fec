"""Central, standard, and Christoffel words and their structure theorems."""
from math import gcd

import pytest

import naive
from sturmian import (
    MaterializationLimitError,
    NotChristoffelError,
    NotCentralError,
    NotStandardError,
    Rational,
    central_certificate,
    central_decompose,
    christoffel,
    christoffel_factorize,
    count_central,
    has_period,
    is_central,
    is_christoffel,
    is_lyndon,
    is_standard,
    minimal_period,
    psi,
    slope_eta,
    standard_decompose,
    standard_from_coefficients,
)
from sturmian import config


def _coprime_pairs(total_max, lo=1):
    for p in range(lo, total_max):
        for q in range(lo, total_max + 1 - p):
            if gcd(p, q) == 1:
                yield p, q


def test_is_central_examples():
    assert is_central("")
    assert is_central("a")
    assert is_central("bb")
    assert is_central("ababaababa")
    assert is_central("aabaabaaabaabaa")
    assert not is_central("ab")
    assert not is_central("abab")
    assert not is_central("aabbaa")


def test_is_central_matches_image_set(psi12):
    images = set(psi12.values())
    for w in naive.words_upto(8):
        assert is_central(w) == (w in images)


def test_central_certificate_example():
    cert = central_certificate("aabaabaaabaabaa")
    assert (cert.p, cert.q, cert.directive) == (7, 10, "aabba")
    assert central_certificate("").p == 1
    assert (central_certificate("a").p, central_certificate("a").q) == (1, 2)
    with pytest.raises(NotCentralError):
        central_certificate("abab")


def test_central_certificate_invariants(psi12):
    for v in naive.words_upto(9):
        w = psi12[v]
        cert = central_certificate(w)
        assert cert.word == w
        assert cert.directive == v
        assert cert.p <= cert.q
        assert gcd(cert.p, cert.q) == 1
        assert cert.p + cert.q == len(w) + 2
        assert has_period(w, cert.p) and has_period(w, cert.q)
        assert minimal_period(w) == cert.p


def test_central_decompose_examples():
    assert central_decompose("ababaababa") == ("ababa", "aba")
    assert central_decompose("aba") == ("", "a")
    assert central_decompose("abaaba") == ("aba", "a")
    assert central_decompose("") is None
    assert central_decompose("a") is None
    assert central_decompose("bbbb") is None
    with pytest.raises(NotCentralError):
        central_decompose("ab")


def test_central_decompose_structure(psi12):
    for v in naive.words_upto(9):
        w = psi12[v]
        got = central_decompose(w)
        if len(set(w)) < 2:
            assert got is None
            continue
        w1, w2 = got
        assert w == w1 + "ab" + w2 == w2 + "ba" + w1
        assert is_central(w1) and is_central(w2)
        cert = central_certificate(w)
        assert {len(w1) + 2, len(w2) + 2} == {cert.p, cert.q}


def test_central_decompose_is_unique(psi12):
    for v in naive.words_upto(8):
        w = psi12[v]
        if len(set(w)) < 2:
            continue
        splits = [
            k
            for k in range(len(w) - 1)
            if w[k : k + 2] == "ab" and w == w[k + 2 :] + "ba" + w[:k]
        ]
        assert len(splits) == 1
        assert central_decompose(w) == (w[: splits[0]], w[splits[0] + 2 :])


def test_standard_sequence():
    seq = standard_from_coefficients((1, 1, 1))
    assert seq.term(-1) == "b"
    assert seq.term(0) == "a"
    assert seq.term(1) == "ab"
    assert seq.term(2) == "aba"
    assert seq.term(3) == "abaab"
    with pytest.raises(ValueError):
        seq.term(4)
    with pytest.raises(ValueError):
        seq.term(-2)
    assert standard_from_coefficients((0, 2)).term(2) == "bba"
    assert standard_from_coefficients(()).term(0) == "a"
    with pytest.raises(ValueError):
        standard_from_coefficients((-1,))
    with pytest.raises(ValueError):
        standard_from_coefficients((2, 0, 1))


def test_standard_sequence_cap():
    saved = config._override
    try:
        config.set_max_word_len(100)
        with pytest.raises(MaterializationLimitError):
            standard_from_coefficients((1,) * 30)
    finally:
        config._override = saved


def test_standard_terms_are_standard():
    for coeffs in ((1, 1, 1, 1, 1), (0, 1, 2), (3, 2, 1), (2, 4), (0, 5, 1, 1)):
        seq = standard_from_coefficients(coeffs)
        for n in range(1, len(coeffs) + 1):
            assert is_standard(seq.term(n))


def test_is_standard_matches_definition(psi12):
    images = set(psi12.values())
    for w in naive.words_upto(10):
        expected = len(w) == 1 or (
            len(w) >= 2 and w[-2:] in ("ab", "ba") and w[:-2] in images
        )
        assert is_standard(w) == expected


def test_standard_decompose():
    assert standard_decompose("abaab") == ("ab", "a", "b")
    assert standard_decompose("ab") == ("", "a", "b")
    assert standard_decompose("ba") == ("", "b", "a")
    assert standard_decompose("aabaaab") == ("aab", "a", "b")
    with pytest.raises(ValueError):
        standard_decompose("a")
    with pytest.raises(NotStandardError):
        standard_decompose("aa")
    with pytest.raises(NotStandardError):
        standard_decompose("abba")
    v, x, y = standard_decompose("bababbabab" + "ab")
    assert (v, x, y) == ("baab", "a", "b")
    assert psi(v) + x + y == "bababbabab" + "ab"


def test_christoffel_examples():
    assert christoffel(0, 1) == "a"
    assert christoffel(1, 0) == "b"
    assert christoffel(1, 1) == "ab"
    assert christoffel(1, 2) == "aab"
    assert christoffel(2, 1) == "abb"
    assert christoffel(1, 4) == "aaaab"
    assert christoffel(4, 1) == "abbbb"
    assert christoffel(2, 5) == "aaabaab"
    assert christoffel(3, 8) == "aaabaaabaab"
    assert christoffel(5, 12) == "aaabaabaaabaabaab"
    assert christoffel(7, 5) == "abababbababb"


def test_christoffel_rejections():
    with pytest.raises(ValueError):
        christoffel(0, 0)
    with pytest.raises(ValueError):
        christoffel(2, 4)
    with pytest.raises(ValueError):
        christoffel(-1, 3)


@pytest.mark.parametrize("p, q", [(True, 1), (1, True), (1.5, 2), (2, 3.0), ("2", 3)])
def test_christoffel_refuses_non_integer_arguments(p, q):
    # A bool is not read as 0 or 1, and a float gets the documented
    # ValueError rather than a TypeError from gcd.
    with pytest.raises(ValueError, match="must be integers"):
        christoffel(p, q)


def test_christoffel_matches_letter_rule():
    for p, q in _coprime_pairs(300, lo=0):
        assert christoffel(p, q) == naive.christoffel_naive(p, q)


# Pairs of consecutive golden-ratio convergents, so Euclid's algorithm takes
# the longest route down the Christoffel tree, at p+q = 4,001, 20,001 and
# 1,000,001.
LONG_PAIRS = [(1529, 2472), (7639, 12362), (381966, 618035)]


@pytest.mark.parametrize("p, q", LONG_PAIRS + [(q, p) for p, q in LONG_PAIRS])
def test_long_christoffel_words_match_letter_rule(p, q):
    w = christoffel(p, q)
    assert w == naive.christoffel_naive(p, q)
    n = p + q
    fac = christoffel_factorize(w)
    assert fac.w1 + fac.w2 == w
    assert len(fac.w1) == pow(p, -1, n) == fac.p_inv
    assert len(fac.w2) == pow(q, -1, n) == fac.q_inv


def test_christoffel_slope_and_counts():
    for p, q in _coprime_pairs(100):
        w = christoffel(p, q)
        assert len(w) == p + q
        assert w.count("b") == p
        assert slope_eta(w) == Rational(p, q)


def test_christoffel_strip_is_central():
    for p, q in _coprime_pairs(60):
        w = christoffel(p, q)
        if len(w) == 1:
            continue
        assert w[0] == "a" and w[-1] == "b"
        assert is_central(w[1:-1])


def test_christoffel_words_are_lyndon():
    for p, q in _coprime_pairs(60):
        assert is_lyndon(christoffel(p, q))


def test_is_christoffel_examples():
    assert is_christoffel("a")
    assert is_christoffel("b")
    assert is_christoffel("ab")
    assert is_christoffel("aab")
    assert is_christoffel("abb")
    assert is_christoffel("aabab")
    assert not is_christoffel("")
    assert not is_christoffel("ba")
    assert not is_christoffel("abab")
    assert not is_christoffel("aabba")


def test_is_christoffel_matches_strip_characterization():
    for w in naive.words_upto(10):
        expected = len(w) == 1 or (
            len(w) >= 2 and w[0] == "a" and w[-1] == "b" and is_central(w[1:-1])
        )
        assert is_christoffel(w) == expected


def test_factorization_example():
    fac = christoffel_factorize("aaabaabaaabaabaab")
    assert fac.w1 == "aaabaab"
    assert fac.w2 == "aaabaabaab"
    assert (fac.p_inv, fac.q_inv) == (7, 10)
    assert fac.whole == fac.w1 + fac.w2


def test_factorization_small():
    fac = christoffel_factorize("ab")
    assert (fac.w1, fac.w2, fac.p_inv, fac.q_inv) == ("a", "b", 1, 1)
    fac = christoffel_factorize("aaabaab")
    assert (fac.w1, fac.w2) == ("aaab", "aab")
    assert (fac.p_inv, fac.q_inv) == (4, 3)


def test_factorization_rejections():
    with pytest.raises(ValueError):
        christoffel_factorize("a")
    with pytest.raises(ValueError):
        christoffel_factorize("b")
    with pytest.raises(NotChristoffelError):
        christoffel_factorize("abab")
    with pytest.raises(NotChristoffelError):
        christoffel_factorize("ba")
    with pytest.raises(NotChristoffelError):
        christoffel_factorize("")


def test_factorization_laws():
    for p, q in _coprime_pairs(100):
        if p + q < 2:
            continue
        w = christoffel(p, q)
        fac = christoffel_factorize(w)
        n = p + q
        assert fac.w1 + fac.w2 == w
        assert fac.w1 < fac.w2
        assert len(fac.w1) == pow(p, -1, n) == fac.p_inv
        assert len(fac.w2) == pow(q, -1, n) == fac.q_inv


def test_factorization_split_is_unique():
    for p, q in _coprime_pairs(60):
        if p + q < 2:
            continue
        w = christoffel(p, q)
        splits = [
            i
            for i in range(1, len(w))
            if is_christoffel(w[:i]) and is_christoffel(w[i:])
        ]
        fac = christoffel_factorize(w)
        assert splits == [len(fac.w1)]


def test_factor_w2_is_longest_proper_lyndon_suffix():
    for p, q in _coprime_pairs(40):
        if p + q < 2:
            continue
        w = christoffel(p, q)
        fac = christoffel_factorize(w)
        suffixes = [w[i:] for i in range(1, len(w)) if is_lyndon(w[i:])]
        assert suffixes and max(suffixes, key=len) == fac.w2


def test_count_central_values():
    assert [count_central(n) for n in range(13)] == [1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4, 12, 6]
    assert count_central(14) == 8
    assert count_central(30) == 16
    with pytest.raises(ValueError):
        count_central(-1)


def test_count_central_matches_enumeration(psi12):
    by_len = {}
    for w in psi12.values():
        if len(w) <= 10:
            by_len[len(w)] = by_len.get(len(w), 0) + 1
    for n in range(11):
        assert by_len.get(n, 0) == count_central(n)
