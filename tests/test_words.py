"""Word primitives: reversal, periods, Fine and Wilf, slopes, Fibonacci, Lyndon."""
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

import naive
from sturmian import (
    Rational,
    RATIONAL_INF,
    check_word,
    continuant,
    count_letter,
    exchange_E,
    fibonacci,
    fine_wilf_collapse,
    has_period,
    is_lyndon,
    is_palindrome,
    minimal_period,
    psi,
    reverse,
    slope_eta,
)

words = st.text(alphabet="ab", max_size=40)


def test_reverse_examples():
    assert reverse("") == ""
    assert reverse("a") == "a"
    assert reverse("abb") == "bba"
    assert reverse("aabab") == "babaa"


def test_reverse_is_an_involution():
    for w in naive.words_upto(11):
        assert reverse(reverse(w)) == w


def test_rejects_foreign_letters():
    for bad in ("abc", "A", "a b", "ab\n", ["a", "b"], ("a",)):
        with pytest.raises(ValueError):
            reverse(bad)
        with pytest.raises(ValueError):
            minimal_period(bad)


@pytest.mark.parametrize("bad", [["a", "b"], ("a",)])
def test_refuses_words_that_are_not_str(bad):
    # Words are plain str: a sequence of letters gets the documented
    # ValueError, not an answer or a TypeError from deep inside a builder.
    for fn in (is_palindrome, psi, exchange_E):
        with pytest.raises(ValueError, match="word must be a str"):
            fn(bad)


# Look-alikes of the two letters: capital A, Cyrillic a, fullwidth a, NUL
# and newline.
@given(st.text(alphabet="abAаａ\x00\n", max_size=30))
def test_check_word_accepts_exactly_words_over_ab(w):
    if set(w) <= {"a", "b"}:
        assert check_word(w) is w
    else:
        with pytest.raises(ValueError) as err:
            check_word(w)
        assert str(err.value) == f"word must use only letters 'a' and 'b': {w!r}"


def test_check_word_refuses_a_long_word_bad_only_at_its_end():
    w = "ab" * 50_000
    assert check_word(w) is w
    bad = w[:-1] + "c"
    with pytest.raises(ValueError) as err:
        check_word(bad)
    assert str(err.value) == f"word must use only letters 'a' and 'b': {bad!r}"


def test_is_palindrome():
    assert is_palindrome("")
    assert is_palindrome("a")
    assert is_palindrome("aba")
    assert not is_palindrome("ab")
    assert not is_palindrome("aab")


@given(words)
def test_is_palindrome_matches_definition(w):
    assert is_palindrome(w) == (w == w[::-1])


def test_has_period_examples():
    w = "aabaabaaabaabaa"
    assert has_period(w, 7)
    assert has_period(w, 10)
    assert not has_period(w, 4)
    assert has_period(w, len(w))
    assert has_period(w, len(w) + 9)
    assert has_period("", 1)
    with pytest.raises(ValueError):
        has_period("ab", 0)


@given(words, st.integers(min_value=1, max_value=50))
def test_every_multiple_of_a_period_is_a_period(w, p):
    if has_period(w, p):
        for k in range(2, 4):
            assert has_period(w, k * p)


@given(st.text(alphabet="ab", min_size=1, max_size=8), st.integers(2, 6), words)
def test_factors_inherit_periods(u, k, pad):
    w = (u * k)[: len(u) * k]
    p = len(u)
    assert has_period(w, p)
    for i in range(0, len(w), 3):
        for j in range(i, len(w) + 1, 2):
            assert has_period(w[i:j], p)


def test_minimal_period_examples():
    assert minimal_period("") == 1
    assert minimal_period("aaaa") == 1
    assert minimal_period("ab") == 2
    assert minimal_period("abaababaaba") == 5
    assert minimal_period("aabaabaaabaabaa") == 7


def test_minimal_period_matches_naive_exhaustively():
    for w in naive.words_upto(12):
        assert minimal_period(w) == naive.min_period_naive(w)


@given(words)
def test_minimal_period_matches_naive(w):
    p = minimal_period(w)
    assert p == naive.min_period_naive(w)
    assert has_period(w, p)


def test_fine_wilf_examples():
    # Long enough: two periods force the gcd to be a period.
    assert fine_wilf_collapse("aaaaa", 2, 3)
    assert has_period("aaaaa", 1)
    # One letter short of the threshold: 15 < 7 + 10 - gcd(7, 10).
    w = "aabaabaaabaabaa"
    assert not fine_wilf_collapse(w, 7, 10)
    assert minimal_period(w) == 7
    with pytest.raises(ValueError):
        fine_wilf_collapse("ab", 1, 2)


def test_fine_wilf_implication_exhaustively():
    for w in naive.words_upto(10):
        n = len(w)
        for p in range(1, n + 1):
            if not has_period(w, p):
                continue
            for q in range(p + 1, n + 1):
                if has_period(w, q) and fine_wilf_collapse(w, p, q):
                    assert has_period(w, gcd(p, q))


@given(st.text(alphabet="ab", min_size=12, max_size=24))
def test_fine_wilf_implication_random(w):
    periods = [p for p in range(1, len(w) + 1) if has_period(w, p)]
    for i, p in enumerate(periods):
        for q in periods[i + 1 :]:
            if fine_wilf_collapse(w, p, q):
                assert has_period(w, gcd(p, q))


def test_count_letter():
    assert count_letter("abaab", "a") == 3
    assert count_letter("abaab", "b") == 2
    assert count_letter("", "a") == 0
    with pytest.raises(ValueError):
        count_letter("ab", "c")


def test_slope_examples():
    assert slope_eta("") == Rational(1, 1)
    assert slope_eta("aaabaabaaabaabaab") == Rational(5, 12)
    assert slope_eta("abab") == Rational(1, 1)
    assert slope_eta("aaa") == Rational(0, 1)
    assert slope_eta("bb") == RATIONAL_INF
    assert slope_eta("bb").is_infinite


@given(st.text(alphabet="ab", min_size=1, max_size=40))
def test_slope_is_reduced(w):
    eta = slope_eta(w)
    if "a" in w:
        assert gcd(eta.num, eta.den) == 1
        assert eta == Rational.reduced(count_letter(w, "b"), count_letter(w, "a"))
    else:
        assert eta == RATIONAL_INF


def test_rational():
    assert Rational(5, 12).num == 5
    assert Rational(5, 12).den == 12
    assert str(Rational(5, 12)) == "5/12"
    assert Rational.reduced(10, 24) == Rational(5, 12)
    assert Rational.reduced(5, 0) == RATIONAL_INF
    assert Rational(0, 1) == Rational.reduced(0, 7)
    assert not Rational(0, 1).is_infinite
    with pytest.raises(ValueError):
        Rational(2, 4)
    with pytest.raises(ValueError):
        Rational(0, 0)
    with pytest.raises(ValueError):
        Rational.reduced(0, 0)
    with pytest.raises(ValueError):
        Rational(-1, 2)


@pytest.mark.parametrize("num, den", [(True, 2), (1, True), (1.0, 3), (2, 3.0), ("1", 2)])
def test_rational_refuses_non_integer_components(num, den):
    # Bools are refused too: Rational(True, 2) would print as True/2.
    with pytest.raises(ValueError, match="must be integers"):
        Rational(num, den)


def test_fibonacci_values():
    assert [fibonacci(n) for n in range(-1, 11)] == [1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144]
    assert fibonacci(15) == 1597
    assert fibonacci(20) == 17711
    assert fibonacci(21) == 28657
    with pytest.raises(ValueError):
        fibonacci(-2)


def test_fibonacci_recurrence_and_continuant_bridge():
    for n in range(1, 61):
        assert fibonacci(n) == fibonacci(n - 1) + fibonacci(n - 2)
    for n in range(0, 41):
        assert fibonacci(n) == continuant((1,) * (n + 1))


def test_is_lyndon_examples():
    assert is_lyndon("a")
    assert is_lyndon("ab")
    assert is_lyndon("aaabaab")
    assert not is_lyndon("")
    assert not is_lyndon("ba")
    assert not is_lyndon("aa")
    assert not is_lyndon("abab")


def test_is_lyndon_matches_rotation_definition():
    for w in naive.words_upto(10):
        assert is_lyndon(w) == naive.is_lyndon_naive(w)


@given(st.text(alphabet="ab", min_size=1, max_size=60))
def test_is_lyndon_matches_rotation_definition_on_random_words(w):
    assert is_lyndon(w) == naive.is_lyndon_naive(w)


def test_is_lyndon_on_letter_powers():
    for k in (1, 2, 3, 17):
        for w in ("a" * k, "b" * k, "a" * k + "b", "a" + "b" * k, "b" * k + "a", "a" * k + "ba"):
            assert is_lyndon(w) == naive.is_lyndon_naive(w)


def test_is_lyndon_at_a_million_letters():
    # Duval's scan is linear; comparing w with each proper suffix was quadratic.
    k = 10**6
    assert is_lyndon("a" * (k - 1) + "b")
    assert not is_lyndon("a" * k)
    assert not is_lyndon("a" * (k // 2) + "b" + "a" * (k // 2 - 1))
