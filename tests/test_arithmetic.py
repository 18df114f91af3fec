"""Exponent encodings, continuants, continued fractions, directive formulas."""
import random
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

import naive
from sturmian import (
    ConvergentTable,
    Rational,
    bcount_from_directive,
    cf_eval,
    christoffel_length_from_directive,
    continuant,
    convergents,
    count_letter,
    fibonacci,
    fibonacci_directive_prefix,
    from_integral,
    minimal_period,
    minimal_period_from_directive,
    psi,
    psi_stats_from_directive,
    slope_eta,
    slope_from_directive,
    standard_from_coefficients,
    to_integral,
    validate_cf,
    validate_integral,
)

words = st.text(alphabet="ab", max_size=14)
cf_terms = st.tuples(st.integers(0, 9)).flatmap(
    lambda h: st.lists(st.integers(1, 9), max_size=8).map(lambda t: h + tuple(t))
)


def test_to_integral_examples():
    assert to_integral("") == ()
    assert to_integral("b") == (1,)
    assert to_integral("a") == (0, 1)
    assert to_integral("bbabaa") == (2, 1, 1, 2)
    assert to_integral("aaababb") == (0, 3, 1, 1, 2)
    assert to_integral("aabba") == (0, 2, 2, 1)


def test_from_integral_examples():
    assert from_integral(()) == ""
    assert from_integral((1,)) == "b"
    assert from_integral((0, 1)) == "a"
    assert from_integral((2, 1, 1, 2)) == "bbabaa"


def test_integral_round_trips():
    for v in naive.words_upto(12):
        assert from_integral(to_integral(v)) == v
    for n in range(0, 13):
        for rep in naive.compositions(n):
            if rep == (0,):
                continue
            assert to_integral(from_integral(rep)) == rep


def test_validate_integral_rejects():
    for bad in ((0,), (1, 0), (0, 0, 1), (-1,), (2, 0), (1, -2), (0, 1, 0, 1)):
        with pytest.raises(ValueError):
            validate_integral(bad)
    assert validate_integral(()) == ()
    assert validate_integral([0, 2]) == (0, 2)


def test_continuant_examples():
    assert continuant(()) == 1
    assert continuant((4,)) == 4
    assert continuant((0,)) == 0
    assert continuant((1, 2, 2, 2)) == 17
    assert continuant((1, 2, 2)) == 7
    assert continuant((2, 2, 2)) == 12


@given(st.lists(st.integers(0, 9), max_size=25))
def test_continuant_matches_matrix_product(terms):
    assert continuant(terms) == naive.continuant_matrix(terms)


def test_continuant_reversal_invariance_exhaustively():
    for n in range(0, 17):
        for rep in naive.compositions(n):
            assert continuant(rep) == continuant(rep[::-1])


@given(st.lists(st.integers(0, 50), max_size=20))
def test_continuant_reversal_invariance_random(terms):
    assert continuant(terms) == continuant(terms[::-1])


def test_continuant_fibonacci():
    for n in range(0, 42):
        assert continuant((1,) * n) == fibonacci(n - 1)


@given(st.lists(st.integers(1, 9), min_size=1, max_size=10))
def test_continuant_absorbs_trailing_one(terms):
    bumped = terms[:-1] + [terms[-1] + 1]
    assert continuant(terms + [1]) == continuant(bumped)


@given(
    st.integers(0, 9),
    st.integers(0, 9),
    st.integers(0, 9),
    st.integers(0, 9),
    st.integers(0, 9),
)
def test_continuant_degree_five_polynomial(a0, a1, a2, a3, a4):
    assert continuant((a0, a1, a2, a3, a4)) == naive.continuant_poly5(a0, a1, a2, a3, a4)


def test_cf_eval_examples():
    assert cf_eval((0, 2, 2, 2)) == Rational(5, 12)
    assert cf_eval((1, 2, 2)) == Rational(7, 5)
    assert cf_eval((4,)) == Rational(4, 1)
    assert cf_eval((0, 1)) == Rational(1, 1)
    assert cf_eval((0,)) == Rational(0, 1)


def test_cf_validation():
    for bad in ((), (1, 0, 2), (-1, 2), (2, 1, -1)):
        with pytest.raises(ValueError):
            validate_cf(bad)
        with pytest.raises(ValueError):
            cf_eval(bad)
    assert validate_cf((0, 1)) == (0, 1)


@pytest.mark.parametrize(
    "call, terms",
    [
        (cf_eval, (0, 2.5)),
        (continuant, (1.5, 2)),
        (continuant, (1, True)),
        (from_integral, (0, 1.9)),
        (validate_integral, (2, 1.0)),
        (validate_cf, (0, "2")),
        (convergents, (0, 2, False)),
        (standard_from_coefficients, (1.7, 1)),
    ],
)
def test_non_integer_terms_are_refused_not_truncated(call, terms):
    with pytest.raises(ValueError, match="must be integers"):
        call(terms)


@given(cf_terms)
def test_cf_eval_is_reduced_and_matches_float(terms):
    val = cf_eval(terms)
    assert gcd(val.num, val.den) == 1
    acc = None
    for t in reversed(terms):
        acc = t if acc is None else t + (1 / acc if acc else float("inf"))
    if val.den and acc:
        assert abs(val.num / val.den - acc) < 1e-9


@given(cf_terms)
def test_convergents_table(terms):
    table = convergents(terms)
    assert isinstance(table, ConvergentTable)
    assert table.terms == tuple(terms)
    assert len(table.rows) == len(terms) + 1
    assert table.rows[0] == (1, 0, 1)
    for k, (a, b, p) in enumerate(table.rows):
        assert p == a + b
        if k >= 1:
            assert b >= 1
            assert gcd(a, b) == 1
            assert Rational.reduced(a, b) == cf_eval(terms[:k])
    a_last, b_last, _ = table.rows[-1]
    assert continuant(terms) == a_last
    assert continuant(terms[1:]) == b_last


@given(cf_terms)
def test_convergent_sums_are_shifted_continuants(terms):
    table = convergents(terms)
    for k in range(1, len(terms) + 1):
        head = (terms[0] + 1,) + tuple(terms[1:k])
        assert table.rows[k][2] == continuant(head)


def test_convergents_example():
    table = convergents((0, 2, 2, 2))
    assert table.rows == ((1, 0, 1), (0, 1, 1), (1, 2, 3), (2, 5, 7), (5, 12, 17))


def test_directive_formula_examples():
    assert slope_from_directive("aabba") == Rational(5, 12)
    assert christoffel_length_from_directive("aabba") == 17
    assert minimal_period_from_directive("aabba") == 7
    assert bcount_from_directive("aabba") == 4
    assert psi_stats_from_directive("aabba") == (15, 7, 4)
    assert psi_stats_from_directive("") == (0, 1, 0)
    assert psi_stats_from_directive("bbb") == (3, 1, 3)
    assert psi_stats_from_directive("a") == (1, 1, 0)
    assert slope_from_directive("") == Rational(1, 1)
    assert slope_from_directive("baab") == Rational(7, 5)


def test_directive_formulas_match_materialization():
    for v in naive.words_upto(10):
        w = psi(v)
        assert psi_stats_from_directive(v) == (
            len(w),
            minimal_period(w),
            count_letter(w, "b"),
        )
        assert slope_from_directive(v) == slope_eta("a" + w + "b")
        assert christoffel_length_from_directive(v) == len(w) + 2


def test_directive_formulas_match_materialization_sampled():
    rng = random.Random(23)
    done = 0
    while done < 300:
        v = "".join(rng.choice("ab") for _ in range(rng.randint(11, 26)))
        if christoffel_length_from_directive(v) > 5000:
            continue
        w = psi(v)
        assert psi_stats_from_directive(v) == (
            len(w),
            minimal_period(w),
            count_letter(w, "b"),
        )
        done += 1


def test_standard_sequence_bridge():
    seq = standard_from_coefficients([1] * 15)
    for n in range(1, 16):
        v = fibonacci_directive_prefix(n - 1)
        pair = "ab" if n % 2 == 1 else "ba"
        assert seq.term(n) == psi(v) + pair
        assert len(seq.term(n)) == fibonacci(n)


def test_reversed_directive_period_counts_b():
    # For directives starting with 'a', the reversed directive's image has
    # minimal period equal to the original image's b-count plus one.
    for n in range(1, 13):
        for v in naive.all_words(n):
            if v[0] != "a":
                continue
            assert minimal_period_from_directive(v[::-1]) == bcount_from_directive(v) + 1
