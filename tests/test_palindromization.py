"""Closure operator, psi, the substitution route, directive streams."""
import random
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import naive
from sturmian import (
    DirectiveSpec,
    MaterializationLimitError,
    NotCentralError,
    directive_word_of,
    exchange_E,
    fibonacci,
    fibonacci_directive_prefix,
    is_central,
    justin_check,
    minimal_period,
    mu,
    op_c,
    op_d,
    p_x,
    palindromic_closure,
    psi,
    psi_stream,
    psi_stream_advance,
    stream_prefix,
)
from sturmian import config

words = st.text(alphabet="ab", max_size=14)

PSI_TABLE = {
    "": "",
    "a": "a",
    "ab": "aba",
    "abb": "ababa",
    "abba": "ababaababa",
    "aabba": "aabaabaaabaabaa",
    "abab": "abaababaaba",
    "ababa": "abaababaabaababaaba",
    "abbab": "ababaabababaababa",
    "ba": "bab",
    "bab": "babbab",
    "bba": "bbabb",
    "aab": "aabaa",
    "baab": "bababbabab",
}

FIB_PREFIX_25 = "abaababaabaababaababaabaa"


def test_closure_examples():
    assert palindromic_closure("") == ""
    assert palindromic_closure("a") == "a"
    assert palindromic_closure("ab") == "aba"
    assert palindromic_closure("abaa") == "abaaba"
    assert palindromic_closure("abab") == "ababa"
    assert palindromic_closure("abaab") == "abaaba"


@given(st.text(alphabet="ab", max_size=60))
def test_closure_matches_naive(w):
    c = palindromic_closure(w)
    assert c == naive.closure_naive(w)
    assert c == c[::-1]
    assert c.startswith(w)
    assert palindromic_closure(c) == c


def test_closure_is_shortest():
    for w in naive.words_upto(9):
        c = palindromic_closure(w)
        for k in range(len(w), len(c)):
            head = c[:k]
            assert not (head.startswith(w) and head == head[::-1])


def test_psi_frozen_values():
    for v, w in PSI_TABLE.items():
        assert psi(v) == w


def test_psi_fibonacci_prefix():
    assert psi(fibonacci_directive_prefix(8))[:25] == FIB_PREFIX_25


def test_psi_matches_naive_exhaustively():
    for v in naive.words_upto(10):
        assert psi(v) == naive.psi_naive(v)


def test_psi_matches_naive_longer_sampled():
    rng = random.Random(7)
    for _ in range(40):
        v = "".join(rng.choice("ab") for _ in range(rng.randint(11, 13)))
        assert psi(v) == naive.psi_naive(v)


def test_psi_prefix_gives_palindromic_prefix_and_suffix(psi12):
    for v in naive.words_upto(10):
        w = psi12[v]
        for k in range(len(v)):
            u = psi12[v[:k]]
            assert w.startswith(u)
            assert w.endswith(u)


def test_psi_injective(psi12):
    assert len(set(psi12.values())) == len(psi12)


def test_closure_of_any_prefix_stays_inside():
    rng = random.Random(11)
    pool = list(naive.words_upto(7)) + [
        "".join(rng.choice("ab") for _ in range(rng.randint(8, 12))) for _ in range(25)
    ]
    for v in pool:
        w = psi(v)
        for k in range(len(w) + 1):
            assert w.startswith(palindromic_closure(w[:k]))


def test_palindromic_prefixes_are_exactly_the_directive_prefix_images(psi12):
    for v in naive.words_upto(10):
        w = psi12[v]
        found = {w[:k] for k in range(len(w) + 1) if w[:k] == w[:k][::-1]}
        expected = {psi12[v[:k]] for k in range(len(v) + 1)}
        assert found == expected


def test_psi_commutes_with_exchange(psi12):
    for v in naive.words_upto(12):
        assert psi12[exchange_E(v)] == exchange_E(psi12[v])


def test_psi_reversal_preserves_length(psi12):
    for v in naive.words_upto(12):
        assert len(psi12[v[::-1]]) == len(psi12[v])


def test_justin_identity_exhaustively():
    for n in range(0, 9):
        for w in naive.all_words(n):
            for k in range(n + 1):
                assert justin_check(w[:k], w[k:])


# Image length grows exponentially in |vu|, so cap the draws and lift the
# per-example deadline; the pure kernel is markedly slower here.
@settings(deadline=None)
@given(st.text(alphabet="ab", max_size=10), st.text(alphabet="ab", max_size=10))
def test_justin_identity_random(v, u):
    assert justin_check(v, u)
    assert psi(v + u) == mu(v, psi(u)) + psi(v)


def test_justin_single_letter_corollaries():
    for v in naive.words_upto(8):
        for x in "ab":
            assert psi(x + v) == mu(x, psi(v)) + x
            assert psi(v + x) == mu(v, x) + psi(v)


def test_mu_examples():
    assert mu("a", "a") == "a"
    assert mu("a", "b") == "ab"
    assert mu("b", "a") == "ba"
    assert mu("b", "b") == "b"
    assert mu("a", "ba") == "aba"
    assert mu("ab", "a") == "aba"
    assert mu("", "abba") == "abba"
    assert len(mu("abba", "a")) == 5
    assert len(mu("abba", "b")) == 7
    assert len(mu("aabba", "a")) == 7
    assert len(mu("aabba", "b")) == 10


@given(words, st.text(alphabet="ab", max_size=10))
def test_mu_matches_naive(v, t):
    assert mu(v, t) == naive.mu_naive(v, t)


def test_mu_matches_naive_on_letter_powers():
    for k in (1, 2, 3, 7, 40):
        for x in "ab":
            for v in (x * k, x * k + "ab", "ba" + x * k):
                for t in ("a", "b", "abba"):
                    assert mu(v, t) == naive.mu_naive(v, t)


def test_mu_letter_power_of_a_million():
    # One replace per run: a run of k letters sends the other letter y to x^k y.
    k = 10**6
    assert mu("a" * k, "b") == "a" * k + "b"
    assert mu("b" * k, "ab") == "b" * k + "a" + "b"
    assert mu("b" * k, "b") == "b"


def test_mu_cap_is_checked_per_run():
    saved = config._override
    try:
        config.set_max_word_len(1000)
        assert len(mu("a" * 999, "b")) == 1000
        with pytest.raises(MaterializationLimitError):
            mu("a" * 1000, "b")
        with pytest.raises(MaterializationLimitError):
            mu("ab" * 10, "a")
    finally:
        config._override = saved


@given(words, st.text(alphabet="ab", max_size=6), st.text(alphabet="ab", max_size=6))
def test_mu_is_a_morphism(v, s, t):
    assert mu(v, s + t) == mu(v, s) + mu(v, t)


@given(st.text(alphabet="ab", max_size=8), st.text(alphabet="ab", max_size=8))
def test_mu_composes(v1, v2):
    for t in ("a", "b", "ab"):
        assert mu(v1 + v2, t) == mu(v1, mu(v2, t))


def test_p_x_examples():
    assert p_x("", "a") == 1
    assert p_x("", "b") == 1
    assert p_x("abba", "a") == 5
    assert p_x("abba", "b") == 7
    assert p_x("aabba", "a") == 7
    assert p_x("aabba", "b") == 10


def test_period_structure_exhaustively(psi12):
    for v in naive.words_upto(12):
        pa, pb = p_x(v, "a"), p_x(v, "b")
        w = psi12[v]
        assert len(w) == pa + pb - 2
        assert gcd(pa, pb) == 1
        assert minimal_period(w) == min(pa, pb)


def test_p_x_continuant_dispatch_agrees():
    # Long but thin directives keep the morphism image small enough for the
    # naive substitution to check the continuant answer.
    for v in ("a" * 40 + "b" + "a" * 30, "b" * 70, "ab" + "a" * 64, "a" * 20 + "b" * 25 + "a" * 21):
        for x in "ab":
            assert p_x(v, x) == len(naive.mu_naive(v, x))


def test_p_x_answers_past_the_cap():
    # A short directive whose image exceeds the cap: p_x evaluates a
    # continuant and builds no word, so the cap does not stop it.
    v = fibonacci_directive_prefix(30)
    saved = config._override
    try:
        config.set_max_word_len(1000)
        assert p_x(v, "a") == fibonacci(30)
        assert p_x(v, "b") == fibonacci(29)
    finally:
        config._override = saved


def test_directive_word_of_round_trips(psi12):
    for v in naive.words_upto(12):
        assert directive_word_of(psi12[v]) == v


def test_directive_word_of_examples():
    assert directive_word_of("") == ""
    assert directive_word_of("aabaabaaabaabaa") == "aabba"
    assert directive_word_of("bbabb") == "bba"


def test_directive_word_of_rejects_non_images():
    for w in ("ab", "abab", "aabbaa", "ba", "abba" + "ab"):
        with pytest.raises(NotCentralError):
            directive_word_of(w)
    with pytest.raises(NotCentralError, match=r"^not an iterated-closure image: 'ab'$"):
        directive_word_of("ab")


def test_exchange():
    assert exchange_E("") == ""
    assert exchange_E("abba") == "baab"
    assert exchange_E("aab") == "bba"
    with pytest.raises(ValueError):
        exchange_E("abc")


def test_operators_c_and_d():
    assert op_c("") == ""
    assert op_c("a") == "a"
    assert op_c("ab") == "ba"
    assert op_c("aab") == "aba"
    assert op_d("abab") == "baab"
    assert op_d("b") == "b"
    for v in naive.words_upto(10):
        assert op_c(op_c(v)) == v
        assert op_d(op_d(v)) == v
        assert exchange_E(op_c(v)) == op_c(exchange_E(v))
        assert exchange_E(op_d(v)) == op_d(exchange_E(v))
        assert op_d(v) == op_c(v[::-1])[::-1]
        assert len(op_c(v)) == len(v)


def test_fibonacci_directive_prefix_values():
    assert fibonacci_directive_prefix(0) == ""
    assert fibonacci_directive_prefix(1) == "a"
    assert fibonacci_directive_prefix(2) == "ab"
    assert fibonacci_directive_prefix(5) == "ababa"
    assert fibonacci_directive_prefix(6) == "ababab"
    with pytest.raises(ValueError):
        fibonacci_directive_prefix(-1)


def test_fibonacci_image_lengths():
    for n in range(0, 21):
        assert len(psi(fibonacci_directive_prefix(n))) == fibonacci(n + 1) - 2


def test_fibonacci_image_recursion():
    # psi(v(n+1)) = psi(v(n-1)) + swapped-pair + psi(v(n)), pair ending in the
    # letter the alternating directive adds at step n+1.
    for n in range(1, 19):
        older = psi(fibonacci_directive_prefix(n - 1))
        newer = psi(fibonacci_directive_prefix(n))
        z = fibonacci_directive_prefix(n + 1)[-1]
        pair = exchange_E(z) + z
        assert psi(fibonacci_directive_prefix(n + 1)) == older + pair + newer


def test_directive_spec():
    spec = DirectiveSpec.parse("abb|ab")
    assert spec.preperiod == "abb" and spec.period == "ab"
    assert str(spec) == "abb|ab"
    assert spec.letter(0) == "a"
    assert spec.letter(2) == "b"
    assert spec.letter(3) == "a"
    assert spec.letter(4) == "b"
    assert spec.letter(5) == "a"
    assert spec.prefix(7) == "abbabab"
    assert spec.prefix(0) == ""
    assert spec.is_characteristic()
    assert DirectiveSpec.parse("|ab").prefix(5) == "ababa"
    assert not DirectiveSpec.parse("ab|a").is_characteristic()
    with pytest.raises(ValueError):
        DirectiveSpec.parse("abab")
    with pytest.raises(ValueError):
        DirectiveSpec.parse("ab|")
    with pytest.raises(ValueError):
        DirectiveSpec.parse("ac|b")
    with pytest.raises(ValueError):
        spec.letter(-1)
    with pytest.raises(ValueError):
        spec.prefix(-2)


def test_psi_stream_matches_psi_of_prefix():
    for text in ("|ab", "abb|ab", "|a", "bba|ba"):
        spec = DirectiveSpec.parse(text)
        s = psi_stream(spec)
        assert s.emitted == 0 and s.current == ""
        for n in range(1, 15):
            s = psi_stream_advance(s, 1)
            assert s.emitted == n
            assert s.current == psi(spec.prefix(n))
        jumped = psi_stream_advance(psi_stream(spec), 14)
        assert jumped == s
    with pytest.raises(ValueError):
        psi_stream_advance(psi_stream(DirectiveSpec.parse("|ab")), -1)


def test_stream_prefix():
    fib = DirectiveSpec.parse("|ab")
    assert stream_prefix(fib, 25) == FIB_PREFIX_25
    assert stream_prefix(fib, 0) == ""
    assert stream_prefix(DirectiveSpec.parse("abb|ab"), 17) == psi("abbab")
    with pytest.raises(ValueError):
        stream_prefix(fib, -1)


def test_stream_prefixes_nest():
    spec = DirectiveSpec.parse("bb|ab")
    long = stream_prefix(spec, 150)
    for k in (0, 1, 17, 80, 149):
        assert long.startswith(stream_prefix(spec, k))


STREAM_SPECS = ("|ab", "abb|ab", "|a", "|b", "bba|ba", "ab|a", "aab|b", "b|aab", "|abbba", "aaa|a")


def test_stream_prefix_matches_naive():
    for text in STREAM_SPECS:
        spec = DirectiveSpec.parse(text)
        ref = naive.psi_naive(spec.prefix(12))
        for n in range(min(len(ref), 150) + 1):
            assert stream_prefix(spec, n) == ref[:n], (text, n)
    assert stream_prefix(DirectiveSpec.parse("|a"), 5000) == "a" * 5000


def test_stream_prefix_within_cap():
    # psi of the first 6 alternating letters has 32 letters and of the first
    # 7 has 53: a 33-letter prefix fits a cap of 50 and must not build psi(7).
    fib = DirectiveSpec.parse("|ab")
    saved = config._override
    try:
        config.set_max_word_len(50)
        assert stream_prefix(fib, 33) == naive.psi_naive("abababa")[:33]
        assert stream_prefix(fib, 50) == naive.psi_naive("abababa")[:50]
        assert stream_prefix(DirectiveSpec.parse("|a"), 50) == "a" * 50
        with pytest.raises(MaterializationLimitError):
            stream_prefix(fib, 51)
    finally:
        config._override = saved


def test_psi_cap_is_exact():
    saved = config._override
    try:
        config.set_max_word_len(50)
        for v in naive.words_upto(8):
            w = naive.psi_naive(v)
            if len(w) > 50:
                with pytest.raises(MaterializationLimitError):
                    psi(v)
            else:
                assert psi(v) == w
    finally:
        config._override = saved


def test_directive_extraction_ignores_cap():
    # A central word longer than the cap still decodes.  A palindrome that
    # agrees with it on every letter the length recurrence reads is refused
    # by the round trip, as non-central and never as too long.
    rng = random.Random(5)
    saved = config._override
    try:
        config.set_max_word_len(50)
        for v in ("abababa", "abbabbab", "aabaabba", "bbabababa", "a" * 60):
            w = naive.psi_naive(v)
            assert len(w) > 50
            assert directive_word_of(w) == v and is_central(w)
            read = {len(naive.psi_naive(v[:k])) for k in range(len(v))}
            free = [i for i in range(len(w)) if i not in read and len(w) - 1 - i not in read]
            for i in rng.sample(free, min(len(free), 8)):
                chars = list(w)
                for j in {i, len(w) - 1 - i}:
                    chars[j] = "b" if chars[j] == "a" else "a"
                fake = "".join(chars)
                with pytest.raises(NotCentralError):
                    directive_word_of(fake)
                assert not is_central(fake)
        for _ in range(600):
            half = "".join(rng.choice("ab") for _ in range(rng.randint(26, 31)))
            fake = half + half[::-1][rng.randint(0, 1) :]
            try:
                v = directive_word_of(fake)
            except NotCentralError:
                assert not is_central(fake)
            else:
                assert naive.psi_naive(v) == fake and is_central(fake)
    finally:
        config._override = saved


def test_materialization_cap():
    saved = config._override
    try:
        config.set_max_word_len(50)
        with pytest.raises(MaterializationLimitError):
            psi("ab" * 10)
        with pytest.raises(MaterializationLimitError):
            stream_prefix(DirectiveSpec.parse("|ab"), 100)
        with pytest.raises(MaterializationLimitError):
            mu("ab" * 10, "a")
        assert psi("abba") == "ababaababa"
    finally:
        config._override = saved
    with pytest.raises(ValueError):
        config.set_max_word_len(0)
    config._override = saved
