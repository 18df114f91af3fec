"""Seeded inputs, the call each operation makes, and the reference it is checked against.

An operation is one theorem invocation (verify-sweep), one job
(build-long) or one query (query-mix).  No reference calls the function
under test:

- images and the periods |mu_v(a)|, |mu_v(b)| come from this module's own
  Justin-recurrence builder (``image``);
- minimal periods come from direct periodicity tests on that image;
- Christoffel factor lengths come from the modular inverses of the letter
  counts;
- stream prefixes come from the morphism route ``sturmian.mu``;
- verifier records are counted and their maxima compared with the
  Fibonacci closed forms.
"""
from __future__ import annotations

import contextlib
import functools
import io
import json
import random
from dataclasses import dataclass
from math import gcd

import sturmian
from sturmian import cli

# Every `sturmian verify` theorem: its first order and the largest n-max the
# sweep reaches, which is the command's default n-max (README table) where one
# call stays under about 0.1 s on the pure kernels.  Written out here, not read
# from the CLI, so a verifier that silently checks fewer orders fails.  The
# sweep calls each theorem at the SWEEP largest n-max values.
SWEEP = 4
THEOREMS = (
    ("max-length", 0, 14),
    ("max-period", 1, 11),
    ("max-bcount", 1, 14),
    ("continuant-max", 0, 16),
    ("period-continuant-max", 2, 16),
    ("fib-lemma", 1, 60),
    ("harmonic", 1, 20),
    ("central-count", 0, 14),
    ("streams", 1, 11),
)
SMALL_N_MAX = 6

QUERY_KINDS = (
    "psi",
    "psi_stats_from_directive",
    "slope_from_directive",
    "central_certificate",
    "christoffel_factorize",
    "is_central",
)

# build-long sizes: alternating directive order, lower end of the random-image
# length window, stream prefix, certificate order, Christoffel length p + q.
BUILD_FULL = {"alt": 19, "rand": 10_000, "stream": 20_000, "cert": 18, "chr": 4_001}
BUILD_SMALL = {"alt": 10, "rand": 300, "stream": 600, "cert": 8, "chr": 101}
BUILD_RANDOM = 3
# 1,668 queries of each kind: enough that p99.9 has ten operations beyond it.
QUERIES_FULL = 10_008
QUERIES_SMALL = 120
# Image lengths of the directive queries: 24 steps from 2 to 1,000 letters.
IMAGE_GRID = tuple(round(2 * 500 ** (k / 23)) for k in range(24))
# Christoffel word lengths p + q of the factorization queries: 3 to 600.
CHRISTOFFEL_GRID = tuple(round(3 * 200 ** (k / 23)) for k in range(24))


@dataclass(frozen=True)
class Op:
    """One operation: the public function to call, its arguments, and the
    generating directive (or verify parameters) the reference needs."""

    kind: str
    args: tuple
    meta: object = None


def fib(n: int) -> int:
    """F(-1) = F(0) = 1, F(n) = F(n-1) + F(n-2): the indexing the paper uses."""
    a, b = 0, 1
    for _ in range(n + 2):
        a, b = b, a + b
    return a


# Maximum each extremal theorem must report at order n.
EXTREMA = {
    "max-length": lambda n: fib(n + 1) - 2,
    "max-period": lambda n: fib(n - 1),
    "max-bcount": lambda n: fib(n - 1) - 1,
    "continuant-max": lambda n: fib(n + 1),
    "period-continuant-max": lambda n: fib(n - 1),
}


def image(v: str) -> tuple[str, int, int]:
    """(psi(v), |mu_v(a)|, |mu_v(b)|) by Justin's formula psi(vx) = mu_v(x) psi(v)."""
    w, ma, mb = "", "a", "b"
    for x in v:
        if x == "a":
            w, mb = ma + w, ma + mb
        else:
            w, ma = mb + w, mb + ma
    return w, len(ma), len(mb)


def christoffel_word(p: int, q: int) -> str:
    """Lower Christoffel word with p letters 'b' and q letters 'a' (p, q coprime)."""
    n = p + q
    return "".join("a" if i * p % n > (i - 1) * p % n else "b" for i in range(1, n + 1))


def min_period(w: str) -> int:
    return next((p for p in range(1, len(w)) if w[p:] == w[:-p]), max(len(w), 1))


def is_central_ref(w: str) -> bool:
    """Central words are the letter powers and the words with coprime periods
    p, q and length p + q - 2 (de Luca and Mignosi)."""
    if len(set(w)) < 2:
        return True
    n = len(w)
    return any(
        gcd(p, n + 2 - p) == 1 and w[p:] == w[:-p] and w[n + 2 - p :] == w[: p - 2]
        for p in range(2, n)
    )


def _directive(rng: random.Random, n: int) -> str:
    return "".join(rng.choice("ab") for _ in range(n))


def _directive_with_image(rng: random.Random, lo: int, hi: int) -> str:
    """Random directive whose image length falls in [lo, hi), so every seed
    asks psi for about the same number of letters."""
    while True:
        letters, length, la, lb = [], 0, 1, 1
        while length < lo:
            x = rng.choice("ab")
            letters.append(x)
            if x == "a":
                length, lb = length + la, lb + la
            else:
                length, la = length + lb, la + lb
        if length < hi:
            return "".join(letters)


@functools.lru_cache(maxsize=None)
def _splits(n: int) -> tuple[int, ...]:
    """The tenth (at least one) of the units modulo n nearest to n/2."""
    units = sorted((k for k in range(1, n) if gcd(k, n) == 1), key=lambda k: abs(2 * k - n))
    return tuple(units[: max(1, n // 10)])


def _christoffel_input(rng: random.Random, n: int) -> str:
    """A Christoffel word of length n whose factor w1 has about half the letters.

    christoffel_factorize tries suffixes up to the split, so its cost grows
    with |w1|; drawing |w1| near n/2 gives every seed the same work.
    """
    p = pow(rng.choice(_splits(n)), -1, n)
    return christoffel_word(p, n - p)


def _verify_ops(seed: int, small: bool) -> list[Op]:
    ops = []
    for name, first, cap in THEOREMS:
        cap = min(cap, SMALL_N_MAX) if small else cap
        for n_max in range(max(first, cap - SWEEP + 1), cap + 1):
            argv = ("verify", name, "--n-max", str(n_max), "--seed", str(seed))
            ops.append(Op("verify", argv, (name, first, n_max)))
    return ops


def _build_ops(rng: random.Random, small: bool) -> list[Op]:
    size = BUILD_SMALL if small else BUILD_FULL
    lo, hi = size["rand"], size["rand"] * 11 // 10
    ops = [
        Op("psi", (sturmian.fibonacci_directive_prefix(size["alt"]),)),
        Op("stream_prefix", (sturmian.DirectiveSpec("abb", "ab"), size["stream"])),
    ]
    for _ in range(BUILD_RANDOM):
        ops.append(Op("psi", (_directive_with_image(rng, lo, hi),)))
        ops.append(Op("christoffel_factorize", (_christoffel_input(rng, size["chr"]),)))
    for v in (sturmian.fibonacci_directive_prefix(size["cert"]), _directive_with_image(rng, lo, hi)):
        w = image(v)[0]
        ops += [Op("directive_word_of", (w,), v), Op("central_certificate", (w,), v)]
    return ops


def _query_op(rng: random.Random, kind: str, i: int) -> Op:
    if kind == "christoffel_factorize":
        return Op(kind, (_christoffel_input(rng, CHRISTOFFEL_GRID[i % len(CHRISTOFFEL_GRID)]),))
    if kind == "is_central":
        # Half central images, half random palindromes, all of at most 200 letters.
        if i % 2:
            v = rng.choice("ab")
            while rng.random() < 0.9:
                longer = v + rng.choice("ab")
                if len(image(longer)[0]) > 200:
                    break
                v = longer
            w = image(v)[0]
        else:
            half = _directive(rng, rng.randint(1, 100))
            w = half + half[::-1][rng.randint(0, 1) :]
        return Op(kind, (w,))
    # Lengths cycle through a fixed grid, so every seed has the same mix of
    # sizes and the same number of the heaviest queries.
    lo = IMAGE_GRID[i % len(IMAGE_GRID)]
    v = _directive_with_image(rng, lo, max(lo + 2, lo * 5 // 4))
    if kind == "central_certificate":
        return Op(kind, (image(v)[0],), v)
    return Op(kind, (v,))


def _query_ops(rng: random.Random, small: bool) -> list[Op]:
    count = QUERIES_SMALL if small else QUERIES_FULL
    per_kind = count // len(QUERY_KINDS)
    return [_query_op(rng, kind, i) for kind in QUERY_KINDS for i in range(per_kind)]


def make(workload: str, seed: int, small: bool = False) -> list[Op]:
    """The operations of one pass; the same seed gives the same operations."""
    rng = random.Random(seed)
    if workload == "verify-sweep":
        ops = _verify_ops(seed, small)
    elif workload == "build-long":
        ops = _build_ops(rng, small)
    elif workload == "query-mix":
        ops = _query_ops(rng, small)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return ops


def call(op: Op):
    """Run one operation through the public API (looked up at call time, so
    the tracer's wrappers are seen)."""
    if op.kind == "verify":
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(op.args))
        return code, buf.getvalue()
    return getattr(sturmian, op.kind)(*op.args)


def verify_ok(op: Op, out) -> bool:
    """Exit 0, one record per order from the first order to n-max, every record
    passed, and each extremal maximum equal to its Fibonacci closed form."""
    name, first, n_max = op.meta
    code, text = out
    if code != 0:
        return False
    records = [json.loads(line) for line in text.splitlines()]
    key = "length" if name == "central-count" else "order"
    if [int(r["inputs"][key]) for r in records] != list(range(first, n_max + 1)):
        return False
    expect = EXTREMA.get(name)
    return all(
        r["status"] == "ok"
        and r["result"].get("passed") == "true"
        and (expect is None or int(r["result"]["maximum"]) == expect(int(r["inputs"][key])))
        for r in records
    )


def _stream_reference(spec, n: int) -> str:
    """mu_u(x) is a prefix of psi(ux), hence of the infinite image; take the
    first directive prefix u whose next letter x gives |mu_u(x)| >= n."""
    la = lb = 1
    k = 0
    while (la if spec.letter(k) == "a" else lb) < n:
        if spec.letter(k) == "a":
            lb += la
        else:
            la += lb
        k += 1
    return sturmian.mu(spec.prefix(k), spec.letter(k))[:n]


def _stats_reference(v: str) -> tuple[int, int, int]:
    w = image(v)[0]
    return len(w), min_period(w), w.count("b")


def _slope_reference(v: str) -> tuple[int, int]:
    w = image(v)[0]
    num, den = w.count("b") + 1, w.count("a") + 1
    g = gcd(num, den)
    return num // g, den // g


def _certificate_reference(w: str, v: str) -> tuple:
    _, la, lb = image(v)
    return w, min(la, lb), max(la, lb), v


def _factorization_reference(w: str) -> tuple:
    n, nb = len(w), w.count("b")
    p_inv, q_inv = pow(nb, -1, n), pow(n - nb, -1, n)
    return w[:p_inv], w[p_inv:], p_inv, q_inv


_REFERENCE = {
    "psi": lambda op: image(op.args[0])[0],
    "psi_stats_from_directive": lambda op: _stats_reference(op.args[0]),
    "slope_from_directive": lambda op: _slope_reference(op.args[0]),
    "central_certificate": lambda op: _certificate_reference(op.args[0], op.meta),
    "christoffel_factorize": lambda op: _factorization_reference(op.args[0]),
    "is_central": lambda op: is_central_ref(op.args[0]),
    "directive_word_of": lambda op: op.meta,
    "stream_prefix": lambda op: _stream_reference(*op.args),
}

# The comparable part of each result.
_VIEW = {
    "psi_stats_from_directive": tuple,
    "slope_from_directive": lambda r: (r.num, r.den),
    "central_certificate": lambda c: (c.word, c.p, c.q, c.directive),
    "christoffel_factorize": lambda f: (f.w1, f.w2, f.p_inv, f.q_inv),
}


def correct(op: Op, out, refs: dict, index: int) -> bool:
    """Whether one result is right; references are computed once per operation
    and kept in refs, keyed by the operation's index in the pass."""
    if isinstance(out, Exception):
        return False
    if op.kind == "verify":
        return verify_ok(op, out)
    if index not in refs:
        refs[index] = _REFERENCE[op.kind](op)
    return _VIEW.get(op.kind, lambda r: r)(out) == refs[index]
