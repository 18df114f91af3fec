"""CLI records, formats, exit codes, and flag behavior."""
import importlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from sturmian import MaterializationLimitError, config, fibonacci, oracle, psi, verify_max_period
from sturmian.cli import main
from sturmian.oracle import THEOREMS

FIB_PREFIX_25 = "abaababaabaababaababaabaa"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    recs = [json.loads(line) for line in out.splitlines() if line.strip()]
    return code, recs


def run_tsv(capsys, *argv):
    code, out = run(capsys, *argv)
    lines = [line for line in out.splitlines() if line]
    header = lines[0].split("\t")
    rows = [dict(zip(header, line.split("\t"))) for line in lines[1:]]
    return code, rows


def test_psi_record(capsys):
    code, recs = run_json(capsys, "psi", "abba")
    assert code == 0 and len(recs) == 1
    rec = recs[0]
    assert rec["command"] == "psi"
    assert rec["status"] == "ok"
    assert rec["inputs"] == {"directive": "abba"}
    assert rec["result"]["word"] == "ababaababa"
    assert rec["result"]["length"] == "10"
    assert rec["result"]["period"] == "5"
    assert rec["result"]["bcount"] == "4"
    assert rec["result"]["intrep"] == "[0,1,1,1,1,2,1,1,1,1]"
    assert rec["result"]["directive_intrep"] == "[0,1,2,1]"


def test_psi_empty_directive(capsys):
    code, recs = run_json(capsys, "psi", "")
    assert code == 0
    assert recs[0]["result"]["word"] == ""
    assert recs[0]["result"]["intrep"] == "[]"


def test_psi_rejects_bad_letters(capsys):
    code, recs = run_json(capsys, "psi", "abc")
    assert code == 2
    assert recs[0]["status"] == "error"
    assert recs[0]["error_kind"] == "ValueError"
    assert recs[0]["inputs"] == {"directive": "abc"}
    assert "message" in recs[0]["result"]


def test_stream_record(capsys):
    code, recs = run_json(capsys, "stream", "|ab", "25")
    assert code == 0
    rec = recs[0]
    assert rec["inputs"] == {"spec": "|ab", "prefix_len": "25"}
    assert rec["result"]["prefix"] == FIB_PREFIX_25
    assert rec["result"]["length"] == "25"
    assert "note" not in rec["result"]


def test_stream_non_characteristic_note(capsys):
    code, recs = run_json(capsys, "stream", "ab|a", "6")
    assert code == 0
    assert recs[0]["result"]["prefix"] == "abaaba"
    assert "does not recur" in recs[0]["result"]["note"]
    assert "'b'" in recs[0]["result"]["note"]


def test_stream_parse_and_range_errors(capsys):
    code, recs = run_json(capsys, "stream", "ab", "5")
    assert code == 2 and recs[0]["error_kind"] == "ValueError"
    code, recs = run_json(capsys, "stream", "|ab", "-3")
    assert code == 2 and recs[0]["error_kind"] == "ValueError"


def test_christoffel_record(capsys):
    code, recs = run_json(capsys, "christoffel", "5", "12", "--factor")
    assert code == 0
    res = recs[0]["result"]
    assert res["word"] == "aaabaabaaabaabaab"
    assert res["length"] == "17"
    assert res["slope"] == "5/12"
    assert res["w1"] == "aaabaab"
    assert res["w2"] == "aaabaabaab"
    assert res["p_inv"] == "7"
    assert res["q_inv"] == "10"


def test_christoffel_errors(capsys):
    code, recs = run_json(capsys, "christoffel", "2", "4")
    assert code == 2 and recs[0]["error_kind"] == "ValueError"
    code, recs = run_json(capsys, "christoffel", "1", "0", "--factor")
    assert code == 2 and recs[0]["error_kind"] == "ValueError"


def test_arith_operations(capsys):
    code, recs = run_json(capsys, "arith", "intrep", "bbabaa")
    assert code == 0 and recs[0]["result"]["intrep"] == "[2,1,1,2]"
    code, recs = run_json(capsys, "arith", "continuant", "[1,2,2,2]")
    assert code == 0 and recs[0]["result"]["value"] == "17"
    code, recs = run_json(capsys, "arith", "cf", "[0,2,2,2]")
    assert code == 0
    res = recs[0]["result"]
    assert res["value"] == "5/12" and res["num"] == "5" and res["den"] == "12"
    assert res["convergents"] == "0/1 1/2 2/5 5/12"
    code, recs = run_json(capsys, "arith", "slope", "aabba")
    assert code == 0 and recs[0]["result"]["slope"] == "5/12"
    code, recs = run_json(capsys, "arith", "length", "aabba")
    assert code == 0 and recs[0]["result"]["value"] == "17"
    code, recs = run_json(capsys, "arith", "period", "aabba")
    assert code == 0 and recs[0]["result"]["value"] == "7"


def test_arith_errors(capsys):
    code, recs = run_json(capsys, "arith", "cf", "[1,0,2]")
    assert code == 2 and recs[0]["error_kind"] == "ValueError"
    code, recs = run_json(capsys, "arith", "continuant", "nope")
    assert code == 2 and recs[0]["error_kind"] == "ValueError"
    code, recs = run_json(capsys, "arith", "intrep", "xyz")
    assert code == 2 and recs[0]["error_kind"] == "ValueError"



@pytest.mark.parametrize(
    "operation, payload",
    [
        ("continuant", "[true,false]"),
        ("cf", "[0,true,2]"),
        ("continuant", "[1.5]"),
        ("continuant", '{"a":1}'),
    ],
)
def test_arith_refuses_non_integer_lists(capsys, operation, payload):
    # JSON booleans decode to bool, a subclass of int; they are not integers here.
    code, recs = run_json(capsys, "arith", operation, payload)
    assert code == 2 and recs[0]["error_kind"] == "ValueError"
    assert recs[0]["result"]["message"] == f"payload must be a JSON integer list, got {payload!r}"

def test_verify_word_theorem_both_modes(capsys):
    code, recs = run_json(capsys, "verify", "max-period", "--n-max", "5")
    assert code == 0
    assert [r["inputs"]["order"] for r in recs] == ["1", "2", "3", "4", "5"]
    for rec in recs:
        n = int(rec["inputs"]["order"])
        lib = verify_max_period(n, "arithmetic")
        assert rec["result"]["maximum"] == str(lib.maximum) == str(fibonacci(n - 1))
        assert rec["result"]["argmax"] == " ".join(lib.argmax)
        assert rec["result"]["check"] == "full"
        assert rec["result"]["agreement"] == "true"
        assert rec["result"]["passed"] == "true"
    row4 = recs[3]["result"]
    assert row4["maximum"] == "5"
    assert row4["argmax"] == "abab abba baab baba"
    assert row4["argmax_size"] == "4"


def test_verify_single_mode_rows(capsys):
    code, recs = run_json(
        capsys, "verify", "max-bcount", "--n-max", "6", "--mode", "materialized"
    )
    assert code == 0
    assert all(r["result"]["check"] == "materialized" for r in recs)
    code, recs = run_json(
        capsys, "verify", "max-length", "--n-max", "6", "--mode", "arithmetic"
    )
    assert code == 0
    assert recs[-1]["result"]["maximum"] == str(fibonacci(7) - 2)


def test_verify_sampled_above_materialized_bound(capsys):
    # Order 15 sits above the materialized enumeration bound, so the route
    # agreement there is spot-checked on sampled directives.
    code, recs = run_json(capsys, "verify", "max-length", "--n-max", "15")
    assert code == 0
    by_order = {r["inputs"]["order"]: r["result"] for r in recs}
    assert by_order["14"]["check"] == "full"
    assert by_order["15"]["check"] == "sampled"
    assert by_order["15"]["agreement"] == "true"
    assert by_order["15"]["maximum"] == str(fibonacci(16) - 2)
    # An explicit --bound is the materialized route's bound too, so order 15
    # is then compared in full.
    code, recs = run_json(capsys, "verify", "max-length", "--n-max", "15", "--bound", "15")
    assert code == 0
    assert recs[-1]["inputs"]["order"] == "15"
    assert recs[-1]["result"]["check"] == "full"
    assert recs[-1]["result"]["agreement"] == "true"


def _failed_orders(recs):
    return [r["inputs"]["order"] for r in recs if r["result"]["passed"] == "false"]


def test_verify_streams_compares_routes_in_full(capsys, monkeypatch):
    # Under --mode both, streams checks its orders as the word theorems do, so
    # an arithmetic walk that loses an order-5 argmax member fails there too.
    real = oracle._kernels.arith_orders

    def walk(n, stat, a_start):
        orders = real(n, stat, a_start)
        best, arg = orders[5]
        orders[5] = best, arg[1:]
        return orders

    monkeypatch.setattr(oracle._kernels, "arith_orders", walk)
    for theorem in ("streams", "max-period"):
        code, recs = run_json(capsys, "verify", theorem, "--n-max", "6")
        assert code == 1
        assert _failed_orders(recs) == ["5"]


def test_verify_streams_compares_the_materialized_walk_in_full(capsys, monkeypatch):
    # The materialized twin: the string walk reads the period of one depth-5
    # image, psi("ababa"), one too high, which fails order 5 and no other.
    # Only the period changes, so the image and its order-6 children stay
    # right.
    real = oracle._image_period
    target = psi("ababa")

    def image_period(w, u):
        return real(w, u) + (w == target)

    monkeypatch.setattr(oracle, "_image_period", image_period)
    for theorem in ("streams", "max-period"):
        code, recs = run_json(capsys, "verify", theorem, "--n-max", "6")
        assert code == 1
        assert _failed_orders(recs) == ["5"]


def test_verify_streams_compares_routes_on_samples(capsys, monkeypatch):
    # With the materialized bound lowered to 4, orders 5 and 6 are checked on
    # sampled directives; a continuant route that miscounts the image length
    # of every order-6 directive must fail order 6.
    real = oracle.psi_stats_from_directive

    def stats(v):
        length, period, bcount = real(v)
        return length + (len(v) == 6), period, bcount

    monkeypatch.setattr(oracle, "MATERIALIZED_ORDER_BOUND", 4)
    monkeypatch.setattr(oracle, "psi_stats_from_directive", stats)
    for theorem in ("streams", "max-length"):
        code, recs = run_json(capsys, "verify", theorem, "--n-max", "6")
        assert code == 1
        assert _failed_orders(recs) == ["6"]


def test_verify_sampled_check_reads_random_directives(capsys, monkeypatch):
    # Above the materialized bound, the sampled check must measure random
    # directives, not only the expected argmax: a continuant route that
    # miscounts every other image length fails order 15 and no other.
    real = oracle.psi_stats_from_directive
    extremal = set(oracle.expected_max_length(15)[1])

    def stats(v):
        length, period, bcount = real(v)
        return length + (v not in extremal), period, bcount

    monkeypatch.setattr(oracle, "psi_stats_from_directive", stats)
    code, recs = run_json(capsys, "verify", "max-length", "--n-max", "15")
    assert code == 1
    assert _failed_orders(recs) == ["15"]


@pytest.mark.parametrize("mode", ["both", "materialized"])
def test_verify_streams_keeps_records_before_a_bound_error(capsys, mode):
    code, recs = run_json(
        capsys, "verify", "streams", "--n-max", "6", "--bound", "5", "--mode", mode
    )
    assert code == 2
    assert [r["inputs"]["order"] for r in recs[:-1]] == ["1", "2", "3", "4", "5"]
    assert all(r["status"] == "ok" and r["result"]["passed"] == "true" for r in recs[:-1])
    assert recs[-1]["error_kind"] == "BoundExceededError"


def test_verify_streams_checks_the_stream_image(capsys, monkeypatch):
    # A stream image that misses the maximum fails its own statistic only,
    # even though both routes agree on the enumeration.
    real = oracle.psi

    def image(v):
        return real(v) + "a" if v == "abab" else real(v)

    monkeypatch.setattr(oracle, "psi", image)
    code, recs = run_json(capsys, "verify", "streams", "--n-max", "5")
    assert code == 1
    flags = [
        (r["inputs"]["order"], key)
        for r in recs
        for key in ("length_ok", "period_ok", "bcount_ok")
        if r["result"][key] == "false"
    ]
    assert flags == [("4", "length_ok")]
    assert _failed_orders(recs) == ["4"]


def test_verify_streams_arithmetic_builds_no_word(capsys, monkeypatch):
    # --mode arithmetic stays on integer encodings, so a cap of 10 letters
    # does not stop it and the stream images are never built.
    def no_image(v):
        raise AssertionError(f"psi({v!r}) called under --mode arithmetic")

    monkeypatch.setattr(oracle, "psi", no_image)
    code, recs = run_json(
        capsys, "verify", "streams", "--mode", "arithmetic", "--n-max", "8", "--max-word-len", "10"
    )
    assert code == 0 and len(recs) == 8
    assert all(r["status"] == "ok" and r["result"]["passed"] == "true" for r in recs)
    assert recs[-1]["result"]["length"] == str(fibonacci(9) - 2)
    assert recs[-1]["result"]["period"] == str(fibonacci(7))
    assert recs[-1]["result"]["bcount"] == str(fibonacci(7) - 1)


@pytest.mark.parametrize(
    "argv, index, last",
    [
        (("max-length", "--mode", "materialized", "--n-max", "8"), "order", 3),
        (("central-count", "--n-max", "14"), "length", 10),
    ],
)
def test_verify_materialized_routes_honour_the_cap(capsys, argv, index, last):
    # The materialized scan and the census build words, so a cap of 10
    # letters stops them at the first order whose images outgrow it.
    code, recs = run_json(capsys, "verify", *argv, "--max-word-len", "10")
    assert code == 2
    assert [r["inputs"][index] for r in recs[:-1]] == [str(k) for k in range(last + 1)]
    assert all(r["status"] == "ok" and r["result"]["passed"] == "true" for r in recs[:-1])
    assert recs[-1]["error_kind"] == "MaterializationLimitError"
    assert recs[-1]["result"]["message"] == "word of length 11 exceeds the materialization cap 10"


@pytest.mark.parametrize(
    "argv, first",
    [
        (("max-period", "--n-max", "8"), 1),
        (("max-period", "--n-max", "8", "--mode", "materialized"), 1),
        (("streams", "--n-max", "8", "--mode", "materialized"), 1),
        (("max-bcount", "--n-max", "8", "--mode", "materialized"), 1),
    ],
)
def test_verify_word_walks_honour_the_cap(capsys, argv, first):
    # One walk serves every order, and it still stops at the first order
    # with an image over the cap: orders 1-3 print, then the error record
    # names order 4 and the length of its lexicographically first image
    # over the cap, as the per-order scans did.
    code, out = run(capsys, "verify", *argv, "--max-word-len", "10")
    lines = out.splitlines()
    assert code == 2
    recs = [json.loads(line) for line in lines[:-1]]
    assert [r["inputs"]["order"] for r in recs] == [str(k) for k in range(first, 4)]
    assert all(r["status"] == "ok" and r["result"]["passed"] == "true" for r in recs)
    mode = argv[argv.index("--mode") + 1] if "--mode" in argv else "both"
    assert lines[-1] == (
        '{"command": "verify", "status": "error", "error_kind": "MaterializationLimitError", '
        f'"inputs": {{"theorem": "{argv[0]}", "order": "4", "mode": "{mode}"}}, '
        '"result": {"message": "word of length 11 exceeds the materialization cap 10"}}'
    )


@pytest.mark.parametrize(
    "argv, inputs",
    [
        (("central-count", "--n-max", "17"), {"length": "17", "mode": "census"}),
        (("continuant-max", "--n-max", "23"), {"order": "6", "mode": "arithmetic"}),
        (
            ("max-period", "--n-max", "7", "--mode", "materialized"),
            {"order": "6", "mode": "materialized"},
        ),
        (("streams", "--n-max", "7"), {"order": "6", "mode": "both"}),
    ],
)
def test_verify_error_record_names_the_route_and_order(capsys, monkeypatch, argv, inputs):
    # An error raised during a run shows the theorem's fixed route, if it has
    # one, and the order or length that stopped the run.  The bounds are
    # lowered to 5 so the continuant and word runs stop at order 6 quickly.
    monkeypatch.setattr(oracle, "ARITHMETIC_ORDER_BOUND", 5)
    monkeypatch.setattr(oracle, "MATERIALIZED_ORDER_BOUND", 5)
    code, recs = run_json(capsys, "verify", *argv)
    assert code == 2
    assert recs[-1]["status"] == "error" and recs[-1]["error_kind"] == "BoundExceededError"
    assert recs[-1]["inputs"] == {"theorem": argv[0], **inputs}
    assert list(recs[-1]["inputs"]) == list(recs[-2]["inputs"])


def test_verify_continuant_rows(capsys):
    code, recs = run_json(capsys, "verify", "continuant-max", "--n-max", "8")
    assert code == 0
    for rec in recs:
        n = int(rec["inputs"]["order"])
        assert rec["result"]["maximum"] == str(fibonacci(n + 1))
        assert rec["result"]["passed"] == "true"
    assert recs[2]["result"]["argmax"] == "[0,1,1] [1,1]"
    code, recs = run_json(capsys, "verify", "period-continuant-max", "--n-max", "8")
    assert code == 0
    for rec in recs:
        n = int(rec["inputs"]["order"])
        assert rec["result"]["maximum"] == str(fibonacci(n - 1))
        assert rec["result"]["argmax_size"] in ("2", "4")


def test_verify_scalar_theorems(capsys):
    code, recs = run_json(capsys, "verify", "fib-lemma", "--n-max", "5")
    assert code == 0 and len(recs) == 5
    assert all(r["result"]["passed"] == "true" for r in recs)
    code, recs = run_json(capsys, "verify", "harmonic", "--n-max", "8")
    assert code == 0
    assert recs[7]["result"]["period"] == str(fibonacci(7))
    assert recs[7]["result"]["modulus"] == str(fibonacci(9))
    code, recs = run_json(capsys, "verify", "central-count", "--n-max", "6")
    assert code == 0 and len(recs) == 7
    assert [r["result"]["count"] for r in recs] == ["1", "2", "2", "4", "2", "6", "4"]


def test_verify_streams(capsys):
    code, recs = run_json(capsys, "verify", "streams", "--n-max", "6")
    assert code == 0 and len(recs) == 6
    assert recs[0]["result"]["bcount"] == "-"
    assert recs[5]["result"]["bcount"] == str(fibonacci(5) - 1)
    assert all(r["result"]["passed"] == "true" for r in recs)


def test_verify_bound_exceeded(capsys):
    code, recs = run_json(
        capsys, "verify", "continuant-max", "--n-max", "23", "--bound", "5"
    )
    assert code == 2
    assert len(recs) == 7
    assert recs[-1]["error_kind"] == "BoundExceededError"
    assert all(r["status"] == "ok" for r in recs[:-1])
    code, recs = run_json(
        capsys, "verify", "max-period", "--n-max", "15", "--mode", "materialized"
    )
    assert code == 2
    assert recs[-1]["error_kind"] == "BoundExceededError"
    code, recs = run_json(
        capsys, "verify", "central-count", "--bound", "0", "--n-max", "3"
    )
    assert code == 2 and len(recs) == 2
    assert recs[0]["inputs"]["length"] == "0" and recs[0]["result"]["passed"] == "true"
    assert recs[1]["error_kind"] == "BoundExceededError"


def test_verify_census_keeps_records_before_a_bound_error(capsys):
    # The census runs per length, so the lengths below the bound print first.
    code, recs = run_json(capsys, "verify", "central-count", "--n-max", "17")
    assert code == 2
    assert [r["inputs"]["length"] for r in recs[:-1]] == [str(k) for k in range(17)]
    assert all(r["status"] == "ok" and r["result"]["passed"] == "true" for r in recs[:-1])
    assert recs[-1]["error_kind"] == "BoundExceededError"
    assert recs[-1]["result"]["message"] == "length 17 exceeds the census bound 16"


@pytest.mark.parametrize(
    "theorem, n_max",
    [
        ("max-length", "-3"),
        ("max-period", "0"),
        ("fib-lemma", "0"),
        ("harmonic", "0"),
        ("central-count", "-1"),
        ("streams", "0"),
    ],
)
def test_verify_empty_range_is_refused(capsys, theorem, n_max):
    code, recs = run_json(capsys, "verify", theorem, "--n-max", n_max)
    assert code == 2 and len(recs) == 1
    assert recs[0]["status"] == "error"
    assert recs[0]["error_kind"] == "ValueError"
    assert recs[0]["inputs"] == {"theorem": theorem, "mode": "both"}


@pytest.mark.parametrize(
    "argv",
    [
        ("continuant-max", "--mode", "materialized"),
        ("period-continuant-max", "--mode", "materialized"),
        ("fib-lemma", "--mode", "materialized"),
        ("harmonic", "--mode", "materialized"),
        ("central-count", "--mode", "arithmetic"),
        ("fib-lemma", "--bound", "5"),
        ("harmonic", "--bound", "5"),
    ],
)
def test_verify_refuses_unsupported_flags(capsys, argv):
    code, recs = run_json(capsys, "verify", *argv, "--n-max", "4")
    assert code == 2 and len(recs) == 1
    assert recs[0]["error_kind"] == "ValueError"
    assert recs[0]["inputs"]["theorem"] == argv[0]


@pytest.mark.parametrize(
    "argv",
    [
        ("psi", "ab", "--seed", "9"),
        ("christoffel", "2", "3", "--seed", "1"),
        ("arith", "continuant", "[1,1]", "--seed", "1"),
        ("verify", "fib-lemma", "--n-max", "1", "--full"),
        ("arith", "continuant", "[1,2]", "--max-word-len", "1"),
    ],
)
def test_flags_a_command_does_not_read_are_refused(capsys, argv):
    assert main(list(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments" in captured.err


def test_verify_takes_seed(capsys):
    assert main(["verify", "fib-lemma", "--n-max", "1", "--seed", "9"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize(
    "theorem, mode", [(name, mode) for name, t in THEOREMS.items() for mode in t.modes]
)
def test_verify_listed_modes_run_every_order(capsys, theorem, mode):
    # "both" is the default, so it runs without --mode.
    first = THEOREMS[theorem].first
    argv = ["verify", theorem, "--n-max", str(first + 2)]
    if mode != "both":
        argv += ["--mode", mode]
    code, recs = run_json(capsys, *argv)
    assert code == 0 and len(recs) == 3
    assert all(r["status"] == "ok" and r["result"]["passed"] == "true" for r in recs)


def test_verify_exit_code_on_failure(capsys, monkeypatch):
    import sturmian.oracle as oracle_mod

    monkeypatch.setattr(oracle_mod, "fib_lemma_holds_at", lambda n: False)
    code, recs = run_json(capsys, "verify", "fib-lemma", "--n-max", "3")
    assert code == 1
    assert all(r["result"]["passed"] == "false" for r in recs)
    assert all(r["status"] == "ok" for r in recs)


def test_tsv_matches_json(capsys):
    code_j, recs = run_json(capsys, "verify", "harmonic", "--n-max", "4")
    code_t, rows = run_tsv(
        capsys, "verify", "harmonic", "--n-max", "4", "--format", "tsv"
    )
    assert code_j == code_t == 0
    assert len(rows) == len(recs) == 4
    for rec, row in zip(recs, rows):
        assert row["command"] == rec["command"]
        assert row["status"] == rec["status"]
        for k, v in rec["inputs"].items():
            assert row[f"inputs.{k}"] == v
        for k, v in rec["result"].items():
            assert row[f"result.{k}"] == v


def test_tsv_error_record(capsys):
    code, rows = run_tsv(capsys, "christoffel", "2", "4", "--format", "tsv")
    assert code == 2
    assert rows[0]["status"] == "error"
    assert rows[0]["error_kind"] == "ValueError"
    assert (rows[0]["inputs.p"], rows[0]["inputs.q"]) == ("2", "4")


# Exact stdout, so a change to the record layout (key order, TSV header,
# value text) shows even where parsed values still agree.
RECORD_BYTES = [
    (
        ("psi", "abab"),
        0,
        '{"command": "psi", "status": "ok", "error_kind": "", "inputs": {"directive": "abab"}, '
        '"result": {"word": "abaababaaba", "length": "11", "period": "5", "bcount": "4", '
        '"intrep": "[0,1,1,2,1,1,1,2,1,1]", "directive_intrep": "[0,1,1,1,1]"}}\n',
    ),
    (
        ("psi", "abab", "--format", "tsv"),
        0,
        "command\tstatus\terror_kind\tinputs.directive\tresult.word\tresult.length\t"
        "result.period\tresult.bcount\tresult.intrep\tresult.directive_intrep\n"
        "psi\tok\t\tabab\tabaababaaba\t11\t5\t4\t[0,1,1,2,1,1,1,2,1,1]\t[0,1,1,1,1]\n",
    ),
    (
        ("christoffel", "2", "3", "--factor"),
        0,
        '{"command": "christoffel", "status": "ok", "error_kind": "", '
        '"inputs": {"p": "2", "q": "3"}, "result": {"word": "aabab", "length": "5", '
        '"slope": "2/3", "w1": "aab", "w2": "ab", "p_inv": "3", "q_inv": "2"}}\n',
    ),
    (
        ("arith", "cf", "[0,2,2,2]", "--format", "tsv"),
        0,
        "command\tstatus\terror_kind\tinputs.operation\tinputs.payload\t"
        "result.value\tresult.num\tresult.den\tresult.convergents\n"
        "arith\tok\t\tcf\t[0,2,2,2]\t5/12\t5\t12\t0/1 1/2 2/5 5/12\n",
    ),
    (
        ("verify", "max-length", "--n-max", "1", "--format", "tsv"),
        0,
        "command\tstatus\terror_kind\tinputs.theorem\tinputs.order\tinputs.mode\t"
        "result.maximum\tresult.expected_max\tresult.argmax\tresult.expected_argmax\t"
        "result.argmax_size\tresult.check\tresult.agreement\tresult.passed\n"
        "verify\tok\t\tmax-length\t0\tboth\t0\t0\t\t\t1\tfull\ttrue\ttrue\n"
        "verify\tok\t\tmax-length\t1\tboth\t1\t1\ta b\ta b\t2\tfull\ttrue\ttrue\n",
    ),
    (
        # Two ok rows, then the error row under the union of their columns.
        ("verify", "central-count", "--n-max", "17", "--bound", "1", "--format", "tsv"),
        2,
        "command\tstatus\terror_kind\tinputs.theorem\tinputs.length\tinputs.mode\t"
        "result.count\tresult.expected\tresult.passed\tresult.message\n"
        "verify\tok\t\tcentral-count\t0\tcensus\t1\t1\ttrue\t\n"
        "verify\tok\t\tcentral-count\t1\tcensus\t2\t2\ttrue\t\n"
        "verify\terror\tBoundExceededError\tcentral-count\t2\tcensus\t\t\t\t"
        "length 2 exceeds the census bound 1\n",
    ),
    # A TSV cell escapes backslash, tab, newline and CR, so every row stays
    # one line with the header's cell count.
    (
        ("arith", "continuant", "[1,\t2]", "--format", "tsv"),
        0,
        "command\tstatus\terror_kind\tinputs.operation\tinputs.payload\tresult.value\n"
        "arith\tok\t\tcontinuant\t[1,\\t2]\t3\n",
    ),
    (
        ("arith", "continuant", "[1,\n2]", "--format", "tsv"),
        0,
        "command\tstatus\terror_kind\tinputs.operation\tinputs.payload\tresult.value\n"
        "arith\tok\t\tcontinuant\t[1,\\n2]\t3\n",
    ),
    (
        ("arith", "intrep", "a\tb\r\\", "--format", "tsv"),
        2,
        "command\tstatus\terror_kind\tinputs.operation\tinputs.payload\tresult.message\n"
        "arith\terror\tValueError\tintrep\ta\\tb\\r\\\\\t"
        "word must use only letters 'a' and 'b': 'a\\\\tb\\\\r\\\\\\\\'\n",
    ),
]


@pytest.mark.parametrize(
    "argv, code, out", RECORD_BYTES, ids=[" ".join(argv) for argv, _, _ in RECORD_BYTES]
)
def test_record_bytes(capsys, argv, code, out):
    assert run(capsys, *argv) == (code, out)


def test_elision_and_full(capsys):
    directive = "ab" * 8
    code, recs = run_json(capsys, "psi", directive)
    assert code == 0
    word = recs[0]["result"]["word"]
    assert len(word) == 120 and word.endswith("...")
    assert recs[0]["result"]["length"] == str(fibonacci(17) - 2)
    code, recs = run_json(capsys, "psi", directive, "--full")
    full_word = recs[0]["result"]["word"]
    assert len(full_word) == fibonacci(17) - 2
    assert full_word.startswith(word[:117])


def test_arith_payload_elision_and_full(capsys):
    payload = "ab" * 70
    elided = payload[:117] + "..."
    code, recs = run_json(capsys, "arith", "intrep", payload)
    assert code == 0 and recs[0]["inputs"]["payload"] == elided
    assert recs[0]["result"]["intrep"] == "[0" + ",1" * 140 + "]"
    code, recs = run_json(capsys, "arith", "intrep", payload + "c")
    assert code == 2 and recs[0]["inputs"]["payload"] == elided
    code, recs = run_json(capsys, "arith", "intrep", payload, "--full")
    assert code == 0 and recs[0]["inputs"]["payload"] == payload


def test_stream_spec_elision_and_full(capsys):
    spec = "a" * 130 + "|ab"
    elided = spec[:117] + "..."
    code, recs = run_json(capsys, "stream", spec, "10")
    assert code == 0 and recs[0]["inputs"]["spec"] == elided
    code, recs = run_json(capsys, "stream", spec, "-1")
    assert code == 2 and recs[0]["inputs"]["spec"] == elided
    code, recs = run_json(capsys, "stream", spec, "10", "--full")
    assert code == 0 and recs[0]["inputs"]["spec"] == spec


def test_max_word_len_flag(capsys):
    code, recs = run_json(capsys, "stream", "|ab", "100", "--max-word-len", "20")
    assert code == 2
    assert recs[0]["error_kind"] == "MaterializationLimitError"
    assert recs[0]["inputs"] == {"spec": "|ab", "prefix_len": "100"}
    # The override must not leak into the process after the invocation.
    assert config._override is None
    if "STURMIAN_MAX_WORD_LEN" not in os.environ:
        assert config.max_word_len() == config.DEFAULT_MAX_WORD_LEN
    code, recs = run_json(capsys, "stream", "|ab", "100")
    assert code == 0 and recs[0]["result"]["length"] == "100"



def test_max_word_len_environment(capsys, monkeypatch):
    monkeypatch.setattr(config, "_override", None)
    monkeypatch.setenv("STURMIAN_MAX_WORD_LEN", "10")
    assert config.max_word_len() == 10
    with pytest.raises(MaterializationLimitError, match="length 11 exceeds the materialization cap 10"):
        psi("abab")
    code, recs = run_json(capsys, "psi", "abab", "--max-word-len", "100")
    assert code == 0 and recs[0]["result"]["length"] == "11"


@pytest.mark.parametrize(
    "raw, message",
    [
        ("abc", "STURMIAN_MAX_WORD_LEN must be an integer, got 'abc'"),
        ("0", "STURMIAN_MAX_WORD_LEN must be positive"),
        ("-3", "STURMIAN_MAX_WORD_LEN must be positive"),
    ],
)
def test_max_word_len_environment_refuses_bad_values(monkeypatch, raw, message):
    monkeypatch.setattr(config, "_override", None)
    monkeypatch.setenv("STURMIAN_MAX_WORD_LEN", raw)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        config.max_word_len()

@pytest.mark.parametrize("limit", [2.5, True, "10", 10.0])
def test_set_max_word_len_refuses_non_integers(monkeypatch, limit):
    monkeypatch.setattr(config, "_override", None)
    with pytest.raises(ValueError, match="^materialization cap must be an integer, got "):
        config.set_max_word_len(limit)
    assert config._override is None


def test_usage_errors_exit_2(capsys):
    assert main(["psi"]) == 2
    assert main(["verify", "no-such-theorem"]) == 2
    assert main([]) == 2
    capsys.readouterr()


REPO_ROOT = Path(__file__).resolve().parent.parent
VERIFY_ARGV = ["verify", "harmonic", "--n-max", "4", "--format", "tsv"]


def test_readme_theorem_table_matches_registry():
    # The README table is where users read each theorem's defaults.
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `([a-z-]+)` \|[^|]*\| (\d+) \| ([a-z, ]+) \|$", text, re.M)
    assert [(name, int(n_max), tuple(modes.split(", "))) for name, n_max, modes in rows] == [
        (name, t.default_n_max, t.modes) for name, t in THEOREMS.items()
    ]


def declared_scripts():
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh).get("project", {}).get("scripts", {})


def run_script(exe, argv, env=None):
    return subprocess.run(
        [exe, *argv], capture_output=True, text=True, timeout=120, env=env
    )


def assert_verify_tsv(proc):
    assert proc.returncode == 0, proc.stderr
    header = proc.stdout.splitlines()[0].split("\t")
    assert header[0] == "command"
    assert "result.passed" in header


def test_console_entry_point(tmp_path):
    """The `sturmian` script this tree declares works as its own process.

    Writes the launcher an install would generate from `[project.scripts]`
    and runs it against this tree's `src/`, so no install is needed and a
    stale installed copy cannot stand in for this source.
    """
    scripts = declared_scripts()
    assert "sturmian" in scripts, "pyproject.toml declares no sturmian script"
    module_name, _, attr = scripts["sturmian"].partition(":")
    target = getattr(importlib.import_module(module_name), attr, None)
    assert callable(target), f"{scripts['sturmian']} is not callable"

    launcher = tmp_path / "sturmian"
    launcher.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"import {module_name}\n"
        f"sys.exit({module_name}.{attr}())\n"
    )
    launcher.chmod(0o755)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")])
    )

    assert_verify_tsv(run_script(str(launcher), VERIFY_ARGV, env))
    # main's return value becomes the exit status only through the entry
    # point; the in-process tests above call main() and never see it.
    assert run_script(str(launcher), ["psi", "abc"], env).returncode == 2


@pytest.mark.skipif(
    shutil.which("sturmian") is None, reason="console script not installed"
)
def test_installed_console_script():
    assert_verify_tsv(run_script(shutil.which("sturmian"), VERIFY_ARGV))
