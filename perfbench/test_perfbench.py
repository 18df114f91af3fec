"""Tests of the benchmark itself, on reduced sizes.

Run from the repository root:

    python3 -m pytest perfbench
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import harness  # noqa: E402
import run  # noqa: E402
import sturmian  # noqa: E402
import workloads  # noqa: E402

COUNTS = ("calls", "letters", "nodes", "images", "records", "bytes")


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_measure(workload):
    result = harness.measure(workload, 5, 0.0, small=True)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == harness.MIN_PASSES * len(workloads.make(workload, 5, small=True))
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert list(values) == [name for name, _, _ in harness.END_TO_END]
    assert all(v > 0 for v in values.values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_counts_repeat(workload, tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "SPANS_DIR", tmp_path)
    first = harness.traced(workload, 7, small=True)
    second = harness.traced(workload, 7, small=True)
    assert first["correct"] and second["correct"]
    assert list(first["metrics"]) == [name for name, _, _ in harness.per_layer_metrics()]
    counts = [n for n in first["metrics"] if n.rsplit(".", 1)[1] in COUNTS]
    assert {n: first["metrics"][n] for n in counts} == {n: second["metrics"][n] for n in counts}
    assert (tmp_path / f"{workload}.spans.tsv").is_file()
    # Every wrapper is gone again.
    assert not hasattr(sturmian.psi, "__wrapped__")
    assert not hasattr(sturmian._kernels.min_period, "__wrapped__")


def test_traced_layers_follow_the_workload(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "SPANS_DIR", tmp_path)
    verify = {n: m["value"] for n, m in harness.traced("verify-sweep", 1, small=True)["metrics"].items()}
    build = {n: m["value"] for n, m in harness.traced("build-long", 1, small=True)["metrics"].items()}
    assert verify["kernels.min_period.calls"] > 0 and verify["kernels.arith_scan.calls"] > 0
    assert verify["oracle.directive_images.images"] > 0
    # The CLI's verifier table is patched too, not only the oracle module.
    assert verify["oracle.verify_max_length.self_s"] > 0
    assert verify["cli.main.calls"] == len(workloads.make("verify-sweep", 1, small=True))
    assert build["kernels.min_period.calls"] == 0 and build["kernels.arith_scan.calls"] == 0
    assert build["kernels.lps_length.calls"] > 0
    # families binds directive_word_of at import; central_certificate's calls must be seen.
    directive_jobs = sum(op.kind in ("directive_word_of", "central_certificate")
                         for op in workloads.make("build-long", 1, small=True))
    assert build["palindromization.directive_word_of.calls"] == directive_jobs


def _pass(workload, seed=3):
    ops = workloads.make(workload, seed, small=True)
    _, _, outs = harness.run_pass(ops)
    assert harness.gate(ops, outs, {}) == 0
    return ops, outs


def test_gate_counts_wrong_results():
    ops, outs = _pass("query-mix")
    kinds = {op.kind: i for i, op in enumerate(ops)}
    wrong = list(outs)
    wrong[kinds["psi"]] = outs[kinds["psi"]][::-1] + "a"
    wrong[kinds["is_central"]] = not outs[kinds["is_central"]]
    wrong[kinds["slope_from_directive"]] = ValueError("raised")
    assert harness.gate(ops, wrong, {}) == 3


def test_gate_rejects_a_wrong_factorization_and_stream():
    ops, outs = _pass("build-long")
    wrong = list(outs)
    for i, op in enumerate(ops):
        if op.kind == "christoffel_factorize":
            f = outs[i]
            wrong[i] = sturmian.ChristoffelFactorization(f.whole, f.w1[:-1], f.w1[-1] + f.w2, f.p_inv, f.q_inv)
        elif op.kind == "stream_prefix":
            wrong[i] = outs[i][:-1] + ("a" if outs[i][-1] == "b" else "b")
    changed = sum(op.kind in ("christoffel_factorize", "stream_prefix") for op in ops)
    assert harness.gate(ops, wrong, {}) == changed


def test_gate_rejects_missing_verify_records():
    ops, outs = _pass("verify-sweep")
    i = max((i for i, op in enumerate(ops) if op.meta[0] == "max-length"), key=lambda i: ops[i].meta[2])
    code, text = outs[i]
    short = list(outs)
    short[i] = (code, "".join(text.splitlines(keepends=True)[:-1]))
    assert harness.gate(ops, short, {}) == 1
    short[i] = (0, "")  # exit 0 with no records, as `--n-max 0` can do
    assert harness.gate(ops, short, {}) == 1
    failing = text.replace('"passed": "true"', '"passed": "false"', 1)
    short[i] = (code, failing)
    assert harness.gate(ops, short, {}) == 1


def test_same_seed_same_inputs():
    for workload in run.WORKLOADS:
        assert workloads.make(workload, 9) == workloads.make(workload, 9)
    assert workloads.make("query-mix", 9) != workloads.make("query-mix", 10)


def test_references_agree_with_definitions():
    for v in ("", "a", "ab", "abba", "aabab", "babbaab"):
        w, pa, pb = workloads.image(v)
        assert w == sturmian.psi(v)
        assert (pa, pb) == (len(sturmian.mu(v, "a")), len(sturmian.mu(v, "b")))
        assert workloads.min_period(w) == sturmian.minimal_period(w)
    words = ["", "a", "ab", "aba", "abaaba", "abba", "aabaa", "abaababaaba"]
    assert [workloads.is_central_ref(w) for w in words] == [sturmian.is_central(w) for w in words]
    assert workloads.christoffel_word(5, 12) == sturmian.christoffel(5, 12)
    assert [workloads.fib(n) for n in range(-1, 6)] == [1, 1, 2, 3, 5, 8, 13]


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(harness.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == harness.per_layer_metrics()


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "query-mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0 and done.stdout == ""
