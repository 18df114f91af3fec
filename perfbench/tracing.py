"""Per-layer spans and counts, recorded from outside the package.

``Tracer.install`` wraps each traced function on every ``sturmian`` module
namespace that binds it, and in module-level dicts that hold it (the CLI keeps
its word verifiers in one), since a wrapper on the defining module alone
misses callers that imported the name.  ``Tracer.remove`` restores the
originals; the package source is never changed.

Spans stay in memory as [name, start_ns, end_ns, parent, op] and are written
out once at the end.  A span's self time is its duration minus the durations
of its child spans.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# Layer -> module that defines it.  "kernels" is sturmian._kernels; metric
# names must start with a letter.
MODULES = {
    "kernels": "sturmian._kernels",
    "palindromization": "sturmian.palindromization",
    "families": "sturmian.families",
    "words": "sturmian.words",
    "arithmetic": "sturmian.arithmetic",
    "oracle": "sturmian.oracle",
    "cli": "sturmian.cli",
}

_BUILDER = ("calls", "self_s", "letters")
_TIMED = ("calls", "self_s")

# Layer -> traced function -> reported stats.  `letters` is the summed length
# of the word argument (the requested prefix length for stream_prefix, the
# current word for psi_stream_advance); `nodes` is the directive-tree nodes an
# arith_scan visits, computed from its order.
LAYERS = {
    "kernels": {
        "min_period": _BUILDER,
        "arith_scan": ("calls", "self_s", "nodes"),
        "lps_length": _BUILDER,
    },
    "palindromization": {
        f: _BUILDER
        for f in (
            "psi",
            "palindromic_closure",
            "psi_stream_advance",
            "stream_prefix",
            "directive_word_of",
            "mu",
            "p_x",
        )
    },
    "families": {f: _TIMED for f in ("central_certificate", "christoffel_factorize", "is_christoffel")},
    "words": {f: _TIMED for f in ("is_lyndon", "minimal_period")},
    "arithmetic": {
        f: _TIMED
        for f in ("psi_stats_from_directive", "slope_from_directive", "continuant", "to_integral")
    },
    "oracle": {
        **{
            f: ("self_s",)
            for f in (
                "verify_max_length",
                "verify_max_period",
                "verify_max_bcount",
                "verify_continuant_max",
                "verify_period_continuant_max",
                "stream_rows",
            )
        },
        "directive_images": ("images", "letters"),
    },
    "cli": {"main": ("calls", "self_s", "records", "bytes")},
}

_UNITS = {
    "calls": "count",
    "self_s": "s",
    "letters": "letters",
    "nodes": "nodes",
    "images": "count",
    "records": "count",
    "bytes": "bytes",
}


def _size(func: str, args: tuple) -> int:
    if func == "arith_scan":
        n, _, a_start = args
        return 2**n if a_start else 2 ** (n + 1) - 1
    if func == "stream_prefix":
        return args[1]
    if func == "psi_stream_advance":
        return len(args[0].current)
    return len(args[0])


def layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of the metrics a Tracer reports; harness.py adds
    the per-theorem wall times, the trace overhead and the kernel cases."""
    out = []
    for layer, funcs in LAYERS.items():
        for func, stats in funcs.items():
            for stat in stats:
                better = "higher" if stat == "records" else "lower"
                out.append((f"{layer}.{func}.{stat}", _UNITS[stat], better))
    return out


class Tracer:
    """Spans and counts of one traced pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list[int]] = []
        self.counts: dict[str, int] = {}
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def install(self) -> None:
        for layer, funcs in LAYERS.items():
            module = importlib.import_module(MODULES[layer])
            for func, stats in funcs.items():
                orig = getattr(module, func)
                name = f"{layer}.{func}"
                if func == "directive_images":
                    wrapper = self._counted_generator(name, orig)
                else:
                    wrapper = self._timed(name, func, orig, stats)
                self._rebind(orig, wrapper)

    def remove(self) -> None:
        for target, key, orig in reversed(self._undo):
            if isinstance(target, dict):
                target[key] = orig
            else:
                setattr(target, key, orig)
        self._undo.clear()

    def _rebind(self, orig, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "sturmian" or mod_name.startswith("sturmian.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._undo.append((mod, key, orig))
                    setattr(mod, key, wrapper)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is orig:
                            self._undo.append((value, k, orig))
                            value[k] = wrapper

    def _timed(self, name: str, func: str, orig, stats: tuple):
        spans, stack, counts = self.spans, self._stack, self.counts
        name_id = len(self.names)
        self.names.append(name)
        sized = stats[-1] in ("letters", "nodes")
        size_key = f"{name}.{stats[-1]}"
        clock = time.perf_counter_ns

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if sized:
                counts[size_key] = counts.get(size_key, 0) + _size(func, args)
            index = len(spans)
            spans.append([name_id, clock(), 0, stack[-1] if stack else -1, self.op])
            stack.append(index)
            try:
                return orig(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()

        return wrapper

    def _counted_generator(self, name: str, orig):
        # A generator's body runs interleaved with its consumer, so a span
        # would not measure it; count what it yields instead.
        counts = self.counts

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            for v, w in orig(*args, **kwargs):
                counts[f"{name}.images"] = counts.get(f"{name}.images", 0) + 1
                counts[f"{name}.letters"] = counts.get(f"{name}.letters", 0) + len(w)
                yield v, w

        return wrapper

    def metrics(self) -> dict[str, float]:
        """Every stat in LAYERS: calls and self time from the spans, sizes and
        yields from the counters; 0 for a function the pass never reached."""
        child = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict[str, int] = {}
        self_ns: dict[str, int] = {}
        for span, inner in zip(self.spans, child):
            name = self.names[span[0]]
            calls[name] = calls.get(name, 0) + 1
            self_ns[name] = self_ns.get(name, 0) + span[2] - span[1] - inner
        out: dict[str, float] = {}
        for metric, _, _ in layer_metrics():
            name, stat = metric.rsplit(".", 1)
            if stat == "calls":
                out[metric] = calls.get(name, 0)
            elif stat == "self_s":
                out[metric] = self_ns.get(name, 0) / 1e9
            else:
                out[metric] = self.counts.get(metric, 0)
        return out

    def write(self, path, header: dict) -> None:
        """Spans as tab-separated name, start_ns, end_ns, parent index, op."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# {json.dumps(header)}\n")
            for name_id, start, end, parent, op in self.spans:
                fh.write(f"{self.names[name_id]}\t{start}\t{end}\t{parent}\t{op}\n")
