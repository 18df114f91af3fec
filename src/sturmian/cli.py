"""Command-line front end.

Every command emits one record per result: JSON objects (one per line) or
aligned TSV with a header row, carrying the same logical content.  Exit code
0 means success, 1 means a verification found a failing order, 2 means the
request itself was rejected (usage, domain, or resource errors).
"""
from __future__ import annotations

import argparse
import functools
import json
import sys

from . import arithmetic, config, families, oracle, palindromization, words
from .errors import SturmianError

_ELIDE_AT = 120

# The parsed arguments a record shows as its inputs: every record of psi,
# stream, christoffel and arith, and every error record.  An argument that
# is not set is left out: a verify run sets its order (or length) as it
# goes, so an error record names the order that stopped it.
_INPUT_ARGS = {
    "psi": ("directive",),
    "stream": ("spec", "prefix_len"),
    "christoffel": ("p", "q"),
    "verify": ("theorem", "order", "length", "mode"),
    "arith": ("operation", "payload"),
}


def _text(value) -> str:
    """How a record prints a value: a bool as true/false, None as '-', an
    exponent tuple as [a,b], a list as its items joined by spaces."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "-"
    if isinstance(value, tuple):
        return "[" + ",".join(str(x) for x in value) + "]"
    if isinstance(value, list):
        return " ".join(_text(x) for x in value)
    return str(value)


# A TSV cell escapes the characters that would split it or its row.
_TSV_ESCAPES = str.maketrans({"\\": "\\\\", "\t": "\\t", "\n": "\\n", "\r": "\\r"})


class Emitter:
    """Prints records: each JSON line at once, or every TSV row under one
    header, the union of their columns in first-seen order, at close."""

    def __init__(self, fmt: str) -> None:
        self.fmt = fmt
        self.rows: list[dict[str, str]] = []

    def emit(self, command: str, inputs: dict, result: dict, status="ok", error_kind="") -> None:
        inputs = {k: _text(v) for k, v in inputs.items()}
        result = {k: _text(v) for k, v in result.items()}
        head = {"command": command, "status": status, "error_kind": error_kind}
        if self.fmt == "json":
            print(json.dumps({**head, "inputs": inputs, "result": result}))
            return
        row = {**head, **{f"inputs.{k}": v for k, v in inputs.items()}}
        self.rows.append({**row, **{f"result.{k}": v for k, v in result.items()}})

    def close(self) -> None:
        if not self.rows:
            return
        columns = list(dict.fromkeys(key for row in self.rows for key in row))
        print("\t".join(columns))
        for row in self.rows:
            print("\t".join(row.get(col, "").translate(_TSV_ESCAPES) for col in columns))


def _display_word(w: str, full: bool) -> str:
    if full or len(w) <= _ELIDE_AT:
        return w
    return w[: _ELIDE_AT - 3] + "..."


def _inputs(args) -> dict[str, str]:
    full = getattr(args, "full", False)
    return {
        key: _display_word(str(getattr(args, key)), full)
        for key in _INPUT_ARGS[args.command]
        if hasattr(args, key)
    }


def _parse_int_list(payload: str) -> tuple[int, ...]:
    try:
        data = json.loads(payload)
    except json.JSONDecodeError:
        raise ValueError(f"payload must be a JSON integer list, got {payload!r}") from None
    if not isinstance(data, list) or not all(type(x) is int for x in data):
        raise ValueError(f"payload must be a JSON integer list, got {payload!r}")
    return tuple(data)


# Each command yields its records as (inputs, result) rows; main emits them.


def _cmd_psi(args):
    v = args.directive
    w = palindromization.psi(v)
    yield _inputs(args), {
        "word": _display_word(w, args.full),
        "length": len(w),
        "period": words.minimal_period(w),
        "bcount": w.count("b"),
        "intrep": arithmetic.to_integral(w),
        "directive_intrep": arithmetic.to_integral(v),
    }


def _cmd_stream(args):
    spec = palindromization.DirectiveSpec.parse(args.spec)
    prefix = palindromization.stream_prefix(spec, args.prefix_len)
    result: dict[str, object] = {"prefix": _display_word(prefix, args.full), "length": len(prefix)}
    if not spec.is_characteristic():
        missing = "a" if "a" not in spec.period else "b"
        result["note"] = (
            f"not a characteristic word: letter '{missing}' does not recur forever "
            "(it is absent from the period)"
        )
    yield _inputs(args), result


def _cmd_christoffel(args):
    w = families.christoffel(args.p, args.q)
    result: dict[str, object] = {
        "word": _display_word(w, args.full),
        "length": len(w),
        "slope": words.slope_eta(w),
    }
    if args.factor:
        fac = families.christoffel_factorize(w)
        result.update(
            {
                "w1": _display_word(fac.w1, args.full),
                "w2": _display_word(fac.w2, args.full),
                "p_inv": fac.p_inv,
                "q_inv": fac.q_inv,
            }
        )
    yield _inputs(args), result


def _cmd_arith(args):
    op = args.operation
    result: dict[str, object]
    if op == "intrep":
        words.check_word(args.payload)
        result = {"intrep": arithmetic.to_integral(args.payload)}
    elif op == "continuant":
        result = {"value": arithmetic.continuant(_parse_int_list(args.payload))}
    elif op == "cf":
        terms = _parse_int_list(args.payload)
        value = arithmetic.cf_eval(terms)
        table = arithmetic.convergents(terms)
        result = {
            "value": value,
            "num": value.num,
            "den": value.den,
            "convergents": [f"{a}/{b}" for a, b, _ in table.rows[1:]],
        }
    elif op == "slope":
        value = arithmetic.slope_from_directive(args.payload)
        result = {"slope": value, "num": value.num, "den": value.den}
    elif op == "length":
        result = {"value": arithmetic.christoffel_length_from_directive(args.payload)}
    else:
        result = {"value": arithmetic.minimal_period_from_directive(args.payload)}
    yield _inputs(args), result


def _cmd_verify(args):
    name, mode = args.theorem, args.mode
    theorem = oracle.THEOREMS[name]
    n_max = theorem.default_n_max if args.n_max is None else args.n_max
    if n_max < theorem.first:
        raise ValueError(f"{name} starts at order {theorem.first}: --n-max {n_max} checks nothing")
    if mode not in theorem.modes:
        raise ValueError(f"{name} takes --mode {' or '.join(theorem.modes)}, not {mode}")
    if args.bound is not None and not theorem.bounded:
        raise ValueError(f"{name} enumerates nothing, so it takes no --bound")
    orders = range(theorem.first, n_max + 1)
    results = theorem.rows(orders, mode, args.bound, args.seed)
    # From here on every record shows the route and its order; an error
    # record shows the order that stopped the run.
    args.mode = theorem.route or mode
    for n in orders:
        setattr(args, theorem.index, n)
        yield _inputs(args), next(results)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("json", "tsv"), default="json", help="output encoding")
    # arith builds no word, so it reads no cap.
    common = argparse.ArgumentParser(add_help=False, parents=[fmt])
    common.add_argument(
        "--max-word-len",
        type=int,
        default=None,
        metavar="N",
        help="override the materialization cap for this invocation",
    )
    # Only the commands whose records print words read --full.
    full = argparse.ArgumentParser(add_help=False)
    full.add_argument(
        "--full", action="store_true", help="never elide long words in output"
    )

    parser = argparse.ArgumentParser(
        prog="sturmian",
        description="Palindromic closures, Christoffel words, continuant arithmetic, "
        "and exhaustive extremal verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "psi", parents=[common, full], help="iterated palindromic closure of a directive"
    )
    p.add_argument("directive", help="finite directive word over {a, b}")
    p.set_defaults(func=_cmd_psi)

    p = sub.add_parser("stream", parents=[common, full], help="prefix of an infinite closure image")
    p.add_argument("spec", help="directive as 'preperiod|period', e.g. '|ab' or 'abb|ab'")
    p.add_argument("prefix_len", type=int, help="how many letters to emit")
    p.set_defaults(func=_cmd_stream)

    p = sub.add_parser("christoffel", parents=[common, full], help="Christoffel word of slope p/q")
    p.add_argument("p", type=int, help="number of 'b' letters")
    p.add_argument("q", type=int, help="number of 'a' letters")
    p.add_argument("--factor", action="store_true", help="include the standard factorization")
    p.set_defaults(func=_cmd_christoffel)

    p = sub.add_parser("verify", parents=[common], help="run an exhaustive extremal verifier")
    p.add_argument(
        "theorem",
        choices=tuple(oracle.THEOREMS),
    )
    p.add_argument("--n-max", type=int, default=None, help="largest order to check")
    p.add_argument(
        "--mode",
        choices=oracle.ANY_MODE,
        default="both",
        help="evaluation route(s); 'both' asserts agreement",
    )
    p.add_argument("--bound", type=int, default=None, help="override the enumeration bound")
    p.add_argument(
        "--seed", type=int, default=0, help="seed for sampled route-agreement checks"
    )
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "arith", parents=[fmt, full], help="exponent-list and continuant arithmetic"
    )
    p.add_argument(
        "operation", choices=("intrep", "continuant", "cf", "slope", "length", "period")
    )
    p.add_argument(
        "payload",
        help="a word for intrep/slope/length/period, a JSON integer list for continuant/cf",
    )
    p.set_defaults(func=_cmd_arith)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    saved_cap = config._override
    em = Emitter(args.format)
    code = 0
    # Rows are produced lazily, so the cap override spans the whole loop.
    try:
        cap = getattr(args, "max_word_len", None)
        if cap is not None:
            config.set_max_word_len(cap)
        for inputs, result in args.func(args):
            em.emit(args.command, inputs, result)
            code |= result.get("passed") is False
    except (SturmianError, ValueError) as exc:
        em.emit(args.command, _inputs(args), {"message": str(exc)}, "error", type(exc).__name__)
        code = 2
    finally:
        config._override = saved_cap
        em.close()
    return code


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
