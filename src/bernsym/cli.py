"""Command-line front end: exact computations and verification reports.

Subcommands: bernoulli, power-sum, chars, quotient, consistency, verify,
audit, padic.  All numbers are rendered as exact strings (rationals or
cyclotomic coordinate vectors); identical invocations produce identical
bytes.  Exit codes: 0 all pass, 1 verification failure, 2 usage or
parameter error, 3 internal error; `--debug` (before the subcommand)
prints an internal error's traceback to stderr after its one-line message.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
import traceback
from fractions import Fraction

from .bernoulli import (
    ParameterError,
    TwistSpec,
    gen_bernoulli_numbers,
    gen_bernoulli_poly,
    power_sum,
)
from .dirichlet import DirichletCharacter, enumerate_characters, trivial_character
from .identities import (
    THEOREMS,
    GridConfig,
    TheoremInstance,
    grid_verify,
    theorem_sides,
    verify_instance,
)
from .padic import DEFAULT_PRECISION, PadicContext, convergence_check
from .quotients import (
    EvalContext,
    QuotientType,
    closed_form_series,
    consistency_check,
    parse_quotient_type,
)

USAGE_ERROR = 2
VERIFY_ERROR = 1
INTERNAL_ERROR = 3
FORMATS = ("json", "csv", "pretty")


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParameterError(f"{text.strip()!r} is not an integer") from None


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ParameterError(f"{text.strip()!r} is not a rational number") from None


def _parse_char_label(text: str) -> tuple[int, ...]:
    text = text.strip()
    if text in ("", "-", "trivial"):
        return ()
    return tuple(_parse_int(part) for part in text.split(","))


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(_parse_int(part) for part in text.split(",") if part.strip() != "")


def _parse_fraction_list(text: str) -> tuple[Fraction, ...]:
    return tuple(_parse_fraction(part) for part in text.split(",") if part.strip() != "")


def _parse_y(text: str | None, qt: QuotientType) -> tuple[Fraction, ...]:
    """One rational per y variable of the quotient type; all 0 by default."""
    if text is None:
        return (Fraction(0),) * qt.y_count
    y = _parse_fraction_list(text)
    if len(y) != qt.y_count:
        raise ParameterError(f"{qt.name} takes {qt.y_count} y value(s), got {len(y)}")
    return y


def _resolve_character(d: int, label_text: str | None) -> DirichletCharacter:
    if label_text is None:
        return trivial_character(d)
    return DirichletCharacter(d, _parse_char_label(label_text))


def _emit(doc, fmt: str, csv_rows) -> str:
    """Stable rendering: json with fixed separators, csv from prepared rows,
    pretty as an indented json view."""
    if fmt == "json":
        return json.dumps(doc, separators=(",", ":")) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        for row in csv_rows:
            writer.writerow(row)
        return buf.getvalue()
    return json.dumps(doc, indent=2) + "\n"


def _add_common(parser):
    parser.add_argument("--d", type=int, default=1, help="character modulus")
    parser.add_argument("--char", default=None,
                        help="character exponent label, comma separated (default: trivial)")
    parser.add_argument("--r", type=int, required=True, help="order of the twist root")
    parser.add_argument("--j", type=int, default=1, help="twist root is zeta_r^j")
    parser.add_argument("--format", choices=FORMATS, default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bernsym",
        description="Exact twisted-Bernoulli engine: values, quotient series, identity audits.",
    )
    parser.add_argument("--debug", action="store_true",
                        help="after an internal error's one-line message, print its traceback to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bernoulli", help="generalized twisted Bernoulli numbers B_n")
    _add_common(p)
    p.add_argument("--w", type=int, default=1, help="twist power: numbers for xi^w")
    p.add_argument("--n-max", type=int, default=8)
    p.add_argument("--x", default=None, help="also evaluate B_n(x) at this rational")

    p = sub.add_parser("power-sum", help="generalized twisted power sum S_k(upper)")
    _add_common(p)
    p.add_argument("--w", type=int, default=1)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--upper", type=int, required=True)

    p = sub.add_parser("chars", help="list Dirichlet characters mod d")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--primitive-only", action="store_true")
    p.add_argument("--format", choices=FORMATS, default="json")

    p = sub.add_parser("quotient", help="closed-form series of a quotient type")
    _add_common(p)
    p.add_argument("--type", required=True, help="G0|G1|G2|L23:0..3|L13:0..3|L12:0|L12:1")
    p.add_argument("--w", required=True, help="comma separated w tuple")
    p.add_argument("--y", default=None, help="comma separated rational y values")
    p.add_argument("--order", type=int, default=8)

    p = sub.add_parser("consistency", help="expansion = weight * closed-form reconciliation")
    _add_common(p)
    p.add_argument("--type", required=True)
    p.add_argument("--w", required=True)
    p.add_argument("--y", default=None)
    p.add_argument("--n-max", type=int, default=6)

    p = sub.add_parser("verify", help="verify one theorem instance")
    _add_common(p)
    p.add_argument("--theorem", type=int, required=True)
    p.add_argument("--w", required=True, help="comma separated w tuple (length 2 or 3)")
    p.add_argument("--n-max", type=int, default=4)
    p.add_argument("--mode", choices=("as-stated", "normalized"), default="as-stated")
    p.add_argument("--method", choices=("poly", "points"), default="poly")
    p.add_argument("--values", action="store_true", help="include per-grid-point values")

    p = sub.add_parser("audit", help="run a verification grid from a config file")
    p.add_argument("--grid-file", required=True)
    p.add_argument("--format", choices=FORMATS, default="json")

    p = sub.add_parser("padic", help="finite-level Riemann sums against Bernoulli moments")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--M", type=int, default=DEFAULT_PRECISION)
    _add_common(p)
    p.add_argument("--n", type=int, required=True, help="moment index")
    p.add_argument("--levels", type=int, default=4, help="check levels 1..K")
    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first `main` call (not at import) and kept:
    parsing never changes it, and building it costs about 10 ms."""
    return build_parser()


# ---------------------------------------------------------------------------
# subcommand handlers (each returns exit code, writes to out)


def _cmd_bernoulli(args, out) -> int:
    chi = _resolve_character(args.d, args.char)
    twist = TwistSpec(args.r, args.j)
    numbers = gen_bernoulli_numbers(chi, twist, args.w, args.n_max)
    doc = {
        "d": args.d, "char": chi.to_json(), "r": args.r, "j": args.j, "w": args.w,
        "numbers": [b.to_json() for b in numbers],
    }
    rows = [["n", "value"]] + [[n, str(b)] for n, b in enumerate(numbers)]
    if args.x is not None:
        x = _parse_fraction(args.x)
        values = [gen_bernoulli_poly(chi, twist, args.w, n)(x) for n in range(args.n_max + 1)]
        doc["x"] = str(x)
        doc["polynomial_values"] = [v.to_json() for v in values]
        rows[0].append(f"B_n({x})")
        for n, v in enumerate(values):
            rows[n + 1].append(str(v))
    out.write(_emit(doc, args.format, rows))
    return 0


def _cmd_power_sum(args, out) -> int:
    chi = _resolve_character(args.d, args.char)
    twist = TwistSpec(args.r, args.j)
    val = power_sum(args.k, args.upper, chi, twist, args.w)
    doc = {"d": args.d, "char": chi.to_json(), "r": args.r, "j": args.j,
           "w": args.w, "k": args.k, "upper": args.upper, "value": val.to_json()}
    out.write(_emit(doc, args.format, [["k", "upper", "value"], [args.k, args.upper, str(val)]]))
    return 0


def _cmd_chars(args, out) -> int:
    chars = enumerate_characters(args.d)
    if args.primitive_only:
        chars = [c for c in chars if c.is_primitive]
    entries = []
    rows = [["label", "order", "conductor", "primitive", "values"]]
    # chi(a) is zeta_order^s, or 0 where s is None, so its text depends only
    # on (order, s): each is rendered once, for all the characters
    names: dict[tuple, str] = {}
    for chi in chars:
        cond, primitive = chi.conductor()
        order = chi.order
        values = []
        for a in range(args.d):
            key = (order, chi._value_exponent(a))
            if key not in names:
                names[key] = str(chi(a))
            values.append(names[key])
        entries.append({
            "d": args.d,
            "exponents": list(chi.exponents),
            "order": order,
            "conductor": cond,
            "primitive": primitive,
            "values": values,
        })
        rows.append([",".join(map(str, chi.exponents)) or "-", order,
                     cond, primitive, " ".join(values)])
    out.write(_emit({"d": args.d, "characters": entries}, args.format, rows))
    return 0


def _cmd_quotient(args, out) -> int:
    qt = parse_quotient_type(args.type)
    chi = _resolve_character(args.d, args.char)
    twist = TwistSpec(args.r, args.j)
    w = _parse_int_list(args.w)
    y = _parse_y(args.y, qt)
    series = closed_form_series(qt, w, y, chi, twist, args.order)
    coeffs = [series.egf_coefficient(n) for n in range(args.order + 1)]
    doc = {
        "type": qt.name, "d": args.d, "char": chi.to_json(), "r": args.r, "j": args.j,
        "w": list(w), "y": [str(v) for v in y], "order": args.order,
        "egf_coefficients": [c.to_json() for c in coeffs],
    }
    rows = [["n", "egf_coefficient"]] + [[n, str(c)] for n, c in enumerate(coeffs)]
    out.write(_emit(doc, args.format, rows))
    return 0


def _cmd_consistency(args, out) -> int:
    qt = parse_quotient_type(args.type)
    chi = _resolve_character(args.d, args.char)
    twist = TwistSpec(args.r, args.j)
    w = _parse_int_list(args.w)
    y = _parse_y(args.y, qt)
    report = consistency_check(qt, w, y, chi, twist, args.n_max)
    doc = report.to_json()
    doc["char"] = chi.to_json()
    doc["r"], doc["j"], doc["d"] = args.r, args.j, args.d
    rows = [["type", "w", "n_max", "pass"], [qt.name, args.w, args.n_max, report.passed]]
    out.write(_emit(doc, args.format, rows))
    return 0 if report.passed else VERIFY_ERROR


def _cmd_verify(args, out) -> int:
    w = _parse_int_list(args.w)
    chi = _resolve_character(args.d, args.char)
    inst = TheoremInstance(args.theorem, args.d, chi.exponents, args.r, args.j, w,
                           args.n_max, args.mode)
    ctx = EvalContext(chi, inst.twist())
    report = verify_instance(inst, method=args.method, include_values=args.values, ctx=ctx)
    doc = report.to_json()
    rows = [["theorem", "d", "char", "r", "j", "w", "side", "weight", "n", "value_at_origin"]]
    thm = THEOREMS[inst.theorem]
    origin = tuple(Fraction(0) for _ in range(max(1, thm.y_count)))
    for n in range(inst.n_max + 1):
        for s, (label, _, value) in enumerate(theorem_sides(inst, n=n, y=origin, ctx=ctx)):
            rows.append([
                inst.theorem, inst.d, ",".join(map(str, inst.char)) or "-",
                inst.r, inst.j, ",".join(map(str, inst.w)),
                label, report.side_weights[s][0], n, str(value),
            ])
    rows.append(["summary", "", "", "", "", "", "", "", "", "pass" if report.passed else "fail"])
    out.write(_emit(doc, args.format, rows))
    return 0 if report.passed else VERIFY_ERROR


def _parse_char_labels(text: str) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """'d:label; d:label; ..' as (d, exponent label) pairs."""
    labels = []
    for item in text.split(";"):
        item = item.strip()
        if not item:
            continue
        dpart, _, lab = item.partition(":")
        labels.append((_parse_int(dpart), _parse_char_label(lab)))
    return tuple(labels)


# grid-file key -> (GridConfig field, parser of its value), parsed in this order
_GRID_KEYS = {
    "theorems": ("theorems", _parse_int_list),
    "d": ("d_values", _parse_int_list),
    "r": ("r_values", _parse_int_list),
    "j": ("j_values", _parse_int_list),
    "w_components": ("w_components", _parse_int_list),
    "n_max": ("n_max", _parse_int),
    "modes": ("modes", lambda text: tuple(m.strip() for m in text.split(","))),
    "chars": ("char_filter", str),
    "char_labels": ("char_labels", _parse_char_labels),
}


def parse_grid_file(path: str) -> tuple[GridConfig, str]:
    """Flat key = value text: lists are comma separated, comments with '#'.

    Keys mirror the grid configuration: theorems, d, chars, char_labels,
    r, j, w_components, n_max, modes, format.
    """
    try:
        handle = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise ParameterError(f"cannot read grid file {path!r}: {exc.strerror or exc}") from None
    with handle:
        try:
            lines = handle.readlines()
        except UnicodeDecodeError as exc:
            raise ParameterError(f"cannot read grid file {path!r}: {exc}") from None
    values: dict[str, str] = {}
    for raw in lines:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, val = line.partition("=")
        if not eq:
            raise ParameterError(f"malformed grid line {raw.strip()!r}")
        key = key.strip()
        if key in values:
            raise ParameterError(f"grid key {key!r} is given more than once")
        values[key] = val.strip()
    fmt = values.pop("format", "json")
    if fmt not in FORMATS:
        raise ParameterError(f"unknown grid format {fmt!r}; expected one of {list(FORMATS)}")
    kwargs = {field: parse(values.pop(key)) for key, (field, parse) in _GRID_KEYS.items() if key in values}
    if values:
        raise ParameterError(f"unknown grid keys: {sorted(values)}")
    return GridConfig(**kwargs), fmt


def _cmd_audit(args, out) -> int:
    config, fmt = parse_grid_file(args.grid_file)
    if args.format != "json":
        fmt = args.format
    report = grid_verify(config)
    doc = {
        "config": {
            "theorems": list(config.theorems),
            "d": list(config.d_values),
            "chars": config.char_filter,
            "r": list(config.r_values),
            "j": list(config.j_values),
            "w_components": list(config.w_components),
            "n_max": config.n_max,
            "modes": list(config.modes),
        },
        **report.to_json(),
    }
    rows = [["theorem", "mode", "pass", "fail", "skipped"]]
    total_fail = 0
    for (t, mode), counts in sorted(report.counts.items(), key=lambda kv: (kv[0][0], kv[0][1])):
        rows.append([t, mode, counts["pass"], counts["fail"], counts["skipped"]])
        total_fail += counts["fail"]
    rows.append(["summary", "", "", total_fail, ""])
    out.write(_emit(doc, fmt, rows))
    return 0 if total_fail == 0 else VERIFY_ERROR


def _cmd_padic(args, out) -> int:
    chi = _resolve_character(args.d, args.char)
    twist = TwistSpec(args.r, args.j)
    ctx = PadicContext(args.p, args.M, args.r)
    report = convergence_check(args.n, chi, twist, range(1, args.levels + 1), ctx)
    doc = report.to_json()
    doc["char"] = chi.to_json()
    rows = [["level", "valuation", "exact"]]
    for lv, v, ex in zip(report.levels, report.valuations, report.exact):
        rows.append([lv, v, ex])
    rows.append(["summary", "", "pass" if report.passed else "fail"])
    out.write(_emit(doc, args.format, rows))
    return 0 if report.passed else VERIFY_ERROR


_HANDLERS = {
    "bernoulli": _cmd_bernoulli,
    "power-sum": _cmd_power_sum,
    "chars": _cmd_chars,
    "quotient": _cmd_quotient,
    "consistency": _cmd_consistency,
    "verify": _cmd_verify,
    "audit": _cmd_audit,
    "padic": _cmd_padic,
}


def main(argv=None, out=None, err=None) -> int:
    out = out or sys.stdout
    err = err or sys.stderr
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse already printed the diagnostic; keep its exit code for
        # --help (0) and report usage errors as 2
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args, out)
    except ParameterError as exc:
        # validation raises only ParameterError (NonUnitConstantError
        # included); anything else is our fault, not the user's
        err.write(f"error: {exc}\n")
        return USAGE_ERROR
    except Exception as exc:
        kind = "i/o error" if isinstance(exc, OSError) else f"internal error: {type(exc).__name__}"
        err.write(f"{kind}: {exc}\n")
        if args.debug:
            traceback.print_exception(exc, file=err)
        return INTERNAL_ERROR


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
