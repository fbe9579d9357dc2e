"""Command-line front end: eval, verify, catalog, zeros, reduce.

Exit codes: 0 success, 1 verification failure, 2 usage error,
3 unknown identity id.  All randomness is seeded and recorded in the
report; JSON output contains no timestamps, so identical invocations
produce byte-identical reports (wall times go to the console only).
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import re
import sys
import time

from . import __version__
from .core import Characteristics, ModularParameter, theta_char
from .identities import (
    DEFAULT_BOX,
    STRESS_BOX,
    builtin_catalog,
    catalog_tsv,
    verify,
)
from .notation import big_theta
from .reduction import (
    ModularStep,
    eval_reduced,
    eval_reduced_product,
    full_reduction,
    reduce_tau,
    zeros_of,
)

__all__ = ["main", "app", "parse_complex", "format_complex"]

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_UNKNOWN_ID = 3

# complex literal: A, Bi, or A+Bi with decimal parts and optional exponents
_NUM = r"\d+(?:\.\d+)?(?:[eE][+-]?\d+)?"
_COMPLEX_RE = re.compile(
    rf"^(?:(?P<re>[+-]?{_NUM})(?:(?P<im>[+-]{_NUM})i)?|(?P<imonly>[+-]?{_NUM})i)$"
)


def parse_complex(text: str) -> complex:
    """Parse 'A', 'Bi', or 'A+Bi' with decimal A, B (exponents allowed, as
    format_complex prints them); unicode minus allowed."""
    cleaned = text.strip().replace("−", "-")
    m = _COMPLEX_RE.match(cleaned)
    if not m:
        raise ValueError(f"malformed complex literal {text!r} (expected e.g. 0.3+0.9i)")
    if m.group("imonly") is not None:
        return complex(0.0, float(m.group("imonly")))
    re_part = float(m.group("re"))
    im_part = float(m.group("im")) if m.group("im") else 0.0
    return complex(re_part, im_part)


def format_complex(z: complex) -> str:
    return f"{z.real:.17g}{z.imag:+.17g}i"


def _complex_arg(text: str) -> complex:
    try:
        return parse_complex(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _char_arg(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(
            f"expected two comma-separated reals, got {text!r}"
        )
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad characteristics {text!r}") from None


# options whose value can start with '-': argparse reads any such token
# that is not a plain negative number ('-0.5+0.1i', '-0.25,0.5') as an option
_LITERAL_OPTIONS = {"--u": parse_complex, "--tau": parse_complex, "--char": _char_arg}


def _attach_literals(argv: list[str]) -> list[str]:
    """argv with '--u -0.5+0.1i' written as '--u=-0.5+0.1i' where the value
    parses as that option's literal; any other value, or a missing one,
    reaches argparse as it was and gets argparse's own usage error."""
    out = []
    tokens = iter(argv)
    for token in tokens:
        parse = _LITERAL_OPTIONS.get(token)
        value = None if parse is None else next(tokens, None)
        if value is None:
            out.append(token)
            continue
        try:
            parse(value)
        except (ValueError, argparse.ArgumentTypeError):
            out += [token, value]
        else:
            out.append(f"{token}={value}")
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thetakit",
        description="Jacobi theta functions: evaluation, reduction, identity verification.",
    )
    parser.add_argument("--version", action="version", version=f"thetakit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a theta function")
    which = p_eval.add_mutually_exclusive_group(required=True)
    which.add_argument("--r", type=int, choices=(1, 2, 3, 4), help="theta index")
    which.add_argument(
        "--char", type=_char_arg, metavar="A,B", help="characteristics a,b"
    )
    p_eval.add_argument("--u", type=_complex_arg, default=0j, metavar="COMPLEX")
    p_eval.add_argument("--tau", type=_complex_arg, required=True, metavar="COMPLEX")
    p_eval.add_argument(
        "--product", action="store_true", help="also evaluate the product form"
    )
    p_eval.add_argument(
        "--big-theta", action="store_true", help="elliptic-integral normalization"
    )
    p_eval.add_argument("--json", action="store_true", help="JSON output")

    p_verify = sub.add_parser("verify", help="verify catalog identities")
    sel = p_verify.add_mutually_exclusive_group(required=True)
    sel.add_argument("--id", action="append", dest="ids", metavar="ID")
    sel.add_argument("--all", action="store_true")
    p_verify.add_argument("--trials", type=int, default=200)
    p_verify.add_argument("--seed", type=int, default=42)
    p_verify.add_argument("--tol", type=float, default=1e-9)
    p_verify.add_argument(
        "--stress", action="store_true", help="low-Im-tau sampling box"
    )
    p_verify.add_argument("--json", metavar="PATH", help="write the JSON report here")

    p_cat = sub.add_parser("catalog", help="print the identity catalog as TSV")
    p_cat.add_argument("--out", metavar="PATH", help="write to a file instead")

    p_zeros = sub.add_parser("zeros", help="enumerate lattice zeros")
    p_zeros.add_argument("--r", type=int, choices=(1, 2, 3, 4), required=True)
    p_zeros.add_argument("--tau", type=_complex_arg, required=True, metavar="COMPLEX")
    p_zeros.add_argument("--nmax", type=int, default=1)
    p_zeros.add_argument("--mmax", type=int, default=1)

    p_red = sub.add_parser("reduce", help="reduce (u, tau) to the fast regime")
    p_red.add_argument("--tau", type=_complex_arg, required=True, metavar="COMPLEX")
    p_red.add_argument("--u", type=_complex_arg, metavar="COMPLEX")
    p_red.add_argument("--r", type=int, choices=(1, 2, 3, 4), default=1)
    return parser


def _modular(tau: complex, flag: str) -> ModularParameter:
    try:
        return ModularParameter(tau)
    except ValueError as exc:
        raise SystemExit(_usage_error(f"{flag}: {exc}"))


def _usage_error(message: str) -> int:
    print(f"thetakit: error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _check_finite(name: str, z: complex) -> None:
    """ValueError for an inf or nan result: never printed with exit 0."""
    if not cmath.isfinite(z):
        raise ValueError(f"the {name} leaves the double range: {format_complex(z)}")


def _cmd_eval(args) -> int:
    tau = _modular(args.tau, "--tau")
    out: dict = {"tau": format_complex(tau.tau), "u": format_complex(args.u)}
    if args.char is not None and args.big_theta:
        return _usage_error("--big-theta needs --r, not --char")
    if args.product and (args.char is not None or args.big_theta):
        return _usage_error("--product needs plain --r, not --char or --big-theta")
    try:
        if args.char is not None:
            a, b = args.char
            value = theta_char(Characteristics(a, b), args.u, tau)
            out["char"] = [a, b]
        else:
            evaluate = big_theta if args.big_theta else eval_reduced
            value = evaluate(args.r, args.u, tau)
            out["r"] = args.r
        _check_finite("value", value)
        out["value"] = format_complex(value)
        if args.product:
            product = eval_reduced_product(args.r, args.u, tau)
            _check_finite("product", product)
            out["series"] = format_complex(value)
            out["product"] = format_complex(product)
            out["difference"] = abs(value - product)
    except ValueError as exc:  # e.g. an Im(tau) too small, a u too large to reduce, an inf value
        return _usage_error(str(exc))
    if args.json:
        print(json.dumps(out, sort_keys=True))
    else:
        print(out["value"])
        if args.product:
            print(f"product    {out['product']}")
            print(f"difference {out['difference']:.3e}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.trials < 1:
        return _usage_error("--trials must be >= 1")
    if not 0.0 < args.tol < math.inf:
        return _usage_error("--tol must be finite and positive")
    by_id = {ident.id: ident for ident in builtin_catalog()}
    ids = list(by_id) if args.all else args.ids
    unknown = next((ident for ident in ids if ident not in by_id), None)
    if unknown is not None:
        print(f"thetakit: error: unknown identity id {unknown!r}", file=sys.stderr)
        return EXIT_UNKNOWN_ID
    if args.json:
        try:  # before the run, so a bad PATH fails at once; "a" truncates nothing yet
            report_file = open(args.json, "a", encoding="utf-8")
        except OSError as exc:  # exit 2, not 1: 1 means an identity failed
            return _usage_error(f"cannot write {args.json}: {exc.strerror or exc}")
    box = STRESS_BOX if args.stress else DEFAULT_BOX
    started = time.perf_counter()
    reports = verify(ids, trials=args.trials, seed=args.seed, box=box, rel_tol=args.tol, catalog=by_id)
    wall_time = time.perf_counter() - started

    # the JSON report leaves out the wall time, so identical runs are byte-identical
    rows = [
        {"id": report.identity_id, "trials": report.trials, "seed": args.seed,
         "max_abs": report.max_abs_residual, "max_rel": report.max_rel_residual,
         "status": "pass" if report.max_rel_residual <= args.tol else "fail"}
        for report in reports
    ]
    sys.stdout.write("".join(  # the per-id lines in one write
        f"{'pass' if row['status'] == 'pass' else 'FAIL'}  {row['id']:<14} trials={row['trials']} "
        f"max_rel={row['max_rel']:.3e} max_abs={row['max_abs']:.3e}\n"
        for row in rows
    ))
    all_pass = all(row["status"] == "pass" for row in rows)
    print(
        f"# {len(rows)} identities, seed={args.seed}, trials={args.trials}, "
        f"tol={args.tol:g}, {'all pass' if all_pass else 'FAILURES PRESENT'} "
        f"({wall_time:.2f}s)"
    )

    if args.json:
        payload = {
            "version": __version__,
            "command": "verify",
            "seed": args.seed,
            "trials": args.trials,
            "tol": args.tol,
            "stress": bool(args.stress),
            "all_pass": all_pass,
            "reports": rows,
        }
        try:
            with report_file:
                report_file.truncate(0)
                report_file.write(_report_json(payload) + "\n")  # one write, not json.dump's chunks
        except OSError as exc:
            return _usage_error(f"cannot write {args.json}: {exc.strerror or exc}")
    return EXIT_OK if all_pass else EXIT_VERIFY_FAIL


def _report_json(payload: dict) -> str:
    """json.dumps(payload, indent=2, sort_keys=True) for verify's report: scalars
    and one list of flat dicts.  indent=None lets json use its C encoder."""
    rows = json.dumps(payload["reports"], sort_keys=True, separators=(",\n      ", ": "))
    if rows != "[]":  # between rows a separator follows "}", within one it never does
        rows = "[\n    {\n      " + rows[2:-2].replace("},\n      {", "\n    },\n    {\n      ") + "\n    }\n  ]"
    head = json.dumps({**payload, "reports": 0}, sort_keys=True, separators=(",\n  ", ": "))
    return "{\n  " + head[1:-1].replace('"reports": 0', '"reports": ' + rows, 1) + "\n}"


def _cmd_catalog(args) -> int:
    text = catalog_tsv() + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            return _usage_error(f"cannot write {args.out}: {exc.strerror or exc}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_zeros(args) -> int:
    tau = _modular(args.tau, "--tau")
    if args.nmax < 0 or args.mmax < 0:
        return _usage_error("--nmax and --mmax must be >= 0")
    n_range = range(-args.nmax, args.nmax + 1)
    m_range = range(-args.mmax, args.mmax + 1)
    for z in zeros_of(args.r, tau, n_range, m_range):
        print(format_complex(z))
    return EXIT_OK


def _cmd_reduce(args) -> int:
    tau = _modular(args.tau, "--tau")
    try:
        reduced, word = reduce_tau(tau)
    except ValueError as exc:
        return _usage_error(f"--tau: {exc}")
    try:
        record = None if args.u is None else full_reduction(args.r, args.u, tau)
    except ValueError as exc:
        return _usage_error(f"--u: {exc}")
    tokens = ("S" if k is ModularStep.S else "T" if k == 1 else f"T^{k}" for k in word)
    word_text = " ".join(tokens) if word else "(none)"
    print(f"word       {word_text}")
    print(f"tau'       {format_complex(reduced.tau)}")
    if record is not None:
        print(f"u'         {format_complex(record.new_u)}")
        print(f"index      {args.r} -> {record.map_index(args.r)}")
        print(f"log_mult   {format_complex(record.log_multiplier)}")
    return EXIT_OK


_COMMANDS = {
    "eval": _cmd_eval,
    "verify": _cmd_verify,
    "catalog": _cmd_catalog,
    "zeros": _cmd_zeros,
    "reduce": _cmd_reduce,
}


_parser = None  # built by the first main() call and reused: parse_args leaves it as it was


def main(argv=None) -> int:
    global _parser
    _parser = _parser or _build_parser()
    args = _parser.parse_args(_attach_literals(sys.argv[1:] if argv is None else list(argv)))
    try:
        return _COMMANDS[args.command](args)
    except SystemExit as exc:  # raised by _modular with a code
        return int(exc.code) if exc.code is not None else EXIT_USAGE


def app() -> None:
    """Console-script entry point."""
    raise SystemExit(main())


if __name__ == "__main__":
    app()
