"""Command-line interface: one binary, subcommands for each computation.

Exit codes: 0 success, 1 a verification or cross-check failed, 2 usage or
input errors (bad letters, out-of-range sizes, oracle cap). The `tlbraid`
process, unlike main(argv) run in process, dies of SIGPIPE when a reader
such as `head` closes its output early, as other filters do (status 141 in
a shell). All output is deterministic: the same invocation always produces
the same bytes.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import signal
import sys

from .bracket import (
    bracket_state_sum,
    bracket_via_tl,
    jones_polynomial,
    writhe_normalize,
)
from .braid import parse_braid
from .fibrep import (
    braid_generator_matrix,
    fib_dim,
    fibonacci_params,
    make_params,
    tl_generator_matrix,
    verify_model,
)
from .laurent import format_jones
from .tl import verify_relations

# Each table row recomputes its dimension, so the table costs O(max^2)
# big-int additions; f_1001 already has 210 digits.
DIMS_MAX_N = 1000

# a numerator, when given, has a digit: ".pi" is no pi literal
_PHASE_RE = re.compile(
    r"^([+-]?(?:\d+\.?\d*|\.\d+)?)\s*\*?\s*pi\s*(?:/\s*(\d+\.?\d*))?$",
    re.IGNORECASE,
)


def parse_phase(text: str) -> float:
    """Accept decimal radians or literal multiples of pi like 3pi/5, -pi/2.

    Raises ValueError for anything else, a zero denominator, or a phase
    that is not finite (nan, inf, or a literal that overflows).
    """
    s = text.strip()
    m = _PHASE_RE.match(s)
    if m:
        num_text, den_text = m.group(1), m.group(2)
        if num_text in ("", "+"):
            num = 1.0
        elif num_text == "-":
            num = -1.0
        else:
            num = float(num_text)
        den = float(den_text) if den_text else 1.0
        if den == 0:
            raise ValueError(f"bad phase {text!r}: zero denominator")
        theta = num * math.pi / den
    else:
        try:
            theta = float(s)
        except ValueError:
            raise ValueError(
                f"bad phase {text!r}: use radians or a pi literal"
            ) from None
    if not math.isfinite(theta):
        raise ValueError(f"bad phase {text!r}: phase must be finite")
    return theta


def _fmt_float(x: float) -> str:
    s = f"{x:.12g}"
    return "0" if s == "-0" else s


def _fmt_complex(z: complex) -> str:
    re_part = _fmt_float(z.real)
    im_part = _fmt_float(abs(z.imag))
    sign = "-" if z.imag < 0 else "+"
    return f"{re_part}{sign}{im_part}j"


def _emit(args, record: dict, lines) -> None:
    """Print a command's record as strict JSON under --json, else its text
    lines; a generator of lines is only run for the text."""
    print(json.dumps(record, allow_nan=False) if args.json else "\n".join(lines))


def _params_from_args(args):
    phase = parse_phase(args.phase) if args.phase is not None else None
    if args.delta is not None:
        return make_params(args.delta, phase)
    return fibonacci_params(-1 if args.delta_sign == "-" else 1, phase)


def cmd_bracket(args) -> int:
    word = parse_braid(args.word, args.strands)
    # the oracle first: it refuses a word past its letter cap before any work
    polys = [bracket_state_sum(word)] if args.both or args.oracle else []
    if args.both or not args.oracle:
        polys.append(bracket_via_tl(word))
    poly = polys[-1]
    if args.normalized:
        poly = writhe_normalize(word, poly)
    record = {**word.to_json(), "variable": "A", "terms": poly.to_json()}
    _emit(args, record, [str(poly)])
    if polys[0] != polys[-1]:  # two routes ran only under --both
        print(
            "cross-check FAILED: state sum disagrees with the algebra trace",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_jones(args) -> int:
    word = parse_braid(args.word, args.strands)
    poly = jones_polynomial(word)
    record = {**word.to_json(), "variable": "q", "terms": poly.to_json()}
    _emit(args, record, [format_jones(poly)])
    return 0


def cmd_eval(args) -> int:
    word = parse_braid(args.word, args.strands)
    theta = parse_phase(args.phase)
    poly = bracket_via_tl(word)
    if args.normalized:
        poly = writhe_normalize(word, poly)
    value = poly.evaluate_phase(theta)
    record = {**word.to_json(), "phase": theta, "value": [value.real, value.imag]}
    _emit(args, record, [_fmt_complex(value)])
    return 0


def cmd_dims(args) -> int:
    if not 1 <= args.max <= DIMS_MAX_N:
        raise ValueError(f"--max must be in 1..{DIMS_MAX_N}")
    for n in range(1, args.max + 1):
        print(f"{n} {fib_dim(n)}")
    return 0


def cmd_fib_matrix(args) -> int:
    params = _params_from_args(args)
    make = braid_generator_matrix if args.braid else tl_generator_matrix
    # plain Python numbers format and list far faster than numpy scalars
    rows = make(args.n, args.gen, params).tolist()
    record = {
        "n": args.n,
        "generator": args.gen,
        "kind": "braid" if args.braid else "tl",
        "dim": len(rows),
        "entries": [[v.real, v.imag] for row in rows for v in row],
    }
    fmt = _fmt_complex if args.braid else _fmt_float
    _emit(args, record, (" ".join(fmt(v) for v in row) for row in rows))
    return 0


def _print_report(report, args) -> int:
    """Print a VerifyReport, as text or JSON; return its exit code.

    An exact report (tol None) shows exact or differs in the residual column.
    """
    exact = report.tol is None
    lines = []
    for c in report.checks:
        shown = ("exact" if c.passed else "differs") if exact else f"{c.residual:.3e}"
        lines.append(f"{c.name:<48} {shown:>12}  {'PASS' if c.passed else 'FAIL'}")
    failed = sum(1 for c in report.checks if not c.passed)
    if exact:
        summary = "some relations FAILED" if failed else "all relations hold exactly"
    elif failed:
        summary = f"{failed} relation(s) FAILED at tol {report.tol:g}"
    else:
        summary = f"all relations hold at tol {report.tol:g}"
    record = {
        "n": report.n,
        "delta": report.delta,
        "tol": report.tol,
        "passed": report.passed,
        # a non-finite residual has no JSON number, so it is null
        "checks": [
            {
                "name": c.name,
                "residual": c.residual if math.isfinite(c.residual) else None,
                "passed": c.passed,
            }
            for c in report.checks
        ],
    }
    _emit(args, record, [*lines, summary])
    return 1 if failed else 0


def cmd_fib_verify(args) -> int:
    # without --tol, verify_model's own default applies
    tol = {} if args.tol is None else {"tol": args.tol}
    report = verify_model(args.n, _params_from_args(args), **tol)
    return _print_report(report, args)


def cmd_verify(args) -> int:
    return _print_report(verify_relations(args.n), args)


def _add_braid_args(sub):
    sub.add_argument("--strands", type=int, required=True, help="strand count")
    sub.add_argument(
        "--word",
        type=str,
        required=True,
        help="letters, whitespace or comma separated; empty for the identity",
    )


def _add_params_args(sub):
    loop_value = sub.add_mutually_exclusive_group()
    loop_value.add_argument(
        "--delta-sign",
        choices=["+", "-"],
        help="sign of the golden-ratio loop value (default +)",
    )
    loop_value.add_argument("--delta", type=float, help="explicit loop value")
    sub.add_argument(
        "--phase", help="bracket phase in radians or a pi literal like 3pi/5"
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on first use and shared by every later call.

    Parsing leaves the parser unchanged: each call gets a fresh Namespace,
    and usage errors and --help write to the sys.stderr and sys.stdout of
    that moment.
    """
    parser = argparse.ArgumentParser(
        prog="tlbraid",
        description="Exact bracket/Jones polynomials of braid closures and "
        "the golden-ratio braid representation.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("bracket", help="bracket polynomial of a braid closure")
    _add_braid_args(p)
    p.add_argument("--normalized", action="store_true", help="writhe-normalized")
    p.add_argument(
        "--oracle", action="store_true", help="use the 2^N smoothing enumeration"
    )
    p.add_argument(
        "--both",
        action="store_true",
        help="run both evaluators; exit 1 if they disagree",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_bracket)

    p = commands.add_parser("jones", help="Jones polynomial of a braid closure")
    _add_braid_args(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_jones)

    p = commands.add_parser("eval", help="evaluate a bracket at A = e^(i*theta)")
    _add_braid_args(p)
    p.add_argument("--phase", type=str, required=True)
    p.add_argument("--normalized", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_eval)

    p = commands.add_parser("dims", help="sequence-space dimension table")
    p.add_argument("--max", type=int, required=True)
    p.set_defaults(func=cmd_dims)

    p = commands.add_parser("fib-matrix", help="one generator matrix, printed")
    p.add_argument("--n", type=int, required=True, help="sequence length")
    p.add_argument("--gen", type=int, required=True, help="generator index i")
    p.add_argument(
        "--braid", action="store_true", help="braid generator instead of U_i"
    )
    _add_params_args(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_fib_matrix)

    p = commands.add_parser("fib-verify", help="relation suite on the sequence space")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tol", type=float)
    _add_params_args(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_fib_verify)

    p = commands.add_parser("verify", help="exact Temperley-Lieb relation suite")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    # main reports a stray option with the usage of the chosen command.
    # argparse reads a token that names no option as a value where its
    # negative-number rule matches; each command widens that rule to every
    # token that starts with one "-" (-pi/2, -1,-2, -1e-3). It is set once
    # every option exists; add_argument checks each option by its group's
    # plain rule, and one named like -1 would switch the rule off.
    for p in commands.choices.values():
        p.set_defaults(parser=p)
        p._negative_number_matcher = re.compile(r"-(?!-)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args, stray = parser.parse_known_args(argv)
        # Python 3.10-3.12 drop the "--" of "--opt=--" and store []; no
        # option here has a list value, so [] is always that dropped value
        for dest, value in vars(args).items():
            if value == []:
                option = "--" + dest.replace("_", "-")
                args.parser.error(f"argument {option}: expected one argument")
        if stray:
            args.parser.error(f"unrecognized arguments: {' '.join(stray)}")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint():
    if hasattr(signal, "SIGPIPE"):  # no traceback when `| head` stops reading
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
