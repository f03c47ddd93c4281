"""Command-line front end.

Subcommands: qgenus (print the Chern-class polynomial tables), mzv
(evaluate one multiple zeta value), stuffle (multiply two words), verify
(run the self-check suites).  Data goes to stdout, diagnostics to stderr.
The front end parses, and the library's validators (words.check_word,
zetaring.check_convergent_composition) check the input and word its errors.
Two checks stay here because they are about the command, not one value:
qgenus checks --max against DEGREE_BUDGET before it prints any degree, so
an out-of-range --max prints no partial table, and mzv checks --tol before
the composition, so a nonpositive tolerance is a usage error (exit 2)
naming the option even when the composition diverges.

Each command imports the modules it runs inside its own function, so that
every fresh process pays only for its command: importing this module loads
no other package module, qgenus loads genus and render (with --cy too),
mzv numeric, stuffle words, verify all of them; json is imported only for
--format json.

Exit codes: 0 success, 1 verification failure, 2 usage or budget errors,
3 divergent MZV request, 4 internal error (any uncaught exception, such as
MemoryError, reported as one line on stderr).  A stdout closed by its
reader (`gammagenus qgenus --max 12 | head -1`) is not an error: the
command stops writing and exits 0 with nothing on stderr.
"""

from __future__ import annotations

import argparse
import os
import sys

# verify.SUITES, spelled out so that parsing the command line does not
# import the checks (a test keeps the two equal)
SUITES = ("symbolic", "words", "numeric")

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_DIVERGENT = 3
EXIT_INTERNAL = 4


def _parse_word(text: str):
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(piece) for piece in text.split(","))
    except ValueError:
        raise ValueError(f"cannot parse word {text!r}: use comma-separated integers")


def _print_json(data, indent=None) -> None:
    import json

    print(json.dumps(data, indent=indent, sort_keys=True))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gammagenus",
        description=(
            "Chern-class polynomials of the 1/Gamma(1+z) multiplicative "
            "sequence, with multiple-zeta-value coefficients"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    qgenus = sub.add_parser(
        "qgenus", help="print Q_1..Q_N (or their c_1 = 0 specializations)"
    )
    qgenus.add_argument("--max", type=int, required=True, metavar="N")
    qgenus.add_argument(
        "--cy", action="store_true", help="restrict to c_1 = 0 (no part-1 partitions)"
    )
    qgenus.add_argument("--format", choices=("text", "json"), default="text")
    qgenus.add_argument(
        "--ascii", action="store_true", help="spell gamma/pi/zeta without Unicode"
    )

    mzv_cmd = sub.add_parser("mzv", help="evaluate one multiple zeta value")
    mzv_cmd.add_argument(
        "--args", required=True, metavar="I1,I2,...", help="composition, e.g. 6,2"
    )
    mzv_cmd.add_argument("--tol", type=float, default=1e-6)
    mzv_cmd.add_argument("--format", choices=("text", "json"), default="text")

    stuffle_cmd = sub.add_parser("stuffle", help="stuffle product of two words")
    stuffle_cmd.add_argument("--left", required=True, metavar="W1")
    stuffle_cmd.add_argument("--right", required=True, metavar="W2")
    stuffle_cmd.add_argument("--format", choices=("text", "json"), default="text")

    verify_cmd = sub.add_parser("verify", help="run the self-check suites")
    verify_cmd.add_argument("--suite", required=True, choices=("all",) + SUITES)
    verify_cmd.add_argument("--format", choices=("text", "json"), default="text")

    return parser


def cmd_qgenus(opts) -> int:
    from .genus import (
        DEGREE_BUDGET,
        cy_genus_to_json,
        genus_to_json,
        q_genus,
        q_genus_cy,
    )
    from .render import ASCII, format_cy_genus_line, format_genus_line

    if opts.cy:
        lo, genus, to_json, line = 2, q_genus_cy, cy_genus_to_json, format_cy_genus_line
    else:
        lo, genus, to_json, line = 1, q_genus, genus_to_json, format_genus_line
    if opts.max < lo or opts.max > DEGREE_BUDGET:
        print(
            f"qgenus: --max must be between {lo} and {DEGREE_BUDGET}"
            + (" with --cy" if opts.cy else ""),
            file=sys.stderr,
        )
        return EXIT_USAGE
    if opts.format == "json":
        import json

        # One degree at a time, byte for byte what json.dumps(list, indent=2)
        # prints, so only one degree's objects are alive at once.
        sep = "[\n  "
        for i in range(lo, opts.max + 1):
            text = json.dumps(to_json(genus(i)), indent=2, sort_keys=True)
            sys.stdout.write(sep + text.replace("\n", "\n  "))
            sep = ",\n  "
        sys.stdout.write("\n]\n")
        return EXIT_OK
    for i in range(lo, opts.max + 1):
        text = line(genus(i))
        print(text.translate(ASCII) if opts.ascii else text)
    return EXIT_OK


def cmd_mzv(opts) -> int:
    from .numeric import CutoffBudgetError, DivergentMzvError, mzv
    from .render import format_bounded
    from .zetaring import check_convergent_composition, mzv_label

    if not opts.tol > 0:
        print("mzv: --tol must be positive", file=sys.stderr)
        return EXIT_USAGE
    try:
        comp = check_convergent_composition(_parse_word(opts.args))
    except ValueError as exc:
        print(f"mzv: {exc}", file=sys.stderr)
        return EXIT_DIVERGENT if isinstance(exc, DivergentMzvError) else EXIT_USAGE
    try:
        value = mzv(comp, opts.tol)
    except CutoffBudgetError as exc:
        print(f"mzv: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if opts.format == "json":
        _print_json(value.to_json())
    else:
        print(f"{mzv_label(comp)} = {format_bounded(value)}")
    return EXIT_OK


def cmd_stuffle(opts) -> int:
    from .render import format_qsym
    from .words import QsymPoly, qsym_to_json, stuffle

    try:
        left = QsymPoly.from_word(_parse_word(opts.left))
        right = QsymPoly.from_word(_parse_word(opts.right))
        product = stuffle(left, right)  # ValueError past STUFFLE_BUDGET
    except ValueError as exc:
        print(f"stuffle: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if opts.format == "json":
        _print_json(qsym_to_json(product))
    else:
        print(format_qsym(product))
    return EXIT_OK


def cmd_verify(opts) -> int:
    from .verify import run_suite

    report = run_suite(opts.suite)
    if opts.format == "json":
        _print_json(report.to_json(), indent=2)
    else:
        print(f"suite: {report.suite}")
        for check in report.checks:
            marker = "PASS" if check.passed else "FAIL"
            line = f"[{marker}] {check.id}: {check.description}"
            print(line)
            if not check.passed:
                for field in ("expected", "actual", "bound"):
                    if value := getattr(check, field):
                        print(f"       {field + ':':<9} {value}")
        total = len(report.checks)
        good = sum(1 for c in report.checks if c.passed)
        print(f"{good}/{total} checks passed")
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def main(argv=None) -> int:
    # The CLI owns its process, and _dp_sum uses only ufuncs, never BLAS.
    # OpenBLAS reads this once, when numpy first loads; left at its default
    # it starts a worker that spins while numpy loads, and one that shares
    # the main thread's CPU slows a cold mzv or verify.  A value the user
    # set still wins.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = build_parser()
    opts = parser.parse_args(argv)
    command = {
        "qgenus": cmd_qgenus,
        "mzv": cmd_mzv,
        "stuffle": cmd_stuffle,
        "verify": cmd_verify,
    }[opts.command]
    try:
        code = command(opts)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader has gone (`| head -1`); send the exit flush to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except Exception as exc:
        print(
            f"gammagenus: internal error: {type(exc).__name__}: {exc}",
            file=sys.stderr,
        )
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
