"""Command-line front end.

Subcommands:
  eval    one momentum form at a single p, printed as a CSV record
  table   a form over a momentum grid, CSV with header p,re,im,abs2
  plot    unnormalized PP/LO densities over a grid, CSV with header p,density
  verify  run the verification suites at --hbar-beta, JSON report

Exit codes: 0 success/pass, 1 verification failure, 2 usage error (a
grid too large to allocate, a value that overflows and a flag that is
not spelled in full included), 3 I/O error.  All floating values are
emitted with 17 significant digits and a dot decimal separator, and
all must be finite.  `table` and `plot` evaluate their whole grid in
one call of the array-valued forms.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .forms import FORM_EVALUATORS, distribution_max_l
from .hydrogenic import PhysicalScale, QuantumState
from .verification import SUITES, run_all

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3

# Rows %-formatted per write: bounds the text held at once for a large table.
CSV_BLOCK_ROWS = 4096


class UsageError(Exception):
    pass


def _require_finite(**flags) -> None:
    for name, value in flags.items():
        if not math.isfinite(value):
            raise UsageError(f"--{name} must be finite, got {value}")


def _usage_checked(function, *args, **kwargs):
    """function(*args, **kwargs), with its ValueError, an argument outside
    its domain, and its OverflowError, a result outside double range,
    reported as a usage error."""
    try:
        return function(*args, **kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    except OverflowError as exc:
        raise UsageError(f"a value overflows double precision: {exc}") from exc


def _scale_from_args(args) -> PhysicalScale:
    if not 0 < args.hbar < math.inf:
        raise UsageError(f"--hbar must be positive and finite, got {args.hbar}")
    return _usage_checked(PhysicalScale, hbar=args.hbar, beta=args.hbar_beta / args.hbar)


def _add_scale_flags(parser: argparse.ArgumentParser, hbar: bool) -> None:
    """--hbar-beta, and --hbar where the output depends on it (else hbar = 1)."""
    parser.add_argument("--hbar-beta", type=float, default=1.0,
                        help="momentum scale hbar*beta (default 1)")
    if hbar:
        parser.add_argument("--hbar", type=float, default=1.0,
                            help="action unit hbar (default 1)")
    else:
        parser.set_defaults(hbar=1.0)


def _state_from_args(args) -> QuantumState:
    return _usage_checked(QuantumState, args.N, args.l, _scale_from_args(args))


def _write_lines(path, chunks) -> None:
    """Write the text `chunks`, each ending in a newline, to `path` or stdout."""
    if path is None:
        sys.stdout.writelines(chunks)
    else:
        with open(path, "w", encoding="ascii", newline="\n") as handle:
            handle.writelines(chunks)


def _write_csv(path, header, columns) -> None:
    """Write `header` (unless None), then one row per entry of the
    equal-length float `columns`, every value with 17 significant digits;
    if any value is not finite, raise UsageError before writing anything."""
    rows = np.array(columns).T.reshape(-1, len(columns))
    if not np.isfinite(rows).all():
        raise UsageError("a value overflows double precision (inf or nan); nothing written")
    row = ",".join(["%.17g"] * len(columns)) + "\n"

    def text():
        if header is not None:
            yield header + "\n"
        for start in range(0, len(rows), CSV_BLOCK_ROWS):
            block = rows[start:start + CSV_BLOCK_ROWS]
            yield row * len(block) % tuple(block.ravel().tolist())

    _write_lines(path, text())


def _complex_columns(p, values) -> list:
    """The p,re,im,abs2 columns of complex `values` at momenta `p`."""
    # np.hypot is bit for bit Python's abs(complex); np.abs of a complex is not.
    modulus = np.hypot(values.real, values.imag)
    # abs2 overflows to inf where |value| > 1.3e154, which _write_csv refuses.
    with np.errstate(over="ignore"):
        return [p, values.real, values.imag, modulus * modulus]


def cmd_eval(args) -> int:
    _require_finite(p=args.p)
    state = _state_from_args(args)
    value = _usage_checked(FORM_EVALUATORS[args.form], state, args.p)
    _write_csv(args.output, None, _complex_columns(args.p, value))
    return EXIT_OK


def _grid_from_args(args) -> np.ndarray:
    if args.count < 2:
        raise UsageError("grid needs --count >= 2")
    _require_finite(pmin=args.pmin, pmax=args.pmax)
    if not args.pmin < args.pmax:
        raise UsageError("grid needs --pmin < --pmax")
    return np.linspace(args.pmin, args.pmax, args.count)


def cmd_table(args) -> int:
    state = _state_from_args(args)
    grid = _grid_from_args(args)
    values = _usage_checked(FORM_EVALUATORS[args.form], state, grid)
    _write_csv(args.output, "p,re,im,abs2", _complex_columns(grid, values))
    return EXIT_OK


def cmd_plot(args) -> int:
    if args.count < 2:
        raise UsageError("grid needs --count >= 2")
    scale = _scale_from_args(args)
    pmax = args.pmax if args.pmax is not None else 5.0 * scale.momentum
    _require_finite(pmax=pmax)
    pmin = 0.0 if args.form == "PP" else -pmax
    grid = np.linspace(pmin, pmax, args.count)
    density = _usage_checked(distribution_max_l, args.form, args.N, grid, scale)
    _write_csv(args.output, "p,density", [grid, density])
    return EXIT_OK


def cmd_verify(args) -> int:
    report = run_all(_scale_from_args(args), args.suite)
    _write_lines(args.output, [report.to_json() + "\n"])
    return EXIT_OK if report.overall_pass else EXIT_VERIFY_FAILED


_parser: argparse.ArgumentParser | None = None


def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser: built on the first call in a process, the same
    instance on every later call.  Sharing it is safe, because each
    `parse_args` fills a fresh Namespace and argparse looks up sys.stdout
    and sys.stderr only when it prints."""
    global _parser
    if _parser is not None:
        return _parser
    parser = argparse.ArgumentParser(
        prog="hmomentum", allow_abbrev=False,
        description="Hydrogen radial wave functions in the momentum representation")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", allow_abbrev=False, help="evaluate one form at a single p")
    p_eval.add_argument("form", choices=sorted(FORM_EVALUATORS))
    p_eval.add_argument("N", type=int)
    p_eval.add_argument("l", type=int)
    p_eval.add_argument("--p", type=float, required=True)
    p_eval.add_argument("--output", default=None)
    _add_scale_flags(p_eval, hbar=True)

    p_table = sub.add_parser("table", allow_abbrev=False, help="tabulate a form over a grid")
    p_table.add_argument("form", choices=sorted(FORM_EVALUATORS))
    p_table.add_argument("N", type=int)
    p_table.add_argument("l", type=int)
    p_table.add_argument("--pmin", type=float, required=True)
    p_table.add_argument("--pmax", type=float, required=True)
    p_table.add_argument("--count", type=int, default=101)
    p_table.add_argument("--output", default=None)
    _add_scale_flags(p_table, hbar=True)

    p_plot = sub.add_parser("plot", allow_abbrev=False, help="emit PP/LO density data")
    p_plot.add_argument("form", choices=["PP", "LO"])
    p_plot.add_argument("N", type=int)
    p_plot.add_argument("--pmax", type=float, default=None)
    p_plot.add_argument("--count", type=int, default=201)
    p_plot.add_argument("--output", default=None)
    _add_scale_flags(p_plot, hbar=False)

    p_verify = sub.add_parser("verify", allow_abbrev=False, help="run the verification suites")
    p_verify.add_argument("--suite", action="append", choices=sorted(SUITES),
                          help="suite to run (repeatable; default all)")
    p_verify.add_argument("--output", default=None)
    _add_scale_flags(p_verify, hbar=False)

    _parser = parser
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Looked up on every call, not stored in the shared parser, so that a
    # cmd_* replaced after the first call (by a tracer, say) is the one run.
    commands = {"eval": cmd_eval, "table": cmd_table, "plot": cmd_plot,
                "verify": cmd_verify}
    try:
        return commands[args.command](args)
    except (UsageError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
