"""Command-line front end.

Subcommands:
  eval    one momentum form at a single p, printed as a CSV record
  table   a form over a momentum grid, CSV with header p,re,im,abs2
  plot    unnormalized PP/LO densities over a grid, CSV with header p,density
  verify  run the verification suites at --hbar-beta, JSON report

Exit codes: 0 success/pass, 1 verification failure, 2 usage error (a
grid too large to allocate, a value that overflows and a flag that is
not spelled in full included), 3 I/O error.  All floating values are
emitted as '%.17g' formats them, and all must be finite; a usage error
for a value that is not (an inf past double precision, a NaN from an
intermediate out of range) names --hbar-beta, and the column and p where
it has them.  `table` and `plot` evaluate their whole grid in one call
and write its rows, a block at a time, with `_csv._format_block`.
Where argv[0] names a command and the rest is positionals and
`--flag=value` tokens, argv is read in one pass over that command's
parser's own tables (`_read`); every other argv is
build_parser().parse_args(argv) (`_parse`).  The grammar, help, usage
and error text are argparse's alone (`build_parser`).
numpy, `verification` and the CSV formatter `_csv` are lazy modules
(`_numpy`), run at their first use, so `eval` and every usage error run
only the closed forms; `table` and `plot` run numpy at their grid and
`_csv`, with `transform`, at their first CSV, and `verify` runs
`transform` and `verification` at its first suite.  verify's --suite
choices are `SUITE_NAMES`, so that building the parser runs no check.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys

from ._numpy import lazy, np
from .forms import FORM_EVALUATORS, MAX_SHAPE_N, distribution_max_l
from .hydrogenic import PhysicalScale, QuantumState

_csv = lazy(__package__ + "._csv")
verification = lazy(__package__ + ".verification")

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3

# Rows formatted per write: bounds the text and the formatter's
# temporaries (about 200 bytes a value) held at once for a large table.
# At 2048 rows of `table`'s 4 columns a float64 temporary takes 64 KiB;
# at 4096 rows (128 KiB) the formatter took about a quarter longer per value.
CSV_BLOCK_ROWS = 2048

COMPLEX_HEADER = "p,re,im,abs2"


class UsageError(Exception):
    pass


def _not_finite(header: str, row, hbar_beta: float) -> UsageError:
    """The usage error for a `row` of values named by `header`, p first,
    that holds a value that is not finite: it names the first such.  An
    inf is past double precision; a NaN is not, only an intermediate that
    left double range (a true 0 may read NaN)."""
    name, value = next((name, value) for name, value in zip(header.split(","), row)
                       if not math.isfinite(value))
    why = (": an intermediate left double range" if math.isnan(value)
           else ", past double precision")
    return UsageError(f"{name} is {value} at p={row[0]!r}{why} at "
                      f"--hbar-beta {hbar_beta!r}; nothing written")


def _require_finite(**flags) -> None:
    for name, value in flags.items():
        if not math.isfinite(value):
            raise UsageError(f"--{name} must be finite, got {value}")


def _usage_checked(function, *args, **kwargs):
    """function(*args, **kwargs), with its ValueError, an argument outside
    its domain, reported as a usage error.  (An OverflowError, a result
    outside double range, is reported by `main`.)"""
    try:
        return function(*args, **kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _scale_from_args(args) -> PhysicalScale:
    beta = args.hbar_beta / args.hbar if args.hbar else math.nan
    if not all(0 < value < math.inf for value in (args.hbar, args.hbar_beta, beta)):
        raise UsageError(f"--hbar, --hbar-beta and beta = --hbar-beta / --hbar must be positive "
                         f"and finite, got --hbar {args.hbar!r} --hbar-beta {args.hbar_beta!r}")
    return PhysicalScale(hbar=args.hbar, beta=beta)


def _add_common_flags(parser: argparse.ArgumentParser, hbar: bool) -> None:
    """The flags every command takes, after its own: --output, --hbar-beta,
    and --hbar where the output depends on it (else hbar = 1).  Each is a
    plain store action, which `_read` reads as --flag=value."""
    parser.add_argument("--output", default=None)
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


def _write_csv(path, header: str, columns, hbar_beta: float) -> None:
    """Write `header`, then one row per entry of the equal-length float
    `columns`, p first, every value as '%.17g' formats it; if any value is
    not finite, raise UsageError, naming the first, before writing anything."""
    bad = [int(np.argmin(finite)) for finite in map(np.isfinite, columns)
           if not finite.all()]
    if bad:
        raise _not_finite(header, [float(column[min(bad)]) for column in columns], hbar_beta)

    def text():
        yield header + "\n"
        for start in range(0, len(columns[0]), CSV_BLOCK_ROWS):
            stop = min(start + CSV_BLOCK_ROWS, len(columns[0]))
            block = np.empty((stop - start, len(columns)))
            for i, column in enumerate(columns):
                block[:, i] = column[start:stop]
            yield _csv._format_block(block)

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
    value = complex(_usage_checked(FORM_EVALUATORS[args.form], state, args.p))
    # The one record is formatted from Python floats: abs of a Python complex
    # is np.hypot bit for bit, as in _complex_columns, and its square is inf,
    # not an exception, where |value| > 1.3e154.
    modulus = abs(value)
    record = (args.p, value.real, value.imag, modulus * modulus)
    if not all(map(math.isfinite, record)):
        raise _not_finite(COMPLEX_HEADER, record, args.hbar_beta)
    _write_lines(args.output, ["%.17g,%.17g,%.17g,%.17g\n" % record])
    return EXIT_OK


def _grid(pmin: float, pmax: float, count: int) -> np.ndarray:
    """np.linspace(pmin, pmax, count), built on the quarters and scaled back
    in place, so that neither pmax - pmin nor its rounded multiples of the
    step overflow; bit for bit np.linspace's grid unless a quarter is
    subnormal."""
    if not 2 <= count <= sys.maxsize // 8:  # at most numpy's largest float64 array
        raise UsageError(f"grid needs 2 <= --count <= {sys.maxsize // 8}, got {count}")
    grid = np.linspace(pmin / 4.0, pmax / 4.0, count)
    grid *= 4.0
    return grid


def _grid_from_args(args) -> np.ndarray:
    _require_finite(pmin=args.pmin, pmax=args.pmax)
    if not args.pmin < args.pmax:
        raise UsageError("grid needs --pmin < --pmax")
    return _grid(args.pmin, args.pmax, args.count)


def cmd_table(args) -> int:
    state = _state_from_args(args)
    grid = _grid_from_args(args)
    values = _usage_checked(FORM_EVALUATORS[args.form], state, grid)
    _write_csv(args.output, COMPLEX_HEADER, _complex_columns(grid, values), args.hbar_beta)
    return EXIT_OK


def cmd_plot(args) -> int:
    scale = _scale_from_args(args)
    pmax = args.pmax if args.pmax is not None else 5.0 * scale.momentum
    if args.pmax is None and pmax == math.inf:
        raise UsageError(f"the default --pmax, 5 --hbar-beta, is past double precision "
                         f"at --hbar-beta {args.hbar_beta!r}; give --pmax")
    _require_finite(pmax=pmax)
    if not pmax > 0:
        raise UsageError("grid needs --pmax > 0")
    grid = _grid(0.0 if args.form == "PP" else -pmax, pmax, args.count)
    try:
        density = distribution_max_l(args.form, args.N, grid, scale)
    except ValueError as exc:  # N out of range, or else the shape past double precision
        raise UsageError(exc if not 1 <= args.N <= MAX_SHAPE_N else f"the {args.form} density "
                         f"of N={args.N} overflows double precision at --hbar-beta "
                         f"{args.hbar_beta!r}") from exc
    _write_csv(args.output, "p,density", [grid, density], args.hbar_beta)
    return EXIT_OK


def cmd_verify(args) -> int:
    report = verification.run_all(_scale_from_args(args), args.suite)
    _write_lines(args.output, [report.to_json() + "\n"])
    return EXIT_OK if report.overall_pass else EXIT_VERIFY_FAILED


# The names of `verification.SUITES`, sorted, as verify's --suite choices:
# argparse reads them where the parser is built, which `eval` builds too.
SUITE_NAMES = ("form_equivalence", "lo_proportionality", "parseval_diagonalization",
               "pp_vs_hankel", "quadrature", "so4_constancy", "uncertainty")
# Each command's own parser, the `add_parser` objects of `build_parser()`, by name.
_command_parsers: dict = {}
# What a command's parser reads as a negative number, not an option: every
# negative float literal, exponent form and -inf included.  argparse's own
# pattern takes only -1 and -1.5, and reads "-1e-05" as an option.
_NEGATIVE_NUMBER = re.compile(r"-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|-(inf|infinity|nan)$",
                              re.IGNORECASE)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser: built on the first call in a process, the same
    instance on every later call, with its commands' parsers kept in
    `_command_parsers`.  Sharing them is safe, because each parse fills a
    fresh Namespace and argparse looks up sys.stdout and sys.stderr only
    when it prints.  `_parse` reads a command's argv from these tables
    where it is spelled as positionals and `--flag=value` (`_read`), and
    hands any other argv to this parser's parse_args."""
    global _command_parsers
    parser = argparse.ArgumentParser(
        prog="hmomentum", allow_abbrev=False,
        description="Hydrogen radial wave functions in the momentum representation")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", allow_abbrev=False, help="evaluate one form at a single p")
    p_eval.add_argument("form", choices=sorted(FORM_EVALUATORS))
    p_eval.add_argument("N", type=int)
    p_eval.add_argument("l", type=int)
    p_eval.add_argument("--p", type=float, required=True)
    _add_common_flags(p_eval, hbar=True)

    p_table = sub.add_parser("table", allow_abbrev=False, help="tabulate a form over a grid")
    p_table.add_argument("form", choices=sorted(FORM_EVALUATORS))
    p_table.add_argument("N", type=int)
    p_table.add_argument("l", type=int)
    p_table.add_argument("--pmin", type=float, required=True)
    p_table.add_argument("--pmax", type=float, required=True)
    p_table.add_argument("--count", type=int, default=101)
    _add_common_flags(p_table, hbar=True)

    p_plot = sub.add_parser("plot", allow_abbrev=False, help="emit PP/LO density data")
    p_plot.add_argument("form", choices=["PP", "LO"])
    p_plot.add_argument("N", type=int)
    p_plot.add_argument("--pmax", type=float, default=None)
    p_plot.add_argument("--count", type=int, default=201)
    _add_common_flags(p_plot, hbar=False)

    p_verify = sub.add_parser("verify", allow_abbrev=False, help="run the verification suites")
    p_verify.add_argument("--suite", action="append", choices=SUITE_NAMES,
                          help="suite to run (repeatable; default all)")
    _add_common_flags(p_verify, hbar=False)

    for command in sub.choices.values():
        command._negative_number_matcher = _NEGATIVE_NUMBER
    _command_parsers = sub.choices
    return parser


def _read(command: argparse.ArgumentParser, name: str, argv) -> argparse.Namespace | None:
    """build_parser().parse_args([name, *argv])'s namespace, read in one
    pass over the tables of `command`, the parser of command `name`, where
    argv holds only positionals, each in turn, and `--flag=value` tokens,
    where --flag names a plain store action exactly and at most once; each
    value converted by the action's type and checked against its choices.
    None for any other argv, which argparse then parses: a flag spelled
    `--flag value`, an unknown, abbreviated or repeated flag, -h, --, -, a
    positional that starts with -, an append action, a failed conversion
    or choice, and a missing required flag or a missing or extra
    positional.  Every default goes in first, in argparse's order, so
    vars() lists the items as argparse does; the parsers give no string
    default, which argparse would convert."""
    values = {"command": name}
    for action in command._actions:
        if action.dest is not argparse.SUPPRESS and action.default is not argparse.SUPPRESS:
            values.setdefault(action.dest, action.default)
    for dest, default in command._defaults.items():
        values.setdefault(dest, default)
    flags, prefix = command._option_string_actions, command.prefix_chars
    positionals = iter(command._get_positional_actions())
    seen = set()
    for token in argv:
        if not token or token[0] not in prefix:
            action, value = next(positionals, None), token
        else:
            flag, equals, value = token.partition("=")
            action = flags.get(flag) if equals else None
        if (action.__class__ is not argparse._StoreAction or action.nargs is not None
                or action in seen):
            return None
        seen.add(action)
        try:
            value = value if action.type is None else action.type(value)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value
    if any(action.required and action not in seen for action in command._actions):
        return None
    return argparse.Namespace(**values)


def _parse(argv) -> argparse.Namespace:
    """build_parser().parse_args(argv).  Where argv[0] names a command and
    the rest is positionals and `--flag=value` tokens, `_read` reads it
    with no argparse pass; argparse parses every other argv itself, and
    alone writes help, usage and errors."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    command = _command_parsers.get(argv[0]) if argv else None
    args = _read(command, argv[0], argv[1:]) if command is not None else None
    return args if args is not None else parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    # Looked up on every call, not stored in the shared parser, so that a
    # cmd_* replaced after the first call (by a tracer, say) is the one run.
    commands = {"eval": cmd_eval, "table": cmd_table, "plot": cmd_plot,
                "verify": cmd_verify}
    try:
        return commands[args.command](args)
    except (UsageError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OverflowError:
        # Raised by a form at a float p only where its value is past double range.
        print(f"error: a value overflows double precision at --hbar-beta {args.hbar_beta!r}",
              file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
