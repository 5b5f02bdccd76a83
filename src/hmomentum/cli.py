"""Command-line front end.

Subcommands:
  eval    one momentum form at a single p, printed as a CSV record
  table   a form over a momentum grid, CSV with header p,re,im,abs2
  plot    unnormalized PP/LO densities over a grid, CSV with header p,density
  verify  run the verification suites at --hbar-beta, JSON report

Exit codes: 0 success/pass, 1 verification failure, 2 usage error (a
table whose text cannot fit in the free space of its spool, a value that
overflows and a flag that is not spelled in full included), 3 I/O error.
All floating values are emitted as '%.17g' formats them, and all must be
finite; a usage error for a value that is not (an inf past double
precision, a NaN from an intermediate out of range) names --hbar-beta,
and the column and p where it has them, and writes nothing.  `table` and
`plot` stream their grid: each block of `forms.BLOCK_POINTS` points is
made, evaluated, checked and formatted (`_csv._format_block`) into a
spool, which is published once every block has passed (`_write_csv`),
so their memory does not grow with --count.
The grammar is one table, `GRAMMAR` with `COMMON_FLAGS`: `_read` reads
each argv it can from it, flags as `--flag=value` or `--flag value`, and
loads neither argparse nor gettext; argparse parses the rest, help and
usage errors included, with the parser that `build_parser` builds from it.
numpy, `verification` and the CSV formatter `_csv` are lazy modules
(`_numpy`), run at their first use, so `eval` and every usage error run
only the closed forms; `table` and `plot` run numpy at their grid and
`_csv`, with `transform`, at their first CSV, and `verify` runs
`transform` and `verification` at its first suite.
"""

from __future__ import annotations

import functools
import math
import sys
import types

from ._numpy import lazy, np
from .forms import BLOCK_POINTS, FORM_EVALUATORS, MAX_SHAPE_N, distribution_max_l
from .hydrogenic import PhysicalScale, QuantumState

_csv = lazy(__package__ + "._csv")
verification = lazy(__package__ + ".verification")

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3

# Rows per `_csv._format_block` call, within each block of BLOCK_POINTS
# points that `table` and `plot` evaluate and write at a time: bounds the
# formatter's temporaries (about 200 bytes a value) held at once.
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


def _state_from_args(args) -> QuantumState:
    return _usage_checked(QuantumState, args.N, args.l, _scale_from_args(args))


def _write_lines(path, chunks) -> None:
    """Write the text `chunks` to `path` (a file name or descriptor) or stdout."""
    if path is None:
        sys.stdout.writelines(chunks)
    else:
        with open(path, "w", encoding="ascii", newline="\n") as handle:
            handle.writelines(chunks)


def _csv_text(header: str, blocks, hbar_beta: float):
    """`header`, then the rows of each of `blocks`, a list of equal-length
    float columns, p first, every value as '%.17g' formats it, in texts of at
    most CSV_BLOCK_ROWS rows; a block that holds a value that is not finite
    raises UsageError, naming the first."""
    yield header + "\n"
    for columns in blocks:
        block = np.column_stack(columns)
        finite = np.isfinite(block)
        if not finite.all():  # a reduction over the rows first is 15 times slower
            raise _not_finite(header, block[np.argmin(finite.all(axis=1))].tolist(), hbar_beta)
        for start in range(0, len(block), CSV_BLOCK_ROWS):
            yield _csv._format_block(block[start:start + CSV_BLOCK_ROWS])


def _write_csv(path, header: str, blocks, count: int, hbar_beta: float) -> None:
    """Write `_csv_text` of `header` and `blocks`, `count` rows in all, to
    `path` or stdout, and nothing if it raises.  The text is spooled and
    published only once every block is written: where `path` names nothing,
    the spool is a new file beside it, with the mode open() gives, that
    os.replace moves into place; otherwise (stdout, a file, a symlink, a
    device) it is an anonymous temporary file in tempfile.gettempdir(),
    copied into `path` as `_write_lines` opens it, so an existing target
    keeps its inode and mode.  A table too large for the free space of the
    spool's directory is a usage error.  Where that directory is a tmpfs,
    the spool (about 88 bytes a row of `table`) takes memory, though not
    this process's."""
    import itertools
    import os
    import shutil
    import tempfile

    new = path is not None and not os.path.lexists(path)
    directory = (os.path.dirname(path) or os.curdir) if new else tempfile.gettempdir()
    need = 2 * count * (header.count(",") + 1)  # a digit and a separator per value
    free = shutil.disk_usage(directory).free
    if need > free:
        raise UsageError(f"a grid of --count {count} needs at least {need} bytes of text, "
                         f"more than the {free} free in {directory}")
    # A block's temporaries, its evaluation's and then each formatter call's,
    # take about 1.6 MB, freed at the top of the heap.  glibc gives a free top
    # past twice the largest mapped block yet freed (from 128 KiB) back to the
    # OS, so the heap would be faulted in again at every formatter call (42 000
    # page faults and a fifth more time on a round of table-sweep).  A 2 MiB
    # array, mapped and freed untouched, raises that bound past a block's
    # (a request of `bench/run.py --workload table-sweep` took 23.0 ms in the
    # median of 12 seeds without it, 18.8 with it, on a 2-vCPU VM); later
    # calls of the process cost a map and an unmap.
    np.empty(2 << 20, np.uint8)
    chunks = _csv_text(header, blocks, hbar_beta)
    # Copying the text into a new target too, instead of renaming the spool,
    # took that median from 17.7 to 19.1 ms (slower in 9 of 12 seeds).
    if not new:
        with tempfile.TemporaryFile("w+", encoding="ascii", newline="\n", dir=directory) as spool:
            spool.writelines(chunks)
            spool.seek(0)
            _write_lines(path, iter(lambda: spool.read(1 << 16), ""))
        return
    for n in itertools.count():
        spool = os.path.join(directory, f".hmomentum-{os.getpid()}-{n}.tmp")
        try:
            fd = os.open(spool, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            pass
    try:
        _write_lines(fd, chunks)
        os.replace(spool, path)
    except BaseException:
        os.unlink(spool)
        raise


def _complex_columns(p, values) -> list:
    """The p,re,im,abs2 columns of complex `values` at momenta `p`."""
    # np.hypot is bit for bit Python's abs(complex); np.abs of a complex is not.
    modulus = np.hypot(values.real, values.imag)
    # abs2 overflows to inf where |value| > 1.3e154, which _csv_text refuses.
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


def _grid(pmin: float, pmax: float, count: int, start: int = 0, stop=None) -> np.ndarray:
    """np.linspace(pmin, pmax, count)[start:stop], pmin < pmax, bit for bit: numpy's
    i step + pmin, or (i / div) delta + pmin where the step underflows to 0, and pmax
    last.  Past pmax - pmin = 2^1023 it is built on the quarters and scaled back in
    place, so that neither pmax - pmin nor its rounded multiples of the step
    overflow; below, where a quarter may be subnormal and lose bits, it is
    built on the ends themselves."""
    shrink = 4.0 if pmax - pmin >= 2.0 ** 1023 else 1.0
    low, high = pmin / shrink, pmax / shrink
    delta, div = high - low, count - 1
    step = delta / div
    stop = count if stop is None else min(stop, count)
    grid = np.arange(start, stop).astype(float)
    if step == 0:
        grid /= div
        grid *= delta
    else:
        grid *= step
    grid += low
    if stop == count:
        grid[-1] = high
    grid *= shrink
    return grid


def _grid_blocks(pmin: float, pmax: float, count: int):
    """`_grid(pmin, pmax, count)` in blocks of BLOCK_POINTS points, in order."""
    if not 2 <= count <= sys.maxsize // 8:  # at most numpy's largest float64 array
        raise UsageError(f"grid needs 2 <= --count <= {sys.maxsize // 8}, got {count}")
    return (_grid(pmin, pmax, count, start, start + BLOCK_POINTS)
            for start in range(0, count, BLOCK_POINTS))


def _grid_from_args(args):
    _require_finite(pmin=args.pmin, pmax=args.pmax)
    if not args.pmin < args.pmax:
        raise UsageError("grid needs --pmin < --pmax")
    return _grid_blocks(args.pmin, args.pmax, args.count)


def cmd_table(args) -> int:
    state = _state_from_args(args)
    grids = _grid_from_args(args)
    evaluate = FORM_EVALUATORS[args.form]
    blocks = (_complex_columns(grid, _usage_checked(evaluate, state, grid)) for grid in grids)
    _write_csv(args.output, COMPLEX_HEADER, blocks, args.count, args.hbar_beta)
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
    grids = _grid_blocks(0.0 if args.form == "PP" else -pmax, pmax, args.count)

    def blocks():
        for grid in grids:
            try:
                density = distribution_max_l(args.form, args.N, grid, scale)
            except ValueError as exc:  # N out of range, or else the shape past double precision
                raise UsageError(exc if not 1 <= args.N <= MAX_SHAPE_N else f"the {args.form} "
                                 f"density of N={args.N} overflows double precision at "
                                 f"--hbar-beta {args.hbar_beta!r}") from exc
            yield [grid, density]

    _write_csv(args.output, "p,density", blocks(), args.count, args.hbar_beta)
    return EXIT_OK


def cmd_verify(args) -> int:
    report = verification.run_all(_scale_from_args(args), args.suite)
    _write_lines(args.output, [report.to_json() + "\n"])
    return EXIT_OK if report.overall_pass else EXIT_VERIFY_FAILED


# `verification.SUITES`' names, sorted, so that reading the grammar runs no check.
SUITE_NAMES = ("form_equivalence", "lo_proportionality", "parseval_diagonalization",
               "pp_vs_hankel", "quadrature", "so4_constancy", "uncertainty")
_FORM_STATE = (("form", {"choices": sorted(FORM_EVALUATORS)}), ("N", {"type": int}),
               ("l", {"type": int}))
# The CLI's grammar, declared here alone: `_read` reads argv from it and
# `build_parser` builds argparse's parsers from it.  Per command: its help,
# whether it takes --hbar, and its own arguments in order, each a name or option
# string with add_argument keywords (no string default: `_read` converts none).
GRAMMAR = {
    "eval": ("evaluate one form at a single p", True, (
        *_FORM_STATE, ("--p", {"type": float, "required": True}))),
    "table": ("tabulate a form over a grid", True, (
        *_FORM_STATE, ("--pmin", {"type": float, "required": True}),
        ("--pmax", {"type": float, "required": True}),
        ("--count", {"type": int, "default": 101}))),
    "plot": ("emit PP/LO density data", False, (
        ("form", {"choices": ["PP", "LO"]}), ("N", {"type": int}),
        ("--pmax", {"type": float}), ("--count", {"type": int, "default": 201}))),
    "verify": ("run the verification suites", False, (
        ("--suite", {"action": "append", "choices": SUITE_NAMES,
                     "help": "suite to run (repeatable; default all)"}),)),
}
COMMON_FLAGS = (
    ("--output", {}),
    ("--hbar-beta", {"type": float, "default": 1.0,
                     "help": "momentum scale hbar*beta (default 1)"}),
    ("--hbar", {"type": float, "default": 1.0, "help": "action unit hbar (default 1)"}),
)
_PREFIX = "-"  # what starts a flag, as in argparse's prefix_chars
# What argparse reads as a negative number, not an option: "-1e-05", -inf too.
_NEGATIVE_NUMBER = r"-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|-(inf|infinity|nan)$"


def _arguments(name: str):
    """(arguments, defaults) of command `name`: (name or option string,
    attribute, keywords) of its own arguments and the common flags it takes,
    in order, and by attribute the defaults of the common flags it does not."""
    _, hbar, own = GRAMMAR[name]
    arguments = [(option, option.lstrip(_PREFIX).replace(_PREFIX, "_"), keywords)
                 for option, keywords in own + COMMON_FLAGS]
    taken = len(arguments) - (not hbar)
    return arguments[:taken], {dest: kw.get("default") for _, dest, kw in arguments[taken:]}


@functools.cache
def _reader(name: str):
    """(defaults, positionals, flags, required) of command `name`: each default
    in argparse's order, (attribute, type, choices) of each positional and of
    each plain store flag by option string, and the required option strings."""
    arguments, unset = _arguments(name)
    positionals, flags = [], {}
    for option, dest, keywords in arguments:
        entry = (dest, keywords.get("type"), keywords.get("choices"))
        if not option.startswith(_PREFIX):
            positionals.append(entry)
        elif "action" not in keywords:
            flags[option] = entry
    defaults = {"command": name} | {dest: keywords.get("default")
                                    for _, dest, keywords in arguments} | unset
    return defaults, positionals, flags, {
        option for option, _, keywords in arguments if keywords.get("required")}


@functools.cache
def build_parser():
    """The CLI's argparse parser, built from GRAMMAR on the first call in a
    process and shared by later calls: each parse fills a fresh Namespace, and
    argparse looks up sys.stdout and sys.stderr only when it prints."""
    import argparse
    import re

    negative_number = re.compile(_NEGATIVE_NUMBER, re.IGNORECASE)
    parser = argparse.ArgumentParser(
        prog="hmomentum", allow_abbrev=False,
        description="Hydrogen radial wave functions in the momentum representation")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, _, _) in GRAMMAR.items():
        command = sub.add_parser(name, allow_abbrev=False, help=summary)
        arguments, unset = _arguments(name)
        for option, _, keywords in arguments:
            command.add_argument(option, **keywords)
        command.set_defaults(**unset)
        command._negative_number_matcher = negative_number
    return parser


def _read(name: str, argv):
    """build_parser().parse_args([name, *argv])'s namespace, read from the
    grammar, where argv holds command `name`'s positionals, each in turn, and
    its plain store flags, each at most once, as `--flag=value` or `--flag
    value`, each value of its type and in its choices.  None for any other
    argv, which argparse parses: a spaced value that is empty or starts with
    -, an unknown, abbreviated or repeated flag, -h, --, -, a positional that
    starts with -, an append action, a failed conversion or choice, and a
    missing required flag or positional or an extra positional."""
    defaults, positionals, flags, required = _reader(name)
    values, seen, position, tokens = defaults.copy(), set(), 0, iter(argv)
    for token in tokens:
        if not token.startswith(_PREFIX):
            if position == len(positionals):
                return None
            (dest, convert, choices), value = positionals[position], token
            position += 1
        else:
            option, equals, value = token.partition("=")
            if option not in flags or option in seen:
                return None
            seen.add(option)
            if not equals:
                value = next(tokens, "")
                if not value or value.startswith(_PREFIX):
                    return None
            dest, convert, choices = flags[option]
        try:
            value = value if convert is None else convert(value)
        except ValueError:
            return None
        if choices is not None and value not in choices:
            return None
        values[dest] = value
    if position < len(positionals) or not seen >= required:
        return None
    return types.SimpleNamespace(**values)


def _parse(argv):
    """build_parser().parse_args(argv)'s namespace: `_read`'s where argv[0]
    names a command and it reads the rest, else argparse's, which alone
    writes help, usage and errors."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read(argv[0], argv[1:]) if argv and argv[0] in GRAMMAR else None
    return args if args is not None else build_parser().parse_args(argv)


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
