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
it has them.  `table` and `plot` evaluate their whole grid in
one call of the array-valued forms and format their rows with numpy,
a block at a time (`_format_block`), byte for byte as '%.17g' does: the
17 digits of a value come from |x| 10^(16-E) taken as a double-double
(`_decimal`), so neither the bytes nor the speed depend on the width of
the platform's long double.
Where argv[0] names a command, a plain rest of argv is read in one pass
over that command's parser's own tables (`_read`), and any other in one
argparse pass of that parser (`_parse`); the grammar, help, usage and
error text are argparse's alone (`build_parser`).
numpy is imported at the first array (`_numpy`): `eval`, in Python
scalars, and every usage error import none of it, so their cold start
is the package's own import; `table`, `plot` and `verify` load it at
their grid or first suite.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys

from ._numpy import np
from .forms import FORM_EVALUATORS, MAX_SHAPE_N, distribution_max_l
from .hydrogenic import PhysicalScale, QuantumState
from .transform import _rounded
from .verification import SUITES, run_all

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


# The near-tie margin of `_decimal`, absolute, in units of the last digit.
_MARGIN = 2.0 ** -46
# Decimal exponents of doubles, subnormals included.
_MIN_EXP, _MAX_EXP = -324, 308
# Veltkamp's splitter 2^27 + 1: c x - (c x - x) is x rounded to 26 bits.
_SPLITTER = 134217729.0


@functools.lru_cache(maxsize=1)
def _format_tables():
    """The tables of `_decimal` and `_format_block`, built on the first
    call so that an import does not pay for them.  At index E - _MIN_EXP + 1
    (E one past either end included): the int32 shift a_E = -floor(E log2 10),
    so that 2^a_E 10^E is in [1, 2), and P_E = 10^(16-E) 2^-a_E, in
    (5e15, 1e16], as head, the head's Veltkamp halves of 26 bits each, and
    rest: head is P_E correctly rounded and rest is P_E - head correctly
    rounded (`transform._rounded`), so |head + rest - P_E| <= 2^-106 P_E.
    Then the 4 ASCII digits of 0..9999 in one uint32 each; the suffixes
    'e-324'..'e+308', NUL-padded in one uint64 each, and last 0."""
    exponents = np.arange(_MIN_EXP - 1, _MAX_EXP + 2)
    shifts = (-np.floor(exponents * math.log2(10))).astype(np.int32)
    # P_E = 5^(16-E) 2^(16-E-a_E): 5^(16-E) correctly rounded, and its rest, scaled.
    fives = [1]  # 5^0 .. 5^(17 - _MIN_EXP)
    while len(fives) < 18 - _MIN_EXP:
        fives.append(5 * fives[-1])
    head, rest = np.ldexp(np.array([_rounded(fives[16 - e], 1) if e <= 16 else
                                    _rounded(1, fives[e - 16])
                                    for e in exponents.tolist()]).T,
                          16 - exponents - shifts)
    split = _SPLITTER * head
    high = split - (split - head)
    digits = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)  # digits[a, b, c, d] = "abcd"
    for place in range(4):
        digits[..., place] = np.arange(ord("0"), ord("9") + 1).reshape((10,) + (1,) * (3 - place))
    quads = digits.view(np.uint32).ravel()
    suffixes = [b"e%+03d" % e for e in range(_MIN_EXP, _MAX_EXP + 1)] + [b""]
    suffixes = np.array(suffixes, dtype="S8").view(np.uint64)
    powers = shifts, head, high, head - high, rest
    return powers, quads, suffixes


def _product(magnitude: np.ndarray, i: np.ndarray):
    """(yh, yl), yh + yl = y = magnitude 10^(16-E), with E = i + _MIN_EXP - 1:
    xs = magnitude 2^a_E is exact, subnormals included, and Dekker's
    TwoProduct splits xs head into yh = fl(xs head) and its exact error, to
    which xs rest is added (`_decimal` bounds the error of yl)."""
    shift, head, high, low, rest = (column.take(i) for column in _format_tables()[0])
    xs = np.ldexp(magnitude, shift)  # int32: ldexp's fast loop
    yh = xs * head
    xh = xs * _SPLITTER
    xl = xh - xs
    xh -= xl  # the high 26 bits of xs
    np.subtract(xs, xh, out=xl)
    xs *= rest
    yl = xh * high
    yl -= yh
    xh *= low
    yl += xh
    high *= xl
    yl += high
    xl *= low
    yl += xl
    yl += xs
    return yh, yl


def _decimal(x: np.ndarray):
    """(D, E, near) for the finite float64 array x: |x| = D 10^(E-16)
    rounded to 17 digits, 10^16 <= D < 10^17 (D = E = 0 at 0), and where
    D may be off, so that '%' must format x.

    y = |x| 10^(16-E) is (yh, yl) (`_product`), yh an integer-valued double,
    as is every double past 2^53, and D = yh + floor(yl + 1/2).  With
    y < 1.01e17 and each rounding within 2^-53 of its result, yh + yl is
    within 2^-106 y of the exact y from rest's rounding, 2^-106 y from that
    of xs rest, and 2^-105 y from the sum yl (|yl| <= 2^-52 y); yl + 1/2 adds
    2^-105 y + 2^-54, and its fraction, exact where yl + 1/2 >= 0, 2^-54.  In
    all, 1.5 2^-104 y + 2^-53 < 7.6e-15, so D is right unless the fraction of
    yl + 1/2 lies within that of 0, the rounding boundary m + 1/2 of y;
    _MARGIN, 1.4e-14, flags such values, exact ties included.
    """
    magnitude = np.abs(x)
    zero = magnitude == 0
    magnitude[zero] = 1.0  # D = E = 0 below
    i = np.floor(np.log10(magnitude)).astype(np.intp) - (_MIN_EXP - 1)
    yh, yl = _product(magnitude, i)
    # log10 of a double next to a power of 10 may round to the wrong side:
    # the sign of y - bound is that of (yh - bound) + yl, where yh - bound is
    # exact or far from 0.
    for bound, step in ((1e16, -1), (1e17, 1)):
        off = yh - bound + yl
        wrong = np.flatnonzero(off < 0 if step < 0 else off >= 0)
        if wrong.size:
            i[wrong] += step
            yh[wrong], yl[wrong] = _product(magnitude[wrong], i[wrong])
    yl += 0.5
    d = np.floor(yl)
    yl -= d  # the fraction of yl + 1/2
    d = yh.astype(np.int64) + d.astype(np.int64)
    near = np.abs(yl - 0.5) > 0.5 - _MARGIN
    e = i + (_MIN_EXP - 1)
    top = d == 10 ** 17  # y rounded up to the next decade
    d[top] = 10 ** 16
    e += top
    d[zero] = e[zero] = 0
    return d, e, near


def _format_block(block: np.ndarray) -> str:
    """The rows of the finite float64 array `block` as CSV lines, every
    value byte for byte as '%.17g' formats it.

    '%' formats the values `_decimal` finds near a rounding boundary, in
    one call for the block.  The %g rules lay out the others in a slot of
    bytes: the sign; "0000" and the 17 digits, with the point after digit
    E (fixed notation, for -4 <= E < 17) or after the first (scientific);
    the exponent suffix; the separator.  Every byte that %g drops (a
    leading or trailing zero, the point of a whole number) is NUL, and one
    pass over the text removes them.  The slots are held one row per byte
    position, so that every numpy call runs over the whole block.
    """
    quads, suffixes = _format_tables()[1:]
    x = block.reshape(-1)
    n = len(x)
    d, e, near = _decimal(x)

    # "0000" and the 17 digits of d, from 4-digit groups, between NUL rows.
    groups = np.empty((5, n), dtype=np.intp)  # d0, d1-d4, ..., d13-d16
    for row, unit in enumerate((10 ** 16, 10 ** 12, 10 ** 8, 10 ** 4)):
        np.floor_divide(d, unit, out=groups[row])
        d = d - groups[row] * unit
    groups[4] = d
    padded = np.zeros((23, n), dtype=np.uint8)
    padded[1] = ord("0")
    padded[2:22].reshape(5, 4, n)[:] = (
        quads[groups].view(np.uint8).reshape(5, n, 4).transpose(0, 2, 1))
    text = padded[1:22]  # text[4 + j] is digit j

    # The body is the text with the point after text[point]; the bytes
    # body[first:last + 1] are kept: from the units digit to the last
    # nonzero digit, or to the units digit where no such digit follows it.
    fixed = (-4 <= e) & (e < 17)
    shift = np.where(fixed, e, 0).astype(np.int8)
    point, first = shift + np.int8(4), np.minimum(shift, 0) + np.int8(4)
    nonzero = (text[4:] != ord("0")).view(np.uint8)
    last = np.max(nonzero * np.arange(17, dtype=np.uint8)[:, None], axis=0).astype(np.int8)
    last += np.int8(4)  # in the text; digit 0 where d = 0
    last = np.where(last > point, last + np.int8(1), point)

    slots = np.empty((29, n), dtype=np.uint8)
    slots[0] = np.signbit(x) * np.uint8(ord("-"))
    body = slots[1:23]
    before, after = padded[1:], padded[:-1]  # text[i], and text[i - 1]
    position = np.arange(22, dtype=np.int8)[:, None]
    np.subtract(before, after, out=body)
    body *= (position <= point).view(np.uint8)
    body += after
    body.reshape(-1)[(point + 1).astype(np.intp) * n + np.arange(n)] = ord(".")
    body *= ((position >= first) & (position <= last)).view(np.uint8)
    suffix = suffixes[np.where(fixed, -1, e - _MIN_EXP)]
    slots[23:28] = suffix.view(np.uint8).reshape(n, 8)[:, :5].T
    slots[28].reshape(block.shape)[:] = [ord(",")] * (block.shape[1] - 1) + [ord("\n")]

    redo = np.flatnonzero(near)
    if redo.size:
        exact = ("%.17g " * redo.size % tuple(x[redo].tolist())).split()
        slots[:28, redo] = np.array(exact, dtype="S28").view(np.uint8).reshape(-1, 28).T
    return slots.T.tobytes().translate(None, b"\0").decode("ascii")


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
            yield _format_block(block)

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
    report = run_all(_scale_from_args(args), args.suite)
    _write_lines(args.output, [report.to_json() + "\n"])
    return EXIT_OK if report.overall_pass else EXIT_VERIFY_FAILED


_parser: argparse.ArgumentParser | None = None
# Each command's own parser, the `add_parser` objects of `_parser`, by name.
_command_parsers: dict = {}
# What a command's parser reads as a negative number, not an option: every
# negative float literal, exponent form and -inf included.  argparse's own
# pattern takes only -1 and -1.5, and reads "-1e-05" as an option.
_NEGATIVE_NUMBER = re.compile(r"-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|-(inf|infinity|nan)$",
                              re.IGNORECASE)


def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser: built on the first call in a process, the same
    instance on every later call, with its commands' parsers kept in
    `_command_parsers`.  Sharing them is safe, because each parse fills a
    fresh Namespace and argparse looks up sys.stdout and sys.stderr only
    when it prints."""
    global _parser, _command_parsers
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

    for command in sub.choices.values():
        command._negative_number_matcher = _NEGATIVE_NUMBER
    _parser, _command_parsers = parser, sub.choices
    return parser


def _read(command: argparse.ArgumentParser, name: str, argv) -> argparse.Namespace | None:
    """command.parse_known_args(argv, Namespace(command=name))'s namespace,
    read in one pass over the command parser's own tables, where argv is
    plain: positionals, each in turn, and `--flag=value` or `--flag value`,
    where --flag names a plain store action exactly and at most once; each
    value converted by the action's type and checked against its choices.
    None where argparse must decide: an unknown, abbreviated or repeated
    flag, -h, --, -, a value after a space that starts with - (a negative
    number or a flag), an append action, a failed conversion or choice,
    and a missing required flag or a missing or extra positional.  Every
    default goes in first, in argparse's order, so vars() lists the items
    as argparse does; the parsers give no string default, which argparse
    would convert."""
    values = {"command": name}
    for action in command._actions:
        if action.dest is not argparse.SUPPRESS and action.default is not argparse.SUPPRESS:
            values.setdefault(action.dest, action.default)
    for dest, default in command._defaults.items():
        values.setdefault(dest, default)
    flags, prefix = command._option_string_actions, command.prefix_chars
    positionals = iter(command._get_positional_actions())
    seen = set()
    tokens = iter(argv)
    for token in tokens:
        if not token or token[0] not in prefix:
            action, value = next(positionals, None), token
        elif token in flags:
            action, value = flags[token], next(tokens, None)
            if value is None or (value and value[0] in prefix):
                return None
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
    """build_parser().parse_args(argv).  Where argv[0] names a command,
    `_read` reads a plain argv[1:] from that command's parser's tables;
    else its parser reads argv[1:] in one argparse pass, and what it
    leaves is an error of the top-level parser, as argparse's subparser
    action has it.  No argparse pass runs for a plain argv, and argparse
    alone writes help, usage and errors."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    command = _command_parsers.get(argv[0]) if argv else None
    if command is None:  # no command, -h, or an unknown one
        return parser.parse_args(argv)
    args = _read(command, argv[0], argv[1:])
    if args is not None:
        return args
    args, extra = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    return args


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
