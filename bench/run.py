"""Benchmark of the hmomentum CLI, run in-process through `hmomentum.cli.main`.

Usage, from the root of a checkout:

    python3 bench/run.py --workload table-sweep --seed 1 --seconds 18 --trace 0

Workloads (see workloads.py and README.md): verify-default, table-sweep,
eval-stream.  Each is a closed loop with one client: the next request is
sent when the previous one returns.  A run holds a fixed number of
whole rounds of requests, `workloads.round_count`, which took about
`--seconds` of request time at the seed commit.  Request and set-up times are
scaled by a reference loop timed next to them (see Reference).  Every
output is checked against the arbitrary-precision oracle of oracle.py
after the timed loop.

With `--trace 0` the run reports the end-to-end metrics of BENCHMARK.json;
with `--trace 1` it replays a fixed request list untraced and then traced
(spans.py) and reports the per-layer metrics.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.

Exit codes: 0 with a result; 2 when the package sources are missing;
3 when the oracle fails its own self-check.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracle
import workloads
from refloop import reference_seconds
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# setup_s is the median of SETUP_BLOCKS blocks of SETUP_PER_BLOCK cold
# imports: before the first round, before the middle round and after the
# last.  Cold imports slow down in spells of seconds; with all samples in
# one block before the loop, medians of 7 spread by 4-16% between sets of
# ten seeds.  Spread over the run, a spell reaches at most one block.
SETUP_BLOCKS = 3
SETUP_PER_BLOCK = 4
IMPORTTIME_REPEATS = 3
# request_ms_tail: (percentile, whether to report the mean of the requests
# at or above it rather than the percentile itself), chosen for a steady
# figure.  Across several sets of ten seeds the table p90 spread by
# 6-9% (it falls at the edge of the largest-grid stratum), the mean above
# p75 by 2-4%; the eval p99 by 5-13%, the means above p99 and p95 by up to
# 17% and 10%, the p95 by 2-4%.  With about 20 verify runs the mean of the
# slowest quarter spread by 10%, the p75 by 5%.
REQUEST_TAIL = {"verify-default": (75, False), "table-sweep": (75, True),
                "eval-stream": (95, False)}
# Request times are reported as if the reference loop took this long.
REFERENCE_NOMINAL_S = 0.0035
# correct_digits is a low percentile of the digits of every checked point
# of the requests with N up to DIGITS_MAX_N, passed or not (on verify: of
# every suite's margin).  At the seed commit all but 3 of 18207 such table
# points over ten seeds pass, and every eval point; the 3 are script_D
# values within about 1e-3 hbar*beta of p = 0.  Their minimum depends on whether a random check
# lands there and spread by 18% between seeds; the 1st percentile by 2%.
DIGITS_MAX_N = 8
DIGITS_PERCENTILE = 1

# verify suite key -> (report result name, verification function)
SUITES = {
    "form_equivalence": ("form_equivalence", "verify_form_equivalence"),
    "quadrature": ("quadrature_vs_closed_form", "verify_quadrature"),
    "lo_proportionality": ("lombardi_ogilvie_proportionality", "verify_lo_proportionality"),
    "pp_vs_hankel": ("podolsky_pauling_vs_hankel", "verify_pp_vs_hankel"),
    "parseval_diagonalization": ("parseval_and_diagonalization",
                                 "verify_parseval_and_diagonalization"),
    "uncertainty": ("uncertainty_bound", "verify_uncertainty"),
    "so4_constancy": ("so4_form_constancy", "verify_so4_constancy"),
}


@dataclass
class Result:
    """One request's outcome.  `error` means the program raised or exited
    non-zero; `malformed` means its output broke the CLI's format."""

    request: workloads.Request
    seconds: float
    error: str = ""
    malformed: str = ""
    values: tuple = ()  # (p, complex) pairs of table/eval output
    margins: dict | None = None  # verify: suite key -> margin digits
    overall_pass: bool = False
    digits: float = math.nan  # the lowest of point_digits
    point_digits: tuple = ()  # per checked point (verify: per suite margin)
    passed: bool = False
    reference: float = math.nan  # seconds of the reference loop around this request

    @property
    def work(self) -> int:
        return self.request.count if self.request.kind == "table" else 1


def execute(cli, req, out_path):
    """Run one request; only `main` itself is inside the timed region."""
    argv = list(req.argv)
    if req.kind != "eval":
        argv.append(f"--output={out_path}")
        out_path.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    code, error = None, ""
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            error = f"SystemExit({exc.code})"
        except Exception as exc:  # noqa: BLE001 - a failed request is a result
            error = type(exc).__name__
        seconds = time.perf_counter() - start
    return seconds, code, error, stdout.getvalue()


def _parse_row(line: str):
    fields = line.split(",")
    if len(fields) != 4:
        raise ValueError(f"expected 4 fields, got {line!r}")
    p, re, im, abs2 = (float(x) for x in fields)
    value = complex(re, im)
    mod2 = abs(value) * abs(value)
    if math.isfinite(abs2) and not abs(abs2 - mod2) <= 1e-15 * mod2:
        raise ValueError(f"abs2 {abs2!r} disagrees with re, im in {line!r}")
    return p, value


def collect(req, seconds, code, error, stdout, out_path) -> Result:
    """Parse and structurally check one request's output."""
    res = Result(req, seconds, error=error)
    if error.startswith("SystemExit"):
        res.malformed = f"argv rejected: {error}"
    if error:
        return res
    if code not in ((0, 1) if req.kind == "verify" else (0,)):
        res.error = f"exit {code}"
        return res
    if req.kind == "verify":
        return _collect_verify(res, code, out_path)
    try:
        if req.kind == "eval":
            lines = stdout.split("\n")
            if len(lines) != 2 or lines[1]:
                raise ValueError(f"expected one record, got {stdout!r}")
            p, value = _parse_row(lines[0])
            if p != req.p:
                raise ValueError(f"p {p!r} != requested {req.p!r}")
            res.values = ((p, value),)
        else:
            res.values = _read_table(req, out_path)
    except (ValueError, OSError) as exc:
        res.malformed = str(exc)
    return res


def _read_table(req, out_path) -> tuple:
    """The checked rows of a table file.  The file is streamed and only those
    rows are kept, so the peak RSS is the program's, not the parser's."""
    wanted = set(req.checks)
    grid = np.linspace(req.pmin, req.pmax, req.count)
    values, rows, line = [], 0, ""
    with out_path.open(encoding="ascii", newline="") as f:
        if f.readline() != "p,re,im,abs2\n":
            raise ValueError("bad header")
        for rows, line in enumerate(f, 1):
            if rows - 1 in wanted:
                p, value = _parse_row(line.removesuffix("\n"))
                if p != grid[rows - 1]:
                    raise ValueError(f"row {rows - 1}: p {p!r} != grid {grid[rows - 1]!r}")
                values.append((p, value))
    if rows != req.count or not line.endswith("\n"):
        raise ValueError(f"{rows} rows for {req.count} points, or no final newline")
    return tuple(values)


def _margin_digits(tolerance: float, residual: float) -> float:
    """log10(tolerance / residual), clipped to +-MAX_DIGITS."""
    cap = oracle.MAX_DIGITS
    if residual == 0:
        return cap
    if not residual < math.inf:
        return -cap
    return max(-cap, min(cap, math.log10(tolerance / residual)))


def _collect_verify(res: Result, code, out_path) -> Result:
    try:
        report = json.loads(out_path.read_text(encoding="ascii"))
        margins = {}
        names = {name: key for key, (name, _) in SUITES.items()}
        for r in report["results"]:
            residual, tol = float(r["max_residual"]), float(r["tolerance"])
            if bool(r["passed"]) != (residual <= tol):
                raise ValueError(f"suite {r['name']}: passed flag contradicts residual")
            margins[names.get(r["name"], r["name"])] = _margin_digits(tol, residual)
        if len(margins) != len(SUITES):
            raise ValueError(f"expected {len(SUITES)} suites, got {sorted(margins)}")
        overall = bool(report["overall_pass"])
        if overall != all(r["passed"] for r in report["results"]):
            raise ValueError("overall_pass contradicts the suite results")
        if (code == 0) != overall:
            raise ValueError(f"exit code {code} contradicts overall_pass={overall}")
    except (ValueError, KeyError, TypeError, OSError) as exc:
        res.malformed = str(exc)
        return res
    res.margins, res.overall_pass = margins, overall
    return res


def judge(res: Result) -> None:
    """Compare a result with the oracle (outside any timing).  A request that
    raised or broke the format has -MAX_DIGITS digits."""
    req = res.request
    if res.error or res.malformed:
        res.point_digits = (-oracle.MAX_DIGITS,) * max(1, len(req.checks))
    elif req.kind == "verify":
        res.point_digits = tuple(res.margins.values())
    elif req.kind == "eval":
        (p, value), = res.values
        res.point_digits = (oracle.check_point(req.form, req.N, req.l, req.hbar_beta, p, value),)
    else:
        res.point_digits = tuple(oracle.check_grid(req.form, req.N, req.l, req.hbar_beta,
                                                   res.values))
    res.digits = min(res.point_digits)
    res.passed = res.overall_pass if req.kind == "verify" else oracle.passes(res.digits)


class Reference:
    """Times the reference loop every `every` seconds of request time.

    On the shared virtual machine where the baseline was measured, all code
    ran up to 50% slower in spells lasting seconds.  Each timed step is paired
    with the reference time measured just before and just after it, and
    scaled by REFERENCE_NOMINAL_S over their mean, which cancels most of
    such a spell.  A sample is the median of three loops.
    """

    def __init__(self, every: float = 0.1):
        self.every, self.since, self.samples = every, math.inf, []

    def sample(self) -> float:
        self.since = 0.0
        self.samples.append(reference_seconds())
        return self.samples[-1]


def run_requests(cli, reqs, tmp: Path, call=lambda i, fn: fn(), reference=None):
    results, marks = [], []  # marks: (request index, reference seconds)
    for i, req in enumerate(reqs):
        if reference and (i == 0 or reference.since >= reference.every):
            marks.append((i, reference.sample()))
        out_path = tmp / f"out-{i % 2}"
        seconds, code, error, stdout = call(i, lambda: execute(cli, req, out_path))
        results.append(collect(req, seconds, code, error, stdout, out_path))
        if reference:
            reference.since += seconds
    if reference:
        marks.append((len(reqs), reference.sample()))
        for (i, ref), (j, after) in zip(marks, marks[1:]):
            for res in results[i:j]:
                res.reference = (ref + after) / 2
    return results


def measure(cli, workload, seed, seconds, tmp):
    """A closed loop over the first workloads.round_count(workload, seconds)
    rounds, with blocks of set-up samples (see setup_samples) before the
    first round, before the middle round and after the last.

    Returns the results, the set-up samples, the median reference loop time
    and the peak RSS in MB at the end of the loop.
    """
    count = workloads.round_count(workload, seconds)
    reference = Reference()
    results, setup = [], []
    for i, reqs in enumerate(itertools.islice(workloads.rounds(workload, seed), count)):
        if i in (0, count // 2):
            setup += setup_samples()
        results += run_requests(cli, reqs, tmp, reference=reference)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup += setup_samples()
    return results, setup, statistics.median(reference.samples), rss_mb


def _child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


# A cold import, timed in a fresh interpreter between two reference loop
# timings of its own, all on one CPU.
SETUP_CODE = """
import os, sys, time
sys.path.insert(0, {bench!r})
if hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, {{min(os.sched_getaffinity(0))}})
from refloop import reference_seconds
before = reference_seconds()
start = time.perf_counter()
import hmomentum.cli
raw = time.perf_counter() - start
print(raw, before, reference_seconds())
"""


def setup_samples() -> list:
    """SETUP_PER_BLOCK cold `import hmomentum.cli`, as (scaled, raw) seconds.

    The reference loop is timed inside the child, just before and after its
    import and pinned to the same CPU: timed in this process, on whichever
    CPU it ran, it did not track the child's import.
    """
    code = SETUP_CODE.format(bench=str(Path(__file__).resolve().parent))
    out = []
    for _ in range(SETUP_PER_BLOCK):
        proc = subprocess.run([sys.executable, "-c", code], env=_child_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        raw, before, after = map(float, proc.stdout.split())
        out.append((raw * REFERENCE_NOMINAL_S / ((before + after) / 2), raw))
    return out


def import_seconds(modules) -> dict:
    """Cumulative `-X importtime` seconds of each module, median of runs."""
    runs = []
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import hmomentum.cli"],
                              env=_child_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        times = {}
        for line in proc.stderr.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) == 3 and fields[1].strip().isdigit():
                times.setdefault(fields[2].strip(), int(fields[1]) / 1e6)
        runs.append(times)
    return {m: statistics.median(t.get(m, 0.0) for t in runs) for m in modules}


def in_digits_subset(req: workloads.Request) -> bool:
    return req.kind == "verify" or req.N <= DIGITS_MAX_N


def end_to_end(workload, results, setup, rss_mb) -> tuple:
    """metric -> value, and metric -> sample description.

    Request times are scaled by REFERENCE_NOMINAL_S over the reference loop
    time measured around each request (see Reference); the unscaled values
    go into the notes.
    """
    passed = [r for r in results if r.passed]
    points = [d for r in results if in_digits_subset(r.request) for d in r.point_digits]
    tail, above = REQUEST_TAIL[workload]

    def timings(seconds):
        return {
            "request_ms": float(np.mean(seconds)) * 1e3,
            "request_ms_tail": float(seconds[seconds >= np.percentile(seconds, tail)].mean()
                                     if above else np.percentile(seconds, tail)) * 1e3,
            "goodput_per_s": sum(r.work for r in passed) / float(seconds.sum()),
        }

    raw = np.array([r.seconds for r in results])
    values = {
        "setup_s": statistics.median(scaled for scaled, _ in setup),
        **timings(raw * REFERENCE_NOMINAL_S / np.array([r.reference for r in results])),
        "passed_frac": len(passed) / len(results),
        "correct_digits": float(np.percentile(points, DIGITS_PERCENTILE)),
        "peak_rss_mb": rss_mb,
    }
    n = len(results)
    notes = {
        "setup_s": f"median of {len(setup)} cold imports, scaled; "
                   f"unscaled {statistics.median(raw for _, raw in setup):.6g}",
        "request_ms": f"mean of {n} requests",
        "request_ms_tail": f"{'mean above ' if above else ''}p{tail} of {n} requests",
        "goodput_per_s": f"{'points' if workload == 'table-sweep' else 'requests'} "
                         f"of {len(passed)} passed requests per request-second",
        "passed_frac": f"{len(passed)} of {n} requests",
        "correct_digits": f"p{DIGITS_PERCENTILE} of {len(points)} "
                          + ("suite margins" if workload == "verify-default" else
                             f"checked points of requests with N <= {DIGITS_MAX_N}, "
                             "passed or not"),
        "peak_rss_mb": "ru_maxrss of the benchmark process after the timed loop",
    }
    for name, value in timings(raw).items():
        notes[name] += f"; unscaled {value:.6g}"
    return values, notes


def per_layer(names, tracer, results, untraced_s, traced_s) -> dict:
    by = tracer.by_name()
    entries = tracer.layer_entries()

    def calls(name):
        return by.get(name, (0, 0.0, 0.0))[0]

    def incl(name):
        return by.get(name, (0, 0.0, 0.0))[2]

    def layer_self(layer):
        return sum(v[1] for n, v in by.items() if n.split(".", 1)[0] == layer)

    margins = next((r.margins for r in results if r.margins), {})
    fixed = {
        "cli.self_s": layer_self("cli"),
        "cli.build_parser_s": incl("cli.build_parser"),
        "cli.write_s": incl("cli._write_lines"),
        "forms.calls": entries.get("forms", 0),
        "forms.self_s": layer_self("forms"),
        "forms.coeff_calls": sum(calls(f"forms.{f}") for f in
                                 ("coeff_a", "coeff_b", "lombardi_ogilvie_c")),
        "forms.angle_calls": calls("forms.angle_variables"),
        "specfun.self_s": layer_self("specfun"),
        "hydrogenic.radial_calls": calls("hydrogenic.radial_wavefunction"),
        "hydrogenic.self_s": layer_self("hydrogenic"),
        "hydrogenic.expectation_p2_s": incl("hydrogenic.expectation_p2"),
        "transform.quad_calls": calls("transform.quad"),
        "transform.integrand_evals": tracer.integrand_evals,
        "transform.quad_s": incl("transform.quad"),
        "transform.self_s": layer_self("transform"),
        "trace.overhead_frac": traced_s / untraced_s - 1.0,
    }
    imports = import_seconds([n.removeprefix("setup.import_s.") for n in names
                              if n.startswith("setup.import_s.")])
    values = {}
    for name in names:
        kind, _, rest = name.partition(".")
        if name in fixed:
            values[name] = fixed[name]
        elif name.startswith("setup.import_s."):
            values[name] = imports[name.removeprefix("setup.import_s.")]
        elif name.startswith("specfun.calls."):
            values[name] = calls(f"specfun.{name.removeprefix('specfun.calls.')}")
        elif name.startswith("verification.suite_s."):
            values[name] = incl(f"verification.{SUITES[name.rsplit('.', 1)[1]][1]}")
        elif name.startswith("verification.margin_digits."):
            values[name] = margins.get(name.rsplit(".", 1)[1], 0.0)
        else:
            raise KeyError(f"no rule for per-layer metric {name!r}")
    return values


def run_info() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "hmomentum").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    import mpmath
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hmomentum" / "cli.py").is_file():
        print(f"bench: no package sources under {SRC}", file=sys.stderr)
        return 2
    try:
        oracle.self_check()
    except AssertionError as exc:
        print(f"bench: oracle self-check failed: {exc}", file=sys.stderr)
        return 3
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    sys.path.insert(0, str(SRC))
    import hmomentum.cli as cli

    OUT.mkdir(exist_ok=True)
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir()
    try:
        setup = []  # (scaled, raw) set-up samples of an untraced run
        if args.trace:
            reqs = workloads.trace_requests(args.workload, args.seed)
            untraced_s = sum(r.seconds for r in run_requests(cli, reqs, tmp))
            tracer = Tracer()
            tracer.install()
            try:
                results = run_requests(cli, reqs, tmp, tracer.call_request)
            finally:
                tracer.uninstall()
            for res in results:
                judge(res)
            traced_s = sum(r.seconds for r in results)
            values = per_layer(list(units), tracer, results, untraced_s, traced_s)
            notes = {n: f"traced run of {len(reqs)} requests" for n in values}
            tracer.save(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
        else:
            results, setup, reference_s, rss_mb = measure(cli, args.workload, args.seed,
                                                          args.seconds, tmp)
            for res in results:
                judge(res)
            values, notes = end_to_end(args.workload, results, setup, rss_mb)
            notes["request_ms"] += f"; median reference loop {reference_s * 1e3:.4g} ms"
    finally:
        for path in tmp.iterdir():
            path.unlink()
        tmp.rmdir()

    missing = set(units) - set(values)
    if missing:
        raise KeyError(f"declared metrics not measured: {sorted(missing)}")
    malformed = [r for r in results if r.malformed]
    failed = [r for r in results if not r.passed]
    reasons = {}
    for r in failed:
        why = r.error or ("malformed" if r.malformed else "oracle")
        reasons[why] = reasons.get(why, 0) + 1
    info = run_info()
    out = {
        "correct": not malformed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in units},
    }
    print(f"bench: workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("bench: " + ", ".join(f"{k}={v}" for k, v in info.items()))
    print(f"bench: {len(results)} requests attempted, {len(failed)} failed "
          f"{json.dumps(reasons, sort_keys=True)}")
    for r in malformed[:5]:
        print(f"bench: malformed output of {' '.join(r.request.argv)}: {r.malformed}")
    for name in units:
        print(f"{name} = {values[name]:.6g} {units[name]} ({notes[name]})")
    record = dict(out, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, info=info, failures=reasons,
                  notes=notes, setup=setup,
                  requests=[[r.seconds, r.reference, r.work, r.passed] for r in results])
    (OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
