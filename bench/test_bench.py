"""Self-tests of the benchmark.  Run from the root of the repository:

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

import hmomentum.cli as cli  # noqa: E402
from hmomentum.forms import FORM_EVALUATORS  # noqa: E402
from hmomentum.hydrogenic import PhysicalScale, QuantumState, expectation_p2  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def first_rounds(workload, seed, n=2):
    stream = workloads.rounds(workload, seed)
    return [next(stream) for _ in range(n)]


@pytest.fixture
def scratch():
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=ROOT / ".bench_out", prefix="selftest-"))
    yield path
    shutil.rmtree(path)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_requests(workload):
    assert first_rounds(workload, 7) == first_rounds(workload, 7)
    assert workloads.trace_requests(workload, 7) == workloads.trace_requests(workload, 7)
    if workload != "verify-default":
        assert first_rounds(workload, 7) != first_rounds(workload, 8)


def test_run_size_is_fixed_by_the_arguments():
    assert workloads.round_count("table-sweep", 18) == 3
    assert workloads.round_count("eval-stream", 18) == 48
    assert workloads.round_count("verify-default", 18) == 20
    assert all(workloads.round_count(w, 0.01) == 1 for w in workloads.WORKLOADS)


def test_rounds_are_stratified():
    table = first_rounds("table-sweep", 3, 1)[0]
    assert sorted(r.form for r in table) == sorted(workloads.FORMS * 5)
    assert max(r.N for r in table) > 30
    assert all(100 <= r.count <= 100_000 and 0 <= r.l < r.N for r in table)
    assert all(r.pmin == 0.0 for r in table if r.form == "podolsky_pauling")
    evals = first_rounds("eval-stream", 3, 1)[0]
    assert sorted(r.N for r in evals) == list(range(1, 201))
    assert all(0 <= r.l < r.N for r in evals)


@pytest.mark.parametrize("form", sorted(FORM_EVALUATORS))
def test_oracle_agrees_with_library_for_small_N(form):
    for N in range(1, 9):
        for l in range(N):
            for hb in (1e-3, 1.0, 37.0):
                state = QuantumState(N, l, PhysicalScale(1.0, hb))
                qs = (0.0, 0.1, 0.5, 1.3, 4.0) if form == "podolsky_pauling" \
                    else (-0.7, 0.0, 0.1, 0.5, 1.3, 4.0)
                points = [(q * hb, FORM_EVALUATORS[form](state, q * hb)) for q in qs]
                assert min(oracle.check_grid(form, N, l, hb, points)) >= 11.0, (N, l, hb)


def test_oracle_self_check_catches_a_broken_oracle(monkeypatch):
    oracle.self_check()
    monkeypatch.setattr(oracle, "trig_coefficients", lambda N, l: [3] * (N - l))
    with pytest.raises(AssertionError):
        oracle.self_check()
    assert run.main(["--workload", "eval-stream", "--seed", "1", "--seconds", "1"]) == 3


def test_perturbed_value_counts_as_failed(scratch):
    req = workloads.table_request("trig", 3, 1, -4.0, 5.0, 200, 2.0, range(0, 200, 9))
    seconds, code, error, stdout = run.execute(cli, req, scratch / "out")
    good = run.collect(req, seconds, code, error, stdout, scratch / "out")
    bad = run.collect(req, seconds, code, error, stdout, scratch / "out")
    p, value = bad.values[5]
    bad.values = bad.values[:5] + ((p, value * (1 + 1e-7)),) + bad.values[6:]
    for res in (good, bad):
        res.reference = run.REFERENCE_NOMINAL_S
        run.judge(res)
    assert good.passed and not bad.passed and not bad.malformed
    values, _ = run.end_to_end("table-sweep", [good, bad], [(0.5, 0.6)], 100.0)
    assert values["passed_frac"] == 0.5
    # correct_digits counts the points of failed requests too, so it can
    # fall below the pass threshold.
    assert bad.digits < values["correct_digits"] < 11.0 <= good.digits


def test_table_file_is_checked_for_rows_and_newline(scratch):
    req = workloads.table_request("trig", 2, 0, -1.0, 1.0, 3, 1.0, (0, 2))
    rows = "p,re,im,abs2\n-1,0.5,0.5,0.5\n0,1,0,1\n1,0.5,-0.5,0.5"
    for text, ok in ((rows + "\n", True), (rows, False), (rows + "\n1,0,0,0\n", False)):
        (scratch / "out").write_text(text, encoding="ascii")
        res = run.collect(req, 0.001, 0, "", "", scratch / "out")
        assert bool(res.malformed) != ok, (text, res.malformed)
    assert [p for p, _ in res.values] == [-1.0, 1.0] or not ok


def _dense_max(form, N, l, hb, count):
    """Max |oracle| over `count` momenta evenly spaced in theta."""
    thetas = [(i + 0.5) * (math.pi / 2) / count for i in range(count)]
    return max(abs(oracle.psi(form, N, l, hb, hb * math.tan(t))) for t in thetas)


@pytest.mark.parametrize("form, N, l", [
    ("trig", 200, 150), ("trig", 200, 180), ("trig", 120, 60), ("trig", 200, 100),
    ("podolsky_pauling", 200, 1), ("podolsky_pauling", 200, 100),
    ("podolsky_pauling", 150, 37), ("podolsky_pauling", 60, 59)])
def test_peak_bounds_the_state_up_to_N_200(form, N, l):
    """No momentum on a grid of about two points per lobe beats the located
    peak by more than the scan's 0.3%, and the peak is an oracle value."""
    hb = 0.37
    top = oracle.peak(form, N, l, hb)
    assert _dense_max(form, N, l, hb, 2 * N + 30) <= 1.003 * top
    assert top == abs(oracle.psi(form, N, l, hb, hb * oracle.peak_momentum(form, N, l)))


def test_lombardi_ogilvie_peaks_with_trig():
    N, l, hb = 30, 7, 2.0
    assert oracle.peak_momentum("lombardi_ogilvie", N, l) == oracle.peak_momentum("trig", N, l)
    ratios = [abs(oracle.psi("lombardi_ogilvie", N, l, hb, p)) / abs(oracle.psi("trig", N, l, hb, p))
              for p in (-3.0, 0.0, 0.1, 1.7)]
    assert max(ratios) - min(ratios) <= 1e-12 * max(ratios)


def test_eval_tolerance_is_relative_to_the_state_peak():
    # Podolsky-Pauling N=40, l=1 peaks near p = 0.026 hbar beta, 70 times
    # above its value at p = hbar beta.
    N, l, hb, p = 40, 1, 1.0, 1.0
    exact = oracle.psi("podolsky_pauling", N, l, hb, p)
    top = oracle.peak("podolsky_pauling", N, l, hb)
    assert top > 10 * abs(exact)
    assert oracle.passes(oracle.check_point("podolsky_pauling", N, l, hb, p, exact + 0.9e-11 * top))
    assert not oracle.passes(oracle.check_point("podolsky_pauling", N, l, hb, p,
                                                exact + 1.1e-11 * top))


def test_failing_verify_report_is_failed_not_malformed(scratch):
    report = {"overall_pass": False, "results": [
        {"name": name, "max_residual": float("inf") if key == "quadrature" else 0.0,
         "tolerance": 1e-7, "passed": key != "quadrature"}
        for key, (name, _) in run.SUITES.items()]}
    (scratch / "out").write_text(json.dumps(report), encoding="ascii")
    res = run.collect(workloads.VERIFY, 0.5, 1, "", "", scratch / "out")
    run.judge(res)
    assert not res.malformed and not res.passed
    assert res.margins["quadrature"] == -oracle.MAX_DIGITS


def test_malformed_output_is_not_correct(scratch):
    req = workloads.eval_request("trig", 2, 0, 0.5, 1.0)
    res = run.collect(req, 0.001, 0, "", "0.5,1,2\n", scratch / "out")
    assert res.malformed
    res = run.collect(req, 0.001, None, "SystemExit(2)", "", scratch / "out")
    assert res.malformed


def traced_counts(reqs, scratch):
    tracer = Tracer()
    tracer.install()
    try:
        run.run_requests(cli, reqs, scratch, tracer.call_request)
        expectation_p2(QuantumState(2, 1))
    finally:
        tracer.uninstall()
    return {n: c for n, (c, _, _) in tracer.by_name().items()}, tracer


def test_tracer_counts_repeat_and_restore(scratch):
    reqs = workloads.trace_requests("eval-stream", 5)[:20] + [
        workloads.table_request("script_D", 6, 2, -3.0, 3.0, 50, 1.0, range(0, 50, 7))]
    original = cli.main
    first, tracer = traced_counts(reqs, scratch)
    second, _ = traced_counts(reqs, scratch)
    assert first == second
    assert cli.main is original
    assert not any(hasattr(fn, "__wrapped__") for fn in FORM_EVALUATORS.values())
    assert first["cli.main"] == len(reqs)
    # quad imported inside hydrogenic.expectation_p2 is caught too.
    assert first["transform.quad"] == 1 and tracer.integrand_evals > 0
    assert first["specfun.gegenbauer_script_D1"] > 0


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_printed_metric_names_are_declared(trace):
    proc = run_bench("--workload", "eval-stream", "--seed", "2", "--seconds", "0.5",
                     "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace == "1" else "end_to_end"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    printed = {line.split(" = ")[0] for line in lines[:-1] if " = " in line}
    assert printed == set(declared)
    if trace == "1":
        assert result["metrics"]["transform.quad_calls"]["value"] == 0
        assert result["metrics"]["transform.integrand_evals"]["value"] == 0


def test_fails_without_package_sources(scratch):
    shutil.copy(ROOT / "BENCHMARK.json", scratch)
    shutil.copytree(BENCH, scratch / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench("--workload", "table-sweep", "--seed", "1", "--seconds", "1", cwd=scratch)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_metrics_json_covers_benchmark_json():
    doc = json.loads((BENCH / "metrics.json").read_text())
    e2e = [m["name"] for m in SPEC["end_to_end"]]
    workload_names = [w["name"] for w in SPEC["workloads"]]
    assert workload_names == list(workloads.WORKLOADS)
    assert list(doc["end_to_end"]) == e2e
    assert list(doc["per_layer"]) == [m["name"] for m in SPEC["per_layer"]]
    for entry in doc["end_to_end"].values():
        assert set(entry["meaning"]) == set(workload_names)
    for entry in doc["per_layer"].values():
        for metric, workload in entry["moves"]:
            assert metric in e2e and workload in workload_names
