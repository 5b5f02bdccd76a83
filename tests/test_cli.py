"""CLI behavior: record formats, exit codes, file output."""

import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import textwrap
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hmomentum import cli, forms, verification
from hmomentum.cli import CSV_BLOCK_ROWS, EXIT_IO, EXIT_OK, EXIT_USAGE, main
from hmomentum.verification import SUITES


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def parse_csv(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    return header, rows


class TestEval:
    def test_trig_ground_state(self, capsys):
        code, out = run_cli(capsys, "eval", "trig", "1", "0", "--p", "1.0")
        assert code == EXIT_OK
        p, re, im, abs2 = (float(x) for x in out.strip().split(","))
        assert (p, re, im, abs2) == pytest.approx((1.0, 0.0, 1.0, 1.0), abs=1e-14)

    def test_trig_at_zero(self, capsys):
        code, out = run_cli(capsys, "eval", "trig", "1", "0", "--p", "0")
        assert code == EXIT_OK
        vals = [float(x) for x in out.strip().split(",")]
        assert vals == pytest.approx([0.0, 2.0, 0.0, 4.0])

    @pytest.mark.parametrize("form,p,record", [
        ("trig", "0", "0,2.0655911179772892,0,4.2666666666666675"),
        ("trig", "-0.0", "-0,2.0655911179772892,0,4.2666666666666675"),
        ("lombardi_ogilvie", "0", "0,-0.13333333333333333,-0,0.017777777777777778"),
        ("lombardi_ogilvie", "-0.0", "-0,-0.13333333333333333,-0,0.017777777777777778"),
        ("podolsky_pauling", "0", "0,0,0,0"),
        ("podolsky_pauling", "-0.0", "-0,-0,0,0"),
    ])
    def test_signed_zero_momentum(self, capsys, form, p, record):
        """(4, 1) at p = 0 and -0, signs of zero included: psi's imaginary
        part is +0 at both, because x + 1j*y adds +0 to a zero y (an angle
        built as complex(x, -0.0) would print -0 here), and alpha's is -0 at
        both, from (-1)^l."""
        code, out = run_cli(capsys, "eval", form, "4", "1", f"--p={p}")
        assert code == EXIT_OK
        assert out == record + "\n"

    def test_forms_agree(self, capsys):
        _, out_t = run_cli(capsys, "eval", "trig", "3", "1", "--p", "0.7")
        _, out_g = run_cli(capsys, "eval", "gegenbauer", "3", "1", "--p", "0.7")
        vt = [float(x) for x in out_t.strip().split(",")]
        vg = [float(x) for x in out_g.strip().split(",")]
        assert vg == pytest.approx(vt, abs=1e-12)

    @pytest.mark.parametrize("N,l,p", [("1", "0", "0"), ("3", "1", "0.7"),
                                       ("12", "5", "-2.5"), ("60", "0", "0.01")])
    def test_trig_gegenbauer_script_D_identical(self, capsys, N, l, p):
        """The three expansions are one function: byte-identical records."""
        outs = {run_cli(capsys, "eval", form, N, l, "--p", p)
                for form in ("trig", "gegenbauer", "script_D")}
        assert len(outs) == 1

    @pytest.mark.parametrize("form", ["trig", "lombardi_ogilvie", "podolsky_pauling"])
    def test_large_N(self, capsys, form):
        code, out = run_cli(capsys, "eval", form, "200", "0", "--p", "0.3")
        assert code == EXIT_OK
        vals = [float(x) for x in out.strip().split(",")]
        assert all(math.isfinite(v) for v in vals)
        assert vals[3] > 0

    def test_hbar_beta_flag(self, capsys):
        # psi scales as beta^{-1/2} psi_1(p/beta): density 1/2 at p = 2, beta = 2
        code, out = run_cli(capsys, "eval", "trig", "1", "0",
                            "--p", "2.0", "--hbar-beta", "2.0")
        assert code == EXIT_OK
        abs2 = float(out.strip().split(",")[3])
        assert abs2 == pytest.approx(0.5, rel=1e-12)

    def test_hbar_flag(self, capsys):
        """At fixed hbar beta, psi_trig goes as beta^{-1/2}: hbar = 2 halves
        beta, which multiplies the record by sqrt(2)."""
        argv = ("eval", "trig", "5", "2", "--p", "0.7", "--hbar-beta", "3")
        _, out_1 = run_cli(capsys, *argv)
        _, out_2 = run_cli(capsys, *argv, "--hbar", "2")
        _, re_1, im_1, _ = (float(x) for x in out_1.split(","))
        _, re_2, im_2, _ = (float(x) for x in out_2.split(","))
        expected = math.sqrt(2.0) * complex(re_1, im_1)
        assert abs(complex(re_2, im_2) - expected) <= 1e-15 * abs(expected)

    @pytest.mark.parametrize("argv,out,err", [
        (["6", "5", "--p", "1e-212", "--hbar-beta", "1e-210"], "", "abs2 is inf at p=1e-212,"),
        (["3", "1", "--p", "0", "--hbar-beta", "1e-300"], "0,0,0,0\n", ""),
        (["1", "0", "--p", "1e155", "--hbar-beta", "1e-200"], "1e+155,0,0,0\n", ""),
    ], ids=["abs2 past", "zero at p=0", "zero far out"])
    def test_pp_at_tiny_hbar_beta(self, capsys, argv, out, err):
        """G's (hbar beta)^{-3/2} is past the largest double below hbar beta =
        1e-205, but G need not be: G_{65} = 1.5194e307 here, of which only the
        square is past it, and G is 0 at p = 0 for l >= 1 and far past hbar beta."""
        code = main(["eval", "podolsky_pauling", *argv])
        captured = capsys.readouterr()
        assert (code, captured.out) == (EXIT_USAGE if err else EXIT_OK, out)
        assert err in captured.err

    @pytest.mark.parametrize("form", ["lombardi_ogilvie", "podolsky_pauling"])
    def test_hbar_beta_alone(self, capsys, form):
        """Forms that depend on hbar beta alone print the same bytes at any hbar."""
        argv = ("eval", form, "5", "2", "--p", "0.7", "--hbar-beta", "3")
        assert run_cli(capsys, *argv) == run_cli(capsys, *argv, "--hbar", "2")

    @pytest.mark.parametrize("flags", [["--physical"], ["--Z", "2"], ["--mu", "2"],
                                       ["--alpha-fs", "0.1"], ["--c", "2"]], ids=" ".join)
    def test_no_physical_mode(self, capsys, flags):
        """The scale is hbar and hbar beta; there are no physical-mode flags."""
        with pytest.raises(SystemExit) as err:
            main(["eval", "trig", "3", "1", "--p", "0.7", *flags])
        assert err.value.code == 2

    def test_invalid_state_usage_error(self, capsys):
        code, _ = run_cli(capsys, "eval", "trig", "0", "0", "--p", "1.0")
        assert code == EXIT_USAGE
        code, _ = run_cli(capsys, "eval", "trig", "2", "2", "--p", "1.0")
        assert code == EXIT_USAGE

    def test_unknown_form_argparse_exit(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["eval", "bogus", "1", "0", "--p", "1.0"])
        assert err.value.code == 2

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "out.csv"
        code, out = run_cli(capsys, "eval", "trig", "1", "0", "--p", "1.0",
                            "--output", str(target))
        assert code == EXIT_OK
        assert out == ""
        assert target.read_text().strip().split(",")[0] == "1"


class TestTable:
    def test_header_and_length(self, capsys):
        code, out = run_cli(capsys, "table", "trig", "2", "1",
                            "--pmin", "-5", "--pmax", "5", "--count", "11")
        assert code == EXIT_OK
        header, rows = parse_csv(out)
        assert header == ["p", "re", "im", "abs2"]
        assert len(rows) == 11

    def test_conjugate_symmetry(self, capsys):
        _, out = run_cli(capsys, "table", "trig", "3", "0",
                         "--pmin", "-4", "--pmax", "4", "--count", "9")
        _, rows = parse_csv(out)
        by_p = {row[0]: row for row in rows}
        for p in (1.0, 2.0, 3.0, 4.0):
            assert by_p[-p][1] == pytest.approx(by_p[p][1], abs=1e-13)
            assert by_p[-p][2] == pytest.approx(-by_p[p][2], abs=1e-13)

    def test_grid_validation(self, capsys):
        code, _ = run_cli(capsys, "table", "trig", "1", "0",
                          "--pmin", "1", "--pmax", "1", "--count", "5")
        assert code == EXIT_USAGE
        code, _ = run_cli(capsys, "table", "trig", "1", "0",
                          "--pmin", "0", "--pmax", "1", "--count", "1")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("p", ["1e308", "1.7976931348623157e308"])
    def test_grid_at_edge_of_double_range(self, capsys, p):
        """pmax - pmin above the double range: the grid is still the finite
        linspace, with no numpy warning."""
        code, out = run_cli(capsys, "table", "trig", "1", "0",
                            f"--pmin=-{p}", "--pmax", p, "--count", "3")
        assert code == EXIT_OK and capsys.readouterr().err == ""
        _, rows = parse_csv(out)
        assert [r[0] for r in rows] == [-float(p), 0.0, float(p)]
        assert np.all(np.isfinite(rows))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.floats(-300, 300), min_size=2, max_size=2),
           st.lists(st.sampled_from([-1.0, 1.0]), min_size=2, max_size=2), st.integers(2, 300))
    def test_grid_is_linspace(self, exponents, signs, count):
        """On ranges inside the double range the grid is np.linspace's, bit
        for bit."""
        pmin, pmax = sorted(s * 10.0 ** e for s, e in zip(signs, exponents))
        assert np.array_equal(cli._grid(pmin, pmax, count), np.linspace(pmin, pmax, count))


class TestCsvText:
    @pytest.mark.parametrize("argv", [
        ["table", "podolsky_pauling", "3", "1", "--pmin", "0", "--pmax", "3e17"],
        ["table", "trig", "2", "1", "--pmin", "0", "--pmax", "2e18", "--hbar-beta", "1e16"],
        ["plot", "PP", "3", "--pmax", "2e17", "--hbar-beta", "3e16"],
        ["plot", "LO", "3", "--pmax", "2e17", "--hbar-beta", "3e16"],
    ], ids=" ".join)
    def test_same_bytes_to_file(self, capsys, tmp_path, argv):
        """table and plot write the same bytes to --output as to stdout, every
        field as '%.17g' formats it, over several blocks holding zeros,
        values below 1e-4 and values at or above 1e17."""
        count = 2 * CSV_BLOCK_ROWS + 5
        argv = argv + ["--count", str(count)]
        code, out = run_cli(capsys, *argv)
        assert code == EXIT_OK
        target = tmp_path / "out.csv"
        assert run_cli(capsys, *argv, "--output", str(target)) == (EXIT_OK, "")
        assert target.read_bytes() == out.encode("ascii")
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert len(rows) == count
        assert all(field == "%.17g" % float(field) for row in rows for field in row)
        magnitude = np.abs(np.array(rows, dtype=float))
        assert (magnitude == 0).any() and (magnitude >= 1e17).any()
        assert ((0 < magnitude) & (magnitude < 1e-4)).any()


class TestPlot:
    def test_pp_ground_state_values(self, capsys):
        code, out = run_cli(capsys, "plot", "PP", "1", "--pmax", "2", "--count", "3")
        assert code == EXIT_OK
        header, rows = parse_csv(out)
        assert header == ["p", "density"]
        assert rows[0] == pytest.approx([0.0, 1.0], abs=1e-15)
        assert rows[1] == pytest.approx([1.0, 1.0 / 16.0], abs=1e-15)

    def test_lo_symmetric_grid(self, capsys):
        code, out = run_cli(capsys, "plot", "LO", "1", "--pmax", "1", "--count", "3")
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        assert [r[0] for r in rows] == [-1.0, 0.0, 1.0]
        assert rows[0][1] == pytest.approx(0.25, abs=1e-15)
        assert rows[2][1] == pytest.approx(0.25, abs=1e-15)

    def test_pp_node_for_excited(self, capsys):
        _, out = run_cli(capsys, "plot", "PP", "2", "--pmax", "2", "--count", "3")
        _, rows = parse_csv(out)
        assert rows[0] == pytest.approx([0.0, 0.0], abs=1e-15)

    @pytest.mark.parametrize("form", ["LO", "PP"])
    def test_grid_at_edge_of_double_range(self, capsys, form):
        code, out = run_cli(capsys, "plot", form, "2", "--pmax", "1e308", "--count", "3")
        assert code == EXIT_OK and capsys.readouterr().err == ""
        _, rows = parse_csv(out)
        assert rows[-1][0] == 1e308 and np.all(np.isfinite(rows))

    def test_invalid_N(self, capsys):
        code, _ = run_cli(capsys, "plot", "PP", "0")
        assert code == EXIT_USAGE

    def test_huge_N_in_log_time(self, capsys):
        """The shapes take O(log N) steps: LO at N = 2^40 is 1 at p = 0 and 0
        at +-5, at once."""
        start = time.perf_counter()
        code, out = run_cli(capsys, "plot", "LO", str(2 ** 40), "--count", "3")
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_OK and parse_csv(out)[1] == [[-5.0, 0.0], [0.0, 1.0], [5.0, 0.0]]

    @pytest.mark.parametrize("N", [2 ** 50 + 1, 2 ** 63 - 1])
    def test_N_past_the_largest_named(self, capsys, N):
        """Past MAX_SHAPE_N = 2^50 a shape's powers of 2 could leave int64:
        a usage error that names N, not an overflow, at once."""
        start = time.perf_counter()
        assert main(["plot", "LO", str(N)]) == EXIT_USAGE
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: N must be in [1, 2^50], got {N}\n"

    @pytest.mark.parametrize("hbar", ["2", "0", "-1", "nan", "inf"])
    def test_no_hbar_flag(self, hbar):
        """Both shapes depend on hbar beta alone, so plot has no --hbar."""
        with pytest.raises(SystemExit) as err:
            main(["plot", "LO", "2", "--hbar", hbar])
        assert err.value.code == 2

    def test_io_error(self, capsys):
        code, _ = run_cli(capsys, "plot", "LO", "1",
                          "--output", "/nonexistent-dir/x.csv")
        assert code == EXIT_IO


class TestVerify:
    def test_single_fast_suite(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, _ = run_cli(capsys, "verify", "--suite", "so4_constancy",
                          "--output", str(target))
        assert code == EXIT_OK
        report = json.loads(target.read_text())
        assert report["overall_pass"] is True
        assert report["results"][0]["name"] == "so4_form_constancy"

    def test_repeated_suite_runs_once(self, capsys):
        code, out = run_cli(capsys, "verify", "--suite", "uncertainty", "--suite", "uncertainty")
        assert code == EXIT_OK
        assert [r["name"] for r in json.loads(out)["results"]] == ["uncertainty_bound"]

    def test_impossible_tolerance_fails(self, capsys, monkeypatch):
        """The kernel off by 1e-9, past form_equivalence's tolerance of
        1e-11, fails the run."""
        def perturbed(states, p, **kwargs):
            return forms._kernel_stack(states, p, **kwargs) * (1.0 + 1e-9)

        monkeypatch.setattr(verification, "_kernel_stack", perturbed)
        code, out = run_cli(capsys, "verify", "--suite", "form_equivalence")
        assert code == 1
        assert json.loads(out)["overall_pass"] is False

    def test_subnormal_scale_passes_cleanly(self, capsys):
        """At a subnormal hbar beta so4_constancy takes G (hbar beta)^{3/2} at
        unit scale: the suite passes, with no crash or numpy warning."""
        code = main(["verify", "--hbar-beta", "1e-310", "--suite", "so4_constancy"])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        (result,) = json.loads(captured.out)["results"]
        assert result["passed"] and result["details"].startswith("worst at (N=")

    def test_no_tol_scale(self, capsys):
        """Each suite's tolerance is a constant; no flag scales it."""
        with pytest.raises(SystemExit) as err:
            main(["verify", "--tol-scale", "10"])
        assert err.value.code == 2

    def test_crashing_suite_is_reported(self, capsys, monkeypatch):
        """A suite that raises is reported failed; the report still comes
        out, and the other suites run."""
        def crash(scale):
            raise RuntimeError("boom")

        monkeypatch.setitem(SUITES, "uncertainty", crash)
        code, out = run_cli(capsys, "verify")
        assert code == 1
        report = json.loads(out)
        assert report["overall_pass"] is False
        failed = [r for r in report["results"] if not r["passed"]]
        assert [r["name"] for r in failed] == ["uncertainty"]
        assert failed[0]["max_residual"] == math.inf
        assert "RuntimeError" in failed[0]["details"]
        assert len(report["results"]) == 7

    @pytest.mark.parametrize("hbar_beta", ["1e-8", "1e-4", "1e4", "3e153"])
    def test_every_suite_passes_off_unit_scale(self, capsys, hbar_beta):
        """Every suite passes far from hbar beta = 1, with nothing on stderr;
        at 3e153 the diagonalization's (2 beta)^2 overflowed, with numpy
        warnings, before it was taken at unit scale."""
        code = main(["verify", "--hbar-beta", hbar_beta])
        captured = capsys.readouterr()
        assert code == EXIT_OK, captured.out
        assert json.loads(captured.out)["overall_pass"] is True
        assert captured.err == ""

    def test_unknown_suite_argparse_exit(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["verify", "--suite", "bogus"])
        assert err.value.code == 2

    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2


class TestUsageErrors:
    """Input outside the domain exits 2 with a message, never a traceback."""

    @pytest.mark.parametrize("argv", [
        # Podolsky-Pauling is defined for p >= 0
        ["eval", "podolsky_pauling", "3", "1", "--p", "-1"],
        ["eval", "podolsky_pauling", "3", "1", "--p=-inf"],
        ["table", "podolsky_pauling", "3", "1", "--pmin", "-1", "--pmax", "1"],
        # non-finite momenta and scales
        ["eval", "trig", "3", "1", "--p", "nan"],
        ["eval", "trig", "3", "1", "--p", "inf"],
        ["eval", "lombardi_ogilvie", "3", "1", "--p=-inf"],
        ["eval", "trig", "3", "1", "--p", "1", "--hbar-beta", "nan"],
        ["eval", "trig", "3", "1", "--p", "1", "--hbar-beta", "inf"],
        ["table", "trig", "3", "1", "--pmin", "0", "--pmax", "inf"],
        ["table", "trig", "3", "1", "--pmin", "nan", "--pmax", "1"],
        ["table", "trig", "3", "1", "--pmin", "0", "--pmax", "1", "--hbar-beta", "nan"],
        ["plot", "LO", "2", "--pmax", "inf"],
        ["plot", "PP", "2", "--pmax", "nan"],
        ["plot", "LO", "2", "--hbar-beta", "inf"],
        ["plot", "LO", "2", "--hbar-beta", "0"],
        ["verify", "--suite", "so4_constancy", "--hbar-beta", "nan"],
        *[argv + ["--hbar", hbar] for argv in (
            ["eval", "trig", "3", "1", "--p", "1"],
            ["table", "trig", "3", "1", "--pmin", "0", "--pmax", "1"])
          for hbar in ("0", "-1", "nan", "inf")],
        # the remaining flag checks
        ["verify", "--suite", "so4_constancy", "--hbar-beta", "0"],
        ["verify", "--suite", "so4_constancy", "--hbar-beta", "-1"],
        ["plot", "PP", "2", "--count", "0"],
        ["plot", "LO", "2", "--count", "1"],
        # grids of 7.1 PiB: numpy refuses the allocation at once
        ["table", "trig", "2", "0", "--pmin", "0", "--pmax", "1",
         "--count", "1000000000000000"],
        ["plot", "LO", "2", "--count", "1000000000000000"],
        # values outside double range: G's (hbar beta)^{-3/2} overflows a float,
        # its square overflows, and the PP shape's (hbar beta)^{-8} overflows
        ["eval", "podolsky_pauling", "1", "0", "--p", "0", "--hbar-beta", "1e-210"],
        ["eval", "podolsky_pauling", "1", "0", "--p", "0", "--hbar-beta", "1e-200"],
        ["plot", "PP", "2", "--hbar-beta", "1e-200", "--count", "3"],
    ], ids=" ".join)
    def test_exit_2(self, capsys, argv):
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize("argv", [
        # past numpy's largest float64 array: refused before anything is made
        ["table", "trig", "2", "1", "--pmin", "0", "--pmax", "1", "--count", str(2 ** 63)],
        ["table", "trig", "2", "1", "--pmin", "0", "--pmax", "1", "--count", str(10 ** 20)],
        ["plot", "LO", "2", "--count", str(2 ** 63)],
        # plot's grid is [0, pmax] or [-pmax, pmax]
        ["plot", "PP", "3", "--pmax", "-1"],
        ["plot", "LO", "3", "--pmax", "-1"],
        ["plot", "PP", "3", "--pmax", "0"],
        ["plot", "LO", "3", "--pmax", "0"],
    ], ids=" ".join)
    def test_grid_flag_named(self, capsys, argv):
        """A grid flag out of range is a usage error that names it."""
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert ("--count" if "--count" in argv else "--pmax") in captured.err

    @pytest.mark.parametrize("argv,names", [
        # the default --pmax, 5 hbar beta, overflows
        (["plot", "LO", "2", "--hbar-beta", "1e308"], []),
        # |psi(0)|^2 overflows, and so does G(0)^2
        (["table", "trig", "1", "0", "--pmin", "0", "--pmax", "1", "--hbar-beta", "1e-310"],
         ["abs2", "p=0.0"]),
        (["eval", "podolsky_pauling", "1", "0", "--p", "0", "--hbar-beta", "1e-200"],
         ["abs2", "p=0.0"]),
        # G(0) itself is past the largest double
        (["eval", "podolsky_pauling", "1", "0", "--p", "0", "--hbar-beta", "1e-310"], []),
        (["table", "podolsky_pauling", "1", "0", "--pmin", "0", "--pmax", "1",
          "--hbar-beta", "1e-310"], ["re", "p=0.0"]),
        # beta = hbar beta / hbar overflows
        (["eval", "trig", "1", "0", "--p", "1", "--hbar", "1e-10", "--hbar-beta", "1e308"],
         ["--hbar 1e-10"]),
        # the PP shape, (hbar beta)^{-8} at p = hbar beta, overflows
        (["plot", "PP", "400", "--hbar-beta", "1e-300"], ["N=400"]),
    ], ids=" ".join)
    def test_overflow_names_the_flag(self, capsys, argv, names):
        """A value past double precision is a usage error that names
        --hbar-beta and its value, and the column and p where it has them."""
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        for name in [f"--hbar-beta {float(argv[-1])!r}", *names]:
            assert name in err
        assert "--pmax must" not in err and "Numerical result" not in err

    @pytest.mark.parametrize("argv", [
        # G_{20000,10000} is 0 at p = hbar beta (odd degree at x = 0) and at
        # p = 0; the recurrence overflows an intermediate and reads NaN
        ["eval", "podolsky_pauling", "20000", "10000", "--p", "1"],
        ["table", "podolsky_pauling", "20000", "10000", "--pmin", "0", "--pmax", "2",
         "--count", "3"],
    ], ids=" ".join)
    def test_nan_is_not_past_double_precision(self, capsys, argv):
        """A NaN is a usage error that names it, and does not call the value
        past double precision, which a NaN is not."""
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "nan" in captured.err and "past double precision" not in captured.err

    @pytest.mark.parametrize("form", sorted(forms.FORM_EVALUATORS))
    @pytest.mark.parametrize("hbar_beta", ["1e-310", "1e-320"])
    def test_subnormal_scale(self, capsys, form, hbar_beta):
        """At a subnormal hbar beta, q = p / hbar beta overflows to inf with
        no numpy warning: LO, 1 at p = 0 and 0 past it, is printed, and the
        other forms, whose values overflow at p = 0, exit 2."""
        code = main(["table", form, "1", "0", "--pmin", "0", "--pmax", "1", "--count", "3",
                     "--hbar-beta", hbar_beta])
        captured = capsys.readouterr()
        if form == "lombardi_ogilvie":
            assert (code, captured.err) == (EXIT_OK, "")
            assert captured.out == "p,re,im,abs2\n0,1,0,1\n0.5,0,0,0\n1,0,0,0\n"
        else:
            assert code == EXIT_USAGE
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        # --hbar would abbreviate --hbar-beta, --c --count
        ["verify", "--suite", "so4_constancy", "--hbar", "2"],
        ["table", "trig", "2", "1", "--pmin", "0", "--pmax", "1", "--c", "2"],
    ], ids=" ".join)
    def test_flags_spelled_in_full(self, capsys, argv):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2


class TestNegativeValues:
    """A negative value reads the same after a space as after '=', in every
    form that float takes, exponent form and -inf included."""

    CASES = [
        (["eval", "trig", "3", "1"], "--p", "-1e-05", ""),
        (["eval", "script_D", "4", "2", "--hbar-beta", "2"], "--p", "-1.5E+2", ""),
        (["table", "trig", "3", "1", "--pmax", "1", "--count", "2"], "--pmin", "-2e1", ""),
        (["table", "lombardi_ogilvie", "2", "0", "--pmin", "-1e3", "--count", "3"],
         "--pmax", "-.5e2", ""),
        (["plot", "LO", "3"], "--pmax", "-1e0", "error: grid needs --pmax > 0\n"),
        (["eval", "trig", "3", "1"], "--p", "-inf", "error: --p must be finite, got -inf\n"),
        (["eval", "trig", "3", "1"], "--p", "-NaN", "error: --p must be finite, got nan\n"),
    ]

    @pytest.mark.parametrize("argv,flag,value,error", CASES,
                             ids=[" ".join(argv + [flag, value]) for argv, flag, value, _ in CASES])
    def test_as_after_equals(self, capsys, argv, flag, value, error):
        """Each exits 0, or 2 with the CLI's own message, not argparse's
        "expected one argument" for a value it reads as an option."""
        results = []
        for tail in ([flag, value], [f"{flag}={value}"]):
            try:
                code = main(argv + tail)
            except SystemExit as exc:  # argparse's own usage error
                code = exc.code
            results.append((code, capsys.readouterr().err))
        assert results[0] == results[1] == ((EXIT_USAGE if error else EXIT_OK), error)

    def test_table_p_back_to_eval(self, capsys):
        """Each p that `table` prints, passed to `eval --p` as printed, is
        printed back the same."""
        _, out = run_cli(capsys, "table", "trig", "3", "1", "--pmin", "-3e-5",
                         "--pmax", "-1e-5", "--count", "3")
        for line in out.splitlines()[1:]:
            p = line.split(",")[0]
            assert "e-05" in p
            _, record = run_cli(capsys, "eval", "trig", "3", "1", "--p", p)
            assert record.split(",")[0] == p


class TestOneParser:
    """`main` builds its parser once per process, and every call behaves
    as it would with a freshly built one."""

    ARGVS = [
        ["eval", "trig", "3", "1", "--p", "0.7", "--hbar-beta", "2"],
        ["verify", "--suite", "bogus"],
        ["eval", "podolsky_pauling", "3", "1", "--p", "0.7"],
        ["-h"],
        ["table", "lombardi_ogilvie", "2", "0", "--pmin", "-1", "--pmax", "1", "--count", "5"],
        ["eval", "trig", "0", "0", "--p", "1"],
        ["plot", "PP", "2", "--count", "4"],
        ["verify", "--suite", "so4_constancy"],
        ["verify"],
    ]

    @staticmethod
    def outcome(argv):
        """Exit code, stdout (a verify report without its timestamp) and
        stderr of main(argv), each stream a new object set after the
        parser was built."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = f"SystemExit({exc.code})"
        text = out.getvalue()
        if argv[0] == "verify" and code in (EXIT_OK, 1):
            text = json.loads(text)
            del text["timestamp"]
        return code, text, err.getvalue()

    def test_calls_match_a_fresh_parser(self, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        monkeypatch.setattr(cli, "_parser", None)
        shared = [self.outcome(argv) for argv in self.ARGVS]
        assert built.count("hmomentum") == 1
        fresh = []
        for argv in self.ARGVS:
            monkeypatch.setattr(cli, "_parser", None)
            fresh.append(self.outcome(argv))
        assert built.count("hmomentum") == 1 + len(self.ARGVS)
        assert shared == fresh
        assert [code for code, _, _ in shared] == [
            EXIT_OK, "SystemExit(2)", EXIT_OK, "SystemExit(0)", EXIT_OK, EXIT_USAGE,
            EXIT_OK, EXIT_OK, EXIT_OK]
        assert "invalid choice: 'bogus'" in shared[1][2]
        assert shared[3][1].startswith("usage: hmomentum")
        assert shared[5][2].startswith("error: ")
        # --suite's list does not carry over: the last call runs every suite.
        assert len(shared[7][1]["results"]) == 1
        assert len(shared[8][1]["results"]) == 7

    def test_command_looked_up_at_call_time(self, monkeypatch):
        """A cmd_* replaced after the parser exists is the one that runs,
        as a tracer that wraps it needs."""
        argv = ["eval", "trig", "3", "1", "--p", "0.7"]
        before = self.outcome(argv)
        assert cli._parser is not None
        calls = []
        original = cli.cmd_eval

        def counting(args):
            calls.append(args.form)
            return original(args)

        monkeypatch.setattr(cli, "cmd_eval", counting)
        assert self.outcome(argv) == before
        assert calls == ["trig"]

    def test_import_builds_no_parser(self):
        run_python("import argparse\n"
                   "built = []\n"
                   "init = argparse.ArgumentParser.__init__\n"
                   "def counting(self, *args, **kwargs):\n"
                   "    built.append(kwargs.get('prog'))\n"
                   "    init(self, *args, **kwargs)\n"
                   "argparse.ArgumentParser.__init__ = counting\n"
                   "import hmomentum.cli\n"
                   "assert built == [], built\n"
                   "hmomentum.cli.main(['eval', 'trig', '1', '0', '--p', '0'])\n"
                   "hmomentum.cli.main(['eval', 'trig', '1', '0', '--p', '1'])\n"
                   "assert built.count('hmomentum') == 1, built\n")


def captured(call):
    """(the items of call()'s namespace, each value by its repr, so that NaN
    equals NaN, or SystemExit's code; stdout; stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = items(call())
        except SystemExit as exc:
            result = f"SystemExit({exc.code})"
    return result, out.getvalue(), err.getvalue()


def items(namespace):
    return [(key, repr(value)) for key, value in vars(namespace).items()]


class TestDispatch:
    """Where argv[0] names a command, `main` reads a plain argv[1:] from
    that command's parser's tables (`cli._read`), with no argparse pass,
    and parses any other with that parser, in one argparse pass; every
    argv gives the namespace, exit code and output of
    build_parser().parse_args(argv)."""

    # (argv, the argparse passes `main` takes to parse it)
    ARGVS = [
        (["eval", "trig", "3", "1", "--p", "0.7", "--hbar-beta", "2", "--hbar", "0.5"], 0),
        (["table", "podolsky_pauling", "4", "2", "--pmin", "0", "--pmax", "3", "--count=7"], 0),
        (["plot", "LO", "3", "--pmax", "4", "--hbar-beta", "1e-3"], 0),
        # a - after = is a value, as argparse has it; int reads 1_0 as 10
        (["plot", "LO", "2", "--pmax=-1e0"], 0),
        (["eval", "trig", "1_0", "3", "--p=1", "--output=a=b"], 0),
        (["verify", "--suite", "uncertainty", "--suite", "so4_constancy", "--output", "r.json"],
         1),
        (["-h"], 1),
        (["eval", "-h"], 1),
        ([], 1),
        (["bogus", "trig", "1", "0"], 1),
        (["eval", "trig", "1", "0", "--p", "1", "--bogus"], 1),
        (["eval", "trig", "1", "0", "7", "--p", "1"], 1),
        (["table", "trig", "1", "0", "--pmin", "0", "--pmax", "1", "--c", "3"], 1),
        (["verify", "--suite", "bogus"], 1),
        (["eval", "trig", "x", "0", "--p", "1"], 1),
        (["eval", "nope", "1", "0", "--p", "1"], 1),
        (["eval", "--p", "1", "--", "trig", "1", "0"], 1),
        (["eval", "trig", "1", "0", "--p", "1", "--p", "2"], 1),
        (["plot", "LO", "2", "--", "-3"], 1),
        (["eval", "trig", "1", "0"], 1),
        # one argv for each argv `_read` leaves to argparse
        (["eval", "trig", "1", "0", "--p="], 1),  # a failed conversion
        (["eval", "trig", "1", "0", "--p"], 1),  # a flag with no value
        (["eval", "trig", "1", "0", "--p=1", "-h"], 1),
        (["eval", "trig", "1", "0", "--p=1", "7"], 1),  # an extra positional
        (["eval", "trig", "1", "0", "--p", "1", "--hbar-beta=2", "--hbar-beta=3"], 1),
        (["eval", "trig", "-1", "0", "--p", "1"], 1),  # a positional that starts with -
        (["verify", "--suite", "uncertainty"], 1),  # an append action
        (["eval", "trig", "3", "1", "--p", "-1e-05"], 1),  # - after a space
    ]

    @pytest.mark.parametrize("argv,count", ARGVS, ids=[" ".join(argv) for argv, _ in ARGVS])
    def test_same_as_the_full_parse(self, monkeypatch, argv, count):
        expected = captured(lambda: cli.build_parser().parse_args(argv))
        handed = []
        for name in ("cmd_eval", "cmd_table", "cmd_plot", "cmd_verify"):
            monkeypatch.setattr(cli, name, lambda args: handed.append(args) or EXIT_OK)
        passes = []
        parse_known_args = argparse.ArgumentParser.parse_known_args

        def counting(parser, *args, **kwargs):
            passes.append(parser.prog)
            return parse_known_args(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting)
        got = captured(lambda: handed[0] if main(argv) == EXIT_OK else None)
        assert got == expected
        assert len(passes) == count, passes
        if count and not isinstance(expected[0], str):
            assert passes == [f"hmomentum {argv[0]}"]


# Tokens that the property test below puts into, or in place of, a token
# of a well-formed argv.
MUTATIONS = ["", "-", "--", "-h", "--help", "-1", "-1e-05", "-.5e2", "-inf", "nan", "-nan",
             "7", "x", "a=b", "--bogus", "--c", "--p=", "--hbar=1"]


def token_of(draw, action):
    """A value that `action` reads: a choice, an int, a float, or a path."""
    if action.choices is not None:
        return draw(st.sampled_from(sorted(action.choices)))
    if action.type is int:
        return str(draw(st.integers(-3, 300)))
    if action.type is float:
        return repr(draw(st.floats(allow_nan=True, allow_infinity=True)))
    return draw(st.sampled_from(["out.csv", "", "a=b", "x y"]))


@st.composite
def command_argv(draw):
    """(argv, plain): an argv drawn from one command's grammar, as its parser
    declares it, its flags in either spelling and in any order among the
    positionals; where drawn, then mutated by up to three tokens from
    MUTATIONS or a repeated flag.  plain: no mutation, no append action,
    and no token that starts with '-' but a flag or an '=' form."""
    cli.build_parser()
    name = draw(st.sampled_from(sorted(cli._command_parsers)))
    command = cli._command_parsers[name]
    plain = True
    positionals = []
    for action in command._get_positional_actions():
        positionals.append([token_of(draw, action)])
        plain &= not positionals[-1][0].startswith("-")
    flags = []
    for action in command._get_optional_actions():
        if action.dest == "help" or not (action.required or draw(st.booleans())):
            continue
        appends = isinstance(action, argparse._AppendAction)
        plain &= not appends
        for _ in range(draw(st.integers(1, 2)) if appends else 1):
            flag, value = action.option_strings[-1], token_of(draw, action)
            spaced = draw(st.booleans())
            plain &= not (spaced and value.startswith("-"))
            flags.append([flag, value] if spaced else [f"{flag}={value}"])
    flags = draw(st.permutations(flags))
    groups = []
    while positionals or flags:
        take = positionals if positionals and (not flags or draw(st.booleans())) else flags
        groups.append(take.pop(0))
    argv = [name] + [token for group in groups for token in group]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2, 3]))):
        plain = False
        at = draw(st.integers(0, len(argv)))
        kind = draw(st.sampled_from(["insert", "replace", "delete", "repeat"]))
        if kind == "repeat" and groups:
            argv += draw(st.sampled_from(groups))
        elif kind == "delete" and at < len(argv):
            del argv[at]
        else:
            argv[at:at + (kind == "replace")] = [draw(st.sampled_from(MUTATIONS))]
    return argv, plain


@settings(max_examples=400, deadline=None, derandomize=True)
@given(command_argv())
def test_reader_as_argparse(drawn):
    """Wherever `_read` reads an argv, it gives argparse's namespace with
    nothing left over, and it reads every plain argv; and `main` gives the
    exit code, stdout and stderr of build_parser().parse_args(argv)."""
    argv, plain = drawn
    command = cli._command_parsers.get(argv[0]) if argv else None
    if command is not None:
        read = cli._read(command, argv[0], argv[1:])
        assert (read is not None) >= plain, argv
        if read is not None:
            args, extra = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
            assert (items(read), extra) == (items(args), []), argv
    handed = []
    stub = dict.fromkeys(["cmd_eval", "cmd_table", "cmd_plot", "cmd_verify"],
                         lambda args: handed.append(args) or EXIT_OK)
    with mock.patch.multiple(cli, **stub):
        got = captured(lambda: handed[0] if main(argv) == EXIT_OK else None)
    assert got == captured(lambda: cli.build_parser().parse_args(argv)), argv


# A value of q = p / hbar beta at which the CLI contract is checked.
CONTRACT_Q = [0.0, 1e-300, -1e-300, 1e-3, -1e-3, 1.0, -1.0, 1e3, -1e3, 1e200, -1e200,
              math.inf, -math.inf, math.nan]


@st.composite
def contract_argv(draw):
    """An eval, table or plot argv over N <= 200, l < N, hbar beta log-uniform in
    [1e-300, 1e300], hbar in [1e-3, 1e3], p = q hbar beta and --count <= 50."""
    command = draw(st.sampled_from(["eval", "table", "plot"]))
    N = draw(st.integers(1, 200))
    hbar_beta = 10.0 ** draw(st.floats(-300.0, 300.0))
    hbar = 10.0 ** draw(st.floats(-3.0, 3.0))

    def momentum():
        return draw(st.sampled_from(CONTRACT_Q)) * hbar_beta

    if command == "plot":
        argv = ["plot", draw(st.sampled_from(["PP", "LO"])), str(N)]
        if draw(st.booleans()):
            argv.append(f"--pmax={momentum()!r}")
        return argv + [f"--count={draw(st.integers(0, 50))}", f"--hbar-beta={hbar_beta!r}"]
    argv = [command, draw(st.sampled_from(sorted(forms.FORM_EVALUATORS))), str(N),
            str(draw(st.integers(0, N - 1)))]
    if command == "eval":
        argv.append(f"--p={momentum()!r}")
    else:
        pmin, pmax = (q * hbar_beta for q in draw(st.lists(
            st.sampled_from(CONTRACT_Q), min_size=2, max_size=2, unique=True)))
        if pmin > pmax:
            pmin, pmax = pmax, pmin
        argv += [f"--pmin={pmin!r}", f"--pmax={pmax!r}", f"--count={draw(st.integers(0, 50))}"]
    return argv + [f"--hbar-beta={hbar_beta!r}", f"--hbar={hbar!r}"]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(contract_argv())
def test_contract(argv):
    """eval, table and plot exit 0 with only finite values, or exit 2 with one
    line on stderr that starts with 'error: ': no traceback and no warning
    (pyproject.toml makes warnings errors)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code == EXIT_OK:
        assert err.getvalue() == ""
        lines = out.getvalue().splitlines()
        if argv[0] != "eval":
            assert lines.pop(0) in ("p,re,im,abs2", "p,density")
        assert lines and all(math.isfinite(float(x)) for line in lines for x in line.split(","))
    else:
        assert code == EXIT_USAGE and out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e))
@example(5e-324)
@example(1e-310)
@example(1e-175)
@example(1e175)
@example(1.7e308)
def test_verify_contract(hbar_beta):
    """verify at any --hbar-beta that is a double exits 0, writes a JSON report
    with overall_pass, and leaves stdout and stderr empty: no traceback and no
    warning (pyproject.toml makes warnings errors)."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "report.json")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["verify", "--hbar-beta", repr(hbar_beta), "--output", path])
        with open(path, encoding="ascii") as handle:
            report = json.load(handle)
    assert (code, out.getvalue(), err.getvalue()) == (EXIT_OK, "", "")
    assert report["overall_pass"] is True and report["config"]["beta"] == hbar_beta


def run_python(code: str) -> str:
    """Run `code` in a new interpreter that imports this checkout's package,
    and return its stdout."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_loads_no_scipy(tmp_path):
    """No command loads scipy: not eval, not table, not verify.  Nor does verify
    load fractions or numpy.polynomial: N_{Nl} is checked in integers, and the
    Gauss-Legendre rules are the package's own."""
    report = str(tmp_path / "report.json")
    code = ("import sys, hmomentum.cli\n"
            "assert not any(m.startswith('scipy') for m in sys.modules)\n"
            "hmomentum.cli.main(['eval', 'trig', '3', '1', '--p', '0.5'])\n"
            "hmomentum.cli.main(['table', 'podolsky_pauling', '3', '1', '--pmin', '0',"
            " '--pmax', '2', '--count', '5'])\n"
            f"assert hmomentum.cli.main(['verify', '--output', {report!r}]) == 0\n"
            "assert not any(m.startswith('scipy') for m in sys.modules)\n"
            "loaded = [m for m in sys.modules if m == 'fractions'"
            " or m.startswith('numpy.polynomial')]\n"
            "assert not loaded, loaded\n")
    run_python(code)


def test_eval_loads_no_numpy():
    """`import hmomentum`, `import hmomentum.cli` and `eval` of every form, and
    its usage errors, import no numpy module: numpy stays a lazy module
    (`hmomentum._numpy`) until a command needs an array."""
    run_python(textwrap.dedent("""\
        import contextlib, io, sys
        def loaded():
            return [m for m in sys.modules if m.startswith('numpy.')]
        import hmomentum
        assert not loaded(), loaded()
        import hmomentum.cli
        assert not loaded(), loaded()
        argvs = [['eval', form, '60', '10', '--p', '0.5', '--hbar-beta', '2']
                 for form in sorted(hmomentum.forms.FORM_EVALUATORS)]
        argvs += [['eval', 'podolsky_pauling', '2', '1', '--p', '-1'],
                  ['eval', 'trig', '3', '3', '--p', '1']]
        with contextlib.redirect_stdout(io.StringIO()) as out, \\
                contextlib.redirect_stderr(io.StringIO()) as err:
            codes = [hmomentum.cli.main(argv) for argv in argvs]
        assert codes == [0] * 5 + [2, 2], (codes, err.getvalue())
        assert len(out.getvalue().splitlines()) == 5
        assert not loaded(), loaded()
        """))


# Commands whose output must not depend on whether numpy or the package came first.
IMPORT_ORDER_ARGVS = [
    ["eval", "podolsky_pauling", "2", "1", "--p", "-0.0"],
    ["table", "trig", "60", "10", "--pmin", "-3", "--pmax", "5", "--count", "257"],
    ["table", "podolsky_pauling", "7", "2", "--pmin", "0", "--pmax", "4", "--count", "33",
     "--hbar-beta", "1e-100"],
    ["table", "lombardi_ogilvie", "3", "1", "--pmin", "-1e300", "--pmax", "1e300"],
    ["plot", "PP", "5", "--count", "41"],
    ["plot", "LO", "40", "--hbar-beta", "2.5"],
    ["verify"],
    ["verify", "--hbar-beta", "1e100", "--suite", "pp_vs_hankel"],
]


def test_same_bytes_in_either_import_order():
    """Where the package is imported before numpy, so that numpy loads at a
    command's first array, table, plot and verify (its report without the
    timestamp) write the bytes and exit codes that they write where numpy
    came first."""
    code = textwrap.dedent("""\
        import contextlib, io, json, sys
        {first}
        import hmomentum.cli
        print(any(m.startswith('numpy.') for m in sys.modules))
        outputs = []
        for argv in {argvs!r}:
            with contextlib.redirect_stdout(io.StringIO()) as out, \\
                    contextlib.redirect_stderr(io.StringIO()) as err:
                code = hmomentum.cli.main(argv)
            text = out.getvalue()
            if argv[0] == 'verify':
                report = json.loads(text)
                del report['timestamp']
                text = json.dumps(report)
            outputs.append([code, text, err.getvalue()])
        print(json.dumps(outputs))
        """)
    lazy, eager = (run_python(code.format(first=first, argvs=IMPORT_ORDER_ARGVS)).split("\n", 1)
                   for first in ("", "import numpy"))
    assert (lazy[0], eager[0]) == ("False", "True")  # numpy loaded before the first command
    assert lazy[1] == eager[1]
    assert [exit_code for exit_code, _, _ in json.loads(lazy[1])] == [EXIT_OK] * len(
        IMPORT_ORDER_ARGVS)
