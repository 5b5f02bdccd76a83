"""CLI behavior: record formats, exit codes, file output."""

import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmomentum import cli, forms, verification
from hmomentum.cli import EXIT_IO, EXIT_OK, EXIT_USAGE, main
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

    def test_impossible_tolerance_fails(self, capsys, monkeypatch):
        """The kernel off by 1e-9, past form_equivalence's tolerance of
        1e-11, fails the run."""
        def perturbed(states, p, **kwargs):
            return forms._kernel_stack(states, p, **kwargs) * (1.0 + 1e-9)

        monkeypatch.setattr(verification, "_kernel_stack", perturbed)
        code, out = run_cli(capsys, "verify", "--suite", "form_equivalence")
        assert code == 1
        assert json.loads(out)["overall_pass"] is False

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

    @pytest.mark.parametrize("hbar_beta", ["1e-8", "1e-4", "1e4"])
    def test_every_suite_passes_off_unit_scale(self, capsys, hbar_beta):
        """Every suite passes far from hbar beta = 1, with nothing on stderr."""
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
        # --hbar would abbreviate --hbar-beta, --c --count
        ["verify", "--suite", "so4_constancy", "--hbar", "2"],
        ["table", "trig", "2", "1", "--pmin", "0", "--pmax", "1", "--c", "2"],
    ], ids=" ".join)
    def test_flags_spelled_in_full(self, capsys, argv):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2


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


def run_python(code: str) -> None:
    """Run `code` in a new interpreter that imports this checkout's package."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr


def test_import_loads_no_scipy(tmp_path):
    """No command loads scipy: not eval, not table, not verify."""
    report = str(tmp_path / "report.json")
    code = ("import sys, hmomentum.cli\n"
            "assert not any(m.startswith('scipy') for m in sys.modules)\n"
            "hmomentum.cli.main(['eval', 'trig', '3', '1', '--p', '0.5'])\n"
            "hmomentum.cli.main(['table', 'podolsky_pauling', '3', '1', '--pmin', '0',"
            " '--pmax', '2', '--count', '5'])\n"
            f"assert hmomentum.cli.main(['verify', '--output', {report!r}]) == 0\n"
            "assert not any(m.startswith('scipy') for m in sys.modules)\n")
    run_python(code)
