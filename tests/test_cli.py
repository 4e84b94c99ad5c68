import csv
import json
import math
import os
import re
import shlex
import signal
import stat
import subprocess
import sys
import time
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from selfsim import io
from selfsim.cli import main
from selfsim.errors import IoError
from selfsim.io import plot_script, write_csv_atomic

README = Path(__file__).resolve().parents[1] / "README.md"


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _csv_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    return header, rows


class TestDispersionCommand:
    def test_zero_wavenumber_row(self, tmp_path):
        out = tmp_path / "o"
        code = main(["dispersion", "--delta", "1", "--h", "1", "--zeta", "1",
                     "--k", "0,2", "--out", str(out)])
        assert code == 0
        header, rows = _csv_rows(out / "dispersion.csv")
        assert header == ["k", "omega2", "omega2_quadrature"]
        assert float(rows[0][1]) == 0.0
        assert float(rows[1][1]) == pytest.approx(2.0 * math.pi, rel=1e-12)

    def test_envelope_contents(self, tmp_path):
        out = tmp_path / "o"
        main(["dispersion", "--delta", "0.5", "--k", "1", "--out", str(out)])
        env = json.loads((out / "dispersion.json").read_text())
        assert env["command"] == "dispersion"
        assert env["version"] == "0.1.0"
        assert "config_sha256" in env
        assert env["tables"] == ["dispersion.csv"]
        assert "out" not in env["config"]

    def test_stage_times_on_stderr_only(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["dispersion", "--k", "1", "--out", str(out)]) == 0
        stage, wall = capsys.readouterr().err.splitlines()[-2:]
        assert re.fullmatch(r"stage_s: compute=\d+\.\d{3} commit=\d+\.\d{3}", stage)
        assert re.fullmatch(r"wall_time_s: \d+\.\d{3}", wall)
        assert not any(b"_s:" in _read(out / name) for name in os.listdir(out))


class TestValidation:
    def test_bad_delta_exits_1_without_files(self, tmp_path):
        out = tmp_path / "o"
        code = main(["dispersion", "--delta", "2.5", "--out", str(out)])
        assert code == 1
        assert not out.exists()

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"delta": 0.5, "bogus": 1}))
        code = main(["dispersion", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 1
        # a key of another subcommand: --k belongs to dispersion, not kernels
        cfg.write_text(json.dumps({"delta": 0.5, "k": "1"}))
        code = main(["kernels", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("content, message", [
        (None, "cannot read config {cfg}: [Errno 2] No such file or directory: '{cfg}'"),
        ("[1, 2]", "config must be a JSON object"),
    ], ids=["missing", "not-an-object"])
    def test_unusable_config_exits_1(self, tmp_path, capsys, content, message):
        cfg, out = tmp_path / "cfg.json", tmp_path / "o"
        if content is not None:
            cfg.write_text(content)
        assert main(["dispersion", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == ("error: {code: ValidationError, message: "
                                           f"{message.format(cfg=cfg)}}}\n")
        assert not out.exists()

    def test_config_file_scalars_overridden_by_flags(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"delta": 0.5, "k": "1"}))
        out = tmp_path / "o"
        code = main(["dispersion", "--config", str(cfg), "--delta", "1.0", "--out", str(out)])
        assert code == 0
        env = json.loads((out / "dispersion.json").read_text())
        assert env["config"]["delta"] == 1.0

    def test_numeric_failure_exits_2(self, monkeypatch, tmp_path):
        from selfsim import cli
        from selfsim.errors import QuadratureNoConvergence

        def boom(config):
            raise QuadratureNoConvergence("forced")

        monkeypatch.setitem(cli._HANDLERS, "dispersion", boom)
        assert main(["dispersion", "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("argv, owner, name", [
        # the spectral table is computed before the failing quadrature route
        (["laplacian", "--pointwise", "3"], "cli", "laplacian_apply_point"),
        # the samples are drawn before the failing CDF
        (["mc", "--n-samples", "1000", "--ks"], "cli.dif", "numeric_cdf"),
        # b_2.5(1e-300) is beyond float range: refused, with no overflow warning
        (["potentials", "--alphas=2.5", "--x", "1e-300,1"], None, None),
        # each of these ended in a traceback, wrote inf or nan cells and
        # exited 0, or was reported as a bad argument
        (["dispersion", "--delta", "1.9", "--k", "1e300"], None, None),
        (["dispersion", "--delta", "1.9", "--h", "1e200"], None, None),
        (["dispersion", "--delta", "0.5", "--zeta", "1e-320"], None, None),
        (["greens-static", "--delta", "0.01", "--x", "1e-320"], None, None),
        (["helmholtz", "--omega", "0", "--eps", "1e-170", "--n", "64"], None, None),
        (["helmholtz", "--omega", "1e-170", "--eps", "1e-170", "--n", "64"], None, None),
        (["mc", "--delta", "0.5", "--t", "1e300", "--n-samples", "10"], None, None),
        (["mc", "--delta", "0.01", "--n-samples", "100000"], None, None),
        (["mc", "--delta", "0.05", "--t", "1e-300", "--n-samples", "10"], None, None),
    ])
    @pytest.mark.filterwarnings("error")
    def test_numeric_failure_leaves_no_files(self, monkeypatch, tmp_path, capsys, argv, owner, name):
        from selfsim import cli
        from selfsim.errors import QuadratureNoConvergence

        def boom(*args, **kwargs):
            raise QuadratureNoConvergence("forced")

        if owner:
            monkeypatch.setattr(cli if owner == "cli" else cli.dif, name, boom)
        out = tmp_path / "o"
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [ln for ln in err.splitlines() if ln.startswith("error: ")]
        assert len(errors) == 1
        if not owner:  # beyond float range
            assert re.fullmatch(r"error: \{code: NumericError, message: .* is beyond float range( at .*)?\}",
                                errors[0])
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    def test_helmholtz_shift_beyond_float_range_exits_2(self, tmp_path, capsys):
        # (omega + i eps)^2 overflowed in Python's complex power and escaped
        # as a traceback; at omega = 0, -eps^2 once gave an all-zero table
        for omega, eps in (("1e200", "0.1"), ("0", "1e200")):
            out = tmp_path / f"o{omega}"
            assert main(["helmholtz", "--omega", omega, "--eps", eps, "--n", "64", "--out", str(out)]) == 2
            assert capsys.readouterr().err == ("error: {code: NumericError, message: (omega + i eps)^2 for "
                                               f"omega = {float(omega):g}, eps = {float(eps):g} "
                                               "is beyond float range}\n")
            assert not out.exists()

    @pytest.mark.parametrize("arithmetic", [
        lambda: 1e300**2,
        lambda: 1.0 / 0.0,
        lambda: np.float64(1e300) * 1e300,
        lambda: np.float64(1.0) / 0.0,
        lambda: np.float64(np.inf) - np.inf,
    ], ids=["python-overflow", "python-division", "numpy-overflow", "numpy-division", "numpy-invalid"])
    def test_handler_arithmetic_beyond_float_range_exits_2(self, monkeypatch, tmp_path, capsys, arithmetic):
        # main runs each handler inside the float-range rule, named by its
        # command; numpy's overflow, division by zero and invalid operations raise there
        from selfsim import cli

        def boom(spec):
            arithmetic()
            raise AssertionError("the arithmetic did not raise")

        monkeypatch.setitem(cli._HANDLERS, "dispersion", boom)
        out = tmp_path / "o"
        assert main(["dispersion", "--out", str(out)]) == 2
        assert capsys.readouterr().err == ("error: {code: NumericError, message: "
                                           "a value computed by dispersion is beyond float range}\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["mc", "--delta", "0.05"],
        ["mc", "--delta", "1.99", "--ks"],
        ["cauchy", "--delta", "1.99", "--times", "5,10"],
        ["helmholtz", "--delta", "1.99", "--omega", "100", "--eps", "1e-3"],
        ["laplacian", "--delta", "1.95", "--function", "cos", "--k0", "2.5", "--pointwise", "5"],
        ["diffusion", "--delta", "0.05", "--times", "0.1"],
    ])
    @pytest.mark.filterwarnings("error")
    def test_runs_near_the_band_edges_succeed_under_the_float_range_rule(self, tmp_path, argv):
        # their arithmetic stays in float range, so the rule that raises on
        # numpy's overflow, division by zero and invalid operations is silent
        assert main(argv + ["--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("command, config", [
        ("dispersion", {"delta": "abc"}),
        ("laplacian", {"n": 1024.9}),
        ("mc", {"ks": "false"}),
        ("kernels", {"t": math.nan}),
    ])
    def test_config_values_checked_like_flags(self, tmp_path, capsys, command, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "code: ValidationError" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["dispersion", "--delta", "abc"],
        ["dispersion", "--bogus", "1"],
        # argparse reads a negative list after a space as an option
        ["potentials", "--alphas", "-0.5,0.5,1.5"],
        # only mc draws random numbers
        ["dispersion", "--seed", "1"],
    ])
    def test_usage_error_exits_1_without_files(self, tmp_path, capsys, argv):
        out = tmp_path / "o"
        assert main(argv + ["--out", str(out)]) == 1
        assert "code: ValidationError" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["diffusion", "--times", ",", "--n", "4096", "--dx", "0.05", "--tail-window", "1,2"],
        ["cauchy", "--times", ","],
        ["dispersion", "--k", ""],
        ["potentials", "--alphas", " , "],
    ])
    def test_empty_value_list_exits_1_without_files(self, tmp_path, capsys, argv):
        out = tmp_path / "o"
        assert main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "code: ValidationError" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["dispersion", "--k", "nan"],
        ["dispersion", "--k", "1,inf"],
        ["greens-static", "--x", "nan"],
        ["potentials", "--x", "nan"],
        ["kernels", "--t", "nan"],
        ["diffusion", "--tail-window", "50,inf"],
        ["laplacian", "--pointwise", "-3"],
        ["mc", "--n-samples", "-5"],
        ["mc", "--n-samples", "1000", "--seed", "-1"],
        ["selftest", "--cases", ","],
    ])
    def test_non_finite_negative_or_empty_value_exits_1_without_files(self, tmp_path, capsys, argv):
        out = tmp_path / "o"
        assert main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        errors = [ln for ln in err.splitlines() if ln.startswith("error:")]
        assert len(errors) == 1 and "code: ValidationError" in errors[0]
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv, owner, name, message", [
        # %g labels the columns u_t..., W_t... and b_alpha... and the results
        (["cauchy", "--n", "256", "--dx", "0.1", "--times", "1.0000001,1.0000002"],
         "cli.dyn", "cauchy_evolve", "share the label 1"),
        (["diffusion", "--n", "256", "--dx", "0.1", "--times", "0.5,1.0000001,1.0000002"],
         "cli.dif", "propagator", "share the label 1"),
        (["potentials", "--alphas=0.5000001,0.5000002"],
         "cli.sta", "riesz_kernel", "share the label 0.5"),
        # the pointwise points reach x = +-2, outside this 64-point grid
        (["laplacian", "--n", "64", "--dx", "0.02", "--pointwise", "3"],
         "cli", "laplacian_apply_spectral", "x = -2.0 falls outside the grid"),
        # the initial state is the column u_t0 and the result energy_t0
        (["cauchy", "--n", "256", "--dx", "0.1", "--times", "0,1"],
         "cli.dyn", "cauchy_evolve", "the initial state's time, labelled 0"),
        # the propagator exists for t > 0 only, by the library's time rule;
        # refused before the first time's 2^20-point transform
        (["diffusion", "--times", "1,-1", "--n", "1048576", "--dx", "0.01"],
         "cli.dif", "propagator", "invalid times '1,-1': t must be finite and > 0, got -1.0"),
    ])
    def test_refused_before_numeric_work(self, monkeypatch, tmp_path, capsys, argv, owner, name, message):
        from selfsim import cli

        def boom(*args, **kwargs):
            raise AssertionError("numeric work started")

        monkeypatch.setattr(cli if owner == "cli" else getattr(cli, owner[4:]), name, boom)
        out = tmp_path / "o"
        assert main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "code: ValidationError, message: " in err and message in err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("delta", "2", "DeltaOutOfRange, message: delta must lie strictly inside (0, 2), got 2.0"),
        ("n", "4", "GridTooSmall, message: need at least 8 points, got 4"),
        ("dx", "0", "NonPositiveScale, message: dx must be finite and > 0, got 0.0"),
    ])
    def test_bad_medium_or_grid_refused_before_the_handler(self, monkeypatch, tmp_path, capsys,
                                                           flag, value, message):
        from selfsim import cli

        commands = [c for c, (_, _, options) in cli._COMMANDS.items() if flag in options]
        reached = []
        for command in commands:
            monkeypatch.setitem(cli._HANDLERS, command, reached.append)
        for command in commands:
            out = tmp_path / command
            assert main([command, f"--{flag}", value, "--out", str(out)]) == 1
            assert capsys.readouterr().err == f"error: {{code: {message}}}\n"
            assert not out.exists()
        assert len(commands) == (8 if flag == "delta" else 4) and not reached

    def test_repeated_value_keeps_its_column(self, tmp_path):
        out = tmp_path / "o"
        assert main(["cauchy", "--n", "256", "--dx", "0.1", "--times", "1,1", "--out", str(out)]) == 0
        header, rows = _csv_rows(out / "cauchy.csv")
        assert header == ["x", "u_t0", "u_t1", "u_t1"]
        assert all(row[2] == row[3] for row in rows)

    def test_readme_potentials_line_runs(self, tmp_path):
        line = next(ln for ln in README.read_text().splitlines()
                    if ln.startswith("selfsim potentials"))
        argv = shlex.split(line)[1:]
        argv[argv.index("--out") + 1] = str(tmp_path / "o")
        assert main(argv) == 0
        header, rows = _csv_rows(tmp_path / "o" / "potentials.csv")
        assert header == ["x", "b_alpha-0.5", "b_alpha0.5", "b_alpha1.5"]
        assert len(rows) == 4


class TestUnwritableOutput:
    def _check_exit_4(self, capsys, argv):
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert "code: IoError" in err
        assert "Traceback" not in err

    def test_out_under_a_regular_file(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("keep")
        self._check_exit_4(capsys, ["dispersion", "--out", str(blocker / "o")])
        assert os.listdir(tmp_path) == ["blocker"]
        assert blocker.read_text() == "keep"

    def test_table_path_taken_by_a_directory(self, tmp_path, capsys):
        # the rename fails after the temp file exists; it must be removed
        out = tmp_path / "o"
        (out / "dispersion.csv").mkdir(parents=True)
        self._check_exit_4(capsys, ["dispersion", "--out", str(out)])
        assert os.listdir(out) == ["dispersion.csv"]
        assert os.listdir(out / "dispersion.csv") == []

    def test_envelope_path_taken_by_a_directory(self, tmp_path, capsys):
        # the envelope is renamed last: the table renamed before it must go again
        out = tmp_path / "o"
        (out / "dispersion.json").mkdir(parents=True)
        self._check_exit_4(capsys, ["dispersion", "--out", str(out)])
        assert os.listdir(out) == ["dispersion.json"]
        assert os.listdir(out / "dispersion.json") == []

    def test_failed_write_while_staging_leaves_nothing(self, monkeypatch, tmp_path, capsys):
        from selfsim import cli

        def boom(path, text):
            raise IoError(f"failed to write {path}: forced")

        # the plot script is staged after the table, so one file is already staged
        monkeypatch.setattr(cli, "atomic_write_text", boom)
        out = tmp_path / "o"
        assert main(["greens-static", "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert "forced" in err
        assert "failed to commit" not in err  # the writer's error is not wrapped twice
        assert os.listdir(out) == []

    def test_failed_csv_worker_leaves_nothing(self, monkeypatch, tmp_path, capsys):
        _set_cores(monkeypatch, 2)
        _fork_small_tables(monkeypatch)
        _fail_block(monkeypatch, RuntimeError, in_children=True)
        out = tmp_path / "o"
        self._check_exit_4(capsys, ["diffusion", "--times", "1", "--n", str(2 * _BLOCK),
                                    "--dx", "0.05", "--out", str(out)])
        assert os.listdir(out) == []
        _assert_no_children()


class TestCommittedFiles:
    @pytest.mark.parametrize("argv", [
        ["dispersion", "--k", "1"],
        ["diffusion", "--delta", "0.5", "--times", "0.1", "--n", "4096", "--dx", "0.05"],
        ["mc", "--n-samples", "1000"],
    ])
    def test_out_holds_exactly_the_envelope_files(self, tmp_path, argv):
        out = tmp_path / "o"
        assert main(argv + ["--out", str(out)]) == 0
        command = argv[0]
        env = json.loads((out / f"{command}.json").read_text())
        assert sorted(os.listdir(out)) == sorted(env["tables"] + [f"{command}.json"])

    def test_committed_files_follow_umask(self, tmp_path):
        out = tmp_path / "o"
        old = os.umask(0o022)
        try:
            assert main(["greens-static", "--out", str(out)]) == 0
        finally:
            os.umask(old)
        modes = {name: stat.S_IMODE((out / name).stat().st_mode) for name in os.listdir(out)}
        assert modes == dict.fromkeys(modes, 0o644)
        assert len(modes) == 3


class TestDeterminism:
    def test_reruns_are_byte_identical(self, tmp_path):
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = main(["diffusion", "--delta", "1", "--times", "1",
                         "--n", "4096", "--dx", "0.05", "--out", str(out)])
            assert code == 0
            blobs.append({f: _read(out / f) for f in sorted(os.listdir(out))})
        assert blobs[0] == blobs[1]

    def test_readme_diffusion_forks_without_warnings(self, monkeypatch, tmp_path):
        # a fresh interpreter with two cores and DeprecationWarning as an
        # error (Python >= 3.12 warns on fork in a threaded process) gives
        # the files of a one-core run in this process
        line = next(ln for ln in README.read_text().splitlines()
                    if ln.startswith("selfsim diffusion --delta 1 "))
        argv = shlex.split(line)[1:]
        src = Path(io.__file__).resolve().parents[1]
        # its 2^18-cell table is split between this process and one child
        code = ("import os, sys; os.sched_getaffinity = lambda pid: {0, 1}; "
                "from selfsim.cli import main; sys.exit(main(sys.argv[1:]))")
        argv[argv.index("--out") + 1] = str(tmp_path / "forked")
        done = subprocess.run([sys.executable, "-W", "error::DeprecationWarning", "-c", code, *argv],
                              env={**os.environ, "PYTHONPATH": str(src)},
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert "Warning" not in done.stderr
        _set_cores(monkeypatch, 1)
        argv[argv.index("--out") + 1] = str(tmp_path / "here")
        assert main(argv) == 0
        blobs = [{f: _read(tmp_path / d / f) for f in sorted(os.listdir(tmp_path / d))}
                 for d in ("forked", "here")]
        assert blobs[0] == blobs[1]


class TestDiffusionCommand:
    def test_cauchy_peak_value(self, tmp_path):
        out = tmp_path / "o"
        code = main(["diffusion", "--delta", "1", "--times", "1", "--out", str(out)])
        assert code == 0
        header, rows = _csv_rows(out / "diffusion.csv")
        mid = [r for r in rows if float(r[0]) == 0.0]
        assert len(mid) == 1
        assert float(mid[0][1]) == pytest.approx(1.0 / math.pi**2, abs=1e-4)
        env = json.loads((out / "diffusion.json").read_text())
        assert env["results"]["mass_t1"] == pytest.approx(1.0, abs=1e-12)
        assert (out / "diffusion.gp").exists()

    def test_no_grid_x_alive_across_transforms(self, monkeypatch, tmp_path):
        # a table's x column is built when its file is written, so no
        # n-point x is held while a propagator or an evolution runs
        from selfsim import diffusion, dynamics
        from selfsim.grids import Grid1D

        real_x, built, called = Grid1D.x.fget, [], []

        def x(grid):
            arr = real_x(grid)
            built.append(weakref.ref(arr))
            return arr

        def checked(real):
            def call(*args, **kwargs):
                assert all(ref() is None for ref in built), "a grid.x is still alive"
                called.append(real.__name__)
                return real(*args, **kwargs)
            return call

        monkeypatch.setattr(Grid1D, "x", property(x))
        monkeypatch.setattr(diffusion, "propagator", checked(diffusion.propagator))
        monkeypatch.setattr(dynamics, "cauchy_evolve", checked(dynamics.cauchy_evolve))
        for argv in (["diffusion", "--times", "0.5,1", "--n", "4096"],
                     ["cauchy", "--times", "0.5,1", "--n", "1024"]):
            built.clear()
            assert main(argv + ["--out", str(tmp_path / argv[0])]) == 0
            assert built  # the x column, and grid.sample's own x, were built
        assert called == ["propagator"] * 2 + ["cauchy_evolve"] * 2


class TestMcCommand:
    def test_samples_written_and_deterministic(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = main(["mc", "--delta", "0.5", "--t", "1", "--n-samples", "1000",
                         "--seed", "9", "--out", str(out)])
            assert code == 0
            outs.append(_read(out / "samples.csv"))
        assert outs[0] == outs[1]
        header = outs[0].decode().splitlines()
        assert header[0].startswith("# delta=0.5")
        assert header[1] == "x"
        assert len(header) == 1002

    def test_ks_where_the_scale_outgrows_the_grid(self, tmp_path):
        # the law's scale is about 9,000 and the default grid's half-width
        # 2,621: with the tail read beyond a fixed |x| = 25 the KS distance was 0.362
        out = tmp_path / "o"
        assert main(["mc", "--delta", "0.3", "--t", "2", "--n-samples", "100000", "--seed", "1",
                     "--ks", "--out", str(out)]) == 0
        assert json.loads((out / "mc.json").read_text())["results"]["ks_distance"] < 0.01


class TestHelmholtzCommand:
    def test_table_and_envelope(self, tmp_path):
        out = tmp_path / "o"
        assert main(["helmholtz", "--n", "256", "--dx", "0.05", "--omega", "1.5", "--eps", "0.1",
                     "--out", str(out)]) == 0
        assert sorted(os.listdir(out)) == ["helmholtz.csv", "helmholtz.json"]
        header, rows = _csv_rows(out / "helmholtz.csv")
        assert header == ["x", "re", "im"]
        assert len(rows) == 256
        env = json.loads((out / "helmholtz.json").read_text())
        assert sorted(env) == ["command", "config", "config_sha256", "results", "seed", "tables", "version"]
        assert env["config"] == {"dx": 0.05, "eps": 0.1, "n": 256, "omega": 1.5}
        assert env["results"] == {}
        assert env["tables"] == ["helmholtz.csv"]


class TestLaplacianCommand:
    @pytest.mark.parametrize("function", ["gaussian", "cos"])
    def test_pointwise_route_and_its_difference(self, tmp_path, function):
        out = tmp_path / "o"
        # the spectral route is the periodic surrogate: its wrap-around at
        # x = +-2 falls like the grid length to the -delta
        assert main(["laplacian", "--n", "16384", "--dx", "0.02", "--function", function,
                     "--pointwise", "3", "--out", str(out)]) == 0
        assert sorted(os.listdir(out)) == ["laplacian.csv", "laplacian.json", "laplacian_pointwise.csv"]
        header, rows = _csv_rows(out / "laplacian_pointwise.csv")
        assert header == ["x", "laplacian"]
        assert [float(row[0]) for row in rows] == [-2.0, 0.0, 2.0]
        env = json.loads((out / "laplacian.json").read_text())
        assert env["config"]["function"] == function
        assert env["tables"] == ["laplacian.csv", "laplacian_pointwise.csv"]
        assert list(env["results"]) == ["max_route_difference"]
        assert 0.0 <= env["results"]["max_route_difference"] < 5e-3

    def test_unknown_function_exits_1(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["laplacian", "--function", "sine", "--out", str(out)]) == 1
        assert capsys.readouterr().err == ("error: {code: ValidationError, message: invalid function 'sine': "
                                           "expected gaussian or cos}\n")
        assert not out.exists()


class TestKernelsCommand:
    def test_series_and_quadrature_columns_agree(self, tmp_path):
        out = tmp_path / "o"
        code = main(["kernels", "--delta", "0.75", "--t", "1", "--x", "1,2", "--out", str(out)])
        assert code == 0
        header, rows = _csv_rows(out / "kernels.csv")
        assert header == ["x", "Q_series", "Q_quadrature", "dQ_series", "dQ_quadrature"]
        for row in rows:
            assert float(row[1]) == pytest.approx(float(row[2]), rel=1e-7)
            assert float(row[3]) == pytest.approx(float(row[4]), rel=1e-7)

    def test_refused_where_the_series_rounding_passes_its_tolerance(self, tmp_path):
        # the terms pass a hump of 7.8e7: the unguarded Q_series was off by 7.8e-8
        out = tmp_path / "o"
        assert main(["kernels", "--delta", "1.5", "--t", "2", "--x", "1", "--out", str(out)]) == 2
        assert not out.exists()


class TestPotentialsCommand:
    def test_columns_per_exponent(self, tmp_path):
        out = tmp_path / "o"
        code = main(["potentials", "--alphas", "0.5,1.5", "--x", "1,2", "--out", str(out)])
        assert code == 0
        header, rows = _csv_rows(out / "potentials.csv")
        assert header == ["x", "b_alpha0.5", "b_alpha1.5"]
        assert len(rows) == 2
        script = _read(out / "potentials.gp").decode()
        assert "set logscale xy" in script


class TestSelftestCommand:
    def test_single_case_runs_clean(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(["selftest", "--cases", "AC12", "--out", str(out)])
        assert code == 0
        header, rows = _csv_rows(out / "selftest.csv")
        assert rows[0][0] == "AC12"
        assert rows[0][1] == "pass"

    def test_unknown_case_is_validation_error(self, tmp_path):
        assert main(["selftest", "--cases", "AC99", "--out", str(tmp_path / "o")]) == 1

    def test_cases_run_in_this_process(self, monkeypatch, tmp_path, capsys):
        # with two cores reported nothing forks, and every case's fn runs
        # here, where a tracer that wraps CASES sees it
        from selfsim import selftest

        ran = []

        def here(fn):
            def run():
                ran.append(os.getpid())
                return fn()

            return run

        monkeypatch.setattr(selftest, "CASES", [
            selftest.SelftestCase(c.case_id, c.title, here(c.fn)) for c in selftest.CASES])
        _set_cores(monkeypatch, 2)
        forks = []
        real_fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
        out = tmp_path / "o"
        assert main(["selftest", "--cases", "AC06,AC09,AC12,AC15", "--out", str(out)]) == 0
        lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith(("PASS", "FAIL"))]
        assert [ln.split()[:2] for ln in lines] == [["PASS", c] for c in ("AC06", "AC09", "AC12", "AC15")]
        assert forks == []
        assert ran == [os.getpid()] * 4
        _assert_no_children()

    def test_raising_case_fails_alone(self, monkeypatch, tmp_path, capsys):
        from selfsim import selftest

        def boom():
            raise RuntimeError("forced failure")

        monkeypatch.setattr(selftest, "CASES", [
            selftest.SelftestCase(c.case_id, c.title, boom if c.case_id == "AC11" else c.fn)
            for c in selftest.CASES])
        out = tmp_path / "o"
        assert main(["selftest", "--cases", "AC11,AC12,AC13", "--out", str(out)]) == 3
        header, rows = _csv_rows(out / "selftest.csv")
        assert [(r[0], r[1]) for r in rows] == [("AC11", "FAIL"), ("AC12", "pass"), ("AC13", "pass")]
        assert "forced failure" in rows[0][2]
        lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith(("PASS", "FAIL"))]
        assert [ln.split()[:2] for ln in lines] == [["FAIL", "AC11"], ["PASS", "AC12"], ["PASS", "AC13"]]
        assert "forced failure" in lines[0]

    def test_importing_the_cli_loads_no_pool(self):
        src = Path(io.__file__).resolve().parents[1]
        code = ("import sys, selfsim.cli; print(sorted({'multiprocessing', "
                "'concurrent.futures.process'} & set(sys.modules)))")
        done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"


    def test_importing_the_cli_loads_no_scipy_stats(self):
        # scipy.stats takes about 0.9 s to import; the stable CDF oracle of
        # the tests uses it, and no library route may
        src = Path(io.__file__).resolve().parents[1]
        code = "import sys, selfsim.cli; print('scipy.stats' in sys.modules)"
        done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"


class TestTailFit:
    def test_diffusion_tail_window_emits_loglog_script(self, tmp_path):
        out = tmp_path / "o"
        code = main(["diffusion", "--delta", "0.5", "--times", "0.1",
                     "--n", str(1 << 20), "--dx", "0.01",
                     "--tail-window", "50,150", "--out", str(out)])
        assert code == 0
        env = json.loads((out / "diffusion.json").read_text())
        assert env["results"]["tail_slope"] == pytest.approx(-1.5, abs=0.05)
        script = (out / "diffusion_tail.gp").read_text()
        assert "set logscale xy" in script
        assert "fitted_slope" in script

    @pytest.mark.parametrize("window", ["50", "1000,2000"])
    def test_bad_window_fails_before_any_file(self, tmp_path, window):
        # a malformed window, or one the fit refuses, must leave no partial output
        out = tmp_path / "o"
        code = main(["diffusion", "--delta", "0.5", "--times", "0.1",
                     "--n", "4096", "--dx", "0.05",
                     "--tail-window", window, "--out", str(out)])
        assert code == 1
        assert not out.exists() or os.listdir(out) == []


def _rowwise_csv(header, rows):
    """Row-by-row reference formatting: repr of every float."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


_SPECIAL_FLOATS = [-0.0, 5e-324, 1e-5, 1e16, math.nan, math.inf, -math.inf,
                   0.1, 1.0 / 3.0, -2.5e-300, 123456.789, 1.7976931348623157e308]
_BLOCK = io._CSV_BLOCK_ROWS


def _set_cores(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _fork_small_tables(monkeypatch):
    """Fork CSV children by full-block count alone, so small tables take the forked path."""
    monkeypatch.setattr(io, "_CSV_CELLS_PER_WORKER", 1)


def _fail_block(monkeypatch, exc, in_children):
    """Make formatting a block raise exc("forced") in the forked children
    only, or in this process only."""
    here = os.getpid()
    real = io._shortest.csv_bytes

    def block(*args):
        if (os.getpid() != here) == in_children:
            raise exc("forced")
        return real(*args)

    monkeypatch.setattr(io._shortest, "csv_bytes", block)


def _exit_1(message):
    """Passed to _fail_block as the exception: the child leaves without raising."""
    os._exit(1)


def _killed(message):
    """Passed to _fail_block as the exception: the child is killed by a signal."""
    os.kill(os.getpid(), signal.SIGKILL)


def _assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestIoHelpers:
    @pytest.mark.parametrize("n_rows", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 4 * _BLOCK - 1,
                                        4 * _BLOCK, 4 * _BLOCK + 1, 8 * _BLOCK + 1, 12 * _BLOCK + 7])
    def test_array_and_rows_match_rowwise_reference(self, monkeypatch, tmp_path, n_rows):
        header = ["a", "b", "c"]
        table = np.resize(np.array(_SPECIAL_FLOATS), 3 * n_rows).reshape(n_rows, 3)
        want = _rowwise_csv(header, table.tolist())
        _fork_small_tables(monkeypatch)
        real_fork = os.fork
        for cores in (1, 3):
            _set_cores(monkeypatch, cores)
            forks = []
            monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
            path = tmp_path / f"array_{cores}.csv"
            write_csv_atomic(str(path), header, *table.T)
            # compared as lines: pytest reports the first differing row cheaply
            assert _read(path).decode().split("\n") == want.split("\n"), cores
            # one process per core and full block
            assert len(forks) == max(0, min(cores, n_rows // _BLOCK) - 1)
        _assert_no_children()

    @pytest.mark.parametrize("n_rows, n_columns, forks", [
        (io._CSV_CELLS_PER_WORKER // 4, 4, 0),  # 2^17 cells, 4 blocks: in process
        (io._CSV_CELLS_PER_WORKER, 1, 0),  # 2^17 cells, 16 blocks: in process
        (io._CSV_CELLS_PER_WORKER // 4 + _BLOCK, 4, 1),  # just over: one child more
        (3 * io._CSV_CELLS_PER_WORKER // 2, 2, 2),  # 3 x 2^17 cells: three ranges
        (_BLOCK + 1, 32, 0),  # 2^18 cells in one full block and a row: in process
    ])
    def test_tables_fork_by_cell_count(self, monkeypatch, tmp_path, n_rows, n_columns, forks):
        # at most one process per started 2^17 cells and per full block
        _set_cores(monkeypatch, 4)
        real_fork = os.fork
        seen = []
        monkeypatch.setattr(os, "fork", lambda: seen.append(1) or real_fork())
        columns = [np.full(n_rows, 0.5 + j) for j in range(n_columns)]
        write_csv_atomic(str(tmp_path / "t.csv"), [f"c{j}" for j in range(n_columns)], *columns)
        assert len(seen) == forks
        row = ",".join(repr(0.5 + j) for j in range(n_columns))
        assert _read(tmp_path / "t.csv").endswith(f"\n{row}\n".encode())
        _assert_no_children()

    def test_special_floats_in_every_range(self, monkeypatch, tmp_path):
        # two cores: rows 0.._BLOCK-1 are formatted here, the rest in a fork
        _set_cores(monkeypatch, 2)
        _fork_small_tables(monkeypatch)
        real_fork = os.fork
        forks = []
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
        n_rows = 2 * _BLOCK + 8
        rng = np.random.default_rng(17)
        table = rng.standard_normal((n_rows, 3)) * 10.0 ** rng.integers(-320, 300, (n_rows, 3))
        specials = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -1e-310, 2.2250738585072014e-308]
        for row in (0, 7, _BLOCK + 1, n_rows - 3):
            table[row:row + 3].flat[:len(specials)] = specials
        header = ["a", "b", "c"]
        write_csv_atomic(str(tmp_path / "array.csv"), header, *table.T)
        assert len(forks) == 1
        assert _read(tmp_path / "array.csv") == _rowwise_csv(header, table.tolist()).encode()
        _assert_no_children()

    def test_strided_columns_match_rowwise_reference(self, monkeypatch, tmp_path):
        # the parts of a complex array and a [::2] view, as the handlers pass them
        n_rows = 3 * _BLOCK + 8
        rng = np.random.default_rng(29)
        table = rng.standard_normal((n_rows, 3)) * 10.0 ** rng.integers(-320, 300, (n_rows, 3))
        specials = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -1e-310, 2.2250738585072014e-308]
        for row in (0, 7, _BLOCK + 1, 2 * _BLOCK + 2, n_rows - 3):  # every row range
            table[row:row + 3].flat[:len(specials)] = specials
        z = np.empty(n_rows, dtype=np.complex128)
        z.real, z.imag = table[:, 0], table[:, 1]
        every_other = np.repeat(table[:, 2], 2)[::2]
        columns = (z.real, z.imag, every_other)
        assert not any(c.flags.c_contiguous for c in columns)
        header = ["re", "im", "v"]
        want = _rowwise_csv(header, table.tolist()).encode()
        _fork_small_tables(monkeypatch)
        real_fork = os.fork
        for cores in (1, 3):
            _set_cores(monkeypatch, cores)
            forks = []
            monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
            path = tmp_path / f"strided_{cores}.csv"
            write_csv_atomic(str(path), header, *columns)
            assert _read(path) == want, cores
            assert len(forks) == cores - 1
        _assert_no_children()

    @pytest.mark.parametrize("failing", [{2}, {1, 2}], ids=["second_fork", "every_fork"])
    def test_failed_fork_formats_its_range_here(self, monkeypatch, tmp_path, failing):
        # three ranges; a fork that raises OSError leaves its range to this process
        n_rows = 3 * _BLOCK + 7
        table = np.resize(np.array(_SPECIAL_FLOATS), 3 * n_rows).reshape(n_rows, 3)
        _set_cores(monkeypatch, 3)
        _fork_small_tables(monkeypatch)
        real_fork = os.fork
        calls, forks = [], []

        def fork():
            calls.append(1)
            if len(calls) in failing:
                raise BlockingIOError(11, "Resource temporarily unavailable")
            forks.append(1)
            return real_fork()

        monkeypatch.setattr(os, "fork", fork)
        write_csv_atomic(str(tmp_path / "t.csv"), ["a", "b", "c"], *table.T)
        assert (len(calls), len(forks)) == (2, 2 - len(failing))
        assert _read(tmp_path / "t.csv") == _rowwise_csv(["a", "b", "c"], table.tolist()).encode()
        assert os.listdir(tmp_path) == ["t.csv"]  # no .part-* or .tmp-* file
        _assert_no_children()

    def test_forked_table_leaves_unflushed_stdout_to_the_parent(self, tmp_path):
        # in a fresh interpreter, where stdout is a pipe and so block-buffered,
        # text printed before a forked table is written reaches it once
        src = Path(io.__file__).resolve().parents[1]
        code = ("import os, sys; os.sched_getaffinity = lambda pid: {0, 1}; "
                "import numpy as np; from selfsim import io; "
                "real_fork, forks = os.fork, []; "
                "os.fork = lambda: forks.append(1) or real_fork(); "
                "print('unflushed', end=' '); "
                f"io.write_csv_atomic(sys.argv[1], ['a', 'b'], *np.zeros((2, {16 * _BLOCK}))); "
                "print('forks', len(forks))")
        done = subprocess.run([sys.executable, "-c", code, str(tmp_path / "t.csv")],
                              env={**os.environ, "PYTHONPATH": str(src)},
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "unflushed forks 1\n"
        assert _read(tmp_path / "t.csv") == b"a,b\n" + b"0.0,0.0\n" * (16 * _BLOCK)

    def test_table_is_written_without_a_stacked_copy(self, monkeypatch, tmp_path):
        # one core: every row is formatted in this process, where tracemalloc sees it
        from selfsim import cli

        _set_cores(monkeypatch, 1)
        columns = [np.arange(1 << 20, dtype=np.float64), np.full(1 << 20, 0.5)]
        write = cli._table(["a", "b"], columns)
        tracemalloc.start()
        try:
            write(str(tmp_path / "t.csv"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < sum(c.nbytes for c in columns) / 2
        assert _read(tmp_path / "t.csv").endswith(b"1048575.0,0.5\n")

    @pytest.mark.parametrize("exc, in_children, raised, message", [
        # a child's range raises: the message names the first failed range and the error
        (RuntimeError, True, IoError, f"rows {_BLOCK}..{2 * _BLOCK - 1} .*: RuntimeError: forced$"),
        (KeyboardInterrupt, False, KeyboardInterrupt, None),  # while the children run
        (_exit_1, True, IoError, f"rows {_BLOCK}..{2 * _BLOCK - 1} .*: exit status 1$"),  # a child dies
        (_killed, True, IoError, f"rows {_BLOCK}..{2 * _BLOCK - 1} .*: killed by signal {signal.SIGKILL:d}$"),
    ], ids=["worker_fails", "interrupt_here", "worker_dies", "worker_killed"])
    def test_failed_range_leaves_no_file_or_child(self, monkeypatch, tmp_path, exc, in_children, raised,
                                                  message):
        _set_cores(monkeypatch, 3)
        _fork_small_tables(monkeypatch)
        _fail_block(monkeypatch, exc, in_children)
        with pytest.raises(raised, match=message):
            write_csv_atomic(str(tmp_path / "t.csv"), ["a", "b"], *np.zeros((3 * _BLOCK, 2)).T)
        assert os.listdir(tmp_path) == []  # no .part-* or .tmp-* file
        _assert_no_children()

    def test_interrupt_kills_running_children(self, monkeypatch, tmp_path):
        # the children would take a minute over their ranges: ^C here ends them at once
        _set_cores(monkeypatch, 3)
        _fork_small_tables(monkeypatch)
        here = os.getpid()

        def block(*args):
            if os.getpid() != here:
                time.sleep(60)
            raise KeyboardInterrupt

        monkeypatch.setattr(io._shortest, "csv_bytes", block)
        started = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            write_csv_atomic(str(tmp_path / "t.csv"), ["a", "b"], *np.zeros((3 * _BLOCK, 2)).T)
        assert time.monotonic() - started < 30
        assert os.listdir(tmp_path) == []
        _assert_no_children()

    def test_new_files_follow_umask(self, tmp_path):
        # the mode open(path, "w") gives, not the temp file's 0600
        old = os.umask(0o022)
        try:
            for umask, mode in ((0o022, 0o644), (0o077, 0o600)):
                os.umask(umask)
                path = tmp_path / f"umask{umask:o}.txt"
                io.atomic_write_text(str(path), "x\n")
                assert stat.S_IMODE(path.stat().st_mode) == mode
        finally:
            os.umask(old)

    def test_csv_rejects_ragged_rows(self, tmp_path):
        # only one 1-D float64 array per header name, all of one length, is a table
        a = np.zeros(4)
        for columns in ((a,), (a, a, a), (a, np.zeros(3)), (a, a.astype(np.float32)),
                        (a, a.astype(np.int64)), (a, np.zeros((4, 1))), (a, [0.0] * 4)):
            with pytest.raises(IoError):
                write_csv_atomic(str(tmp_path / "t.csv"), ["a", "b"], *columns)
        with pytest.raises(IoError):  # no columns
            write_csv_atomic(str(tmp_path / "t.csv"), [])
        assert os.listdir(tmp_path) == []

    def test_empty_rows_give_header_only_csv(self, tmp_path):
        write_csv_atomic(str(tmp_path / "t.csv"), ["x", "value"], *np.empty((0, 2)).T)
        assert (tmp_path / "t.csv").read_text() == "x,value\n"

    def test_plot_script_references_csv(self):
        text = plot_script("demo", "demo.csv", ["y1", "y2"], loglog=True,
                           annotations={"slope": -1.5})
        assert "'demo.csv' using 1:2" in text
        assert "'demo.csv' using 1:3" in text
        assert "# slope = -1.5" in text
