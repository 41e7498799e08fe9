import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sicaoc
from sicaoc import NumericalFailure, cli
from sicaoc.cli import (MAX_GRID_STEPS, MAX_ITERATIONS, ConfigError, emit_plot_script,
                        load_config, main, parse_config)


def run(argv):
    return main(argv)


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, data


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def child_env():
    """The environment for a ``python -m sicaoc`` child that imports this package."""
    package_root = str(Path(sicaoc.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))


class TestConfig:
    def test_defaults_are_the_published_scenario(self):
        cfg = parse_config({})
        assert cfg.params.mu == pytest.approx(1 / 69.54, rel=1e-15)
        assert cfg.params.b == pytest.approx(2.1 / 69.54, rel=1e-15)
        assert cfg.params.beta == 1.6
        assert cfg.params.eta_c == 0.015
        assert cfg.params.eta_a == 1.3
        assert cfg.params.phi == 1.0
        assert cfg.params.rho == 0.1
        assert cfg.params.alpha == 0.33
        assert cfg.params.omega == 0.09
        assert cfg.params.d == 1.0
        np.testing.assert_allclose(cfg.initial, [0.6, 0.2, 0.1, 0.1])
        assert cfg.grid.tf == 20.0
        assert cfg.grid.steps == 100
        assert cfg.bounds.u_max == 0.5
        assert cfg.sweep.delta_error == 1e-3
        assert cfg.sweep.relaxation == 0.5
        assert cfg.sweep.max_iterations == 500
        assert cfg.adjoint_mode == "derived"
        assert cfg.refinements == (100, 200, 400, 800)

    def test_recruitment_follows_custom_mu(self):
        cfg = parse_config({"params": {"mu": 0.02}})
        assert cfg.params.b == pytest.approx(0.042, rel=1e-15)
        assert parse_config({"params": {"mu": 0.02, "b": None}}).params == cfg.params

    def test_default_steps_apply_only_without_steps(self):
        assert parse_config({}, default_steps=1000).grid.steps == 1000
        assert parse_config({"steps": None}, default_steps=1000).grid.steps == 1000
        assert parse_config({"steps": 7}, default_steps=1000).grid.steps == 7

    def test_dataclass_errors_name_their_section(self):
        with pytest.raises(ConfigError, match="^invalid grid: "):
            parse_config({"horizon": 0})
        with pytest.raises(ConfigError, match="^invalid params: "):
            parse_config({"params": {"eta_a": 0.5}})
        with pytest.raises(ConfigError, match="^invalid control: "):
            parse_config({"control": {"relaxation": 0}})
        with pytest.raises(ConfigError, match="^invalid refinements: "):
            parse_config({"refinements": [0, 100, 200]})

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            parse_config({"horizons": 20})
        with pytest.raises(ConfigError):
            parse_config({"params": {"Mu": 0.01}})
        with pytest.raises(ConfigError):
            parse_config({"control": {"umax": 0.5}})
        with pytest.raises(ConfigError):
            parse_config({"output": {"plots": "x"}})

    def test_initial_fractions_validated(self):
        with pytest.raises(ConfigError):
            parse_config({"initial": {"s": 0.9, "i": 0.2, "c": 0.1, "a": 0.1}})
        with pytest.raises(ConfigError):
            parse_config({"initial": {"s": -0.1, "i": 0.7, "c": 0.2, "a": 0.2}})

    def test_bad_values_rejected(self):
        with pytest.raises(ConfigError):
            parse_config({"steps": 0})
        with pytest.raises(ConfigError):
            parse_config({"horizon": -1.0})
        with pytest.raises(ConfigError):
            parse_config({"adjoint_mode": "printed"})
        with pytest.raises(ConfigError):
            parse_config({"refinements": [100, 200]})
        with pytest.raises(ConfigError):
            parse_config({"control": {"u_max": 1.0}})

    @pytest.mark.parametrize("doc", [
        {"horizon": math.nan}, {"horizon": math.inf}, {"horizon": 10 ** 400},
        {"initial": {"s": math.nan}}, {"params": {"beta": -math.inf}},
        {"control": {"u_max": math.nan}}])
    def test_non_finite_numbers_rejected(self, doc):
        with pytest.raises(ConfigError, match="must be a finite number"):
            parse_config(doc)

    @pytest.mark.parametrize("value", [2.7, True, "3"])
    def test_max_iterations_must_be_an_integer(self, value):
        with pytest.raises(ConfigError,
                           match="^invalid control: max_iterations must be an integer"):
            parse_config({"control": {"max_iterations": value}})

    def test_integral_max_iterations_accepted(self):
        for value in (3, 3.0):
            iterations = parse_config({"control": {"max_iterations": value}}).sweep.max_iterations
            assert iterations == 3 and isinstance(iterations, int)

    def test_integral_float_counts_are_recorded_as_integers(self, tmp_path):
        cfg = parse_config({"steps": 100.0, "refinements": [100.0, 200, 400]})
        assert cfg.grid.steps == 100 and isinstance(cfg.grid.steps, int)
        assert cfg.refinements == (100, 200, 400)
        assert all(isinstance(m, int) for m in cfg.refinements)
        resolved = json.dumps(cfg.resolved_dict())
        assert '"steps": 100,' in resolved and '"refinements": [100, 200, 400]' in resolved
        # and the manifest a run writes records the integer
        out = tmp_path / "whole.csv"
        assert run(["simulate", "--method", "rk4", "--out", str(out),
                    "--config", write_config(tmp_path, {"steps": 100.0})]) == 0
        steps = json.loads((tmp_path / "whole.manifest.json").read_text())["config"]["steps"]
        assert steps == 100 and isinstance(steps, int)

    @pytest.mark.parametrize("steps", [True, 2.5, "100"])
    def test_steps_follow_the_library_count_rule(self, steps):
        with pytest.raises(ConfigError, match="^invalid grid: "):
            parse_config({"steps": steps})

    def test_steps_past_the_cap_name_the_cap(self):
        with pytest.raises(ConfigError, match=f"^invalid grid: .*{MAX_GRID_STEPS}"):
            parse_config({"steps": MAX_GRID_STEPS + 1})
        with pytest.raises(ConfigError, match=f"^invalid refinements: .*{MAX_GRID_STEPS}"):
            parse_config({"refinements": [100, 200, MAX_GRID_STEPS + 1]})
        assert parse_config({"steps": MAX_GRID_STEPS}).grid.steps == MAX_GRID_STEPS

    def test_an_integral_float_refinement_repeats_its_integer(self):
        with pytest.raises(ConfigError, match=r"distinct step counts, got \[100, 100, 200\]$"):
            parse_config({"refinements": [100, 100.0, 200]})

    def test_config_file_must_be_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="^cannot read config "):
            load_config(str(path))

    def test_json_constants_fail_the_number_check(self, tmp_path):
        # Python's json reads NaN and Infinity as floats; the key's own check names them
        path = tmp_path / "nan.json"
        path.write_text('{"horizon": NaN}')
        with pytest.raises(ConfigError, match=r"^config\.horizon .* finite .*, got nan$"):
            load_config(str(path))

    def test_config_file_must_be_utf8(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"horizon": 20.0, "output": {"csv": "\xe9.csv"}}')
        with pytest.raises(ConfigError, match="^cannot read config .*utf-8"):
            load_config(str(path))


class TestSimulate:
    def test_default_rk4_run(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        assert run(["simulate", "--method", "rk4", "--out", str(out)]) == 0
        header, data = read_csv(out)
        assert header == ["t", "s", "i", "c", "a"]
        assert data.shape == (101, 5)
        assert abs(data[-1, 1:].sum() - 1.0) <= 1e-6
        manifest = json.loads((tmp_path / "sim.manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["method"] == "rk4"
        assert manifest["config"]["steps"] == 100
        assert manifest["integrator"]["sampling"] == "clip-to-node"
        # full double precision in the CSV cells
        second_row = out.read_text().splitlines()[2]
        assert "0.5517023195135333" in second_row

    def test_dp45_samples_same_grid(self, tmp_path):
        out = tmp_path / "dp.csv"
        assert run(["simulate", "--method", "dp45", "--out", str(out)]) == 0
        _, data = read_csv(out)
        assert data.shape == (101, 5)

    def test_zero_steps_is_a_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"steps": 0})
        code = run(["simulate", "--method", "rk4", "--config", cfg,
                    "--out", str(tmp_path / "x.csv")])
        captured = capsys.readouterr()
        assert code == 2
        err_lines = captured.err.strip().splitlines()
        assert len(err_lines) == 1
        assert err_lines[0].startswith("error: config:")
        assert "grid" in err_lines[0]

    def test_unwritable_output_is_io_error(self, tmp_path, capsys):
        code = run(["simulate", "--method", "rk4",
                    "--out", str(tmp_path / "missing_dir" / "x.csv")])
        assert code == 4
        out, _ = one_error_line(capsys, "io")
        assert out == ""
        assert list(tmp_path.iterdir()) == []

    def test_plot_script_emitted(self, tmp_path):
        out = tmp_path / "sim.csv"
        assert run(["simulate", "--method", "rk4", "--out", str(out),
                    "--plot"]) == 0
        script = tmp_path / "sim.states.gp"
        text = script.read_text()
        assert '"t":"s"' in text and '"t":"a"' in text
        assert "pngcairo" in text


class TestOptimize:
    def test_default_run(self, tmp_path):
        out = tmp_path / "opt.csv"
        assert run(["optimize", "--out", str(out)]) == 0
        header, data = read_csv(out)
        assert header == ["t", "s", "i", "c", "a", "u",
                          "lambda1", "lambda2", "lambda3", "lambda4"]
        assert data.shape == (1001, 10)
        assert np.all(data[:, 5] >= 0.0) and np.all(data[:, 5] <= 0.5)
        np.testing.assert_array_equal(data[-1, 6:], np.zeros(4))
        manifest = json.loads((tmp_path / "opt.manifest.json").read_text())
        diag = manifest["diagnostics"]
        assert diag["converged"] is True
        assert diag["objective"] > diag["objective_zero_control"]
        assert manifest["config"]["steps"] == 1000

    def test_degenerate_bounds_match_simulation(self, tmp_path):
        cfg = write_config(tmp_path, {"steps": 1000, "control": {"u_max": 0.0}})
        opt = tmp_path / "opt.csv"
        sim = tmp_path / "sim.csv"
        assert run(["optimize", "--config", cfg, "--out", str(opt)]) == 0
        cfg_sim = write_config(tmp_path, {"steps": 1000}, "sim.json")
        assert run(["simulate", "--method", "rk4", "--config", cfg_sim,
                    "--out", str(sim)]) == 0
        _, opt_data = read_csv(opt)
        _, sim_data = read_csv(sim)
        assert np.abs(opt_data[:, 1:5] - sim_data[:, 1:5]).max() <= 1e-12
        assert np.all(opt_data[:, 5] == 0.0)

    def test_forced_non_convergence(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "steps": 100,
            "control": {"max_iterations": 1, "delta_error": 1e-12},
        })
        out = tmp_path / "opt.csv"
        code = run(["optimize", "--config", cfg, "--out", str(out)])
        assert code == 3
        assert capsys.readouterr().err.startswith("error: numeric:")
        manifest = json.loads((tmp_path / "opt.manifest.json").read_text())
        assert manifest["diagnostics"]["converged"] is False
        assert out.is_file()

    @pytest.mark.parametrize("control", [
        {"delta_error": float("nan")}, {"delta_error": float("inf")},
        {"relaxation": float("nan")}, {"relaxation": float("inf")}])
    def test_non_finite_tolerance_is_a_config_error(self, tmp_path, capsys, control):
        # a NaN delta_error used to stop the sweep after one iteration as converged
        cfg = write_config(tmp_path, {"steps": 100, "control": control})
        out = tmp_path / "opt.csv"
        code = run(["optimize", "--config", cfg, "--out", str(out)])
        err_lines = capsys.readouterr().err.strip().splitlines()
        assert code == 2
        assert len(err_lines) == 1
        assert err_lines[0].startswith("error: config: control.")
        assert not out.exists()

    def test_verbatim_adjoint_mode_recorded(self, tmp_path):
        cfg = write_config(tmp_path, {"steps": 200})
        out = tmp_path / "opt.csv"
        assert run(["optimize", "--config", cfg, "--adjoint", "verbatim",
                    "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "opt.manifest.json").read_text())
        assert manifest["config"]["adjoint_mode"] == "verbatim"

    def test_plot_artifacts(self, tmp_path):
        cfg = write_config(tmp_path, {"steps": 200})
        out = tmp_path / "opt.csv"
        assert run(["optimize", "--config", cfg, "--out", str(out),
                    "--plot"]) == 0
        assert (tmp_path / "opt.uncontrolled.csv").is_file()
        versus = (tmp_path / "opt.states-vs-uncontrolled.gp").read_text()
        assert "no control" in versus
        control = (tmp_path / "opt.control.gp").read_text()
        assert '"t":"u"' in control


class TestCompare:
    def test_tables_and_baseline_column(self, tmp_path, capsys):
        out = tmp_path / "cmp.csv"
        assert run(["compare", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        for printed in ("0.4495660", "0.0659270", "0.0161175",
                        "0.0151705", "0.0022508", "0.0006695"):
            assert printed in stdout
        lines = out.read_text().splitlines()
        assert lines[0].split(",") == ["method", "variable", "norm", "computed",
                                       "baseline", "rel_dev"]
        assert len(lines) == 1 + 36


class TestOrders:
    def test_slope_report(self, tmp_path, capsys):
        out = tmp_path / "orders.csv"
        assert run(["orders", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        for method in ("euler", "rk2", "rk4"):
            assert method in stdout
        assert "FAIL" not in stdout
        manifest = json.loads((tmp_path / "orders.manifest.json").read_text())
        slopes = manifest["diagnostics"]["slopes"]
        assert 0.9 <= slopes["euler"]["slope"] <= 1.1
        assert 1.8 <= slopes["rk2"]["slope"] <= 2.2
        assert 3.5 <= slopes["rk4"]["slope"] <= 4.5

    def test_equilibrium_is_a_numeric_error(self, tmp_path, capsys):
        # every terminal error is exactly 0, so no slope exists to report
        cfg = write_config(tmp_path, {"initial": {"s": 1, "i": 0, "c": 0, "a": 0}})
        out = tmp_path / "orders.csv"
        code = run(["orders", "--config", cfg, "--out", str(out)])
        err_lines = capsys.readouterr().err.strip().splitlines()
        assert code == 3
        assert len(err_lines) == 1
        assert err_lines[0].startswith("error: numeric: ")
        assert not out.exists()
        assert not (tmp_path / "orders.manifest.json").exists()


class TestManifestReplay:
    """Re-running a subcommand on ``manifest["config"]`` reproduces its CSV."""

    @pytest.mark.parametrize("argv, doc", [
        (["simulate", "--method", "rk2"], None),
        (["simulate", "--method", "dp45"], None),
        # the resolved b and the flag's adjoint mode come back from the config
        (["optimize", "--adjoint", "verbatim"], {"params": {"mu": 0.02}, "steps": 200}),
        (["compare"], None),
        (["orders"], {"refinements": [50, 100.0, 200]}),
    ], ids=["simulate-rk2", "simulate-dp45", "optimize-verbatim", "compare", "orders"])
    def test_manifest_round_trip_reproduces_csv(self, tmp_path, argv, doc):
        out1 = tmp_path / "a.csv"
        config = [] if doc is None else ["--config", write_config(tmp_path, doc)]
        assert run(argv + config + ["--out", str(out1)]) == 0
        manifest = json.loads((tmp_path / "a.manifest.json").read_text())
        cfg = write_config(tmp_path, manifest["config"], "replay.json")
        method = ["--method", manifest["method"]] if "method" in manifest else []
        out2 = tmp_path / "b.csv"
        assert run([manifest["command"], *method, "--config", cfg,
                    "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        replayed = json.loads((tmp_path / "b.manifest.json").read_text())
        assert replayed["config"] == manifest["config"]


class TestPlotEmission:
    def test_byte_stable(self, tmp_path):
        path = tmp_path / "ok.csv"
        path.write_text("t,s,i,c,a\n0,0.6,0.2,0.1,0.1\n")
        script = tmp_path / "ok.states.gp"
        emit_plot_script(script, path, "states")
        first = script.read_bytes()
        emit_plot_script(script, path, "states")
        assert script.read_bytes() == first

    @pytest.mark.parametrize("stem, quoted", [('a"b', 'a\\"b'), ("a\\b", "a\\\\b")],
                             ids=["quote", "backslash"])
    def test_file_names_are_escaped(self, tmp_path, monkeypatch, stem, quoted):
        # gnuplot reads a backslash escape inside a double-quoted string
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, {"steps": 10})
        assert run(["optimize", "--plot", "--config", cfg, "--out", f"{stem}.csv"]) == 0
        versus = (tmp_path / f"{stem}.states-vs-uncontrolled.gp").read_text()
        assert f'set output "{quoted}.states-vs-uncontrolled.png"' in versus
        assert f'plot "{quoted}.csv" using "t":"s"' in versus
        assert f'"{quoted}.uncontrolled.csv" using "t":"a" with lines dt 2' in versus
        control = (tmp_path / f"{stem}.control.gp").read_text()
        assert f'set output "{quoted}.control.png"' in control
        assert f'plot "{quoted}.csv" using "t":"u"' in control


class TestUsageErrors:
    def test_unknown_method_is_usage_error(self, tmp_path, capsys):
        code = run(["simulate", "--method", "rk3",
                    "--out", str(tmp_path / "x.csv")])
        capsys.readouterr()
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["simulate", "--method", "rk3"], ["simulate"], [],
        ["simulate", "--method", "rk4", "--bogus"], ["optimize", "--adjoint", "x"],
    ], ids=["unknown-method", "no-method", "no-command", "unknown-option", "unknown-adjoint"])
    def test_one_error_line(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        assert run(argv) == 2
        out, _ = one_error_line(capsys, "usage")
        assert out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [["--help"], ["simulate", "--help"], ["--version"]])
    def test_help_and_version_exit_zero_on_stdout(self, capsys, argv):
        assert run(argv) == 0
        captured = capsys.readouterr()
        assert captured.out and not captured.err


class TestReusedParser:
    """``main`` builds its parser on the first call and reuses it in the process."""

    def test_one_tree_per_process(self):
        assert cli._build_parser() is cli._build_parser()

    def test_import_builds_no_parser(self):
        # a parser built at import would add to every process's start-up time
        code = "import sicaoc.cli as c; print(c._build_parser.cache_info().currsize)"
        proc = subprocess.run([sys.executable, "-c", code], env=child_env(),
                              capture_output=True, text=True, check=True)
        assert proc.stdout == "0\n"

    def test_options_and_defaults_do_not_carry_over(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)

        def config(stem):
            return json.loads((tmp_path / f"{stem}.manifest.json").read_text())["config"]

        assert run(["simulate", "--method", "rk4", "--plot", "--out", "a.csv"]) == 0
        assert run(["simulate", "--method", "euler", "--out", "b.csv"]) == 0
        assert (tmp_path / "a.states.gp").is_file()
        assert not (tmp_path / "b.states.gp").exists()
        assert run(["optimize", "--adjoint", "verbatim", "--out", "v.csv"]) == 0
        assert run(["optimize", "--out", "d.csv"]) == 0
        assert config("v")["adjoint_mode"] == "verbatim"
        assert (config("d")["adjoint_mode"], config("d")["steps"]) == ("derived", 1000)
        assert run(["compare", "--out", "c.csv"]) == 0
        assert config("c")["steps"] == 100

    def test_each_call_gives_its_own_exit_and_output(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        calls = [["simulate", "--method", "rk3"], ["--version"], ["--help"],
                 ["simulate", "--method", "rk4"]]

        def outputs(fresh):
            got = []
            for argv in calls:
                if fresh:
                    cli._build_parser.cache_clear()
                got.append((run(argv), *capsys.readouterr()))
            return got

        reused = outputs(fresh=False)
        (code, out, err), version, helped, simulated = reused
        assert (code, out) == (2, "")
        assert err.startswith("error: usage: ") and err.count("\n") == 1
        assert version == (0, f"sicaoc {sicaoc.__version__}\n", "")
        assert helped[0] == 0 and helped[1].startswith("usage: sicaoc ") and helped[2] == ""
        assert simulated[0] == 0 and simulated[1] and simulated[2] == ""
        assert reused == outputs(fresh=True)


class TestHostileConfig:
    # documents whose error line is pinned in full; a tolerance of 100% or
    # more passed the first convergence test on no information
    EXACT = {**dict.fromkeys(("[]", "3", "null"), "config root must be a JSON object"),
             **dict.fromkeys(('{"control": {"delta_error": 1.0}}',
                              '{"control": {"delta_error": 1e300}}'),
                             "invalid control: delta_error must lie in (0, 1)")}

    @pytest.mark.parametrize("text", [
        '{"horizon": NaN}', '{"horizon": Infinity}', '{"horizon": -Infinity}',
        '{"horizon": 1e400}', '{"initial": {"s": NaN}}', '{"params": {"beta": NaN}}',
        '{"control": {"max_iterations": 2.7}}', '{"horizon": ' + "9" * 5000 + "}",
        '{"adjoint_mode": NaN}', '{"output": {"csv": NaN}}', '{"output": {"csv": 5}}',
        '{"steps": 1' + "0" * 400 + "}", '{"steps": 1000001}',
        '{"refinements": [100, 200, 1' + "0" * 400 + "]}", '{"refinements": [100, 100, 100]}',
        '{"horizon": null}', '{"horizon": 5e-324, "steps": 1}',
        '{"output": {"csv": "a\\u0000b"}}', '{"output": {"csv": "a\\nb.csv"}}',
        '{"horizon": ' + "[" * 100_000 + "]" * 100_000 + "}", '{"steps": 2.5}',
        *EXACT,
    ], ids=["horizon-nan", "horizon-inf", "horizon-minus-inf", "horizon-1e400",
            "initial-nan", "param-nan", "max-iterations-2.7", "int-past-digit-limit",
            "adjoint-mode-nan", "output-nan", "output-int", "steps-400-digits",
            "steps-past-bound", "refinement-400-digits", "refinements-repeated",
            "horizon-null", "refinement-step-underflow", "output-nul", "output-newline",
            "nested-past-recursion-limit", "steps-fractional",
            "root-array", "root-number", "root-null", "delta-error-one",
            "delta-error-1e300"])
    @pytest.mark.parametrize("argv", [["simulate", "--method", "rk4"],
                                      ["simulate", "--method", "dp45"], ["optimize"]],
                             ids=["simulate-rk4", "simulate-dp45", "optimize"])
    def test_is_a_config_error(self, tmp_path, capsys, text, argv):
        cfg = tmp_path / "config.json"
        cfg.write_text(text)
        out = tmp_path / "run.csv"
        code = run(argv + ["--config", str(cfg), "--out", str(out)])
        err_lines = capsys.readouterr().err.strip().splitlines()
        assert code == 2
        assert len(err_lines) == 1
        assert err_lines[0].startswith("error: config: ")
        if text in self.EXACT:
            assert err_lines[0] == "error: config: " + self.EXACT[text]
        assert os.listdir(tmp_path) == ["config.json"]


class TestIterationCap:
    @pytest.mark.parametrize("budget", ["1e300", "1" + "0" * 400, str(MAX_ITERATIONS + 1)],
                             ids=["1e300", "10**400", "cap-plus-one"])
    def test_budget_past_the_cap_is_a_config_error(self, tmp_path, capsys, monkeypatch,
                                                   budget):
        # a sweep that never converges would run on under such a budget
        cfg = tmp_path / "config.json"
        cfg.write_text('{"control": {"max_iterations": %s}}' % budget)
        workdir = tmp_path / "run"
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        assert run(["optimize", "--plot", "--config", str(cfg)]) == 2
        out, line = one_error_line(capsys, "config")
        assert out == ""
        assert line == (f"error: config: invalid control: max_iterations exceeds the cap "
                        f"of {MAX_ITERATIONS}")
        assert list(workdir.iterdir()) == []

    def test_budget_at_the_cap_is_accepted(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, {"steps": 10, "control": {"max_iterations": MAX_ITERATIONS}})
        assert run(["optimize", "--config", cfg, "--out", "run.csv"]) == 0
        manifest = json.loads((tmp_path / "run.manifest.json").read_text())
        assert manifest["config"]["control"]["max_iterations"] == MAX_ITERATIONS
        assert capsys.readouterr().err == ""


class TestOverflowingStages:
    """A stage or step that overflows is reported in one stderr line.

    numpy prints its floating-point warnings straight to stderr, and
    pytest's warning capture hides them in-process, so the command runs
    in a child interpreter.
    """

    CONFIGS = pytest.mark.parametrize(
        "doc", [{"params": {"beta": 1e308}}, {"horizon": 1.797e308}],
        ids=["beta-1e308", "horizon-1.797e308"])

    @staticmethod
    def run_child(tmp_path, doc, argv):
        cfg = write_config(tmp_path, doc)
        proc = subprocess.run([sys.executable, "-m", "sicaoc"] + argv + ["--config", cfg],
                              cwd=tmp_path, env=child_env(), capture_output=True, text=True)
        err_lines = proc.stderr.splitlines()
        assert proc.returncode == 3
        assert len(err_lines) == 1
        assert err_lines[0].startswith("error: numeric: ")
        return err_lines[0]

    @CONFIGS
    @pytest.mark.parametrize("argv", [["orders"], ["compare"],
                                      ["simulate", "--method", "dp45"]],
                             ids=["orders", "compare", "simulate-dp45"])
    def test_one_error_line(self, tmp_path, doc, argv):
        self.run_child(tmp_path, doc, argv)

    @CONFIGS
    @pytest.mark.parametrize("argv, message", [
        (["simulate", "--method", "euler"], "euler produced a non-finite state at node 2"),
        (["simulate", "--method", "rk4"], "rk4 produced a non-finite state at node 1"),
        (["optimize"], "forward pass produced a non-finite state at node 1"),
    ], ids=["simulate-euler", "simulate-rk4", "optimize"])
    def test_first_failing_node_is_named(self, tmp_path, doc, argv, message):
        # one check after each march finds the node where the states overflowed
        assert self.run_child(tmp_path, doc, argv) == f"error: numeric: {message}"

    def test_overflowing_costate_terms_add_no_warning(self, tmp_path):
        # the costate march computes its (x, u)-only terms as arrays, where an
        # overflow must not print a numpy warning before the error line
        doc = {"params": {"beta": 1e10, "eta_a": 1e300},
               "initial": {"s": 1, "i": 0, "c": 0, "a": 0}, "steps": 50}
        assert self.run_child(tmp_path, doc, ["optimize", "--out", "costate.csv"]) == (
            "error: numeric: backward pass produced a non-finite costate at node 49")
        assert os.listdir(tmp_path) == ["config.json"]

    def test_overflowing_norms_add_no_warning(self, tmp_path):
        # Euler's states stay finite but reach 5.6e274, so its 2-norms
        # overflow; rk2's failure must still be the only stderr line
        doc = {"params": {"d": 20.0}, "horizon": 11.40396685193138}
        assert self.run_child(tmp_path, doc, ["compare"]) == (
            "error: numeric: rk2 produced a non-finite state at node 90")


def one_error_line(capsys, category):
    captured = capsys.readouterr()
    err_lines = captured.err.strip().splitlines()
    assert len(err_lines) == 1
    assert err_lines[0].startswith(f"error: {category}: ")
    return captured.out, err_lines[0]


class TestExitContract:
    def test_any_numerical_failure_exits_3(self, tmp_path, capsys, monkeypatch):
        # main keys on the base class, not on a list of its subclasses
        def fail(*args):
            raise NumericalFailure("probe")
        monkeypatch.setattr("sicaoc.cli.solve", fail)
        monkeypatch.chdir(tmp_path)
        assert run(["optimize"]) == 3
        assert one_error_line(capsys, "numeric")[1] == "error: numeric: probe"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv, stem", [
        (["simulate", "--method", "rk4"], "simulate_rk4"), (["optimize"], "optimize"),
        (["optimize", "--config", "../nc.json", "--out", "nc.csv"], "nc"),
        (["compare"], "compare_norms"), (["orders"], "orders"), (["--help"], None),
        (["--version"], None), (["simulate", "--help"], None),
    ], ids=["simulate", "optimize", "optimize-not-converged", "compare", "orders", "help",
            "version", "simulate-help"])
    def test_full_stdout_is_an_io_error(self, tmp_path, argv, stem, unbuffered):
        # every file is written before the first print, so a run leaves all its
        # artifacts whether the write fails in a print or in the flush after it;
        # the io error also wins over the sweep's non-convergence
        write_config(tmp_path, {"steps": 100, "control": {"max_iterations": 1,
                                                          "delta_error": 1e-12}}, "nc.json")
        cwd = tmp_path / "run"
        cwd.mkdir()
        env = child_env()
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        with open("/dev/full", "w") as full:
            proc = subprocess.run([sys.executable, "-m", "sicaoc"] + argv, cwd=cwd,
                                  env=env, stdout=full, stderr=subprocess.PIPE, text=True)
        assert proc.returncode == 4
        assert proc.stderr == "error: io: [Errno 28] No space left on device\n"
        artifacts = [] if stem is None else [f"{stem}.csv", f"{stem}.manifest.json"]
        assert sorted(os.listdir(cwd)) == artifacts


class TestOutputPaths:
    """Output paths are resolved and checked before anything is computed."""

    @pytest.fixture(autouse=True)
    def in_tmp_path(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)

    def test_missing_directory_fails_before_the_solve(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("sicaoc.cli.solve", lambda *args: pytest.fail("solve ran"))
        cfg = write_config(tmp_path, {"output": {"csv": "x/y.dat"}})
        assert run(["optimize", "--config", cfg]) == 4
        out, err = one_error_line(capsys, "io")
        assert err == "error: io: [Errno 2] No such file or directory: 'x/y.dat'"
        assert out == ""

    @pytest.mark.parametrize("out, message", [
        ("link.csv", "[Errno 2] No such file or directory: 'link.csv'"),
        ("loop.csv", "[Errno 40] Too many levels of symbolic links: 'loop.csv'"),
        ("a" * 300 + ".csv", f"[Errno 36] File name too long: '{'a' * 300}.csv'"),
    ], ids=["link-into-missing-directory", "symlink-loop", "name-too-long"])
    def test_resolved_path_fails_before_the_solve(self, capsys, monkeypatch, out, message):
        # each path is checked after every symlink is followed
        os.symlink("nodir/target.csv", "link.csv")
        os.symlink("loop.csv", "loop.csv")
        monkeypatch.setattr("sicaoc.cli.solve", lambda *args: pytest.fail("solve ran"))
        assert run(["optimize", "--out", out]) == 4
        stdout, err = one_error_line(capsys, "io")
        assert err == f"error: io: {message}"
        assert stdout == ""

    def test_link_to_a_file_writes_through_the_link(self, tmp_path, capsys):
        (tmp_path / "sub").mkdir()
        (tmp_path / "sub" / "target.csv").write_text("old\n")
        os.symlink("sub/target.csv", "link.csv")
        cfg = write_config(tmp_path, {"steps": 10})
        assert run(["simulate", "--method", "rk4", "--out", "link.csv", "--config", cfg]) == 0
        assert (tmp_path / "link.csv").is_symlink()
        assert (tmp_path / "sub" / "target.csv").read_text().startswith("t,s,i,c,a\n")
        assert capsys.readouterr().out.endswith("wrote link.csv\nwrote link.manifest.json\n")

    def test_compare_fails_before_computing(self, capsys, monkeypatch):
        monkeypatch.setattr("sicaoc.cli.reference_trajectory",
                            lambda *args: pytest.fail("compare ran"))
        assert run(["compare", "--out", "nodir/c.csv"]) == 4
        out, err = one_error_line(capsys, "io")
        assert err == "error: io: [Errno 2] No such file or directory: 'nodir/c.csv'"
        assert out == ""

    def test_directory_as_output_is_io_error(self, tmp_path, capsys):
        (tmp_path / "taken").mkdir()
        assert run(["simulate", "--method", "rk4", "--out", "taken"]) == 4
        out, err = one_error_line(capsys, "io")
        assert err == "error: io: [Errno 21] Is a directory: 'taken'"
        assert out == ""

    @pytest.mark.parametrize("argv, doc", [
        (["simulate", "--method", "rk4", "--out", "."], {}),
        (["simulate", "--method", "rk4"], {"output": {"csv": ""}}),
        (["orders"], {"output": {"manifest": "."}}),
        (["simulate", "--method", "rk4"], {"output": {"csv": "a.csv", "manifest": "a.csv"}}),
        (["optimize", "--plot", "--out", "m.csv"], {"output": {"manifest": "m.csv"}}),
        (["optimize", "--plot", "--out", "m.csv"], {"output": {"manifest": "m.control.gp"}}),
        (["optimize", "--plot", "--out", "m.csv"],
         {"output": {"manifest": "sub/../m.uncontrolled.csv"}}),
        (["simulate", "--method", "euler", "--plot", "--out", "m.csv"],
         {"output": {"manifest": "m.states.gp"}}),
        # a newline would split the gnuplot strings and the `wrote` line
        (["simulate", "--method", "euler", "--plot", "--out", "a\nb.csv"], {}),
        (["optimize", "--plot", "--out", "a\nb.csv"], {}),
        (["simulate", "--method", "rk4", "--out", "a\0b.csv"], {}),
        # str.splitlines also breaks on these, so each would split a `wrote` line
        (["simulate", "--method", "rk4", "--out", "a\x85b.csv"], {}),
        (["simulate", "--method", "rk4"], {"output": {"csv": "a\u2028b.csv"}}),
        (["orders"], {"output": {"manifest": "a\u2029b.json"}}),
        # an empty string is a given path, not an absent one, even when overridden
        (["simulate", "--method", "rk4", "--out", ""], {}),
        (["orders"], {"output": {"manifest": ""}}),
        (["simulate", "--method", "rk4", "--out", "x.csv"], {"output": {"csv": ""}}),
        # Path("newname/") is Path("newname"), but the path asked for a directory
        (["simulate", "--method", "rk4", "--out", "newname/"], {}),
        (["simulate", "--method", "rk4", "--out", "sub/"], {}),
        (["simulate", "--method", "rk4"], {"output": {"manifest": "newname/"}}),
        # Path also drops a trailing ".": "notes.txt/." would overwrite notes.txt
        (["simulate", "--method", "rk4", "--out", "newname/."], {}),
        (["simulate", "--method", "rk4", "--out", "notes.txt/."], {}),
        (["simulate", "--method", "rk4"], {"output": {"manifest": "notes.txt/."}}),
    ], ids=["out-dot", "csv-empty", "manifest-dot", "csv-is-manifest", "plot-csv-is-manifest",
            "manifest-is-control-script", "manifest-is-uncontrolled-csv",
            "manifest-is-states-script", "simulate-plot-out-newline",
            "optimize-plot-out-newline", "out-nul", "out-next-line",
            "csv-line-separator", "manifest-paragraph-separator",
            "out-empty", "manifest-empty", "overridden-csv-empty",
            "out-trailing-separator", "out-existing-dir-separator",
            "manifest-trailing-separator", "out-trailing-dot", "out-existing-file-dot",
            "manifest-trailing-dot"])
    def test_unusable_or_colliding_paths_are_config_errors(self, tmp_path, capsys,
                                                           argv, doc):
        (tmp_path / "sub").mkdir()
        (tmp_path / "notes.txt").write_bytes(b"precious\n")
        cfg = write_config(tmp_path, {"steps": 10, **doc}, "cfg.json")
        assert run(argv + ["--config", cfg]) == 2
        out, _ = one_error_line(capsys, "config")
        assert out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "notes.txt", "sub"]
        assert (tmp_path / "notes.txt").read_bytes() == b"precious\n"

    @pytest.mark.parametrize("argv", [["simulate", "--method", "rk4"], ["optimize"],
                                      ["compare"], ["orders"]],
                             ids=["simulate", "optimize", "compare", "orders"])
    @pytest.mark.parametrize("out, output", [
        ("", {}), (None, {"manifest": ""}), ("x.csv", {"csv": ""}), (None, {"csv": ""}),
    ], ids=["out", "manifest", "overridden-csv", "csv"])
    def test_empty_path_names_no_file(self, tmp_path, capsys, monkeypatch, argv, out,
                                      output):
        cfg = write_config(tmp_path, {"steps": 10, "output": output})
        (tmp_path / "work").mkdir()
        monkeypatch.chdir(tmp_path / "work")
        flag = [] if out is None else ["--out", out]
        assert run(argv + flag + ["--config", cfg]) == 2
        stdout, err = one_error_line(capsys, "config")
        assert err == "error: config: output path '' names no file"
        assert stdout == ""
        assert list((tmp_path / "work").iterdir()) == []

    @pytest.mark.parametrize("argv, written, outputs", [
        (["optimize", "--plot", "--out", "run.dat"],
         ["run.dat", "run.dat.manifest.json", "run.dat.uncontrolled.csv",
          "run.dat.states-vs-uncontrolled.gp", "run.dat.control.gp"],
         {"csv": "run.dat", "uncontrolled_csv": "run.dat.uncontrolled.csv",
          "plots": ["run.dat.states-vs-uncontrolled.gp", "run.dat.control.gp"]}),
        (["simulate", "--method", "rk4", "--plot", "--out", "sub/run.dat"],
         ["sub/run.dat", "sub/run.dat.manifest.json", "sub/run.dat.states.gp"],
         {"csv": "sub/run.dat", "plots": ["sub/run.dat.states.gp"]}),
        (["simulate", "--method", "euler", "--plot", "--out", "run"],
         ["run", "run.manifest.json", "run.states.gp"],
         {"csv": "run", "plots": ["run.states.gp"]}),
    ], ids=["optimize", "simulate-in-subdirectory", "simulate-no-suffix"])
    def test_companions_share_the_csv_stem(self, tmp_path, capsys, argv, written, outputs):
        (tmp_path / "sub").mkdir()
        cfg = write_config(tmp_path, {"steps": 50}, "cfg.json")
        assert run(argv + ["--config", cfg]) == 0
        assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")
                      if p.is_file()) == sorted(written + ["cfg.json"])
        assert capsys.readouterr().out.endswith("".join(f"wrote {p}\n" for p in written))
        assert json.loads(Path(written[1]).read_text())["outputs"] == outputs
        for script in outputs["plots"]:
            png = Path(script).name.removesuffix(".gp") + ".png"
            assert f'set output "{png}"' in Path(script).read_text()

    def test_config_path_with_nul_is_a_config_error(self, tmp_path, capsys):
        assert run(["simulate", "--method", "rk4", "--config", "a\0b.json"]) == 2
        out, err = one_error_line(capsys, "config")
        assert err.startswith("error: config: cannot read config ")
        assert out == ""
        assert list(tmp_path.iterdir()) == []

    def test_config_path_is_quoted_in_the_error(self, tmp_path, capsys):
        # an escape sequence in the path must not reach the terminal
        assert run(["simulate", "--method", "rk4", "--config", "a\x1b[31mb.json"]) == 2
        out, err = one_error_line(capsys, "config")
        assert err.startswith("error: config: cannot read config 'a\\x1b[31mb.json': ")
        assert "\x1b" not in err
        assert out == ""

    def test_plot_files_may_share_a_name_without_plot(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"steps": 10,
                                      "output": {"manifest": "m.control.gp"}})
        assert run(["optimize", "--out", "m.csv", "--config", cfg]) == 0
        assert capsys.readouterr().out.endswith("wrote m.csv\nwrote m.control.gp\n")
