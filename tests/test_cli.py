import errno
import io
import json
import math
import os
import runpy
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import sicaoc
from sicaoc import NumericalFailure, cli
from sicaoc.cli import (MAX_GRID_STEPS, MAX_ITERATIONS, ConfigError, emit_plot_script,
                        load_config, parse_config)

from cli_run import check_contract, run_cli


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, data


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
        assert run_cli(["simulate", "--method", "rk4", "--out", "whole.csv"], {"steps": 100.0},
                       tmp_path).code == 0
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
    def test_default_rk4_run(self, tmp_path):
        out = tmp_path / "sim.csv"
        assert run_cli(["simulate", "--method", "rk4", "--out", str(out)]).code == 0
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
        assert run_cli(["simulate", "--method", "dp45", "--out", str(out)]).code == 0
        _, data = read_csv(out)
        assert data.shape == (101, 5)

    def test_plot_script_emitted(self, tmp_path):
        out = tmp_path / "sim.csv"
        assert run_cli(["simulate", "--method", "rk4", "--out", str(out), "--plot"]).code == 0
        script = tmp_path / "sim.states.gp"
        text = script.read_text()
        assert '"t":"s"' in text and '"t":"a"' in text
        assert "pngcairo" in text


class TestOptimize:
    def test_default_run(self, tmp_path):
        out = tmp_path / "opt.csv"
        assert run_cli(["optimize", "--out", str(out)]).code == 0
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
        opt = tmp_path / "opt.csv"
        sim = tmp_path / "sim.csv"
        assert run_cli(["optimize", "--out", str(opt)],
                       {"steps": 1000, "control": {"u_max": 0.0}}).code == 0
        assert run_cli(["simulate", "--method", "rk4", "--out", str(sim)],
                       {"steps": 1000}).code == 0
        _, opt_data = read_csv(opt)
        _, sim_data = read_csv(sim)
        assert np.abs(opt_data[:, 1:5] - sim_data[:, 1:5]).max() <= 1e-12
        assert np.all(opt_data[:, 5] == 0.0)

    def test_forced_non_convergence(self, tmp_path):
        out = tmp_path / "opt.csv"
        code, _, err, _ = run_cli(["optimize", "--out", str(out)], {
            "steps": 100,
            "control": {"max_iterations": 1, "delta_error": 1e-12},
        })
        assert code == 3
        assert err[0].startswith("error: numeric:")
        manifest = json.loads((tmp_path / "opt.manifest.json").read_text())
        assert manifest["diagnostics"]["converged"] is False
        assert out.is_file()

    @pytest.mark.parametrize("control", [
        {"delta_error": float("nan")}, {"delta_error": float("inf")},
        {"relaxation": float("nan")}, {"relaxation": float("inf")}])
    def test_non_finite_tolerance_is_a_config_error(self, control):
        # a NaN delta_error used to stop the sweep after one iteration as converged
        code, _, err, files = run_cli(["optimize", "--out", "opt.csv"],
                                      {"steps": 100, "control": control})
        assert code == 2
        assert err[0].startswith("error: config: control.")
        assert files == []

    def test_verbatim_adjoint_mode_recorded(self, tmp_path):
        out = tmp_path / "opt.csv"
        assert run_cli(["optimize", "--adjoint", "verbatim", "--out", str(out)],
                       {"steps": 200}).code == 0
        manifest = json.loads((tmp_path / "opt.manifest.json").read_text())
        assert manifest["config"]["adjoint_mode"] == "verbatim"

    def test_plot_artifacts(self, tmp_path):
        out = tmp_path / "opt.csv"
        assert run_cli(["optimize", "--out", str(out), "--plot"], {"steps": 200}).code == 0
        assert (tmp_path / "opt.uncontrolled.csv").is_file()
        versus = (tmp_path / "opt.states-vs-uncontrolled.gp").read_text()
        assert "no control" in versus
        control = (tmp_path / "opt.control.gp").read_text()
        assert '"t":"u"' in control

    def test_marches_forward_once_per_iteration(self, tmp_path, monkeypatch):
        # counted where perfbench's Tracer.wrap_problem counts: J(0) and the
        # uncontrolled CSV come from the sweep's first pass, not from one more march
        marches = []

        def counting_problem(*args):
            problem = sica_problem(*args)
            march = problem.state_field
            problem.state_field = lambda *a: marches.append(a) or march(*a)
            return problem
        sica_problem = cli.sica_problem
        monkeypatch.setattr(cli, "sica_problem", counting_problem)
        assert run_cli(["optimize", "--out", str(tmp_path / "opt.csv"), "--plot"],
                       {"steps": 200}).code == 0
        manifest = json.loads((tmp_path / "opt.manifest.json").read_text())
        assert len(marches) == manifest["diagnostics"]["iterations"]


class TestWriteCsv:
    def test_rows_keep_the_bytes_of_str_per_cell(self, tmp_path):
        header = ("method", "steps", "value", "note")
        rows = [("rk4", 100, 0.1, "a b"), ["euler", 10 ** 20, -0.0, 5e-324],
                (np.str_("rk2"), np.int64(-7), np.float64(1 / 3), 1.5e308),
                [1, 2.0, float("inf"), float("nan")]]
        out = tmp_path / "mixed.csv"
        cli.write_csv(out, header, rows)
        expected = "".join(",".join(map(str, row)) + "\n" for row in (header, *rows))
        assert out.read_bytes() == expected.encode()


class TestCompare:
    def test_tables_and_baseline_column(self, tmp_path):
        out = tmp_path / "cmp.csv"
        code, stdout, _, _ = run_cli(["compare", "--out", str(out)])
        assert code == 0
        for printed in ("0.4495660", "0.0659270", "0.0161175",
                        "0.0151705", "0.0022508", "0.0006695"):
            assert printed in stdout
        lines = out.read_text().splitlines()
        assert lines[0].split(",") == ["method", "variable", "norm", "computed",
                                       "baseline", "rel_dev"]
        assert len(lines) == 1 + 36


class TestOrders:
    def test_slope_report(self, tmp_path):
        code, stdout, _, _ = run_cli(["orders", "--out", str(tmp_path / "orders.csv")])
        assert code == 0
        for method in ("euler", "rk2", "rk4"):
            assert method in stdout
        assert "FAIL" not in stdout
        manifest = json.loads((tmp_path / "orders.manifest.json").read_text())
        slopes = manifest["diagnostics"]["slopes"]
        assert 0.9 <= slopes["euler"]["slope"] <= 1.1
        assert 1.8 <= slopes["rk2"]["slope"] <= 2.2
        assert 3.5 <= slopes["rk4"]["slope"] <= 4.5

    def test_equilibrium_is_a_numeric_error(self):
        # every terminal error is exactly 0, so no slope exists to report
        code, _, err, files = run_cli(["orders", "--out", "orders.csv"],
                                      {"initial": {"s": 1, "i": 0, "c": 0, "a": 0}})
        assert code == 3
        assert err[0].startswith("error: numeric: ")
        assert files == []


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
        assert run_cli(argv + ["--out", "a.csv"], doc, tmp_path).code == 0
        manifest = json.loads((tmp_path / "a.manifest.json").read_text())
        method = ["--method", manifest["method"]] if "method" in manifest else []
        assert run_cli([manifest["command"], *method, "--out", "b.csv"], manifest["config"],
                       tmp_path).code == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
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
    def test_file_names_are_escaped(self, tmp_path, stem, quoted):
        # gnuplot reads a backslash escape inside a double-quoted string
        assert run_cli(["optimize", "--plot", "--out", f"{stem}.csv"], {"steps": 10},
                       tmp_path).code == 0
        versus = (tmp_path / f"{stem}.states-vs-uncontrolled.gp").read_text()
        assert f'set output "{quoted}.states-vs-uncontrolled.png"' in versus
        assert f'plot "{quoted}.csv" using "t":"s"' in versus
        assert f'"{quoted}.uncontrolled.csv" using "t":"a" with lines dt 2' in versus
        control = (tmp_path / f"{stem}.control.gp").read_text()
        assert f'set output "{quoted}.control.png"' in control
        assert f'plot "{quoted}.csv" using "t":"u"' in control


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ["simulate", "--method", "rk3"], ["simulate", "--method", "rk3", "--out", "x.csv"],
        ["simulate"], [],
        ["simulate", "--method", "rk4", "--bogus"], ["optimize", "--adjoint", "x"],
    ], ids=["unknown-method", "unknown-method-with-out", "no-method", "no-command",
            "unknown-option", "unknown-adjoint"])
    def test_one_error_line(self, argv):
        code, out, err, files = run_cli(argv)
        assert (code, out, files) == (2, "", [])
        assert err[0].startswith("error: usage: ")

    @pytest.mark.parametrize("argv", [["--help"], ["simulate", "--help"], ["--version"]])
    def test_help_and_version_exit_zero_on_stdout(self, argv):
        code, out, _, _ = run_cli(argv)
        assert code == 0 and out


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

    def test_options_and_defaults_do_not_carry_over(self, tmp_path):
        def config(stem):
            return json.loads((tmp_path / f"{stem}.manifest.json").read_text())["config"]

        for argv in (["simulate", "--method", "rk4", "--plot", "--out", "a.csv"],
                     ["simulate", "--method", "euler", "--out", "b.csv"],
                     ["optimize", "--adjoint", "verbatim", "--out", "v.csv"],
                     ["optimize", "--out", "d.csv"], ["compare", "--out", "c.csv"]):
            assert run_cli(argv, cwd=tmp_path).code == 0
        assert (tmp_path / "a.states.gp").is_file()
        assert not (tmp_path / "b.states.gp").exists()
        assert config("v")["adjoint_mode"] == "verbatim"
        assert (config("d")["adjoint_mode"], config("d")["steps"]) == ("derived", 1000)
        assert config("c")["steps"] == 100

    def test_each_call_gives_its_own_exit_and_output(self):
        calls = [["simulate", "--method", "rk3"], ["--version"], ["--help"],
                 ["simulate", "--method", "rk4"]]

        def outputs(fresh):
            got = []
            for argv in calls:
                if fresh:
                    cli._build_parser.cache_clear()
                got.append(run_cli(argv))
            return got

        reused = outputs(fresh=False)
        (code, out, err, _), version, helped, simulated = reused
        assert (code, out) == (2, "")
        assert err[0].startswith("error: usage: ")
        assert version[:2] == (0, f"sicaoc {sicaoc.__version__}\n")
        assert helped.code == 0 and helped.out.startswith("usage: sicaoc ")
        assert simulated.code == 0 and simulated.out
        assert reused == outputs(fresh=True)


class TestHostileConfig:
    # documents whose error line is pinned in full; a tolerance of 100% or
    # more passed the first convergence test on no information
    EXACT = {**dict.fromkeys(("[]", "3", "null"), "config root must be a JSON object"),
             **dict.fromkeys(('{"control": {"delta_error": 1.0}}',
                              '{"control": {"delta_error": 1e300}}'),
                             "invalid control: delta_error must lie in (0, 1)"),
             '{"steps": 0}': "invalid grid: grid steps must be an integer of at least 1, got 0"}

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
            "delta-error-1e300", "steps-zero"])
    @pytest.mark.parametrize("argv", [["simulate", "--method", "rk4"],
                                      ["simulate", "--method", "dp45"], ["optimize"]],
                             ids=["simulate-rk4", "simulate-dp45", "optimize"])
    def test_is_a_config_error(self, text, argv):
        code, _, err, files = run_cli(argv + ["--out", "run.csv"], text)
        assert code == 2
        assert err[0].startswith("error: config: ")
        if text in self.EXACT:
            assert err[0] == "error: config: " + self.EXACT[text]
        assert files == []


class TestIterationCap:
    @pytest.mark.parametrize("budget", ["1e300", "1" + "0" * 400, str(MAX_ITERATIONS + 1)],
                             ids=["1e300", "10**400", "cap-plus-one"])
    def test_budget_past_the_cap_is_a_config_error(self, budget):
        # a sweep that never converges would run on under such a budget
        assert run_cli(["optimize", "--plot"], '{"control": {"max_iterations": %s}}' % budget) == (
            2, "", [f"error: config: invalid control: max_iterations exceeds the cap "
                    f"of {MAX_ITERATIONS}"], [])

    def test_budget_at_the_cap_is_accepted(self, tmp_path):
        assert run_cli(["optimize", "--out", "run.csv"],
                       {"steps": 10, "control": {"max_iterations": MAX_ITERATIONS}},
                       tmp_path).code == 0
        manifest = json.loads((tmp_path / "run.manifest.json").read_text())
        assert manifest["config"]["control"]["max_iterations"] == MAX_ITERATIONS


class TestOverflowingStages:
    """A stage or step that overflows is reported in one stderr line.

    numpy reports an overflow as a RuntimeWarning, which a real run prints
    to stderr before its error line; ``run_cli`` fails on any warning.
    """

    CONFIGS = pytest.mark.parametrize(
        "doc", [{"params": {"beta": 1e308}}, {"horizon": 1.797e308}],
        ids=["beta-1e308", "horizon-1.797e308"])

    @staticmethod
    def failed_run(doc, argv):
        run = run_cli(argv, doc)
        assert (run.code, run.out) == (3, "")
        return run

    @CONFIGS
    @pytest.mark.parametrize("argv", [["orders"], ["compare"],
                                      ["simulate", "--method", "dp45"]],
                             ids=["orders", "compare", "simulate-dp45"])
    def test_one_error_line(self, doc, argv):
        self.failed_run(doc, argv)

    @CONFIGS
    @pytest.mark.parametrize("argv, message", [
        (["simulate", "--method", "euler"], "euler produced a non-finite state at node 2"),
        (["simulate", "--method", "rk4"], "rk4 produced a non-finite state at node 1"),
        (["optimize"], "forward pass produced a non-finite state at node 1"),
    ], ids=["simulate-euler", "simulate-rk4", "optimize"])
    def test_first_failing_node_is_named(self, doc, argv, message):
        # one check after each march finds the node where the states overflowed
        assert self.failed_run(doc, argv).err == [f"error: numeric: {message}"]

    def test_overflowing_costate_terms_add_no_warning(self):
        # the costate march computes its (x, u)-only terms as arrays, where an
        # overflow must not print a numpy warning before the error line
        doc = {"params": {"beta": 1e10, "eta_a": 1e300},
               "initial": {"s": 1, "i": 0, "c": 0, "a": 0}, "steps": 50}
        run = self.failed_run(doc, ["optimize", "--out", "costate.csv"])
        assert (run.err, run.files) == (
            ["error: numeric: backward pass produced a non-finite costate at node 49"], [])

    def test_overflowing_norms_add_no_warning(self):
        # Euler's states stay finite but reach 5.6e274, so its 2-norms
        # overflow; rk2's failure must still be the only stderr line
        doc = {"params": {"d": 20.0}, "horizon": 11.40396685193138}
        assert self.failed_run(doc, ["compare"]).err == [
            "error: numeric: rk2 produced a non-finite state at node 90"]

    def test_overflowing_norms_of_finite_states_write_nothing(self):
        # every method succeeds and Euler's states stay finite (up to 2.8e306),
        # but its 2-norms overflow, which no strict-JSON manifest can hold
        doc = {"params": {"d": 165.08083705360366}, "horizon": 1.7098773859679104}
        run = self.failed_run(doc, ["compare"])
        assert (run.err, run.files) == (
            ["error: numeric: diagnostics.max_abs_rel_dev.euler is not finite"], [])

    @pytest.mark.parametrize("plot", [[], ["--plot"]], ids=["plain", "plot"])
    def test_finite_states_whose_sums_overflow_write_nothing(self, plot):
        # every state is finite (up to 1.36e308), but a node's s+i+c+a is not,
        # so neither is the simplex drift that the manifest would hold
        doc = {"horizon": 13.62560649408172, "steps": 3}
        assert run_cli(["simulate", "--method", "rk4", *plot], doc) == (
            3, "", ["error: numeric: diagnostics.simplex_drift is not finite"], [])


def no_space():
    return OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


class FullStdout:
    """A stdout on a temporary file's descriptor that fails as ``/dev/full`` does.

    Buffered, every write succeeds and every flush fails with ENOSPC: the
    buffer keeps the bytes it could not write.  Unbuffered, as with
    ``PYTHONUNBUFFERED``, every write fails and a flush then succeeds: the
    stream drops the bytes of a failed write.
    """

    def __init__(self, fd, unbuffered):
        self.fd, self.unbuffered = fd, unbuffered

    def write(self, text):
        if self.unbuffered:
            raise no_space()
        return len(text)

    def flush(self):
        if not self.unbuffered:
            raise no_space()

    def fileno(self):
        return self.fd


class ClosedStderr:
    """A stderr whose descriptor was closed under it: every write fails with EBADF."""

    def write(self, text):
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))


@pytest.fixture
def full_stdout(request):
    """A ``FullStdout``, unbuffered if the test parametrizes it indirectly with True."""
    fd, path = tempfile.mkstemp()
    yield FullStdout(fd, getattr(request, "param", False))
    os.close(fd)
    os.unlink(path)


def entry_exit(monkeypatch, stdout, argv):
    """Run ``sicaoc <argv>`` through ``cli.entry`` on ``stdout``; return its exit code."""
    # patched in the test, not in a fixture: pytest puts its own capture
    # back on sys.stdout as the test starts
    monkeypatch.setattr(sys, "stdout", stdout)
    monkeypatch.setattr(sys, "argv", ["sicaoc", *argv])
    with pytest.raises(SystemExit) as exited:
        cli.entry()
    return exited.value.code


NO_SPACE = "error: io: [Errno 28] No space left on device\n"


def failures(stream):
    """The errno, or None, of one write and then of two flushes on ``stream``."""
    result = []
    for call in (lambda: stream.write("x\n"), stream.flush, stream.flush):
        try:
            call()
            result.append(None)
        except OSError as exc:
            result.append(exc.errno)
    return result


class TestExitContract:
    def test_any_numerical_failure_exits_3(self, monkeypatch):
        # main keys on the base class, not on a list of its subclasses
        def fail(*args):
            raise NumericalFailure("probe")
        monkeypatch.setattr("sicaoc.cli.solve", fail)
        code, _, err, _ = run_cli(["optimize"])
        assert (code, err) == (3, ["error: numeric: probe"])

    @pytest.mark.parametrize("full_stdout", [False, True], indirect=True,
                             ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv, stem", [
        (["simulate", "--method", "rk4"], "simulate_rk4"), (["optimize"], "optimize"),
        (["optimize", "--config", "../nc.json", "--out", "nc.csv"], "nc"),
        (["compare"], "compare_norms"), (["orders"], "orders"), (["--help"], None),
        (["--version"], None), (["simulate", "--help"], None),
    ], ids=["simulate", "optimize", "optimize-not-converged", "compare", "orders", "help",
            "version", "simulate-help"])
    def test_full_stdout_is_an_io_error(self, tmp_path, capsys, monkeypatch, full_stdout,
                                        argv, stem):
        # every file is written before the first print, so a run leaves all its
        # artifacts whether the write fails in a print or in the flush after it;
        # the io error also wins over the sweep's non-convergence
        (tmp_path / "nc.json").write_text(json.dumps(
            {"steps": 100, "control": {"max_iterations": 1, "delta_error": 1e-12}}))
        cwd = tmp_path / "run"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        code = entry_exit(monkeypatch, full_stdout, argv)
        assert (code, capsys.readouterr().err) == (4, NO_SPACE)
        artifacts = [] if stem is None else [f"{stem}.csv", f"{stem}.manifest.json"]
        assert sorted(os.listdir(cwd)) == artifacts

    @pytest.mark.parametrize("argv", [["simulate", "--method", "rk4"], ["--version"]],
                             ids=["simulate", "version"])
    def test_closed_stdout_is_an_io_error(self, tmp_path, capsys, monkeypatch, argv):
        # the interpreter sets sys.stdout to None when it starts with fd 1
        # closed; main refuses before it computes or writes anything
        monkeypatch.chdir(tmp_path)
        code = entry_exit(monkeypatch, None, argv)
        assert (code, capsys.readouterr().err) == (4, "error: io: [Errno 9] stdout is closed\n")
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("stderr", [None, ClosedStderr()], ids=["none", "ebadf"])
    @pytest.mark.parametrize("argv, code", [(["simulate", "--method", "rk3"], 2),
                                            (["optimize"], 3)], ids=["usage", "numeric"])
    def test_closed_stderr_keeps_the_exit_code(self, tmp_path, capsys, monkeypatch,
                                               stderr, argv, code):
        # the interpreter sets sys.stderr to None when it starts with fd 2
        # closed; a stderr closed later fails its write with EBADF
        def fail(*args):
            raise NumericalFailure("probe")
        monkeypatch.setattr("sicaoc.cli.solve", fail)
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(sys, "stderr", stderr)
        assert cli.main(argv) == code
        assert capsys.readouterr() == ("", "")
        assert os.listdir(tmp_path) == []

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_full_stdout_through_the_interpreter(self, tmp_path, unbuffered):
        # the witness that FullStdout fails where a real /dev/full stream does
        env = child_env()
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        with open("/dev/full", "w") as full:
            proc = subprocess.run([sys.executable, "-m", "sicaoc", "optimize"], cwd=tmp_path,
                                  env=env, stdout=full, stderr=subprocess.PIPE, text=True)
        assert (proc.returncode, proc.stderr) == (4, NO_SPACE)
        assert sorted(os.listdir(tmp_path)) == ["optimize.csv", "optimize.manifest.json"]

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("full_stdout", [False, True], indirect=True,
                             ids=["buffered", "unbuffered"])
    def test_full_stdout_fails_where_dev_full_does(self, full_stdout):
        # the stdout the interpreter opens on /dev/full: a text layer on a
        # buffer or, with PYTHONUNBUFFERED, on the file itself, written through
        raw = io.FileIO("/dev/full", "w")
        real = (io.TextIOWrapper(raw, write_through=True) if full_stdout.unbuffered
                else io.TextIOWrapper(io.BufferedWriter(raw)))
        try:
            assert failures(full_stdout) == failures(real)
        finally:   # the close flushes what the buffer kept into the null device
            with open(os.devnull, "wb") as null:
                os.dup2(null.fileno(), raw.fileno())
            real.close()


class TestEntryPoints:
    """``python -m sicaoc`` and the console script's ``cli.entry``, run in this process."""

    @pytest.mark.parametrize("argv, code, stdout", [
        (["--version"], 0, "sicaoc 0.1.0\n"), (["simulate", "--method", "rk3"], 2, ""),
    ], ids=["version", "usage-error"])
    def test_python_m_sicaoc(self, capsys, monkeypatch, argv, code, stdout):
        monkeypatch.setattr(sys, "argv", ["sicaoc"] + argv)
        with pytest.raises(SystemExit) as exited:
            runpy.run_module("sicaoc", run_name="__main__")
        out, err = capsys.readouterr()
        check_contract(exited.value.code, err.splitlines())
        assert (exited.value.code, out) == (code, stdout)
        if code:
            assert err.startswith("error: usage: ")

    def test_failing_stdout_is_one_io_error(self, capsys, monkeypatch, full_stdout):
        # main reports the failed flush; entry then points stdout at the null
        # device, so the interpreter's exit flush cannot fail a second time
        assert entry_exit(monkeypatch, full_stdout, ["--version"]) == 4
        assert capsys.readouterr() == ("", NO_SPACE)
        assert os.path.samestat(os.fstat(full_stdout.fileno()), os.stat(os.devnull))

    def test_failing_stdout_leaks_no_descriptor(self, monkeypatch, full_stdout):
        probe = os.open(os.devnull, os.O_RDONLY)
        os.close(probe)
        assert entry_exit(monkeypatch, full_stdout, ["--version"]) == 4
        lowest = os.open(os.devnull, os.O_RDONLY)
        os.close(lowest)
        assert lowest == probe


class TestOutputPaths:
    """Output paths are resolved and checked before anything is computed."""

    def test_missing_directory_fails_before_the_solve(self, monkeypatch):
        monkeypatch.setattr("sicaoc.cli.solve", lambda *args: pytest.fail("solve ran"))
        assert run_cli(["optimize"], {"output": {"csv": "x/y.dat"}}) == (
            4, "", ["error: io: [Errno 2] No such file or directory: 'x/y.dat'"], [])

    @pytest.mark.parametrize("out, message", [
        ("link.csv", "[Errno 2] No such file or directory: 'link.csv'"),
        ("loop.csv", "[Errno 40] Too many levels of symbolic links: 'loop.csv'"),
        ("a" * 300 + ".csv", f"[Errno 36] File name too long: '{'a' * 300}.csv'"),
        ("afile/x.csv", "[Errno 20] Not a directory: 'afile/x.csv'"),
    ], ids=["link-into-missing-directory", "symlink-loop", "name-too-long",
            "file-as-directory"])
    def test_resolved_path_fails_before_the_solve(self, tmp_path, monkeypatch, out, message):
        # each path is checked after every symlink is followed
        os.symlink("nodir/target.csv", tmp_path / "link.csv")
        os.symlink("loop.csv", tmp_path / "loop.csv")
        (tmp_path / "afile").touch()
        monkeypatch.setattr("sicaoc.cli.solve", lambda *args: pytest.fail("solve ran"))
        code, stdout, err, _ = run_cli(["optimize", "--out", out], cwd=tmp_path)
        assert (code, stdout) == (4, "")
        assert err == [f"error: io: {message}"]

    def test_link_to_a_file_writes_through_the_link(self, tmp_path):
        (tmp_path / "sub").mkdir()
        (tmp_path / "sub" / "target.csv").write_text("old\n")
        os.symlink("sub/target.csv", tmp_path / "link.csv")
        code, out, _, _ = run_cli(["simulate", "--method", "rk4", "--out", "link.csv"],
                                  {"steps": 10}, tmp_path)
        assert code == 0
        assert (tmp_path / "link.csv").is_symlink()
        assert (tmp_path / "sub" / "target.csv").read_text().startswith("t,s,i,c,a\n")
        assert out.endswith("wrote link.csv\nwrote link.manifest.json\n")

    def test_compare_fails_before_computing(self, monkeypatch):
        monkeypatch.setattr("sicaoc.cli.reference_trajectory",
                            lambda *args: pytest.fail("compare ran"))
        code, out, err, _ = run_cli(["compare", "--out", "nodir/c.csv"])
        assert (code, out) == (4, "")
        assert err == ["error: io: [Errno 2] No such file or directory: 'nodir/c.csv'"]

    def test_directory_as_output_is_io_error(self, tmp_path):
        (tmp_path / "taken").mkdir()
        code, out, err, _ = run_cli(["simulate", "--method", "rk4", "--out", "taken"],
                                    cwd=tmp_path)
        assert (code, out) == (4, "")
        assert err == ["error: io: [Errno 21] Is a directory: 'taken'"]

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
        # argv holds each byte that is not UTF-8 as a lone surrogate, which a
        # strict UTF-8 stdout cannot print in a `wrote` line
        (["simulate", "--method", "rk4", "--out", "a\udcffb.csv"], {}),
        (["simulate", "--method", "rk4"], {"output": {"csv": "a\udcffb.csv"}}),
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
            "csv-line-separator", "manifest-paragraph-separator", "out-lone-surrogate",
            "csv-lone-surrogate",
            "out-empty", "manifest-empty", "overridden-csv-empty",
            "out-trailing-separator", "out-existing-dir-separator",
            "manifest-trailing-separator", "out-trailing-dot", "out-existing-file-dot",
            "manifest-trailing-dot"])
    def test_unusable_or_colliding_paths_are_config_errors(self, tmp_path, argv, doc):
        (tmp_path / "sub").mkdir()
        (tmp_path / "notes.txt").write_bytes(b"precious\n")
        code, out, err, files = run_cli(argv, {"steps": 10, **doc}, tmp_path)
        assert (code, out, files) == (2, "", ["notes.txt", "sub"])
        assert err[0].startswith("error: config: ")
        assert (tmp_path / "notes.txt").read_bytes() == b"precious\n"

    @pytest.mark.parametrize("io_encoding, path, message", [
        # a C.UTF-8 locale's stdout prints a byte of argv that is not UTF-8 as it came
        ("utf-8:surrogateescape", "a\udcffb.csv", None),
        # no byte comes as this surrogate, so it is no file name whatever stdout is
        ("utf-8:surrogateescape", "a\ud800b.csv", "'\\ud800', which utf-8 cannot encode"),
        ("utf-8:strict", "\u4e00.csv", None),
        ("ascii:strict", "\u4e00.csv", "'\u4e00', which ascii cannot encode"),
    ], ids=["surrogateescape-argv-byte", "surrogateescape-no-byte", "strict-cjk",
            "ascii-cjk"])
    def test_path_must_be_a_file_name_that_stdout_prints(self, io_encoding, path, message):
        # a path that fails is refused before anything is written, not after
        run = run_cli(["simulate", "--method", "rk4", "--out", path], {"steps": 10},
                      io_encoding=io_encoding)
        if message:
            assert run == (2, "", [f"error: config: output path {path!r} holds {message}"], [])
        else:
            assert (run.code, run.files) == (0, [path, path[:-4] + ".manifest.json"])

    @pytest.mark.parametrize("argv", [["simulate", "--method", "rk4"], ["optimize"],
                                      ["compare"], ["orders"]],
                             ids=["simulate", "optimize", "compare", "orders"])
    @pytest.mark.parametrize("out, output", [
        ("", {}), (None, {"manifest": ""}), ("x.csv", {"csv": ""}), (None, {"csv": ""}),
    ], ids=["out", "manifest", "overridden-csv", "csv"])
    def test_empty_path_names_no_file(self, argv, out, output):
        flag = [] if out is None else ["--out", out]
        assert run_cli(argv + flag, {"steps": 10, "output": output}) == (
            2, "", ["error: config: output path '' names no file"], [])

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
    def test_companions_share_the_csv_stem(self, tmp_path, argv, written, outputs):
        (tmp_path / "sub").mkdir()
        code, out, _, _ = run_cli(argv, {"steps": 50}, tmp_path)
        assert code == 0
        assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")
                      if p.is_file()) == sorted(written)
        assert out.endswith("".join(f"wrote {p}\n" for p in written))
        assert json.loads((tmp_path / written[1]).read_text())["outputs"] == outputs
        for script in outputs["plots"]:
            png = Path(script).name.removesuffix(".gp") + ".png"
            assert f'set output "{png}"' in (tmp_path / script).read_text()

    def test_config_path_with_nul_is_a_config_error(self):
        code, out, err, files = run_cli(["simulate", "--method", "rk4", "--config", "a\0b.json"])
        assert (code, out, files) == (2, "", [])
        assert err[0].startswith("error: config: cannot read config ")

    def test_config_path_is_quoted_in_the_error(self):
        # an escape sequence in the path must not reach the terminal
        code, out, err, _ = run_cli(["simulate", "--method", "rk4", "--config", "a\x1b[31mb.json"])
        assert (code, out) == (2, "")
        assert err[0].startswith("error: config: cannot read config 'a\\x1b[31mb.json': ")
        assert "\x1b" not in err[0]

    def test_plot_files_may_share_a_name_without_plot(self):
        code, out, _, _ = run_cli(["optimize", "--out", "m.csv"],
                                  {"steps": 10, "output": {"manifest": "m.control.gp"}})
        assert code == 0 and out.endswith("wrote m.csv\nwrote m.control.gp\n")
