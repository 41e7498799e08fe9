import numpy as np
import pytest

from sicaoc import ControlBounds, NumericalFailure, SweepSettings, TimeGrid, integrate_fixed
from sicaoc.analysis import (OCTAVE_ODE45_BASELINE, VARIABLES, NormTriple,
                             build_norm_table, convergence_order, diff_norms,
                             simplex_drift, stationarity_residual,
                             terminal_reference)
from sicaoc.model import rhs_normalized
from sicaoc.sweep import sica_problem, solve

X0 = np.array([0.6, 0.2, 0.1, 0.1])


class TestDiffNorms:
    def test_identical_vectors(self):
        v = np.linspace(0.0, 1.0, 11)
        assert diff_norms(v, v) == NormTriple(0.0, 0.0, 0.0)

    def test_hand_values(self):
        assert diff_norms(np.array([3.0, -4.0]), np.zeros(2)) == NormTriple(7.0, 5.0, 4.0)
        assert diff_norms(np.ones(4), np.zeros(4)) == NormTriple(4.0, 2.0, 1.0)

    def test_norm_ordering(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            t = diff_norms(rng.normal(size=30), rng.normal(size=30))
            assert t.ninf <= t.n2 <= t.n1

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            diff_norms(np.zeros(3), np.zeros(4))


class TestNormTables:
    def test_first_and_second_order_tables_match_baseline(self, params, reference_101):
        for method in ("euler", "rk2"):
            table = build_norm_table(method, params, X0, reference=reference_101)
            for var in VARIABLES:
                got = table.per_variable[var].as_tuple()
                ref = OCTAVE_ODE45_BASELINE[method][var]
                for g, r in zip(got, ref):
                    assert abs(g - r) / r <= 0.10

    def test_higher_order_methods_dominate(self, params, reference_101):
        tables = {m: build_norm_table(m, params, X0, reference=reference_101)
                  for m in ("euler", "rk2", "rk4")}
        for var in VARIABLES:
            e = tables["euler"].per_variable[var].as_tuple()
            r2 = tables["rk2"].per_variable[var].as_tuple()
            r4 = tables["rk4"].per_variable[var].as_tuple()
            for a, b, c in zip(e, r2, r4):
                assert a > b > c

    def test_reference_against_itself_is_zero(self, reference_101):
        for k in range(4):
            col = reference_101.states[:, k]
            assert diff_norms(col, col) == NormTriple(0.0, 0.0, 0.0)


class TestConvergenceOrder:
    def test_requires_three_levels(self, params):
        with pytest.raises(ValueError):
            convergence_order("euler", params, X0, refinements=(100, 200))

    def test_refinements_follow_the_grid_integer_rule(self, params):
        # a fractional refinement used to be truncated to an integer
        with pytest.raises(ValueError, match="integer"):
            convergence_order("euler", params, X0, refinements=(100.5, 200, 400))
        floats = convergence_order("euler", params, X0, refinements=(100.0, 200.0, 400.0))
        assert floats == convergence_order("euler", params, X0, refinements=(100, 200, 400))
        assert all(type(m) is int for m in floats.refinements)

    @pytest.mark.parametrize("refinements", [(100, 100, 100), (100, 100.0, 200)])
    def test_repeated_levels_are_rejected(self, params, refinements):
        # a repeat used to be fitted as it stood, with only numpy's RankWarning
        # when every level was the same
        with pytest.raises(ValueError, match=r"distinct step counts, got \[100, 100, "):
            convergence_order("euler", params, X0, refinements=refinements)

    def test_euler_slope_near_one(self, params):
        study = convergence_order("euler", params, X0)
        assert 0.9 <= study.slope <= 1.1
        assert len(study.terminal_errors) == 4

    def test_zero_terminal_error_is_degenerate(self, params):
        # at the disease-free equilibrium every method is exact, and log(0) has no fit
        equilibrium = np.array([1.0, 0.0, 0.0, 0.0])
        with pytest.raises(NumericalFailure, match="exactly 0"):
            convergence_order("rk4", params, equilibrium)

    def test_shared_reference_gives_the_same_study(self, params):
        reference = terminal_reference(params, X0, 0.0, 20.0)
        own = convergence_order("rk2", params, X0)
        shared = convergence_order("rk2", params, X0, reference=reference)
        assert shared == own


class TestSimplexDrift:
    def test_exact_simplex_trajectory(self):
        from sicaoc.integrators import Trajectory
        grid = TimeGrid(0.0, 1.0, 4)
        traj = Trajectory(grid, np.tile([0.25, 0.25, 0.25, 0.25], (5, 1)))
        assert simplex_drift(traj) == 0.0

    def test_rk4_default_run(self, params):
        traj = integrate_fixed("rk4", lambda t, x: rhs_normalized(params, x),
                               TimeGrid(0.0, 20.0, 100), X0)
        assert simplex_drift(traj) <= 1e-6

    def test_euler_default_run(self, params):
        traj = integrate_fixed("euler", lambda t, x: rhs_normalized(params, x),
                               TimeGrid(0.0, 20.0, 100), X0)
        assert simplex_drift(traj) <= 1e-3


class TestStationarityResidual:
    def test_all_boundary_control_is_not_applicable(self, params):
        prob = sica_problem(params, ControlBounds(0.0), X0)
        result = solve(prob, SweepSettings(grid=TimeGrid(0.0, 20.0, 100)))
        assert np.all(result.control == 0.0)
        assert stationarity_residual(result, params, ControlBounds(0.0)) is None

    def test_converged_default_run(self, params, default_sweep):
        residual = stationarity_residual(default_sweep["result"], params,
                                         ControlBounds(0.5))
        assert residual is not None
        # within ten times the sweep tolerance scale
        assert residual <= 10 * default_sweep["settings"].delta_error
