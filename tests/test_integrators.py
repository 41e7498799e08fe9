import numpy as np
import pytest

from sicaoc import (AdaptiveSettings, IntegrationFailure, NumericalFailure,
                    TimeGrid, Trajectory, integrate_dp45, integrate_fixed,
                    step_euler, step_rk2, step_rk4)
from sicaoc.model import rhs_normalized

# terminal state of the default scenario at t=20, frozen from a
# fixed-step RK4 run with one million steps (a 500k-step run agrees to
# 1.7e-14 per component)
FINE_RK4_TERMINAL = np.array([
    0.15834805339582042, 0.085600106746025556,
    0.74972780421538798, 0.0063240356427692133,
])

# hand-substituted field value at the default initial state
FIELD_AT_X0 = np.array([
    -0.24616062122519416, 0.1542003106125971,
    0.19798015530629853, -0.10601984469370147,
])


def exponential(t, x):
    return x


def zero_field(t, x):
    return np.zeros_like(x)


class TestTimeGrid:
    def test_rejects_reversed_span(self):
        with pytest.raises(ValueError):
            TimeGrid(1.0, 0.0, 10)

    def test_rejects_zero_steps(self):
        with pytest.raises(ValueError):
            TimeGrid(0.0, 20.0, 0)

    @pytest.mark.parametrize("steps", [2.5, 100.5, np.nan, np.inf, True, "10"])
    def test_rejects_a_non_integer_step_count(self, steps):
        # 2.5 used to fail later with a TypeError, True to pass as 1 step
        with pytest.raises(ValueError, match="integer"):
            TimeGrid(0.0, 20.0, steps)

    def test_integral_float_steps_mean_that_integer(self):
        grid = TimeGrid(0.0, 20.0, 100.0)
        assert type(grid.steps) is int
        assert grid == TimeGrid(0.0, 20.0, 100)
        assert integrate_fixed("euler", zero_field, grid, [1.0]).states.shape == (101, 1)

    @pytest.mark.parametrize("t0, tf", [(0.0, np.inf), (-np.inf, 0.0), (np.nan, 1.0),
                                        (0.0, np.nan), (-1e308, 1e308)])
    def test_rejects_non_finite_span(self, t0, tf):
        # (-1e308, 1e308): tf - t0 overflows, so h would be infinite
        with pytest.raises(ValueError):
            TimeGrid(t0, tf, 10)

    def test_rejects_a_step_that_underflows_or_overflows(self):
        with pytest.raises(ValueError, match="finite positive step"):
            TimeGrid(0.0, 5e-324, 2)
        with pytest.raises(ValueError, match="too large"):
            TimeGrid(0.0, 20.0, 10 ** 400)

    def test_nodes_and_step(self):
        grid = TimeGrid(0.0, 20.0, 100)
        nodes = grid.nodes()
        assert grid.h == 0.2
        assert grid.node_count == 101
        assert nodes[0] == 0.0
        assert nodes[1] == pytest.approx(0.2, rel=1e-15)

    def test_last_node_matches_tf_to_rounding(self):
        for grid in (TimeGrid(0.0, 20.0, 100), TimeGrid(0.0, 1.0, 7),
                     TimeGrid(-3.0, 5.0, 13)):
            assert grid.nodes()[-1] == pytest.approx(grid.tf, abs=1e-14)


class TestTrajectory:
    def test_shape_must_match_grid(self):
        with pytest.raises(ValueError):
            Trajectory(TimeGrid(0.0, 1.0, 4), np.zeros((3, 2)))

    def test_rejects_non_finite(self):
        states = np.zeros((5, 2))
        states[3, 1] = np.nan
        with pytest.raises(ValueError):
            Trajectory(TimeGrid(0.0, 1.0, 4), states)


class TestAdaptiveSettings:
    def test_rejects_bad_tolerances(self):
        with pytest.raises(ValueError):
            AdaptiveSettings(reltol=0.0)
        with pytest.raises(ValueError):
            AdaptiveSettings(abstol=-1e-9)

    @pytest.mark.parametrize("kwargs", [
        {"reltol": np.nan}, {"reltol": np.inf}, {"abstol": np.nan},
        {"max_steps": np.nan}, {"max_steps": np.inf}])
    def test_rejects_non_finite_settings(self, kwargs):
        # a NaN reltol used to reject every step until max_steps, and a NaN
        # max_steps to never stop at the step budget
        with pytest.raises(ValueError, match="integer" if "max_steps" in kwargs else "finite"):
            AdaptiveSettings(**kwargs)

    @pytest.mark.parametrize("max_steps", [0, 2.5, True])
    def test_max_steps_must_be_an_integer(self, max_steps):
        with pytest.raises(ValueError, match="max_steps must be an integer"):
            AdaptiveSettings(max_steps=max_steps)


class TestSteps:
    def test_euler_exponential(self):
        out = step_euler(exponential, 0.0, np.array([1.0]), 0.1)
        assert out == pytest.approx([1.1], rel=1e-15)

    def test_euler_zero_field_is_identity(self):
        x = np.array([0.6, 0.2, 0.1, 0.1])
        assert np.array_equal(step_euler(zero_field, 3.0, x, 0.2), x)

    def test_euler_on_model_field(self, params, x0):
        out = step_euler(lambda t, x: rhs_normalized(params, x), 0.0, x0, 0.2)
        np.testing.assert_allclose(out, x0 + 0.2 * FIELD_AT_X0, rtol=1e-12)

    def test_rk2_constant_field(self):
        out = step_rk2(lambda t, x: np.ones_like(x), 0.0, np.array([0.0]), 0.5)
        assert out == pytest.approx([0.5], rel=1e-15)

    def test_rk2_exponential(self):
        # K1 = 1, K2 = 1.1, update h/2 * 2.1
        out = step_rk2(exponential, 0.0, np.array([1.0]), 0.1)
        assert out == pytest.approx([1.105], rel=1e-15)

    def test_rk2_preserves_equilibrium(self):
        out = step_rk2(lambda t, x: [-v for v in x], 0.0, np.array([0.0]), 0.37)
        assert out == pytest.approx([0.0], abs=0.0)

    def test_rk4_exponential_matches_taylor(self):
        out = step_rk4(exponential, 0.0, np.array([1.0]), 0.1)
        assert out == pytest.approx([np.exp(0.1)], abs=1e-7)

    def test_rk4_zero_field_is_identity(self):
        x = np.array([1.0, -2.0])
        assert np.array_equal(step_rk4(zero_field, 0.0, x, 1.0), x)

    def test_rk4_pure_time_field(self):
        out = step_rk4(lambda t, x: np.array([t]), 0.0, np.array([0.0]), 1.0)
        assert out == pytest.approx([0.5], rel=1e-15)

    def test_step_raises_on_overflow(self):
        # x' = x^3 from 1e100: Euler reaches 1e300 at node 1 and overflows
        # at node 2; the stages of RK2 and RK4 overflow within the first step
        blower = lambda t, x: [v * v * v for v in x]
        grid = TimeGrid(0.0, 4.0, 4)
        for method, node in (("euler", 2), ("rk2", 1), ("rk4", 1)):
            with pytest.raises(IntegrationFailure) as exc:
                integrate_fixed(method, blower, grid, [1e100])
            assert exc.value.node == node
            assert exc.value.t == float(node)
            assert str(exc.value) == f"{method} produced a non-finite state at node {node}"


class TestIntegrateFixed:
    def test_first_node_is_initial_state(self, params, x0):
        traj = integrate_fixed("rk4", lambda t, x: rhs_normalized(params, x),
                               TimeGrid(0.0, 20.0, 100), x0)
        assert np.array_equal(traj.states[0], x0)

    def test_single_step_grid_equals_one_step(self):
        grid = TimeGrid(0.0, 0.5, 1)
        for method, step in (("euler", step_euler), ("rk2", step_rk2),
                             ("rk4", step_rk4)):
            traj = integrate_fixed(method, exponential, grid, np.array([2.0]))
            assert np.array_equal(traj.states[1],
                                  step(exponential, 0.0, np.array([2.0]), 0.5))

    def test_euler_closed_form(self):
        for n in (10, 64):
            traj = integrate_fixed("euler", exponential, TimeGrid(0.0, 1.0, n),
                                   np.array([1.0]))
            assert traj.states[-1, 0] == pytest.approx((1 + 1 / n) ** n, rel=1e-13)

    def test_rk4_keeps_fraction_sum(self, params, x0):
        traj = integrate_fixed("rk4", lambda t, x: rhs_normalized(params, x),
                               TimeGrid(0.0, 20.0, 100), x0)
        assert np.abs(traj.states.sum(axis=1) - 1.0).max() <= 1e-6

    def test_rk4_exact_on_cubic_time_polynomial(self):
        coeffs = np.array([[0.3, -1.2, 0.7, 2.0], [1.0, 0.0, -0.5, 0.25]])

        def field(t, x):
            return coeffs @ np.array([1.0, t, t * t, t ** 3])

        def antiderivative(t):
            return coeffs @ np.array([t, t * t / 2, t ** 3 / 3, t ** 4 / 4])

        grid = TimeGrid(0.0, 2.0, 8)
        traj = integrate_fixed("rk4", field, grid, antiderivative(0.0))
        expected = np.array([antiderivative(t) for t in grid.nodes()])
        np.testing.assert_allclose(traj.states, expected, atol=1e-12)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            integrate_fixed("rk3", exponential, TimeGrid(0.0, 1.0, 2),
                            np.array([1.0]))

    def test_failure_carries_node_index(self):
        def exploding(t, x):
            return np.array([np.nan]) if t > 0.45 else x

        with pytest.raises(IntegrationFailure) as exc:
            integrate_fixed("euler", exploding, TimeGrid(0.0, 1.0, 10),
                            np.array([1.0]))
        assert exc.value.node == 6

    def test_deterministic(self, params, x0):
        grid = TimeGrid(0.0, 20.0, 100)
        f = lambda t, x: rhs_normalized(params, x)
        a = integrate_fixed("rk2", f, grid, x0)
        b = integrate_fixed("rk2", f, grid, x0)
        assert np.array_equal(a.states, b.states)


class TestIntegrateDp45:
    def test_exponential_hits_e(self):
        settings = AdaptiveSettings(reltol=1e-9, abstol=1e-12)
        traj = integrate_dp45(exponential, 0.0, 1.0, np.array([1.0]), settings,
                              TimeGrid(0.0, 1.0, 4))
        assert abs(traj.states[-1, 0] - np.e) <= 1e-8

    def test_zero_field_is_constant(self):
        traj = integrate_dp45(zero_field, 0.0, 10.0, np.array([0.3, 0.7]),
                              AdaptiveSettings(reltol=0.5, abstol=0.5),
                              TimeGrid(0.0, 10.0, 5))
        assert np.array_equal(traj.states, np.tile([0.3, 0.7], (6, 1)))

    def test_model_terminal_state_vs_fine_rk4(self, reference_101):
        np.testing.assert_allclose(reference_101.states[-1], FINE_RK4_TERMINAL,
                                   atol=1e-8)

    def test_sampling_returns_requested_nodes(self, reference_101):
        assert reference_101.states.shape == (101, 4)

    def test_sample_grid_must_fit_span(self):
        with pytest.raises(ValueError):
            integrate_dp45(exponential, 0.0, 1.0, np.array([1.0]),
                           AdaptiveSettings(), TimeGrid(0.0, 2.0, 4))

    def test_inner_sample_window(self):
        traj = integrate_dp45(exponential, 0.0, 2.0, np.array([1.0]),
                              AdaptiveSettings(reltol=1e-10, abstol=1e-12),
                              TimeGrid(0.5, 1.5, 2))
        np.testing.assert_allclose(traj.states[:, 0],
                                   np.exp([0.5, 1.0, 1.5]), rtol=1e-8)

    def test_step_budget_enforced(self, params, x0):
        settings = AdaptiveSettings(max_steps=5)
        with pytest.raises(NumericalFailure, match="exceeded 5 steps"):
            integrate_dp45(lambda t, x: rhs_normalized(params, x), 0.0, 20.0,
                           x0, settings, TimeGrid(0.0, 20.0, 100))

    def test_integral_float_budget_means_that_integer(self, params, x0):
        settings = AdaptiveSettings(max_steps=5.0)
        assert type(settings.max_steps) is int
        with pytest.raises(NumericalFailure, match="exceeded 5 steps"):
            integrate_dp45(lambda t, x: rhs_normalized(params, x), 0.0, 20.0,
                           x0, settings, TimeGrid(0.0, 20.0, 100))

    def test_deterministic(self, params, x0):
        f = lambda t, x: rhs_normalized(params, x)
        grid = TimeGrid(0.0, 20.0, 100)
        a = integrate_dp45(f, 0.0, 20.0, x0, AdaptiveSettings(), grid)
        b = integrate_dp45(f, 0.0, 20.0, x0, AdaptiveSettings(), grid)
        assert np.array_equal(a.states, b.states)
