from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sicaoc import (AdaptiveSettings, IntegrationFailure, NumericalFailure,
                    TimeGrid, Trajectory, integrate_dp45, integrate_fixed,
                    step_euler, step_rk2, step_rk4)
from sicaoc.integrators import _DP_B5, _DP_ERR, march_trajectory
from sicaoc.model import controlled_field

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


# a four-component state whose components are powers of two apart, so the
# exponential scales each of them exactly as it scales 1.0
X4 = np.array([1.0, 2.0, -0.5, 0.25])


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
        assert integrate_fixed("euler", zero_field, grid, X4).states.shape == (101, 4)

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


class TestMarchTrajectory:
    GRID = TimeGrid(0.0, 1.0, 10)

    @pytest.mark.parametrize("backward, node", [(False, 4), (True, 8)])
    def test_nan_names_the_first_bad_node_in_the_march_direction(self, backward, node):
        rows = np.ones((11, 4))
        rows[[4, 6, 8], 3] = np.nan
        with pytest.raises(IntegrationFailure) as exc:
            march_trajectory(self.GRID, rows, "march failed", backward=backward)
        assert str(exc.value) == f"march failed at node {node}"
        assert exc.value.node == node
        assert exc.value.t == self.GRID.t0 + node * self.GRID.h

    def test_rows_are_copied_c_ordered(self):
        rows = np.arange(44.0).reshape(11, 4)
        traj = march_trajectory(self.GRID, rows[::-1], "march failed")
        assert traj.states.flags.c_contiguous
        np.testing.assert_array_equal(traj.states, np.arange(44.0).reshape(11, 4)[::-1])
        rows[:] = np.nan
        assert np.isfinite(traj.states).all()

    def test_a_finite_march_of_the_wrong_length_is_a_shape_error(self):
        with pytest.raises(ValueError, match="expected 11 state rows, got shape"):
            march_trajectory(self.GRID, np.ones((10, 4)), "march failed")

    def test_a_caller_built_trajectory_still_rejects_nan(self):
        rows = np.ones((11, 4))
        rows[4, 3] = np.nan
        with pytest.raises(ValueError, match="non-finite entries"):
            Trajectory(self.GRID, rows)


class TestAdaptiveSettings:
    def test_rejects_bad_tolerances(self):
        with pytest.raises(ValueError):
            AdaptiveSettings(reltol=0.0)
        with pytest.raises(ValueError):
            AdaptiveSettings(abstol=-1e-9)

    @pytest.mark.parametrize("kwargs", [
        {"reltol": np.nan}, {"reltol": np.inf}, {"abstol": np.nan}])
    def test_rejects_non_finite_settings(self, kwargs):
        # a NaN reltol used to reject every step until the step budget
        with pytest.raises(ValueError, match="finite"):
            AdaptiveSettings(**kwargs)

    def test_the_tolerances_are_the_only_settings(self):
        # the step budget is the constant MAX_STEPS, not a setting
        assert [f.name for f in fields(AdaptiveSettings)] == ["reltol", "abstol"]
        with pytest.raises(TypeError):
            AdaptiveSettings(max_steps=5)


class TestSteps:
    def test_euler_exponential(self):
        out = step_euler(exponential, 0.0, X4, 0.1)
        assert out == pytest.approx(1.1 * X4, rel=1e-15)

    def test_euler_zero_field_is_identity(self):
        x = np.array([0.6, 0.2, 0.1, 0.1])
        assert np.array_equal(step_euler(zero_field, 3.0, x, 0.2), x)

    def test_euler_on_model_field(self, params, x0):
        out = step_euler(controlled_field(params), 0.0, x0, 0.2)
        np.testing.assert_allclose(out, x0 + 0.2 * FIELD_AT_X0, rtol=1e-12)

    def test_rk2_constant_field(self):
        out = step_rk2(lambda t, x: np.ones_like(x), 0.0, np.zeros(4), 0.5)
        assert out == pytest.approx([0.5] * 4, rel=1e-15)

    def test_rk2_exponential(self):
        # K1 = 1, K2 = 1.1, update h/2 * 2.1
        out = step_rk2(exponential, 0.0, X4, 0.1)
        assert out == pytest.approx(1.105 * X4, rel=1e-15)

    def test_rk2_preserves_equilibrium(self):
        out = step_rk2(lambda t, x: [-v for v in x], 0.0, np.zeros(4), 0.37)
        assert out == pytest.approx([0.0] * 4, abs=0.0)

    def test_rk4_exponential_matches_taylor(self):
        out = step_rk4(exponential, 0.0, X4, 0.1)
        assert list(out / X4) == pytest.approx([np.exp(0.1)] * 4, abs=1e-7)

    def test_rk4_zero_field_is_identity(self):
        x = np.array([1.0, -2.0, 0.5, 0.0])
        assert np.array_equal(step_rk4(zero_field, 0.0, x, 1.0), x)

    def test_rk4_pure_time_field(self):
        out = step_rk4(lambda t, x: np.array([t] * 4), 0.0, np.zeros(4), 1.0)
        assert out == pytest.approx([0.5] * 4, rel=1e-15)

    @pytest.mark.parametrize("width", [3, 5])
    def test_four_component_steps_need_one_field_value_per_component(self, width):
        # the steps unpack the field's values, so too few or too many raise
        # instead of being truncated
        f = lambda t, x: [0.0] * width
        x = [0.6, 0.2, 0.1, 0.1]
        for step in (step_euler, step_rk2, step_rk4):
            with pytest.raises(ValueError, match="values to unpack"):
                step(f, 0.0, x, 0.1)
        with pytest.raises(ValueError, match="values to unpack"):
            integrate_dp45(f, 0.0, 1.0, x, AdaptiveSettings(), TimeGrid(0.0, 1.0, 1))

    def test_step_raises_on_overflow(self):
        # x' = x^3 from 1e100 in the second component: Euler reaches 1e300 at
        # node 1 and overflows at node 2; the stages of RK2 and RK4 overflow
        # within the first step; the other components stay finite
        blower = lambda t, x: [v * v * v for v in x]
        grid = TimeGrid(0.0, 4.0, 4)
        for method, node in (("euler", 2), ("rk2", 1), ("rk4", 1)):
            with pytest.raises(IntegrationFailure) as exc:
                integrate_fixed(method, blower, grid, [0.5, 1e100, 0.0, -0.5])
            assert exc.value.node == node
            assert exc.value.t == float(node)
            assert str(exc.value) == f"{method} produced a non-finite state at node {node}"


class TestIntegrateFixed:
    def test_first_node_is_initial_state(self, params, x0):
        traj = integrate_fixed("rk4", controlled_field(params), TimeGrid(0.0, 20.0, 100), x0)
        assert np.array_equal(traj.states[0], x0)

    def test_single_step_grid_equals_one_step(self):
        grid = TimeGrid(0.0, 0.5, 1)
        for method, step in (("euler", step_euler), ("rk2", step_rk2),
                             ("rk4", step_rk4)):
            traj = integrate_fixed(method, exponential, grid, X4)
            assert np.array_equal(traj.states[1], step(exponential, 0.0, X4, 0.5))

    def test_euler_closed_form(self):
        for n in (10, 64):
            traj = integrate_fixed("euler", exponential, TimeGrid(0.0, 1.0, n), X4)
            assert list(traj.states[-1] / X4) == pytest.approx([(1 + 1 / n) ** n] * 4,
                                                               rel=1e-13)

    def test_rk4_keeps_fraction_sum(self, params, x0):
        traj = integrate_fixed("rk4", controlled_field(params), TimeGrid(0.0, 20.0, 100), x0)
        assert np.abs(traj.states.sum(axis=1) - 1.0).max() <= 1e-6

    def test_rk4_exact_on_cubic_time_polynomial(self):
        coeffs = np.array([[0.3, -1.2, 0.7, 2.0], [1.0, 0.0, -0.5, 0.25],
                           [-2.0, 0.5, 0.0, -1.0], [0.0, 1.5, 3.0, -0.75]])

        def field(t, x):
            return coeffs @ np.array([1.0, t, t * t, t ** 3])

        def antiderivative(t):
            return coeffs @ np.array([t, t * t / 2, t ** 3 / 3, t ** 4 / 4])

        grid = TimeGrid(0.0, 2.0, 8)
        traj = integrate_fixed("rk4", field, grid, antiderivative(0.0))
        expected = np.array([antiderivative(t) for t in grid.nodes()])
        np.testing.assert_allclose(traj.states, expected, atol=1e-12)

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown fixed-step method 'rk3'"):
            integrate_fixed("rk3", exponential, TimeGrid(0.0, 1.0, 2), X4)

    @pytest.mark.parametrize("method", ["euler", "rk2", "rk4"])
    def test_a_field_with_too_few_values_raises(self, method):
        # a four-component state passes the entry check, so the step's
        # unpacking of the field's three values is what raises
        with pytest.raises(ValueError, match="not enough values to unpack"):
            integrate_fixed(method, lambda t, x: [1.0] * 3, TimeGrid(0.0, 1.0, 3), [0.0] * 4)

    def test_failure_carries_node_index(self):
        def exploding(t, x):
            return np.full(4, np.nan) if t > 0.45 else x

        with pytest.raises(IntegrationFailure) as exc:
            integrate_fixed("euler", exploding, TimeGrid(0.0, 1.0, 10), X4)
        assert exc.value.node == 6

    def test_deterministic(self, params, x0):
        grid = TimeGrid(0.0, 20.0, 100)
        f = controlled_field(params)
        a = integrate_fixed("rk2", f, grid, x0)
        b = integrate_fixed("rk2", f, grid, x0)
        assert np.array_equal(a.states, b.states)


class TestIntegrateDp45:
    def test_exponential_hits_e(self):
        settings = AdaptiveSettings(reltol=1e-9, abstol=1e-12)
        traj = integrate_dp45(exponential, 0.0, 1.0, X4, settings, TimeGrid(0.0, 1.0, 4))
        assert np.abs(traj.states[-1] / X4 - np.e).max() <= 1e-8

    def test_zero_field_is_constant(self):
        x0 = [0.3, 0.7, -0.2, 0.0]
        traj = integrate_dp45(zero_field, 0.0, 10.0, x0,
                              AdaptiveSettings(reltol=0.5, abstol=0.5),
                              TimeGrid(0.0, 10.0, 5))
        assert np.array_equal(traj.states, np.tile(x0, (6, 1)))

    def test_model_terminal_state_vs_fine_rk4(self, reference_101):
        np.testing.assert_allclose(reference_101.states[-1], FINE_RK4_TERMINAL,
                                   atol=1e-8)

    def test_sampling_returns_requested_nodes(self, reference_101):
        assert reference_101.states.shape == (101, 4)

    def test_sample_grid_must_fit_span(self):
        with pytest.raises(ValueError, match="sample grid must lie within"):
            integrate_dp45(exponential, 0.0, 1.0, X4, AdaptiveSettings(),
                           TimeGrid(0.0, 2.0, 4))

    def test_inner_sample_window(self):
        traj = integrate_dp45(exponential, 0.0, 2.0, X4,
                              AdaptiveSettings(reltol=1e-10, abstol=1e-12),
                              TimeGrid(0.5, 1.5, 2))
        np.testing.assert_allclose(traj.states, np.outer(np.exp([0.5, 1.0, 1.5]), X4),
                                   rtol=1e-8)

    def test_step_budget_enforced(self, params, x0, monkeypatch):
        monkeypatch.setattr("sicaoc.integrators.MAX_STEPS", 5)
        with pytest.raises(NumericalFailure, match="exceeded 5 steps"):
            integrate_dp45(controlled_field(params), 0.0, 20.0,
                           x0, AdaptiveSettings(), TimeGrid(0.0, 20.0, 100))

    def test_deterministic(self, params, x0):
        f = controlled_field(params)
        grid = TimeGrid(0.0, 20.0, 100)
        a = integrate_dp45(f, 0.0, 20.0, x0, AdaptiveSettings(), grid)
        b = integrate_dp45(f, 0.0, 20.0, x0, AdaptiveSettings(), grid)
        assert np.array_equal(a.states, b.states)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_dot_weighted_sums_equal_the_matmul_bytes(n, seed):
    # the DP45 step takes its two weighted sums with ndarray.dot, which must
    # reach the same BLAS sum as the @ products; the (7, n) stage matrix
    # mixes signed zeros with magnitudes from 1e-300 to 1e300
    rng = np.random.default_rng(seed)
    sign = rng.choice([-1.0, 1.0], (7, n))
    k = sign * rng.uniform(1.0, 10.0, (7, n)) * 10.0 ** rng.integers(-300, 300, (7, n))
    zero = rng.random((7, n)) < 0.2
    k[zero] = 0.0 * sign[zero]
    for weights in (_DP_B5, _DP_ERR):
        assert weights.dot(k).tobytes() == (weights @ k).tobytes()
