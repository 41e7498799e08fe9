import math
import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sicaoc import (AdaptiveSettings, ControlBounds, IntegrationFailure, OcProblem,
                    SweepNonConvergence, SweepSettings, TimeGrid, Trajectory,
                    integrate_dp45, integrate_fixed, step_rk4)
from sicaoc.model import adjoint_rhs, controlled_field, objective
from sicaoc.sweep import (backward_pass, forward_pass, relative_change_test,
                          sica_problem, solve, update_control)

from reference import assert_same_bits, fold_margin

X0 = np.array([0.6, 0.2, 0.1, 0.1])


@pytest.fixture
def problem(params):
    return sica_problem(params, ControlBounds(0.5), X0)


def zero_problem():
    """Zero dynamics: the state stays at x0 and the costate at zero."""
    return OcProblem(state_field=lambda x0, u, h: [x0] * len(u),
                     adjoint_field=lambda states, u, h: np.zeros((len(u), 4)),
                     control_law=lambda x, lam: np.zeros(len(x)), x0=X0)


def rk4_pass(f, y0, h, steps):
    """The rows of ``steps`` RK4 steps of h on y' = f(y) from y0, as a pass returns them."""
    rows = [list(y0)]
    for _ in range(steps):
        rows.append(step_rk4(lambda t, y: f(y), 0.0, rows[-1], h))
    return rows


def no_field(t, x):
    raise AssertionError("the field was called")


class TestOcProblem:
    # the sweep's problem and both integrators check the initial state with
    # integrators.four_state, the integrators before their first field call
    ENTRY_POINTS = {
        "problem": lambda x0: OcProblem(state_field=None, adjoint_field=None,
                                        control_law=None, x0=x0),
        "fixed": lambda x0: integrate_fixed("rk4", no_field, TimeGrid(0.0, 1.0, 2), x0),
        "dp45": lambda x0: integrate_dp45(no_field, 0.0, 1.0, x0, AdaptiveSettings(),
                                          TimeGrid(0.0, 1.0, 2)),
    }

    @pytest.mark.parametrize("x0", [np.zeros(0), np.zeros(1), np.zeros(3), np.zeros(5),
                                    np.zeros((1, 4))],
                             ids=["zero", "one", "three", "five", "row"])
    @pytest.mark.parametrize("entry", list(ENTRY_POINTS))
    def test_initial_state_must_have_four_components(self, entry, x0):
        message = f"initial state must have four components, got shape {x0.shape}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            self.ENTRY_POINTS[entry](x0)


class TestForwardPass:
    def test_zero_control_matches_fixed_rk4_bitwise(self, params, problem):
        grid = TimeGrid(0.0, 20.0, 100)
        swept = forward_pass(problem, np.zeros(101), grid)
        f = controlled_field(params)
        # wrapped, so integrate_fixed steps step_rk4 instead of the field's fused march
        plain = integrate_fixed("rk4", lambda t, x: f(t, x), grid, X0)
        assert_same_bits(swept.states, plain.states)

    def test_single_interval_uses_endpoint_and_midpoint_controls(self, params, problem):
        grid = TimeGrid(0.0, 0.02, 1)
        u = np.array([0.1, 0.3])
        out = forward_pass(problem, u, grid).states[1]
        h = grid.h
        f = controlled_field(params)
        um = 0.5 * (u[0] + u[1])
        k1 = np.asarray(f(0.0, X0, u[0]))
        k2 = np.asarray(f(h / 2, X0 + (h / 2) * k1, um))
        k3 = np.asarray(f(h / 2, X0 + (h / 2) * k2, um))
        k4 = np.asarray(f(h, X0 + h * k3, u[1]))
        assert_same_bits(out, X0 + (h / 6) * (k1 + 2 * (k2 + k3) + k4))

    def test_constant_prevention_lowers_infection_everywhere(self, problem):
        grid = TimeGrid(0.0, 20.0, 100)
        base = forward_pass(problem, np.zeros(101), grid)
        treated = forward_pass(problem, np.full(101, 0.5), grid)
        assert np.all(treated.states[1:, 1] < base.states[1:, 1])

    def test_overflow_fails_at_first_non_finite_node(self):
        # x' = 1000 x overflows between nodes 46 and 47 of this grid
        prob = zero_problem()
        prob.state_field = lambda x0, u, h: rk4_pass(lambda x: [1e3 * v for v in x],
                                                     x0.tolist(), h, len(u) - 1)
        with pytest.raises(IntegrationFailure) as exc:
            forward_pass(prob, np.zeros(101), TimeGrid(0.0, 10.0, 100))
        assert exc.value.node == 47
        assert exc.value.t == 4.7
        assert "non-finite state at node 47" in str(exc.value)

    def test_overflowing_stage_controls_fail_at_the_node_not_as_a_warning(self, problem):
        # (1 - u) * beta overflows at nodes 40 and 41 and at their midpoint;
        # the march's stage-control precomputation must not warn about it
        u = np.zeros(101)
        u[40] = u[41] = -1.5e308
        with pytest.raises(IntegrationFailure) as exc:
            forward_pass(problem, u, TimeGrid(0.0, 20.0, 100))
        assert exc.value.node == 40
        assert exc.value.t == 8.0

    def test_control_length_checked(self, problem):
        with pytest.raises(ValueError):
            forward_pass(problem, np.zeros(5), TimeGrid(0.0, 1.0, 10))

    def test_a_reused_state_buffer_leaves_earlier_trajectories_alone(self, problem):
        march, buffer = problem.state_field, np.empty((11, 4))

        def state_field(x0, u, h):
            buffer[:] = march(x0, u, h)
            return buffer
        problem.state_field = state_field
        grid = TimeGrid(0.0, 2.0, 10)
        first = forward_pass(problem, np.zeros(11), grid)
        kept = first.states.copy()
        forward_pass(problem, np.full(11, 0.5), grid)
        assert not np.array_equal(buffer, kept)
        assert_same_bits(first.states, kept)


class TestBackwardPass:
    def test_terminal_node_is_exact_transversality(self, problem):
        grid = TimeGrid(0.0, 20.0, 50)
        x = forward_pass(problem, np.zeros(51), grid)
        lam = backward_pass(problem, x, np.zeros(51))
        assert np.array_equal(lam.states[-1], np.zeros(4))

    def test_zero_problem_keeps_zero_costate(self):
        prob = zero_problem()
        grid = TimeGrid(0.0, 1.0, 10)
        x = forward_pass(prob, np.zeros(11), grid)
        lam = backward_pass(prob, x, np.zeros(11))
        np.testing.assert_array_equal(lam.states, np.zeros((11, 4)))

    def test_overflow_fails_at_first_non_finite_node(self):
        # integrated backward from node 100, lam' = 1000 lam + 1 overflows at node 53
        prob = zero_problem()
        prob.adjoint_field = lambda states, u, h: rk4_pass(
            lambda lam: [1e3 * v + 1.0 for v in lam], [0.0] * 4, -h, len(u) - 1)[::-1]
        grid = TimeGrid(0.0, 10.0, 100)
        x = forward_pass(prob, np.zeros(101), grid)
        with pytest.raises(IntegrationFailure) as exc:
            backward_pass(prob, x, np.zeros(101))
        assert exc.value.node == 53
        assert exc.value.t == pytest.approx(5.3, rel=1e-15)
        assert "non-finite costate at node 53" in str(exc.value)

    def test_overflowing_stage_states_fail_at_the_node_not_as_a_warning(self, problem):
        # the costate terms overflow at nodes 3 and 4 and so does the states'
        # midpoint between them; the march's term table must not warn about it
        states = np.full((5, 4), 0.25)
        states[3:] = 1.5e308
        x = Trajectory(TimeGrid(0.0, 1.0, 4), states)
        with pytest.raises(IntegrationFailure) as exc:
            backward_pass(problem, x, np.zeros(5))
        assert str(exc.value) == "backward pass produced a non-finite costate at node 3"

    def test_a_reversed_view_of_a_reused_buffer_is_copied(self, problem):
        # the buffer holds the costates in march order, last node first
        march, buffer = problem.adjoint_field, np.empty((11, 4))

        def adjoint_field(states, u, h):
            buffer[:] = march(states, u, h)[::-1]
            return buffer[::-1]
        problem.adjoint_field = adjoint_field
        grid = TimeGrid(0.0, 2.0, 10)
        u = np.full(11, 0.3)
        x = forward_pass(problem, u, grid)
        lam = backward_pass(problem, x, u)
        assert lam.states.flags.c_contiguous
        assert_same_bits(lam.states, march(x.states, u, grid.h))
        buffer[:] = np.nan
        assert np.isfinite(lam.states).all()

    def test_terminal_costate_slope(self, params, problem):
        # with lam(T) = 0 only the cost gradient survives in the field
        grid = TimeGrid(0.0, 20.0, 50)
        x = forward_pass(problem, np.zeros(51), grid)
        slope = adjoint_rhs(params, x.states[-1], np.zeros(4), 0.0)
        np.testing.assert_array_equal(slope, [-1.0, 1.0, 0.0, 0.0])


class TestUpdateControl:
    def test_law_at_old_control_is_fixed_point(self, problem):
        grid = TimeGrid(0.0, 2.0, 4)
        u = np.full(5, 0.2)
        x = forward_pass(problem, u, grid)
        lam = backward_pass(problem, x, u)
        law = problem.control_law(x.states, lam.states)
        out = update_control(problem, x, lam, law, 0.5)
        np.testing.assert_allclose(out, law, rtol=1e-15)

    def test_zero_everywhere(self):
        prob = zero_problem()
        grid = TimeGrid(0.0, 1.0, 4)
        x = forward_pass(prob, np.zeros(5), grid)
        lam = backward_pass(prob, x, np.zeros(5))
        np.testing.assert_array_equal(
            update_control(prob, x, lam, np.zeros(5), 0.5), np.zeros(5))

    def test_relaxation_arithmetic(self, problem):
        grid = TimeGrid(0.0, 2.0, 4)
        u_old = np.zeros(5)
        x = forward_pass(problem, u_old, grid)
        # costate gap large enough that the law clamps to the bound everywhere
        lam_states = np.zeros((5, 4))
        lam_states[:, 0] = 100.0
        lam = Trajectory(grid, lam_states)
        out = update_control(problem, x, lam, u_old, 0.5)
        np.testing.assert_array_equal(out, np.full(5, 0.25))

    @pytest.mark.parametrize("state_grid, costate_grid", [
        (TimeGrid(0.0, 2.0, 4), TimeGrid(0.0, 2.0, 3)),
        (TimeGrid(0.0, 20.0, 100), TimeGrid(0.0, 10.0, 100)),
    ], ids=["node-count", "horizon"])
    def test_state_and_costate_grids_must_agree(self, problem, state_grid, costate_grid):
        u = np.zeros(state_grid.node_count)
        x = forward_pass(problem, u, state_grid)
        lam = Trajectory(costate_grid, np.zeros((costate_grid.node_count, 4)))
        with pytest.raises(ValueError, match="^state and costate grids must agree$"):
            update_control(problem, x, lam, u, 0.5)


# the pairwise sum's block edges: unrolled by 8, blocks of 128
ROW_LENGTHS = [1, 2, 7, 8, 9, 127, 128, 129, 1001]
SPECIAL_VALUES = [-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1e-300, 1.5e308, -1.7e308]


@st.composite
def node_columns(draw):
    """Two ``(n, k)`` node-by-vector arrays, with tiny, huge and -0.0 entries."""
    n = draw(st.sampled_from(ROW_LENGTHS))
    k = draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = 10.0 ** draw(st.integers(-300, 300))
    new = rng.standard_normal((n, k)) * scale
    if draw(st.booleans()):     # a settling iterate: a small relative change
        old = new * (1.0 + 10.0 ** draw(st.integers(-16, -1)) * rng.standard_normal((n, k)))
    else:
        old = rng.standard_normal((n, k)) * 10.0 ** draw(st.integers(-300, 300))
    for side, row, col, value in draw(st.lists(
            st.tuples(st.integers(0, 1), st.integers(0, n - 1),
                      st.integers(0, k - 1), st.sampled_from(SPECIAL_VALUES)),
            max_size=12)):
        (old, new)[side][row, col] = value
    return old, new


class TestRelativeChangeTest:
    def test_identical_vectors_converge(self):
        v = np.array([[1.0, 2.0, 3.0]])
        margin = relative_change_test(v, v, 1e-3)
        assert margin == pytest.approx(1e-3 * 6.0, rel=1e-14)
        assert margin >= 0.0

    def test_collapse_to_zero_fails(self):
        old = np.array([[1.0, -2.0]])
        new = np.zeros((1, 2))
        assert relative_change_test(old, new, 1e-3) == pytest.approx(-3.0)

    def test_boundary_margin(self):
        old = np.array([[1.001, 1.001]])
        new = np.array([[1.0, 1.0]])
        margin = relative_change_test(old, new, 1e-3)
        assert margin == pytest.approx(0.0, abs=1e-12)
        assert margin >= 0.0

    def test_minimum_over_pairs(self):
        # row 0 has settled, row 1 collapsed from 5 to 0
        old, new = np.array([[1.0], [5.0]]), np.array([[1.0], [0.0]])
        assert relative_change_test(old, new, 1e-3) == pytest.approx(-5.0)

    def test_nan_contribution_is_not_convergence(self):
        good, nan = [1.0], [np.nan]
        assert np.isnan(relative_change_test([good, good], [good, nan], 1e-3))
        assert np.isnan(relative_change_test([good, good], [nan, good], 1e-3))
        assert np.isnan(relative_change_test([good], [good], float("nan")))

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="of one shape"):
            relative_change_test(np.zeros((1, 2)), np.zeros((1, 3)), 1e-3)
        with pytest.raises(ValueError, match="of one shape"):
            relative_change_test(np.zeros((9, 5)), np.zeros((8, 5)), 1e-3)

    @pytest.mark.parametrize("shape", [(0, 5), (9, 0), (0, 0), (0,), (3,)])
    def test_empty_or_flat_stack_is_rejected(self, shape):
        # an empty stack's margin was inf, which the sweep read as converged
        with pytest.raises(ValueError, match=r"two \(k, n\) arrays"):
            relative_change_test(np.zeros(shape), np.zeros(shape), 1e-3)

    def test_empty_lists_are_rejected(self):
        with pytest.raises(ValueError):
            relative_change_test([], [], 1e-3)

    @settings(max_examples=300)
    @given(pair=node_columns(), delta=st.floats(min_value=5e-324, max_value=1e300))
    def test_stacked_margin_equals_the_per_pair_fold(self, pair, delta):
        old, new = pair
        # huge entries overflow a sum to inf, and inf - inf is NaN, in both forms
        with np.errstate(over="ignore", invalid="ignore"):
            expected = fold_margin(old.T, new.T, delta)
            stacked = relative_change_test(np.ascontiguousarray(old.T),
                                           np.ascontiguousarray(new.T), delta)
            # a transposed view is copied C-ordered, so it gives the same bits
            viewed = relative_change_test(old.T, new.T, delta)
        # a NaN margin's payload is compared, not its sign bit: numpy's min
        # reduction may give it another sign than the fold's np.minimum does
        if math.isnan(expected):
            assert_same_bits(abs(stacked), abs(expected))
            assert_same_bits(abs(viewed), abs(expected))
        else:
            assert_same_bits(stacked, expected)
            assert_same_bits(viewed, expected)

    @settings(max_examples=200)
    @given(pair=node_columns(), side=st.integers(0, 1), data=st.data())
    def test_a_nan_in_any_row_gives_nan(self, pair, side, data):
        stacks = [np.ascontiguousarray(a.T) for a in pair]
        k, n = stacks[0].shape
        row, col = data.draw(st.integers(0, k - 1)), data.draw(st.integers(0, n - 1))
        stacks[side][row, col] = np.nan
        with np.errstate(over="ignore", invalid="ignore"):
            assert math.isnan(relative_change_test(*stacks, 1e-3))


class TestSolve:
    def test_default_instance_converges_and_improves(self, default_sweep):
        result = default_sweep["result"]
        settings = default_sweep["settings"]
        assert result.converged
        assert result.iterations <= settings.max_iterations
        assert np.array_equal(result.adjoints.states[-1], np.zeros(4))
        assert np.all(result.control >= 0.0)
        assert np.all(result.control <= 0.5)
        j_zero = objective(default_sweep["uncontrolled"],
                           np.zeros(settings.grid.node_count))
        assert result.objective > j_zero

    def test_degenerate_bounds_reproduce_uncontrolled_run(self, params):
        grid = TimeGrid(0.0, 20.0, 200)
        prob = sica_problem(params, ControlBounds(0.0), X0)
        result = solve(prob, SweepSettings(grid=grid))
        assert np.array_equal(result.control, np.zeros(201))
        f = controlled_field(params)
        # wrapped, so integrate_fixed steps step_rk4 instead of the field's fused march
        plain = integrate_fixed("rk4", lambda t, x: f(t, x), grid, X0)
        assert_same_bits(result.states.states, plain.states)

    def test_exhaustion_raises_with_last_iterate(self, params):
        prob = sica_problem(params, ControlBounds(0.5), X0)
        settings = SweepSettings(grid=TimeGrid(0.0, 20.0, 100),
                                 delta_error=1e-12, max_iterations=1)
        with pytest.raises(SweepNonConvergence) as exc:
            solve(prob, settings)
        assert exc.value.result.final_margin < 0.0
        result = exc.value.result
        assert not result.converged
        assert result.iterations == 1
        assert result.states.states.shape == (101, 4)

    @pytest.mark.parametrize("start", ["zero", "not-converged"])
    def test_initial_states_are_the_first_forward_pass_bitwise(self, problem, start):
        grid = TimeGrid(0.0, 20.0, 100)
        if start == "not-converged":
            with pytest.raises(SweepNonConvergence) as exc:
                solve(problem, SweepSettings(grid=grid, delta_error=1e-12, max_iterations=1))
            result = exc.value.result
        else:
            result = solve(problem, SweepSettings(grid=grid))
        assert_same_bits(result.initial_states.states,
                         forward_pass(problem, np.zeros(101), grid).states)

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP item 3: the reported J mixes two iterates")
    def test_converged_objective_is_not_below_the_uncontrolled_one(self, default_sweep):
        # a loose tolerance stops at iteration 2 and reports J 1.726 < J(0) = 1.796,
        # while the J of the control it returns is 3.097
        result = solve(default_sweep["problem"], SweepSettings(delta_error=0.5))
        j_zero = objective(default_sweep["uncontrolled"], np.zeros(1001))
        assert not result.converged or result.objective >= j_zero


class TestSweepSettings:
    def test_validation(self):
        with pytest.raises(ValueError):
            SweepSettings(delta_error=0.0)
        # a tolerance of 100% or more passed the first test on no information
        for bad in (1.0, 1e300):
            with pytest.raises(ValueError, match=r"^delta_error must lie in \(0, 1\)$"):
                SweepSettings(delta_error=bad)
        with pytest.raises(ValueError):
            SweepSettings(relaxation=0.0)
        with pytest.raises(ValueError):
            SweepSettings(relaxation=1.5)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                SweepSettings(delta_error=bad)
            with pytest.raises(ValueError):
                SweepSettings(relaxation=bad)
            # a NaN budget used to run no iteration and report non-convergence
            with pytest.raises(ValueError):
                SweepSettings(max_iterations=bad)
        # a float budget used to run its ceiling, a bool one iteration
        for bad in (0, 2.5, True):
            with pytest.raises(ValueError):
                SweepSettings(max_iterations=bad)
        assert type(SweepSettings(max_iterations=3.0).max_iterations) is int

    def test_settable_surface_is_the_grid_tolerance_weight_and_budget(self):
        # the sweep always starts from the zero control: no start is settable
        assert [f.name for f in fields(SweepSettings)] == [
            "grid", "delta_error", "relaxation", "max_iterations"]
        with pytest.raises(TypeError):
            SweepSettings(initial_control=np.zeros(1001))


NODE_VECTOR_CALLERS = {
    "objective": lambda prob, x, lam, u: objective(x, u),
    "forward_pass": lambda prob, x, lam, u: forward_pass(prob, u, x.grid),
    "backward_pass": lambda prob, x, lam, u: backward_pass(prob, x, u),
    "update_control": lambda prob, x, lam, u: update_control(prob, x, lam, u, 0.5),
}


@pytest.mark.parametrize("caller", NODE_VECTOR_CALLERS)
def test_node_vectors_have_one_value_per_grid_node(problem, caller):
    grid = TimeGrid(0.0, 2.0, 4)
    x = forward_pass(problem, np.zeros(5), grid)
    lam = backward_pass(problem, x, np.zeros(5))
    with pytest.raises(ValueError, match=r"one value per grid node \(5\), got shape \(4,\)"):
        NODE_VECTOR_CALLERS[caller](problem, x, lam, np.zeros(4))
