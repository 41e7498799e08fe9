import numpy as np
import pytest

from sicaoc import (ControlBounds, IntegrationFailure, ModelParams, OcProblem,
                    SweepNonConvergence, SweepSettings, TimeGrid, Trajectory,
                    integrate_fixed, step_rk4)
from sicaoc.model import (adjoint_rhs, controlled_field, midpoints, objective,
                          optimal_control_law, rhs_normalized)
from sicaoc.sweep import (backward_pass, forward_pass, relative_change_test,
                          sica_problem, solve, update_control)

X0 = np.array([0.6, 0.2, 0.1, 0.1])


@pytest.fixture
def problem(params):
    return sica_problem(params, ControlBounds(0.5), X0)


def zero_problem():
    """Zero dynamics: the state stays at x0 and the costate at zero."""
    return OcProblem(state_field=lambda x0, u, h: [x0] * len(u),
                     adjoint_field=lambda states, u, h: np.zeros((len(u), 4)),
                     control_law=lambda x, lam: np.zeros(len(x)), x0=X0)


def stage_pass(field, y0, h, stages):
    """The rows of RK4 steps of h on y' = field(y, s) from y0, as a pass returns them.

    ``stages`` holds one (start, mid, end) triple of stage inputs s per
    step: ``step_rk4`` evaluates the field at t = 0 (stage 1), h / 2
    (stages 2 and 3) and h (stage 4), so t picks the input.
    """
    rows = [list(y0)]
    for start, mid, end in stages:
        by_t = {0.0: start, h: end}
        rows.append(step_rk4(lambda t, y: field(y, by_t.get(t, mid)), 0.0, rows[-1], h))
    return rows


def rk4_pass(f, y0, h, steps):
    """The rows of ``steps`` RK4 steps of h on y' = f(y) from y0, as a pass returns them."""
    return stage_pass(lambda y, s: f(y), y0, h, [(None, None, None)] * steps)


class TestForwardPass:
    def test_zero_control_matches_fixed_rk4_bitwise(self, params, problem):
        grid = TimeGrid(0.0, 20.0, 100)
        swept = forward_pass(problem, np.zeros(101), grid)
        plain = integrate_fixed("rk4", lambda t, x: rhs_normalized(params, x),
                                grid, X0)
        assert np.array_equal(swept.states, plain.states)

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
        np.testing.assert_array_equal(out, X0 + (h / 6) * (k1 + 2 * (k2 + k3) + k4))

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

    def test_terminal_costate_slope(self, params, problem):
        # with lam(T) = 0 only the cost gradient survives in the field
        grid = TimeGrid(0.0, 20.0, 50)
        x = forward_pass(problem, np.zeros(51), grid)
        slope = adjoint_rhs(params, x.states[-1], np.zeros(4), 0.0)
        np.testing.assert_array_equal(slope, [-1.0, 1.0, 0.0, 0.0])


def stage_problem(params, bounds, x0, mode="derived"):
    """The SICA problem as RK4 loops over the model's stage fields.

    The passes step ``controlled_field`` and ``adjoint_rhs`` with
    ``step_rk4``, the stage inputs being the node values at stages 1 and
    4 and their means at stages 2 and 3, as the sweep's passes take them.
    """
    f = controlled_field(params)

    def state_pass(x0, u, h):
        nodes = u.tolist()
        return stage_pass(lambda x, v: f(0.0, x, v), x0.tolist(), h,
                          zip(nodes, midpoints(u).tolist(), nodes[1:]))

    def adjoint_pass(states, u, h):
        nodes = list(zip(states.tolist(), u.tolist()))
        mids = list(zip(midpoints(states).tolist(), midpoints(u).tolist()))
        steps = [(nodes[j], mids[j - 1], nodes[j - 1]) for j in range(len(mids), 0, -1)]
        return stage_pass(lambda lam, s: adjoint_rhs(params, s[0], lam, s[1], mode),
                          [0.0] * 4, -h, steps)[::-1]

    return OcProblem(state_field=state_pass, adjoint_field=adjoint_pass,
                     control_law=lambda x, lam: optimal_control_law(params, x, lam, bounds),
                     x0=x0)


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))


class TestFusedMarches:
    """``sica_problem``'s marches against RK4 loops over the stage fields, bit for bit."""

    # horizon, steps, u_max, beta, x0, adjoint mode, max_iterations
    SCENARIOS = {
        "T10-umax0.2-beta1.0": (10.0, 50, 0.2, 1.0, (0.7, 0.1, 0.1, 0.1), "derived", 500),
        "T20-umax0.5-verbatim": (20.0, 100, 0.5, 1.6, (0.6, 0.2, 0.1, 0.1), "verbatim", 500),
        "T60-umax0.95-verbatim-budget": (60.0, 300, 0.95, 2.0, (0.8, 0.1, 0.05, 0.05),
                                         "verbatim", 25),
        "zero-bound": (10.0, 50, 0.0, 1.6, (0.6, 0.2, 0.1, 0.1), "derived", 500),
        "negative-zero-bound": (10.0, 50, -0.0, 1.6, (0.6, 0.2, 0.1, 0.1), "derived", 500),
        "one-step-grid": (1.0, 1, 0.5, 1.6, (0.6, 0.2, 0.1, 0.1), "derived", 500),
        "no-infection": (10.0, 50, 0.3, 1.6, (1.0, 0.0, 0.0, 0.0), "derived", 500),
    }

    @pytest.mark.parametrize("name", list(SCENARIOS))
    def test_solve_matches_stage_fields(self, name):
        horizon, steps, u_max, beta, x0, mode, budget = self.SCENARIOS[name]
        p = ModelParams(beta=beta)
        settings = SweepSettings(grid=TimeGrid(0.0, horizon, steps), max_iterations=budget)
        results = []
        for make in (sica_problem, stage_problem):
            try:
                results.append(solve(make(p, ControlBounds(u_max), np.array(x0), mode),
                                     settings))
            except SweepNonConvergence as exc:
                results.append(exc.result)
        fused, staged = results
        assert_same_bits(fused.states.states, staged.states.states)
        assert_same_bits(fused.adjoints.states, staged.adjoints.states)
        assert_same_bits(fused.control, staged.control)
        assert (fused.iterations, fused.final_margin) == (staged.iterations,
                                                          staged.final_margin)


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
        from sicaoc.integrators import Trajectory
        lam = Trajectory(grid, lam_states)
        out = update_control(problem, x, lam, u_old, 0.5)
        np.testing.assert_array_equal(out, np.full(5, 0.25))


class TestRelativeChangeTest:
    def test_identical_vectors_converge(self):
        v = np.array([1.0, 2.0, 3.0])
        margin = relative_change_test([(v, v)], 1e-3)
        assert margin == pytest.approx(1e-3 * 6.0, rel=1e-14)
        assert margin >= 0.0

    def test_collapse_to_zero_fails(self):
        old = np.array([1.0, -2.0])
        new = np.zeros(2)
        assert relative_change_test([(old, new)], 1e-3) == pytest.approx(-3.0)

    def test_boundary_margin(self):
        old = np.array([1.001, 1.001])
        new = np.array([1.0, 1.0])
        margin = relative_change_test([(old, new)], 1e-3)
        assert margin == pytest.approx(0.0, abs=1e-12)
        assert margin >= 0.0

    def test_minimum_over_pairs(self):
        good = (np.array([1.0]), np.array([1.0]))
        bad = (np.array([5.0]), np.array([0.0]))
        assert relative_change_test([good, bad], 1e-3) == pytest.approx(-5.0)

    def test_nan_contribution_is_not_convergence(self):
        good = (np.array([1.0]), np.array([1.0]))
        nan = (np.array([1.0]), np.array([np.nan]))
        assert np.isnan(relative_change_test([good, nan], 1e-3))
        assert np.isnan(relative_change_test([nan, good], 1e-3))
        assert np.isnan(relative_change_test([good], float("nan")))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            relative_change_test([(np.zeros(2), np.zeros(3))], 1e-3)


class TestSolve:
    def test_default_instance_converges_and_improves(self, default_sweep):
        result = default_sweep["result"]
        settings = default_sweep["settings"]
        assert result.converged
        assert result.iterations <= settings.max_iterations
        assert np.array_equal(result.adjoints.states[-1], np.zeros(4))
        assert np.all(result.control >= 0.0)
        assert np.all(result.control <= 0.5)
        from sicaoc.model import objective
        j_zero = objective(default_sweep["uncontrolled"],
                           np.zeros(settings.grid.node_count))
        assert result.objective > j_zero

    def test_degenerate_bounds_reproduce_uncontrolled_run(self, params):
        grid = TimeGrid(0.0, 20.0, 200)
        prob = sica_problem(params, ControlBounds(0.0), X0)
        result = solve(prob, SweepSettings(grid=grid))
        assert np.array_equal(result.control, np.zeros(201))
        plain = integrate_fixed("rk4", lambda t, x: rhs_normalized(params, x),
                                grid, X0)
        assert np.array_equal(result.states.states, plain.states)

    def test_constant_law_with_full_weight_converges_fast(self, params):
        prob = sica_problem(params, ControlBounds(0.5), X0)
        prob.control_law = lambda x, lam: np.full(len(x), 0.3)
        grid = TimeGrid(0.0, 20.0, 100)
        settings = SweepSettings(grid=grid, relaxation=1.0,
                                 initial_control=np.full(101, 0.3))
        result = solve(prob, settings)
        assert result.converged
        assert result.iterations <= 2
        np.testing.assert_array_equal(result.control, np.full(101, 0.3))

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

    def test_restart_from_converged_control_is_stable(self, params, default_sweep):
        base = default_sweep["result"]
        prob = sica_problem(params, ControlBounds(0.5), X0)
        settings = SweepSettings(initial_control=base.control)
        again = solve(prob, settings)
        assert again.iterations <= 2
        assert np.abs(again.control - base.control).max() <= 1e-3


class TestSweepSettings:
    def test_validation(self):
        with pytest.raises(ValueError):
            SweepSettings(delta_error=0.0)
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
        with pytest.raises(ValueError):
            SweepSettings(initial_control=np.zeros(3))
        # rejected here, not reported later as a non-finite state of the forward pass
        for bad in (float("nan"), float("inf")):
            u = np.zeros(1001)
            u[50] = bad
            with pytest.raises(ValueError, match="initial control must be finite"):
                SweepSettings(initial_control=u)


NODE_VECTOR_CALLERS = {
    "objective": lambda prob, x, lam, u: objective(x, u),
    "initial_control": lambda prob, x, lam, u: SweepSettings(grid=x.grid,
                                                             initial_control=u),
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
