from dataclasses import fields

import numpy as np
import pytest

from sicaoc import (ControlBounds, ModelParams, TimeGrid, Trajectory, adjoint_rhs,
                    hamiltonian, integrate_fixed, objective, optimal_control_law,
                    rhs_absolute, running_cost, sica_problem)
from sicaoc.model import controlled_field, controlled_march

from reference import draw_params, ref_rhs

X0 = np.array([0.6, 0.2, 0.1, 0.1])

FIELD_AT_X0 = np.array([
    -0.24616062122519416, 0.1542003106125971,
    0.19798015530629853, -0.10601984469370147,
])
ABS_FIELD_AT_X0 = np.array([
    -0.29666968075927524, 0.13736395743457006,
    0.18956197871728503, -0.11443802128271498,
])


def random_state(rng):
    return rng.uniform(0.0, 1.0, 4)


class TestModelParams:
    def test_recruitment_defaults_to_2p1_mu(self):
        p = ModelParams()
        assert p.b == pytest.approx(2.1 / 69.54, rel=1e-15)
        q = ModelParams(mu=0.02)
        assert q.b == pytest.approx(0.042, rel=1e-15)

    def test_explicit_recruitment_wins(self):
        assert ModelParams(b=0.05).b == 0.05

    def test_rejects_nonpositive_rates(self):
        with pytest.raises(ValueError):
            ModelParams(beta=0.0)
        with pytest.raises(ValueError):
            ModelParams(d=-1.0)

    @pytest.mark.parametrize("name", [f.name for f in fields(ModelParams)])
    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_rejects_non_finite_rates(self, name, value):
        with pytest.raises(ValueError, match=name):
            ModelParams(**{name: value})

    def test_rejects_inverted_modifiers(self):
        with pytest.raises(ValueError):
            ModelParams(eta_c=1.5)
        with pytest.raises(ValueError):
            ModelParams(eta_a=0.9)


class TestControlBounds:
    def test_accepts_degenerate_zero(self):
        assert ControlBounds(0.0).u_max == 0.0

    def test_rejects_one_and_beyond(self):
        with pytest.raises(ValueError):
            ControlBounds(1.0)
        with pytest.raises(ValueError):
            ControlBounds(-0.1)

    def test_clamp(self):
        b = ControlBounds(0.5)
        assert b.clamp(-1.0) == 0.0
        assert b.clamp(0.3) == 0.3
        assert b.clamp(2.0) == 0.5


class TestRhsAbsolute:
    def test_default_state_value(self, params):
        np.testing.assert_allclose(rhs_absolute(params, X0), ABS_FIELD_AT_X0,
                                   rtol=1e-12)

    def test_scale_invariance(self, params):
        # the force of infection depends on fractions only, so the field scales
        # with the population; doubling is exact in binary floating point
        rng = np.random.default_rng(7)
        for _ in range(20):
            x = rng.uniform(0.01, 1.0, 4)
            np.testing.assert_array_equal(rhs_absolute(params, 2.0 * x),
                                          2.0 * rhs_absolute(params, x))

    def test_empty_population_rejected(self, params):
        with pytest.raises(ValueError, match="^total population must be positive"):
            rhs_absolute(params, np.zeros(4))

    def test_all_susceptible(self, params):
        x = np.array([123.0, 0.0, 0.0, 0.0])
        out = rhs_absolute(params, x)
        assert out[0] == pytest.approx((params.b - params.mu) * 123.0, rel=1e-12)
        np.testing.assert_array_equal(out[1:], 0.0)

    def test_population_balance(self, params):
        # summed compartment derivatives equal (b - mu) N - d A
        rng = np.random.default_rng(11)
        for _ in range(50):
            x = rng.uniform(0.0, 100.0, 4) + 1e-3
            n = x.sum()
            expected = (params.b - params.mu) * n - params.d * x[3]
            assert rhs_absolute(params, x).sum() == pytest.approx(
                expected, rel=1e-12, abs=1e-14)


class TestRhsNormalized:
    """The uncontrolled fraction field, ``controlled_field(params)`` called as ``f(t, x)``."""

    def test_default_state_value(self, params):
        np.testing.assert_allclose(np.array(controlled_field(params)(0.0, X0)),
                                   FIELD_AT_X0, rtol=1e-12)

    def test_derivatives_sum_to_zero_on_simplex(self, params):
        rng = np.random.default_rng(3)
        for _ in range(100):
            x = rng.uniform(0.0, 1.0, 4)
            x = x / x.sum()
            assert abs(np.array(controlled_field(params)(0.0, x)).sum()) <= 1e-14

    def test_disease_free_state_is_stationary(self, params):
        np.testing.assert_array_equal(
            np.array(controlled_field(params)(0.0, [1.0, 0.0, 0.0, 0.0])), np.zeros(4))


class TestRhsControlled:
    def test_zero_control_reduces_bitwise(self, params):
        rng = np.random.default_rng(5)
        for _ in range(25):
            x = random_state(rng)
            # numpy scalars at an explicit u = 0 against the integrators' call on floats
            assert np.array_equal(controlled_field(params)(0.0, x, 0.0),
                                  controlled_field(params)(0.0, x.tolist()))

    def test_any_control_matches_the_per_call_rate_sums_bitwise(self):
        # the Hamiltonian's path: random rates, u inside and outside [0, 1],
        # one point on Python floats and (n,) node stacks with one u per node
        rng = np.random.default_rng(32)
        for _ in range(100):
            p = draw_params(rng)
            got = controlled_field(p)
            x = rng.dirichlet(np.ones(4)).tolist()
            for u in (rng.uniform(0.0, 1.0), rng.uniform(-3.0, 0.0), rng.uniform(1.0, 4.0)):
                assert np.array(got(0.0, x, u)).tobytes() == ref_rhs(p, x, u).tobytes()
            stack = rng.dirichlet(np.ones(4), 50).T
            u = rng.uniform(-3.0, 4.0, 50)
            assert np.stack(got(0.0, stack, u)).tobytes() == ref_rhs(p, stack, u).tobytes()

    def test_full_control_removes_infection_term(self, params):
        out = controlled_field(params)(0.0, X0, 1.0)
        s, i, c, a = X0
        assert out[0] == pytest.approx(
            params.b * (1 - s) + params.d * a * s, rel=1e-12)
        assert out[1] == pytest.approx(
            -(params.rho + params.phi + params.b - params.d * a) * i
            + params.alpha * a + params.omega * c, rel=1e-12)

    def test_half_control_susceptible_rate(self, params):
        expected = params.b * 0.4 - 0.5 * 0.5304 * 0.6 + 0.06
        assert controlled_field(params)(0.0, X0, 0.5)[0] == pytest.approx(
            expected, rel=1e-12)


class TestOneRk4Arithmetic:
    """The generic RK4 stepper on the kernel and the written-out march agree bit for bit."""

    @staticmethod
    def assert_same_march(p, grid, x0):
        stepped = integrate_fixed("rk4", controlled_field(p), grid, x0).states
        marched = controlled_march(p)(x0, np.zeros(grid.node_count), grid.h)
        assert np.array_equal(stepped, marched)

    @pytest.mark.parametrize("steps", [100, 1000])
    def test_default_scenario(self, params, steps):
        self.assert_same_march(params, TimeGrid(0.0, 20.0, steps), X0)

    def test_random_rates_and_starts(self):
        rng = np.random.default_rng(20)
        for _ in range(100):
            p = draw_params(rng)
            horizon = rng.uniform(1.0, 30.0)
            # at least horizon / 0.5 steps, so h <= 0.5
            steps = int(rng.integers(int(np.ceil(2.0 * horizon)), 300))
            grid = TimeGrid(0.0, horizon, steps)
            assert grid.h <= 0.5
            self.assert_same_march(p, grid, rng.dirichlet(np.ones(4)))


class TestRunningCost:
    def test_values(self):
        assert running_cost(np.array([0.6, 0.2, 0.1, 0.1]), 0.0) == pytest.approx(0.4)
        assert running_cost(np.array([0.3, 0.3, 0.2, 0.2]), 0.0) == 0.0
        assert running_cost(np.array([0.6, 0.2, 0.1, 0.1]), 0.5) == pytest.approx(0.15)


class TestObjective:
    def test_constant_susceptible_population(self):
        grid = TimeGrid(0.0, 20.0, 40)
        traj = Trajectory(grid, np.tile([1.0, 0.0, 0.0, 0.0], (41, 1)))
        assert objective(traj, np.zeros(41)) == pytest.approx(20.0, rel=1e-14)

    def test_balanced_cost_is_zero(self):
        grid = TimeGrid(0.0, 20.0, 40)
        traj = Trajectory(grid, np.tile([0.4, 0.4, 0.1, 0.1], (41, 1)))
        assert objective(traj, np.zeros(41)) == 0.0

    def test_single_interval_is_plain_trapezoid(self):
        grid = TimeGrid(0.0, 0.5, 1)
        traj = Trajectory(grid, np.array([[0.6, 0.2, 0.1, 0.1],
                                          [0.5, 0.3, 0.1, 0.1]]))
        u = np.array([0.1, 0.2])
        c0 = 0.6 - 0.2 - 0.01
        c1 = 0.5 - 0.3 - 0.04
        assert objective(traj, u) == pytest.approx(0.5 * (c0 + c1) / 2, rel=1e-14)

    def test_grid_mismatch(self):
        grid = TimeGrid(0.0, 1.0, 2)
        traj = Trajectory(grid, np.zeros((3, 4)))
        with pytest.raises(ValueError):
            objective(traj, np.zeros(4))


class TestHamiltonian:
    def test_zero_costate_reduces_to_running_cost(self, params):
        lam = np.zeros(4)
        assert hamiltonian(params, X0, lam, 0.0) == pytest.approx(0.4, rel=1e-14)
        rng = np.random.default_rng(13)
        for _ in range(10):
            x, u = random_state(rng), rng.uniform(0.0, 0.5)
            assert hamiltonian(params, x, lam, u) == pytest.approx(
                running_cost(x, u), rel=1e-13, abs=1e-15)

    def test_quadratic_in_control_with_unit_concavity(self, params):
        # second difference of a parabola: H(0) - 2 H(h) + H(2h) = 2 c2 h^2
        rng = np.random.default_rng(17)
        for _ in range(10):
            x = random_state(rng)
            lam = rng.uniform(-5.0, 5.0, 4)
            h0 = hamiltonian(params, x, lam, 0.0)
            h1 = hamiltonian(params, x, lam, 0.25)
            h2 = hamiltonian(params, x, lam, 0.5)
            assert h0 - 2 * h1 + h2 == pytest.approx(-2 * 0.25 ** 2, abs=1e-12)


class TestAdjointRhs:
    def test_zero_costate_leaves_cost_gradient(self, params):
        rng = np.random.default_rng(19)
        for _ in range(10):
            out = adjoint_rhs(params, random_state(rng), np.zeros(4),
                              rng.uniform(0.0, 0.5))
            np.testing.assert_array_equal(out, [-1.0, 1.0, 0.0, 0.0])

    def test_first_component_hand_value(self, params):
        lam = np.array([1.0, 0.0, 0.0, 0.0])
        expected = -1.0 + (params.b + 0.5304 - 0.1)
        assert adjoint_rhs(params, X0, lam, 0.0)[0] == pytest.approx(
            expected, rel=1e-12)

    def test_matches_negative_hamiltonian_gradient(self, params):
        rng = np.random.default_rng(23)
        for _ in range(20):
            x = random_state(rng)
            lam = rng.uniform(-5.0, 5.0, 4)
            u = rng.uniform(0.0, 0.5)
            out = adjoint_rhs(params, x, lam, u)
            fd = np.empty(4)
            for j in range(4):
                e = np.zeros(4)
                e[j] = 1e-6
                fd[j] = (hamiltonian(params, x + e, lam, u)
                         - hamiltonian(params, x - e, lam, u)) / 2e-6
            np.testing.assert_allclose(out, -fd, rtol=1e-6, atol=1e-9)

    def test_verbatim_mode_flips_one_coupling(self, params):
        rng = np.random.default_rng(29)
        for _ in range(10):
            x = random_state(rng)
            lam = rng.uniform(-5.0, 5.0, 4)
            u = rng.uniform(0.0, 0.5)
            derived = adjoint_rhs(params, x, lam, u, "derived")
            verbatim = adjoint_rhs(params, x, lam, u, "verbatim")
            diff = verbatim - derived
            np.testing.assert_array_equal(diff[:3], 0.0)
            assert diff[3] == pytest.approx(2.0 * lam[0] * params.d * x[0],
                                            rel=1e-12, abs=1e-15)

    def test_unknown_mode(self, params):
        # the point function and the sweep's problem both name the bad mode
        message = r"^unknown adjoint mode 'bogus'$"
        with pytest.raises(ValueError, match=message):
            adjoint_rhs(params, X0, np.zeros(4), 0.0, mode="bogus")
        with pytest.raises(ValueError, match=message):
            sica_problem(params, ControlBounds(), X0, "bogus")


class TestOptimalControlLaw:
    def test_equal_costates_give_zero(self, params):
        lam = np.array([2.0, 2.0, -1.0, 3.0])
        assert optimal_control_law(params, X0, lam, ControlBounds(0.5)) == 0.0

    def test_upper_clamp(self, params):
        # raw value 1.6 * 0.3315 * 0.6 * 10 / 2 = 1.5912 exceeds the bound
        lam = np.array([10.0, 0.0, 0.0, 0.0])
        assert optimal_control_law(params, X0, lam, ControlBounds(0.5)) == 0.5

    def test_lower_clamp(self, params):
        lam = np.array([0.0, 10.0, 0.0, 0.0])
        assert optimal_control_law(params, X0, lam, ControlBounds(0.5)) == 0.0

    def test_maximizes_hamiltonian_over_samples(self, params):
        rng = np.random.default_rng(31)
        bounds = ControlBounds(0.5)
        samples = np.linspace(0.0, 0.5, 101)
        for _ in range(50):
            x = random_state(rng)
            lam = rng.uniform(-5.0, 5.0, 4)
            u_star = optimal_control_law(params, x, lam, bounds)
            h_star = hamiltonian(params, x, lam, u_star)
            h_best = max(hamiltonian(params, x, lam, u) for u in samples)
            assert h_star >= h_best - 1e-12

    def test_interior_stationarity(self, params):
        # scale the costate gap so the raw law lands strictly inside the bounds
        bounds = ControlBounds(0.5)
        lam = np.array([1.0, 0.0, 0.0, 0.0])
        u_star = optimal_control_law(params, X0, lam, bounds)
        assert 0.0 < u_star < 0.5
        gap = params.beta * (X0[1] + params.eta_c * X0[2]
                             + params.eta_a * X0[3]) * X0[0]
        assert abs(-2.0 * u_star + gap * (lam[0] - lam[1])) <= 1e-12
        du = 1e-6
        fd = (hamiltonian(params, X0, lam, u_star + du)
              - hamiltonian(params, X0, lam, u_star - du)) / (2 * du)
        assert abs(fd) <= 1e-9
