"""Bitwise comparison of the float sweep with a numpy-array reference.

The reference below is the sweep as first written: kernels that build a
length-4 numpy array per call, forward and backward RK4 passes on numpy
rows, and a control law evaluated node by node with builtin ``min`` and
``max``.  The package runs the same arithmetic on Python floats, so
every state, costate, control (with the sign of its zeros), iteration
count and margin must agree exactly, not within a tolerance, and so must
single forward and backward passes under any control.
"""

import numpy as np
import pytest

from sicaoc import (ControlBounds, ModelParams, SweepNonConvergence,
                    SweepSettings, TimeGrid)
from sicaoc.model import (adjoint_rhs, hamiltonian, optimal_control_law,
                          rhs_controlled, rhs_normalized)
from sicaoc.sweep import backward_pass, forward_pass, sica_problem, solve


# ------------------------------------------------------------- reference


def ref_rhs(p, x, u):
    s, i, c, a = x
    aux1 = (1.0 - u) * p.beta * (i + p.eta_c * c + p.eta_a * a) * s
    aux2 = p.d * a
    return np.array([
        p.b * (1.0 - s) - aux1 + aux2 * s,
        aux1 - (p.rho + p.phi + p.b - aux2) * i + p.alpha * a + p.omega * c,
        p.phi * i - (p.omega + p.b - aux2) * c,
        p.rho * i - (p.alpha + p.b + p.d - aux2) * a,
    ])


def ref_adjoint(p, x, lam, u, mode):
    s, i, c, a = x
    l1, l2, l3, l4 = lam
    uc = 1.0 - u
    forc = uc * p.beta * (i + p.eta_c * c + p.eta_a * a)
    da = p.d * a
    dl1 = -1.0 + l1 * (p.b + forc - da) - l2 * forc
    g = uc * p.beta * s
    dl2 = (1.0 + l1 * g - l2 * (g - (p.rho + p.phi + p.b) + da)
           - l3 * p.phi - l4 * p.rho)
    gc = uc * p.beta * p.eta_c * s
    dl3 = l1 * gc - l2 * (gc + p.omega) + l3 * (p.omega + p.b - da)
    ga = uc * p.beta * p.eta_a * s
    ds = p.d * s if mode == "verbatim" else -(p.d * s)
    dl4 = (l1 * (ga + ds) - l2 * (ga + p.alpha + p.d * i)
           - l3 * p.d * c + l4 * (p.alpha + p.b + p.d - 2.0 * da))
    return np.array([dl1, dl2, dl3, dl4])


def ref_law(p, x, lam, u_max):
    s, i, c, a = x
    raw = p.beta * (i + p.eta_c * c + p.eta_a * a) * s * (lam[0] - lam[1]) / 2.0
    return min(max(0.0, raw), u_max)


def ref_forward(f, x0, u, grid):
    h = grid.h
    out = np.empty((grid.node_count, 4))
    x = x0
    out[0] = x
    for k in range(grid.steps):
        um = 0.5 * (u[k] + u[k + 1])
        k1 = f(x, u[k])
        k2 = f(x + (h / 2.0) * k1, um)
        k3 = f(x + (h / 2.0) * k2, um)
        k4 = f(x + h * k3, u[k + 1])
        x = x + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        out[k + 1] = x
    return out


def ref_backward(g, xs, u, grid):
    h = grid.h
    out = np.empty((grid.node_count, 4))
    lam = np.zeros(4)
    out[grid.steps] = lam
    for j in range(grid.steps, 0, -1):
        xm = 0.5 * (xs[j] + xs[j - 1])
        um = 0.5 * (u[j] + u[j - 1])
        k1 = g(xs[j], lam, u[j])
        k2 = g(xm, lam - (h / 2.0) * k1, um)
        k3 = g(xm, lam - (h / 2.0) * k2, um)
        k4 = g(xs[j - 1], lam - h * k3, u[j - 1])
        lam = lam - (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        out[j - 1] = lam
    return out


def ref_margin(pairs, delta):
    margin = np.inf
    for old, new in pairs:
        margin = min(margin, delta * np.abs(new).sum() - np.abs(old - new).sum())
    return float(margin)


def ref_solve(f, g, law, x0, settings):
    """The sweep loop on numpy rows; returns states, costates, control,
    iterations and final margin."""
    grid = settings.grid
    n = grid.node_count
    u = (settings.initial_control.copy() if settings.initial_control is not None
         else np.zeros(n))
    xs = np.zeros((n, 4))
    xs[0] = x0
    lams = np.zeros((n, 4))
    iterations = 0
    margin = -np.inf
    while iterations < settings.max_iterations:
        iterations += 1
        old_xs, old_lams, old_u = xs, lams, u
        xs = ref_forward(f, x0, u, grid)
        lams = ref_backward(g, xs, u, grid)
        new = np.array([law(xs[k], lams[k]) for k in range(n)])
        u = settings.relaxation * new + (1.0 - settings.relaxation) * u
        pairs = ([(old_xs[:, j], xs[:, j]) for j in range(4)] + [(old_u, u)]
                 + [(old_lams[:, j], lams[:, j]) for j in range(4)])
        margin = ref_margin(pairs, settings.delta_error)
        if margin >= 0.0:
            break
    control = np.array([law(xs[k], lams[k]) for k in range(n)])
    return xs, lams, control, iterations, margin


# ------------------------------------------------------------- scenarios

# horizon, steps, u_max, beta, x0, adjoint mode, max_iterations
SCENARIOS = {
    "T10-umax0.2-beta1.0": (10.0, 50, 0.2, 1.0, (0.7, 0.1, 0.1, 0.1), "derived", 500),
    "T20-umax0.5-beta1.6-verbatim": (20.0, 100, 0.5, 1.6, (0.6, 0.2, 0.1, 0.1),
                                     "verbatim", 500),
    "T40-umax0.95-beta1.5": (40.0, 200, 0.95, 1.5, (0.8, 0.1, 0.05, 0.05),
                             "derived", 500),
    # stops on its iteration budget: the margin of the last iterate is compared
    "T60-umax0.95-beta2.0-verbatim-budget": (60.0, 300, 0.95, 2.0,
                                             (0.8, 0.1, 0.05, 0.05), "verbatim", 25),
    "one-step-grid": (1.0, 1, 0.5, 1.6, (0.6, 0.2, 0.1, 0.1), "derived", 500),
    "no-infection": (10.0, 50, 0.3, 1.6, (1.0, 0.0, 0.0, 0.0), "derived", 500),
    "zero-bound": (10.0, 50, 0.0, 1.6, (0.6, 0.2, 0.1, 0.1), "derived", 500),
    # the builtin clamp returns u_max = -0.0 wherever the stationary point is positive
    "negative-zero-bound": (10.0, 50, -0.0, 1.6, (0.6, 0.2, 0.1, 0.1), "derived", 500),
}


def solve_both(prob, settings, f, g, law, x0):
    try:
        result = solve(prob, settings)
    except SweepNonConvergence as exc:
        result = exc.result
    return result, ref_solve(f, g, law, x0, settings)


def assert_same(result, reference):
    xs, lams, control, iterations, margin = reference
    assert np.array_equal(result.states.states, xs)
    assert np.array_equal(result.adjoints.states, lams)
    assert np.array_equal(result.control, control)
    assert np.array_equal(np.signbit(result.control), np.signbit(control))
    assert result.iterations == iterations
    assert result.final_margin == margin


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_sweep_matches_reference_bitwise(name):
    horizon, steps, u_max, beta, x0, mode, budget = SCENARIOS[name]
    p = ModelParams(beta=beta)
    x0 = np.array(x0)
    settings = SweepSettings(grid=TimeGrid(0.0, horizon, steps), max_iterations=budget)
    result, reference = solve_both(
        sica_problem(p, ControlBounds(u_max), x0, mode), settings,
        lambda x, u: ref_rhs(p, x, u),
        lambda x, lam, u: ref_adjoint(p, x, lam, u, mode),
        lambda x, lam: ref_law(p, x, lam, u_max), x0)
    assert_same(result, reference)


def assert_same_bits(a, b):
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("mode", ["derived", "verbatim"])
@pytest.mark.parametrize("steps", [1, 2, 37])
def test_passes_match_reference_bitwise_for_any_control(mode, steps):
    # no rate of 1.0, which would hide a regrouped product such as d * c
    p = ModelParams(mu=0.017, beta=1.7, eta_c=0.04, eta_a=1.35, phi=0.93,
                    rho=0.11, alpha=0.31, omega=0.087, d=0.77)
    rng = np.random.default_rng(steps)
    grid = TimeGrid(0.0, 5.0, steps)
    x0 = rng.dirichlet(np.ones(4))
    prob = sica_problem(p, ControlBounds(0.5), x0, mode)
    f = lambda x, u: ref_rhs(p, x, u)
    g = lambda x, lam, u: ref_adjoint(p, x, lam, u, mode)
    for _ in range(20):
        # controls off the admissible set, and signed zeros, included
        u = rng.uniform(-1.0, 2.0, size=grid.node_count)
        pick = rng.random(grid.node_count) < 0.3
        u[pick] = rng.choice([-0.0, 0.0, 0.5, 1.0], size=pick.sum())
        x = forward_pass(prob, u, grid)
        assert_same_bits(x.states, ref_forward(f, x0, u, grid))
        assert_same_bits(backward_pass(prob, x, u).states,
                         ref_backward(g, x.states, u, grid))


def test_constant_law_matches_reference_bitwise(params):
    x0 = np.array([0.6, 0.2, 0.1, 0.1])
    prob = sica_problem(params, ControlBounds(0.5), x0)
    prob.control_law = lambda x, lam: np.full(len(x), 0.3)
    settings = SweepSettings(grid=TimeGrid(0.0, 20.0, 100), relaxation=1.0,
                             initial_control=np.full(101, 0.3))
    result, reference = solve_both(
        prob, settings, lambda x, u: ref_rhs(params, x, u),
        lambda x, lam, u: ref_adjoint(params, x, lam, u, "derived"),
        lambda x, lam: 0.3, x0)
    assert_same(result, reference)


def test_public_kernels_match_reference_bitwise(params):
    rng = np.random.default_rng(7)
    for _ in range(200):
        x = rng.dirichlet(np.ones(4))
        lam = rng.normal(scale=5.0, size=4)
        u = float(rng.uniform(0.0, 1.0))
        assert np.array_equal(rhs_normalized(params, x), ref_rhs(params, x, 0.0))
        assert np.array_equal(rhs_controlled(params, x, u), ref_rhs(params, x, u))
        for mode in ("derived", "verbatim"):
            assert np.array_equal(adjoint_rhs(params, x, lam, u, mode),
                                  ref_adjoint(params, x, lam, u, mode))
        expected = float(x[0] - x[1] - u * u + np.dot(lam, ref_rhs(params, x, u)))
        assert hamiltonian(params, x, lam, u) == expected


@pytest.mark.parametrize("u_max", [0.5, 0.0, -0.0])
def test_vectorized_law_matches_per_node_reference(params, u_max):
    rng = np.random.default_rng(11)
    xs = rng.dirichlet(np.ones(4), size=300)
    lams = rng.normal(scale=5.0, size=(300, 4))
    # a zero infection term times a negative costate gap is a -0.0
    # stationary point, which the clamp must turn into +0.0
    xs[:50] = [1.0, 0.0, 0.0, 0.0]
    xs[50:100, 0] = 0.0
    lams[:100, 1] = np.abs(lams[:100, 0]) + 1.0
    law = optimal_control_law(params, xs, lams, ControlBounds(u_max))
    expected = np.array([ref_law(params, xs[k], lams[k], u_max) for k in range(300)])
    assert np.array_equal(law, expected)
    assert np.array_equal(np.signbit(law), np.signbit(expected))
