"""Bitwise comparison of the float sweep with a numpy-array reference.

The reference is the sweep as first written: kernels that build a
length-4 numpy array per call (the field and the margin fold from
``reference.py``, the costate field here), forward and backward RK4
passes on numpy rows, and a control law evaluated node by node with
builtin ``min`` and ``max``.  The package runs the same arithmetic on Python floats, so
every state, costate, control (with the signs of their zeros), iteration
count and margin must agree exactly, not within a tolerance, and so must
single forward and backward passes under any control, and the point
kernels at random rates.  The passes and
the solves are checked twice through the same loops: with the reference
kernels, and with the package's own point functions ``controlled_field``
and ``adjoint_rhs``, since each fused march is, bit for bit, an RK4 loop
over those.  The Hamiltonian on node stacks, and the stationarity
residual built on it, must agree bit for bit with a per-node loop.

The same reference kernels also give an oracle that owes nothing to the
sweep: the state and costate equations with the control law substituted,
x(0) = x0 and lambda(T) = 0, solved as one boundary-value problem by
scipy's collocation.  A tightly converged sweep must approach that
extremal at its RK4 rate as the grid is refined.
"""

import numpy as np
import pytest
from scipy.integrate import solve_bvp

from sicaoc import (ControlBounds, ModelParams, SweepNonConvergence,
                    SweepSettings, TimeGrid, Trajectory)
from sicaoc import analysis
from sicaoc.analysis import FD_STEP, stationarity_residual
from sicaoc.model import (adjoint_rhs, controlled_field, hamiltonian, objective,
                          optimal_control_law)
from sicaoc.sweep import backward_pass, forward_pass, sica_problem, solve

from reference import assert_same_bits, draw_params, fold_margin, ref_rhs


# ------------------------------------------------------------- reference


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


def ref_hamiltonian(p, x, lam, u):
    return float(x[0] - x[1] - u * u + np.dot(lam, ref_rhs(p, x, u)))


def ref_residual(result, p, bounds):
    """The stationarity residual node by node: two Hamiltonian calls per inside node."""
    worst = None
    for k in range(result.states.grid.node_count):
        u = float(result.control[k])
        if not 0.0 < u < bounds.u_max:
            continue
        x = result.states.states[k]
        lam = result.adjoints.states[k]
        grad = (ref_hamiltonian(p, x, lam, u + FD_STEP)
                - ref_hamiltonian(p, x, lam, u - FD_STEP)) / (2.0 * FD_STEP)
        worst = abs(grad) if worst is None else max(worst, abs(grad))
    return worst


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


# each kernel set gives, for (params, adjoint mode), the fields f(x, u) and g(x, lam, u)
KERNEL_SETS = {
    "reference": lambda p, mode: (lambda x, u: ref_rhs(p, x, u),
                                  lambda x, lam, u: ref_adjoint(p, x, lam, u, mode)),
    # the package's point functions, which each fused march is an RK4 loop over
    "public": lambda p, mode: (lambda x, u: np.asarray(controlled_field(p)(0.0, x, u)),
                               lambda x, lam, u: adjoint_rhs(p, x, lam, u, mode)),
}


def per_kernel_set(cases):
    """``(case, kernel set)`` parameters; the reference set keeps the case's own id."""
    return [pytest.param(case, kernels,
                         id=case if kernels == "reference" else f"{kernels}-{case}")
            for kernels in KERNEL_SETS for case in cases]


def ref_solve(f, g, law, x0, settings):
    """The sweep loop on numpy rows; returns states, costates, control,
    iterations and final margin."""
    grid = settings.grid
    n = grid.node_count
    u = np.zeros(n)
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
        margin = fold_margin([*old_xs.T, old_u, *old_lams.T], [*xs.T, u, *lams.T],
                             settings.delta_error)
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
    # one iteration: its margin is measured against the zero iterate holding x0,
    # and on a short horizon the costates are small, so a state column sets it
    "T0.5-first-iteration-budget": (0.5, 10, 0.5, 1.6, (0.6, 0.2, 0.1, 0.1),
                                    "derived", 1),
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
    assert_same_bits(result.states.states, xs)
    assert_same_bits(result.adjoints.states, lams)
    assert_same_bits(result.control, control)
    assert result.iterations == iterations
    assert_same_bits(result.final_margin, margin)


@pytest.mark.parametrize("name, kernels", per_kernel_set(SCENARIOS))
def test_sweep_matches_reference_bitwise(name, kernels):
    horizon, steps, u_max, beta, x0, mode, budget = SCENARIOS[name]
    p = ModelParams(beta=beta)
    x0 = np.array(x0)
    settings = SweepSettings(grid=TimeGrid(0.0, horizon, steps), max_iterations=budget)
    result, reference = solve_both(
        sica_problem(p, ControlBounds(u_max), x0, mode), settings,
        *KERNEL_SETS[kernels](p, mode), lambda x, lam: ref_law(p, x, lam, u_max), x0)
    assert_same(result, reference)


# 1, 2 and 3 steps are the edges of the costate march's term-table walk
WALK_STEPS = [1, 2, 3, 37]


@pytest.mark.parametrize("mode, kernels", per_kernel_set(["derived", "verbatim"]))
@pytest.mark.parametrize("steps", WALK_STEPS)
def test_passes_match_reference_bitwise_for_any_control(mode, kernels, steps):
    # no rate of 1.0, which would hide a regrouped product such as d * c
    p = ModelParams(mu=0.017, beta=1.7, eta_c=0.04, eta_a=1.35, phi=0.93,
                    rho=0.11, alpha=0.31, omega=0.087, d=0.77)
    rng = np.random.default_rng(steps)
    grid = TimeGrid(0.0, 5.0, steps)
    x0 = rng.dirichlet(np.ones(4))
    prob = sica_problem(p, ControlBounds(0.5), x0, mode)
    f, g = KERNEL_SETS[kernels](p, mode)
    for _ in range(20):
        # controls off the admissible set, and signed zeros, included
        u = rng.uniform(-1.0, 2.0, size=grid.node_count)
        pick = rng.random(grid.node_count) < 0.3
        u[pick] = rng.choice([-0.0, 0.0, 0.5, 1.0], size=pick.sum())
        x = forward_pass(prob, u, grid)
        assert_same_bits(x.states, ref_forward(f, x0, u, grid))
        assert_same_bits(backward_pass(prob, x, u).states,
                         ref_backward(g, x.states, u, grid))


@pytest.mark.parametrize("mode", ["derived", "verbatim"])
@pytest.mark.parametrize("steps", WALK_STEPS)
def test_backward_pass_bits_do_not_depend_on_the_input_layout(params, mode, steps):
    rng = np.random.default_rng(steps)
    grid = TimeGrid(0.0, 5.0, steps)
    n = grid.node_count
    prob = sica_problem(params, ControlBounds(0.5), rng.dirichlet(np.ones(4)), mode)
    u = rng.uniform(-1.0, 2.0, size=n)
    x = forward_pass(prob, u, grid)
    expected = backward_pass(prob, x, u).states
    reversed_rows = np.empty((n, 4))[::-1]
    reversed_rows[:] = x.states
    strided_u = np.empty(2 * n)[::2]
    strided_u[:] = u
    for states in (reversed_rows, np.asfortranarray(x.states)):
        assert not states.flags.c_contiguous
        assert_same_bits(backward_pass(prob, Trajectory(grid, states), strided_u).states,
                         expected)


def test_constant_law_matches_reference_bitwise(params):
    x0 = np.array([0.6, 0.2, 0.1, 0.1])
    prob = sica_problem(params, ControlBounds(0.5), x0)
    prob.control_law = lambda x, lam: np.full(len(x), 0.3)
    settings = SweepSettings(grid=TimeGrid(0.0, 20.0, 100), relaxation=1.0)
    result, reference = solve_both(prob, settings, *KERNEL_SETS["reference"](params, "derived"),
                                   lambda x, lam: 0.3, x0)
    assert_same(result, reference)
    # from zero the first update sets 0.3, and the third iterate repeats the second
    assert result.converged and result.iterations <= 3


def test_public_kernels_match_reference_bitwise():
    # test_model's TestControlledField checks the field under any control and on node rows
    rng = np.random.default_rng(32)
    for _ in range(100):
        p = draw_params(rng)
        # one point on Python floats, as the integrators call the field
        x = rng.dirichlet(np.ones(4)).tolist()
        lam = rng.normal(scale=5.0, size=4)
        assert_same_bits(controlled_field(p)(0.0, x), ref_rhs(p, x))
        # u inside and outside [0, 1], as the Hamiltonian evaluates the dynamics
        for u in (rng.uniform(0.0, 1.0), rng.uniform(-3.0, 0.0), rng.uniform(1.0, 4.0)):
            for mode in ("derived", "verbatim"):
                assert_same_bits(adjoint_rhs(p, x, lam, u, mode),
                                 ref_adjoint(p, x, lam, u, mode))
            assert_same_bits(hamiltonian(p, x, lam, u), ref_hamiltonian(p, x, lam, u))


@pytest.mark.parametrize("per_node_u", [False, True], ids=["one-u", "u-per-node"])
def test_hamiltonian_on_stacks_matches_per_node_calls(params, per_node_u):
    rng = np.random.default_rng(13)
    xs = rng.dirichlet(np.ones(4), size=300)
    lams = rng.normal(scale=5.0, size=(300, 4))
    # controls off the admissible set, and signed zeros, included
    u = rng.uniform(-1.0, 2.0, size=300) if per_node_u else 0.3
    if per_node_u:
        u[:20] = -0.0
    values = hamiltonian(params, xs, lams, u)
    singles = [hamiltonian(params, xs[k], lams[k], u[k] if per_node_u else u)
               for k in range(300)]
    assert values.shape == (300,)
    assert all(isinstance(h, float) for h in singles)
    assert_same_bits(values, singles)


@pytest.mark.parametrize("name", ["default"] + list(SCENARIOS))
def test_stationarity_residual_matches_per_node_reference(name, params, default_sweep,
                                                          monkeypatch):
    if name == "default":
        p, bounds, result = params, ControlBounds(0.5), default_sweep["result"]
    else:
        horizon, steps, u_max, beta, x0, mode, budget = SCENARIOS[name]
        p, bounds = ModelParams(beta=beta), ControlBounds(u_max)
        settings = SweepSettings(grid=TimeGrid(0.0, horizon, steps), max_iterations=budget)
        try:
            result = solve(sica_problem(p, bounds, np.array(x0), mode), settings)
        except SweepNonConvergence as exc:
            result = exc.result
    calls = []
    monkeypatch.setattr(analysis, "hamiltonian",
                        lambda *args: calls.append(args) or hamiltonian(*args))
    residual = stationarity_residual(result, p, bounds)
    expected = ref_residual(result, p, bounds)
    assert type(residual) is type(expected)
    if residual is not None:
        assert_same_bits(residual, expected)
    # one array pass: two calls on the stacks of inside nodes, none without them
    assert len(calls) == (0 if residual is None else 2)
    if name in ("zero-bound", "negative-zero-bound"):
        assert residual is None
    if name.endswith("-budget"):
        assert not result.converged and residual is not None


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
    assert_same_bits(law, expected)


# ------------------------------------------------------------- collocation oracle

# J of the default scenario's extremal by collocation, per adjoint mode.  At tol
# 1e-7 (448 mesh nodes) the oracle's J moves by 5.8e-10 (derived) and 2.6e-10
# (verbatim), and a quadrature 4 times finer moves it by at most 1.1e-10, so
# the recorded values stand for J_inf to within 1e-9.
J_INF = {"derived": 3.2253504514, "verbatim": 3.2251748436}
J_INF_TOLERANCE = 1e-9


def collocation_extremal(p, bounds, x0, mode, horizon=20.0):
    """The extremal by ``solve_bvp``: its control as a function of time, and its J.

    The unknown is the stack (x, lambda) on the mesh, shape ``(8, m)``; the
    initial guess is the uncontrolled RK4 state on a mesh of step 0.4 (51
    nodes on [0, 20]) and a zero costate; the mesh may grow to 5000 nodes,
    which T60/u_max 0.9/beta 1.6 needs.  J is the trapezoid rule on points
    1e-4 apart (200 001 on [0, 20]) of the interpolant.
    """
    f, g = KERNEL_SETS["reference"](p, mode)

    def law(y):
        return optimal_control_law(p, y[:4].T, y[4:].T, bounds)

    def field(t, y):
        u = law(y)
        return np.concatenate((f(y[:4], u), g(y[:4], y[4:], u)))

    def boundary(ya, yb):
        return np.concatenate((ya[:4] - x0, yb[4:]))

    grid = TimeGrid(0.0, horizon, round(2.5 * horizon))
    start = ref_forward(f, x0, np.zeros(grid.node_count), grid)
    sol = solve_bvp(field, boundary, grid.nodes(),
                    np.vstack((start.T, np.zeros((4, grid.node_count)))), tol=1e-6,
                    max_nodes=5000)
    assert sol.status == 0, sol.message
    t = np.linspace(0.0, horizon, round(10_000 * horizon) + 1)
    y = sol.sol(t)
    u = law(y)
    return (lambda times: law(sol.sol(times))), float(np.trapezoid(y[0] - y[1] - u * u, t))


@pytest.fixture(scope="module")
def extremals(params, x0):
    return {mode: collocation_extremal(params, ControlBounds(0.5), x0, mode)
            for mode in ("derived", "verbatim")}


def test_tight_sweep_converges_to_the_collocation_extremal(params, x0, extremals):
    control_of, j_oracle = extremals["derived"]
    assert j_oracle == pytest.approx(J_INF["derived"], rel=0.0, abs=J_INF_TOLERANCE)
    j_error = {}
    for steps in (1000, 2000):
        grid = TimeGrid(0.0, 20.0, steps)
        prob = sica_problem(params, ControlBounds(0.5), x0)
        u = solve(prob, SweepSettings(grid=grid, delta_error=1e-9)).control
        # J of the returned control, not the reported one, which mixes two iterates
        j_error[steps] = objective(forward_pass(prob, u, grid), u) - j_oracle
        if steps == 1000:
            assert np.abs(u - control_of(grid.nodes())).max() <= 1e-6
    # RK4 passes and the trapezoid objective: halving h quarters the error in J
    assert 3.5 <= j_error[1000] / j_error[2000] <= 4.5


def test_verbatim_adjoint_extremal_falls_short(extremals):
    # the Octave routine's sign of d*s in the fourth costate equation is not
    # Pontryagin's, so the extremal it defines gives up some J
    assert extremals["verbatim"][1] == pytest.approx(J_INF["verbatim"], rel=0.0,
                                                     abs=J_INF_TOLERANCE)
    deficit = extremals["derived"][1] - extremals["verbatim"][1]
    assert deficit == pytest.approx(1.76e-4, rel=0.1)


# Hard corners of the benchmark's scenario catalogue (horizons to 60, u_max to
# 0.95, beta to 2), chosen before the oracle was first run on them
@pytest.mark.parametrize("horizon, u_max, beta, x0", [
    pytest.param(60.0, 0.95, 2.0, (0.6, 0.2, 0.1, 0.1), id="T60-umax0.95-beta2.0"),
    pytest.param(40.0, 0.9, 2.0, (0.3, 0.5, 0.1, 0.1), id="T40-umax0.9-beta2.0-i0.5"),
    pytest.param(60.0, 0.9, 1.6, (0.6, 0.2, 0.1, 0.1), id="T60-umax0.9-beta1.6"),
])
def test_tight_sweep_converges_to_the_collocation_extremal_of_a_hard_scenario(
        horizon, u_max, beta, x0):
    params, bounds, x0 = ModelParams(beta=beta), ControlBounds(u_max), np.array(x0)
    control_of, j_oracle = collocation_extremal(params, bounds, x0, "derived", horizon)
    gap, j_error = {}, {}
    for h in (0.04, 0.02):
        grid = TimeGrid(0.0, horizon, round(horizon / h))
        prob = sica_problem(params, bounds, x0)
        u = solve(prob, SweepSettings(grid=grid, delta_error=1e-9)).control
        j_error[h] = objective(forward_pass(prob, u, grid), u) - j_oracle
        gap[h] = np.abs(u - control_of(grid.nodes())).max()
    # the discrete extremal is second order in h: the passes' stage controls
    # interpolate the node controls linearly and J is the trapezoid rule, so
    # halving h quarters the error in J, and the control gap is about
    # 0.01 * h**2 (4e-6 and 5e-6 at h = 0.02); the bound allows 2.5 times that
    assert 3.5 <= j_error[0.04] / j_error[0.02] <= 4.5
    assert gap[0.02] <= 0.025 * 0.02 ** 2
