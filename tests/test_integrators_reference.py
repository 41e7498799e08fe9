"""Bitwise comparison of the float integrators with a numpy-array reference.

The reference below is the integrators module as first written: Euler,
Heun and RK4 steps on numpy arrays, and a Dormand-Prince 5(4) step that
stores its stages in a ``(7, n)`` array and builds each stage input by
one array update per nonzero tableau entry.  The package runs the same
arithmetic on Python floats, so every sampled state, the failing node
and the failing time must agree exactly, not within a tolerance.
"""

import collections
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sicaoc import (AdaptiveSettings, IntegrationFailure, ModelParams,
                    NumericalFailure, TimeGrid, integrate_dp45,
                    integrate_fixed, integrators)
from sicaoc.model import controlled_field

from reference import assert_same_bits, ref_rhs


# ------------------------------------------------------------- reference


def ref_euler(f, t, x, h):
    out = x + h * f(t, x)
    if not np.isfinite(out).all():
        raise IntegrationFailure(f"non-finite Euler step at t={t}", t=t)
    return out


def ref_rk2(f, t, x, h):
    k1 = f(t, x)
    k2 = f(t + h, x + h * k1)
    out = x + (h / 2.0) * (k1 + k2)
    if not np.isfinite(out).all():
        raise IntegrationFailure(f"non-finite RK2 step at t={t}", t=t)
    return out


def ref_rk4(f, t, x, h):
    k1 = f(t, x)
    k2 = f(t + h / 2.0, x + (h / 2.0) * k1)
    k3 = f(t + h / 2.0, x + (h / 2.0) * k2)
    k4 = f(t + h, x + h * k3)
    out = x + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
    if not np.isfinite(out).all():
        raise IntegrationFailure(f"non-finite RK4 step at t={t}", t=t)
    return out


REF_STEPPERS = {"euler": ref_euler, "rk2": ref_rk2, "rk4": ref_rk4}


def ref_integrate_fixed(method, f, grid, x0):
    step = REF_STEPPERS[method]
    x = np.asarray(x0, dtype=float)
    h = grid.h
    out = np.empty((grid.node_count, x.size))
    out[0] = x
    for k in range(grid.steps):
        try:
            x = step(f, grid.t0 + k * h, x, h)
        except IntegrationFailure as exc:
            raise IntegrationFailure(
                f"{method} produced a non-finite state at node {k + 1}",
                node=k + 1, t=grid.t0 + (k + 1) * h) from exc
        out[k + 1] = x
    return out


DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
DP_ERR = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920,
                   -17253 / 339200, 22 / 525, -1 / 40])


def ref_dp_step(f, t, x, h):
    k = np.empty((7, x.size))
    k[0] = f(t, x)
    for s in range(1, 7):
        xs = x.copy()
        row = DP_A[s]
        for j in range(s):
            if row[j] != 0.0:
                xs = xs + (h * row[j]) * k[j]
        k[s] = f(t + DP_C[s] * h, xs)
    return x + h * (DP_B5 @ k), h * (DP_ERR @ k)


def ref_integrate_dp45(f, t0, tf, x0, settings, sample, branches=None):
    """The reference integrator; also returns the number of rejected steps.

    A ``branches`` Counter, if given, counts how often each branch of the
    step-size controller runs (``BRANCHES``).
    """
    if branches is None:
        branches = collections.Counter()
    x = np.asarray(x0, dtype=float)
    t = t0
    h = (tf - t0) / 100.0
    targets = sample.nodes()
    recorded = np.empty((sample.node_count, x.size))
    idx = 0
    if targets[0] == t0:
        recorded[0] = x
        idx = 1
    attempts = rejected = 0
    while idx < len(targets):
        target = float(targets[idx])
        clipped = t + h >= target
        h_try = target - t if clipped else h
        attempts += 1
        if attempts > integrators.MAX_STEPS:
            raise NumericalFailure(f"exceeded {integrators.MAX_STEPS} steps at t={t}")
        x_new, err = ref_dp_step(f, t, x, h_try)
        if not np.isfinite(x_new).all():
            raise IntegrationFailure(f"non-finite adaptive step at t={t}", t=t)
        scale = settings.abstol + settings.reltol * np.maximum(np.abs(x), np.abs(x_new))
        ratio = float(np.max(np.abs(err) / scale))
        raw = 5.0 if ratio == 0.0 else 0.9 * ratio ** -0.2
        factor = min(5.0, max(0.2, raw))
        branches["zero ratio"] += ratio == 0.0
        branches["growth clamp"] += raw > 5.0
        branches["shrink clamp"] += raw < 0.2
        if ratio <= 1.0:
            x = x_new
            if clipped:
                t = target
                recorded[idx] = x
                idx += 1
                branches["clipped, h grows" if h_try * factor > h else "clipped, h kept"] += 1
                h = max(h, h_try * factor)
            else:
                t = t + h_try
                h = h_try * factor
        else:
            rejected += 1
            branches["rejected"] += 1
            h = h_try * factor
    return recorded, rejected


BRANCHES = ("rejected", "zero ratio", "growth clamp", "shrink clamp",
            "clipped, h kept", "clipped, h grows")


def ref_field(p):
    """The uncontrolled fraction dynamics on numpy arrays, one array per call."""
    return lambda t, x: ref_rhs(p, x)


def forced_quartet(t, x):
    # terms in t, t * t and sin(t), so a wrong stage time changes the states
    a, b, c, d = x
    return [b - t * a, math.sin(t) * c - a, 0.3 * t * t * d - 0.5 * c, 0.1 * t - a * d]


def ref_forced_quartet(t, x):
    return np.array(forced_quartet(t, x))


def tuple_forced_quartet(t, x):
    return tuple(forced_quartet(t, x))


# ----------------------------------------------------------------- cases

SCENARIOS = [
    (1.6, (0.6, 0.2, 0.1, 0.1)),
    (1.0, (0.9, 0.05, 0.03, 0.02)),
    (2.0, (0.25, 0.25, 0.25, 0.25)),
    (1.3, (1.0, 0.0, 0.0, 0.0)),
]


@pytest.mark.parametrize("method", ["euler", "rk2", "rk4"])
# coarse grids on short spans: 7 steps of 20/7 years make rk2 and rk4 blow up
@pytest.mark.parametrize("steps,tf", [(1, 0.5), (7, 3.5), (100, 20.0), (800, 20.0)])
@pytest.mark.parametrize("beta,x0", SCENARIOS)
def test_fixed_matches_reference(method, steps, tf, beta, x0):
    p = ModelParams(beta=beta)
    grid = TimeGrid(0.0, tf, steps)
    got = integrate_fixed(method, controlled_field(p), grid, np.array(x0))
    want = ref_integrate_fixed(method, ref_field(p), grid, np.array(x0))
    assert_same_bits(got.states, want)


@pytest.mark.parametrize("method", ["euler", "rk2", "rk4"])
@pytest.mark.parametrize("steps", [1, 7, 100])
def test_fixed_matches_reference_on_a_time_dependent_four_component_field(method, steps):
    grid = TimeGrid(-0.5, 3.0, steps)
    x0 = [0.4, -0.3, 0.8, 0.2]
    got = integrate_fixed(method, forced_quartet, grid, x0)
    want = ref_integrate_fixed(method, ref_forced_quartet, grid, x0)
    assert_same_bits(got.states, want)


SETTINGS = {
    "default": AdaptiveSettings(),
    "tight": AdaptiveSettings(reltol=1e-12, abstol=1e-14),
}


@pytest.mark.parametrize("name", list(SETTINGS))
def test_dp45_matches_reference_on_a_time_dependent_four_component_field(name):
    sample = TimeGrid(-0.5, 3.0, 10)
    x0 = [0.4, -0.3, 0.8, 0.2]
    got = integrate_dp45(forced_quartet, -0.5, 3.0, x0, SETTINGS[name], sample)
    want, rejected = ref_integrate_dp45(ref_forced_quartet, -0.5, 3.0, np.array(x0),
                                        SETTINGS[name], sample)
    assert_same_bits(got.states, want)
    if name == "tight":
        assert rejected > 0


@pytest.mark.parametrize("field", [ref_forced_quartet, tuple_forced_quartet])
def test_four_component_fields_give_the_bits_of_a_list_returning_one(field):
    # the steps unpack the field's values, so an ndarray or a tuple from f
    # must stack and step exactly as a list does
    x0 = np.array([0.4, -0.3, 0.8, 0.2])
    sample, grid = TimeGrid(-0.5, 3.0, 10), TimeGrid(-0.5, 3.0, 100)
    runs = [lambda f, s=s: integrate_dp45(f, -0.5, 3.0, x0, s, sample)
            for s in SETTINGS.values()]
    runs += [lambda f, m=m: integrate_fixed(m, f, grid, x0) for m in ("euler", "rk2", "rk4")]
    for run in runs:
        got, want = run(field).states, run(forced_quartet).states
        assert got.dtype == want.dtype == np.float64
        assert_same_bits(got, want)


@pytest.mark.parametrize("name", list(SETTINGS))
@pytest.mark.parametrize("steps", [1, 100])
@pytest.mark.parametrize("beta,x0", SCENARIOS[:3])
def test_dp45_matches_reference(name, steps, beta, x0):
    p = ModelParams(beta=beta)
    grid = TimeGrid(0.0, 20.0, steps)
    settings = SETTINGS[name]
    got = integrate_dp45(controlled_field(p), 0.0, 20.0, np.array(x0), settings, grid)
    want, rejected = ref_integrate_dp45(ref_field(p), 0.0, 20.0, np.array(x0),
                                        settings, grid)
    assert_same_bits(got.states, want)
    # the tight tolerances reject steps, so the rejection branch is compared too
    if name == "tight":
        assert rejected > 0


def nan_after(f, t_bad):
    """``f`` until t exceeds ``t_bad``, then a NaN in the second component."""
    def g(t, x):
        out = [float(v) for v in f(t, x)]
        if t > t_bad:
            out[1] = math.nan
        return out
    return g


@pytest.mark.parametrize("method", ["euler", "rk2", "rk4"])
def test_mid_grid_nan_reports_the_reference_node_and_time(method):
    p = ModelParams()
    grid = TimeGrid(0.0, 20.0, 100)
    x0 = np.array([0.6, 0.2, 0.1, 0.1])
    with pytest.raises(IntegrationFailure) as got:
        integrate_fixed(method, nan_after(controlled_field(p), 7.3), grid, x0)
    ref_f = nan_after(ref_field(p), 7.3)
    with pytest.raises(IntegrationFailure) as want:
        ref_integrate_fixed(method, lambda t, x: np.array(ref_f(t, x)), grid, x0)
    assert got.value.node == want.value.node
    assert_same_bits(got.value.t, want.value.t)
    assert str(got.value) == str(want.value)


def test_dp45_nan_reports_the_reference_time():
    p = ModelParams()
    grid = TimeGrid(0.0, 20.0, 100)
    x0 = np.array([0.6, 0.2, 0.1, 0.1])
    with pytest.raises(IntegrationFailure) as got:
        integrate_dp45(nan_after(controlled_field(p), 7.3), 0.0, 20.0, x0,
                       AdaptiveSettings(), grid)
    ref_f = nan_after(ref_field(p), 7.3)
    with pytest.raises(IntegrationFailure) as want:
        ref_integrate_dp45(lambda t, x: np.array(ref_f(t, x)), 0.0, 20.0, x0,
                           AdaptiveSettings(), grid)
    assert_same_bits(got.value.t, want.value.t)
    assert str(got.value) == str(want.value)


# ---------------------------------------------------- controller branches


def zero_quartet(t, x):
    return [0.0] * 4


# the tight model run rejects, clamps both ways and clips both ways; the
# zero field gives a zero error ratio
BRANCH_CASES = {
    "model-tight": (controlled_field(ModelParams()), ref_field(ModelParams()),
                    0.0, 20.0, [0.6, 0.2, 0.1, 0.1], SETTINGS["tight"],
                    TimeGrid(0.0, 20.0, 100)),
    "zero-field": (zero_quartet, lambda t, x: np.zeros(4), 0.0, 10.0,
                   [0.3, 0.7, -0.2, 0.0], SETTINGS["default"], TimeGrid(0.0, 10.0, 5)),
}


def test_dp45_every_controller_branch_matches_reference():
    branches = collections.Counter()
    for f, ref_f, t0, tf, x0, adaptive, sample in BRANCH_CASES.values():
        got = integrate_dp45(f, t0, tf, x0, adaptive, sample)
        want, _ = ref_integrate_dp45(ref_f, t0, tf, np.array(x0), adaptive, sample,
                                     branches)
        assert_same_bits(got.states, want)
    assert {b: branches[b] for b in BRANCHES if not branches[b]} == {}


@st.composite
def dp45_problems(draw):
    beta = draw(st.floats(1.0, 2.0))
    weights = draw(st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4)
                   .filter(lambda w: sum(w) > 0.0))
    x0 = np.array(weights) / sum(weights)
    # hypothesis leans to the low end of a range, so the draws lean to the
    # tightest tolerances and the full 20-year span, whose first trial step
    # is the longest: the controller's shrink clamp then runs
    adaptive = AdaptiveSettings(reltol=10.0 ** (draw(st.floats(0.0, 9.0)) - 12.0),
                                abstol=10.0 ** (draw(st.floats(0.0, 8.0)) - 14.0))
    tf = 20.0 - draw(st.floats(0.0, 19.5))
    start = draw(st.one_of(st.just(0.0), st.floats(0.0, 0.9)))
    stop = draw(st.one_of(st.just(1.0), st.floats(start + 0.05, 1.0)))
    sample = TimeGrid(start * tf, stop * tf, draw(st.integers(1, 40)))
    return beta, x0, tf, adaptive, sample


@settings(max_examples=40)
@given(dp45_problems())
def test_dp45_matches_reference_on_drawn_problems(problem):
    beta, x0, tf, adaptive, sample = problem
    p = ModelParams(beta=beta)
    got = integrate_dp45(controlled_field(p), 0.0, tf, x0, adaptive, sample)
    want, _ = ref_integrate_dp45(ref_field(p), 0.0, tf, x0, adaptive, sample)
    assert_same_bits(got.states, want)
