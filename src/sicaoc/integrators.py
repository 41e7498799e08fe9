"""Initial-value-problem integrators for four-component ODE systems.

Fixed-step Euler, Heun (RK2) and classical RK4 steps (pure arithmetic),
``integrate_fixed``, which walks them across a uniform time grid and
checks the states once (``march_trajectory``), and an adaptive embedded
Dormand-Prince 5(4) integrator whose output is sampled on a requested
grid.  All routines are pure functions of their arguments and are safe
to call concurrently.

The state has four components, as the SICA model's does:
``integrate_fixed`` and ``integrate_dp45`` check the initial state with
``four_state`` before the first field call.  A vector field is called
as ``f(t, x)`` with ``x`` a list of four Python floats and returns four
floats (a list, tuple or 1-D array).  The steps and the Dormand-Prince
stage inputs and 5th-order update are written out component by
component on Python floats, which keeps numpy's per-call overhead out
of the step loops; the results equal the element-wise numpy arithmetic
bit for bit.  The field's values are unpacked, so a field that returns
the wrong number of values raises ``ValueError``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, isfinite
from numbers import Integral
from typing import Callable, Sequence

import numpy as np

# f(t, x): x is a list of the four state components, and f returns four values
VectorField = Callable[[float, list], Sequence[float]]


class NumericalFailure(RuntimeError):
    """A computation failed numerically: the CLI reports it as exit 3."""


class IntegrationFailure(NumericalFailure):
    """A state or stage value became non-finite during integration."""

    def __init__(self, message: str, node: int | None = None, t: float | None = None):
        super().__init__(message)
        self.node = node
        self.t = t


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid of ``steps + 1`` nodes on [t0, tf].

    Node k sits at ``t0 + k * h`` with ``h = (tf - t0) / steps``; the
    final node therefore matches ``tf`` only up to one rounding unit.
    """

    t0: float
    tf: float
    steps: int

    def __post_init__(self):
        if not (isfinite(self.t0) and isfinite(self.tf)):
            raise ValueError(f"grid requires finite end points, got [{self.t0}, {self.tf}]")
        if not self.tf > self.t0:
            raise ValueError(f"grid requires tf > t0, got [{self.t0}, {self.tf}]")
        object.__setattr__(self, "steps", whole_count("grid steps", self.steps))
        try:
            h = self.h
        except OverflowError:   # an integer step count too large for a float
            raise ValueError("grid step count is too large for a float step") from None
        if not 0.0 < h < inf:
            raise ValueError(f"grid requires a finite positive step, got h={h}")

    @property
    def h(self) -> float:
        return (self.tf - self.t0) / self.steps

    @property
    def node_count(self) -> int:
        return self.steps + 1

    def nodes(self) -> np.ndarray:
        return self.t0 + self.h * np.arange(self.steps + 1)

    def node_values(self, name: str, v) -> np.ndarray:
        """``v`` as a float vector, which must hold one value per node."""
        v = np.asarray(v, dtype=float)
        if v.shape != (self.node_count,):
            raise ValueError(f"{name} must have one value per grid node "
                             f"({self.node_count}), got shape {v.shape}")
        return v


@dataclass
class Trajectory:
    """States on the nodes of a time grid, one row per node."""

    grid: TimeGrid
    states: np.ndarray

    def __post_init__(self):
        self.states = np.asarray(self.states, dtype=float)
        if self.states.ndim != 2 or self.states.shape[0] != self.grid.node_count:
            raise ValueError(
                f"expected {self.grid.node_count} state rows, got shape {self.states.shape}")
        if not np.isfinite(self.states).all():
            raise ValueError("trajectory contains non-finite entries")


@dataclass
class AdaptiveSettings:
    """The error tolerances of ``integrate_dp45``; its step budget is ``MAX_STEPS``."""

    reltol: float = 1e-6
    abstol: float = 1e-9

    def __post_init__(self):
        if not (0 < self.reltol < inf and 0 < self.abstol < inf):
            raise ValueError("tolerances must be positive and finite")


def whole_count(name: str, value) -> int:
    """``value`` as an int of at least 1; not a bool, and a float only if integral."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, Integral) or value < 1:
        raise ValueError(f"{name} must be an integer of at least 1, got {value!r}")
    return int(value)


def four_state(x0) -> np.ndarray:
    """``x0`` as a float vector of four components; any other shape is a ValueError."""
    x = np.asarray(x0, dtype=float)
    if x.shape != (4,):
        raise ValueError(f"initial state must have four components, got shape {x.shape}")
    return x


def step_euler(f: VectorField, t: float, x: Sequence[float], h: float) -> list:
    """One explicit Euler step of a four-component state."""
    x1, x2, x3, x4 = x
    a1, a2, a3, a4 = f(t, x)
    return [x1 + h * a1, x2 + h * a2, x3 + h * a3, x4 + h * a4]


def step_rk2(f: VectorField, t: float, x: Sequence[float], h: float) -> list:
    """One Heun (second-order Runge-Kutta) step of a four-component state."""
    x1, x2, x3, x4 = x
    a1, a2, a3, a4 = f(t, x)
    b1, b2, b3, b4 = f(t + h, [x1 + h * a1, x2 + h * a2, x3 + h * a3, x4 + h * a4])
    h2 = h / 2.0
    return [x1 + h2 * (a1 + b1), x2 + h2 * (a2 + b2),
            x3 + h2 * (a3 + b3), x4 + h2 * (a4 + b4)]


def step_rk4(f: VectorField, t: float, x: Sequence[float], h: float) -> list:
    """One classical four-stage Runge-Kutta step of a four-component state."""
    h2 = h / 2.0
    h6 = h / 6.0
    x1, x2, x3, x4 = x
    a1, a2, a3, a4 = f(t, x)
    b1, b2, b3, b4 = f(t + h2, [x1 + h2 * a1, x2 + h2 * a2, x3 + h2 * a3, x4 + h2 * a4])
    c1, c2, c3, c4 = f(t + h2, [x1 + h2 * b1, x2 + h2 * b2, x3 + h2 * b3, x4 + h2 * b4])
    d1, d2, d3, d4 = f(t + h, [x1 + h * c1, x2 + h * c2, x3 + h * c3, x4 + h * c4])
    return [x1 + h6 * (a1 + 2.0 * (b1 + c1) + d1), x2 + h6 * (a2 + 2.0 * (b2 + c2) + d2),
            x3 + h6 * (a3 + 2.0 * (b3 + c3) + d3), x4 + h6 * (a4 + 2.0 * (b4 + c4) + d4)]


STEPPERS = {"euler": step_euler, "rk2": step_rk2, "rk4": step_rk4}

FIXED_METHODS = tuple(STEPPERS)


def integrate_fixed(method: str, f: VectorField, grid: TimeGrid,
                    x0: Sequence[float]) -> Trajectory:
    """March a fixed-step method across ``grid``; fail at the first non-finite node."""
    try:
        step = STEPPERS[method]
    except KeyError:
        raise ValueError(f"unknown fixed-step method {method!r}") from None
    x = four_state(x0).tolist()
    t0, h = grid.t0, grid.h
    rows = list(x)
    for k in range(grid.steps):
        x = step(f, t0 + k * h, x, h)
        rows += x
    states = np.array(rows, dtype=float).reshape(grid.node_count, 4)
    return march_trajectory(grid, states, f"{method} produced a non-finite state")


def march_trajectory(grid: TimeGrid, rows, failure: str, backward=False) -> Trajectory:
    """The node rows of a fixed-step march on ``grid`` as a Trajectory.

    Each step adds to the previous row, and a non-finite value stays
    non-finite without raising, so one check finds where the march failed:
    ``IntegrationFailure(f"{failure} at node {node}")`` names the first
    non-finite node, or the last one for a backward march, and its time.
    The rows are copied, and the Trajectory's own finiteness check is
    that one check; the node is looked for only once it has failed.
    """
    out = np.array(rows, dtype=float)
    try:
        return Trajectory(grid, out)
    except ValueError:
        bad = np.flatnonzero(~np.isfinite(out).all(axis=1)) if out.ndim == 2 else ()
        if not len(bad):
            raise
    node = int(bad[-1] if backward else bad[0])
    raise IntegrationFailure(f"{failure} at node {node}",
                             node=node, t=grid.t0 + node * grid.h)


def first_step(t0: float, tf: float) -> float:
    """The adaptive integrator's first trial step: one hundredth of the span."""
    return (tf - t0) / 100.0


# Dormand-Prince 5(4) tableau.  The last stage row equals the 5th-order
# weights (FSAL, not exploited: all seven stages are evaluated per step).
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
# The weighted sums over all seven stages stay two BLAS dgemv calls on a
# C-ordered (7, 4) stage array: their summation order reaches the sampled
# states, so a sequential sum would change the output bytes.  ``ndarray.dot``
# reaches the same dgemv as ``@`` at a lower call cost; one stacked (2, 7)
# product would go through gemm.
_DP_B5 = np.array(_DP_A[6] + (0.0,))
# the 21 stage coefficients row by row, so one multiply scales them all by h
_DP_A_FLAT = np.array([v for row in _DP_A for v in row])
# b5 - b4: weights of the embedded local error estimate
_DP_ERR = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920,
                    -17253 / 339200, 22 / 525, -1 / 40])

_SAFETY = 0.9
_SHRINK_LIMIT = 0.2
_GROWTH_LIMIT = 5.0
_ERR_EXPONENT = -0.2  # embedded estimate is O(h^5)
MAX_STEPS = 1_000_000  # trial steps, rejected ones included, before integrate_dp45 fails


def _dp_step(f: VectorField, t: float, x: list, h: float):
    """One trial Dormand-Prince step: next state and the unscaled error sums.

    Each stage input is one sequential sum per component, x first and
    then the stage terms in tableau order (zero entries skipped), written
    out component by component below.  The (7, 4) stage array is built
    from one flat tuple of the unpacked stage values, and the 5th-order
    update is written out from its dgemv sums.
    """
    c = _DP_C
    # numpy rounds each product h * a as Python does, so the stage inputs keep their bits
    (a21, a31, a32, a41, a42, a43, a51, a52, a53, a54, a61, a62, a63, a64, a65,
     a71, _, a73, a74, a75, a76) = (h * _DP_A_FLAT).tolist()
    x1, x2, x3, x4 = x
    p1, p2, p3, p4 = f(t, x)
    q1, q2, q3, q4 = f(t + c[1] * h, [x1 + a21 * p1, x2 + a21 * p2,
                                      x3 + a21 * p3, x4 + a21 * p4])
    r1, r2, r3, r4 = f(t + c[2] * h, [x1 + a31 * p1 + a32 * q1, x2 + a31 * p2 + a32 * q2,
                                      x3 + a31 * p3 + a32 * q3, x4 + a31 * p4 + a32 * q4])
    s1, s2, s3, s4 = f(t + c[3] * h, [x1 + a41 * p1 + a42 * q1 + a43 * r1,
                                      x2 + a41 * p2 + a42 * q2 + a43 * r2,
                                      x3 + a41 * p3 + a42 * q3 + a43 * r3,
                                      x4 + a41 * p4 + a42 * q4 + a43 * r4])
    w1, w2, w3, w4 = f(t + c[4] * h, [x1 + a51 * p1 + a52 * q1 + a53 * r1 + a54 * s1,
                                      x2 + a51 * p2 + a52 * q2 + a53 * r2 + a54 * s2,
                                      x3 + a51 * p3 + a52 * q3 + a53 * r3 + a54 * s3,
                                      x4 + a51 * p4 + a52 * q4 + a53 * r4 + a54 * s4])
    z1, z2, z3, z4 = f(t + c[5] * h,
                       [x1 + a61 * p1 + a62 * q1 + a63 * r1 + a64 * s1 + a65 * w1,
                        x2 + a61 * p2 + a62 * q2 + a63 * r2 + a64 * s2 + a65 * w2,
                        x3 + a61 * p3 + a62 * q3 + a63 * r3 + a64 * s3 + a65 * w3,
                        x4 + a61 * p4 + a62 * q4 + a63 * r4 + a64 * s4 + a65 * w4])
    v1, v2, v3, v4 = f(t + c[6] * h,
                       [x1 + a71 * p1 + a73 * r1 + a74 * s1 + a75 * w1 + a76 * z1,
                        x2 + a71 * p2 + a73 * r2 + a74 * s2 + a75 * w2 + a76 * z2,
                        x3 + a71 * p3 + a73 * r3 + a74 * s3 + a75 * w3 + a76 * z3,
                        x4 + a71 * p4 + a73 * r4 + a74 * s4 + a75 * w4 + a76 * z4])
    k = np.array((p1, p2, p3, p4, q1, q2, q3, q4, r1, r2, r3, r4, s1, s2, s3, s4,
                  w1, w2, w3, w4, z1, z2, z3, z4, v1, v2, v3, v4), dtype=float).reshape(7, 4)
    b1, b2, b3, b4 = _DP_B5.dot(k).tolist()
    x_new = [x1 + h * b1, x2 + h * b2, x3 + h * b3, x4 + h * b4]
    return x_new, _DP_ERR.dot(k).tolist()


def integrate_dp45(f: VectorField, t0: float, tf: float, x0: Sequence[float],
                   settings: AdaptiveSettings, sample: TimeGrid) -> Trajectory:
    """Adaptive 5(4) integration of ``f`` on [t0, tf], sampled on ``sample``.

    Accepts a trial step when every component satisfies
    ``|err| <= abstol + reltol * |x|``.  Sample nodes are hit exactly by
    clipping the step size to the next node (no dense-output
    interpolation), so each accepted step never spans a sample node.
    """
    if sample.t0 < t0 or sample.tf > tf:
        raise ValueError("sample grid must lie within the integration span")
    x = four_state(x0).tolist()
    abstol, reltol = settings.abstol, settings.reltol
    t = t0
    h = first_step(t0, tf)
    targets = sample.nodes().tolist()
    recorded = []
    if targets[0] == t0:
        recorded.append(x)
    attempts = 0
    # a stage that overflows makes the weighted sums in _dp_step warn; x_new is
    # checked below, so the failure is reported once, as IntegrationFailure
    with np.errstate(invalid="ignore", over="ignore"):
        while len(recorded) < len(targets):
            target = targets[len(recorded)]
            clipped = t + h >= target
            h_try = target - t if clipped else h
            attempts += 1
            if attempts > MAX_STEPS:
                raise NumericalFailure(f"exceeded {MAX_STEPS} steps at t={t} "
                                       f"(reached sample {len(recorded)})")
            x_new, err = _dp_step(f, t, x, h_try)
            if not all(map(isfinite, x_new)):
                raise IntegrationFailure(f"non-finite adaptive step at t={t}", t=t)
            # x_new is finite, so every stage is (the 5th-order sum carries a
            # non-finite stage into it, zero weights included), and so is ratio
            ratio = 0.0
            for e, a, b in zip(err, x, x_new):
                a, b = abs(a), abs(b)
                r = abs(h_try * e) / (abstol + reltol * (b if b > a else a))
                if r > ratio:
                    ratio = r
            factor = _GROWTH_LIMIT if ratio == 0.0 else _SAFETY * ratio ** _ERR_EXPONENT
            if factor > _GROWTH_LIMIT:
                factor = _GROWTH_LIMIT
            elif factor < _SHRINK_LIMIT:
                factor = _SHRINK_LIMIT
            if ratio <= 1.0:
                x = x_new
                if clipped:
                    t = target
                    recorded.append(x)
                    # a clipped step must not shrink the controller's proposal
                    grown = h_try * factor
                    if grown > h:
                        h = grown
                else:
                    t = t + h_try
                    h = h_try * factor
            else:
                h = h_try * factor
    return Trajectory(sample, recorded)
