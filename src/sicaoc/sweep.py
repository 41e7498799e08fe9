"""Forward-backward RK4 sweep for Pontryagin two-point boundary problems.

Each iteration integrates the controlled state forward with a classical
RK4 scheme whose stages interpolate the grid-resident control (endpoint
values at stages 1 and 4, the arithmetic mean at stages 2 and 3), then
integrates the costate backward from its zero transversality data with
the same stage interpolation of states and control, and finally relaxes
the control toward the pointwise law (which owns the control bounds) by
a convex combination.  The loop stops once the relative change of all
nine tracked vectors (four states, the control, four costates) falls
below the tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .integrators import IntegrationFailure, TimeGrid, Trajectory, nonfinite_nodes
from .model import (ControlBounds, FloatState, ModelParams, controlled_march,
                    costate_march, midpoints, objective, optimal_control_law)


class SweepNonConvergence(RuntimeError):
    """Iteration budget exhausted; carries the last iterate for inspection."""

    def __init__(self, message: str, result: "SweepResult"):
        super().__init__(message)
        self.result = result


@dataclass
class OcProblem:
    """A control problem in the form the sweep consumes, given by stage fields.

    The system is autonomous, has four state components, and its fields
    work on Python floats: ``state_field(x, u)`` and
    ``adjoint_field(x, lam, u)`` take length-4 state and costate
    sequences and a control value and return a tuple of four floats.
    ``control_law(x, lam)`` takes the ``(n, 4)`` state and costate
    arrays of all n grid nodes and returns an array of the n admissible
    control values; the law owns the control bounds.  There is no
    terminal cost and the end state is free, so the costate always ends
    at zero.

    The sweep calls a problem once per pass, through ``state_march`` and
    ``costate_march``; here they run the RK4 loops over the stage
    fields.  ``MarchProblem`` takes whole passes instead.
    """

    state_field: Callable[[Sequence[float], float], FloatState]
    adjoint_field: Callable[[Sequence[float], Sequence[float], float], FloatState]
    control_law: Callable[[np.ndarray, np.ndarray], np.ndarray]
    x0: np.ndarray

    def __post_init__(self):
        self.x0 = np.asarray(self.x0, dtype=float)
        if self.x0.shape != (4,):
            raise ValueError("initial state must have four components")

    def state_march(self, u: np.ndarray, h: float) -> list:
        """States at every node: RK4 steps of h from x0 under the node controls u."""
        f = self.state_field
        nodes = u.tolist()
        x = self.x0.tolist()
        rows = [x]
        for start, mid, end in zip(nodes, midpoints(u).tolist(), nodes[1:]):
            x = _rk4_step(f, x, h, start, mid, end)
            rows.append(x)
        return rows

    def costate_march(self, states: np.ndarray, u: np.ndarray, h: float) -> list:
        """Costates at every node: RK4 steps of -h from zero at the last node.

        Stage values of the state and control at the half node are the
        arithmetic means of the two neighbouring grid nodes.
        """
        g = self.adjoint_field
        # the step passes the costate first and the (state, control) stage second
        f = lambda lam, stage: g(stage[0], lam, stage[1])
        stages = list(zip(states.tolist(), u.tolist()))
        mids = list(zip(midpoints(states).tolist(), midpoints(u).tolist()))
        lam = [0.0] * 4
        rows = [lam]
        for j in range(len(mids), 0, -1):
            lam = _rk4_step(f, lam, -h, stages[j], mids[j - 1], stages[j - 1])
            rows.append(lam)
        return rows[::-1]


@dataclass
class MarchProblem(OcProblem):
    """An ``OcProblem`` whose fields are whole passes of the sweep.

    ``state_field(x0, u, h)`` and ``adjoint_field(states, u, h)`` take
    the arrays of the initial state, the n node controls and the n node
    states, and return the n rows of ``OcProblem.state_march`` and
    ``OcProblem.costate_march``: the same RK4 steps with the same stage
    inputs, in one call per pass.
    """

    state_field: Callable[[np.ndarray, np.ndarray, float], list]
    adjoint_field: Callable[[np.ndarray, np.ndarray, float], list]

    def state_march(self, u: np.ndarray, h: float) -> list:
        return self.state_field(self.x0, u, h)

    def costate_march(self, states: np.ndarray, u: np.ndarray, h: float) -> list:
        return self.adjoint_field(states, u, h)


def sica_problem(params: ModelParams, bounds: ControlBounds, x0: np.ndarray,
                 adjoint_mode: str = "derived") -> MarchProblem:
    """Wire the HIV prevention problem into the sweep as fused passes."""
    return MarchProblem(
        state_field=controlled_march(params),
        adjoint_field=costate_march(params, adjoint_mode),
        control_law=lambda x, lam: optimal_control_law(params, x, lam, bounds),
        x0=x0,
    )


@dataclass
class SweepSettings:
    grid: TimeGrid = field(default_factory=lambda: TimeGrid(0.0, 20.0, 1000))
    delta_error: float = 1e-3
    relaxation: float = 0.5
    max_iterations: int = 500
    initial_control: np.ndarray | None = None

    def __post_init__(self):
        if not 0.0 < self.delta_error < math.inf:
            raise ValueError("delta_error must be positive and finite")
        if not 0.0 < self.relaxation <= 1.0:
            raise ValueError("relaxation weight must lie in (0, 1]")
        n = self.max_iterations
        if isinstance(n, bool) or not (isinstance(n, int) or float(n).is_integer()) or n < 1:
            raise ValueError("max_iterations must be an integer of at least 1")
        if self.initial_control is not None:
            self.initial_control = np.asarray(self.initial_control, dtype=float)
            if self.initial_control.shape != (self.grid.node_count,):
                raise ValueError("initial control must have one value per grid node")


@dataclass
class SweepResult:
    """Converged (or last) iterate of the sweep.

    ``control`` holds the pointwise control-law evaluation at the final
    state/costate pair, so it satisfies the Hamiltonian maximality
    condition exactly at every node; the relaxed iterate is internal to
    the iteration.  The costate trajectory ends exactly at zero.
    """

    states: Trajectory
    adjoints: Trajectory
    control: np.ndarray
    iterations: int
    converged: bool
    objective: float
    final_margin: float


def _rk4_step(f, y, h: float, start, mid, end) -> FloatState:
    """One classical RK4 step of the four-component y' = f(y, stage).

    ``start``, ``mid`` and ``end`` are the stage inputs at the step's
    start, midpoint and end.  The step h is signed: in IEEE arithmetic
    ``y + (-h / 2.0) * k`` equals ``y - (h / 2.0) * k`` exactly, so the
    costate march takes this step with -h bit for bit.  The stage
    arithmetic is written out per component because a loop over four
    floats costs more than the floating-point work it does.
    """
    y1, y2, y3, y4 = y
    h2 = h / 2.0
    a1, a2, a3, a4 = f(y, start)
    b1, b2, b3, b4 = f((y1 + h2 * a1, y2 + h2 * a2, y3 + h2 * a3, y4 + h2 * a4), mid)
    c1, c2, c3, c4 = f((y1 + h2 * b1, y2 + h2 * b2, y3 + h2 * b3, y4 + h2 * b4), mid)
    d1, d2, d3, d4 = f((y1 + h * c1, y2 + h * c2, y3 + h * c3, y4 + h * c4), end)
    h6 = h / 6.0
    return (y1 + h6 * (a1 + 2.0 * (b1 + c1) + d1),
            y2 + h6 * (a2 + 2.0 * (b2 + c2) + d2),
            y3 + h6 * (a3 + 2.0 * (b3 + c3) + d3),
            y4 + h6 * (a4 + 2.0 * (b4 + c4) + d4))


def forward_pass(prob: OcProblem, u: np.ndarray, grid: TimeGrid) -> Trajectory:
    """Integrate the controlled state forward across the grid."""
    u = np.asarray(u, dtype=float)
    if u.shape != (grid.node_count,):
        raise ValueError("control vector must have one value per grid node")
    out = np.array(prob.state_march(u, grid.h), dtype=float)
    bad = nonfinite_nodes(out)
    if bad.size:
        node = int(bad[0])
        raise IntegrationFailure(
            f"forward pass produced a non-finite state at node {node}",
            node=node, t=grid.t0 + node * grid.h)
    return Trajectory(grid, out)


def backward_pass(prob: OcProblem, x: Trajectory, u: np.ndarray) -> Trajectory:
    """Integrate the costate backward from its zero terminal value (free end point)."""
    u = np.asarray(u, dtype=float)
    grid = x.grid
    if u.shape != (grid.node_count,):
        raise ValueError("control vector must have one value per grid node")
    out = np.array(prob.costate_march(x.states, u, grid.h), dtype=float)
    bad = nonfinite_nodes(out)
    if bad.size:
        node = int(bad[-1])
        raise IntegrationFailure(
            f"backward pass produced a non-finite costate at node {node}",
            node=node, t=grid.t0 + node * grid.h)
    return Trajectory(grid, out)


def update_control(prob: OcProblem, x: Trajectory, lam: Trajectory,
                   u_old: np.ndarray, weight: float) -> np.ndarray:
    """Relaxed control update: weight * clamped law + (1 - weight) * old."""
    u_old = np.asarray(u_old, dtype=float)
    n = x.grid.node_count
    if lam.grid.node_count != n or u_old.shape != (n,):
        raise ValueError("state, costate and control grids must agree")
    law = prob.control_law(x.states, lam.states)
    return weight * law + (1.0 - weight) * u_old


def relative_change_test(tracked: Iterable[tuple[np.ndarray, np.ndarray]],
                         delta: float) -> float:
    """Signed convergence margin, nonnegative once every pair has settled.

    Each pair contributes ``delta * sum|new| - sum|old - new|``; the
    margin is the smallest contribution, and NaN if any contribution is
    NaN, so a NaN never passes for convergence.
    """
    margin = np.inf
    for old, new in tracked:
        old = np.asarray(old, dtype=float)
        new = np.asarray(new, dtype=float)
        if old.shape != new.shape:
            raise ValueError("tracked vector pair has mismatched lengths")
        margin = np.minimum(margin, delta * np.abs(new).sum() - np.abs(old - new).sum())
    return float(margin)


def solve(prob: OcProblem, settings: SweepSettings) -> SweepResult:
    """Run the sweep to convergence and return the extremal.

    Raises SweepNonConvergence with the last iterate attached once the
    iteration budget is exhausted.
    """
    grid = settings.grid
    n = grid.node_count
    if settings.initial_control is not None:
        u = settings.initial_control.copy()
    else:
        u = np.zeros(n)
    # previous-iterate buffers start as the zero arrays the first test runs
    # against, with only the initial state filled in
    states = np.zeros((n, 4))
    states[0] = prob.x0
    adjoints = np.zeros((n, 4))
    x_traj = Trajectory(grid, states)
    lam_traj = Trajectory(grid, adjoints)
    margin = -np.inf
    converged = False
    iterations = 0
    while iterations < settings.max_iterations:
        iterations += 1
        old_states, old_adjoints, old_u = x_traj.states, lam_traj.states, u
        x_traj = forward_pass(prob, u, grid)
        lam_traj = backward_pass(prob, x_traj, u)
        u = update_control(prob, x_traj, lam_traj, u, settings.relaxation)
        pairs = ([(old_states[:, j], x_traj.states[:, j]) for j in range(4)]
                 + [(old_u, u)]
                 + [(old_adjoints[:, j], lam_traj.states[:, j]) for j in range(4)])
        margin = relative_change_test(pairs, settings.delta_error)
        if margin >= 0.0:
            converged = True
            break
    control = prob.control_law(x_traj.states, lam_traj.states)
    result = SweepResult(
        states=x_traj,
        adjoints=lam_traj,
        control=control,
        iterations=iterations,
        converged=converged,
        objective=objective(x_traj, control),
        final_margin=margin,
    )
    if not converged:
        raise SweepNonConvergence(
            f"sweep did not converge within {settings.max_iterations} iterations "
            f"(margin {margin:.3e})", result=result)
    return result
