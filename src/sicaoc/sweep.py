"""Forward-backward RK4 sweep for Pontryagin two-point boundary problems.

Each iteration runs the problem's two passes, one call each: the
forward pass integrates the controlled state with a classical RK4
scheme whose stages interpolate the grid-resident control (endpoint
values at stages 1 and 4, the arithmetic mean at stages 2 and 3), and
the backward pass integrates the costate from its zero transversality
data with the same stage interpolation of states and control.  Each
pass is checked once for non-finite values.  The iteration then relaxes
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
                    costate_march, objective, optimal_control_law)


class SweepNonConvergence(RuntimeError):
    """Iteration budget exhausted; carries the last iterate for inspection."""

    def __init__(self, message: str, result: "SweepResult"):
        super().__init__(message)
        self.result = result


@dataclass
class OcProblem:
    """A control problem in the form the sweep consumes: its two passes and its law.

    The system is autonomous and has four state components.  Each pass
    takes RK4 steps of the grid step h, with the node values at stages 1
    and 4 and their means at stages 2 and 3: ``state_field(x0, u, h)``
    from x0 under the n node controls u, ``adjoint_field(states, u, h)``
    backward from the zero costate at the last node.  Both take numpy
    arrays and return n rows of four floats, finite or not.
    ``control_law(x, lam)`` takes the ``(n, 4)`` state and costate
    arrays and returns the n admissible controls; the law owns the
    control bounds.  There is no terminal cost and the end state is
    free, so the costate always ends at zero.
    """

    state_field: Callable[[np.ndarray, np.ndarray, float], Sequence[FloatState]]
    adjoint_field: Callable[[np.ndarray, np.ndarray, float], Sequence[FloatState]]
    control_law: Callable[[np.ndarray, np.ndarray], np.ndarray]
    x0: np.ndarray

    def __post_init__(self):
        self.x0 = np.asarray(self.x0, dtype=float)
        if self.x0.shape != (4,):
            raise ValueError("initial state must have four components")


def sica_problem(params: ModelParams, bounds: ControlBounds, x0: np.ndarray,
                 adjoint_mode: str = "derived") -> OcProblem:
    """Wire the HIV prevention problem into the sweep: the model's marches and law."""
    return OcProblem(
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
            if not np.isfinite(self.initial_control).all():
                raise ValueError("initial control must be finite")


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


def forward_pass(prob: OcProblem, u: np.ndarray, grid: TimeGrid) -> Trajectory:
    """Integrate the controlled state forward across the grid."""
    u = np.asarray(u, dtype=float)
    if u.shape != (grid.node_count,):
        raise ValueError("control vector must have one value per grid node")
    # the callables are read off the problem at each call, so a profiler may
    # replace them by name, as perfbench's Tracer.wrap_problem does
    out = np.array(prob.state_field(prob.x0, u, grid.h), dtype=float)
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
    out = np.array(prob.adjoint_field(x.states, u, grid.h), dtype=float)
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
