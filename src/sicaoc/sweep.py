"""Forward-backward RK4 sweep for Pontryagin two-point boundary problems.

Each iteration runs the problem's two passes, one call each: the
forward pass integrates the controlled state with a classical RK4
scheme whose stages interpolate the grid-resident control (endpoint
values at stages 1 and 4, the arithmetic mean at stages 2 and 3), and
the backward pass integrates the costate from its zero transversality
data with the same stage interpolation of states and control.  Each
pass is checked once for non-finite values.  The iteration then relaxes
the control toward the pointwise law (which owns the control bounds) by
a convex combination.  ``solve`` counts these iterations up to the
budget and stops once the relative change of all nine tracked vectors
(four state columns, the control, four costate columns) against the
previous iterate falls below the tolerance.  The nine are the rows of
one C-ordered ``(9, n)`` stack, which ``relative_change_test`` reduces
row by row.  The sweep starts from the zero control, so the first
test's previous stack is zero apart from the initial state at node 0;
every later one is the last iteration's stack.  The first forward
pass, the uncontrolled run, is kept on the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .integrators import (NumericalFailure, TimeGrid, Trajectory, four_state,
                          march_trajectory, whole_count)
from .model import (ControlBounds, ModelParams, controlled_march, costate_march,
                    objective, optimal_control_law)


class SweepNonConvergence(NumericalFailure):
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
    arrays and return the ``(n, 4)`` array of node rows, finite or not
    (``march_trajectory`` also takes any array-like of n rows of four).
    ``control_law(x, lam)`` takes the ``(n, 4)`` state and costate
    arrays and returns the n admissible controls; the law owns the
    control bounds.  There is no terminal cost and the end state is
    free, so the costate always ends at zero.
    """

    state_field: Callable[[np.ndarray, np.ndarray, float], np.ndarray]
    adjoint_field: Callable[[np.ndarray, np.ndarray, float], np.ndarray]
    control_law: Callable[[np.ndarray, np.ndarray], np.ndarray]
    x0: np.ndarray

    def __post_init__(self):
        self.x0 = four_state(self.x0)


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

    def __post_init__(self):
        # at 1 or above the first test passes on no information: its previous
        # stack is all but zero, so no row's change can exceed its size
        if not 0.0 < self.delta_error < 1.0:
            raise ValueError("delta_error must lie in (0, 1)")
        if not 0.0 < self.relaxation <= 1.0:
            raise ValueError("relaxation weight must lie in (0, 1]")
        self.max_iterations = whole_count("max_iterations", self.max_iterations)


@dataclass
class SweepResult:
    """Converged (or last) iterate of the sweep.

    ``control`` holds the pointwise control-law evaluation at the final
    state/costate pair, so it satisfies the Hamiltonian maximality
    condition exactly at every node; the relaxed iterate is internal to
    the iteration.  The costate trajectory ends exactly at zero.
    ``initial_states`` is the first forward pass: the uncontrolled run.
    """

    states: Trajectory
    adjoints: Trajectory
    initial_states: Trajectory
    control: np.ndarray
    iterations: int
    converged: bool
    objective: float
    final_margin: float


def forward_pass(prob: OcProblem, u: np.ndarray, grid: TimeGrid) -> Trajectory:
    """Integrate the controlled state forward across the grid."""
    u = grid.node_values("control", u)
    # the callables are read off the problem at each call, so a profiler may
    # replace them by name, as perfbench's Tracer.wrap_problem does
    return march_trajectory(grid, prob.state_field(prob.x0, u, grid.h),
                            "forward pass produced a non-finite state")


def backward_pass(prob: OcProblem, x: Trajectory, u: np.ndarray) -> Trajectory:
    """Integrate the costate backward from its zero terminal value (free end point)."""
    grid = x.grid
    u = grid.node_values("control", u)
    return march_trajectory(grid, prob.adjoint_field(x.states, u, grid.h),
                            "backward pass produced a non-finite costate", backward=True)


def update_control(prob: OcProblem, x: Trajectory, lam: Trajectory,
                   u_old: np.ndarray, weight: float) -> np.ndarray:
    """Relaxed control update: weight * clamped law + (1 - weight) * old."""
    u_old = x.grid.node_values("control", u_old)
    if lam.grid != x.grid:
        raise ValueError("state and costate grids must agree")
    law = prob.control_law(x.states, lam.states)
    return weight * law + (1.0 - weight) * u_old


def relative_change_test(old: np.ndarray, new: np.ndarray, delta: float) -> float:
    """Signed convergence margin of two ``(k, n)`` stacks, nonnegative once all rows settle.

    Row j contributes ``delta * sum|new[j]| - sum|old[j] - new[j]|``; the
    margin is the smallest contribution, or NaN of unspecified sign bit
    (numpy's min picks it) if any is NaN, so a NaN never passes for
    convergence.  C-ordered stacks, copied if not, give each row the bits
    of a vector of its own.  Empty or mismatched stacks raise ``ValueError``.
    """
    old = np.ascontiguousarray(old, dtype=float)
    new = np.ascontiguousarray(new, dtype=float)
    if old.shape != new.shape or old.ndim != 2 or not old.size:
        raise ValueError("tracked stacks must be two (k, n) arrays of one shape with "
                         f"k, n >= 1, got shapes {old.shape} and {new.shape}")
    return float((delta * np.abs(new).sum(axis=1) - np.abs(old - new).sum(axis=1)).min())


def solve(prob: OcProblem, settings: SweepSettings) -> SweepResult:
    """Run the sweep to convergence and return the extremal.

    Raises SweepNonConvergence with the last iterate attached once the
    iteration budget is exhausted.
    """
    grid = settings.grid
    n = grid.node_count
    u = np.zeros(n)
    old = np.zeros((9, n))
    old[:4, 0] = prob.x0
    # whole_count makes the budget at least 1, so the loop binds every name it sets
    for iterations in range(1, settings.max_iterations + 1):
        x_traj = forward_pass(prob, u, grid)
        if iterations == 1:
            initial_states = x_traj
        lam_traj = backward_pass(prob, x_traj, u)
        u = update_control(prob, x_traj, lam_traj, u, settings.relaxation)
        new = np.empty((9, n))
        new[:4], new[4], new[5:] = x_traj.states.T, u, lam_traj.states.T
        margin = relative_change_test(old, new, settings.delta_error)
        converged = margin >= 0.0
        if converged:
            break
        old = new
    control = prob.control_law(x_traj.states, lam_traj.states)
    result = SweepResult(states=x_traj, adjoints=lam_traj, initial_states=initial_states,
                         control=control, iterations=iterations, converged=converged,
                         objective=objective(x_traj, control), final_margin=margin)
    if not converged:
        raise SweepNonConvergence(
            f"sweep did not converge within {settings.max_iterations} iterations "
            f"(margin {margin:.3e})", result=result)
    return result
