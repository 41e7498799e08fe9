"""Error-norm tables, convergence-order studies and solver diagnostics."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .integrators import (AdaptiveSettings, NumericalFailure, TimeGrid, Trajectory,
                          integrate_dp45, integrate_fixed)
from .model import ControlBounds, ModelParams, controlled_field, hamiltonian
from .sweep import SweepResult

VARIABLES = ("S", "I", "C", "A")

# Norms 1, 2 and infinity of the per-variable difference between GNU
# Octave's ode45 output and each fixed-step method, as published for the
# default scenario: default parameters, start (0.6, 0.2, 0.1, 0.1),
# 100 steps on [0, 20].  The fourth-order row mostly reflects the
# baseline solver's own sampling error rather than method error.
OCTAVE_ODE45_BASELINE = {
    "euler": {
        "S": (0.4495660, 0.0659270, 0.0161175),
        "I": (0.1646710, 0.0301720, 0.0113068),
        "C": (0.5255950, 0.0783920, 0.0190621),
        "A": (0.0443340, 0.0101360, 0.0041673),
    },
    "rk2": {
        "S": (0.0106530, 0.0014868, 0.0003341),
        "I": (0.0105505, 0.0025288, 0.0009613),
        "C": (0.0151705, 0.0022508, 0.0006695),
        "A": (0.0044304, 0.0011695, 0.0004678),
    },
    "rk4": {
        "S": (0.0003193, 0.0000409, 0.0000107),
        "I": (0.0002733, 0.0000395, 0.0000140),
        "C": (0.0004841, 0.0000674, 0.0000186),
        "A": (0.0000579, 0.0000098, 0.0000042),
    },
}

ORDER_BANDS = {"euler": (0.9, 1.1), "rk2": (1.8, 2.2), "rk4": (3.5, 4.5)}
# grid sizes of the default order study
REFINEMENTS = (100, 200, 400, 800)

# error control of the tight adaptive run that order studies measure against
TIGHT_REFERENCE = AdaptiveSettings(reltol=1e-12, abstol=1e-14)

# step of the central difference in u that stationarity_residual takes
FD_STEP = 1e-6


@dataclass(frozen=True)
class NormTriple:
    """Vector norms 1, 2 and infinity of one difference vector."""

    n1: float
    n2: float
    ninf: float

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.n1, self.n2, self.ninf)


@dataclass
class NormTable:
    per_variable: dict[str, NormTriple]


@dataclass
class OrderStudy:
    refinements: tuple[int, ...]
    step_sizes: tuple[float, ...]
    terminal_errors: tuple[float, ...]      # max over components at tf
    slope: float                            # least-squares fit on the above


def diff_norms(x: np.ndarray, y: np.ndarray) -> NormTriple:
    """Norms of x - y over the grid nodes of one variable."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError(f"length mismatch: {x.shape} vs {y.shape}")
    # a norm past the float range is inf, without a numpy warning on stderr
    with np.errstate(over="ignore"):
        d = x - y
        return NormTriple(float(np.abs(d).sum()),
                          float(math.sqrt(float((d * d).sum()))),
                          float(np.abs(d).max()))


def reference_trajectory(params: ModelParams, x0: np.ndarray, grid: TimeGrid,
                         settings: AdaptiveSettings | None = None) -> Trajectory:
    """Adaptive 5(4) run of the fraction dynamics sampled on ``grid``."""
    settings = settings or AdaptiveSettings()
    return integrate_dp45(controlled_field(params), grid.t0, grid.tf, x0, settings, grid)


def terminal_reference(params: ModelParams, x0: np.ndarray, t0: float = 0.0,
                       tf: float = 20.0) -> np.ndarray:
    """State at tf of a ``TIGHT_REFERENCE`` adaptive run, the order studies' truth."""
    return reference_trajectory(params, x0, TimeGrid(t0, tf, 1), TIGHT_REFERENCE).states[-1]


def build_norm_table(method: str, params: ModelParams, x0: np.ndarray,
                     reference: Trajectory) -> NormTable:
    """Per-variable difference norms of one fixed-step method vs ``reference``.

    The method runs on the reference's grid (see ``reference_trajectory``).
    Norms run over all grid nodes including t0, where the difference is
    zero by construction.
    """
    traj = integrate_fixed(method, controlled_field(params), reference.grid, x0)
    per_var = {
        var: diff_norms(traj.states[:, k], reference.states[:, k])
        for k, var in enumerate(VARIABLES)
    }
    return NormTable(per_variable=per_var)


def refinement_grids(refinements: Sequence[int], t0: float, tf: float) -> list[TimeGrid]:
    """The order-study grids on [t0, tf]: at least 3, of distinct integer step counts."""
    grids = [TimeGrid(t0, tf, m) for m in refinements]
    steps = [grid.steps for grid in grids]
    if len(steps) < 3 or len(set(steps)) != len(steps):
        raise ValueError(f"refinements must be at least 3 distinct step counts, got {steps}")
    return grids


def convergence_order(method: str, params: ModelParams, x0: np.ndarray,
                      refinements: Sequence[int] = REFINEMENTS,
                      t0: float = 0.0, tf: float = 20.0,
                      reference: np.ndarray | None = None) -> OrderStudy:
    """Empirical order from terminal errors against a tight adaptive run.

    ``reference`` is that run's state at tf (see ``terminal_reference``);
    pass it to share one reference between several methods.  Raises
    ``NumericalFailure`` when a terminal error is exactly zero, as at an
    equilibrium, because the fit is on log-errors.
    """
    grids = refinement_grids(refinements, t0, tf)
    f = controlled_field(params)
    if reference is None:
        reference = terminal_reference(params, x0, t0, tf)
    errs = []
    for grid in grids:
        end = integrate_fixed(method, f, grid, x0).states[-1]
        err = float(np.abs(end - reference).max())
        if err == 0.0:
            raise NumericalFailure(f"{method} terminal error is exactly 0 at "
                                   f"M={grid.steps}, so no order can be fitted")
        errs.append(err)
    hs = [grid.h for grid in grids]
    slope = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
    return OrderStudy(refinements=tuple(grid.steps for grid in grids),
                      step_sizes=tuple(hs), terminal_errors=tuple(errs), slope=slope)


def simplex_drift(traj: Trajectory) -> float:
    """Largest deviation of s+i+c+a from one over the trajectory nodes."""
    return float(np.abs(traj.states.sum(axis=1) - 1.0).max())


def stationarity_residual(result: SweepResult, p: ModelParams,
                          bounds: ControlBounds) -> float | None:
    """Largest |dH/du| at nodes where the control is strictly inside ``bounds``.

    ``bounds`` are the ones the solved problem's control law clamps to.
    Central finite difference of the Hamiltonian in u.  Returns None
    when the control touches a bound at every node.
    """
    u = result.control
    inside = (0.0 < u) & (u < bounds.u_max)
    if not inside.any():
        return None
    u, x, lam = u[inside], result.states.states[inside], result.adjoints.states[inside]
    grad = (hamiltonian(p, x, lam, u + FD_STEP)
            - hamiltonian(p, x, lam, u - FD_STEP)) / (2.0 * FD_STEP)
    return float(np.abs(grad).max())
