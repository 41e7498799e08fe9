"""SICA HIV/AIDS model simulation and optimal-control toolkit."""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .integrators import (AdaptiveSettings, IntegrationFailure,
                          NumericalFailure, TimeGrid, Trajectory,
                          integrate_dp45, integrate_fixed, step_euler,
                          step_rk2, step_rk4)
from .model import (ControlBounds, ModelParams, adjoint_rhs, hamiltonian,
                    objective, optimal_control_law, rhs_absolute, running_cost)
from .sweep import (OcProblem, SweepNonConvergence, SweepResult, SweepSettings,
                    backward_pass, forward_pass, relative_change_test,
                    sica_problem, solve, update_control)
from .analysis import (NormTriple, OrderStudy, build_norm_table,
                       convergence_order, diff_norms, refinement_grids, simplex_drift,
                       stationarity_residual)

__all__ = [name for name, value in list(globals().items())
           if not (name.startswith("_") or isinstance(value, _ModuleType))]
