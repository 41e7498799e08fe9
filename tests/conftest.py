import time

import numpy as np
import pytest
from hypothesis import settings

from sicaoc import (AdaptiveSettings, ControlBounds, ModelParams, SweepSettings,
                    TimeGrid)
from sicaoc.analysis import reference_trajectory
from sicaoc.sweep import sica_problem, solve

X0 = np.array([0.6, 0.2, 0.1, 0.1])

# every property draws the same examples on every run and host, keeps no
# example database and has no per-example deadline; each sets its own count
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def params():
    return ModelParams()


@pytest.fixture(scope="session")
def x0():
    return X0.copy()


@pytest.fixture(scope="session")
def reference_101(params):
    """Adaptive reference for the default scenario on the 101-node grid."""
    return reference_trajectory(params, X0, TimeGrid(0.0, 20.0, 100),
                                AdaptiveSettings())


@pytest.fixture(scope="session")
def default_sweep(params):
    """Converged default sweep plus its wall time and the zero-control run."""
    problem = sica_problem(params, ControlBounds(0.5), X0)
    settings = SweepSettings()
    start = time.perf_counter()
    result = solve(problem, settings)
    elapsed = time.perf_counter() - start
    return {"problem": problem, "result": result, "elapsed": elapsed,
            "uncontrolled": result.initial_states, "settings": settings}
