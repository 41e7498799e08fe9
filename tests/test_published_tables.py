"""What the published ode45 norm tables measure.

The paper's tables compare Euler, RK2 and RK4 at 100 steps on [0, 20]
with GNU Octave's ``ode45`` sampled at the grid nodes.  ``compare``
measures against a Dormand-Prince run that clips its steps to the nodes
and is accurate to about 1e-11; against it the published RK4 row is 2
to 50 times the computed one, which is acceptance criterion 3's strict
xfail.

Here the reference is a dense-output Dormand-Prince 5(4), scipy's
``solve_ivp(method="RK45")`` evaluated at the nodes through its
continuous extension, as Octave's ``ode45`` is when given output times.
At a loose ``rtol`` of 2e-4 it reproduces all three published rows; at
1e-6 the RK4 row falls far below the published one.  So the published
RK4 row mostly measures the reference's own error.  The tests claim
only "a dense-output DP45 at rtol 2e-4", not Octave's exact settings.
"""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from sicaoc import ModelParams, TimeGrid, Trajectory
from sicaoc.analysis import OCTAVE_ODE45_BASELINE, VARIABLES, build_norm_table
from sicaoc.model import controlled_field

X0 = np.array([0.6, 0.2, 0.1, 0.1])
GRID = TimeGrid(0.0, 20.0, 100)
ATOL = 1e-6


def ratios(method, rtol):
    """Computed / published over the 12 entries of ``method``'s row."""
    params = ModelParams()
    sol = solve_ivp(controlled_field(params), (GRID.t0, GRID.tf), X0, method="RK45",
                    t_eval=GRID.nodes(), rtol=rtol, atol=ATOL)
    assert sol.success, sol.message
    computed = build_norm_table(method, params, X0, Trajectory(GRID, sol.y.T))
    return [got / published
            for var in VARIABLES
            for got, published in zip(computed[var], OCTAVE_ODE45_BASELINE[method][var])]


@pytest.mark.parametrize("method", ["euler", "rk2"])
def test_low_order_rows_within_two_percent(method):
    assert all(abs(r - 1.0) <= 0.02 for r in ratios(method, 2e-4))


def test_rk4_row_within_the_factor_5_band():
    assert all(0.2 <= r <= 5.0 for r in ratios("rk4", 2e-4))


def test_rk4_row_falls_below_the_published_one_at_a_tight_tolerance():
    assert max(ratios("rk4", 1e-6)) < 0.6
