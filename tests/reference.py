"""The numpy reference of the SICA model that the bitwise tests share.

The fraction field as first written, a length-4 numpy array per call,
the sweep's convergence margin as a per-pair fold, and the random rate
sets the bitwise tests draw.  The package's float kernels must give
these bits exactly, and ``assert_same_bits`` is the one check of that
claim: equal float64 bytes, so the sign of every zero and every NaN
payload counts.  Each test module keeps the references only it uses.
pytest does not collect this module; the tests import it by name.
"""

import numpy as np

from sicaoc import ModelParams


def assert_same_bits(got, want):
    """Assert that ``got`` and ``want`` are the same float64 array, byte for byte.

    ``np.array_equal`` counts ``-0.0 == 0.0`` and fails NaN against NaN;
    equal bytes count the sign of a zero and the payload of a NaN.
    """
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape, (got.shape, want.shape)
    assert got.tobytes() == want.tobytes(), (got, want)


def ref_rhs(p, x, u=0.0):
    """The fraction field under prevention u, every rate sum formed at each call.

    ``x`` is one state, or ``(4, n)`` node rows with one u or one per node.
    At u = 0 it is the uncontrolled field, bit for bit, since
    ``(1.0 - 0.0) * beta == beta``.
    """
    s, i, c, a = x
    aux1 = (1.0 - u) * p.beta * (i + p.eta_c * c + p.eta_a * a) * s
    aux2 = p.d * a
    return np.array([
        p.b * (1.0 - s) - aux1 + aux2 * s,
        aux1 - (p.rho + p.phi + p.b - aux2) * i + p.alpha * a + p.omega * c,
        p.phi * i - (p.omega + p.b - aux2) * c,
        p.rho * i - (p.alpha + p.b + p.d - aux2) * a,
    ])


def fold_margin(old_columns, new_columns, delta):
    """Reference margin: a per-pair ``np.minimum`` fold, one vector pair at a time.

    Each pair is one column of two ``(n, k)`` node arrays, a strided
    view as a state or costate column of a pass is.
    """
    margin = np.inf
    for old, new in zip(old_columns, new_columns):
        margin = np.minimum(margin, delta * np.abs(new).sum() - np.abs(old - new).sum())
    return float(margin)


def draw_params(rng):
    """Random rates: at the default ones, phi = d = 1.0 hides a regrouped product."""
    return ModelParams(mu=rng.uniform(0.005, 0.05), beta=rng.uniform(0.1, 3.0),
                       eta_c=rng.uniform(0.001, 1.0), eta_a=rng.uniform(1.0, 2.0),
                       phi=rng.uniform(0.1, 2.0), rho=rng.uniform(0.01, 1.0),
                       alpha=rng.uniform(0.05, 1.0), omega=rng.uniform(0.01, 1.0),
                       d=rng.uniform(0.1, 2.0))
