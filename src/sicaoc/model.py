"""SICA HIV/AIDS transmission model and its optimal-control ingredients.

The model splits a population into susceptible (S), HIV-infected
pre-AIDS (I), chronic under-treatment (C) and AIDS-symptomatic (A)
compartments.  This module holds the epidemiological parameter record,
the dynamics in absolute counts and in population fractions, the
controlled dynamics with a prevention effort u, the running cost and
objective of the control problem, the Hamiltonian, the costate
(adjoint) dynamics and the pointwise optimal-control law.

State vectors are length-4 sequences ordered ``(s, i, c, a)`` for
fractions, ``(S, I, C, A)`` for absolute counts and
``(lambda1, ..., lambda4)`` for costates.  The public point functions
take and return numpy arrays over two float kernels: ``controlled_field``,
the integrators' field, and ``_costate_terms``.  ``controlled_march`` and
``costate_march`` are the sweep's forward and backward passes, each
feeding one stage body, ``_forward_body`` or ``_backward_body``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from .integrators import Trajectory

ADJOINT_MODES = ("derived", "verbatim")


@dataclass(frozen=True)
class ModelParams:
    """Epidemiological rates, all per year except the dimensionless etas.

    ``b=None`` resolves to the default recruitment rate 2.1 * mu.
    """

    mu: float = 1.0 / 69.54     # natural death rate
    b: float | None = None      # recruitment rate
    beta: float = 1.6           # HIV transmission rate
    eta_c: float = 0.015        # infectiousness modification, chronic class
    eta_a: float = 1.3          # infectiousness modification, AIDS class
    phi: float = 1.0            # treatment rate for I
    rho: float = 0.1            # treatment default rate for I
    alpha: float = 0.33         # AIDS treatment rate
    omega: float = 0.09         # treatment default rate for C
    d: float = 1.0              # AIDS-induced death rate

    def __post_init__(self):
        if self.b is None:
            object.__setattr__(self, "b", 2.1 * self.mu)
        for field in fields(self):
            if not 0 < getattr(self, field.name) < math.inf:
                raise ValueError(f"parameter {field.name} must be positive and finite")
        if self.eta_c > 1.0:
            raise ValueError("eta_c must be <= 1 (treated class is less infectious)")
        if self.eta_a < 1.0:
            raise ValueError("eta_a must be >= 1 (AIDS class is more infectious)")


@dataclass(frozen=True)
class ControlBounds:
    """Admissible prevention efforts, 0 <= u <= u_max with u_max < 1.

    u_max = 0 is allowed as the degenerate no-control instance.
    """

    u_max: float = 0.5

    def __post_init__(self):
        if not 0.0 <= self.u_max < 1.0:
            raise ValueError(f"u_max must lie in [0, 1), got {self.u_max}")

    def clamp(self, u: float | np.ndarray):
        """Project u (a number or an array) onto [0, u_max].

        The argument order keeps the sign of zero that the builtins give
        ``min(max(0.0, u), u_max)``: numpy returns the second argument
        on a tie, and ``np.clip`` would keep a ``-0.0`` stationary point.
        """
        return np.minimum(self.u_max, np.maximum(u, 0.0))


def rhs_absolute(p: ModelParams, x: np.ndarray) -> np.ndarray:
    """Time derivative of the absolute state (S, I, C, A)."""
    S, I, C, A = x
    N = S + I + C + A
    if N <= 0.0:
        raise ValueError(f"total population must be positive, got {N}")
    lam = (p.beta / N) * (I + p.eta_c * C + p.eta_a * A)   # force of infection
    return np.array([
        p.b * N - lam * S - p.mu * S,
        lam * S - (p.rho + p.phi + p.mu) * I + p.alpha * A + p.omega * C,
        p.phi * I - (p.omega + p.mu) * C,
        p.rho * I - (p.alpha + p.mu + p.d) * A,
    ])


def controlled_field(p: ModelParams) -> Callable[..., tuple[float, ...]]:
    """Float kernel ``(t, x, u=0.0) -> x'`` of the fraction dynamics with prevention u.

    Called as ``f(t, x)`` it is the uncontrolled field the integrators
    take, bit for bit, since ``1.0 - 0.0 == 1.0``; the dynamics are
    autonomous, so t is unused.  The effort u scales the infection term
    and may be any real number, since the Hamiltonian evaluates the
    dynamics off the admissible set.  The parameters and the three
    constant rate sums are read once, as ``_forward_body`` reads them,
    so each call does float arithmetic only: Python evaluates
    ``rho + phi + b - aux2`` left to right, so ``rpb - aux2`` gives its
    bits.  On the simplex s+i+c+a = 1 the four components sum to zero,
    so the dynamics preserve it.

    The field carries one attribute, ``rk4_march(x0, grid)``: the node
    rows of ``controlled_march`` at zero control on ``grid`` from the four
    floats x0, as one flat list.  ``integrate_fixed`` runs it in place of
    ``step_rk4``, bit for bit the same states (``simulate --method rk4``,
    ``compare`` and ``orders`` take it); a wrapper around the field lacks
    it, so a wrapped field steps as before.
    """
    b, beta, eta_c, eta_a = p.b, p.beta, p.eta_c, p.eta_a
    phi, rho, alpha, omega, d = p.phi, p.rho, p.alpha, p.omega, p.d
    rpb, ob, abd = rho + phi + b, omega + b, alpha + b + d

    def field(t, x, u=0.0):
        s, i, c, a = x
        aux1 = (1.0 - u) * beta * (i + eta_c * c + eta_a * a) * s
        aux2 = d * a
        return (b * (1.0 - s) - aux1 + aux2 * s,
                aux1 - (rpb - aux2) * i + alpha * a + omega * c,
                phi * i - (ob - aux2) * c,
                rho * i - (abd - aux2) * a)

    def rk4_march(x0, grid):
        # controlled_march at u = 0: every stage rate (1.0 - 0.0) * beta is beta
        rates = [beta] * grid.node_count
        return _forward_body(*x0, rates, rates, grid.h, p)

    field.rk4_march = rk4_march
    return field


def running_cost(x: np.ndarray, u: float | np.ndarray) -> float | np.ndarray:
    """Integrand s - i - u^2 of the maximized objective; one value per node of stacks."""
    return x[..., 0] - x[..., 1] - u * u


def objective(traj: Trajectory, u: np.ndarray) -> float:
    """Composite-trapezoid value of the running cost along a trajectory."""
    u = traj.grid.node_values("control", u)
    return float(np.trapezoid(running_cost(traj.states, u), dx=traj.grid.h))


def hamiltonian(p: ModelParams, x: np.ndarray, lam: np.ndarray,
                u: float | np.ndarray) -> float | np.ndarray:
    """Running cost plus inner product of the costate with the dynamics.

    Defined for any real u; the quadratic cost makes it strictly concave
    in the control.  Like ``optimal_control_law`` it takes one point or
    ``(n, 4)`` stacks, with one u or one per node; ``np.vecdot`` runs
    ``np.dot``'s loop, so each node gets the bits of its own call.
    """
    x = np.asarray(x, dtype=float)
    rhs = np.stack(controlled_field(p)(0.0, x.T, u), axis=-1)
    return running_cost(x, u) + np.vecdot(lam, rhs)


def _costate_terms(p: ModelParams, mode: str):
    """The (x, u)-only terms of the costate field, ``terms(s, i, c, a, u)``.

    Returns the eleven terms the field multiplies the costate by, in the
    order ``adjoint_rhs`` reads them; ``c`` is one of them, for the
    ``l3 * d * c`` product.  The arithmetic is elementwise, so Python
    floats and float64 arrays of nodes give the same bits.
    """
    if mode not in ADJOINT_MODES:
        raise ValueError(f"unknown adjoint mode {mode!r}")
    verbatim = mode == "verbatim"
    b, beta, eta_c, eta_a = p.b, p.beta, p.eta_c, p.eta_a
    phi, rho, alpha, omega, d = p.phi, p.rho, p.alpha, p.omega, p.d
    rpb, abd = rho + phi + b, alpha + b + d

    def terms(s, i, c, a, u):
        ucb = (1.0 - u) * beta
        forc = ucb * (i + eta_c * c + eta_a * a)
        da = d * a
        g = ucb * s
        gc = ucb * eta_c * s
        ga = ucb * eta_a * s
        ds = d * s if verbatim else -(d * s)
        return (b + forc - da, forc,
                g, g - rpb + da,
                gc, gc + omega, omega + b - da,
                ga + ds, ga + alpha + d * i, c, abd - 2.0 * da)
    return terms


def adjoint_rhs(p: ModelParams, x: np.ndarray, lam: np.ndarray, u: float,
                mode: str = "derived") -> np.ndarray:
    """Time derivative of the costate vector, linear in lam over ``_costate_terms``.

    mode "derived" is the analytic negative Hamiltonian gradient,
    lambda' = -dH/dx, and is the default.  mode "verbatim" reproduces
    the reference GNU Octave routine for this problem, which carries the
    opposite sign on the d*s coupling inside the lambda1 factor of the
    fourth equation; it fails a finite-difference gradient check there
    and exists for comparison runs only.
    """
    k11, k12, k21, k22, k31, k32, k33, k41, k42, c, k44 = _costate_terms(p, mode)(
        *map(float, x), float(u))
    l1, l2, l3, l4 = map(float, lam)
    return np.array([-1.0 + l1 * k11 - l2 * k12,
                     1.0 + l1 * k21 - l2 * k22 - l3 * p.phi - l4 * p.rho,
                     l1 * k31 - l2 * k32 + l3 * k33,
                     l1 * k41 - l2 * k42 - l3 * p.d * c + l4 * k44])


def _forward_body(x1, x2, x3, x4, nodes, mids, h, p):
    """RK4 steps of h from ``(x1, x2, x3, x4)``; the flat list of node rows.

    ``nodes`` and ``mids`` are the rates ``(1 - u) * beta`` at the nodes and
    midpoints: a step's start node at stage 1, its midpoint at stages 2 and
    3, its end node at stage 4 (inside the update).  Written for Python
    floats, it runs unchanged on ``(B,)`` components and ``(n, B)`` rates, each
    column with its scalar march's bits: float64 arithmetic rounds as Python's.
    """
    b, eta_c, eta_a = p.b, p.eta_c, p.eta_a
    phi, rho, alpha, omega, d = p.phi, p.rho, p.alpha, p.omega, p.d
    rpb, ob, abd = rho + phi + b, omega + b, alpha + b + d
    h2, h6 = h / 2.0, h / 6.0
    rows = [x1, x2, x3, x4]
    for start, mid, end in zip(nodes, mids, nodes[1:]):
        aux1 = start * (x2 + eta_c * x3 + eta_a * x4) * x1
        aux2 = d * x4
        a1 = b * (1.0 - x1) - aux1 + aux2 * x1
        a2 = aux1 - (rpb - aux2) * x2 + alpha * x4 + omega * x3
        a3 = phi * x2 - (ob - aux2) * x3
        a4 = rho * x2 - (abd - aux2) * x4
        s = x1 + h2 * a1
        i = x2 + h2 * a2
        c = x3 + h2 * a3
        a = x4 + h2 * a4
        aux1 = mid * (i + eta_c * c + eta_a * a) * s
        aux2 = d * a
        b1 = b * (1.0 - s) - aux1 + aux2 * s
        b2 = aux1 - (rpb - aux2) * i + alpha * a + omega * c
        b3 = phi * i - (ob - aux2) * c
        b4 = rho * i - (abd - aux2) * a
        s = x1 + h2 * b1
        i = x2 + h2 * b2
        c = x3 + h2 * b3
        a = x4 + h2 * b4
        aux1 = mid * (i + eta_c * c + eta_a * a) * s
        aux2 = d * a
        c1 = b * (1.0 - s) - aux1 + aux2 * s
        c2 = aux1 - (rpb - aux2) * i + alpha * a + omega * c
        c3 = phi * i - (ob - aux2) * c
        c4 = rho * i - (abd - aux2) * a
        s = x1 + h * c1
        i = x2 + h * c2
        c = x3 + h * c3
        a = x4 + h * c4
        aux1 = end * (i + eta_c * c + eta_a * a) * s
        aux2 = d * a
        x1 = x1 + h6 * (a1 + 2.0 * (b1 + c1) + (b * (1.0 - s) - aux1 + aux2 * s))
        x2 = x2 + h6 * (a2 + 2.0 * (b2 + c2)
                        + (aux1 - (rpb - aux2) * i + alpha * a + omega * c))
        x3 = x3 + h6 * (a3 + 2.0 * (b3 + c3) + (phi * i - (ob - aux2) * c))
        x4 = x4 + h6 * (a4 + 2.0 * (b4 + c4) + (rho * i - (abd - aux2) * a))
        rows += (x1, x2, x3, x4)
    return rows


def controlled_march(p: ModelParams) -> Callable[[np.ndarray, np.ndarray, float], np.ndarray]:
    """The sweep's forward pass as one kernel ``(x0, u, h) -> states``.

    Takes RK4 steps of h from x0 under the node controls u, each step
    with the stage controls of the sweep (endpoint values at stages 1
    and 4, their mean at stages 2 and 3), and returns the ``(n, 4)``
    array of node states, finite or not: ``_forward_body`` on Python
    floats, bit for bit an RK4 loop calling ``controlled_field`` per stage.
    """
    def march(x0, u, h):
        with np.errstate(over="ignore", invalid="ignore"):
            nodes, mids = (((1.0 - v) * p.beta).tolist() for v in (u, 0.5 * (u[1:] + u[:-1])))
        rows = _forward_body(*x0.tolist(), nodes, mids, h, p)
        return np.array(rows, dtype=float).reshape(-1, 4)
    return march


def _backward_body(l1, l2, l3, l4, terms, h, p):
    """RK4 steps of h from ``(l1, ..., l4)``; the flat list of node rows.

    ``terms`` are the eleven of ``_costate_terms`` at the nodes and midpoints,
    interleaved in marching order.  A step reads its midpoint's terms at
    stages 2 and 3 and its end node's at stage 4, and carries stage 1 from
    the previous step (index 0 before the first).  Like ``_forward_body`` it
    runs unchanged on ``(B,)`` costates and ``(2n - 1, B)`` terms.
    """
    phi, rho, d = p.phi, p.rho, p.d
    h2, h6 = h / 2.0, h / 6.0
    rows = [l1, l2, l3, l4]
    k11, k12, k21, k22, k31, k32, k33, k41, k42, c, k44 = (v[0] for v in terms)
    a1 = -1.0 + l1 * k11 - l2 * k12
    a2 = 1.0 + l1 * k21 - l2 * k22 - l3 * phi - l4 * rho
    a3 = l1 * k31 - l2 * k32 + l3 * k33
    a4 = l1 * k41 - l2 * k42 - l3 * d * c + l4 * k44
    # one 22-tuple per step, the midpoint's terms (q) then the end node's
    # (k); unpacked in the for target, so zip reuses it
    for (q11, q12, q21, q22, q31, q32, q33, q41, q42, qc, q44,
         k11, k12, k21, k22, k31, k32, k33, k41, k42, c, k44) in zip(
            *(v[1::2] for v in terms), *(v[2::2] for v in terms)):
        m1 = l1 + h2 * a1
        m2 = l2 + h2 * a2
        m3 = l3 + h2 * a3
        m4 = l4 + h2 * a4
        b1 = -1.0 + m1 * q11 - m2 * q12
        b2 = 1.0 + m1 * q21 - m2 * q22 - m3 * phi - m4 * rho
        b3 = m1 * q31 - m2 * q32 + m3 * q33
        b4 = m1 * q41 - m2 * q42 - m3 * d * qc + m4 * q44
        m1 = l1 + h2 * b1
        m2 = l2 + h2 * b2
        m3 = l3 + h2 * b3
        m4 = l4 + h2 * b4
        c1 = -1.0 + m1 * q11 - m2 * q12
        c2 = 1.0 + m1 * q21 - m2 * q22 - m3 * phi - m4 * rho
        c3 = m1 * q31 - m2 * q32 + m3 * q33
        c4 = m1 * q41 - m2 * q42 - m3 * d * qc + m4 * q44
        m1 = l1 + h * c1
        m2 = l2 + h * c2
        m3 = l3 + h * c3
        m4 = l4 + h * c4
        l1 = l1 + h6 * (a1 + 2.0 * (b1 + c1) + (-1.0 + m1 * k11 - m2 * k12))
        l2 = l2 + h6 * (a2 + 2.0 * (b2 + c2)
                        + (1.0 + m1 * k21 - m2 * k22 - m3 * phi - m4 * rho))
        l3 = l3 + h6 * (a3 + 2.0 * (b3 + c3) + (m1 * k31 - m2 * k32 + m3 * k33))
        l4 = l4 + h6 * (a4 + 2.0 * (b4 + c4)
                        + (m1 * k41 - m2 * k42 - m3 * d * c + m4 * k44))
        rows += (l1, l2, l3, l4)
        # the next step's stage 1, on the node this step's stage 4 ended at
        a1 = -1.0 + l1 * k11 - l2 * k12
        a2 = 1.0 + l1 * k21 - l2 * k22 - l3 * phi - l4 * rho
        a3 = l1 * k31 - l2 * k32 + l3 * k33
        a4 = l1 * k41 - l2 * k42 - l3 * d * c + l4 * k44
    return rows


def costate_march(p: ModelParams, mode: str
                  ) -> Callable[[np.ndarray, np.ndarray, float], np.ndarray]:
    """The sweep's backward pass as one kernel ``(states, u, h) -> costates``.

    Takes RK4 steps of -h from the zero costate at the last node, with
    the states and controls of the nodes at stages 1 and 4 and their
    means at stages 2 and 3, and returns the ``(n, 4)`` node costates in
    node order, finite or not.  The (x, u)-only terms of ``adjoint_rhs``
    are one array pass over the rows of a ``(5, 2n - 1)`` table of the
    nodes and midpoints, interleaved last node first.  ``_backward_body``
    walks the term arrays through memoryviews, making no Python-float copy
    of the table, and is bit for bit an RK4 loop over ``adjoint_rhs``, for
    any memory layout of the states and controls.
    """
    terms = _costate_terms(p, mode)

    def march(states, u, h):
        with np.errstate(over="ignore", invalid="ignore"):
            # rows s, i, c, a, u; columns the nodes and midpoints, last node first
            y = np.empty((5, 2 * len(u) - 1))
            y[:4, ::2], y[4, ::2] = states[::-1].T, u[::-1]
            y[:, 1::2] = 0.5 * (y[:, 2::2] + y[:, :-2:2])
            views = [memoryview(t) for t in terms(*y)]
        rows = _backward_body(0.0, 0.0, 0.0, 0.0, views, -h, p)
        return np.array(rows, dtype=float).reshape(-1, 4)[::-1]
    return march


def optimal_control_law(p: ModelParams, x: np.ndarray, lam: np.ndarray,
                        bounds: ControlBounds) -> float | np.ndarray:
    """Pointwise maximizer of the Hamiltonian over the admissible controls.

    The Hamiltonian is a concave parabola in u, so the maximizer is the
    stationary point clamped into [0, u_max].  ``x`` and ``lam`` are one
    state and costate, or node-by-node stacks of them (shape ``(n, 4)``),
    giving one control per node.
    """
    x, lam = np.asarray(x), np.asarray(lam)
    s, i, c, a = (x[..., k] for k in range(4))
    raw = p.beta * (i + p.eta_c * c + p.eta_a * a) * s * (lam[..., 0] - lam[..., 1]) / 2.0
    return bounds.clamp(raw)
