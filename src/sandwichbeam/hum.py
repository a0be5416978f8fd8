"""Null-control synthesis by conjugate gradient on the control Gramian.

The controlled conservative system is time-reversible (the generator is
skew-adjoint in the discrete state product), so the adjoint problem is the
same system integrated backward, realized as a forward solve with negated
velocities.  Observation = boundary displacement traces weighted by
(E1h1, E3h3, alpha*k), which is exactly dual to the control injection, so
the discrete duality identity

    [v'Mw - q'Mr]_0^T = sum_n dt * f_mid' B' w_mid

holds to roundoff and the Gramian is symmetric positive semidefinite by
construction.

The displacement part of the state product q'Kq is blind to a constant
transverse shift (the controlled variant has no essential condition on w
itself), so the terminal-data space is completed with a mean-of-w term
before representing functionals; this only fixes the representation, not
the synthesized controls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .discretize import VARIANT_CONTROLLED, DiscreteState, hspace_norm
from .presets import random_smooth_state, zero_state
from .timestep import simulate

__all__ = [
    "ObservationTriple",
    "HumSolution",
    "CgError",
    "HumWorkspace",
    "solve_adjoint",
    "controls_from_observation",
    "apply_gramian",
    "rhs_from_initial_data",
    "cg_solve",
    "compute_null_control",
    "estimate_observability",
]


class CgError(RuntimeError):
    """Conjugate gradient produced NaNs or stagnated."""


@dataclass
class ObservationTriple:
    """Boundary displacement traces of an adjoint solution on the step grid.

    The weighted L2(0,T) product pairs midpoint values (averaged endpoint
    pairs), matching how controls are applied by the integrator; this keeps
    the duality identity exact at the discrete level.
    """

    series: np.ndarray  # (n_steps + 1, 3)
    dt: float
    weights: tuple

    def weighted_product(self, other):
        total = 0.0
        for i, wgt in enumerate(self.weights):
            a_mid = 0.5 * (self.series[:-1, i] + self.series[1:, i])
            b_mid = 0.5 * (other.series[:-1, i] + other.series[1:, i])
            total += wgt * self.dt * float(np.dot(a_mid, b_mid))
        return total

    @property
    def norm_sq(self):
        return self.weighted_product(self)


@dataclass
class HumSolution:
    """Synthesized controls plus conjugate-gradient diagnostics."""

    controls: np.ndarray  # (n_steps + 1, 3) on the step grid
    dt: float
    iterations: int
    residuals: np.ndarray
    converged: bool
    terminal_rel_norm: float
    control_cost: float
    min_rayleigh: float
    max_rayleigh: float


class HumWorkspace:
    """Completed state product and its factorization for one system.

    Two inner products live here.  ``inner`` is the (completed) state
    product on terminal data, used to normalize observability samples.
    ``inner_dual`` is the pullback of the state norm through the duality
    pairing, the metric in which the Gramian operator is symmetric: the norm
    of the Gramian residual in it equals the energy norm of the terminal
    state the current controls would leave, so conjugate gradient iterates
    minimize exactly the certified quantity.
    """

    def __init__(self, sys_):
        if sys_.variant != VARIANT_CONTROLLED:
            raise ValueError("HUM needs a controlled_conservative system")
        self.sys = sys_
        p = sys_.params
        self.weights = p.trace_masses
        mean_w = np.zeros(sys_.ndof)
        mean_w[sys_.block("w")] = sys_.block_weights["w"]
        # energy-scaled completion of the transverse-mean direction; backed
        # by the bending stiffness so it survives shear-free reductions
        gamma = (p.k + p.EI / p.L ** 4) / p.L
        self.k_star = sys_.K + gamma * np.outer(mean_w, mean_w)
        self._k_star_factor = cho_factor(self.k_star, lower=True)
        self.n = sys_.ndof

    def pack(self, state):
        return np.concatenate([state.q, state.p])

    def unpack(self, x, t=0.0):
        return DiscreteState(q=x[: self.n].copy(), p=x[self.n :].copy(), t=t)

    def inner(self, x, y):
        n = self.n
        return float(x[:n] @ (self.k_star @ y[:n]) + np.dot(x[n:], self.sys.M * y[n:]))

    def norm(self, x):
        return float(np.sqrt(max(self.inner(x, x), 0.0)))

    def solve_k_star(self, b):
        return cho_solve(self._k_star_factor, b)

    def inner_dual(self, x, y):
        n = self.n
        M = self.sys.M
        quad_q = np.dot(x[:n], M * y[:n])
        quad_p = x[n:] @ (M * self.solve_k_star(M * y[n:]))
        return float(quad_q + quad_p)

    def norm_dual(self, x):
        return float(np.sqrt(max(self.inner_dual(x, x), 0.0)))

    def represent_dual(self, terminal_state, sign):
        """Terminal-space vector x with <x, b>_dual = sign*(v'Mw_b - q'Mr_b).

        The dual norm of this representer is the (completed) energy norm of
        ``terminal_state``: x_q = sign*v_T and x_p = -sign*M^{-1}K*q_T.
        """
        qT, vT = terminal_state.q, terminal_state.p
        x_q = sign * vT
        x_p = -sign * (self.k_star @ qT) / self.sys.M
        return np.concatenate([x_q, x_p])


def solve_adjoint(terminal, T, sys_, cfg):
    """Adjoint solve backward from terminal data at T.

    Returns (trajectory of the reversed solve, observation triple on the
    forward step grid, adjoint state at t = 0).
    """
    reversed_initial = DiscreteState(q=terminal.q.copy(), p=-terminal.p, t=0.0)
    out = simulate(reversed_initial, sys_, cfg)
    series = out.displacement_traces[::-1].copy()
    obs = ObservationTriple(series=series, dt=out.dt, weights=sys_.params.trace_masses)
    w0 = DiscreteState(q=out.states_q[-1].copy(), p=-out.states_p[-1], t=0.0)
    return out, obs, w0


def controls_from_observation(obs):
    """HUM control choice: the observation traces themselves (weights live
    in the inner product, not in the controls)."""
    return obs.series.copy()


def apply_gramian(terminal, T, sys_, cfg, ws=None):
    """One Gramian application: adjoint solve, re-inject traces, represent.

    The result is the dual representer of the terminal state the injected
    traces drive the rest state to; the operator is symmetric positive
    semidefinite in ``ws.inner_dual``.
    """
    ws = ws if ws is not None else HumWorkspace(sys_)
    _, obs, _ = solve_adjoint(terminal, T, sys_, cfg)
    controls = controls_from_observation(obs)
    fwd = simulate(zero_state(sys_), sys_, cfg, controls=controls)
    return ws.unpack(ws.represent_dual(fwd.final_state(), sign=+1.0), t=T)


def rhs_from_initial_data(initial, T, sys_, cfg, ws=None):
    """Right side of the Gramian equation: negated free-evolution pairing."""
    ws = ws if ws is not None else HumWorkspace(sys_)
    free = simulate(initial, sys_, cfg)
    return ws.unpack(ws.represent_dual(free.final_state(), sign=-1.0), t=T)


def cg_solve(apply_op, b, tol, maxit, inner, stagnation_window=25):
    """Conjugate-gradient (residual-minimizing variant) in a given inner product.

    For a symmetric positive semidefinite operator this is the conjugate
    residual iteration: one operator application per step and a monotone
    non-increasing residual norm, which is what the solution diagnostics
    assert.  Stops when ||r|| <= tol * ||b||; returns (x, residual norms,
    converged flag, Rayleigh quotient extremes seen on the Krylov vectors).
    """
    norm = lambda x: np.sqrt(max(inner(x, x), 0.0))
    b_norm = norm(b)
    x = np.zeros_like(b)
    if b_norm == 0.0:
        return x, np.array([0.0]), True, (np.nan, np.nan)
    r = b.copy()
    ar = apply_op(r)
    p = r.copy()
    ap = ar.copy()
    r_ar = inner(r, ar)
    residuals = [b_norm]
    ray_min, ray_max = np.inf, -np.inf
    converged = False
    for _ in range(maxit):
        rr = inner(r, r)
        if rr > 0.0:
            ray = r_ar / rr
            if np.isfinite(ray):
                ray_min = min(ray_min, ray)
                ray_max = max(ray_max, ray)
        ap_ap = inner(ap, ap)
        if not np.isfinite(ap_ap) or ap_ap <= 0.0:
            raise CgError(f"operator application degenerated (||Ap||^2 = {ap_ap})")
        alpha = r_ar / ap_ap
        x = x + alpha * p
        r = r - alpha * ap
        res = norm(r)
        if not np.isfinite(res):
            raise CgError("NaN in conjugate-gradient iterates")
        residuals.append(res)
        if res <= tol * b_norm:
            converged = True
            break
        if len(residuals) > stagnation_window:
            window = residuals[-stagnation_window - 1 :]
            if min(window[1:]) >= window[0] * (1.0 - 1e-12):
                raise CgError(
                    f"no residual decrease over {stagnation_window} iterations"
                )
        ar = apply_op(r)
        r_ar_new = inner(r, ar)
        beta = r_ar_new / r_ar
        p = r + beta * p
        ap = ar + beta * ap
        r_ar = r_ar_new
    return x, np.array(residuals), converged, (ray_min, ray_max)


def compute_null_control(initial, T, sys_, cfg, tol=1e-8, maxit=200, ws=None):
    """Solve the Gramian equation and verify the synthesized controls.

    Conjugate gradient runs in the pullback metric, where the residual norm
    equals the energy norm of the terminal state the current controls would
    leave; non-convergence at maxit is reported in the returned HumSolution
    together with the independently verified terminal norm, never silently
    accepted.
    """
    ws = ws if ws is not None else HumWorkspace(sys_)
    rhs = ws.pack(rhs_from_initial_data(initial, T, sys_, cfg, ws))

    def apply_vec(xvec):
        return ws.pack(apply_gramian(ws.unpack(xvec), T, sys_, cfg, ws))

    xvec, residuals, converged, (ray_min, ray_max) = cg_solve(
        apply_vec, rhs, tol=tol, maxit=maxit, inner=ws.inner_dual
    )
    e_state = ws.unpack(xvec, t=T)
    _, obs, _ = solve_adjoint(e_state, T, sys_, cfg)
    controls = controls_from_observation(obs)
    cost = obs.norm_sq

    verification = simulate(initial, sys_, cfg, controls=controls)
    terminal = verification.final_state()
    denom = hspace_norm(initial, sys_)
    rel = hspace_norm(terminal, sys_) / denom if denom > 0.0 else hspace_norm(terminal, sys_)
    return HumSolution(
        controls=controls,
        dt=verification.dt,
        iterations=len(residuals) - 1,
        residuals=residuals,
        converged=converged,
        terminal_rel_norm=rel,
        control_cost=cost,
        min_rayleigh=ray_min,
        max_rayleigh=ray_max,
    )


def estimate_observability(T, sys_, cfg, n_samples=20, seed=0, ws=None, cutoff=8):
    """Rayleigh quotients (observation norm^2 / state norm^2) on random data.

    Samples are seeded smooth states normalized in the completed product, so
    refinements of the same seed probe the same continuum data.  A positive
    minimum evidences discrete observability; a finite maximum the direct
    (admissibility) inequality.
    """
    if n_samples < 10:
        raise ValueError("need at least 10 samples")
    ws = ws if ws is not None else HumWorkspace(sys_)
    quotients = []
    for k in range(n_samples):
        state = random_smooth_state(sys_, seed=seed + k, cutoff=cutoff)
        x = ws.pack(state)
        nrm = ws.norm(x)
        if nrm == 0.0:
            continue
        state = ws.unpack(x / nrm)
        _, obs, _ = solve_adjoint(state, T, sys_, cfg)
        quotients.append(obs.norm_sq)
    q = np.asarray(quotients)
    return float(np.min(q)), float(np.max(q))
