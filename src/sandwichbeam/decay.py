"""Decay verification: dissipation identity, Lyapunov equivalence, rate fits.

Everything here is pure post-processing over a recorded trajectory.  The
dissipation check compares the per-step energy increments against the
boundary quadratic forms evaluated at the step midpoints, exactly where
the integrator sampled them; the delay-line energy inside E is exact, so
the residual is the time-discretization error of the scheme.
"""

from __future__ import annotations

import numpy as np

from .discretize import VARIANT_STABILIZED
from .hypotheses import decay_bound, phi_matrix

_FLOOR_RATIO = 1e-14
_BOUND_SLACK = 1.05

__all__ = [
    "check_dissipation_identity",
    "lyapunov_trace",
    "fit_decay_rate",
    "check_theoretical_bound",
    "check_trace_estimates",
]


def check_dissipation_identity(out, params, gains):
    """|dE/dt - (interior damping power + boundary forms)| per step."""
    if out.variant != VARIANT_STABILIZED or out.ledger is None:
        raise ValueError("dissipation check needs a stabilized run with a ledger")
    led = out.ledger
    rhs = -np.vecdot(led["a_mid"], led["vel_norms_mid"])
    for i in range(3):
        # the actual slopes tau'(t_mid), negative while the delay shrinks
        m11, m12, m22 = phi_matrix(i + 1, led["dtau_mid"][:, i], params, gains)
        y, z = led["trace_mid"][:, i], led["z_mid"][:, i]
        rhs += 0.5 * (m11 * y * y + 2.0 * m12 * y * z + m22 * z * z)
    return np.abs(np.diff(out.energy) / out.dt - rhs)


def lyapunov_trace(out, sys_, rates, gains):
    """L(t) = E + mu0 * sum rho<field, field_t> + sum mu_i delay tilts, at samples."""
    if out.variant != VARIANT_STABILIZED:
        raise ValueError("lyapunov trace is defined for the stabilized variant")
    # the cross term's weights: rho_f times field f's L2 weights
    cross_weights = np.asarray(sys_.params.mass_coefficients) @ sys_.field_weights
    # delay tilts are zero on undelayed channels
    mus = np.array([rates["mu1"], rates["mu2"], rates["mu3"]])
    tilt_weights = 0.5 * mus * np.abs(gains.betas)
    return (
        out.energy[out.samples]
        + rates["mu0"] * ((out.states_q * out.states_p) @ cross_weights)
        + out.delay_tilts[out.samples] @ tilt_weights
    )


def fit_decay_rate(times, energies, window):
    """Least-squares slope of ln E over the window; returns (omega, intercept, R^2).

    Samples below _FLOOR_RATIO * E(0) are excluded (roundoff plateau); any
    nonpositive energy inside the window is an error.
    """
    times = np.asarray(times, dtype=float)
    energies = np.asarray(energies, dtype=float)
    mask = (times >= window[0]) & (times <= window[1])
    if not np.any(mask):
        raise ValueError("empty fit window")
    t, e = times[mask], energies[mask]
    if np.any(e <= 0.0):
        raise ValueError("nonpositive energy inside the fit window")
    keep = e >= _FLOOR_RATIO * energies[0]
    t, e = t[keep], e[keep]
    if len(t) < 2:
        raise ValueError("fewer than two usable samples in the fit window")
    # the centred line; ln E taken relative to its first sample makes a
    # constant series centre to exact zeros
    y = np.log(e)
    tc, yc = t - np.mean(t), y - y[0]
    yc_bar = np.mean(yc)
    yc -= yc_bar
    slope = float(tc @ yc / (tc @ tc))
    resid, ss_tot = yc - slope * tc, float(yc @ yc)
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(resid @ resid) / ss_tot
    return -slope, float(y[0] + yc_bar - slope * np.mean(t)), r2


def check_theoretical_bound(out, rates, window, dissipation_residual=None):
    """The ``decay_report`` block of ``decay_report.json``: the fit of ln E
    over ``window`` and the count of samples violating
    E(t) <= _BOUND_SLACK * zeta * exp(-rate t) * E(0)."""
    bound = _BOUND_SLACK * decay_bound(out.times, out.energy[0], rates)
    omega, intercept, r2 = fit_decay_rate(out.times, out.energy, window)
    return {
        "fitted_rate": omega,
        "intercept": intercept,
        "r_squared": r2,
        "theoretical_rate": rates["rate"],
        "zeta": rates["zeta"],
        "violations": int(np.sum(out.energy > bound)),
        "max_dissipation_residual": (
            float(np.max(dissipation_residual)) if dissipation_residual is not None else float("nan")
        ),
        "window": window,
    }


def check_trace_estimates(out, sys_, gains, damping=None):
    """Boundary-trace and initial-data estimates; returns sides and slack.

    ``trace_bound``: time-integrated trace energy (boundary velocities plus
    delayed endpoint values) against twice the initial energy.
    ``initial_bound``: initial state norm against the trajectory average,
    interior damping and weighted trace integrals.
    """
    if out.variant != VARIANT_STABILIZED:
        raise ValueError("trace estimates are defined for the stabilized variant")
    t = out.times
    T = t[-1]
    tr2 = out.trace_velocities ** 2
    z2 = out.delayed_traces ** 2 if out.delayed_traces is not None else np.zeros_like(tr2)
    trace_integrals = np.array([np.trapezoid(tr2[:, i], t) for i in range(3)])
    z_integrals = np.array([np.trapezoid(z2[:, i], t) for i in range(3)])

    lhs_trace = float(np.sum(trace_integrals) + np.sum(z_integrals))
    rhs_trace = 2.0 * float(out.energy[0])

    if out.field_energy is None:
        raise ValueError("run is missing the field-energy series")
    u0_norm_sq = 2.0 * float(out.field_energy[0])
    mean_term = float(np.trapezoid(2.0 * out.field_energy, t)) / T
    damping_term = 0.0
    if damping is not None and out.ledger is not None:
        sup_a = sum(law.a(0.0) for law in damping)
        vel_integral = float(np.sum(out.ledger["vel_norms_mid"]) * out.dt)
        damping_term = 2.0 * sup_a * vel_integral
    cs = sys_.params.boundary_stiffness
    weighted_traces = sum(
        cs[i] * (2.0 * gains.alphas[i] + abs(gains.betas[i])) * trace_integrals[i]
        for i in range(3)
    )
    z_term = sum(abs(gains.betas[i]) * z_integrals[i] for i in range(3))
    rhs_initial = mean_term + damping_term + weighted_traces + z_term

    return {
        "trace_bound": {
            "lhs": lhs_trace,
            "rhs": rhs_trace,
            "slack": rhs_trace - lhs_trace,
            "holds": lhs_trace <= rhs_trace,
        },
        "initial_bound": {
            "lhs": u0_norm_sq,
            "rhs": rhs_initial,
            "slack": rhs_initial - u0_norm_sq,
            "holds": bool(u0_norm_sq <= rhs_initial),  # json takes no numpy bool
        },
    }
