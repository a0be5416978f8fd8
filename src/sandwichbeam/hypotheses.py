"""Feedback-gain hypotheses and theoretical decay constants.

The stabilized system dissipates energy through three boundary channels.
Channel i couples the instantaneous trace velocity and its delayed value
through a symmetric 2x2 quadratic form; the gain conditions below are
exactly the requirement that this form is negative definite for every
admissible delay slope d in [0, d_i].
"""

from __future__ import annotations

import math

import numpy as np

_YOUNG_EPS = 0.5
_MAX_HALVINGS = 60

__all__ = [
    "InfeasibleRates",
    "phi_matrix",
    "is_negative_definite",
    "gain_threshold",
    "validate_gains",
    "scenario_report",
    "compute_mu4",
    "compute_zeta",
    "lambda_bound",
    "perturbed_form",
    "select_mus",
    "decay_bound",
]


def phi_matrix(i, d, params, gains):
    """Boundary dissipation form (m11, m12, m22) of channel i, acting on
    (trace velocity, delayed trace velocity), for an actual delay slope d < 1.

    d = tau'(t), negative while the delay shrinks, may be an array of slopes.

    Entries: [[-2*C_i*alpha_i + |beta_i|, -C_i*beta_i],
              [-C_i*beta_i,               |beta_i|*(d - 1)]]
    with C_1 = E1h1, C_2 = E3h3, C_3 = EI.
    """
    if i not in (1, 2, 3):
        raise ValueError(f"channel must be 1, 2 or 3, got {i!r}")
    if not np.all(np.less(d, 1.0)):
        raise ValueError(f"delay slope d must be < 1, got max {float(np.max(d))!r}")
    c = params.boundary_stiffness[i - 1]
    a = gains.alphas[i - 1]
    b = gains.betas[i - 1]
    return -2.0 * c * a + abs(b), -c * b, abs(b) * (d - 1.0)


def is_negative_definite(form):
    """Sylvester criterion for a symmetric 2x2 form (m11, m12, m22)."""
    m11, m12, m22 = form
    return m11 < 0.0 and m11 * m22 - m12 * m12 > 0.0


def gain_threshold(i, d, params, gains):
    """Minimal alpha_i making the channel-i form negative definite at slope d."""
    c = params.boundary_stiffness[i - 1]
    b = gains.betas[i - 1]
    return (abs(b) / (2.0 * c)) * ((c * c + 1.0 - d) / (1.0 - d))


def _row(condition_id, lhs, rhs, margin, passed):
    """One row of ``hypotheses.json``."""
    return {"condition_id": condition_id, "lhs": lhs, "rhs": rhs, "margin": margin, "pass": passed}


def validate_gains(params, gains, delays):
    """Rows of the three strict gain conditions alpha_i > threshold(d_i).

    Equality counts as failure.  A channel whose delay slope bound d_i
    reaches 1 has no threshold (the delayed argument would stop increasing):
    its row fails with rhs and margin None.
    """
    rows = []
    for i in (1, 2, 3):
        d = delays[i - 1].slope_bound
        lhs = gains.alphas[i - 1]
        if d >= 1.0:
            rows.append(_row(f"gain_channel_{i}", lhs, None, None, False))
            continue
        rhs = gain_threshold(i, d, params, gains)
        rows.append(_row(f"gain_channel_{i}", lhs, rhs, lhs - rhs, lhs > rhs))
    return rows


def scenario_report(params, gains, delays, damping):
    """The rows of every hypothesis of a scenario in ``validate``'s order:
    with delays the gain rows, then per channel d_i < 1 and, with damping, a
    floor above 0."""
    rows = validate_gains(params, gains, delays) if delays is not None else []
    for i in range(3):
        if delays is not None:
            d = delays[i].slope_bound
            rows.append(_row(f"delay_slope_channel_{i + 1}", d, 1.0, 1.0 - d, d < 1.0))
        if damping is not None:
            a0 = damping[i].floor
            rows.append(_row(f"damping_floor_channel_{i + 1}", a0, 0.0, a0, a0 > 0.0))
    return rows


def compute_mu4(params, mu0, mu1, mu2, mu3):
    """Equivalence constant of the energy-comparable Lyapunov functional.

    Uses the sharp one-sided Poincare constant (2L/pi)^2 for fields pinned
    only at x = 0 and the bending constant L^4/pi^4 (valid for the
    clamped-pinned transverse field).
    """
    L = params.L
    pi2 = math.pi * math.pi
    return max(
        mu0,
        4.0 * mu0 * params.rho1h1 * L * L / (params.E1h1 * pi2),
        4.0 * mu0 * params.rho3h3 * L * L / (params.E3h3 * pi2),
        mu0 * params.rhoh * L ** 4 / (params.EI * pi2 * pi2),
        mu1,
        mu2,
        mu3,
    )


def compute_zeta(mu4):
    """Prefactor (1 + mu4)/(1 - mu4) of the decay bound; requires mu4 < 1."""
    if not mu4 < 1.0:
        raise ValueError(f"mu4 = {mu4} must be < 1")
    return (1.0 + mu4) / (1.0 - mu4)


def lambda_bound(params, damping, mu0):
    """min{mu0, 2(a0_i/mass_i - mu0)} over the three field equations."""
    masses = params.mass_coefficients
    return min([mu0] + [2.0 * (law.floor / m - mu0) for law, m in zip(damping, masses)])


def perturbed_form(i, params, gains, delays, mu0, mu_i):
    """Channel-i boundary form after absorbing the Lyapunov cross terms.

    Adds mu0*C_eps*[[a^2, a b], [a b, b^2]] (Young split a*b <= eps*a^2 +
    b^2/(4 eps) of the boundary product; |u(L)| <= sqrt(L)*||u_x|| gives
    C_eps = stiffness_i * L / (4 eps)) and mu_i*|b|*[[1, 0], [0, 0]]
    (delay-line derivative) on top of the worst-slope dissipation form.
    """
    m11, m12, m22 = phi_matrix(i, delays[i - 1].slope_bound, params, gains)
    ceps = params.boundary_stiffness[i - 1] * params.L / (4.0 * _YOUNG_EPS)
    a = gains.alphas[i - 1]
    b = gains.betas[i - 1]
    return (
        m11 + mu0 * ceps * a * a + mu_i * abs(b),
        m12 + mu0 * ceps * a * b,
        m22 + mu0 * ceps * b * b,
    )


class InfeasibleRates(RuntimeError):
    """No admissible Lyapunov weights were found; carries the binding constraint."""


def _feasible(params, gains, delays, damping, mu0):
    """Return (mu1..mu3, mu4) if mu0 admits a valid weight set, else (None, reason)."""
    mus = tuple(2.0 * mu0 * law.cap / (1.0 - law.slope_bound) for law in delays)
    mu4 = compute_mu4(params, mu0, *mus)
    if not mu4 < 1.0:
        return None, f"mu4 = {mu4:.6g} >= 1 at mu0 = {mu0:.6g}"
    if lambda_bound(params, damping, mu0) <= 0.0:
        return None, f"lambda <= 0 at mu0 = {mu0:.6g}"
    for i in (1, 2, 3):
        pi_form = perturbed_form(i, params, gains, delays, mu0, mus[i - 1])
        if gains.betas[i - 1] == 0.0:
            ok = pi_form[0] < 0.0
        else:
            ok = is_negative_definite(pi_form)
        if not ok:
            return None, f"perturbed boundary form of channel {i} not negative definite"
    return (mus, mu4), ""


def select_mus(params, delays, damping, gains):
    """Search admissible Lyapunov weights by halving mu0 from min{a0/mass}/2.

    The candidate mu0 starts at half the smallest damping-to-mass ratio and
    is halved until every constraint holds: mu4 < 1, all perturbed boundary
    forms negative definite (first diagonal entry only when beta_i = 0), and
    mu_i = 2*mu0*M_i/(1 - d_i).  Raises InfeasibleRates when a gain row fails
    (d_i >= 1 included) or after _MAX_HALVINGS halvings.

    Returns the ``rates`` block of ``decay_report.json``: ``mu0``..``mu4``,
    ``lambda``, ``zeta`` and ``rate`` = lambda/(1 + mu4).
    """
    bad = [row["condition_id"] for row in validate_gains(params, gains, delays) if not row["pass"]]
    if bad:
        raise InfeasibleRates(f"gain hypotheses fail: {', '.join(bad)}")
    ratios = [law.floor / m for law, m in zip(damping, params.mass_coefficients)]
    mu0 = min(ratios) / 2.0
    reason = ""
    for _ in range(_MAX_HALVINGS):
        found, reason = _feasible(params, gains, delays, damping, mu0)
        if found is not None:
            (mu1, mu2, mu3), mu4 = found
            lam = lambda_bound(params, damping, mu0)
            return {
                "mu0": mu0,
                "mu1": mu1,
                "mu2": mu2,
                "mu3": mu3,
                "mu4": mu4,
                "lambda": lam,
                "zeta": compute_zeta(mu4),
                "rate": lam / (1.0 + mu4),
            }
        mu0 /= 2.0
    raise InfeasibleRates(f"no admissible mu0 after {_MAX_HALVINGS} halvings; last: {reason}")


def decay_bound(t, E0, rates):
    """Certified envelope zeta * exp(-rate*t) * E0 of the ``select_mus``
    ``rates``; t may be an array."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0):
        raise ValueError("t must be nonnegative")
    if E0 < 0.0:
        raise ValueError("E0 must be nonnegative")
    return rates["zeta"] * np.exp(-rates["rate"] * t) * E0
