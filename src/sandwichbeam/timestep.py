"""Implicit second-order time stepping for both semi-discrete variants.

The scheme is average-acceleration Newmark written in midpoint form: with
v_mid = (v_n + v_{n+1})/2 and q_mid = (q_n + q_{n+1})/2,

    M a = -K q_mid - C(t_mid) v_mid + F(t_mid),   v_{n+1} = v_n + dt*a.

For the undamped unforced system this conserves p'Mp + q'Kq exactly (up to
solver roundoff), and the damped energy balance

    E_{n+1} - E_n = dt * (-v_mid' C v_mid + v_mid' F)

holds as an algebraic identity, which is what the dissipation ledger
records.  Delayed boundary terms are evaluated at known past times (the
step rule dt <= min tau0 keeps them behind the current step), so every
step is one symmetric positive definite solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .delayline import eval_delayed, push, z_profile
from .discretize import VARIANT_STABILIZED, DiscreteState, delay_energy_from_profiles

__all__ = [
    "SchemeConfig",
    "SimOutput",
    "IntegrationError",
    "simulate",
]

N_RHO_PANELS = 32


class IntegrationError(RuntimeError):
    """Linear-solve failure or non-finite state, with the offending step index."""


@dataclass(frozen=True)
class SchemeConfig:
    """Newmark average-acceleration settings (beta=1/4, gamma=1/2 fixed)."""

    dt: float
    T: float
    stride: int = 1

    def __post_init__(self):
        if not self.dt > 0.0:
            raise ValueError("dt must be positive")
        if self.T < 0.0:
            raise ValueError("T must be nonnegative")
        if self.stride < 1:
            raise ValueError("stride must be >= 1")

    @property
    def n_steps(self):
        return int(round(self.T / self.dt)) if self.T > 0.0 else 0


@dataclass
class SimOutput:
    """Trajectory record: per-step series, decimated states, dissipation ledger."""

    variant: str
    dt: float
    times: np.ndarray
    energy: np.ndarray
    trace_velocities: np.ndarray
    field_energy: np.ndarray = None
    displacement_traces: np.ndarray = None
    delayed_traces: np.ndarray = None
    sample_times: np.ndarray = None
    states_q: np.ndarray = None
    states_p: np.ndarray = None
    delay_profiles: np.ndarray = None
    ledger: dict = None

    @property
    def n_steps(self):
        return len(self.times) - 1

    def max_energy_increase(self):
        """Largest per-step energy increase (0 for a monotone run)."""
        if len(self.energy) < 2:
            return 0.0
        return float(max(0.0, np.max(np.diff(self.energy))))

    def relative_drift(self):
        """max |E(t) - E(0)| / E(0); the conservation figure of merit."""
        e0 = self.energy[0]
        if e0 == 0.0:
            return float(np.max(np.abs(self.energy)))
        return float(np.max(np.abs(self.energy - e0)) / e0)

    def final_state(self):
        """The state at the last step (always one of the samples)."""
        return DiscreteState(
            q=self.states_q[-1].copy(), p=self.states_p[-1].copy(), t=self.times[-1]
        )


class _ZeroGains:
    alphas = (0.0, 0.0, 0.0)
    betas = (0.0, 0.0, 0.0)
    any_delayed = False


def _control_midpoints(controls, n_steps, dt):
    """Sample controls at step midpoints; arrays are averaged endpoint pairs."""
    if callable(controls):
        return np.array(
            [np.asarray(controls((n + 0.5) * dt), dtype=float) for n in range(n_steps)]
        )
    arr = np.asarray(controls, dtype=float)
    if arr.shape != (n_steps + 1, 3):
        raise ValueError(f"controls must have shape ({n_steps + 1}, 3), got {arr.shape}")
    return 0.5 * (arr[:-1] + arr[1:])


class _Stepper:
    """One factorization of the effective matrix, reused while C(t) is steady."""

    def __init__(self, sys_, dt, gains, damping):
        self.sys = sys_
        self.dt = dt
        self.damping = damping
        n = sys_.ndof
        self.feedback_diag = np.zeros(n)
        if sys_.variant == VARIANT_STABILIZED:
            cs = sys_.params.boundary_stiffness
            for c, a, t in zip(cs, gains.alphas, sys_.trace_vectors):
                self.feedback_diag += c * a * t * t
        self._factored_a = None
        self._factor = None

    def _damping_values(self, t):
        if self.damping is None:
            return (0.0, 0.0, 0.0)
        return tuple(self.damping.a(i, t) for i in range(3))

    def total_damping_diag(self, a_values):
        diag = self.feedback_diag.copy()
        if any(a != 0.0 for a in a_values):
            diag += self.sys.damping_diagonal(a_values)
        return diag

    def _factor_for(self, a_values):
        if self._factored_a is not None:
            prev = self._factored_a
            same = all(
                abs(a - b) <= 1e-14 * max(abs(a), abs(b), 1e-300)
                for a, b in zip(a_values, prev)
            )
            if same:
                return self._factor
        sys_, dt = self.sys, self.dt
        A = (0.25 * dt * dt) * sys_.K
        diag = sys_.M + 0.5 * dt * self.total_damping_diag(a_values)
        A[np.diag_indices_from(A)] += diag
        try:
            self._factor = cho_factor(A, lower=True)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - SPD by construction
            raise IntegrationError(f"effective matrix factorization failed: {exc}")
        self._factored_a = a_values
        return self._factor

    def advance(self, q0, v0, t, force_mid):
        """One midpoint step from t to t + dt; returns (q1, v1, damping weights)."""
        dt = self.dt
        a_values = self._damping_values(t + 0.5 * dt)
        factor = self._factor_for(a_values)
        cdiag = self.total_damping_diag(a_values)
        rhs = force_mid - cdiag * v0 - self.sys.K @ (q0 + 0.5 * dt * v0)
        try:
            a = cho_solve(factor, rhs)
        except ValueError as exc:
            raise IntegrationError(f"linear solve rejected the state: {exc}")
        v1 = v0 + dt * a
        q1 = q0 + dt * v0 + 0.5 * dt * dt * a
        return q1, v1, a_values


def _delayed_force(sys_, gains, delays, histories, t):
    """-sum_i c_i * beta_i * z_i(1, t) * t_i, and the z values used."""
    n = sys_.ndof
    f = np.zeros(n)
    zs = np.zeros(3)
    cs = sys_.params.boundary_stiffness
    for i in range(3):
        b = gains.betas[i]
        if b == 0.0:
            continue
        zs[i] = eval_delayed(histories[i], i, t, delays)
        f -= cs[i] * b * zs[i] * sys_.trace_vectors[i]
    return f, zs


def _push_midpoint_traces(sys_, histories, t_mid, v_mid, dt):
    """Record midpoint trace samples into the delay lines.

    Midpoint sampling keeps the delayed feedback loop stable: the undamped
    grid-frequency modes of the conservative scheme average out at step
    midpoints, so they never re-enter through the history.  Slopes are
    backward differences of the recorded values themselves (the raw
    accelerations carry the unfiltered ringing and would reopen the loop
    through the Hermite terms).
    """
    vals = sys_.trace_velocities(v_mid)
    for i in range(3):
        hist = histories[i]
        hist.extension = 0.5 * dt * (1.0 + 1e-9)
        slope = (vals[i] - hist.last_value) / (t_mid - hist.last_time)
        push(hist, t_mid, vals[i], slope)


def _check_finite(q, v, step):
    if not (np.all(np.isfinite(q)) and np.all(np.isfinite(v))):
        raise IntegrationError(f"non-finite state at step {step}")


def _sample_slots(n_steps, stride):
    slots = list(range(0, n_steps + 1, stride))
    if slots[-1] != n_steps:
        slots.append(n_steps)
    return slots


def _check_arguments(sys_, cfg, gains, delays, damping, histories, controls):
    """Reject arguments the variant would ignore, and unsafe delay settings."""
    if sys_.variant == VARIANT_STABILIZED:
        if controls is not None:
            raise ValueError("controls drive the controlled_conservative variant only")
    else:
        unused = [
            name
            for name, value in (
                ("gains", gains),
                ("delays", delays),
                ("damping", damping),
                ("histories", histories),
            )
            if value is not None
        ]
        if unused:
            raise ValueError(f"{', '.join(unused)} apply to the stabilized_delayed variant only")
    if gains is not None and gains.any_delayed:
        if histories is None or delays is None:
            raise ValueError("delayed gains need trace histories and a delay spec")
        if any(delays.slope_bound(i) >= 1.0 for i in range(3)):
            raise ValueError("delay slope bound >= 1: delayed argument would not advance")
        if cfg.dt > delays.min_floor + 1e-15:
            raise ValueError(
                f"dt = {cfg.dt} exceeds the smallest delay floor {delays.min_floor}; "
                "delayed lookups would need current-step unknowns"
            )


def simulate(initial, sys_, cfg, gains=None, delays=None, damping=None, histories=None, controls=None):
    """Advance the system over [0, T] and record the trajectory.

    Both variants take the same midpoint steps.  A controlled run may carry
    controls and records the boundary displacement traces.  A stabilized run
    may carry gains, delays, interior damping and trace histories, and
    records the delayed traces, the delay profiles and the dissipation
    ledger.  Arguments the variant has no use for raise ValueError.
    """
    _check_arguments(sys_, cfg, gains, delays, damping, histories, controls)
    _check_finite(initial.q, initial.p, 0)
    stabilized = sys_.variant == VARIANT_STABILIZED
    gains = gains if gains is not None else _ZeroGains()
    betas = gains.betas
    delayed = gains.any_delayed
    n_steps = cfg.n_steps
    dt = cfg.T / n_steps if n_steps else cfg.dt
    stepper = _Stepper(sys_, dt, gains, damping)
    f_mid = _control_midpoints(controls, n_steps, dt) if controls is not None and n_steps else None

    q = np.array(initial.q, dtype=float)
    v = np.array(initial.p, dtype=float)
    times = dt * np.arange(n_steps + 1)
    field_energy = np.empty(n_steps + 1)
    # the delay-line energy is the only part of E beyond the field energy
    energy = np.empty(n_steps + 1) if delayed else field_energy
    tr_vel = np.empty((n_steps + 1, 3))
    slots = _sample_slots(n_steps, cfg.stride)
    sample_at = {s: k for k, s in enumerate(slots)}
    states_q = np.empty((len(slots), sys_.ndof))
    states_p = np.empty((len(slots), sys_.ndof))
    tr_disp = z_series = profiles = ledger = None
    if stabilized:
        z_series = np.zeros((n_steps + 1, 3))
        profiles = np.zeros((len(slots), 3, N_RHO_PANELS + 1))
        ledger = {
            "t_mid": np.empty(n_steps),
            "a_mid": np.zeros((n_steps, 3)),
            "vel_norms_mid": np.zeros((n_steps, 3)),
            "trace_mid": np.zeros((n_steps, 3)),
            "z_mid": np.zeros((n_steps, 3)),
            "dtau_mid": np.zeros((n_steps, 3)),
        }
    else:
        tr_disp = np.empty((n_steps + 1, 3))

    def record(n):
        field_energy[n] = sys_.field_energy(q, v)
        tr_vel[n] = sys_.trace_velocities(v)
        if tr_disp is not None:
            tr_disp[n] = sys_.displacement_traces(q)
        if delayed:
            t = times[n]
            prof = np.zeros((3, N_RHO_PANELS + 1))
            for i in range(3):
                if betas[i] != 0.0:
                    prof[i] = z_profile(histories[i], i, t, delays, N_RHO_PANELS)
            taus = [delays.tau(i, t) for i in range(3)]
            energy[n] = field_energy[n] + delay_energy_from_profiles(prof, taus, betas)
            z_series[n] = prof[:, -1]
        k = sample_at.get(n)
        if k is not None:
            states_q[k] = q
            states_p[k] = v
            if delayed:
                profiles[k] = prof

    record(0)
    force = np.zeros(sys_.ndof)
    for n in range(n_steps):
        t_mid = times[n] + 0.5 * dt
        if f_mid is not None:
            force = sys_.control_columns @ f_mid[n]
        elif delayed:
            force, zs = _delayed_force(sys_, gains, delays, histories, t_mid)
        q1, v1, a_values = stepper.advance(q, v, times[n], force)
        _check_finite(q1, v1, n + 1)
        if ledger is not None:
            v_mid = 0.5 * (v + v1)
            ledger["t_mid"][n] = t_mid
            ledger["a_mid"][n] = a_values
            ledger["vel_norms_mid"][n] = sys_.velocity_norms_sq(v_mid)
            ledger["trace_mid"][n] = sys_.trace_velocities(v_mid)
            if delayed:
                ledger["z_mid"][n] = zs
            if delays is not None:
                ledger["dtau_mid"][n] = [delays.dtau(i, t_mid) for i in range(3)]
            if histories is not None:
                _push_midpoint_traces(sys_, histories, t_mid, v_mid, dt)
        q, v = q1, v1
        record(n + 1)

    return SimOutput(
        variant=sys_.variant,
        dt=dt,
        times=times,
        energy=energy,
        field_energy=field_energy,
        trace_velocities=tr_vel,
        displacement_traces=tr_disp,
        delayed_traces=z_series,
        sample_times=times[slots],
        states_q=states_q,
        states_p=states_p,
        delay_profiles=profiles,
        ledger=ledger,
    )
