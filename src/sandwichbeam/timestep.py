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

Every time law (damping weights, delays and their slopes, callable
controls) is sampled and checked once, on the midpoint grid t_n + dt/2,
before the first step: the laws take arrays, so each channel's law is
one call on the whole grid.  So is every delay line: each delayed
channel's sample record is its initial history followed by one slot per
step midpoint, a time grid fixed before the run, and the segment and
Hermite weights of every step's lookup are computed then too, as are
the delay windows at the record times, which ``delay_windows`` checks.
A step applies its stencil to the stored samples, Python floats in
lists, and writes its midpoint trace sample into the record; the
caller's histories are never changed.  Nothing in a step reads the
delay-window integrals, so the delay energy, the Lyapunov tilts and the
delayed traces z_i at the record times are computed from the filled
records, one window pass per delayed channel, when ``SimOutput`` is
first asked for ``energy``, ``delay_tilts`` or ``delayed_traces``; a
caller that reads only the states never runs it.

The step loop does only what the next step reads: the delayed lookups
or the control force, the step itself, the finiteness check of the new
state and the delayed channels' midpoint samples.  The stepper works in
preallocated buffers and writes each new state straight into a buffer
that holds one block of steps, and the recorded
series are filled once per block from the whole block: the field
energies (one ``SemiDiscreteSystem.field_energy`` call on the stack of
states), the boundary traces, the ledger's midpoint velocity norms and
traces, and the decimated states.  A non-finite value among them (a
finite state's energy can overflow) raises ``IntegrationError`` naming
its first step, as does a non-finite delay energy, tilt or delayed trace
when the window pass computes them.  The damping and effective diagonals
of the block's refactoring steps are tabulated at its start.

That solve and the stiffness product work on the banded stiffness
(``SemiDiscreteSystem.band``), in the node-by-node order of the state
vectors themselves: the effective matrix
M + dt^2/4 K + dt/2 C is written into one Fortran-order band buffer and
factored there by LAPACK ``dpbtrf``, each step solves with ``dpbtrs`` and
multiplies with BLAS ``dsbmv``, so a step costs O(n) in time and memory;
the energies never go through ``dsbmv``.  The effective matrix has that
one buffer and no scaled copy of the band: a refactor writes
(dt^2/4) K into it from the band itself.
The routines are numpy's own OpenBLAS, bound by ``lapack`` once per run
to the stepper's fixed buffers (the stiffness band, the factor, the
stiffness argument and the right-hand side), which are checked then: a
step makes three prebuilt calls and builds no arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .delayline import delay_samples, delay_windows, hermite_stencil
from .discretize import VARIANT_STABILIZED, DiscreteState
from .lapack import bind_dpbtrf, bind_dpbtrs, bind_dsbmv
from .params import GainConfig

__all__ = [
    "SchemeConfig",
    "SimOutput",
    "IntegrationError",
    "delayed_step_error",
    "simulate",
]


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
        """T / dt rounded to whole steps, and at least one step when T > 0."""
        return max(1, round(self.T / self.dt)) if self.T > 0.0 else 0

    @property
    def step(self):
        """The step taken: T split into whole steps, which may differ from dt."""
        n_steps = self.n_steps
        return self.T / n_steps if n_steps else self.dt

    @property
    def times(self):
        """The step times 0, step, ..., T (T split into whole steps)."""
        return self.step * np.arange(self.n_steps + 1)


@dataclass
class SimOutput:
    """Trajectory record: per-step series, decimated states, dissipation ledger.

    ``energy``, ``delay_tilts`` and ``delayed_traces`` are computed on first
    read, by the window pass that ``windows`` holds, so a caller that reads
    only the states never pays for it.
    """

    variant: str
    dt: float
    times: np.ndarray
    trace_velocities: np.ndarray
    field_energy: np.ndarray = None
    displacement_traces: np.ndarray = None
    # the steps of the decimated states_q and states_p
    samples: np.ndarray = None
    states_q: np.ndarray = None
    states_p: np.ndarray = None
    ledger: dict = None
    # (channel, |beta_i|/2, integrals) per delayed channel, where integrals()
    # gives the channel's (I0, I1, z) at the record times; None for a
    # controlled run
    windows: tuple = field(default=None, repr=False)

    @cached_property
    def _delay_series(self):
        """(delay energy, tilts, delayed traces) at the record times."""
        n_rec = len(self.times)
        delay_energy = np.zeros(n_rec)
        tilts = np.zeros((n_rec, 3))
        z_series = np.zeros((n_rec, 3))
        for i, weight, integrals in self.windows:
            i0, tilts[:, i], z_series[:, i] = integrals()
            delay_energy += weight * i0
        _check_records("delay energy, tilt or delayed trace", 0, delay_energy, tilts, z_series)
        return delay_energy, tilts, z_series

    @cached_property
    def energy(self):
        """The field energy, plus the delay-line energy of a delayed run."""
        if not self.windows:
            return self.field_energy
        return self.field_energy + self._delay_series[0]

    @cached_property
    def delay_tilts(self):
        """Per step and channel: int (1 - (t - s)/tau) y(s)^2 ds over the delay window."""
        return None if self.windows is None else self._delay_series[1]

    @cached_property
    def delayed_traces(self):
        """Per step and channel: the delayed trace z_i = y_i(t - tau_i(t))."""
        return None if self.windows is None else self._delay_series[2]

    @property
    def n_steps(self):
        return len(self.times) - 1

    def max_energy_increase(self):
        """Largest per-step energy increase (0 for a monotone run, NaN if an
        increase is NaN)."""
        if len(self.energy) < 2:
            return 0.0
        # np.maximum keeps a NaN, where Python's max(0.0, nan) gives 0.0
        return float(np.maximum(0.0, np.max(np.diff(self.energy))))

    def relative_drift(self):
        """max |E(t) - E(0)| / E(0); the conservation figure of merit."""
        e0 = self.energy[0]
        if e0 == 0.0:
            return float(np.max(np.abs(self.energy)))
        return float(np.max(np.abs(self.energy - e0)) / e0)

    def final_state(self):
        """The state at the last step (always one of the samples)."""
        return DiscreteState(q=self.states_q[-1].copy(), p=self.states_p[-1].copy())


_NO_GAINS = GainConfig(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def _control_midpoints(controls, t_mid):
    """Controls at the midpoints ``t_mid``; arrays are averaged endpoint pairs.

    A non-finite sample raises IntegrationError naming the first step it
    would drive, so the loop itself never checks the controls again.
    """
    n_steps = len(t_mid)
    if callable(controls):
        f_mid = np.array([np.asarray(controls(t), dtype=float) for t in t_mid.tolist()])
    else:
        arr = np.asarray(controls, dtype=float)
        if arr.shape != (n_steps + 1, 3):
            raise ValueError(f"controls must have shape ({n_steps + 1}, 3), got {arr.shape}")
        f_mid = 0.5 * (arr[:-1] + arr[1:])
    bad = np.flatnonzero(~np.all(np.isfinite(f_mid), axis=1))
    if bad.size:
        raise IntegrationError(f"non-finite control at step {bad[0] + 1}")
    return f_mid


class _Stepper:
    """One factorization of the effective matrix, reused while C(t) is steady.

    The run refactors (``refactor``) at the steps whose damping weights
    differ from the previous step's, which ``simulate`` finds before the
    first step.  The damping and effective diagonals of those steps come
    from a table built once per block of steps (``tabulate``): one product
    of their weights with the weight table and one finiteness check.  The
    effective matrix has one band buffer, in which ``dpbtrf`` factors it: a
    refactor writes (dt^2/4) K into it, then its diagonal.  The scaled
    band is checked for finiteness once, when the stepper is built.
    """

    def __init__(self, sys_, dt, gains):
        self.sys = sys_
        self.dt = dt
        self.feedback_diag = np.zeros(sys_.ndof)
        cs = np.asarray(sys_.params.boundary_stiffness)
        coeff = sys_.channel_coeff
        self.feedback_diag[sys_.channel_index] = cs * gains.alphas * coeff * coeff
        self._scale = 0.25 * dt * dt
        # the effective matrix, then its factor: dpbtrf works in this buffer
        self._factor = np.asfortranarray(self._scale * sys_.band)
        # one scalar test, as in _check_finite
        if not math.isfinite(self._factor.sum()) and not np.all(np.isfinite(self._factor)):
            raise IntegrationError("non-finite effective matrix")
        # the step's work buffers: the right-hand side, then the acceleration
        # (dpbtrs solves in place), and the stiffness argument
        self._rhs = np.empty(sys_.ndof)
        self._x = np.empty(sys_.ndof)
        # the step's compiled calls, bound to these buffers once:
        # rhs -= K x, the factor of the effective matrix, rhs := A^-1 rhs
        self._product = bind_dsbmv(sys_.band, self._x, self._rhs, -1.0, 1.0)
        self._factorize = bind_dpbtrf(self._factor)
        self._solve = bind_dpbtrs(self._factor, self._rhs)

    def tabulate(self, rows):
        """Tabulate the damping and effective diagonals of ``rows``, the
        (R, 3) damping weights of a block's refactoring steps in step order:
        one product and one finiteness check per block."""
        sys_, dt = self.sys, self.dt
        # in place, with the association of (dt^2/4 K)[0] + (M + dt/2 * cdiag)
        cdiag = np.dot(rows, sys_.field_weights)
        cdiag += self.feedback_diag
        diag = 0.5 * dt * cdiag
        diag += sys_.M
        diag += self._scale * sys_.band[0]
        # one scalar test, as in _check_finite
        if not math.isfinite(diag.sum()) and not np.all(np.isfinite(diag)):
            raise IntegrationError("non-finite effective matrix")
        self._cdiags, self._diags = cdiag, diag

    def refactor(self, row):
        """Factor the effective matrix of row ``row`` of the last ``tabulate``."""
        ab = self._factor
        np.multiply(self._scale, self.sys.band, out=ab)
        ab[0] = self._diags[row]
        info = self._factorize()
        if info != 0:
            raise IntegrationError(f"effective matrix factorization failed (dpbtrf info {info})")
        self.cdiag = self._cdiags[row]

    def advance(self, q0, v0, force_mid, q1, v1):
        """One midpoint step with the last ``refactor``'s factor; writes the
        new state into ``q1`` and ``v1``."""
        dt = self.dt
        rhs, x = self._rhs, self._x
        # force_mid - cdiag * v0
        np.multiply(self.cdiag, v0, out=rhs)
        np.subtract(force_mid, rhs, out=rhs)
        # q0 + 0.5 * dt * v0
        np.multiply(0.5 * dt, v0, out=x)
        np.add(q0, x, out=x)
        self._product()
        # finiteness: the factor is checked when tabulated, the controls when
        # sampled and the state after every step
        info = self._solve()
        if info != 0:  # pragma: no cover - only for invalid arguments
            raise IntegrationError(f"linear solve failed (dpbtrs info {info})")
        a = rhs  # the acceleration, solved in place
        # v0 + dt * a, then q0 + dt * v0 + 0.5 * dt * dt * a
        np.multiply(dt, a, out=v1)
        np.add(v0, v1, out=v1)
        np.multiply(dt, v0, out=q1)
        np.add(q0, q1, out=q1)
        np.multiply(0.5 * dt * dt, a, out=x)
        np.add(q1, x, out=q1)


def _block_steps(ndof):
    """Steps per block of the recording pass: at most 32, since the pass
    costs several times less per state on a block than on one state at a
    time, and few enough that a buffer of the block's states, (steps + 1)
    x ndof doubles, stays under 128 KiB (9 steps at N = 512, 4 at
    N = 1024).  Larger arrays are served from fresh pages by glibc's malloc
    (its default threshold), at a page fault per 4 KiB on every block."""
    return max(1, min(32, 2**17 // (8 * ndof) - 1))


def _delay_lines(histories, delays, betas, t_mid, times, extension):
    """The delay line of each delayed channel, on a time grid fixed before
    the run: (channel, first, values, slopes, gaps, j, weights, windows).

    The sample record is the channel's initial history, then one slot per
    step midpoint from index ``first`` on, which the loop fills; the values
    and slopes are Python lists, and gaps[n] is the time from the sample
    before slot first + n to it.  Step n looks up theta = t - tau(t) at
    its midpoint in the samples up to the previous step's, and
    (j, weights) is the ``hermite_stencil`` of every step's lookup.
    ``windows`` integrates the delay windows at the record ``times`` over
    the filled record (``delay_windows``).  A delay past its cap, a
    decreasing theta, or a lookup or window outside the record is refused
    here, before the first step.
    """
    n_steps = len(t_mid)
    lines = []
    for i in np.flatnonzero(betas).tolist():
        theta = t_mid - delay_samples(delays[i], i, t_mid)
        back = np.flatnonzero(theta[1:] < theta[:-1] - 1e-12)
        if back.size:
            k = back[0]
            raise AssertionError(
                f"channel {i}: delayed argument not increasing ({theta[k + 1]} after {theta[k]})"
            )
        hist = histories[i]
        first = len(hist.times)
        ts = np.concatenate([hist.times, t_mid])
        ys = hist.values.tolist() + [0.0] * n_steps
        ms = hist.slopes.tolist() + [0.0] * n_steps
        newest = first - 1 + np.arange(n_steps)
        stencil = hermite_stencil(ts, theta, newest, extension, i)
        windows = delay_windows(ts, times, delay_samples(delays[i], i, times), extension, i)
        lines.append((i, first, ys, ms, np.diff(ts[first - 1 :])) + stencil + (windows,))
    return lines


def _check_finite(q, v, step):
    # one scalar test; the elementwise check runs only when the sum of
    # squares is not finite, so a large finite state whose squares overflow
    # is still accepted
    if not math.isfinite(np.dot(q, q) + np.dot(v, v)) and not (
        np.all(np.isfinite(q)) and np.all(np.isfinite(v))
    ):
        raise IntegrationError(f"non-finite state at step {step}")


def _check_records(what, step, *blocks):
    """Raise IntegrationError at the first step whose recorded ``what`` are
    not all finite: row r of every block belongs to step ``step + r``."""
    # one scalar test; the rows are searched only when it fails
    if math.isfinite(sum(b.sum() for b in blocks)):
        return
    # the row of every non-finite value, in order
    bad = [np.nonzero(~np.isfinite(b))[0] for b in blocks]
    bad = [rows[0] for rows in bad if rows.size]
    if bad:
        raise IntegrationError(f"non-finite {what} at step {step + min(bad)}")


def delayed_step_error(dt, delays):
    """Why delayed feedback under the three laws ``delays`` cannot take steps
    of ``dt``, or None."""
    if any(law.slope_bound >= 1.0 for law in delays):
        return "delay slope bound >= 1: delayed argument would not advance"
    floor = min(law.floor for law in delays)
    if dt > floor + 1e-15:
        return (
            f"dt = {dt} exceeds the smallest delay floor {floor}; "
            "delayed lookups would need current-step unknowns"
        )


def _check_arguments(sys_, dt, gains, delays, damping, histories, controls):
    """Reject arguments the variant would ignore, delays or damping that are
    not three laws, and unsafe delay settings for the step ``dt`` the run
    takes."""
    if sys_.variant == VARIANT_STABILIZED:
        if controls is not None:
            raise ValueError("controls drive the controlled_conservative variant only")
        if any(laws is not None and len(laws) != 3 for laws in (delays, damping)):
            raise ValueError("delays and damping each need three laws, one per channel")
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
            raise ValueError("delayed gains need trace histories and delay laws")
        if reason := delayed_step_error(dt, delays):
            raise ValueError(reason)
        if any(h.times[-1] > 0.0 for h, b in zip(histories, gains.betas) if b != 0.0):
            raise ValueError("a delayed channel's trace history must end at t <= 0")


def simulate(initial, sys_, cfg, gains=None, delays=None, damping=None, histories=None, controls=None):
    """Advance the system over [0, T] and record the trajectory.

    Both variants take the same midpoint steps.  A controlled run may carry
    controls and records the boundary displacement traces.  A stabilized run
    may carry gains, delays and interior damping (three laws each, one per
    channel) and trace histories, and records the delayed traces, the
    delay-window tilts and the dissipation ledger.  Arguments the variant
    has no use for raise ValueError; none of the arguments is changed.
    """
    n_steps = cfg.n_steps
    dt = cfg.step
    _check_arguments(sys_, dt, gains, delays, damping, histories, controls)
    _check_finite(initial.q, initial.p, 0)
    stabilized = sys_.variant == VARIANT_STABILIZED
    gains = gains if gains is not None else _NO_GAINS
    betas = gains.betas
    delayed = gains.any_delayed
    stepper = _Stepper(sys_, dt, gains)
    times = cfg.times
    t_mid = times[:-1] + 0.5 * dt
    # each channel's law in one call on the whole midpoint grid
    a_mid = np.zeros((n_steps, 3))
    if damping is not None:
        a_mid = np.column_stack([law.a(t_mid) for law in damping])
    dtau_mid = np.zeros((n_steps, 3))
    if delays is not None:
        dtau_mid = np.column_stack([law.dtau(t_mid) for law in delays])
    lines = []
    if delayed:
        # the newest midpoint sample trails the step end by dt/2
        extension = 0.5 * dt * (1.0 + 1e-9)
        lines = _delay_lines(histories, delays, betas, t_mid, times, extension)
    channel_force = None
    if controls is not None and n_steps:
        channel_force = _control_midpoints(controls, t_mid) * sys_.params.trace_masses
    # delayed feedback on channel i: -c_i * beta_i * z_i * coeff_i
    feedback_weights = np.asarray(sys_.params.boundary_stiffness) * betas

    field_energy = np.empty(n_steps + 1)
    tr_vel = np.empty((n_steps + 1, 3))
    # the decimated states: every stride-th step, the last one moved to n_steps
    slots = np.arange(0, n_steps + cfg.stride, cfg.stride)
    slots[-1] = n_steps
    states_q = np.empty((len(slots), sys_.ndof))
    states_p = np.empty((len(slots), sys_.ndof))
    tr_disp = ledger = None
    if stabilized:
        ledger = {
            "t_mid": t_mid,
            "a_mid": a_mid,
            "vel_norms_mid": np.zeros((n_steps, 3)),
            "trace_mid": np.zeros((n_steps, 3)),
            "z_mid": np.zeros((n_steps, 3)),
            "dtau_mid": dtau_mid,
        }
    else:
        tr_disp = np.empty((n_steps + 1, 3))

    # the states of one block of steps: row 0 holds the state the block
    # starts from, row r the state after its r-th step, which the stepper
    # writes in place
    block = max(1, min(n_steps, _block_steps(sys_.ndof)))
    q_block = np.empty((block + 1, sys_.ndof))
    v_block = np.empty((block + 1, sys_.ndof))
    q_rows, v_rows = list(q_block), list(v_block)

    def record(base, first, last):
        """Fill the series at the block's states base + first .. base + last
        (rows first..last) and at the step midpoints that end in them, and
        check every value the block recorded."""
        rows = slice(first, last + 1)
        at = slice(base + first, base + last + 1)
        field_energy[at] = sys_.field_energy(q_block[rows], v_block[rows])
        tr_vel[at] = sys_.traces(v_block[rows])
        recorded = [field_energy[at], tr_vel[at]]
        if tr_disp is not None:
            tr_disp[at] = sys_.traces(q_block[rows])
            recorded.append(tr_disp[at])
        if ledger is not None:
            v_mid = v_block[:last] + v_block[1 : last + 1]
            v_mid *= 0.5
            mid = slice(base, base + last)
            ledger["trace_mid"][mid] = sys_.traces(v_mid)
            v_mid *= v_mid
            ledger["vel_norms_mid"][mid] = np.dot(v_mid, sys_.field_weights.T)
            recorded += [ledger[key][mid] for key in ("trace_mid", "vel_norms_mid", "z_mid")]
        # the midpoint rows base .. base + last - 1 end in the steps
        # base + 1 .. base + last, the states of rows 1..last: with first = 1
        # both start at step base + first, and with first = 0 there are none
        _check_records("field energy, trace or ledger value", base + first, *recorded)
        lo, hi = np.searchsorted(slots, (base + first, base + last + 1))
        if hi > lo:
            states_q[lo:hi] = q_block[slots[lo:hi] - base]
            states_p[lo:hi] = v_block[slots[lo:hi] - base]

    channels = sys_.channel_index
    force = np.zeros(sys_.ndof)
    # each delayed channel's lookups z_i at the block's step midpoints
    z_lists = [[0.0] * block for _ in lines]
    # the steps whose damping weights differ from the previous step's: the
    # only steps that refactor
    changes = np.ones(n_steps, dtype=bool)
    changes[1:] = np.any(a_mid[1:] != a_mid[:-1], axis=1)
    refactors = np.flatnonzero(changes)
    q_block[0] = initial.q
    v_block[0] = initial.p
    # a state or a record may overflow on its way to the checks that report
    # it, which name its step; numpy need not warn of it as well
    with np.errstate(over="ignore"):
        record(0, 0, 0)
        for base in range(0, n_steps, block):
            stop = min(base + block, n_steps)
            lo, hi = np.searchsorted(refactors, (base, stop))
            if hi > lo:
                stepper.tabulate(a_mid[refactors[lo:hi]])
            # the block's refactoring steps, by place in the block, each with
            # its row of the table
            table_rows = {k - base: r for r, k in enumerate(refactors[lo:hi].tolist())}
            # each delayed channel's stencils for the block, as Python lists:
            # numpy scalars would cost more than the arithmetic
            stencils = [
                (first + base, ys, ms, gaps[base:stop].tolist(), js[base:stop].tolist(),
                 weights[base:stop].tolist(), zs, channels.item(i), sys_.channel_coeff.item(i),
                 feedback_weights.item(i))
                for (i, first, ys, ms, gaps, js, weights, _), zs in zip(lines, z_lists)
            ]
            for n in range(base, stop):
                j = n - base
                if j in table_rows:
                    stepper.refactor(table_rows[j])
                if channel_force is not None:
                    force[channels] = channel_force[n]
                for _, ys, ms, _, js, weights, zs, c, coeff, fw in stencils:
                    k = js[j]
                    w0, w1, w2, w3 = weights[j]
                    zs[j] = z = w0 * ys[k] + w1 * ms[k] + w2 * ys[k + 1] + w3 * ms[k + 1]
                    # the delayed feedback -c_i * beta_i * z_i * coeff_i, as
                    # 0.0 - x so that a zero feedback is +0.0
                    force[c] = 0.0 - fw * z * coeff
                v, q1, v1 = v_rows[j], q_rows[j + 1], v_rows[j + 1]
                stepper.advance(q_rows[j], v, force, q1, v1)
                _check_finite(q1, v1, n + 1)
                for slot, ys, ms, gaps, _, _, _, c, coeff, _ in stencils:
                    k = slot + j
                    y = coeff * (0.5 * (v.item(c) + v1.item(c)))
                    ys[k] = y
                    # Midpoint samples keep the delayed feedback loop stable: the
                    # undamped grid-frequency modes of the conservative scheme
                    # average out at step midpoints, so they never re-enter
                    # through the delay line.  Slopes are backward differences
                    # of the recorded values themselves (the raw accelerations
                    # carry the unfiltered ringing and would reopen the loop
                    # through the Hermite terms).
                    ms[k] = (y - ys[k - 1]) / gaps[j]
            for (i, *_), zs in zip(lines, z_lists):
                ledger["z_mid"][base:stop, i] = zs[: stop - base]
            record(base, 1, stop - base)
            q_block[0] = q_block[stop - base]
            v_block[0] = v_block[stop - base]

    # the window pass over each filled record, deferred until a caller
    # reads a delay-line series
    windows = None
    if stabilized:
        windows = tuple(
            (i, 0.5 * abs(betas[i]), partial(integrals, np.array(ys), np.array(ms)))
            for i, _, ys, ms, *_, integrals in lines
        )

    return SimOutput(
        variant=sys_.variant,
        dt=dt,
        times=times,
        field_energy=field_energy,
        trace_velocities=tr_vel,
        displacement_traces=tr_disp,
        samples=slots,
        states_q=states_q,
        states_p=states_p,
        ledger=ledger,
        windows=windows,
    )
