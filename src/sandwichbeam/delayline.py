"""Boundary-trace history with delayed lookups and exact delay-line integrals.

The delayed feedback needs trace velocities at t - tau_i(t), and the
delay-line energy needs integrals of y_i(s)^2 over [t - tau_i(t), t].  Both
read one (t, value, slope) sample stream per channel, interpolated by cubic
Hermite polynomials with the slopes the integrator pushes.  A history
keeps every sample it is given, so it is the one record of its channel
that both readers read; ``delay_samples`` samples the delays on a whole
time grid and refuses one longer than its declared cap.

The two readers differ in shape.  A lookup reads one point per step, at a
delayed argument sampled before the run, so ``TraceHistory`` keeps its
samples as Python floats and the lookup kernel is scalar Python: a
bisection finds the segment, and numpy's per-call overhead would cost more
than the arithmetic it saves.  The window integrals are diagnostics that
nothing in a step reads, so ``window_integrals`` computes them for every
window of a run in one numpy pass over the whole sample record, after the
run.  On a cubic segment the integrands have degree <= 7, so 4-point
Gauss-Legendre integrates them exactly.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

__all__ = [
    "LookupBeforeHistory",
    "TraceHistory",
    "init_history",
    "push",
    "delay_samples",
    "delay_window",
    "window_integrals",
]

# 4-point Gauss-Legendre on [0, 1]: exact for polynomials of degree <= 7
_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(4)
_GAUSS = tuple(zip((0.5 * (_GAUSS_X + 1.0)).tolist(), (0.5 * _GAUSS_W).tolist()))
# window-by-segment entries one block of ``window_integrals`` holds at most
_BLOCK = 1 << 12


def _hermite(s, h, y0, m0, y1, m1):
    """Cubic Hermite value at local coordinate s in [0, 1] of a segment of
    length h; floats or arrays."""
    s2 = s * s
    s3 = s2 * s
    return (
        (2.0 * s3 - 3.0 * s2 + 1.0) * y0
        + (s3 - 2.0 * s2 + s) * h * m0
        + (-2.0 * s3 + 3.0 * s2) * y1
        + (s3 - s2) * h * m1
    )


class LookupBeforeHistory(RuntimeError):
    """A delayed lookup or window reached outside the recorded samples, or a
    sampled delay exceeded its declared cap: a scheme or delay-law bug."""


class TraceHistory:
    """Ordered (t, value, slope) samples of one boundary trace.

    The samples are plain float lists that only grow: point lookups read
    them directly, and ``delay_window`` hands them to ``window_integrals``.

    ``extension`` permits constant continuation past the newest sample by
    at most that much; the integrator records samples at step midpoints
    (which filters out the undamped grid-frequency modes) and sets the
    extension to half a step so endpoint lookups stay exact.
    """

    def __init__(self, channel, extension=0.0):
        self.channel = channel
        self.extension = extension
        self._t, self._y, self._m = [], [], []

    def __len__(self):
        return len(self._t)

    @property
    def times(self):
        return np.array(self._t)

    @property
    def values(self):
        return np.array(self._y)

    @property
    def slopes(self):
        return np.array(self._m)

    @property
    def last_time(self):
        return self._t[-1]

    @property
    def last_value(self):
        return self._y[-1]

    def _append(self, t, value, slope):
        self._t.append(float(t))
        self._y.append(float(value))
        self._m.append(float(slope))

    def _segment(self, theta):
        """Segment j = [t_j, t_{j+1}] holding theta (the tail maps to the last),
        once theta is checked to lie in the samples."""
        ts = self._t
        if theta < ts[0] - 1e-12:
            raise LookupBeforeHistory(
                f"channel {self.channel}: lookup at t={theta:.6g} "
                f"before earliest sample t={ts[0]:.6g}"
            )
        if theta > ts[-1] + self.extension + 1e-12:
            raise LookupBeforeHistory(
                f"channel {self.channel}: lookup at t={theta:.6g} "
                f"beyond newest sample t={ts[-1]:.6g} (+extension {self.extension:.3g})"
            )
        j = bisect.bisect_right(ts, theta) - 1
        return min(max(j, 0), len(ts) - 2)

    def value_at(self, theta):
        """The trace at one past time theta."""
        j = self._segment(theta)
        ts, ys, ms = self._t, self._y, self._m
        # exact passthrough at the newest sample; lookups inside the extension
        # window clamp to it (keeps the delay line on the recorded stream)
        if theta >= ts[-1]:
            return ys[-1]
        h = ts[j + 1] - ts[j]
        s = min(max((theta - ts[j]) / h, 0.0), 1.0)
        return _hermite(s, h, ys[j], ms[j], ys[j + 1], ms[j + 1])

    def interpolate(self, thetas):
        """Evaluate the trace at (an array of) past times."""
        return np.array([self.value_at(theta) for theta in np.ravel(thetas).tolist()])


def init_history(channel, initial_fn, tau0, n_samples=64):
    """Sample the initial trace function on [-tau0, 0] at uniform points.

    Slopes are recovered by second-order finite differences of the samples,
    good enough since the initial segment is only ever read, never
    extrapolated.
    """
    if not tau0 > 0.0:
        raise ValueError(f"initial delay must be positive, got {tau0!r}")
    hist = TraceHistory(channel)
    ts = np.linspace(-tau0, 0.0, n_samples)
    ys = np.array([float(initial_fn(t)) for t in ts])
    ms = np.gradient(ys, ts)
    for t, y, m in zip(ts, ys, ms):
        hist._append(t, y, m)
    return hist


def push(history, t, value, slope):
    """Append one sample; time must advance strictly."""
    last = history.last_time if len(history) else -math.inf
    if not t > last:
        raise ValueError(f"non-monotone push: t={t!r} after t={last!r}")
    history._append(t, value, slope)


def delay_samples(delays, channel, times):
    """tau_i at each of ``times``, as an array; LookupBeforeHistory names the
    first sample past the channel's declared cap."""
    taus = np.array([delays.tau(channel, t) for t in np.asarray(times, dtype=float).tolist()])
    over = np.flatnonzero(taus > delays.cap(channel) + 1e-12)
    if over.size:
        k = over[0]
        raise LookupBeforeHistory(
            f"channel {channel}: delay {taus[k]:.6g} at t={times[k]:.6g} "
            f"exceeds its declared cap {delays.cap(channel):.6g}"
        )
    return taus


def _segment_integrals(ts, ys, ms):
    """int y^2 ds and int (s - t_{k-1}) y^2 ds over each segment [t_{k-1}, t_k],
    stored at k (zero at k = 0)."""
    h = np.diff(ts)
    e = np.zeros(len(ts))
    f = np.zeros(len(ts))
    for s, w in _GAUSS:
        y = _hermite(s, h, ys[:-1], ms[:-1], ys[1:], ms[1:])
        piece = h * w * y * y
        e[1:] += piece
        f[1:] += h * s * piece
    return e, f


def _window_block(ts, ys, ms, e, f, ends, thetas, j, newest):
    """Unscaled (I0, I1) and z of a block of windows whose start segments j
    and newest samples are known; every sum runs left to right."""
    t0, t1 = ts[j], ts[j + 1]
    h = t1 - t0
    y0, m0, y1, m1 = ys[j], ms[j], ys[j + 1], ms[j + 1]
    # the partial piece [theta, t_{j+1}] of segment j, in its local coordinate
    span = np.maximum(t1 - thetas, 0.0)
    sigma = 1.0 - span / h
    i0 = np.zeros(len(ends))
    i1 = np.zeros(len(ends))
    for s, w in _GAUSS:
        y = _hermite(sigma + (1.0 - sigma) * s, h, y0, m0, y1, m1)
        piece = span * w * (y * y)
        i0 += piece
        i1 += span * s * piece
    # whole segments j+2 .. newest, each window's along one row of a padded
    # block: a running sum along the row adds them in order, and the zero
    # padding past them leaves it unchanged
    count = newest - j - 1
    width = int(count.max())
    if width:
        cols = np.arange(width)
        whole = cols < count[:, None]
        k = np.minimum(j[:, None] + 2 + cols, newest[:, None])
        ek = e[k]
        row = np.empty((len(ends), width + 1))
        row[:, 0] = i0
        row[:, 1:] = np.where(whole, ek, 0.0)
        i0 = np.cumsum(row, axis=1)[:, -1]
        row[:, 0] = i1
        row[:, 1:] = np.where(whole, (ts[k - 1] - thetas[:, None]) * ek + f[k], 0.0)
        i1 = np.cumsum(row, axis=1)[:, -1]
    # the constant tail past the newest sample
    tn, yn = ts[newest], ys[newest]
    start = np.maximum(thetas, tn)
    y2 = yn * yn
    i0 += y2 * (ends - start)
    d_end, d_start = ends - thetas, start - thetas
    i1 += 0.5 * y2 * (d_end * d_end - d_start * d_start)
    s = np.clip((thetas - t0) / h, 0.0, 1.0)
    z = np.where(thetas >= tn, yn, _hermite(s, h, y0, m0, y1, m1))
    return i0, i1, z


def window_integrals(ts, ys, ms, ends, taus, extension=0.0, channel=0):
    """(I0, I1, z) of the windows [ends - taus, ends] over one sample record, as arrays.

    The record is the (t, value, slope) samples of one trace, times strictly
    increasing.  Window k reads the samples up to n, the newest one at or
    before ends[k], plus the constant continuation of sample n, which may
    reach at most ``extension`` past it; it must start at or after the
    earliest sample, else LookupBeforeHistory is raised, as it is for too
    long a tail.

    I0 = int y(s)^2 ds and I1 = int (1 - (t - s)/tau) y(s)^2 ds, which are
    tau * int z^2 drho and tau * int (1 - rho) z^2 drho for the rescaled
    profile: the partial first segment by 4-point Gauss-Legendre on its
    Hermite cubic, the whole segments from their integrals by the same
    rule, and the tail in closed form, summed left to right.
    z = y(t - tau) is the window's start value, read from the same segment.
    The windows go through in blocks of at most about ``_BLOCK`` window
    segments, so the pass holds O(n + _BLOCK) values for n samples and
    windows.
    """
    ts, ys, ms = (np.asarray(a, dtype=float) for a in (ts, ys, ms))
    ends = np.asarray(ends, dtype=float)
    taus = np.asarray(taus, dtype=float)
    thetas = ends - taus
    newest = np.searchsorted(ts, ends, side="right") - 1
    early = (newest < 0) | (thetas < ts[0] - 1e-12)
    late = ends > ts[np.maximum(newest, 0)] + extension + 1e-12
    bad = np.flatnonzero(early | late)
    if bad.size:
        k = bad[0]
        if early[k]:
            raise LookupBeforeHistory(
                f"channel {channel}: lookup at t={thetas[k]:.6g} "
                f"before earliest sample t={ts[0]:.6g}"
            )
        raise LookupBeforeHistory(
            f"channel {channel}: lookup at t={ends[k]:.6g} "
            f"beyond newest sample t={ts[newest[k]]:.6g} (+extension {extension:.3g})"
        )
    # segment j = [t_j, t_{j+1}] holds the window start (the tail maps to the last)
    j = np.minimum(np.maximum(np.searchsorted(ts, thetas, side="right") - 1, 0), newest - 1)
    e, f = _segment_integrals(ts, ys, ms)
    i0, i1, z = (np.empty(len(ends)) for _ in range(3))
    size = max(1, _BLOCK // max(1, int((newest - j).max(initial=0))))
    for b in range(0, len(ends), size):
        blk = slice(b, b + size)
        i0[blk], i1[blk], z[blk] = _window_block(
            ts, ys, ms, e, f, ends[blk], thetas[blk], j[blk], newest[blk]
        )
    return i0, i1 / taus, z


def delay_window(history, t, tau):
    """(I0, I1, z) over one window [t - tau, t], which must reach the newest
    sample: ``window_integrals`` on the history's samples."""
    t = float(t)
    if t < history.last_time:
        raise ValueError(f"window end t={t!r} before the newest sample t={history.last_time!r}")
    i0, i1, z = window_integrals(
        history.times,
        history.values,
        history.slopes,
        [t],
        [tau],
        extension=history.extension,
        channel=history.channel,
    )
    return float(i0[0]), float(i1[0]), float(z[0])
