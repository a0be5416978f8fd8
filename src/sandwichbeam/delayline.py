"""Boundary-trace history with delayed lookups and exact delay-line integrals.

The delayed feedback needs trace velocities at t - tau_i(t), and the
delay-line energy needs integrals of y_i(s)^2 over [t - tau_i(t), t].  Both
are served by one (t, value, slope) sample list per channel, interpolated
by cubic Hermite polynomials with the slopes the integrator pushes.  On a
cubic segment the integrands have degree <= 7, so 4-point Gauss-Legendre
integrates them exactly.  Because tau' <= d < 1, the delayed argument is
increasing, so samples older than the retention horizon can be evicted.

Every lookup reads one point, so the samples are Python floats and the
kernels scalar Python: a bisection finds the segment, and numpy's per-call
overhead would cost more than the arithmetic it saves.
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
    "eval_delayed",
    "delay_window",
]

# 4-point Gauss-Legendre on [0, 1]: exact for polynomials of degree <= 7
_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(4)
_GAUSS = tuple(zip((0.5 * (_GAUSS_X + 1.0)).tolist(), (0.5 * _GAUSS_W).tolist()))


def _hermite(s, h, y0, m0, y1, m1):
    """Cubic Hermite value at local coordinate s in [0, 1] of a segment of length h."""
    s2 = s * s
    s3 = s2 * s
    return (
        (2.0 * s3 - 3.0 * s2 + 1.0) * y0
        + (s3 - 2.0 * s2 + s) * h * m0
        + (-2.0 * s3 + 3.0 * s2) * y1
        + (s3 - s2) * h * m1
    )


class LookupBeforeHistory(RuntimeError):
    """A delayed lookup reached past the retained samples: a scheme bug."""


class TraceHistory:
    """Ordered (t, value, slope) samples of one boundary trace.

    The samples are plain float lists, live from index ``_start`` on; the
    evicted prefix is deleted once it is more than half of them.  Beside
    sample k the lists ``_e`` and ``_f`` keep the integrals over the segment
    that ends there, int y^2 ds and int (s - t_{k-1}) y^2 ds (zero for the
    first sample ever appended).

    ``extension`` permits constant continuation past the newest sample by
    at most that much; the integrator records samples at step midpoints
    (which filters out the undamped grid-frequency modes) and sets the
    extension to half a step so endpoint lookups stay exact.
    """

    def __init__(self, channel, retention, extension=0.0):
        self.channel = channel
        self.retention = retention
        self.extension = extension
        self._t, self._y, self._m, self._e, self._f = [], [], [], [], []
        self._start = 0
        self._last_primary_theta = -math.inf

    def __len__(self):
        return len(self._t) - self._start

    @property
    def times(self):
        return np.array(self._t[self._start :])

    @property
    def values(self):
        return np.array(self._y[self._start :])

    @property
    def last_time(self):
        return self._t[-1]

    @property
    def last_value(self):
        return self._y[-1]

    def _append(self, t, value, slope):
        t, value, slope = float(t), float(value), float(slope)
        e = f = 0.0
        if len(self):
            h = t - self._t[-1]
            y0, m0 = self._y[-1], self._m[-1]
            for s, w in _GAUSS:
                y = _hermite(s, h, y0, m0, value, slope)
                piece = h * w * y * y
                e += piece
                f += h * s * piece
        for buf, x in zip((self._t, self._y, self._m, self._e, self._f), (t, value, slope, e, f)):
            buf.append(x)

    def _evict(self, horizon):
        """Skip the samples no lookup after ``horizon`` reaches; delete them past half."""
        ts, start = self._t, self._start
        while start < len(ts) - 1 and ts[start + 1] <= horizon:
            start += 1
        if start > len(ts) // 2:
            for buf in (self._t, self._y, self._m, self._e, self._f):
                del buf[:start]
            start = 0
        self._start = start

    def _segment(self, theta, end):
        """Segment j = [t_j, t_{j+1}] holding theta (the tail maps to the last),
        once [theta, end] is checked to lie in the retained samples."""
        ts = self._t
        if theta < ts[self._start] - 1e-12:
            raise LookupBeforeHistory(
                f"channel {self.channel}: lookup at t={theta:.6g} "
                f"before earliest retained sample t={ts[self._start]:.6g}"
            )
        if end > ts[-1] + self.extension + 1e-12:
            raise LookupBeforeHistory(
                f"channel {self.channel}: lookup at t={end:.6g} "
                f"beyond newest sample t={ts[-1]:.6g} (+extension {self.extension:.3g})"
            )
        j = bisect.bisect_right(ts, theta, self._start) - 1
        return min(max(j, self._start), len(ts) - 2)

    def _value(self, j, theta):
        ts, ys, ms = self._t, self._y, self._m
        # exact passthrough at the newest sample; lookups inside the extension
        # window clamp to it (keeps the delay line on the recorded stream)
        if theta >= ts[-1]:
            return ys[-1]
        h = ts[j + 1] - ts[j]
        s = min(max((theta - ts[j]) / h, 0.0), 1.0)
        return _hermite(s, h, ys[j], ms[j], ys[j + 1], ms[j + 1])

    def value_at(self, theta):
        """The trace at one past time theta."""
        return self._value(self._segment(theta, theta), theta)

    def interpolate(self, thetas):
        """Evaluate the trace at (an array of) past times."""
        return np.array([self.value_at(theta) for theta in np.ravel(thetas).tolist()])


def init_history(channel, initial_fn, tau0, retention=None, n_samples=64):
    """Sample the initial trace function on [-tau0, 0] at uniform points.

    Slopes are recovered by second-order finite differences of the samples,
    good enough since the initial segment is only ever read, never
    extrapolated.
    """
    if not tau0 > 0.0:
        raise ValueError(f"initial delay must be positive, got {tau0!r}")
    hist = TraceHistory(channel, retention=tau0 if retention is None else retention)
    ts = np.linspace(-tau0, 0.0, n_samples)
    ys = np.array([float(initial_fn(t)) for t in ts])
    ms = np.gradient(ys, ts)
    for t, y, m in zip(ts, ys, ms):
        hist._append(t, y, m)
    return hist


def push(history, t, value, slope):
    """Append one sample; time must advance strictly; evict unreachable past."""
    last = history.last_time if len(history) else -math.inf
    if not t > last:
        raise ValueError(f"non-monotone push: t={t!r} after t={last!r}")
    history._append(t, value, slope)
    if math.isfinite(history.retention):
        history._evict(t - history.retention - 2.0 * (t - last))


def eval_delayed(history, channel, t, delays):
    """Trace value at the delayed argument theta = t - tau_i(t).

    Asserts that theta increases from call to call (guaranteed when the
    delay spec obeys tau' <= d < 1 and simulation time moves forward).
    """
    theta = float(t - delays.tau(channel, t))
    if theta < history._last_primary_theta - 1e-12:
        raise AssertionError(
            f"channel {channel}: delayed argument not increasing "
            f"({theta} after {history._last_primary_theta})"
        )
    history._last_primary_theta = theta
    return history.value_at(theta)


def delay_window(history, t, tau):
    """(I0, I1, z) over the window [t - tau, t], which must reach the newest sample.

    I0 = int y(s)^2 ds and I1 = int (1 - (t - s)/tau) y(s)^2 ds, which are
    tau * int z^2 drho and tau * int (1 - rho) z^2 drho for the rescaled
    profile: the partial first segment by 4-point Gauss-Legendre on its
    Hermite cubic, the whole segments from their stored integrals, and the
    part past the newest sample from its constant value.  z = y(t - tau) is
    the window's start value, read from the same segment.
    """
    t = float(t)
    theta = t - tau
    ts, ys, ms = history._t, history._y, history._m
    if t < ts[-1]:
        raise ValueError(f"window end t={t!r} before the newest sample t={ts[-1]!r}")
    j = history._segment(theta, t)
    # the partial piece [theta, t_{j+1}] of segment j, in its local coordinate
    t1, h = ts[j + 1], ts[j + 1] - ts[j]
    span = max(t1 - theta, 0.0)
    sigma = 1.0 - span / h
    i0 = i1 = 0.0
    for s, w in _GAUSS:
        piece = span * w * _hermite(sigma + (1.0 - sigma) * s, h, ys[j], ms[j], ys[j + 1], ms[j + 1]) ** 2
        i0 += piece
        i1 += span * s * piece
    # whole segments j+1 .. newest, stored at their closing samples
    for k in range(j + 2, len(ts)):
        e = history._e[k]
        i0 += e
        i1 += (ts[k - 1] - theta) * e + history._f[k]
    start = max(theta, ts[-1])
    y2 = ys[-1] ** 2
    i0 += y2 * (t - start)
    i1 += 0.5 * y2 * ((t - theta) ** 2 - (start - theta) ** 2)
    return i0, i1 / tau, history._value(j, theta)
