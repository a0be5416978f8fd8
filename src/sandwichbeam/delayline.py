"""Boundary-trace history with delayed lookups and exact delay-line integrals.

The delayed feedback needs trace velocities at t - tau_i(t), and the
delay-line energy needs integrals of y_i(s)^2 over [t - tau_i(t), t].  Both
are served by one (t, value, slope) buffer per channel, interpolated by
cubic Hermite polynomials with the slopes the integrator pushes.  On a
cubic segment the integrands have degree <= 7, so 4-point Gauss-Legendre
integrates them exactly.  Because tau' <= d < 1, the delayed argument is
increasing, so samples older than the retention horizon can be evicted.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "LookupBeforeHistory",
    "TraceHistory",
    "init_history",
    "push",
    "eval_delayed",
    "delay_integrals",
]

# 4-point Gauss-Legendre on [0, 1]: exact for polynomials of degree <= 7
_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(4)
_GAUSS_S, _GAUSS_W = 0.5 * (_GAUSS_X + 1.0), 0.5 * _GAUSS_W
_GAUSS = tuple(zip(_GAUSS_S.tolist(), _GAUSS_W.tolist()))


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

    Beside each sample k it keeps the integrals over the segment that ends
    there, ``_e[k]`` = int y^2 ds and ``_f[k]`` = int (s - t_{k-1}) y^2 ds
    (zero for the first sample ever appended).

    ``extension`` permits constant continuation past the newest sample by
    at most that much; the integrator records samples at step midpoints
    (which filters out the undamped grid-frequency modes) and sets the
    extension to half a step so endpoint lookups stay exact.
    """

    def __init__(self, channel, retention, extension=0.0):
        self.channel = channel
        self.retention = retention
        self.extension = extension
        cap = 1024
        self._t = np.empty(cap)
        self._y = np.empty(cap)
        self._m = np.empty(cap)
        self._e = np.empty(cap)
        self._f = np.empty(cap)
        self._start = 0
        self._n = 0
        self._last_primary_theta = -np.inf

    def __len__(self):
        return self._n - self._start

    @property
    def times(self):
        return self._t[self._start : self._n]

    @property
    def values(self):
        return self._y[self._start : self._n]

    @property
    def last_time(self):
        return self._t[self._n - 1]

    @property
    def last_value(self):
        return self._y[self._n - 1]

    def _grow(self):
        size = self._t.size
        compact = self._start > size // 2
        if not compact and self._n < size:
            return
        # eviction only moved the start pointer: drop the evicted samples, and
        # double the capacity when the live ones fill the buffer
        live = self._n - self._start
        for name in ("_t", "_y", "_m", "_e", "_f"):
            new = np.empty(size if compact else 2 * size)
            new[:live] = getattr(self, name)[self._start : self._n]
            setattr(self, name, new)
        self._n, self._start = live, 0

    def _append(self, t, value, slope):
        self._grow()
        n = self._n
        if n > self._start:
            h = t - self._t[n - 1]
            y = _hermite(_GAUSS_S, h, self._y[n - 1], self._m[n - 1], value, slope)
            w = h * _GAUSS_W * y * y
            self._e[n] = w.sum()
            self._f[n] = h * float(np.dot(w, _GAUSS_S))
        else:
            self._e[n] = self._f[n] = 0.0
        self._t[n] = t
        self._y[n] = value
        self._m[n] = slope
        self._n = n + 1

    def _segments(self, thetas):
        """Live segment index of each retained time (the tail maps to the last)."""
        ts = self.times
        if thetas.min() < ts[0] - 1e-12:
            raise LookupBeforeHistory(
                f"channel {self.channel}: lookup at t={thetas.min():.6g} "
                f"before earliest retained sample t={ts[0]:.6g}"
            )
        if thetas.max() > ts[-1] + self.extension + 1e-12:
            raise LookupBeforeHistory(
                f"channel {self.channel}: lookup at t={thetas.max():.6g} "
                f"beyond newest sample t={ts[-1]:.6g} (+extension {self.extension:.3g})"
            )
        k = np.searchsorted(ts, thetas, side="right") - 1
        return np.minimum(np.maximum(k, 0), len(ts) - 2)

    def interpolate(self, thetas):
        """Evaluate the trace at (an array of) past times."""
        # a scalar stays a numpy scalar, whose arithmetic is far cheaper than
        # that of a one-element array and rounds identically
        thetas = np.asarray(thetas, dtype=float)[()]
        k = self._segments(thetas)
        ts, ys, ms = self.times, self.values, self._m[self._start : self._n]
        h = ts[k + 1] - ts[k]
        # np.minimum/np.maximum clip like np.clip at a fraction of its call cost
        s = np.minimum(np.maximum((thetas - ts[k]) / h, 0.0), 1.0)
        out = np.atleast_1d(_hermite(s, h, ys[k], ms[k], ys[k + 1], ms[k + 1]))
        # exact passthrough at the newest sample; lookups inside the extension
        # window clamp to it (keeps the delay line on the recorded stream)
        tail = np.atleast_1d(thetas >= self.last_time)
        if np.any(tail):
            out[tail] = self.last_value
        return out


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
    last = history.last_time if len(history) else -np.inf
    if not t > last:
        raise ValueError(f"non-monotone push: t={t!r} after t={last!r}")
    history._append(t, value, slope)
    if np.isfinite(history.retention):
        horizon = t - history.retention - 2.0 * (t - last)
        while history._start < history._n - 1 and history._t[history._start + 1] <= horizon:
            history._start += 1


def eval_delayed(history, channel, t, delays):
    """Trace value at the delayed argument theta = t - tau_i(t).

    Asserts that theta increases from call to call (guaranteed when the
    delay spec obeys tau' <= d < 1 and simulation time moves forward).
    """
    theta = t - delays.tau(channel, t)
    if theta < history._last_primary_theta - 1e-12:
        raise AssertionError(
            f"channel {channel}: delayed argument not increasing "
            f"({theta} after {history._last_primary_theta})"
        )
    history._last_primary_theta = theta
    return float(history.interpolate(theta)[0])


def delay_integrals(history, t, tau):
    """(I0, I1) over the window [t - tau, t], which must reach the newest sample.

    I0 = int y(s)^2 ds and I1 = int (1 - (t - s)/tau) y(s)^2 ds, which are
    tau * int z^2 drho and tau * int (1 - rho) z^2 drho for the rescaled
    profile: the partial first segment by 4-point Gauss-Legendre on its
    Hermite cubic, the whole segments from their stored integrals, and the
    part past the newest sample from its constant value.
    """
    theta = t - tau
    if t < history.last_time:
        raise ValueError(f"window end t={t!r} before the newest sample t={history.last_time!r}")
    j = history._start + int(history._segments(np.array([theta, t]))[0])
    ts = history._t
    # the partial piece [theta, t_{j+1}] of segment j, in its local coordinate;
    # the kernel on Python floats takes half the time it takes on four-node arrays
    (t0, t1), (y0, y1), (m0, m1) = (a[j : j + 2].tolist() for a in (ts, history._y, history._m))
    span = max(t1 - theta, 0.0)
    sigma = 1.0 - span / (t1 - t0)
    i0 = i1 = 0.0
    for s, w in _GAUSS:
        piece = span * w * _hermite(sigma + (1.0 - sigma) * s, t1 - t0, y0, m0, y1, m1) ** 2
        i0 += piece
        i1 += span * s * piece
    # whole segments j+1 .. newest, stored at their closing samples
    e = history._e[j + 2 : history._n]
    i0 += e.sum()
    i1 += np.dot(ts[j + 1 : history._n - 1] - theta, e) + history._f[j + 2 : history._n].sum()
    start = max(theta, history.last_time)
    y2 = history.last_value ** 2
    i0 += y2 * (t - start)
    i1 += 0.5 * y2 * ((t - theta) ** 2 - (start - theta) ** 2)
    return float(i0), float(i1) / tau
