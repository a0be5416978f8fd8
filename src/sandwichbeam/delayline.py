"""Boundary-trace sample records with delayed lookups and exact delay-line integrals.

The delayed feedback needs trace velocities at t - tau_i(t), and the
delay-line energy needs integrals of y_i(s)^2 over [t - tau_i(t), t].  Both
read one (t, value, slope) sample record per channel, interpolated by cubic
Hermite polynomials: the initial history on [-tau_i(0), 0], a read-only
``TraceHistory``, followed by the one sample per step that the integrator
writes.  The record's times are known before the run, and so are the
delayed arguments, which ``delay_samples`` samples on a whole time grid in
one call of the delay law, refusing a delay longer than its declared cap.
So ``hermite_stencil`` fixes the segment and the four Hermite weights of
every lookup before the first step, and a step only applies them to
stored values.

The window integrals are diagnostics that nothing in a step reads.
``delay_windows`` checks every window of a run against the record's times
before the run, and returns the integrator that computes them all in one
numpy pass over the filled record, whenever a caller asks.  The window
starts z come from the same stencil.  On a cubic segment the integrands
have degree <= 7, so 4-point Gauss-Legendre integrates them exactly.  The
pass goes through the windows in blocks, each sized by its own widest
window, and no block changes the order of any sum.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LookupBeforeHistory",
    "TraceHistory",
    "init_history",
    "hermite_stencil",
    "delay_samples",
    "delay_windows",
]

# 4-point Gauss-Legendre on [0, 1], (node, weight): exact for polynomials
# of degree <= 7; numpy's leggauss(4) mapped to [0, 1], written out so that
# no command imports numpy.polynomial
_GAUSS = (
    (0.06943184420297371, 0.17392742256872679),
    (0.33000947820757187, 0.3260725774312732),
    (0.6699905217924281, 0.3260725774312732),
    (0.9305681557970262, 0.17392742256872679),
)
# window-by-segment entries one block of the window pass holds at most
_BLOCK = 1 << 12


def _hermite_weights(s, h):
    """Cubic Hermite weights on (y0, m0, y1, m1) at local coordinate s in
    [0, 1] of a segment of length h; floats or arrays."""
    s2 = s * s
    s3 = s2 * s
    return (2.0 * s3 - 3.0 * s2 + 1.0, (s3 - 2.0 * s2 + s) * h, -2.0 * s3 + 3.0 * s2, (s3 - s2) * h)


def _hermite(s, h, y0, m0, y1, m1):
    """Cubic Hermite value at local coordinate s of a segment of length h,
    summed left to right."""
    w0, w1, w2, w3 = _hermite_weights(s, h)
    return w0 * y0 + w1 * m0 + w2 * y1 + w3 * m1


class LookupBeforeHistory(RuntimeError):
    """A delayed lookup or window reached outside the recorded samples, or a
    sampled delay exceeded its declared cap: a scheme or delay-law bug."""


@dataclass(frozen=True, eq=False)
class TraceHistory:
    """The initial history of one boundary trace: (t, value, slope) samples
    at strictly increasing times, as read-only arrays.

    A run reads it and never changes it: ``simulate`` copies it to the head
    of the channel's sample record.
    """

    times: np.ndarray
    values: np.ndarray
    slopes: np.ndarray

    def __post_init__(self):
        for name in ("times", "values", "slopes"):
            a = np.array(getattr(self, name), dtype=float)
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        ts = self.times
        if ts.ndim != 1 or self.values.shape != ts.shape or self.slopes.shape != ts.shape:
            raise ValueError("times, values and slopes must be 1-d arrays of one length")
        back = np.flatnonzero(~(ts[1:] > ts[:-1]))
        if back.size:
            k = back[0]
            raise ValueError(f"non-monotone history: t={ts[k + 1]!r} after t={ts[k]!r}")


def init_history(initial_fn, tau0, n_samples=64):
    """Sample the initial trace function on [-tau0, 0] at uniform points.

    Slopes are recovered by second-order finite differences of the samples,
    good enough since the initial segment is only ever read, never
    extrapolated.
    """
    if not tau0 > 0.0:
        raise ValueError(f"initial delay must be positive, got {tau0!r}")
    ts = np.linspace(-tau0, 0.0, n_samples)
    ys = np.array([float(initial_fn(t)) for t in ts])
    return TraceHistory(ts, ys, np.gradient(ys, ts))


def hermite_stencil(ts, thetas, newest, extension=0.0, channel=0):
    """Segments and cubic Hermite weights of lookups at ``thetas`` in one
    sample record with times ``ts``, as arrays.

    Lookup k reads the samples up to index newest[k] and the constant
    continuation of that sample, which may reach at most ``extension`` past
    it; one before the earliest sample or beyond that reach raises
    LookupBeforeHistory.  Returns (j, weights): with the record's values y
    and slopes m, the value at thetas[k] is
    w0*y[j] + w1*m[j] + w2*y[j+1] + w3*m[j+1], summed left to right, with
    (w0, w1, w2, w3) = weights[k] and j = j[k].  A theta at or past its
    newest sample y[j+1] has s = 1 and the weights (0, 0, 1, 0) exactly, so
    its value is that sample itself.
    """
    ts = np.asarray(ts, dtype=float)
    thetas = np.asarray(thetas, dtype=float)
    newest = np.asarray(newest)
    tn = ts[np.maximum(newest, 0)]
    early = (newest < 0) | (thetas < ts[0] - 1e-12)
    late = thetas > tn + extension + 1e-12
    bad = np.flatnonzero(early | late)
    if bad.size:
        k = bad[0]
        if early[k]:
            raise LookupBeforeHistory(
                f"channel {channel}: lookup at t={thetas[k]:.6g} "
                f"before earliest sample t={ts[0]:.6g}"
            )
        raise LookupBeforeHistory(
            f"channel {channel}: lookup at t={thetas[k]:.6g} "
            f"beyond newest sample t={tn[k]:.6g} (+extension {extension:.3g})"
        )
    # segment j = [t_j, t_{j+1}] holds theta (the tail maps to the last one)
    j = np.minimum(np.maximum(np.searchsorted(ts, thetas, side="right") - 1, 0), newest - 1)
    t0 = ts[j]
    h = ts[j + 1] - t0
    s = np.clip((thetas - t0) / h, 0.0, 1.0)
    return j, np.column_stack(_hermite_weights(s, h))


def delay_samples(law, channel, times):
    """tau at each of ``times``, as an array, from one call of ``channel``'s
    delay law on the whole array; LookupBeforeHistory names the first sample
    past the law's declared cap."""
    times = np.asarray(times, dtype=float)
    taus = np.asarray(law.tau(times), dtype=float)
    over = np.flatnonzero(taus > law.cap + 1e-12)
    if over.size:
        k = over[0]
        raise LookupBeforeHistory(
            f"channel {channel}: delay {taus[k]:.6g} at t={times[k]:.6g} "
            f"exceeds its declared cap {law.cap:.6g}"
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
    """Unscaled (I0, I1) of a block of windows whose start segments j and
    newest samples are known; every sum runs left to right."""
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
    yn = ys[newest]
    start = np.maximum(thetas, ts[newest])
    y2 = yn * yn
    i0 += y2 * (ends - start)
    d_end, d_start = ends - thetas, start - thetas
    i1 += 0.5 * y2 * (d_end * d_end - d_start * d_start)
    return i0, i1


def _block_starts(widths):
    """Start of each block of windows, one pass: a block grows while its
    windows times its widest window's segments stay within ``_BLOCK`` (it
    always holds one window), so a few wide windows do not shrink every
    other block."""
    starts = [0]
    start = widest = 0
    for k, width in enumerate(widths.tolist()):
        if width > widest:
            widest = width
        if widest * (k + 1 - start) > _BLOCK and k > start:
            start, widest = k, width
            starts.append(k)
    return starts + [len(widths)]


def _integrals(ts, ends, taus, thetas, newest, j, weights, ys, ms):
    """(I0, I1, z) of windows checked by ``delay_windows``, over the record's
    values ``ys`` and slopes ``ms``."""
    ys, ms = np.asarray(ys, dtype=float), np.asarray(ms, dtype=float)
    e, f = _segment_integrals(ts, ys, ms)
    i0, i1 = np.empty(len(ends)), np.empty(len(ends))
    starts = _block_starts(newest - j)
    for b, stop in zip(starts, starts[1:]):
        blk = slice(b, stop)
        i0[blk], i1[blk] = _window_block(
            ts, ys, ms, e, f, ends[blk], thetas[blk], j[blk], newest[blk]
        )
    w0, w1, w2, w3 = weights.T
    z = w0 * ys[j] + w1 * ms[j] + w2 * ys[j + 1] + w3 * ms[j + 1]
    return i0, i1 / taus, z


def delay_windows(ts, ends, taus, extension=0.0, channel=0):
    """Check the windows [ends - taus, ends] against a sample record with
    times ``ts`` and return ``integrals(ys, ms)``, their (I0, I1, z) over the
    record's values and slopes.

    Window k reads the samples up to n, the newest one at or before
    ends[k], plus the constant continuation of sample n, which may reach at
    most ``extension`` past it; a window that starts before the earliest
    sample, or whose tail reaches further, raises LookupBeforeHistory here.
    So a run checks its windows before its first step, and integrates them
    only if its caller reads them.

    I0 = int y(s)^2 ds and I1 = int (1 - (t - s)/tau) y(s)^2 ds, which are
    tau * int z^2 drho and tau * int (1 - rho) z^2 drho for the rescaled
    profile: the partial first segment by 4-point Gauss-Legendre on its
    Hermite cubic, the whole segments from their integrals by the same
    rule, and the tail in closed form, summed left to right.
    z = y(t - tau) is the window's start value, read from the same segment.
    The windows go through in consecutive blocks, each of at most about
    ``_BLOCK`` window segments counted by its own widest window, so the
    pass holds O(n + _BLOCK) values for n samples and windows, and every
    window sums in the same order whatever the blocks.
    """
    ts = np.asarray(ts, dtype=float)
    ends = np.asarray(ends, dtype=float)
    taus = np.asarray(taus, dtype=float)
    newest = np.searchsorted(ts, ends, side="right") - 1
    late = np.flatnonzero(ends > ts[np.maximum(newest, 0)] + extension + 1e-12)
    if late.size:
        k = late[0]
        raise LookupBeforeHistory(
            f"channel {channel}: lookup at t={ends[k]:.6g} "
            f"beyond newest sample t={ts[newest[k]]:.6g} (+extension {extension:.3g})"
        )
    # the stencil refuses a window that starts before the earliest sample
    thetas = ends - taus
    stencil = hermite_stencil(ts, thetas, newest, extension, channel)
    return functools.partial(_integrals, ts, ends, taus, thetas, newest, *stencil)
