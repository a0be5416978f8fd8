import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import sandwichbeam.delayline as delayline
from sandwichbeam.delayline import (
    LookupBeforeHistory,
    TraceHistory,
    delay_samples,
    delay_windows,
    hermite_stencil,
    init_history,
)
from sandwichbeam.params import ConstantDelay, SinusoidalDelay
from sandwichbeam.timestep import SchemeConfig, simulate

from test_timestep import assert_histories_unchanged, decay_scenario, history_copies


def lookup(ts, ys, ms, thetas, newest=None, extension=0.0):
    """The record (ts, ys, ms) at ``thetas``: the ``hermite_stencil`` of the
    lookups, applied point by point as the step loop applies it.  Lookup k
    reads the samples up to newest[k], by default the whole record."""
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    if newest is None:
        newest = np.full(len(thetas), len(ts) - 1)
    js, weights = hermite_stencil(ts, thetas, newest, extension)
    got = np.empty(len(thetas))
    for n, k in enumerate(js):
        w0, w1, w2, w3 = weights[n]
        got[n] = w0 * ys[k] + w1 * ms[k] + w2 * ys[k + 1] + w3 * ms[k + 1]
    return got


def window_integrals(ts, ys, ms, ends, taus, extension=0.0):
    """(I0, I1, z) of the windows [ends - taus, ends] over the record (ts, ys,
    ms): the windows checked by ``delay_windows`` and integrated at once."""
    return delay_windows(ts, ends, taus, extension)(ys, ms)


def extend(history, ts, ys, ms):
    """The sample record of ``history`` followed by the samples (ts, ys, ms)."""
    return tuple(
        np.concatenate([a, np.asarray(b, dtype=float)])
        for a, b in zip((history.times, history.values, history.slopes), (ts, ys, ms))
    )


def test_init_history_zero_and_linear():
    h = init_history(lambda s: 0.0, 0.5)
    assert np.all(h.values == 0.0)
    # the record is read-only
    with pytest.raises(ValueError):
        h.values[0] = 1.0
    h = init_history(lambda s: s, 0.5)
    assert lookup(h.times, h.values, h.slopes, -0.25)[0] == pytest.approx(-0.25, abs=1e-14)
    with pytest.raises(ValueError):
        init_history(lambda s: 0.0, 0.0)


def test_history_times_advance_and_newest_sample_reads_back():
    h = init_history(lambda s: 1.0, 0.2)
    assert lookup(*extend(h, [0.1], [3.0], [0.0]), 0.1)[0] == 3.0
    # a repeated or a backward time is refused when the history is built
    for last in (0.1, 0.05):
        ts, ys, ms = extend(h, [0.1, last], [3.0, 4.0], [0.0, 0.0])
        with pytest.raises(ValueError, match="non-monotone"):
            TraceHistory(ts, ys, ms)


def test_eval_delayed_constant_and_linear_exact():
    delays = (ConstantDelay(0.3),) * 3
    h = init_history(lambda s: 5.0, 0.3)
    record = extend(h, [0.05, 0.1], [5.0, 5.0], [0.0, 0.0])
    tau = delay_samples(delays[0], 0, [0.05])[0]
    assert lookup(*record, 0.05 - tau)[0] == pytest.approx(5.0)

    h = init_history(lambda s: s, 0.3)
    ts = 0.01 * np.arange(1, 40)
    record = extend(h, ts, ts, np.ones(len(ts)))
    # linear history with exact slopes: exact to roundoff
    t_evals = np.array([0.05, 0.17, 0.33])
    got = lookup(*record, t_evals - delay_samples(delays[1], 1, t_evals))
    assert np.all(np.abs(got - (t_evals - 0.3)) <= 1e-14)


def test_eval_delayed_sine_second_order():
    delays = (ConstantDelay(0.4),) * 3
    errs = []
    for dt in (0.02, 0.01):
        h = init_history(math.sin, 0.4)
        ts = []
        t = 0.0
        while t < 1.0:
            t += dt
            ts.append(t)
        record = extend(h, ts, [math.sin(t) for t in ts], [math.cos(t) for t in ts])
        t_evals = np.linspace(0.5, 1.0, 101)
        got = lookup(*record, t_evals - delay_samples(delays[0], 0, t_evals))
        errs.append(np.max(np.abs(got - np.array([math.sin(t - 0.4) for t in t_evals]))))
    assert errs[0] / errs[1] > 3.0


def test_monotone_theta_assertion():
    # the declared slope bound is 0, but tau jumps from 0.1 to 0.15 at
    # t = 0.5, so t - tau(t) falls by more than dt there: the run is refused
    # before any step, and the histories are left as they were
    class Jumping(ConstantDelay):
        cap = 0.15

        def tau(self, t):
            return self.value + np.where(t > 0.5, 0.05, 0.0)

    sys_, state, kwargs = decay_scenario(16, (Jumping(0.1),) * 3)
    copies = history_copies(kwargs["histories"])
    with pytest.raises(AssertionError, match="delayed argument not increasing"):
        simulate(state, sys_, SchemeConfig(dt=0.02, T=1.0), **kwargs)
    assert_histories_unchanged(kwargs["histories"], copies)


def test_eval_delayed_refuses_a_delay_past_its_cap():
    # tau(t) = 0.2 + 0.1 sin(5t) under a declared cap of 0.2: the history
    # holds the delayed argument, but the delay itself is out of bounds
    class Undercapped(SinusoidalDelay):
        cap = 0.2

    delays = (Undercapped(0.2, 0.1, 5.0),) * 3
    assert delay_samples(delays[0], 0, [0.0])[0] == 0.2
    with pytest.raises(LookupBeforeHistory, match="exceeds its declared cap"):
        delay_samples(delays[0], 0, [0.0, 0.05, 0.1])


def test_delayed_run_keeps_every_sample():
    # a run ten times longer than the delay cap: each delay line is the
    # initial history followed by the midpoint sample of every step, with
    # backward-difference slopes; the step lookups, the delayed traces and
    # the tilts all read that record, and the histories are unchanged
    sys_, state, kwargs = decay_scenario(16)
    histories, delays = kwargs["histories"], kwargs["delays"]
    copies = history_copies(histories)
    cfg = SchemeConfig(dt=0.02, T=3.0)
    assert cfg.T > 10.0 * max(law.cap for law in delays)
    out = simulate(state, sys_, cfg, **kwargs)
    assert_histories_unchanged(histories, copies)
    t_mid = out.ledger["t_mid"]
    for i, h in enumerate(histories):
        n0 = len(h.times)
        ts, ys, ms = extend(h, t_mid, out.ledger["trace_mid"][:, i], np.zeros(out.n_steps))
        for k in range(n0, len(ts)):
            ms[k] = (ys[k] - ys[k - 1]) / (ts[k] - ts[k - 1])
        # step n reads the samples up to the previous step's
        thetas = t_mid - delay_samples(delays[i], i, t_mid)
        newest = n0 - 1 + np.arange(out.n_steps)
        np.testing.assert_array_equal(lookup(ts, ys, ms, thetas, newest), out.ledger["z_mid"][:, i])
        taus = delay_samples(delays[i], i, out.times)
        _, tilts, z = window_integrals(ts, ys, ms, out.times, taus, 0.5 * out.dt * (1.0 + 1e-9))
        np.testing.assert_array_equal(tilts, out.delay_tilts[:, i])
        np.testing.assert_array_equal(z, out.delayed_traces[:, i])


def test_lookup_before_history_raises():
    h = init_history(lambda s: 0.0, 0.2)
    with pytest.raises(LookupBeforeHistory):
        lookup(h.times, h.values, h.slopes, -0.5)
    with pytest.raises(LookupBeforeHistory):
        lookup(h.times, h.values, h.slopes, 1.0)


def test_z_profile_at_zero_matches_initial_function():
    tau0 = 0.6
    h = init_history(lambda s: math.cos(3.0 * s), tau0)
    rho = np.linspace(0.0, 1.0, 17)
    prof = lookup(h.times, h.values, h.slopes, 0.0 - tau0 * rho)
    assert np.max(np.abs(prof - np.cos(3.0 * (-tau0 * rho)))) < 2e-4
    # rho = 0 entry equals the newest recorded value exactly
    prof = lookup(*extend(h, [0.05], [7.5], [0.0]), 0.05 - tau0 * np.linspace(0.0, 1.0, 9))
    assert prof[0] == 7.5


def test_constant_trace_constant_profile():
    h = init_history(lambda s: 2.5, 0.3)
    ts = 0.02 * np.arange(1, 30)
    record = extend(h, ts, np.full(len(ts), 2.5), np.zeros(len(ts)))
    prof = lookup(*record, ts[-1] - 0.3 * np.linspace(0.0, 1.0, 33))
    # the Hermite sum of four basis terms may round the constant by one ulp
    assert np.max(np.abs(prof - 2.5)) <= np.spacing(2.5)


def test_transport_equation_residual_second_order():
    # z(rho,t) = trace(t - tau(t) rho) solves tau z_t + (1 - tau' rho) z_rho = 0;
    # check the finite-difference residual on profile outputs halves-squared
    delays = (SinusoidalDelay(0.4, 0.1, 1.5),) * 3
    trace = lambda t: math.sin(2.0 * t) + 0.3 * math.cos(5.0 * t)
    slope = lambda t: 2.0 * math.cos(2.0 * t) - 1.5 * math.sin(5.0 * t)

    def residual(dt_hist, n_panels=64):
        h = init_history(trace, delays[0].tau(0.0))
        ts = []
        t = 0.0
        while t < 3.0:
            t += dt_hist
            ts.append(t)
        record = extend(h, ts, [trace(t) for t in ts], [slope(t) for t in ts])
        t0 = 2.0
        drho = 1.0 / n_panels
        rho = np.linspace(0.0, 1.0, n_panels + 1)
        prof = {
            s: lookup(*record, t0 + s * dt_hist - delays[0].tau(t0 + s * dt_hist) * rho)
            for s in (-1, 0, 1)
        }
        z_t = (prof[1] - prof[-1]) / (2.0 * dt_hist)
        z_rho = np.gradient(prof[0], drho)
        res = delays[0].tau(t0) * z_t + (1.0 - delays[0].dtau(t0) * rho) * z_rho
        return np.max(np.abs(res[2:-2]))

    r1, r2, r3 = residual(0.08), residual(0.04), residual(0.02)
    assert 3.0 <= r1 / r2 <= 5.0, (r1, r2)
    assert 3.0 <= r2 / r3 <= 5.0, (r2, r3)


def _cubic_integrals(c, a, b, theta, tau):
    """Exact int_a^b p^2 ds and int_a^b (s - theta)/tau p^2 ds for the cubic
    with coefficients c (rational arithmetic on the float inputs)."""
    sq = [sum(c[i] * c[k - i] for i in range(max(0, k - 3), min(k, 3) + 1)) for k in range(7)]

    def moment(x, extra):
        return sum(q * x ** (k + 1 + extra) / (k + 1 + extra) for k, q in enumerate(sq))

    a, b, theta, tau = (Fraction(v) for v in (a, b, theta, tau))
    i0 = moment(b, 0) - moment(a, 0)
    i1 = (moment(b, 1) - moment(a, 1) - theta * i0) / tau
    return i0, i1


def test_gauss_rule_is_numpys_four_point_rule_on_the_unit_interval():
    # the rule is written out so that no command imports numpy.polynomial;
    # it stays leggauss(4) mapped to [0, 1], bit for bit
    x, w = np.polynomial.legendre.leggauss(4)
    assert delayline._GAUSS == tuple(zip((0.5 * (x + 1.0)).tolist(), (0.5 * w).tolist()))


@settings(max_examples=60, deadline=None, database=None)
@given(seed=hs.integers(0, 2**32 - 1), case=hs.sampled_from(["initial", "tail", "long"]))
def test_delay_integrals_exact_on_cubic_histories(seed, case):
    # a cubic trace pushed with exact slopes is its own Hermite interpolant,
    # so both window integrals must match the closed form to roundoff
    rng = np.random.default_rng(seed)
    c = [Fraction(x) for x in rng.uniform(-2.0, 2.0, 4)]
    p = lambda s: c[0] + s * (c[1] + s * (c[2] + s * c[3]))
    dp = lambda s: c[1] + s * (2 * c[2] + s * 3 * c[3])
    long = case == "long"
    n_push = 1500 if long else int(rng.integers(8, 60))
    gaps = rng.uniform(0.002, 0.01, n_push) if long else rng.uniform(0.01, 0.2, n_push)
    ts = rng.uniform(-1.0, 1.0) + np.cumsum(gaps)
    ys = np.array([float(p(Fraction(t))) for t in ts])
    ms = np.array([float(dp(Fraction(t))) for t in ts])
    # windows end at the newest sample, or past it in the constant tail
    extension = ts[-1] - ts[-2]
    t = ts[-1] + (rng.uniform(0.0, 1.0) * extension if case == "tail" else 0.0)
    if case == "initial":
        theta = ts[0] + rng.uniform(0.0, 1.0) * (ts[1] - ts[0])
    else:
        theta = rng.uniform(ts[0], ts[-1])
    tau = t - theta
    theta = t - tau  # the window start as the record rounds it
    i0, i1 = (x[0] for x in window_integrals(ts, ys, ms, [t], [tau], extension)[:2])
    ref0, ref1 = _cubic_integrals(c, theta, ts[-1], theta, tau)
    y2 = Fraction(ys[-1]) ** 2
    span = Fraction(t) - Fraction(ts[-1])
    ref0 += y2 * span
    ref1 += y2 * span * (Fraction(t) + Fraction(ts[-1]) - 2 * Fraction(theta)) / 2 / Fraction(tau)
    assert abs(i0 - float(ref0)) <= 1e-12 * float(ref0)
    assert abs(i1 - float(ref1)) <= 1e-12 * float(ref1)


def _reference_value(ts, ys, ms, theta):
    """The Hermite lookup rebuilt on numpy: searchsorted segment, clipped s."""
    if theta >= ts[-1]:
        return ys[-1]
    k = min(max(int(np.searchsorted(ts, theta, side="right")) - 1, 0), len(ts) - 2)
    h = ts[k + 1] - ts[k]
    s = min(max((theta - ts[k]) / h, 0.0), 1.0)
    s2 = s * s
    s3 = s2 * s
    return (
        (2.0 * s3 - 3.0 * s2 + 1.0) * ys[k]
        + (s3 - 2.0 * s2 + s) * h * ms[k]
        + (-2.0 * s3 + 3.0 * s2) * ys[k + 1]
        + (s3 - s2) * h * ms[k + 1]
    )


@settings(max_examples=60, deadline=None, database=None)
@given(seed=hs.integers(0, 2**32 - 1))
def test_lookups_match_searchsorted_reference(seed):
    # random samples: every lookup through the stencil equals the
    # searchsorted reference on the record
    rng = np.random.default_rng(seed)
    n_push = int(rng.integers(200, 600))
    ts = np.cumsum(rng.uniform(0.001, 0.02, n_push))
    ys, ms = rng.standard_normal((2, n_push))
    extension = 0.01
    thetas = rng.uniform(ts[0], ts[-1] + extension, 50)
    thetas[:3] = ts[0], ts[-1], ts[int(rng.integers(1, len(ts) - 1))]
    ref = np.array([_reference_value(ts, ys, ms, theta) for theta in thetas])
    got = lookup(ts, ys, ms, thetas, extension=extension)
    assert np.all(np.abs(got - ref) <= np.spacing(np.abs(ref)))
    # a lookup at or past its newest sample, the record's last or an earlier
    # one, reads that sample alone: the last segment with weights (0, 0, 1, 0)
    newest = np.repeat([len(ts) - 1, int(rng.integers(1, len(ts) - 1))], 3)
    past = ts[newest] + np.tile([0.0, 0.5 * extension, extension], 2)
    js, weights = hermite_stencil(ts, past, newest, extension)
    assert np.array_equal(js, newest - 1)
    assert weights.tobytes() == np.tile([0.0, 0.0, 1.0, 0.0], (6, 1)).tobytes()
    assert lookup(ts, ys, ms, past, newest, extension).tobytes() == ys[newest].tobytes()
    # both sides of the recorded span are checked, the window end included
    with pytest.raises(LookupBeforeHistory, match="before earliest sample"):
        lookup(ts, ys, ms, ts[0] - 1e-6, extension=extension)
    with pytest.raises(LookupBeforeHistory, match="beyond newest sample"):
        lookup(ts, ys, ms, ts[-1] + extension + 1e-6, extension=extension)
    with pytest.raises(LookupBeforeHistory, match="beyond newest sample"):
        window_integrals(ts, ys, ms, [ts[-1] + extension + 1e-6], [0.5 * (ts[-1] - ts[0])], extension)


@settings(max_examples=40, deadline=None, database=None)
@given(
    seed=hs.integers(0, 2**32 - 1),
    n_initial=hs.integers(2, 64),
    n_push=hs.integers(150, 400),
    block=hs.sampled_from([1, 7, 1 << 12]),
)
def test_window_pass_matches_the_window_of_every_step(seed, n_initial, n_push, block):
    # a record serves one window after each new sample; one pass over the
    # whole sample record gives the same (I0, I1, z) for every step as the
    # window alone on the record up to its newest sample, whatever the block
    # size
    rng = np.random.default_rng(seed)
    a, b, c = rng.uniform(-3.0, 3.0, 3)
    # dense initial samples on [-tau0, 0], then the drawn stream
    tau0 = rng.uniform(0.02, 0.3)
    h = init_history(lambda s: a * math.sin(b * s + c), tau0, n_initial)
    gaps = rng.uniform(0.001, 0.02, n_push)
    ts = np.concatenate([h.times, np.cumsum(gaps)])
    ys = np.concatenate([h.values, rng.standard_normal(n_push)])
    ms = np.concatenate([h.slopes, rng.standard_normal(n_push)])
    # tail windows end past the newest sample, never at the next one
    extension = 0.5 * gaps.min()
    ends, taus, windows = [], [], []
    for k in range(n_initial - 1, len(ts)):
        end = ts[k] + extension * rng.choice([0.0, 1.0, rng.uniform()])
        # windows from a point just past their end back to the earliest
        # sample itself
        tau = (end - ts[0]) * rng.choice([1.0, rng.uniform(0.01, 1.0)])
        ends.append(end)
        taus.append(tau)
        prefix = slice(0, k + 1)
        window = window_integrals(ts[prefix], ys[prefix], ms[prefix], [end], [tau], extension)
        windows.append([x[0] for x in window])
    with mock.patch.object(delayline, "_BLOCK", block):
        got = window_integrals(ts, ys, ms, ends, taus, extension)
    for g, ref in zip(got, np.array(windows).T):
        assert np.all(np.abs(g - ref) <= 1e-15 * np.abs(ref)), np.max(np.abs(g - ref))


@pytest.mark.parametrize("block", [1, delayline._BLOCK, 2**20])
def test_window_blocks_leave_every_window_bitwise_unchanged(block):
    # a run's record: a 64-sample initial history on [-tau(0), 0], then one
    # sample per step midpoint; the window at t = 0 spans the whole history,
    # far wider than the later ones, and whatever the blocks each window
    # sums in the same order
    delays = (SinusoidalDelay(0.1, 0.05, 10.0),) * 3
    h = init_history(lambda s: math.sin(7.0 * s + 0.3), delays[0].tau(0.0))
    dt = 0.005
    times = dt * np.arange(401)
    t_mid = times[:-1] + 0.5 * dt
    rng = np.random.default_rng(3)
    record = extend(h, t_mid, rng.standard_normal(400), rng.standard_normal(400))
    taus = delay_samples(delays[0], 0, times)
    extension = 0.5 * dt * (1.0 + 1e-9)
    assert window_integrals(*record, [0.0], taus[:1], extension)[0][0] > 0.0
    reference = window_integrals(*record, times, taus, extension)
    # the first window reads every history segment
    newest = np.searchsorted(record[0], times, side="right") - 1
    j = hermite_stencil(record[0], times - taus, newest, extension)[0]
    assert j[0] == 0 and newest[0] == len(h.times) - 1
    with mock.patch.object(delayline, "_BLOCK", block):
        got = window_integrals(*record, times, taus, extension)
        blocks = len(delayline._block_starts(newest - j)) - 1
    for g, ref in zip(got, reference):
        assert g.tobytes() == ref.tobytes()
    # one window per block, one block, or several blocks in between
    if block == 1:
        assert blocks == len(times)
    elif block == 2**20:
        assert blocks == 1
    else:
        assert 1 < blocks < len(times)


def test_window_blocks_are_sized_by_their_own_widest_window():
    # one wide window no longer shrinks the blocks of the narrow ones
    widths = np.array([63] + [6] * 500)
    with mock.patch.object(delayline, "_BLOCK", 4096):
        starts = delayline._block_starts(widths)
    assert starts[:2] == [0, 65]
    sizes = np.diff(starts)
    assert all(widths[a:b].max() * (b - a) <= 4096 for a, b in zip(starts, starts[1:]))
    assert len(sizes) == 2 and sizes[1] == 501 - 65


def test_window_pass_refuses_what_the_history_could_not_serve():
    ts = 0.01 * np.arange(100.0)
    ys, ms = np.sin(ts), np.cos(ts)
    t = ts[80]
    # a window back to the earliest sample is served
    window_integrals(ts, ys, ms, [t], [t - ts[0]], 0.005)
    # one that starts before it is not
    with pytest.raises(LookupBeforeHistory, match="before earliest sample"):
        window_integrals(ts, ys, ms, [t, t], [t - ts[0], t - ts[0] + 1e-6], 0.005)
    # nor one whose tail reaches more than the extension past the newest sample
    window_integrals(ts, ys, ms, [t + 0.005], [0.05], 0.005)
    with pytest.raises(LookupBeforeHistory, match="beyond newest sample"):
        window_integrals(ts, ys, ms, [t + 0.006], [0.05], 0.005)
