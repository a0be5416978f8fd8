import numpy as np
import pytest

from sandwichbeam.decay import (
    check_dissipation_identity,
    check_theoretical_bound,
    check_trace_estimates,
    fit_decay_rate,
    lyapunov_trace,
)
from sandwichbeam.discretize import Grid1D, VARIANT_STABILIZED, build_system
from sandwichbeam.hypotheses import select_mus
from sandwichbeam.params import GainConfig, SinusoidalDelay
from sandwichbeam.presets import make_histories, nodal_state, random_smooth_state
from sandwichbeam.timestep import SchemeConfig, simulate

from test_delayline import window_integrals
from test_discretize import block_draw
from test_params import constant_damping, unit_params


def crit3_setup(N=32):
    p = unit_params()
    sys_ = build_system(Grid1D(N=N, L=1.0), p, VARIANT_STABILIZED)
    delays = (SinusoidalDelay(0.1, 0.05, 10.0),) * 3
    damping = (constant_damping(1.0),) * 3
    gains = GainConfig(1.0, 0.2, 1.0, -0.15, 1.0, 0.1)
    return p, sys_, delays, damping, gains


def run_crit3(dt=0.02, T=6.0, N=32, seed=7, stride=10):
    p, sys_, delays, damping, gains = crit3_setup(N)
    st = random_smooth_state(sys_, seed=seed, prepared=True)
    hist = make_histories(sys_, st, delays)
    out = simulate(
        st, sys_, SchemeConfig(dt=dt, T=T, stride=stride),
        gains=gains, delays=delays, damping=damping, histories=hist,
    )
    return p, sys_, delays, damping, gains, out


def test_fit_decay_rate_examples():
    t = np.linspace(0.0, 5.0, 200)
    omega, intercept, r2 = fit_decay_rate(t, np.exp(-2.0 * t), (0.5, 4.5))
    assert omega == pytest.approx(2.0, abs=1e-12)
    assert r2 == pytest.approx(1.0)
    omega, _, _ = fit_decay_rate(t, np.full_like(t, 3.0), (0.5, 4.5))
    assert omega == pytest.approx(0.0, abs=1e-12)
    energies = 2.0 * np.exp(-0.7 * t) * (1.0 + 0.01 * np.sin(t))
    omega, _, _ = fit_decay_rate(t, energies, (0.5, 4.5))
    assert omega == pytest.approx(0.7, abs=0.02)
    with pytest.raises(ValueError):
        fit_decay_rate(t, np.exp(-t) - 0.5, (0.5, 4.5))
    with pytest.raises(ValueError):
        fit_decay_rate(t, np.exp(-t), (10.0, 11.0))


def lstsq_fit(t, e):
    """The reference: ln E fitted by np.linalg.lstsq on the design matrix [t, 1]."""
    y = np.log(e)
    A = np.vstack([t, np.ones_like(t)]).T
    slope, intercept = np.linalg.lstsq(A, y, rcond=None)[0]
    ss_tot = np.sum((y - np.mean(y)) ** 2)
    r2 = 1.0 - np.sum((y - A @ (slope, intercept)) ** 2) / ss_tot if ss_tot else 1.0
    return -slope, intercept, r2


@pytest.mark.parametrize("seed", range(8))
def test_fit_decay_rate_matches_lstsq_on_noisy_exponentials(seed):
    rng = np.random.default_rng(seed)
    # seed 0 fits the fewest samples a fit takes, two
    t = np.sort(rng.uniform(0.0, 6.0, 2 if seed == 0 else rng.integers(3, 400)))
    rate, e0, noise = rng.uniform(0.2, 3.0), rng.uniform(2.0, 50.0), rng.uniform(0.0, 0.3)
    e = e0 * np.exp(-rate * t + noise * rng.standard_normal(len(t)))
    fit = fit_decay_rate(t, e, (0.0, 6.0))
    np.testing.assert_allclose(fit, lstsq_fit(t, e), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("level", [3.0, 0.1, 7.3e5, 1e-9])
def test_fit_decay_rate_of_a_constant_series(level):
    # ln E centres to exact zeros: slope 0 and R^2 1, whatever the level
    t = np.linspace(0.0, 5.0, 200)
    e = np.full_like(t, level)
    omega, intercept, r2 = fit_decay_rate(t, e, (0.5, 4.5))
    assert (omega, r2) == (0.0, 1.0)
    window = (t >= 0.5) & (t <= 4.5)
    assert intercept == pytest.approx(lstsq_fit(t[window], e[window])[1], rel=1e-12)


def test_fit_excludes_roundoff_plateau():
    t = np.linspace(0.0, 10.0, 400)
    e = np.maximum(np.exp(-3.0 * t), 1e-15)
    omega, _, _ = fit_decay_rate(t, e, (0.0, 10.0))
    assert omega == pytest.approx(3.0, rel=0.05)


def test_dissipation_identity_zero_solution():
    p, sys_, delays, damping, gains = crit3_setup(16)
    st = nodal_state(sys_)
    hist = make_histories(sys_, st, delays)
    out = simulate(
        st, sys_, SchemeConfig(dt=0.02, T=0.4),
        gains=gains, delays=delays, damping=damping, histories=hist,
    )
    resid = check_dissipation_identity(out, p, gains)
    assert np.max(resid) <= 1e-14


def test_dissipation_identity_interior_damping_exact():
    # alpha = beta = 0 with constant damping: the ledger reproduces the
    # energy increments to roundoff (the midpoint identity is algebraic)
    p = unit_params()
    sys_ = build_system(Grid1D(N=24, L=1.0), p, VARIANT_STABILIZED)
    damping = (constant_damping(0.7),) * 3
    gains = GainConfig(0, 0, 0, 0, 0, 0)
    st = random_smooth_state(sys_, seed=3, prepared=True)
    out = simulate(st, sys_, SchemeConfig(dt=0.01, T=1.0), gains=gains, damping=damping)
    resid = check_dissipation_identity(out, p, gains)
    assert np.max(resid) <= 1e-9 * out.energy[0]


def test_dissipation_residual_halves_squared():
    _, _, delays, damping, gains = crit3_setup()
    maxima = []
    for dt in (0.04, 0.02):
        p, sys_, delays, damping, gains, out = run_crit3(dt=dt, T=6.0)
        resid = check_dissipation_identity(out, p, gains)
        late = resid[out.ledger["t_mid"] >= 1.5]
        maxima.append(np.max(late))
    ratio = maxima[0] / maxima[1]
    assert 3.0 <= ratio <= 5.0, maxima


def test_energy_monotone_on_decay_run():
    _, _, _, _, _, out = run_crit3(dt=0.02, T=6.0)
    assert out.max_energy_increase() <= 1e-10 * out.energy[0]


def test_lyapunov_trace_zero_and_velocity_free():
    p, sys_, delays, damping, gains = crit3_setup(16)
    rates = select_mus(p, delays, damping, gains)
    st = nodal_state(sys_)
    hist = make_histories(sys_, st, delays)
    out = simulate(
        st, sys_, SchemeConfig(dt=0.02, T=0.2),
        gains=gains, delays=delays, damping=damping, histories=hist,
    )
    L = lyapunov_trace(out, sys_, rates, gains)
    assert np.all(L == 0.0)


def test_lyapunov_equivalence_random_states():
    # algebraic check on arbitrary states and random Hermite histories: the
    # functional stays within (1 -+ mu4) of the energy built from the same
    # delay-window integrals
    p, sys_, delays, damping, gains = crit3_setup(16)
    rates = select_mus(p, delays, damping, gains)
    rng = np.random.default_rng(8)
    for _ in range(50):
        q = block_draw(rng, sys_)
        v = block_draw(rng, sys_)
        t = rng.uniform(0.0, 5.0)
        taus = [delays[i].tau(t) for i in range(3)]
        windows = []
        for i in range(3):
            ts = np.linspace(t - taus[i], t, 33)
            ys, ms = rng.standard_normal((2, 33))
            i0, i1, _ = window_integrals(ts, ys, ms, [t], [taus[i]])
            windows.append((i0[0], i1[0]))
        e_field = 0.5 * (np.dot(v, sys_.M * v) + q @ sys_.K @ q)
        e = e_field + sum(0.5 * abs(b) * i0 for b, (i0, _) in zip(gains.betas, windows))
        cross = 0.0
        for m, col, row in zip(p.mass_coefficients, sys_.nodal.T, sys_.field_weights):
            blk = col[col >= 0]
            cross += m * float(np.dot(row[blk], q[blk] * v[blk]))
        tilt = 0.0
        for i in range(3):
            b = gains.betas[i]
            if b == 0.0:
                continue
            tilt += (rates["mu1"], rates["mu2"], rates["mu3"])[i] * 0.5 * abs(b) * windows[i][1]
        L = e + rates["mu0"] * cross + tilt
        assert (1.0 - rates["mu4"]) * e - 1e-12 <= L <= (1.0 + rates["mu4"]) * e + 1e-12


def test_lyapunov_equivalence_along_run():
    p, sys_, delays, damping, gains, out = run_crit3(dt=0.02, T=6.0, N=32)
    rates = select_mus(p, delays, damping, gains)
    L = lyapunov_trace(out, sys_, rates, gains)
    E = out.energy[out.samples]
    cushion = 1e-9 * np.maximum(E, 1e-300)
    assert np.all(L >= (1.0 - rates["mu4"]) * E - cushion)
    assert np.all(L <= (1.0 + rates["mu4"]) * E + cushion)


def test_check_theoretical_bound_counting():
    # the bound is anchored at E(0): pin the first sample to 1 and place the
    # tail just under / well over the resulting envelope
    rates = {"mu0": 0.1, "mu1": 0.1, "mu2": 0.1, "mu3": 0.1, "mu4": 0.5, "lambda": 0.2, "zeta": 3.0}
    rates["rate"] = rates["lambda"] / (1.0 + rates["mu4"])

    class Fake:
        times = np.linspace(0.0, 5.0, 100)
        variant = VARIANT_STABILIZED
        energy = None

    envelope = 1.05 * rates["zeta"] * np.exp(-rates["rate"] * Fake.times)
    fake = Fake()
    fake.energy = np.concatenate([[1.0], 0.999 * envelope[1:]])
    rep = check_theoretical_bound(fake, rates, window=(1.0, 4.0))
    assert rep["violations"] == 0
    fake.energy = np.concatenate([[1.0], 2.0 * envelope[1:]])
    rep = check_theoretical_bound(fake, rates, window=(1.0, 4.0))
    assert rep["violations"] == len(fake.times) - 1


def test_full_decay_report_passes():
    p, sys_, delays, damping, gains, out = run_crit3(dt=0.02, T=10.0, N=32)
    rates = select_mus(p, delays, damping, gains)
    resid = check_dissipation_identity(out, p, gains)
    rep = check_theoretical_bound(out, rates, window=(2.0, 9.0), dissipation_residual=resid)
    assert rep["violations"] == 0
    assert rep["fitted_rate"] >= 0.95 * rates["rate"]
    assert rep["r_squared"] > 0.9


def test_trace_estimates_positive_slack():
    p, sys_, delays, damping, gains, out = run_crit3(dt=0.02, T=6.0)
    rep = check_trace_estimates(out, sys_, gains, damping)
    assert rep["trace_bound"]["holds"] and rep["trace_bound"]["slack"] > 0.0
    assert rep["initial_bound"]["holds"] and rep["initial_bound"]["slack"] > 0.0
