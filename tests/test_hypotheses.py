import math

import numpy as np
import pytest

from sandwichbeam.hypotheses import (
    InfeasibleRates,
    compute_mu4,
    compute_zeta,
    decay_bound,
    gain_threshold,
    is_negative_definite,
    lambda_bound,
    perturbed_form,
    phi_matrix,
    select_mus,
    validate_gains,
)
from sandwichbeam.params import GainConfig, SinusoidalDelay

from test_params import constant_damping, constant_delay, unit_params


def gains(a=(1.0, 1.0, 1.0), b=(0.0, 0.0, 0.0)):
    return GainConfig(a[0], b[0], a[1], b[1], a[2], b[2])


def test_validate_gains_beta_zero_reduces_to_alpha_positive():
    p = unit_params()
    rows = validate_gains(p, gains(a=(1.0, 1.0, 1.0)), (constant_delay(0.1),) * 3)
    assert all(row["pass"] for row in rows)
    for row in rows:
        assert row["rhs"] == 0.0
    # alpha = 0 with beta = 0 fails the strict inequality
    rows = validate_gains(p, gains(a=(0.0, 1.0, 1.0)), (constant_delay(0.1),) * 3)
    failing = [row["condition_id"] for row in rows if not row["pass"]]
    assert failing
    assert failing[0] == "gain_channel_1"


def test_validate_gains_threshold_values():
    # E1h1=1, d=0, beta1=0.1: threshold 0.05*(1+1)/1 = 0.1; equality fails
    p = unit_params()
    d0 = (constant_delay(0.1),) * 3
    assert gain_threshold(1, 0.0, p, gains(b=(0.1, 0, 0))) == pytest.approx(0.1)
    rep = validate_gains(p, gains(a=(0.1, 1, 1), b=(0.1, 0, 0)), d0)
    assert not rep[0]["pass"]
    rep = validate_gains(p, gains(a=(0.11, 1, 1), b=(0.1, 0, 0)), d0)
    assert rep[0]["pass"]

    # E3h3=2, d2=0.5, beta2=0.2: threshold (0.2/4)*((4+0.5)/0.5) = 0.45
    p2 = unit_params(E3h3=2.0)
    half = (SinusoidalDelay(1.0, 0.5, 1.0),) * 3
    assert half[1].slope_bound == pytest.approx(0.5)
    assert gain_threshold(2, 0.5, p2, gains(b=(0, 0.2, 0))) == pytest.approx(0.45)
    rep = validate_gains(p2, gains(a=(1, 0.5, 1), b=(0, 0.2, 0)), half)
    assert rep[1]["pass"]


def test_validate_gains_rejects_unit_slope():
    # slope bound 1.0 on channel 1 only: its row fails with no threshold,
    # and the other channels are still checked
    p = unit_params()
    ok = SinusoidalDelay(0.5, 0.25, 2.0)  # slope bound 0.5
    bad = (SinusoidalDelay(2.0, 1.0, 1.0), ok, ok)
    g = gains(b=(0.1, 0.1, 0.1))
    rows = validate_gains(p, g, bad)
    assert [row["condition_id"] for row in rows] == ["gain_channel_1", "gain_channel_2", "gain_channel_3"]
    assert [rows[0][key] for key in ("lhs", "rhs", "margin", "pass")] == [1.0, None, None, False]
    assert rows[1]["rhs"] == pytest.approx(gain_threshold(2, 0.5, p, g))
    assert rows[1]["pass"] and rows[2]["pass"]


def test_phi_matrix_entries():
    p = unit_params()
    m = phi_matrix(1, 0.0, p, gains(a=(1, 0, 0), b=(0, 0, 0)))
    assert m == (-2.0, 0.0, 0.0)
    m = phi_matrix(1, 0.0, p, gains(a=(1, 0, 0), b=(1, 0, 0)))
    assert m == (-1.0, -1.0, -1.0)
    m = phi_matrix(3, 0.5, p, gains(a=(0, 0, 2.0), b=(0, 0, 0.5)))
    assert m == (-3.5, -0.5, -0.25)
    # a shrinking delay has a negative actual slope
    m = phi_matrix(2, -0.5, p, gains(a=(0, 1.0, 0), b=(0, -0.5, 0)))
    assert m == (-1.5, 0.5, -0.75)
    with pytest.raises(ValueError):
        phi_matrix(4, 0.0, p, gains())
    with pytest.raises(ValueError):
        phi_matrix(1, 1.0, p, gains())


def test_is_negative_definite_cases():
    assert not is_negative_definite((-2, 0, 0))
    assert is_negative_definite((-1, 0, -1))
    assert not is_negative_definite((-1, 2, -1))


def test_passing_gains_imply_negative_definite_phi():
    # property: for every passing draw with beta != 0, the form is negative
    # definite on the whole slope range [0, d]
    rng = np.random.default_rng(42)
    p = unit_params(E3h3=2.0, EI=0.5)
    for _ in range(200):
        d = rng.uniform(0.0, 0.9)
        delays = (SinusoidalDelay(1.0, 0.5, 2.0 * d),) * 3  # slope bound d
        betas = rng.uniform(0.01, 0.5, 3) * rng.choice([-1, 1], 3)
        alphas = [
            gain_threshold(i, delays[i - 1].slope_bound, p, gains(b=betas)) * rng.uniform(1.01, 3.0)
            for i in (1, 2, 3)
        ]
        g = gains(a=alphas, b=betas)
        assert all(row["pass"] for row in validate_gains(p, g, delays))
        for i in (1, 2, 3):
            for frac in (0.0, 0.5, 1.0):
                m = phi_matrix(i, frac * delays[i - 1].slope_bound, p, g)
                assert is_negative_definite(m)


def _recheck_rates(params, delays, damping, gains_, rates):
    """Independent re-validation of every invariant of a ``select_mus`` result."""
    assert set(rates) == {"mu0", "mu1", "mu2", "mu3", "mu4", "lambda", "zeta", "rate"}
    assert rates["rate"] == rates["lambda"] / (1.0 + rates["mu4"])
    assert rates["mu4"] < 1.0
    assert rates["mu4"] == pytest.approx(
        compute_mu4(params, rates["mu0"], rates["mu1"], rates["mu2"], rates["mu3"])
    )
    for i in range(3):
        assert rates["mu0"] * delays[i].cap / (1.0 - delays[i].slope_bound) < (rates["mu1"], rates["mu2"], rates["mu3"])[i]
    floors = [law.floor for law in damping]
    masses = params.mass_coefficients
    assert rates["mu0"] < min(a0 / m for a0, m in zip(floors, masses))
    assert rates["lambda"] <= rates["mu0"] + 1e-15
    for a0, m in zip(floors, masses):
        assert rates["lambda"] <= 2.0 * (a0 / m - rates["mu0"]) + 1e-15
    assert rates["zeta"] == pytest.approx((1.0 + rates["mu4"]) / (1.0 - rates["mu4"]))
    for i, mu_i in zip((1, 2, 3), (rates["mu1"], rates["mu2"], rates["mu3"])):
        pi_form = perturbed_form(i, params, gains_, delays, rates["mu0"], mu_i)
        if gains_.betas[i - 1] == 0.0:
            assert pi_form[0] < 0.0
        else:
            assert is_negative_definite(pi_form)


def test_select_mus_unit_example_against_grid_oracle():
    p = unit_params()
    delays = (constant_delay(1.0),) * 3  # M_i = 1, d_i = 0
    damping = (constant_damping(1.0),) * 3
    g = gains(a=(1.0, 1.0, 1.0))
    rates = select_mus(p, delays, damping, g)
    assert rates["mu4"] < 1.0 and rates["lambda"] > 0.0
    _recheck_rates(p, delays, damping, g, rates)

    # oracle: dense grid search over (mu0, mu) must contain feasible points,
    # and every grid-feasible point satisfies the same invariants the
    # implementation claims for its output
    feasible = []
    for mu0 in np.linspace(0.01, 0.99, 60):
        mu = 2.0 * mu0  # M/(1-d) = 1
        mu4 = compute_mu4(p, mu0, mu, mu, mu)
        if mu4 >= 1.0 or mu0 >= 1.0:
            continue
        if lambda_bound(p, damping, mu0) <= 0.0:
            continue
        ok = all(perturbed_form(i, p, g, delays, mu0, mu)[0] < 0.0 for i in (1, 2, 3))
        if ok:
            feasible.append((mu0, mu))
    assert feasible, "grid oracle found no feasible weights"
    assert any(abs(mu0 - rates["mu0"]) < 0.26 for mu0, _ in feasible)


def test_select_mus_random_configs_recheck():
    rng = np.random.default_rng(7)
    for _ in range(25):
        p = unit_params(
            rho1h1=rng.uniform(0.5, 2),
            E1h1=rng.uniform(0.5, 2),
            rho3h3=rng.uniform(0.5, 2),
            E3h3=rng.uniform(0.5, 2),
            rhoh=rng.uniform(0.5, 2),
            EI=rng.uniform(0.5, 2),
        )
        delays = (SinusoidalDelay(0.3, 0.1, rng.uniform(0.5, 4.0)),) * 3
        damping = (constant_damping(rng.uniform(0.2, 2.0)),) * 3
        betas = rng.uniform(0.0, 0.3, 3)
        alphas = [
            gain_threshold(i, delays[i - 1].slope_bound, p, gains(b=betas)) + rng.uniform(0.3, 1.0)
            for i in (1, 2, 3)
        ]
        g = gains(a=alphas, b=betas)
        rates = select_mus(p, delays, damping, g)
        _recheck_rates(p, delays, damping, g, rates)


def test_select_mus_rejects_failing_gains():
    p = unit_params()
    delays = (constant_delay(0.5),) * 3
    with pytest.raises(InfeasibleRates):
        select_mus(p, delays, (constant_damping(1.0),) * 3, gains(a=(0.0, 1.0, 1.0)))
    # a slope bound of 1 fails its gain row too
    unit_slope = (SinusoidalDelay(2.0, 1.0, 1.0),) * 3
    with pytest.raises(InfeasibleRates, match="gain_channel_1"):
        select_mus(p, unit_slope, (constant_damping(1.0),) * 3, gains())


def test_lambda_monotone_in_damping_floor():
    p = unit_params()
    delays = (constant_delay(0.5),) * 3
    g = gains()
    lams = [
        select_mus(p, delays, (constant_damping(a0),) * 3, g)["lambda"] for a0 in (1.0, 0.25, 0.0625)
    ]
    assert lams[0] > lams[1] > lams[2] > 0.0


def test_mu_limits():
    p = unit_params()
    mu4 = compute_mu4(p, 1e-9, 1e-9, 1e-9, 1e-9)
    assert mu4 < 1e-8
    assert compute_zeta(mu4) == pytest.approx(1.0, abs=1e-7)
    with pytest.raises(ValueError):
        compute_zeta(1.0)


def test_decay_bound_examples_and_properties():
    rates = {"mu0": 0.1, "mu1": 0.1, "mu2": 0.1, "mu3": 0.1, "mu4": 0.0, "lambda": 1.0, "zeta": 2.0, "rate": 1.0}
    assert decay_bound(0.0, 3.0, rates) == pytest.approx(2.0 * 3.0)
    assert decay_bound(5.0, 0.0, rates) == 0.0
    assert decay_bound(math.log(2.0), 1.0, rates) == pytest.approx(1.0)
    # monotone non-increasing in t, homogeneous degree 1 in E0
    ts = np.linspace(0.0, 10.0, 50)
    vals = [decay_bound(t, 1.0, rates) for t in ts]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    # an array of times gives the scalar values elementwise
    np.testing.assert_allclose(decay_bound(ts, 1.0, rates), vals, rtol=1e-15, atol=0)
    assert decay_bound(2.0, 7.0, rates) == pytest.approx(7.0 * decay_bound(2.0, 1.0, rates))
    with pytest.raises(ValueError):
        decay_bound(-1.0, 1.0, rates)
    with pytest.raises(ValueError):
        decay_bound(np.array([0.0, -1e-3]), 1.0, rates)


def test_report_json_shape():
    p = unit_params()
    rows = validate_gains(p, gains(), (constant_delay(0.2),) * 3)
    assert set(rows[0]) == {"condition_id", "lhs", "rhs", "margin", "pass"}
