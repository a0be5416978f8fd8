import math

import numpy as np
import pytest

from sandwichbeam.params import (
    ConstantDamping,
    ConstantDelay,
    ExponentialDamping,
    GainConfig,
    PhysicalParams,
    SinusoidalDelay,
)


def unit_params(**kw):
    base = dict(rho1h1=1.0, E1h1=1.0, rho3h3=1.0, E3h3=1.0, rhoh=1.0, EI=1.0, k=1.0, alpha=1.0, L=1.0)
    base.update(kw)
    return PhysicalParams(**base)


def test_positivity_enforced():
    with pytest.raises(ValueError):
        unit_params(k=0.0)
    with pytest.raises(ValueError):
        unit_params(EI=-1.0)


def test_layer_composition():
    p = PhysicalParams.from_layers(
        rho=(2.0, 1.0, 3.0), h=(0.1, 0.2, 0.3), E=(5.0, 0.0, 7.0), I=(0.01, 0.0, 0.02), k=1.5, L=2.0
    )
    assert p.rho1h1 == pytest.approx(0.2)
    assert p.rhoh == pytest.approx(0.2 + 0.2 + 0.9)
    assert p.EI == pytest.approx(5.0 * 0.01 + 7.0 * 0.02)
    assert p.alpha == pytest.approx(0.2 + 0.5 * (0.1 + 0.3))
    assert p.check_layer_consistency(
        rho=(2.0, 1.0, 3.0), h=(0.1, 0.2, 0.3), E=(5.0, 0.0, 7.0), I=(0.01, 0.0, 0.02)
    ) == []
    bad = p.check_layer_consistency(
        rho=(2.0, 1.0, 3.0), h=(0.1, 0.2, 0.31), E=(5.0, 0.0, 7.0), I=(0.01, 0.0, 0.02)
    )
    assert any(name == "rho3h3" for name, _, _ in bad)


def test_delay_laws():
    c = ConstantDelay(0.4)
    assert c.tau(3.0) == 0.4 and c.dtau(3.0) == 0.0
    assert (c.floor, c.cap, c.slope_bound) == (0.4, 0.4, 0.0)

    s = SinusoidalDelay(base=0.5, amplitude=0.25, frequency=2.0)
    assert s.floor == pytest.approx(0.25)
    assert s.cap == pytest.approx(0.75)
    assert s.slope_bound == pytest.approx(0.5)
    t = 0.37
    assert s.tau(t) == pytest.approx(0.5 + 0.25 * math.sin(2 * t))
    assert s.dtau(t) == pytest.approx(0.5 * math.cos(2 * t))

    with pytest.raises(ValueError):
        SinusoidalDelay(base=0.2, amplitude=0.3, frequency=1.0)  # floor <= 0
    with pytest.raises(ValueError):
        ConstantDelay(0.0)


def test_delay_spec_sampled_bounds():
    laws = (SinusoidalDelay(0.5, 0.25, 2.0), ConstantDelay(0.3), ConstantDelay(0.2))
    # the declared floor, cap and slope bound hold on a sample grid of [0, 10]
    ts = np.linspace(0.0, 10.0, 257)
    for law in laws:
        taus = law.tau(ts)
        assert np.all((law.floor <= taus) & (taus <= law.cap))
        assert np.all(np.abs(law.dtau(ts)) <= law.slope_bound)
    # the laws pass an array of times through
    times = np.linspace(0.0, 1.0, 7)
    assert laws[1].tau(times).shape == laws[0].dtau(times).shape == times.shape
    assert ConstantDamping(1.0).a(times).shape == times.shape


LAWS = {
    "constant tau": (ConstantDelay(0.4).tau, lambda t: 0.4),
    "constant dtau": (ConstantDelay(0.4).dtau, lambda t: 0.0),
    "sinusoidal tau": (SinusoidalDelay(0.1, 0.05, 10.0).tau, lambda t: 0.1 + 0.05 * math.sin(10.0 * t)),
    "sinusoidal dtau": (
        SinusoidalDelay(0.1, 0.05, 10.0).dtau,
        lambda t: 0.05 * 10.0 * math.cos(10.0 * t),
    ),
    "constant a": (ConstantDamping(1.5).a, lambda t: 1.5),
    "exponential a": (
        ExponentialDamping(0.5, 1.5, 2.0).a,
        lambda t: 0.5 + (1.5 - 0.5) * math.exp(-2.0 * t),
    ),
}


@pytest.mark.parametrize("name", sorted(LAWS))
def test_time_laws_take_arrays(name):
    # a law on an array of times gives the array of its values on each time,
    # within 1 ulp, and the closed form in math's functions within 1 ulp
    law, closed_form = LAWS[name]
    dt = 0.02
    times = dt * np.arange(501)
    for grid in (times, times[:-1] + 0.5 * dt, times[:40].reshape(8, 5)):
        values = law(grid)
        assert isinstance(values, np.ndarray) and values.shape == grid.shape
        scalars = [law(t) for t in grid.ravel().tolist()]
        assert all(np.ndim(v) == 0 for v in scalars)
        np.testing.assert_array_max_ulp(values.ravel(), np.array(scalars), maxulp=1)
        reference = np.array([closed_form(t) for t in grid.ravel().tolist()])
        np.testing.assert_array_max_ulp(values.ravel(), reference, maxulp=1)


def test_damping_laws():
    with pytest.raises(ValueError):
        ConstantDamping(0.0)
    e = ExponentialDamping(floor_value=0.5, initial=1.5, rate=2.0)
    assert e.a(0.0) == pytest.approx(1.5)
    assert e.a(100.0) == pytest.approx(0.5)
    assert e.a(0.1) > e.a(0.2)  # non-increasing
    with pytest.raises(ValueError):
        ExponentialDamping(floor_value=1.0, initial=0.5, rate=1.0)


def test_gain_config_helpers():
    g = GainConfig(1.0, 0.0, 2.0, -0.1, 3.0, 0.0)
    assert g.alphas == (1.0, 2.0, 3.0)
    assert g.betas == (0.0, -0.1, 0.0)
    assert g.any_delayed
    assert not GainConfig(1, 0, 1, 0, 1, 0).any_delayed


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "make",
    [
        lambda x: ConstantDelay(x),
        lambda x: SinusoidalDelay(base=x, amplitude=0.05, frequency=10.0),
        lambda x: SinusoidalDelay(base=0.1, amplitude=x, frequency=10.0),
        lambda x: SinusoidalDelay(base=0.1, amplitude=0.05, frequency=x),
        lambda x: ConstantDamping(x),
        lambda x: ExponentialDamping(floor_value=x, initial=1.5, rate=2.0),
        lambda x: ExponentialDamping(floor_value=0.5, initial=x, rate=2.0),
        lambda x: ExponentialDamping(floor_value=0.5, initial=1.5, rate=x),
        lambda x: GainConfig(1.0, 0.2, 1.0, -0.15, 1.0, x),
        lambda x: GainConfig(x, 0.0, 1.0, 0.0, 1.0, 0.0),
    ],
    ids=[
        "constant_delay",
        "sinusoidal_base",
        "sinusoidal_amplitude",
        "sinusoidal_frequency",
        "constant_damping",
        "exp_floor_floor",
        "exp_floor_initial",
        "exp_floor_rate",
        "gain_beta3",
        "gain_alpha1",
    ],
)
def test_laws_and_gains_refuse_non_finite_numbers(make, bad):
    # a law or gain built outside a scenario document is refused as well:
    # an infinite delay or base passed as valid, a nan weight failed a run
    with pytest.raises(ValueError, match="finite"):
        make(bad)
