"""Golden-artifact check: four short N=16 runs against recorded series.

``golden/simulate_n16.json`` holds the energy, boundary-trace and
final-state series of each run, the final states in field-block order (all
u, then all v, then all w).  A rebuild of the same scheme reproduces them
to roundoff (the largest gap seen across numpy/BLAS builds is about 5e-8
relative), while any change to the scheme itself moves them by 1e-5 or
more, so the comparison uses rtol = 1e-6 against each series' largest
magnitude.

Regenerate the file only when the scheme is meant to change:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import os

import numpy as np
import pytest

from sandwichbeam.discretize import VARIANT_CONTROLLED, VARIANT_STABILIZED, Grid1D, build_system
from sandwichbeam.params import (
    ConstantDamping,
    ExponentialDamping,
    GainConfig,
    PhysicalParams,
    SinusoidalDelay,
)
from sandwichbeam.presets import make_histories, random_smooth_state
from sandwichbeam.timestep import SchemeConfig, simulate

from test_discretize import field_order

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "simulate_n16.json")
RTOL = 1e-6

PARAMS = PhysicalParams(
    rho1h1=1.0, E1h1=1.3, rho3h3=0.8, E3h3=1.1, rhoh=1.2, EI=0.7, k=1.5, alpha=0.9, L=1.0
)
SCHEME = SchemeConfig(dt=0.02, T=1.0, stride=10)


def _controlled(forced):
    sys_ = build_system(Grid1D(N=16, L=PARAMS.L), PARAMS, VARIANT_CONTROLLED)
    state = random_smooth_state(sys_, seed=3)
    if not forced:
        return sys_, simulate(state, sys_, SCHEME)
    t = SCHEME.dt * np.arange(SCHEME.n_steps + 1)
    controls = np.column_stack([0.3 * np.sin(2.0 * t), 0.2 * np.cos(3.0 * t), -0.1 * t])
    return sys_, simulate(state, sys_, SCHEME, controls=controls)


def _stabilized(damping):
    sys_ = build_system(Grid1D(N=16, L=PARAMS.L), PARAMS, VARIANT_STABILIZED)
    state = random_smooth_state(sys_, seed=5, prepared=True)
    # three different delay laws, so a channel mix-up shows
    delays = (
        SinusoidalDelay(0.1, 0.05, 10.0),
        SinusoidalDelay(0.2, 0.05, 4.0),
        SinusoidalDelay(0.15, 0.02, 6.0),
    )
    gains = GainConfig(1.0, 0.2, 0.8, -0.15, 1.2, 0.1)
    return sys_, simulate(
        state, sys_, SCHEME,
        gains=gains, delays=delays, damping=damping,
        histories=make_histories(sys_, state, delays),
    )


RUNS = {
    "controlled_free": lambda: _controlled(forced=False),
    "controlled_forced": lambda: _controlled(forced=True),
    "stabilized_constant_damping": lambda: _stabilized((ConstantDamping(1.0),) * 3),
    "stabilized_exp_floor_damping": lambda: _stabilized(
        (ExponentialDamping(0.5, 1.5, 2.0),) * 3
    ),
}


def _series(sys_, out):
    blocks = field_order(sys_)
    series = {
        "energy": out.energy,
        "field_energy": out.field_energy,
        "trace_velocities": out.trace_velocities,
        "final_q": out.states_q[-1][blocks],
        "final_p": out.states_p[-1][blocks],
    }
    if out.displacement_traces is not None:
        series["displacement_traces"] = out.displacement_traces
    if out.delayed_traces is not None:
        series["delayed_traces"] = out.delayed_traces
    return series


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_matches_golden(name, golden):
    expected = golden[name]
    actual = _series(*RUNS[name]())
    assert sorted(actual) == sorted(expected)
    for key, values in expected.items():
        ref = np.asarray(values, dtype=float)
        scale = float(np.max(np.abs(ref)))
        np.testing.assert_allclose(
            actual[key], ref, rtol=RTOL, atol=RTOL * scale, err_msg=f"{name}.{key}"
        )


if __name__ == "__main__":
    record = {name: {k: v.tolist() for k, v in _series(*run()).items()} for name, run in RUNS.items()}
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", newline="\n") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN}")
