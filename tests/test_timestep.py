import dataclasses
import math
import os
import tracemalloc

import numpy as np
import pytest

from sandwichbeam.config import load_config
from sandwichbeam.delayline import LookupBeforeHistory, TraceHistory
from sandwichbeam.discretize import (
    VARIANT_CONTROLLED,
    VARIANT_STABILIZED,
    DiscreteState,
    Grid1D,
    build_system,
)
from sandwichbeam.params import (
    ConstantDamping,
    ConstantDelay,
    ExponentialDamping,
    GainConfig,
    SinusoidalDelay,
)
from sandwichbeam.presets import (
    eigen_mode_state,
    make_histories,
    random_smooth_state,
    zero_state,
)
from sandwichbeam.timestep import IntegrationError, SchemeConfig, SimOutput, simulate

from test_params import unit_params


def stabilized(N=32, **kw):
    p = unit_params(**kw)
    return p, build_system(Grid1D(N=N, L=p.L), p, VARIANT_STABILIZED)


def controlled(N=32, **kw):
    p = unit_params(**kw)
    return p, build_system(Grid1D(N=N, L=p.L), p, VARIANT_CONTROLLED)


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DECAY_INI = os.path.join(ROOT, "configs", "decay.ini")


def decay_scenario(N, delays=None):
    """configs/decay.ini on N cells: (system, initial state, simulate
    keywords), optionally under other delay laws."""
    cfg = load_config(DECAY_INI)
    delays = cfg.delays if delays is None else delays
    sys_ = build_system(Grid1D(N=N, L=cfg.params.L), cfg.params, cfg.variant)
    state = cfg.build_initial(sys_)
    histories = make_histories(sys_, state, delays)
    kwargs = dict(gains=cfg.gains, delays=delays, damping=cfg.damping, histories=histories)
    return sys_, state, kwargs


def history_copies(histories):
    return [(h.times.copy(), h.values.copy(), h.slopes.copy()) for h in histories]


def assert_histories_unchanged(histories, copies):
    for h, arrays in zip(histories, copies):
        for got, kept in zip((h.times, h.values, h.slopes), arrays):
            assert got.tobytes() == kept.tobytes()


def test_scheme_config_validation():
    with pytest.raises(ValueError):
        SchemeConfig(dt=0.0, T=1.0)
    with pytest.raises(ValueError):
        SchemeConfig(dt=0.1, T=1.0, stride=0)
    cfg = SchemeConfig(dt=0.1, T=1.0)
    assert cfg.n_steps == 10
    # a positive horizon under half a step is one step of T, not none
    cfg = SchemeConfig(dt=0.02, T=0.004)
    assert cfg.n_steps == 1 and cfg.step == 0.004
    assert cfg.times.tolist() == [0.0, 0.004]
    assert SchemeConfig(dt=0.02, T=0.0).n_steps == 0


def test_zero_state_stays_zero():
    p, sys_ = stabilized(16)
    cfg = SchemeConfig(dt=0.05, T=0.5)
    out = simulate(zero_state(sys_), sys_, cfg)
    assert np.all(out.energy == 0.0)
    p, sysc = controlled(16)
    out = simulate(zero_state(sysc), sysc, cfg)
    assert np.all(out.energy == 0.0)


def test_midpoint_scheme_quadratic_invariant_oracle():
    # establish the conservation property on an independent dense toy
    # system, then require the production stepper to reproduce it
    rng = np.random.default_rng(1)
    n = 5
    A = rng.standard_normal((n, n))
    K = A @ A.T + n * np.eye(n)
    M = np.diag(rng.uniform(0.5, 2.0, n))
    q = rng.standard_normal(n)
    v = rng.standard_normal(n)
    dt = 0.01
    e0 = v @ M @ v + q @ K @ q
    for _ in range(2000):
        a = np.linalg.solve(M + 0.25 * dt * dt * K, -K @ (q + 0.5 * dt * v))
        q = q + dt * v + 0.5 * dt * dt * a
        v = v + dt * a
    assert abs(v @ M @ v + q @ K @ q - e0) <= 1e-10 * e0

    # conservative reduction of the stabilized variant over 1000 steps
    p, sys_ = stabilized(24)
    st = random_smooth_state(sys_, seed=3, prepared=True)
    cfg = SchemeConfig(dt=0.005, T=5.0, stride=100)
    out = simulate(st, sys_, cfg)
    assert out.relative_drift() <= 1e-10


def test_controlled_conservation_random_smooth():
    p, sys_ = controlled(32)
    st = random_smooth_state(sys_, seed=11)
    cfg = SchemeConfig(dt=1e-3, T=2.0, stride=200)
    out = simulate(st, sys_, cfg)
    assert out.relative_drift() <= 1e-8


def test_one_step_constant_control_matches_dense_oracle():
    p, sys_ = controlled(16)
    c = 0.8
    cfg = SchemeConfig(dt=0.01, T=0.01)
    state = zero_state(sys_)
    new = simulate(state, sys_, cfg, controls=lambda t: (c, 0.0, 0.0)).final_state()
    # dense one-step oracle for the same midpoint equations; the first
    # control drives u(L) with weight E1h1
    force = np.zeros(sys_.ndof)
    force[sys_.nodal[sys_.grid.N, 0]] = p.E1h1 * c
    A = np.diag(sys_.M) + 0.25 * cfg.dt ** 2 * sys_.K
    a = np.linalg.solve(A, force)
    v1 = cfg.dt * a
    q1 = 0.5 * cfg.dt ** 2 * a
    assert np.allclose(new.p, v1, rtol=0, atol=1e-13)
    assert np.allclose(new.q, q1, rtol=0, atol=1e-13)
    # the boundary trace velocity picks up ~ dt * c * E1h1 / M_trace
    i4 = sys_.nodal[-1, 0]
    lead = cfg.dt * c * p.E1h1 / sys_.M[i4]
    assert new.p[i4] == pytest.approx(lead, rel=0.05)


def test_one_stabilized_step_pushes_history():
    p, sys_ = stabilized(16)
    delays = (ConstantDelay(0.3),) * 3
    gains = GainConfig(1.0, 0.1, 1.0, 0.1, 1.0, 0.05)
    st = random_smooth_state(sys_, seed=5, prepared=True)
    hist = make_histories(sys_, st, delays)
    copies = history_copies(hist)
    cfg = SchemeConfig(dt=0.02, T=0.02)
    out = simulate(
        st, sys_, cfg,
        gains=gains, delays=delays, damping=(ConstantDamping(1.0),) * 3, histories=hist,
    )
    new = out.final_state()
    assert out.times[-1] == pytest.approx(0.02)
    # one midpoint sample per channel, at t = 0.01; the histories are unchanged
    assert out.ledger["t_mid"] == pytest.approx([0.01])
    np.testing.assert_array_equal(out.ledger["trace_mid"], [sys_.traces(0.5 * (st.p + new.p))])
    assert_histories_unchanged(hist, copies)


def test_one_stabilized_step_matches_dense_oracle():
    # interior damping plus instantaneous and delayed feedback in one step:
    # effective matrix diag(M) + dt/2 (feedback + damping) + dt^2/4 K, force
    # -sum c_i beta_i z_i t_i with z_i read from the constant-trace history
    p, sys_ = stabilized(16)
    delays = (ConstantDelay(0.3),) * 3
    gains = GainConfig(1.0, 0.1, 1.0, -0.1, 1.0, 0.05)
    a = 0.7
    st = random_smooth_state(sys_, seed=5)
    hist = make_histories(sys_, st, delays)
    dt = 0.02
    out = simulate(
        st, sys_, SchemeConfig(dt=dt, T=dt),
        gains=gains, delays=delays, damping=(ConstantDamping(a),) * 3, histories=hist,
    )
    cs = p.boundary_stiffness
    # trace functionals u_t(L), v_t(L), w_tx(L) = -w_t(x_{N-1})/dx
    N, nodal = sys_.grid.N, sys_.nodal
    tv = np.zeros((3, sys_.ndof))
    tv[0, nodal[N, 0]] = 1.0
    tv[1, nodal[N, 1]] = 1.0
    tv[2, nodal[N - 1, 2]] = -1.0 / sys_.grid.dx
    z = tv @ st.p
    assert np.all(z != 0.0)
    feedback = sum(c * al * np.outer(t, t) for c, al, t in zip(cs, gains.alphas, tv))
    C = feedback + np.diag(np.dot((a, a, a), sys_.field_weights))
    force = -sum(c * b * zi * t for c, b, zi, t in zip(cs, gains.betas, z, tv))
    A = np.diag(sys_.M) + 0.5 * dt * C + 0.25 * dt ** 2 * sys_.K
    acc = np.linalg.solve(A, force - C @ st.p - sys_.K @ (st.q + 0.5 * dt * st.p))
    v1 = st.p + dt * acc
    q1 = st.q + dt * st.p + 0.5 * dt ** 2 * acc
    assert np.allclose(out.ledger["z_mid"][0], z, rtol=1e-12, atol=0)
    assert np.allclose(out.states_p[-1], v1, rtol=0, atol=1e-12 * np.max(np.abs(v1)))
    assert np.allclose(out.states_q[-1], q1, rtol=0, atol=1e-12 * np.max(np.abs(q1)))


def test_simulate_rejects_arguments_the_variant_ignores():
    cfg = SchemeConfig(dt=0.01, T=0.1)
    _, sys_ = stabilized(16)
    with pytest.raises(ValueError, match="controls"):
        simulate(zero_state(sys_), sys_, cfg, controls=lambda t: (1.0, 0.0, 0.0))
    _, sysc = controlled(16)
    st = random_smooth_state(sysc, seed=2)
    delays = (ConstantDelay(0.3),) * 3
    for name, value in (
        ("gains", GainConfig(1.0, 0.1, 1.0, 0.1, 1.0, 0.05)),
        ("delays", delays),
        ("damping", (ConstantDamping(5.0),) * 3),
        ("histories", make_histories(sysc, st, delays)),
    ):
        with pytest.raises(ValueError, match=name):
            simulate(st, sysc, cfg, **{name: value})
    # a stabilized run takes exactly one law per channel
    for name, value in (("delays", delays[:2]), ("damping", (ConstantDamping(5.0),) * 4)):
        with pytest.raises(ValueError, match="three laws"):
            simulate(zero_state(sys_), sys_, cfg, **{name: value})


def test_delay_safety_enforced():
    p, sys_ = stabilized(16)
    # the floors differ and the smallest is not first: the rule binds the smallest
    delays = (ConstantDelay(0.3), ConstantDelay(0.05), ConstantDelay(0.2))
    gains = GainConfig(1.0, 0.1, 1.0, 0.0, 1.0, 0.0)
    st = random_smooth_state(sys_, seed=5, prepared=True)
    hist = make_histories(sys_, st, delays)
    cfg = SchemeConfig(dt=0.1, T=1.0)
    with pytest.raises(ValueError, match="smallest delay floor 0.05;"):
        simulate(st, sys_, cfg, gains=gains, delays=delays, histories=hist)
    # the rule binds the step taken, T / round(T / dt): 2 steps of 0.0625
    cfg = SchemeConfig(dt=0.05, T=0.125)
    with pytest.raises(ValueError, match="0.0625"):
        simulate(st, sys_, cfg, gains=gains, delays=delays, histories=hist)
    # 3 steps of 0.05 satisfy it although cfg.dt = 0.055 does not
    cfg = SchemeConfig(dt=0.055, T=0.15)
    hist = make_histories(sys_, st, delays)
    out = simulate(st, sys_, cfg, gains=gains, delays=delays, histories=hist)
    assert out.n_steps == 3 and out.dt <= 0.05


def test_unit_slope_delay_refused():
    p, sys_ = stabilized(16)
    delays = (SinusoidalDelay(2.0, 1.0, 1.0),) * 3
    gains = GainConfig(1.0, 0.1, 1.0, 0.0, 1.0, 0.0)
    st = zero_state(sys_)
    hist = make_histories(sys_, st, delays)
    with pytest.raises(ValueError):
        simulate(st, sys_, SchemeConfig(dt=0.05, T=0.5), gains=gains, delays=delays, histories=hist)


def test_delayed_history_must_end_by_the_start():
    # the window at t = 0 must read the history up to its newest sample
    p, sys_ = stabilized(16)
    delays = (ConstantDelay(0.1),) * 3
    gains = GainConfig(1.0, 0.1, 1.0, 0.0, 1.0, 0.0)
    st = zero_state(sys_)
    hist = make_histories(sys_, st, delays)
    h = hist[0]
    ends_late = TraceHistory(
        np.append(h.times, 0.005), np.append(h.values, 0.0), np.append(h.slopes, 0.0)
    )
    hist = (ends_late,) + hist[1:]
    with pytest.raises(ValueError, match="must end at t <= 0"):
        simulate(st, sys_, SchemeConfig(dt=0.02, T=0.2), gains=gains, delays=delays, histories=hist)


def test_nonfinite_state_detected():
    p, sys_ = controlled(16)
    st = zero_state(sys_)
    st.q[0] = np.inf
    with pytest.raises(IntegrationError):
        simulate(st, sys_, SchemeConfig(dt=0.01, T=0.1))


def test_large_finite_state_is_not_rejected():
    # a velocity of energy 5e307 whose squares sum past the largest double:
    # the scalar test must fall back to the elementwise check rather than
    # report a non-finite state, and the recorded energies stay finite
    p, sys_ = controlled(16)
    st = random_smooth_state(sys_, seed=2)
    big = DiscreteState(q=np.zeros(sys_.ndof), p=1e154 * st.p / math.sqrt(st.p @ (sys_.M * st.p)))
    with np.errstate(over="ignore"):
        assert not math.isfinite(np.dot(big.p, big.p))
        out = simulate(big, sys_, SchemeConfig(dt=0.001, T=0.01, stride=1))
    assert out.n_steps == 10
    assert np.all(np.isfinite(out.states_q)) and np.all(np.isfinite(out.states_p))
    assert np.all(np.isfinite(out.energy)) and out.energy[0] == pytest.approx(5e307, rel=1e-12)


def test_overflowing_energy_is_reported_at_its_step():
    # a finite state of size 1e200 has an energy past the largest double
    p, sys_ = controlled(16)
    st = random_smooth_state(sys_, seed=2)
    big = DiscreteState(q=1e200 * st.q / np.max(np.abs(st.q)), p=1e200 * st.p / np.max(np.abs(st.p)))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(IntegrationError, match="non-finite field energy, trace or ledger value at step 0$"):
            simulate(big, sys_, SchemeConfig(dt=0.01, T=0.1, stride=1))


def test_record_check_names_the_first_step():
    from sandwichbeam.timestep import _check_records

    energy = np.array([1.0, 2.0, np.inf, np.nan])
    traces = np.array([[1.0, 2.0, 3.0], [0.0, -np.inf, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    with pytest.raises(IntegrationError, match="non-finite records at step 6$"):
        _check_records("records", 5, energy, traces, traces[:0])
    # finite values whose sum overflows pass
    with np.errstate(over="ignore"):
        _check_records("records", 5, np.array([1e308, 1e308]), traces[:0])


def test_nonfinite_delay_series_reported_at_its_step():
    def integrals():
        return np.array([0.0, 1.0, np.inf]), np.zeros(3), np.zeros(3)

    out = SimOutput(
        variant=VARIANT_STABILIZED,
        dt=0.1,
        times=np.array([0.0, 0.1, 0.2]),
        trace_velocities=np.zeros((3, 3)),
        field_energy=np.ones(3),
        windows=((0, 0.5, integrals),),
    )
    with pytest.raises(IntegrationError, match="non-finite delay energy, tilt or delayed trace at step 2$"):
        out.energy


def test_max_energy_increase_keeps_a_nan():
    def record(energy):
        n = len(energy)
        return SimOutput(
            variant=VARIANT_CONTROLLED,
            dt=0.1,
            times=0.1 * np.arange(n),
            trace_velocities=np.zeros((n, 3)),
            field_energy=np.array(energy),
        )

    assert record([2.0, 1.0, 0.5]).max_energy_increase() == 0.0
    assert record([1.0, 1.5, 1.25]).max_energy_increase() == 0.5
    # Python's max(0.0, nan) is 0.0, which read a NaN energy as monotone
    assert math.isnan(record([1.0, np.nan, 1.0]).max_energy_increase())


def test_injected_nan_reported_at_its_step(monkeypatch):
    import sandwichbeam.timestep as timestep

    advance = timestep._Stepper.advance
    calls = []

    def poisoned(self, q0, v0, force_mid, q1, v1):
        advance(self, q0, v0, force_mid, q1, v1)
        calls.append(1)
        if len(calls) == 4:
            v1[3] = np.nan

    monkeypatch.setattr(timestep._Stepper, "advance", poisoned)
    p, sys_ = controlled(16)
    with pytest.raises(IntegrationError, match="non-finite state at step 4$"):
        simulate(random_smooth_state(sys_, seed=2), sys_, SchemeConfig(dt=0.01, T=0.1))
    assert len(calls) == 4


def test_nonfinite_control_detected_at_its_step():
    p, sys_ = controlled(16)
    st = random_smooth_state(sys_, seed=2)
    cfg = SchemeConfig(dt=0.01, T=0.1)
    # an array sample at t_k first enters the midpoint of step k
    controls = np.zeros((cfg.n_steps + 1, 3))
    controls[4, 1] = np.nan
    with pytest.raises(IntegrationError, match="control at step 4$"):
        simulate(st, sys_, cfg, controls=controls)
    # a callable is sampled at midpoints: (n + 1/2) dt drives step n + 1
    bad = lambda t: (np.inf if t > 0.06 else 0.0, 0.0, 0.0)
    with pytest.raises(IntegrationError, match="control at step 7$"):
        simulate(st, sys_, cfg, controls=bad)


def test_factorization_reused_until_damping_weights_change(monkeypatch):
    import sandwichbeam.timestep as timestep
    from sandwichbeam.params import ExponentialDamping

    calls = []
    real = timestep.bind_dpbtrf

    def bind_counted(ab):
        factor = real(ab)
        return lambda: calls.append(1) or factor()

    monkeypatch.setattr(timestep, "bind_dpbtrf", bind_counted)
    p, sys_ = stabilized(16)
    st = random_smooth_state(sys_, seed=4, prepared=True)
    cfg = SchemeConfig(dt=0.02, T=0.4)
    simulate(st, sys_, cfg, damping=(ConstantDamping(1.0),) * 3)
    assert len(calls) == 1
    calls.clear()
    damping = (ExponentialDamping(0.5, 1.5, 2.0),) * 3
    simulate(st, sys_, cfg, damping=damping)
    assert len(calls) == cfg.n_steps

    class Returning(ConstantDamping):
        # weights A, then B, then A again, all within one block of steps
        def a(self, t):
            return np.where((t > 0.1) & (t < 0.2), 2.0 * self.value, self.value)

    calls.clear()
    out = simulate(st, sys_, cfg, damping=(Returning(1.0),) * 3)
    assert cfg.n_steps <= timestep._block_steps(sys_.ndof)
    assert len(calls) == 3
    # every step ran under its own weights: the energy balance
    # E_{n+1} - E_n = -dt v_mid' C(t_mid) v_mid holds step by step
    ledger = out.ledger
    dissipated = out.dt * np.sum(ledger["a_mid"] * ledger["vel_norms_mid"], axis=1)
    assert np.allclose(np.diff(out.energy), -dissipated, rtol=1e-9, atol=1e-13 * out.energy[0])


def test_one_dsbmv_per_step_and_none_for_energies(monkeypatch):
    # the step's K x is the run's only banded product: the recorded field
    # energies never go through dsbmv, in whatever module it is bound
    import sys

    from sandwichbeam import lapack

    calls = []
    real = lapack.bind_dsbmv

    def bind_counted(*args):
        product = real(*args)
        return lambda: calls.append(1) or product()

    for name, module in list(sys.modules.items()):
        if name.startswith("sandwichbeam") and getattr(module, "bind_dsbmv", None) is real:
            monkeypatch.setattr(module, "bind_dsbmv", bind_counted)
    for sys_, state, cfg, kwargs in block_edge_runs(41):
        calls.clear()
        out = simulate(state, sys_, cfg, **kwargs)
        assert len(calls) == out.n_steps == 41


def test_block_buffers_add_little_memory():
    # the grid-ladder document at N = 1024, 100 steps in blocks of 4: the
    # run peaks at about 0.85 MiB (1.18 MiB with a scaled copy of the band
    # and a doubled band per energy call), of which the block buffers and
    # the block pass's temporaries are about 0.35 MiB; the bound keeps them
    # a small share of the 40 MB a command's process holds
    cfg = load_config(os.path.join(ROOT, "configs", "control.ini"))
    sys_ = build_system(Grid1D(N=1024, L=cfg.params.L), cfg.params, cfg.variant)
    state = cfg.build_initial(sys_)
    scheme = SchemeConfig(dt=0.001, T=0.1, stride=100)
    tracemalloc.start()
    try:
        out = simulate(state, sys_, scheme)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.n_steps == 100
    assert peak < 1.5 * 2**20, peak


def test_large_grid_steps_without_dense_stiffness():
    # the dense K alone would be 3073^2 * 8 bytes = 75.5 MB
    p = unit_params()
    cases = (
        (VARIANT_CONTROLLED, {"controls": lambda t: (1.0, -1.0, 0.5)}),
        (VARIANT_STABILIZED, {"damping": (ExponentialDamping(0.5, 1.5, 2.0),) * 3}),
    )
    for variant, kwargs in cases:
        tracemalloc.start()
        try:
            sys_ = build_system(Grid1D(N=1024, L=p.L), p, variant)
            out = simulate(random_smooth_state(sys_, seed=1), sys_, SchemeConfig(dt=1e-4, T=5e-4), **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.n_steps == 5
        assert peak < 10 * 2 ** 20, (variant, peak)


def block_edge_runs(n_steps, stride=1):
    """(system, state, scheme, simulate keywords) of a controlled run with
    controls and of a stabilized run with exponential damping and delays,
    each over ``n_steps`` steps."""
    cfg = SchemeConfig(dt=0.02, T=0.02 * n_steps, stride=stride)
    p, sys_c = controlled(16)
    controls = lambda t: (math.sin(3.0 * t), 0.5 * math.cos(2.0 * t), -0.2 * t)
    sys_s, state_s, kwargs = decay_scenario(16)
    kwargs["damping"] = (ExponentialDamping(0.5, 1.5, 2.0),) * 3
    return [
        (sys_c, random_smooth_state(sys_c, seed=2), cfg, {"controls": controls}),
        (sys_s, state_s, cfg, kwargs),
    ]


def test_block_edges_record_every_state():
    # the recorded series are filled one block of steps at a time; at every
    # block edge they must equal a recomputation state by state.  Energies
    # go through one evaluator on a stack or on one state, whose sums may
    # round differently: over these runs (and 200-step ones) they differ by
    # at most 4.4e-16 relative, and 4e-15 is asked.  Velocity norms differ
    # by at most 4.0e-16, and 2e-15 is asked.  Everything else is bit for
    # bit.
    import sandwichbeam.timestep as timestep

    block = timestep._block_steps(controlled(16)[1].ndof)
    assert block == timestep._block_steps(stabilized(16)[1].ndof) == 32
    for n_steps in (0, 1, block - 1, block, block + 1, 2 * block + 3):
        for (sys_, state, cfg, kwargs), (_, _, cfg_strided, _) in zip(
            block_edge_runs(n_steps), block_edge_runs(n_steps, stride=5)
        ):
            out = simulate(state, sys_, cfg, **kwargs)
            assert out.n_steps == n_steps and len(out.states_q) == n_steps + 1
            qs, ps = out.states_q, out.states_p
            for n in range(n_steps + 1):
                assert out.trace_velocities[n].tobytes() == sys_.traces(ps[n]).tobytes()
                if out.displacement_traces is not None:
                    assert out.displacement_traces[n].tobytes() == sys_.traces(qs[n]).tobytes()
                energy = sys_.field_energy(qs[n], ps[n])
                assert abs(out.field_energy[n] - energy) <= 4e-15 * energy, (n_steps, n)
            if out.ledger is not None:
                for n in range(n_steps):
                    v_mid = 0.5 * (ps[n] + ps[n + 1])
                    assert out.ledger["trace_mid"][n].tobytes() == sys_.traces(v_mid).tobytes()
                    norms = sys_.field_weights @ (v_mid * v_mid)
                    np.testing.assert_allclose(out.ledger["vel_norms_mid"][n], norms, rtol=2e-15)
            # a stride that does not divide the block samples the same states
            strided = simulate(state, sys_, cfg_strided, **kwargs)
            slots = sorted(set(range(0, n_steps + 1, 5)) | {n_steps})
            assert strided.samples.tolist() == slots
            assert strided.states_q.tobytes() == qs[slots].tobytes()
            assert strided.states_p.tobytes() == ps[slots].tobytes()
            for name in ("energy", "trace_velocities", "displacement_traces", "delayed_traces"):
                assert np.asarray(getattr(strided, name)).tobytes() == np.asarray(getattr(out, name)).tobytes()


def test_decimation_stride_honored():
    p, sys_ = controlled(16)
    st = random_smooth_state(sys_, seed=2)
    out = simulate(st, sys_, SchemeConfig(dt=0.01, T=0.2, stride=7))
    # every 7th step and the last, each the state of that step
    assert out.samples.tolist() == [0, 7, 14, 20]
    every = simulate(st, sys_, SchemeConfig(dt=0.01, T=0.2))
    assert out.states_q.tobytes() == every.states_q[out.samples].tobytes()
    assert out.states_p.tobytes() == every.states_p[out.samples].tobytes()
    sample_times = out.times[out.samples]
    assert sample_times[0] == 0.0
    assert sample_times[-1] == pytest.approx(0.2)
    assert np.allclose(np.diff(sample_times)[:-1], 0.07)
    # T = 0: initial sample only
    out0 = simulate(st, sys_, SchemeConfig(dt=0.01, T=0.0))
    assert out0.n_steps == 0 and out0.samples.tolist() == [0]


def test_time_reversibility_of_conservative_run():
    p, sys_ = controlled(24)
    st = random_smooth_state(sys_, seed=9)
    cfg = SchemeConfig(dt=0.005, T=1.0, stride=10 ** 9)
    fwd = simulate(st, sys_, cfg)
    back_start = DiscreteState(q=fwd.states_q[-1].copy(), p=-fwd.states_p[-1])
    back = simulate(back_start, sys_, cfg)
    q_rt = back.states_q[-1]
    p_rt = -back.states_p[-1]
    scale = max(np.max(np.abs(st.q)), np.max(np.abs(st.p)))
    assert np.max(np.abs(q_rt - st.q)) <= 1e-8 * scale
    assert np.max(np.abs(p_rt - st.p)) <= 1e-8 * scale


def test_scalar_delayed_reduction_second_order_in_time():
    # u-field only (k ~ 0): delayed wave equation against a dt/16 reference
    p, sys_ = stabilized(24, k=1e-12)
    delays = (ConstantDelay(0.5),) * 3
    gains = GainConfig(1.0, 0.3, 0.0, 0.0, 0.0, 0.0)
    st = eigen_mode_state(sys_, 0, 1.0)

    def final(dt):
        hist = make_histories(sys_, st, delays)
        out = simulate(
            st, sys_, SchemeConfig(dt=dt, T=2.0, stride=10 ** 9),
            gains=gains, delays=delays, histories=hist,
        )
        return out.states_q[-1], out.states_p[-1]

    qr, pr = final(0.005 / 16)
    errs = []
    for dt in (0.02, 0.01, 0.005):
        q, v = final(dt)
        errs.append(np.sqrt(np.sum((q - qr) ** 2) + np.sum((v - pr) ** 2)))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(1.7 <= o <= 2.3 for o in orders), (errs, orders)


def test_monotone_decay_with_steep_delay_slope():
    # sinusoidal delays with slope bound 0.9 still give monotone energy
    p, sys_ = stabilized(32)
    delays = (SinusoidalDelay(0.5, 0.3, 3.0),) * 3
    assert delays[0].slope_bound == pytest.approx(0.9)
    gains = GainConfig(1.0, 0.1, 1.0, -0.08, 1.0, 0.05)
    damping = (ConstantDamping(1.0),) * 3
    from sandwichbeam.hypotheses import validate_gains

    assert all(row["pass"] for row in validate_gains(p, gains, delays))
    st = random_smooth_state(sys_, seed=21, prepared=True)
    hist = make_histories(sys_, st, delays)
    out = simulate(
        st, sys_, SchemeConfig(dt=0.05, T=8.0, stride=20),
        gains=gains, delays=delays, damping=damping, histories=hist,
    )
    assert out.max_energy_increase() <= 1e-10 * out.energy[0]
    assert out.energy[-1] < 0.05 * out.energy[0]


def test_exponential_damping_refactors_and_decays():
    p, sys_ = stabilized(16)
    from sandwichbeam.params import ExponentialDamping

    damping = (ExponentialDamping(0.5, 2.0, 1.0),) * 3
    st = random_smooth_state(sys_, seed=4, prepared=True)
    out = simulate(st, sys_, SchemeConfig(dt=0.02, T=2.0, stride=10), damping=damping)
    assert out.max_energy_increase() == 0.0
    assert out.energy[-1] < out.energy[0]


def test_trace_ode_consistency_controlled():
    # the recorded boundary velocity differentiates (centered, second order)
    # to the trace equation -u_x(L) + f1; the spatial trace uses the
    # one-sided second-order stencil, so the comparison carries an O(dx)
    # floor on top of the O(dt^2) temporal term
    p, sys_ = controlled(64)
    st = eigen_mode_state(sys_, 2, 1.0)
    f1 = lambda t: 0.3 * np.sin(2.0 * t)
    controls = lambda t: (f1(t), 0.0, 0.0)
    iu = sys_.nodal[:, 0]
    i4 = iu[-1]
    dx = sys_.grid.dx

    def gaps(dt):
        out = simulate(st, sys_, SchemeConfig(dt=dt, T=1.0, stride=1), controls=controls)
        psi4 = out.trace_velocities[:, 0]
        dpsi = (psi4[2:] - psi4[:-2]) / (2.0 * dt)
        worst = 0.0
        for n in range(1, out.n_steps):
            q = out.states_q[n]
            ux = (3.0 * q[iu[-1]] - 4.0 * q[iu[-2]] + q[iu[-3]]) / (2.0 * dx)
            worst = max(worst, abs(dpsi[n - 1] - (-ux + f1(out.times[n]))))
        return worst

    g1 = gaps(0.02)
    g2 = gaps(0.005)
    scale = 0.3  # control amplitude
    assert g2 <= 0.5 * dx * scale + 0.1 * g1
    assert g1 <= 0.05 * scale


def test_nonfinite_effective_matrix_detected():
    p, sys_ = stabilized(16)
    st = random_smooth_state(sys_, seed=4, prepared=True)
    cfg = SchemeConfig(dt=0.02, T=0.2)

    class TurnsNan:
        # finite damping weights for two steps, then NaN
        def a(self, t):
            return np.where(t < 0.05, 1.0, math.nan)

    with pytest.raises(IntegrationError, match="non-finite effective matrix"):
        simulate(st, sys_, cfg, damping=(TurnsNan(),) * 3)
    band = sys_.band.copy()
    band[1, 3] = np.inf
    with pytest.raises(IntegrationError, match="non-finite effective matrix"):
        simulate(st, dataclasses.replace(sys_, band=band), cfg)


def test_delay_windows_computed_once_per_delayed_channel(monkeypatch):
    # simulate checks every channel's windows and defers their integrals to
    # the first read of a delay-line series, which runs one pass per channel
    import sandwichbeam.delayline as delayline
    import sandwichbeam.timestep as timestep

    channels, passes = [], []
    checks, integrals = timestep.delay_windows, delayline._integrals
    monkeypatch.setattr(
        timestep, "delay_windows", lambda *a: channels.append(a[-1]) or checks(*a)
    )
    monkeypatch.setattr(delayline, "_integrals", lambda *a: passes.append(1) or integrals(*a))
    sys_, state, kwargs = decay_scenario(16)
    out = simulate(state, sys_, SchemeConfig(dt=0.02, T=1.0), **kwargs)
    assert out.n_steps == 50
    assert sorted(channels) == [0, 1, 2]
    out.final_state()
    assert passes == []
    for name in ("delayed_traces", "energy", "delay_tilts", "energy"):
        getattr(out, name)
    assert len(passes) == 3


def test_delay_beyond_declared_cap_raises():
    # tau(t) reaches 0.3, but the histories retain only the declared cap 0.2
    class Undercapped(SinusoidalDelay):
        cap = 0.2

    # with amplitude -0.1 the delay stays under its cap until t = pi/5, so
    # the refusal comes before the first step, not at step 32: in both
    # cases the histories are left as they were
    for amplitude in (0.1, -0.1):
        delays = (Undercapped(0.2, amplitude, 5.0),) * 3
        sys_, state, kwargs = decay_scenario(16, delays)
        copies = history_copies(kwargs["histories"])
        with pytest.raises(LookupBeforeHistory):
            simulate(state, sys_, SchemeConfig(dt=0.02, T=2.0), **kwargs)
        assert_histories_unchanged(kwargs["histories"], copies)


def test_simulate_twice_on_the_same_histories():
    # simulate changes none of its arguments, so a second run on the same
    # initial state and histories gives the same output bit for bit
    sys_, state, kwargs = decay_scenario(16)
    q0, p0 = state.q.copy(), state.p.copy()
    copies = history_copies(kwargs["histories"])
    cfg = SchemeConfig(dt=0.02, T=1.0)
    runs = [simulate(state, sys_, cfg, **kwargs) for _ in range(2)]
    assert_histories_unchanged(kwargs["histories"], copies)
    assert state.q.tobytes() == q0.tobytes() and state.p.tobytes() == p0.tobytes()
    # the deferred series are compared in place of the window pass itself
    names = [f.name for f in dataclasses.fields(SimOutput) if f.name != "windows"]
    for name in names + ["energy", "delay_tilts", "delayed_traces"]:
        first, second = (getattr(out, name) for out in runs)
        if name == "ledger":
            assert first.keys() == second.keys()
            pairs = [(first[key], second[key]) for key in first]
        else:
            pairs = [(first, second)]
        for a, b in pairs:
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), name


def test_window_pass_refuses_a_delay_past_its_cap(monkeypatch):
    # tau(t) overshoots its cap only at the final record time, after the
    # last lookup, so the window check is the one to refuse it: inside
    # simulate and before the first step, though the integrals are deferred
    import sandwichbeam.timestep as timestep

    def must_not_step(*args):
        raise AssertionError("stepped past a refused window")

    monkeypatch.setattr(timestep._Stepper, "advance", must_not_step)

    class LateOvershoot(ConstantDelay):
        def tau(self, t):
            return self.value + np.where(t > 1.995, 0.05, 0.0)

    sys_, state, kwargs = decay_scenario(16, (LateOvershoot(0.1),) * 3)
    with pytest.raises(LookupBeforeHistory, match="exceeds its declared cap"):
        simulate(state, sys_, SchemeConfig(dt=0.02, T=2.0), **kwargs)
    # a history that serves every lookup but not the window at t = 0, which
    # starts at -tau(0), before its earliest sample
    sys_, state, kwargs = decay_scenario(16, (ConstantDelay(0.1),) * 3)
    kwargs["histories"] = tuple(
        TraceHistory(h.times[1:], h.values[1:], h.slopes[1:]) for h in kwargs["histories"]
    )
    with pytest.raises(LookupBeforeHistory, match="channel 0: lookup at t=-0.1 before earliest"):
        simulate(state, sys_, SchemeConfig(dt=0.02, T=2.0), **kwargs)


def test_delay_window_pass_memory_is_bounded():
    # 4000 steps with 100-150 history segments per delay window: the window
    # pass works in blocks, so its peak stays O(steps), not O(steps * tau/dt)
    sys_, state, kwargs = decay_scenario(16)
    tracemalloc.start()
    try:
        out = simulate(state, sys_, SchemeConfig(dt=0.001, T=4.0, stride=10), **kwargs)
        out.energy
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.n_steps == 4000
    assert peak < 4 * 2**20, peak


def test_time_laws_sampled_once_on_the_midpoint_grid(monkeypatch):
    # recording laws and a counting stepper: every law call lands before the
    # first step, and each takes a whole grid: the midpoints
    # out.times[:-1] + dt/2 bit for bit, and for tau also the record times
    # of the window check
    import sandwichbeam.timestep as timestep

    events = []
    advance = timestep._Stepper.advance

    def counted(self, *args):
        events.append(("advance", None))
        return advance(self, *args)

    monkeypatch.setattr(timestep._Stepper, "advance", counted)

    class RecordedDelay(SinusoidalDelay):
        def tau(self, t):
            events.append(("tau", t))
            return super().tau(t)

        def dtau(self, t):
            events.append(("dtau", t))
            return super().dtau(t)

    class RecordedDamping(ExponentialDamping):
        def a(self, t):
            events.append(("a", t))
            return super().a(t)

    def control(t):
        events.append(("control", t))
        return (math.sin(t), 0.0, 0.0)

    def check(out, laws):
        steps = [k for k, (name, _) in enumerate(events) if name == "advance"]
        assert len(steps) == out.n_steps
        assert all(name == "advance" for name, _ in events[steps[0] : steps[-1] + 1])
        t_mid = out.times[:-1] + 0.5 * out.dt
        for law, grids in laws.items():
            received = [np.atleast_1d(t) for name, t in events[: steps[0]] if name == law]
            expected = [t_mid if grid is None else grid for grid in grids]
            assert np.concatenate(received).tobytes() == np.concatenate(expected).tobytes(), law
        return events[steps[-1] + 1 :]

    sys_, state, kwargs = decay_scenario(16, (RecordedDelay(0.1, 0.05, 10.0),) * 3)
    kwargs["damping"] = (RecordedDamping(0.5, 1.5, 2.0),) * 3
    events.clear()
    out = simulate(state, sys_, SchemeConfig(dt=0.01, T=1.0), **kwargs)
    # one call per channel and grid (None: the midpoints); tau also on the
    # record times
    laws = {"tau": [None, out.times] * 3, "dtau": [None] * 3, "a": [None] * 3}
    assert check(out, laws) == []
    # the deferred window pass samples no law
    out.energy
    assert events[-1][0] == "advance"

    p, sysc = controlled(16)
    events.clear()
    out = simulate(random_smooth_state(sysc, seed=2), sysc, SchemeConfig(dt=0.01, T=1.0), controls=control)
    # a callable control is called at each midpoint in turn
    assert check(out, {"control": [None]}) == []
