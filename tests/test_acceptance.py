"""Acceptance gate: one test per criterion, at the stated tolerances.

Each test prints a single pass/fail line (visible with pytest -s; the test
name itself carries the verdict otherwise).  Desk-scale configurations are
pinned here, including the time-step pairs for the ratio tests.
"""

import time

import numpy as np

from sandwichbeam.decay import (
    check_dissipation_identity,
    check_theoretical_bound,
    check_trace_estimates,
    lyapunov_trace,
)
from sandwichbeam.delayline import delay_samples
from sandwichbeam.discretize import VARIANT_CONTROLLED, VARIANT_STABILIZED, Grid1D, build_system
from sandwichbeam.hum import compute_null_control, gramian, observability
from sandwichbeam.hypotheses import (
    gain_threshold,
    is_negative_definite,
    phi_matrix,
    select_mus,
    validate_gains,
)
from sandwichbeam.params import GainConfig, PhysicalParams, SinusoidalDelay
from sandwichbeam.presets import (
    eigen_mode_state,
    make_histories,
    random_smooth_state,
    single_mode_state,
)
from sandwichbeam.timestep import SchemeConfig, simulate

from test_delayline import extend, lookup
from test_hum import observation_product, solve_adjoint
from test_params import constant_damping, constant_delay
from test_timestep import init_history

UNIT = PhysicalParams(
    rho1h1=1.0, E1h1=1.0, rho3h3=1.0, E3h3=1.0, rhoh=1.0, EI=1.0, k=1.0, alpha=1.0, L=1.0
)

_cache = {}


def _report(criterion, passed, detail):
    verdict = "PASS" if passed else "FAIL"
    print(f"criterion {criterion}: {verdict} - {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def test_criterion_01_hypothesis_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(1000):
        p = PhysicalParams(
            rho1h1=rng.uniform(0.2, 3.0),
            E1h1=rng.uniform(0.2, 3.0),
            rho3h3=rng.uniform(0.2, 3.0),
            E3h3=rng.uniform(0.2, 3.0),
            rhoh=rng.uniform(0.2, 3.0),
            EI=rng.uniform(0.2, 3.0),
            k=rng.uniform(0.2, 3.0),
            alpha=rng.uniform(0.2, 3.0),
            L=rng.uniform(0.5, 2.0),
        )
        d = rng.uniform(0.0, 0.9, 3)
        delays = tuple(SinusoidalDelay(1.0, 0.5, 2.0 * d[i]) for i in range(3))
        betas = rng.uniform(0.01, 0.5, 3) * rng.choice([-1.0, 1.0], 3)
        margins = rng.uniform(0.01, 2.0, 3)
        gains = GainConfig(0, betas[0], 0, betas[1], 0, betas[2])
        alphas = [gain_threshold(i, d[i - 1], p, gains) + margins[i - 1] for i in (1, 2, 3)]
        gains = GainConfig(alphas[0], betas[0], alphas[1], betas[1], alphas[2], betas[2])
        report = validate_gains(p, gains, delays)
        # direct re-evaluation of the printed inequality
        cs = (p.E1h1, p.E3h3, p.EI)
        for i, row in enumerate(report):
            direct = (abs(betas[i]) / (2.0 * cs[i])) * ((cs[i] ** 2 + 1.0 - d[i]) / (1.0 - d[i]))
            assert abs(row["rhs"] - direct) <= 1e-12 * max(1.0, abs(direct))
            assert row["pass"] == (alphas[i] > direct)
        assert all(row["pass"] for row in report)
        for i in (1, 2, 3):
            assert is_negative_definite(phi_matrix(i, d[i - 1], p, gains))
        checked += 1
    elapsed = time.perf_counter() - start
    _report(1, checked == 1000 and elapsed < 1.0, f"{checked} draws in {elapsed:.2f}s")


def test_criterion_02_conservation():
    start = time.perf_counter()
    sys_ = build_system(Grid1D(N=64, L=1.0), UNIT, VARIANT_CONTROLLED)
    state = random_smooth_state(sys_, seed=11)
    out = simulate(state, sys_, SchemeConfig(dt=1e-3, T=2.0, stride=500))
    drift = out.relative_drift()
    elapsed = time.perf_counter() - start
    _report(2, drift <= 1e-6 and elapsed < 10.0, f"relative drift {drift:.2e} in {elapsed:.1f}s")


def _criterion3_runs():
    if "crit3" not in _cache:
        sys_ = build_system(Grid1D(N=64, L=1.0), UNIT, VARIANT_STABILIZED)
        delays = (SinusoidalDelay(0.1, 0.05, 10.0),) * 3  # slope bound 0.5
        damping = (constant_damping(1.0),) * 3
        gains = GainConfig(1.0, 0.2, 1.0, -0.15, 1.0, 0.1)
        assert all(row["pass"] for row in validate_gains(UNIT, gains, delays))
        state = random_smooth_state(sys_, seed=7, prepared=True)
        runs = {}
        for dt in (0.04, 0.02):
            hist = make_histories(sys_, state, delays)
            runs[dt] = simulate(
                state,
                sys_,
                SchemeConfig(dt=dt, T=10.0, stride=25),
                gains=gains,
                delays=delays,
                damping=damping,
                histories=hist,
            )
        _cache["crit3"] = (sys_, delays, damping, gains, runs)
    return _cache["crit3"]


def test_criterion_03_monotone_decay_and_residual_ratio():
    start = time.perf_counter()
    sys_, delays, damping, gains, runs = _criterion3_runs()
    rises = {dt: out.max_energy_increase() for dt, out in runs.items()}
    budgets = {dt: 1e-10 * out.energy[0] for dt, out in runs.items()}
    monotone = all(rises[dt] <= budgets[dt] for dt in runs)
    maxima = {}
    for dt, out in runs.items():
        resid = check_dissipation_identity(out, UNIT, gains)
        # max over the post-transient window, matching the fit-window policy
        maxima[dt] = float(np.max(resid[out.ledger["t_mid"] >= 2.0]))
    ratio = maxima[0.04] / maxima[0.02]
    elapsed = time.perf_counter() - start
    _report(
        3,
        monotone and 3.0 <= ratio <= 5.0 and elapsed < 30.0,
        f"max rise {max(rises.values()):.2e}, residual ratio {ratio:.2f} in {elapsed:.1f}s",
    )


def test_criterion_04_theoretical_bound_and_equivalence():
    sys_, delays, damping, gains, runs = _criterion3_runs()
    out = runs[0.02]
    rates = select_mus(UNIT, delays, damping, gains)
    resid = check_dissipation_identity(out, UNIT, gains)
    report = check_theoretical_bound(out, rates, window=(2.0, 9.0), dissipation_residual=resid)
    lyap = lyapunov_trace(out, sys_, rates, gains)
    energy = out.energy[out.samples]
    cushion = 1e-9 * np.maximum(energy, 1e-300)
    equivalence = bool(
        np.all(lyap >= (1.0 - rates["mu4"]) * energy - cushion)
        and np.all(lyap <= (1.0 + rates["mu4"]) * energy + cushion)
    )
    ok = report["violations"] == 0 and report["fitted_rate"] >= 0.95 * rates["rate"] and equivalence
    _report(
        4,
        ok,
        f"violations {report['violations']}, fitted {report['fitted_rate']:.3f} >= "
        f"{0.95 * rates['rate']:.3f}, equivalence {equivalence}",
    )


def test_criterion_05_delay_fidelity():
    # linear history with exact slopes is exact; each lookup reads the
    # samples up to the one recorded at its own time
    delays = (constant_delay(0.3),) * 3
    hist = init_history(lambda s: 2.0 * s + 1.0, 0.3)
    ts = 0.01 * np.arange(1, 60)
    record = extend(hist, ts, 2.0 * ts + 1.0, np.full(len(ts), 2.0))
    newest = len(hist.times) + np.arange(len(ts))
    got = lookup(*record, ts - delay_samples(delays[0], 0, ts), newest)
    worst = np.max(np.abs(got - (2.0 * (ts - 0.3) + 1.0)))
    exact = worst <= 1e-14

    # transport-equation residual is second order under refinement
    import math

    tdel = (SinusoidalDelay(0.4, 0.1, 1.5),) * 3
    trace = lambda s: math.sin(2.0 * s) + 0.3 * math.cos(5.0 * s)
    slope = lambda s: 2.0 * math.cos(2.0 * s) - 1.5 * math.sin(5.0 * s)

    def residual(dt):
        h = init_history(trace, tdel[0].tau(0.0))
        ss = []
        s = 0.0
        while s < 3.0:
            s += dt
            ss.append(s)
        record = extend(h, ss, [trace(s) for s in ss], [slope(s) for s in ss])
        rho = np.linspace(0.0, 1.0, 65)
        prof = {d: lookup(*record, 2.0 + d * dt - tdel[0].tau(2.0 + d * dt) * rho) for d in (-1, 0, 1)}
        z_t = (prof[1] - prof[-1]) / (2.0 * dt)
        z_rho = np.gradient(prof[0], 1.0 / 64)
        res = tdel[0].tau(2.0) * z_t + (1.0 - tdel[0].dtau(2.0) * rho) * z_rho
        return np.max(np.abs(res[2:-2]))

    r1, r2 = residual(0.08), residual(0.04)
    second_order = 3.0 <= r1 / r2 <= 5.0
    _report(5, exact and second_order, f"linear error {worst:.1e}, transport ratio {r1 / r2:.2f}")


def test_criterion_06_trace_estimates():
    sys_ = build_system(Grid1D(N=32, L=1.0), UNIT, VARIANT_STABILIZED)
    passed = 0
    min_slack = np.inf
    for trial in range(20):
        rng = np.random.default_rng(1000 + trial)
        alphas = rng.uniform(1.0, 2.5, 3)
        betas = rng.uniform(0.05, 0.3, 3) * rng.choice([-1.0, 1.0], 3)
        if trial % 2:
            delays = (SinusoidalDelay(0.15, 0.05, 8.0),) * 3
        else:
            delays = (constant_delay(0.2),) * 3
        damping = (constant_damping(float(rng.uniform(0.5, 1.5))),) * 3
        gains = GainConfig(alphas[0], betas[0], alphas[1], betas[1], alphas[2], betas[2])
        assert all(row["pass"] for row in validate_gains(UNIT, gains, delays))
        state = random_smooth_state(sys_, seed=2000 + trial, prepared=True)
        hist = make_histories(sys_, state, delays)
        out = simulate(
            state,
            sys_,
            SchemeConfig(dt=0.02, T=6.0, stride=10),
            gains=gains,
            delays=delays,
            damping=damping,
            histories=hist,
        )
        rep = check_trace_estimates(out, sys_, gains, damping)
        ok = rep["trace_bound"]["holds"] and rep["initial_bound"]["holds"]
        min_slack = min(min_slack, rep["trace_bound"]["slack"], rep["initial_bound"]["slack"])
        passed += ok
    _report(6, passed == 20, f"{passed}/20 runs, smallest slack {min_slack:.3f}")


def test_criterion_07_duality_identity():
    start = time.perf_counter()
    sys_ = build_system(Grid1D(N=32, L=1.0), UNIT, VARIANT_CONTROLLED)
    T = 4.0
    cfg = SchemeConfig(dt=T / 512, T=T, stride=512)
    rng = np.random.default_rng(77)
    worst = 0.0
    for trial in range(20):
        U0 = random_smooth_state(sys_, seed=300 + trial)
        Wt = random_smooth_state(sys_, seed=600 + trial)
        tgrid = cfg.dt * np.arange(cfg.n_steps + 1)
        controls = np.zeros((cfg.n_steps + 1, 3))
        for i in range(3):
            for k in range(1, 4):
                controls[:, i] += rng.standard_normal() / k * np.sin(k * tgrid)
                controls[:, i] += rng.standard_normal() / k * np.cos(k * tgrid)
        fwd = simulate(U0, sys_, cfg, controls=controls)
        _, obs, W0 = solve_adjoint(Wt, sys_, cfg)
        lhs = (
            fwd.states_p[-1] @ (sys_.M * Wt.q)
            - fwd.states_q[-1] @ (sys_.M * Wt.p)
            - U0.p @ (sys_.M * W0.q)
            + U0.q @ (sys_.M * W0.p)
        )
        rhs = observation_product(controls, obs, sys_, cfg.dt)
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-30))
    elapsed = time.perf_counter() - start
    _report(7, worst <= 1e-6 and elapsed < 20.0, f"worst relative gap {worst:.2e} in {elapsed:.1f}s")


def test_criterion_08_gramian_structure():
    # exact quotients on the lowest 8 modes of (K, M), below the spurious
    # wave band near c/dx where discrete observability is lost
    T = 4.0
    quotients = {}
    for N in (16, 32):
        sys_ = build_system(Grid1D(N=N, L=1.0), UNIT, VARIANT_CONTROLLED)
        cfg = SchemeConfig(dt=T / (16 * N), T=T, stride=16 * N)
        quotients[N] = observability(sys_, cfg, cutoff=8)
    sys_ = build_system(Grid1D(N=32, L=1.0), UNIT, VARIANT_CONTROLLED)
    cfg = SchemeConfig(dt=T / 512, T=T, stride=512)
    G = gramian(sys_, cfg)
    sym_gap = float(np.max(np.abs(G - G.T)))
    sym_ok = sym_gap <= 1e-8 * float(np.max(np.abs(G)))
    a = random_smooth_state(sys_, seed=31)
    # G acts on modal data (phi'M q, phi'M p)
    to_modal = sys_.modes[1].T * sys_.M
    xa = np.concatenate([to_modal @ a.q, to_modal @ a.p])
    _, obs, _ = solve_adjoint(a, sys_, cfg)
    obs_sq = observation_product(obs, obs, sys_, cfg.step)
    quad_val = xa @ G @ xa
    quad_ok = abs(quad_val - obs_sq) <= 1e-8 * obs_sq
    qmin16, _, qmax16 = quotients[16]
    qmin32, unfiltered32, qmax32 = quotients[32]
    positive = qmin32 > 0.0
    stable = (
        np.isfinite(qmax32)
        and abs(qmax32 - qmax16) <= 0.2 * qmax16
        and abs(qmin32 - qmin16) <= 0.2 * qmin16
    )
    _report(
        8,
        sym_ok and quad_ok and positive and stable,
        f"symmetry {sym_gap:.1e}, quadratic gap {abs(quad_val - obs_sq):.1e}, "
        f"min quotient on 8 modes {qmin32:.4g} (unfiltered {unfiltered32:.1e}), "
        f"max {qmax32:.3f}",
    )


def test_criterion_09_null_control():
    start = time.perf_counter()
    sys_ = build_system(Grid1D(N=32, L=1.0), UNIT, VARIANT_CONTROLLED)
    c_min = min(
        (UNIT.E1h1 / UNIT.rho1h1) ** 0.5, (UNIT.E3h3 / UNIT.rho3h3) ** 0.5
    )
    T = 8.0 * UNIT.L / c_min
    cfg = SchemeConfig(dt=T / 1024, T=T, stride=1024)
    U0 = single_mode_state(sys_, "u", 1, 1.0)
    sol = compute_null_control(U0, sys_, cfg, tol=1e-8)
    elapsed = time.perf_counter() - start
    # `iterations` is the retained rank of the Gramian solve
    ok = sol.terminal_rel_norm <= 1e-3 and sol.iterations <= 200 and elapsed < 120.0
    _report(
        9,
        ok,
        f"terminal {sol.terminal_rel_norm:.2e} at rank {sol.iterations} "
        f"in {elapsed:.0f}s",
    )


def test_criterion_10_convergence_orders():
    start = time.perf_counter()
    T = 2.0

    def run(n, dt):
        sys_ = build_system(Grid1D(N=n, L=1.0), UNIT, VARIANT_CONTROLLED)
        state = eigen_mode_state(sys_, 1, 1.0)
        out = simulate(state, sys_, SchemeConfig(dt=dt, T=T, stride=10 ** 9))
        return sys_, out.states_q[-1], out.states_p[-1]

    def l2_diff(sys_, q, p, q2, p2):
        total = 0.0
        for col, row in zip(sys_.nodal.T, sys_.field_weights):
            blk = col[col >= 0]
            wts = row[blk]
            total += float(np.dot(wts, (q - q2)[blk] ** 2) + np.dot(wts, (p - p2)[blk] ** 2))
        return np.sqrt(total)

    sys_ref, qf, pf = run(256, 0.002)
    errs = []
    for n in (16, 32, 64):
        sys_n, q, p = run(n, 0.002)
        ratio = 256 // n
        qr = np.zeros(sys_n.ndof)
        pr = np.zeros(sys_n.ndof)
        for fi, ci in zip(sys_ref.nodal.T, sys_n.nodal.T):
            for j in range(n + 1):
                if ci[j] >= 0:
                    qr[ci[j]] = qf[fi[ratio * j]]
                    pr[ci[j]] = pf[fi[ratio * j]]
        errs.append(l2_diff(sys_n, q, p, qr, pr))
    spatial_orders = [float(np.log2(errs[i] / errs[i + 1])) for i in range(2)]

    sys32 = build_system(Grid1D(N=32, L=1.0), UNIT, VARIANT_CONTROLLED)
    state = eigen_mode_state(sys32, 1, 1.0)

    def final(dt):
        out = simulate(state, sys32, SchemeConfig(dt=dt, T=T, stride=10 ** 9))
        return out.states_q[-1], out.states_p[-1]

    qr_t, pr_t = final(0.005 / 16)
    errs_t = []
    for dt in (0.02, 0.01, 0.005):
        q, p = final(dt)
        errs_t.append(l2_diff(sys32, q, p, qr_t, pr_t))
    temporal_orders = [float(np.log2(errs_t[i] / errs_t[i + 1])) for i in range(2)]
    elapsed = time.perf_counter() - start
    all_orders = spatial_orders + temporal_orders
    ok = all(1.7 <= o <= 2.3 for o in all_orders) and elapsed < 120.0
    _report(
        10,
        ok,
        f"spatial {['%.2f' % o for o in spatial_orders]}, "
        f"temporal {['%.2f' % o for o in temporal_orders]} in {elapsed:.0f}s",
    )
