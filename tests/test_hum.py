import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import quad
from scipy.optimize import brentq

from sandwichbeam.discretize import (
    VARIANT_CONTROLLED,
    VARIANT_STABILIZED,
    DiscreteState,
    Grid1D,
    build_system,
    hspace_norm,
)
import sandwichbeam.hum as hum
from sandwichbeam.hum import (
    _ModalPropagator,
    compute_null_control,
    gramian,
    observability,
)
from sandwichbeam.presets import nodal_state, random_smooth_state, single_mode_state
from sandwichbeam.timestep import SchemeConfig, simulate

from test_params import unit_params


def controlled_system(N=24, **kw):
    p = unit_params(**kw)
    return p, build_system(Grid1D(N=N, L=p.L), p, VARIANT_CONTROLLED)


def short_cfg(T=3.0, steps=384):
    return SchemeConfig(dt=T / steps, T=T, stride=steps)


def to_modal(sys_, state):
    """Modal data (a, b) = (phi'M q, phi'M p) of ``state``, stacked."""
    left = sys_.modes[1].T * sys_.M
    return np.concatenate([left @ state.q, left @ state.p])


def from_modal(sys_, x):
    """The state with modal data ``x``."""
    a, b = np.split(x, 2)
    phi = sys_.modes[1]
    return DiscreteState(q=phi @ a, p=phi @ b)


def solve_adjoint(terminal, sys_, cfg):
    """Adjoint solve backward from terminal data at the horizon cfg.T,
    stepped through the Newmark loop: the reference of hum's closed forms.

    Returns (trajectory of the reversed solve, observation series on the
    forward step grid, adjoint state at t = 0).
    """
    reversed_initial = DiscreteState(q=terminal.q.copy(), p=-terminal.p)
    out = simulate(reversed_initial, sys_, cfg)
    series = out.displacement_traces[::-1].copy()
    w0 = DiscreteState(q=out.states_q[-1].copy(), p=-out.states_p[-1])
    return out, series, w0


def observation_product(a, b, sys_, dt):
    """Weighted L2(0,T) product of two observation series with step ``dt``.

    It pairs midpoint values (averaged endpoint pairs), matching how the
    integrator applies controls, so the duality identity is exact at the
    discrete level.
    """
    total = 0.0
    for i, wgt in enumerate(sys_.params.trace_masses):
        a_mid = 0.5 * (a[:-1, i] + a[1:, i])
        b_mid = 0.5 * (b[:-1, i] + b[1:, i])
        total += wgt * dt * float(np.dot(a_mid, b_mid))
    return total


def test_adjoint_solve_conserves_and_roundtrips():
    p, sys_ = controlled_system()
    cfg = short_cfg()
    Wt = random_smooth_state(sys_, seed=2)
    traj, obs, w0 = solve_adjoint(Wt, sys_, cfg)
    assert traj.relative_drift() <= 1e-8
    # zero terminal data: zero observation
    traj0, obs0, w00 = solve_adjoint(nodal_state(sys_), sys_, cfg)
    assert observation_product(obs0, obs0, sys_, cfg.step) == 0.0
    # forward-then-backward recovers the terminal data
    fwd = simulate(w0, sys_, cfg)
    qT, vT = fwd.states_q[-1], fwd.states_p[-1]
    scale = hspace_norm(Wt, sys_)
    diff = DiscreteState(q=qT - Wt.q, p=vT - Wt.p)
    assert hspace_norm(diff, sys_) <= 1e-8 * scale


def test_adjoint_observation_linearity():
    p, sys_ = controlled_system()
    cfg = short_cfg()
    Wt = random_smooth_state(sys_, seed=5)
    _, obs, _ = solve_adjoint(Wt, sys_, cfg)
    W2 = DiscreteState(q=3.0 * Wt.q, p=3.0 * Wt.p)
    _, obs2, _ = solve_adjoint(W2, sys_, cfg)
    assert np.allclose(obs2, 3.0 * obs, rtol=1e-10, atol=1e-12)


def test_gramian_symmetry_positivity_and_definition():
    p, sys_ = controlled_system()
    cfg = short_cfg()
    G = gramian(sys_, cfg)
    assert np.max(np.abs(G - G.T)) <= 1e-12 * np.max(np.abs(G))
    lam = np.linalg.eigvalsh(G)
    assert lam[0] >= -1e-12 * lam[-1]
    # the bilinear form is the weighted pairing of the two observations
    a = random_smooth_state(sys_, seed=11)
    b = random_smooth_state(sys_, seed=12)
    _, obs_a, _ = solve_adjoint(a, sys_, cfg)
    _, obs_b, _ = solve_adjoint(b, sys_, cfg)
    xa, xb = to_modal(sys_, a), to_modal(sys_, b)
    norm_a = observation_product(obs_a, obs_a, sys_, cfg.step)
    scale = np.sqrt(norm_a * observation_product(obs_b, obs_b, sys_, cfg.step))
    assert abs(xa @ G @ xb - observation_product(obs_a, obs_b, sys_, cfg.step)) <= 1e-8 * scale
    assert xa @ G @ xa == pytest.approx(norm_a, rel=1e-8)
    assert xa @ G @ xa > 0.0


def test_modal_gramian_matches_stepped_gramian():
    # the closed-form G against the one stepped through the Newmark loop
    # from the 2n modal basis states (phi e_k, 0) and (0, phi e_k)
    p, sys_ = controlled_system(N=16)
    T = 4.0
    cfg = SchemeConfig(dt=T / 256, T=T, stride=256)
    rows = []
    for e in np.eye(2 * sys_.ndof):
        _, obs, _ = solve_adjoint(from_modal(sys_, e), sys_, cfg)
        mid = 0.5 * (obs[:-1] + obs[1:])
        rows.append((mid * np.sqrt(np.asarray(p.trace_masses) * cfg.step)).ravel())
    stepped = np.array(rows) @ np.array(rows).T
    G = gramian(sys_, cfg)
    assert np.max(np.abs(G - stepped)) <= 1e-10 * np.max(np.abs(stepped))


def modal_test_states(sys_, seed):
    """A random smooth state and a standard-normal one."""
    rng = np.random.default_rng(seed)
    normal = DiscreteState(q=rng.standard_normal(sys_.ndof), p=rng.standard_normal(sys_.ndof))
    return random_smooth_state(sys_, seed=seed), normal


@pytest.mark.parametrize("N", [16, 24])
def test_modal_free_state_matches_newmark(N):
    # the closed-form free state at T against the one stepped by simulate
    p, sys_ = controlled_system(N=N)
    T = 4.0
    cfg = SchemeConfig(dt=T / 512, T=T, stride=512)
    prop = _ModalPropagator(sys_, cfg)
    for state in modal_test_states(sys_, seed=N):
        out = simulate(state, sys_, cfg)
        stepped = out.final_state()
        modal = from_modal(sys_, prop.free_state(to_modal(sys_, state)))
        diff = DiscreteState(q=modal.q - stepped.q, p=modal.p - stepped.p)
        assert hspace_norm(diff, sys_) <= 1e-9 * hspace_norm(state, sys_)
        assert prop.n_steps * prop.dt == pytest.approx(out.times[-1], rel=1e-15)


@pytest.mark.parametrize("N", [16, 24])
def test_modal_controls_match_adjoint_solve(N):
    # the closed-form adjoint traces against the series of the stepped
    # adjoint solve, on a step that does not divide T evenly
    p, sys_ = controlled_system(N=N)
    T = 4.0
    cfg = SchemeConfig(dt=0.0077, T=T, stride=10 ** 9)
    prop = _ModalPropagator(sys_, cfg)
    for state in modal_test_states(sys_, seed=N + 1):
        _, obs, _ = solve_adjoint(state, sys_, cfg)
        series = prop.adjoint_traces(to_modal(sys_, state))
        assert series.shape == obs.shape
        assert np.max(np.abs(series - obs)) <= 1e-8 * np.max(np.abs(obs))


def direct_gramian(sys_, cfg):
    """G summed from cos/sinc tables evaluated directly at every half-step,
    in blocks of 64 steps: the reference of gramian's addition formulas."""
    prop = _ModalPropagator(sys_, cfg)
    n = len(prop.omega)
    half = np.cos(0.5 * prop.theta)
    G = np.zeros((2 * n, 2 * n))
    for start in range(0, prop.n_steps, 64):
        mid = np.arange(start, min(start + 64, prop.n_steps))[:, None] + 0.5
        cos, sin = prop(mid)
        table = np.hstack([cos * half, -sin * half])
        G += table.T @ table
    traces = prop.traces
    channels = prop.dt * traces.T @ (np.asarray(sys_.params.trace_masses)[:, None] * traces)
    G.reshape(2, n, 2, n)[...] *= channels[:, None, :]
    return G


def direct_adjoint_traces(prop, x):
    """The adjoint series from cos/sinc tables evaluated directly at every
    step, in blocks of 64 steps: the reference of adjoint_traces."""
    a, b = np.split(x, 2)
    series = np.empty((prop.n_steps + 1, 3))
    for start in range(0, prop.n_steps + 1, 64):
        rows = np.arange(start, min(start + 64, prop.n_steps + 1))
        cos, sin = prop((prop.n_steps - rows)[:, None])
        series[rows] = (cos * a - sin * b) @ prop.traces.T
    return series


@pytest.mark.parametrize("steps", [1, 2, 3, 7, 509, 512, 519])
@pytest.mark.parametrize("N", [16, 32])
def test_addition_formulas_match_direct_tables(N, steps):
    # squares, leftover steps after the last whole block, a prime step
    # count, and the rigid mode on every grid.  Measured up to N = 128 and
    # 2048 steps: G within 5.0e-16 * max|G|, the series within 8.4e-14 of
    # its largest entry
    p, sys_ = controlled_system(N=N)
    T = 4.0
    cfg = SchemeConfig(dt=T / steps, T=T, stride=steps)
    prop = _ModalPropagator(sys_, cfg)
    assert prop.n_steps == steps and len(prop.base_cos) == max(1, math.isqrt(steps))
    assert sys_.modes[0][0] <= 1e-12 * sys_.modes[0][-1]
    reference = direct_gramian(sys_, cfg)
    assert np.max(np.abs(gramian(sys_, cfg) - reference)) <= 1e-14 * np.max(np.abs(reference))
    for state in modal_test_states(sys_, seed=steps):
        x = to_modal(sys_, state)
        reference = direct_adjoint_traces(prop, x)
        series = prop.adjoint_traces(x)
        assert np.max(np.abs(series - reference)) <= 1e-12 * np.max(np.abs(reference))


def test_null_control_steps_the_newmark_loop_once(monkeypatch):
    # only the verification run is stepped; the right side and the
    # controls come from the modes
    calls = []
    stepped = hum.simulate

    def counting(*args, **kwargs):
        calls.append(kwargs.get("controls") is not None)
        return stepped(*args, **kwargs)

    monkeypatch.setattr(hum, "simulate", counting)
    p, sys_ = controlled_system(N=16)
    T = 4.0
    cfg = SchemeConfig(dt=T / 256, T=T, stride=256)
    sol = compute_null_control(single_mode_state(sys_, "u", 1, 1.0), sys_, cfg, tol=1e-6)
    assert calls == [True]
    assert sol.terminal_rel_norm <= 1e-3


def test_modal_controls_memory_is_blocked():
    # 100k steps: whole cosine/sine tables would take 2 * 100k * ndof
    # doubles (about 75 MB at N=16); the blocked evaluation adds only a
    # block's worth beside the (n_steps + 1, 3) result
    p, sys_ = controlled_system(N=16)
    steps = 100_000
    cfg = SchemeConfig(dt=1e-3, T=steps * 1e-3, stride=10 ** 9)
    prop = _ModalPropagator(sys_, cfg)
    x = to_modal(sys_, random_smooth_state(sys_, seed=3))
    tracemalloc.start()
    try:
        series = prop.adjoint_traces(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert series.shape == (steps + 1, 3) and np.all(np.isfinite(series))
    assert peak < series.nbytes + 2 ** 20, peak


def test_gramian_memory_is_blocked():
    # 100k steps: a whole [C, -S] table over the half-steps would take
    # 2 * 100k * ndof doubles (78 MB at N=16); the base table and one row
    # per block take O(sqrt(steps) * ndof).  Measured: 1.6 MB
    p, sys_ = controlled_system(N=16)
    steps = 100_000
    cfg = SchemeConfig(dt=1e-3, T=steps * 1e-3, stride=10 ** 9)
    tracemalloc.start()
    try:
        G = gramian(sys_, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert G.shape == (2 * sys_.ndof, 2 * sys_.ndof) and np.all(np.isfinite(G))
    assert peak < 4 * 2 ** 20, peak


def test_duality_identity_random_triples():
    # both sides of the control/observation pairing agree for arbitrary
    # initial data, terminal data and controls: the adjoint-consistency
    # test of the whole pipeline
    p, sys_ = controlled_system(N=32)
    T = 4.0
    cfg = SchemeConfig(dt=T / 512, T=T, stride=512)
    rng = np.random.default_rng(100)
    worst = 0.0
    for trial in range(20):
        U0 = random_smooth_state(sys_, seed=300 + trial)
        Wt = random_smooth_state(sys_, seed=600 + trial)
        tgrid = cfg.dt * np.arange(cfg.n_steps + 1)
        f = np.zeros((cfg.n_steps + 1, 3))
        for i in range(3):
            for k in range(1, 4):
                f[:, i] += rng.standard_normal() / k * np.sin(k * tgrid)
                f[:, i] += rng.standard_normal() / k * np.cos(k * tgrid)
        fwd = simulate(U0, sys_, cfg, controls=f)
        _, obs, W0 = solve_adjoint(Wt, sys_, cfg)
        lhs = (
            fwd.states_p[-1] @ (sys_.M * Wt.q)
            - fwd.states_q[-1] @ (sys_.M * Wt.p)
            - U0.p @ (sys_.M * W0.q)
            + U0.q @ (sys_.M * W0.p)
        )
        rhs = observation_product(f, obs, sys_, cfg.dt)
        scale = max(abs(lhs), abs(rhs), 1e-30)
        worst = max(worst, abs(lhs - rhs) / scale)
    assert worst <= 1e-6, worst


def test_rhs_duality_identity():
    # the right side D b = (-b_T, a_T) of the free modal state at T, paired
    # with the modal data of Wt, is minus the pairing at t = 0 with the
    # adjoint from Wt
    p, sys_ = controlled_system()
    cfg = short_cfg()
    prop = _ModalPropagator(sys_, cfg)

    def rhs(state):
        a_T, b_T = np.split(prop.free_state(to_modal(sys_, state)), 2)
        return np.concatenate([-b_T, a_T])

    for trial in range(5):
        U0 = random_smooth_state(sys_, seed=40 + trial)
        Wt = random_smooth_state(sys_, seed=80 + trial)
        _, _, W0 = solve_adjoint(Wt, sys_, cfg)
        pairing = float(U0.p @ (sys_.M * W0.q) - U0.q @ (sys_.M * W0.p))
        total = rhs(U0) @ to_modal(sys_, Wt) + pairing
        scale = max(abs(pairing), 1e-30)
        assert abs(total) <= 1e-6 * scale
    # linearity and the zero case
    assert np.all(rhs(nodal_state(sys_)) == 0.0)


def completed_metric(sys_):
    """A = diag(omega^2) + gamma*c*c', c = phi'm, built apart from hum."""
    p = sys_.params
    omega_sq, phi = sys_.modes
    c = sys_.field_weights[2] @ phi
    return np.diag(omega_sq) + (p.k + p.EI / p.L ** 4) / p.L * np.outer(c, c)


@pytest.mark.parametrize("N", [16, 24, 32])
def test_metric_factor_completes_the_elastic_energy(N):
    # |R'a|^2 is q'Kq + gamma*(m'q)^2 for the displacement q = phi a: the
    # elastic energy, completed on the rigid mode by the transverse mean.
    # A beam of length 2, so that every power of L in gamma counts.
    # Measured at these N: within 1.9e-15 relative
    p, sys_ = controlled_system(N=N, L=2.0)
    R = hum._metric_factor(sys_)
    assert np.array_equal(R, np.tril(R)) and np.all(np.diag(R) > 0.0)
    a = np.random.default_rng(N).standard_normal((sys_.ndof, 5))
    q = sys_.modes[1] @ a
    gamma = (p.k + p.EI / p.L ** 4) / p.L
    energy = np.einsum("ij,ij->j", q, sys_.K @ q) + gamma * (sys_.field_weights[2] @ q) ** 2
    assert np.max(np.abs(np.sum((R.T @ a) ** 2, axis=0) - energy) / energy) <= 1e-13
    # the rigid mode's omega^2 sits at roundoff (measured 2.9e-17 of the
    # largest), its completed entry A[0, 0] does not (measured 0.71)
    omega_sq = sys_.modes[0]
    assert abs(omega_sq[0]) <= 1e-12 * omega_sq[-1] and R[0, 0] ** 2 >= 0.5


@pytest.mark.parametrize("cutoff", [1, 8, None])
def test_metric_factor_leading_block_factors_the_class_metric(cutoff):
    # observability's class step is exact because the leading block of R is
    # the Cholesky factor of the leading block of A.  Measured at N = 16:
    # within 1.7e-19 of the largest entry of R (the two A differ in the
    # order of c's sums)
    p, sys_ = controlled_system(N=16)
    R = hum._metric_factor(sys_)
    c = cutoff or sys_.ndof
    class_factor = np.linalg.cholesky(completed_metric(sys_)[:c, :c])
    assert np.max(np.abs(class_factor - R[:c, :c])) <= 1e-15 * np.max(np.abs(R))


def test_hum_refuses_a_system_without_controls():
    p = unit_params()
    sys_ = build_system(Grid1D(N=16, L=p.L), p, VARIANT_STABILIZED)
    cfg = short_cfg(T=2.0, steps=128)
    with pytest.raises(ValueError, match="controlled_conservative"):
        observability(sys_, cfg)
    with pytest.raises(ValueError, match="controlled_conservative"):
        compute_null_control(nodal_state(sys_), sys_, cfg)


@pytest.mark.parametrize("N", [16, 24, 32])
def test_standard_form_solves_the_dual_pencil(N):
    # compute_null_control solves G x = lam D x, D = blockdiag(I, A^-1), as
    # the standard problem S'GS y = lam y with x = S y, S = blockdiag(I, R)
    p, sys_ = controlled_system(N=N)
    n = sys_.ndof
    cfg = short_cfg()
    G = gramian(sys_, cfg)
    R = hum._metric_factor(sys_)
    assert np.array_equal(R, np.tril(R))
    D = np.eye(2 * n)
    D[n:, n:] = np.linalg.inv(R @ R.T)
    # the reference: the generalized problem (G, D) itself, by QR iteration
    reference = scipy.linalg.eigh(G, D, eigvals_only=True, driver="gv")
    S = np.eye(2 * n)
    S[n:, n:] = R
    lam, Y = np.linalg.eigh(S.T @ G @ S)
    X = S @ Y
    scale = lam[-1]
    assert np.max(np.abs(lam - reference)) <= 1e-12 * scale
    assert np.max(np.abs(X.T @ D @ X - np.eye(2 * n))) <= 1e-13
    assert np.max(np.linalg.norm(G @ X - (D @ X) * lam, axis=0)) <= 1e-12 * scale
    # the solve reports the largest eigenvalue of the same pencil (measured
    # within 4.7e-16 relative)
    sol = compute_null_control(single_mode_state(sys_, "u", 1, 1.0), sys_, cfg)
    assert abs(sol.rayleigh["max"] - reference[-1]) <= 1e-12 * scale


def test_null_control_zero_data():
    p, sys_ = controlled_system(N=16)
    cfg = short_cfg(T=2.0, steps=128)
    sol = compute_null_control(nodal_state(sys_), sys_, cfg, tol=1e-8)
    assert sol.converged and sol.terminal_rel_norm == 0.0
    assert np.all(sol.controls == 0.0)


def test_null_control_single_mode():
    p, sys_ = controlled_system(N=16)
    T = 6.0
    cfg = SchemeConfig(dt=T / 512, T=T, stride=512)
    U0 = single_mode_state(sys_, "u", 1, 1.0)
    sol = compute_null_control(U0, sys_, cfg, tol=1e-8)
    assert sol.terminal_rel_norm <= 1e-3
    assert np.all(np.diff(sol.residuals) <= 1e-12 * sol.residuals[0])
    assert sol.rayleigh["min"] > 0.0 and np.isfinite(sol.rayleigh["max"])


@pytest.mark.parametrize("field, bound, converges", [("u", 1e-7, True), ("w", 1e-3, False)])
def test_null_control_in_modes_reaches_small_terminal_norm(field, bound, converges):
    # the criterion-9 scenario: the least observable directions kept near the
    # roundoff floor of G carry no back-transform roundoff into the controls
    p, sys_ = controlled_system(N=32)
    T = 8.0
    cfg = SchemeConfig(dt=T / 1024, T=T, stride=1024)
    sol = compute_null_control(single_mode_state(sys_, field, 1, 1.0), sys_, cfg, tol=1e-8)
    assert sol.terminal_rel_norm <= bound
    assert sol.converged or not converges


def test_control_cost_is_the_observation_norm_of_the_controls():
    # three different channel weights (E1h1, E3h3, alpha*k) = (2, 3, 0.5)
    p, sys_ = controlled_system(N=16, E1h1=2.0, E3h3=3.0, k=0.5)
    T = 4.0
    cfg = SchemeConfig(dt=T / 256, T=T, stride=256)
    sol = compute_null_control(random_smooth_state(sys_, seed=4), sys_, cfg, tol=1e-6)
    norm_sq = observation_product(sol.controls, sol.controls, sys_, sol.dt)
    assert norm_sq > 0.0 and sol.control_cost == pytest.approx(norm_sq, rel=1e-12)


def test_control_cost_non_increasing_in_horizon():
    p, sys_ = controlled_system(N=16)
    U0 = single_mode_state(sys_, "u", 1, 1.0)
    costs = {}
    for T in (4.0, 8.0):
        cfg = SchemeConfig(dt=T / 512, T=T, stride=512)
        sol = compute_null_control(U0, sys_, cfg, tol=1e-6)
        costs[T] = sol.control_cost
    assert costs[8.0] <= costs[4.0] + 1e-6


def test_observability_quotients_positive_and_stable():
    p, sys16 = controlled_system(N=16)
    _, sys32 = controlled_system(N=32)
    T = 4.0
    vals = {}
    for sys_ in (sys16, sys32):
        cfg = SchemeConfig(dt=T / (16 * sys_.grid.N), T=T, stride=16 * sys_.grid.N)
        vals[sys_.grid.N] = observability(sys_, cfg, cutoff=8)
    for qmin, unfiltered, qmax in vals.values():
        assert qmin > 0.0 and np.isfinite(qmax)
        # filtering can only raise the minimum, which sits at roundoff
        # without it: the grid is not uniformly observable
        assert unfiltered <= qmin and abs(unfiltered) <= 1e-12 * qmax
    assert abs(vals[32][0] - vals[16][0]) <= 0.2 * vals[16][0]
    assert abs(vals[32][2] - vals[16][2]) <= 0.2 * vals[16][2]


@pytest.mark.parametrize("N", [16, 32])
def test_observability_matches_the_generalized_pencils(N):
    # observability solves the standard problems of H = T^-1 G T^-T,
    # T = blockdiag(R, I), and of its class block H[low, low]; the
    # references are the pencils (G, metric) and (G[low], metric[low]) of
    # the state metric blockdiag(A, I), A = R R'.  Measured at these N: the
    # unfiltered extremes within 1.5e-16 * the largest eigenvalue, the class
    # minimum within 2.4e-17 * the class's largest eigenvalue and, for
    # cutoff 1 and 8, within 1.6e-13 relative.
    p, sys_ = controlled_system(N=N)
    n = sys_.ndof
    T = 4.0
    cfg = SchemeConfig(dt=T / (16 * N), T=T, stride=16 * N)
    G = gramian(sys_, cfg)
    R = hum._metric_factor(sys_)
    metric = np.eye(2 * n)
    metric[:n, :n] = R @ R.T
    full = scipy.linalg.eigh(G, metric, eigvals_only=True)
    for cutoff in (1, 8, n):
        low = np.ix_(*2 * [np.r_[:cutoff, n : n + cutoff]])
        restricted = scipy.linalg.eigh(G[low], metric[low], eigvals_only=True)
        qmin, unfiltered, qmax = observability(sys_, cfg, cutoff=cutoff)
        assert abs(qmin - restricted[0]) <= 1e-13 * restricted[-1]
        assert abs(unfiltered - full[0]) <= 1e-13 * full[-1]
        assert abs(qmax - full[-1]) <= 1e-13 * full[-1]
        if cutoff < n:
            # the class constant is well above roundoff, so it is pinned relatively
            assert abs(qmin - restricted[0]) <= 1e-11 * restricted[0]


def test_observability_single_field_matches_continuum():
    # k ~ 0 decouples the first wave field, whose boundary observation of an
    # exact eigenmode has a closed-form quotient: phi(L)^2 * int cos^2 over
    # the elastic norm of the mode
    p, sys_ = controlled_system(N=48, k=1e-12)
    L = 1.0
    T = 4.0
    # continuum eigenvalue of -phi'' = om^2 phi, phi(0)=0, trace ODE at L:
    # -om^2 phi(L) + phi'(L) = 0  =>  th cos th = th^2 sin th, om = th
    th = brentq(lambda s: s * np.cos(s) - s * s * np.sin(s), 0.6, 1.2)
    om = th
    phi = lambda x: np.sin(th * x)
    obs_sq = p.E1h1 * phi(L) ** 2 * quad(lambda t: np.cos(om * t) ** 2, 0.0, T)[0]
    norm_sq = p.E1h1 * quad(lambda x: (th * np.cos(th * x)) ** 2, 0.0, L)[0]
    oracle = obs_sq / norm_sq

    from sandwichbeam.presets import nodal_state

    # w = 0, so the completion of the transverse mean adds nothing to the
    # state norm
    state = nodal_state(sys_, u=phi(sys_.grid.nodes))
    norm = hspace_norm(state, sys_)
    state = DiscreteState(q=state.q / norm, p=state.p / norm)
    cfg = SchemeConfig(dt=T / 1024, T=T, stride=1024)
    _, obs, _ = solve_adjoint(state, sys_, cfg)
    assert observation_product(obs, obs, sys_, cfg.step) == pytest.approx(oracle, rel=0.10)


@pytest.mark.parametrize("N", [16, 32, 256])
def test_rigid_mode_shifts_by_its_velocity(N):
    # the rigid transverse shift of the controlled variant moves from modal
    # data (a, b) to (a + T*b, b), whatever roundoff eigh leaves in its
    # omega^2 (3.1e-11, 2.1e-10 and 1.65e-7 at N = 16, 32 and 256 on these
    # physics, where the rotation by that omega missed by up to 5.3e-6)
    p, sys_ = controlled_system(N=N)
    T = 8.0
    steps = 16 * N
    cfg = SchemeConfig(dt=T / steps, T=T, stride=steps)
    prop = _ModalPropagator(sys_, cfg)
    n = sys_.ndof
    x = np.zeros(2 * n)
    x[0], x[n] = 0.3, -0.7
    expected = np.zeros(2 * n)
    expected[0], expected[n] = 0.3 - 0.7 * T, -0.7
    assert np.max(np.abs(prop.free_state(x) - expected)) <= 1e-14 * T
