import numpy as np
import pytest

from sandwichbeam.discretize import (
    VARIANT_CONTROLLED,
    VARIANT_STABILIZED,
    DiscreteState,
    Grid1D,
    build_system,
    delay_energy_from_profiles,
    export_matrices,
    hspace_norm,
)
from sandwichbeam.presets import state_from_functions

from test_params import unit_params


def both_systems(N=32, **kw):
    p = unit_params(**kw)
    g = Grid1D(N=N, L=p.L)
    return [build_system(g, p, v) for v in (VARIANT_STABILIZED, VARIANT_CONTROLLED)]


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid1D(N=4, L=1.0)
    g = Grid1D(N=10, L=2.5)
    assert g.dx == pytest.approx(0.25)
    assert g.nodes[0] == 0.0 and g.nodes[-1] == 2.5


def test_layout_indices_partition():
    for sys_ in both_systems(16):
        lay = sys_.layout
        seen = []
        for idx in (lay.iu, lay.iv, lay.iw):
            seen.extend(int(i) for i in idx if i >= 0)
        assert sorted(seen) == list(range(lay.ndof))
        # essential nodes carry no index
        assert lay.iu[0] == -1 and lay.iv[0] == -1
        if sys_.variant == VARIANT_STABILIZED:
            assert lay.iw[0] == -1 and lay.iw[-1] == -1
        else:
            assert lay.iw[0] >= 0 and lay.iw[-1] >= 0


def test_stiffness_symmetric_exactly_and_psd():
    rng = np.random.default_rng(0)
    for sys_ in both_systems(24, E3h3=2.0, EI=0.7, k=1.3, alpha=0.8):
        assert np.max(np.abs(sys_.K - sys_.K.T)) == 0.0
        for _ in range(100):
            q = rng.standard_normal(sys_.ndof)
            assert q @ sys_.K @ q >= -1e-12 * np.dot(q, q)
        assert np.all(sys_.M > 0.0)


def test_elastic_energy_linear_profile():
    # u = x, v = w = 0: E1h1*L + k*L^3/3 with only the O(dx^2) shear
    # quadrature error (the wave form integrates linear profiles exactly)
    p = unit_params()
    for N in (16, 32, 64):
        sys_ = build_system(Grid1D(N=N, L=1.0), p, VARIANT_CONTROLLED)
        st = state_from_functions(sys_, u=lambda x: x)
        val = float(st.q @ sys_.K @ st.q)
        assert abs(val - 4.0 / 3.0) < 0.5 * (1.0 / N) ** 2


def test_elastic_energy_quadratic_bending():
    # w = x^2: EI*4L + k*alpha^2*4L^3/3 minus the natural-boundary curvature
    # panel (dx/2)*w_xx(L)^2 = 2dx that the scheme's energy intentionally
    # omits (the flux slot carries the natural condition instead)
    p = unit_params()
    for N in (16, 32, 64):
        dx = 1.0 / N
        sys_ = build_system(Grid1D(N=N, L=1.0), p, VARIANT_CONTROLLED)
        st = state_from_functions(sys_, w=lambda x: x ** 2)
        val = float(st.q @ sys_.K @ st.q)
        expected = 4.0 + 4.0 / 3.0 - 2.0 * dx
        assert abs(val - expected) < 2.0 * dx ** 2


def _energy_order(variant, fields, exact):
    p = unit_params(E3h3=2.0, EI=0.5, k=1.2, alpha=0.9)
    errs = []
    for N in (16, 32, 64, 128):
        sys_ = build_system(Grid1D(N=N, L=1.0), p, variant)
        st = state_from_functions(sys_, **fields)
        val = sys_.field_energy(st.q, st.p)
        errs.append(abs(val - exact))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    return orders


def test_energy_quadrature_second_order():
    # manufactured fields compatible with each variant's boundary conditions
    # (including w_xx(L) = 0 so the omitted curvature panel is harmless)
    p = unit_params(E3h3=2.0, EI=0.5, k=1.2, alpha=0.9)

    def u(x):
        return np.sin(0.5 * np.pi * x)

    def v(x):
        return x * (2.0 - x)

    def w_stab(x):
        return x ** 2 * (1.0 - x) ** 3

    def w_ctrl(x):
        return (1.0 - x) ** 4 - 1.0 + 4.0 * x  # w_x(0)=0, w_xx(L)=w_xxx(L)=0

    from scipy.integrate import quad

    def exact_energy(w, wx, wxx, ut=None):
        e1 = p.E1h1 * quad(lambda x: (0.5 * np.pi * np.cos(0.5 * np.pi * x)) ** 2, 0, 1)[0]
        e2 = p.E3h3 * quad(lambda x: (2.0 - 2.0 * x) ** 2, 0, 1)[0]
        e3 = p.EI * quad(lambda x: wxx(x) ** 2, 0, 1)[0]
        shear = p.k * quad(
            lambda x: (-u(x) + v(x) + p.alpha * wx(x)) ** 2, 0, 1
        )[0]
        kin = p.rho1h1 * quad(lambda x: ut(x) ** 2, 0, 1)[0] if ut else 0.0
        return 0.5 * (e1 + e2 + e3 + shear + kin)

    wx_stab = lambda x: 2 * x * (1 - x) ** 3 - 3 * x ** 2 * (1 - x) ** 2
    wxx_stab = lambda x: 2 * (1 - x) ** 3 - 12 * x * (1 - x) ** 2 + 6 * x ** 2 * (1 - x)
    exact = exact_energy(w_stab, wx_stab, wxx_stab)
    orders = _energy_order(VARIANT_STABILIZED, dict(u=u, v=v, w=w_stab), exact)
    assert all(1.7 <= o <= 2.3 for o in orders[1:]), orders

    wx_ctrl = lambda x: -4 * (1 - x) ** 3 + 4
    wxx_ctrl = lambda x: 12 * (1 - x) ** 2
    exact = exact_energy(w_ctrl, wx_ctrl, wxx_ctrl)
    orders = _energy_order(VARIANT_CONTROLLED, dict(u=u, v=v, w=w_ctrl), exact)
    assert all(1.7 <= o <= 2.3 for o in orders[1:]), orders


def test_energy_zero_state_and_constant_history():
    p = unit_params()
    sys_ = build_system(Grid1D(N=16, L=1.0), p, VARIANT_STABILIZED)
    st = DiscreteState(q=np.zeros(sys_.ndof), p=np.zeros(sys_.ndof))
    assert sys_.field_energy(st.q, st.p) == 0.0
    # constant profile z = c on one delayed channel: (|b|/2)*tau*c^2
    profiles = np.zeros((3, 33))
    profiles[0, :] = 2.0
    val = delay_energy_from_profiles(profiles, taus=(0.4, 1.0, 1.0), betas=(-0.3, 0.0, 0.0))
    assert val == pytest.approx(0.5 * 0.3 * 0.4 * 4.0)


def test_hspace_norm_properties_and_dense_oracle():
    p = unit_params(E3h3=1.7, EI=0.4, k=2.0, alpha=1.1)
    sys_ = build_system(Grid1D(N=24, L=1.0), p, VARIANT_CONTROLLED)
    zero = DiscreteState(q=np.zeros(sys_.ndof), p=np.zeros(sys_.ndof))
    assert hspace_norm(zero, sys_) == 0.0
    rng = np.random.default_rng(3)
    st = DiscreteState(q=rng.standard_normal(sys_.ndof), p=rng.standard_normal(sys_.ndof))
    n1 = hspace_norm(st, sys_)
    st2 = DiscreteState(q=-2.5 * st.q, p=-2.5 * st.p)
    assert hspace_norm(st2, sys_) == pytest.approx(2.5 * n1, rel=1e-12)

    # dense re-assembly oracle: rebuild the quadratic form from first
    # principles with explicit loops over cells and curvature panels
    N = sys_.grid.N
    dx = sys_.grid.dx
    iu, iv, iw = sys_.layout.iu, sys_.layout.iv, sys_.layout.iw

    def val(idx, j):
        return st.q[idx[j]] if idx[j] >= 0 else 0.0

    elastic = 0.0
    for j in range(N):
        du = (val(iu, j + 1) - val(iu, j)) / dx
        dv = (val(iv, j + 1) - val(iv, j)) / dx
        dw = (val(iw, j + 1) - val(iw, j)) / dx
        su = 0.5 * (val(iu, j) + val(iu, j + 1))
        sv = 0.5 * (val(iv, j) + val(iv, j + 1))
        elastic += dx * (p.E1h1 * du ** 2 + p.E3h3 * dv ** 2)
        elastic += dx * p.k * (-su + sv + p.alpha * dw) ** 2
    kappa0 = 2.0 * (val(iw, 1) - val(iw, 0)) / dx ** 2
    elastic += (dx / 2.0) * p.EI * kappa0 ** 2
    for j in range(1, N):
        kap = (val(iw, j - 1) - 2.0 * val(iw, j) + val(iw, j + 1)) / dx ** 2
        elastic += dx * p.EI * kap ** 2
    kinetic = float(np.dot(st.p, sys_.M * st.p))
    assert n1 == pytest.approx(np.sqrt(elastic + kinetic), rel=1e-12)


def test_trace_dof_mass_coupling():
    # perturbing a boundary-trace velocity changes the squared norm by
    # exactly its diagonal mass: the dedicated trace inertia plus the
    # trapezoid half-panel of the field that shares the node
    p = unit_params(E3h3=2.0, k=1.5, alpha=0.5)
    sys_ = build_system(Grid1D(N=16, L=1.0), p, VARIANT_CONTROLLED)
    N, dx, lay = sys_.grid.N, sys_.grid.dx, sys_.layout
    i4, i5, i6 = lay.iu[N], lay.iv[N], lay.iw[N]
    expected = {
        i4: p.E1h1 + p.rho1h1 * dx / 2.0,
        i5: p.E3h3 + p.rho3h3 * dx / 2.0,
        i6: p.alpha * p.k + p.rhoh * dx / 2.0,
    }
    rng = np.random.default_rng(5)
    st = DiscreteState(q=rng.standard_normal(sys_.ndof), p=rng.standard_normal(sys_.ndof))
    for idx, mass in expected.items():
        assert sys_.M[idx] == pytest.approx(mass, rel=1e-14)
        delta = 0.7
        bumped = DiscreteState(q=st.q.copy(), p=st.p.copy())
        bumped.p[idx] += delta
        change = hspace_norm(bumped, sys_) ** 2 - hspace_norm(st, sys_) ** 2
        assert change == pytest.approx(mass * (2.0 * st.p[idx] * delta + delta ** 2), rel=1e-10)


def test_standing_wave_energy_matches_continuum():
    # single-field reduction: k ~ 0 decouples the first wave equation; the
    # lowest standing mode has constant continuum energy
    p = unit_params(k=1e-12)
    exact = 0.25 * (np.pi / 2.0) ** 2  # (E1h1/4)*(pi/2L)^2 * L with L=1
    errs = []
    for N in (16, 32, 64):
        sys_ = build_system(Grid1D(N=N, L=1.0), p, VARIANT_STABILIZED)
        st = state_from_functions(sys_, u=lambda x: np.sin(0.5 * np.pi * x))
        errs.append(abs(sys_.field_energy(st.q, st.p) - exact))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(1.7 <= o <= 2.3 for o in orders), orders


def test_matrix_market_export(tmp_path):
    p = unit_params()
    sys_ = build_system(Grid1D(N=8, L=1.0), p, VARIANT_STABILIZED)
    files = export_matrices(sys_, str(tmp_path))
    for f in files:
        with open(f) as fh:
            assert fh.readline().startswith("%%MatrixMarket")
