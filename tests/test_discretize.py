import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs
from scipy.linalg import eigh
from scipy.linalg.blas import dsbmv

from sandwichbeam.discretize import (
    KD,
    VARIANT_CONTROLLED,
    VARIANT_STABILIZED,
    DiscreteState,
    Grid1D,
    build_system,
    hspace_norm,
)
from sandwichbeam.presets import eigen_mode_state, nodal_state, random_smooth_state

from test_delayline import window_integrals
from test_params import unit_params
from test_timestep import init_history


def field_order(sys_):
    """Indices of all unknowns field by field (all u, then all v, then all
    w), node by node within each field."""
    cols = sys_.nodal.T
    return np.concatenate([col[col >= 0] for col in cols])


def block_draw(rng, sys_):
    """Standard normal state vector drawn field block by field block (all u,
    then all v, then all w) and placed at the numbering's indices."""
    x = np.empty(sys_.ndof)
    x[field_order(sys_)] = rng.standard_normal(sys_.ndof)
    return x


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
        iu, iv, iw = sys_.nodal.T
        seen = []
        for idx in (iu, iv, iw):
            seen.extend(int(i) for i in idx if i >= 0)
        assert sorted(seen) == list(range(sys_.ndof))
        # numbered node by node: node j's unknowns all precede node j+1's
        live = sys_.nodal >= 0
        assert np.array_equal(sys_.nodal[live], np.arange(sys_.ndof))
        # essential nodes carry no index
        assert iu[0] == -1 and iv[0] == -1
        if sys_.variant == VARIANT_STABILIZED:
            assert iw[0] == -1 and iw[-1] == -1
        else:
            assert iw[0] >= 0 and iw[-1] >= 0


def test_stiffness_symmetric_exactly_and_psd():
    rng = np.random.default_rng(0)
    for sys_ in both_systems(24, E3h3=2.0, EI=0.7, k=1.3, alpha=0.8):
        assert np.max(np.abs(sys_.K - sys_.K.T)) == 0.0
        for _ in range(100):
            q = block_draw(rng, sys_)
            assert q @ sys_.K @ q >= -1e-12 * np.dot(q, q)
        assert np.all(sys_.M > 0.0)


def _loop_stiffness(sys_):
    """Dense K assembled panel by panel with Python loops, cells left to
    right and then the curvature panels: the reference for the banded
    assembly, which sums each entry in the same order."""
    p, N, dx = sys_.params, sys_.grid.N, sys_.grid.dx
    iu, iv, iw = sys_.nodal.T
    K = np.zeros((sys_.ndof, sys_.ndof))

    def add(idx, coeffs, weight):
        live = [(g, c) for g, c in zip(idx, coeffs) if g >= 0]
        for ga, ca in live:
            for gb, cb in live:
                K[ga, gb] += weight * ca * cb

    inv, inv2 = 1.0 / dx, 1.0 / (dx * dx)
    for j in range(N):
        add([iu[j], iu[j + 1]], [-inv, inv], p.E1h1 * dx)
        add([iv[j], iv[j + 1]], [-inv, inv], p.E3h3 * dx)
        add(
            [iu[j], iu[j + 1], iv[j], iv[j + 1], iw[j], iw[j + 1]],
            [-0.5, -0.5, 0.5, 0.5, -p.alpha * inv, p.alpha * inv],
            p.k * dx,
        )
    add([iw[0], iw[1]], [-2.0 * inv2, 2.0 * inv2], p.EI * dx / 2.0)
    for j in range(1, N):
        add([iw[j - 1], iw[j], iw[j + 1]], [inv2, -2.0 * inv2, inv2], p.EI * dx)
    return K


def test_band_assembly_equals_loop_reference_bitwise():
    for N in (8, 17, 33, 64, 65):
        for sys_ in both_systems(N, E3h3=2.0, EI=0.7, k=1.3, alpha=0.8, L=1.7):
            assert np.array_equal(sys_.K, _loop_stiffness(sys_))


@pytest.mark.parametrize("variant", [VARIANT_STABILIZED, VARIANT_CONTROLLED])
def test_assembly_memory_is_a_few_bands(variant):
    # the assembly adds into the band in place, with temporaries the length
    # of one panel family; sorting all contributions at once peaked at 12x
    p = unit_params()
    grid = Grid1D(N=1024, L=p.L)
    tracemalloc.start()
    try:
        sys_ = build_system(grid, p, variant)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * sys_.band.nbytes, peak / sys_.band.nbytes


@pytest.mark.parametrize("N", [8, 16, 32])
def test_modes_match_the_generalized_reference(N):
    # modes solves the standard problem (sKs) v = omega^2 v, s = M^-1/2; the
    # reference solves the pencil (K, M) itself.  Measured on both variants
    # at these N: eigenvalues within 7.9e-16 * lambda_max, phi'M phi - I
    # within 2.9e-15, residuals K phi - M phi omega^2 within 3.3e-16 * lambda_max
    for sys_ in both_systems(N):
        omega_sq, phi = sys_.modes
        reference = eigh(sys_.K, np.diag(sys_.M), eigvals_only=True)
        scale = reference[-1]
        assert np.max(np.abs(omega_sq - reference)) <= 1e-12 * scale
        assert np.max(np.abs(phi.T @ (sys_.M[:, None] * phi) - np.eye(sys_.ndof))) <= 1e-13
        residuals = sys_.K @ phi - sys_.M[:, None] * phi * omega_sq
        assert np.max(np.linalg.norm(residuals, axis=0)) <= 1e-12 * scale


# the square root and the division of a non-positive mass warn before the refusal
@pytest.mark.parametrize("variant", [VARIANT_CONTROLLED, VARIANT_STABILIZED])
def test_eigen_mode_sign_is_the_same_on_every_grid(variant):
    # with equal outer layers, two entries of a mode tie in magnitude, so a
    # sign fixed by the largest entry flips from grid to grid; each mode on
    # N and 2N cells, both restricted to 16 cells, correlates at +1
    p = unit_params()
    coarse_live = build_system(Grid1D(N=16, L=1.0), p, variant).nodal >= 0

    def restricted(N, index):
        sys_ = build_system(Grid1D(N=N, L=1.0), p, variant)
        return eigen_mode_state(sys_, index).q[sys_.nodal[:: N // 16][coarse_live]]

    for N in (16, 32, 64):
        for index in range(12):
            a, b = restricted(N, index), restricted(2 * N, index)
            assert a @ b / np.linalg.norm(a) / np.linalg.norm(b) > 0.9999, (N, index)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "entry, bad",
    [("K", np.nan), ("K", np.inf), ("M", np.nan), ("M", np.inf), ("M", 0.0), ("M", -1.0)],
)
def test_modes_refuse_what_the_eigensolver_would_turn_into_nan(entry, bad):
    # numpy's eigh returns NaN for an infinite entry and raises nothing, and
    # stops with LinAlgError (a ValueError) on a NaN only after solving
    sys_ = both_systems(8)[1]
    if entry == "K":
        sys_.band[0, 3] = bad  # the diagonal entry K[3, 3]
    else:
        sys_.M[3] = bad
    with pytest.raises(ValueError) as refused:
        sys_.modes
    assert refused.type is ValueError


def test_elastic_energy_linear_profile():
    # u = x, v = w = 0: E1h1*L + k*L^3/3 with only the O(dx^2) shear
    # quadrature error (the wave form integrates linear profiles exactly)
    p = unit_params()
    for N in (16, 32, 64):
        sys_ = build_system(Grid1D(N=N, L=1.0), p, VARIANT_CONTROLLED)
        st = nodal_state(sys_, u=sys_.grid.nodes)
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
        st = nodal_state(sys_, w=sys_.grid.nodes ** 2)
        val = float(st.q @ sys_.K @ st.q)
        expected = 4.0 + 4.0 / 3.0 - 2.0 * dx
        assert abs(val - expected) < 2.0 * dx ** 2


def _energy_order(variant, fields, exact):
    p = unit_params(E3h3=2.0, EI=0.5, k=1.2, alpha=0.9)
    errs = []
    for N in (16, 32, 64, 128):
        sys_ = build_system(Grid1D(N=N, L=1.0), p, variant)
        st = nodal_state(sys_, **{name: fn(sys_.grid.nodes) for name, fn in fields.items()})
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
    # constant history c on one delayed channel: I0 = tau*c^2, I1 = tau*c^2/2,
    # so the delay energy is (|b|/2)*tau*c^2
    h = init_history(lambda s: 2.0, 0.4)
    i0, i1 = (x[0] for x in window_integrals(h.times, h.values, h.slopes, [0.0], [0.4])[:2])
    assert 0.5 * abs(-0.3) * i0 == pytest.approx(0.5 * 0.3 * 0.4 * 4.0)
    assert i0 == pytest.approx(0.4 * 4.0)
    assert i1 == pytest.approx(0.5 * 0.4 * 4.0)


def test_hspace_norm_properties_and_dense_oracle():
    p = unit_params(E3h3=1.7, EI=0.4, k=2.0, alpha=1.1)
    sys_ = build_system(Grid1D(N=24, L=1.0), p, VARIANT_CONTROLLED)
    zero = DiscreteState(q=np.zeros(sys_.ndof), p=np.zeros(sys_.ndof))
    assert hspace_norm(zero, sys_) == 0.0
    rng = np.random.default_rng(3)
    st = DiscreteState(q=block_draw(rng, sys_), p=block_draw(rng, sys_))
    n1 = hspace_norm(st, sys_)
    st2 = DiscreteState(q=-2.5 * st.q, p=-2.5 * st.p)
    assert hspace_norm(st2, sys_) == pytest.approx(2.5 * n1, rel=1e-12)

    # dense re-assembly oracle: rebuild the quadratic form from first
    # principles with explicit loops over cells and curvature panels
    N = sys_.grid.N
    dx = sys_.grid.dx
    iu, iv, iw = sys_.nodal.T

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
    N, dx = sys_.grid.N, sys_.grid.dx
    i4, i5, i6 = sys_.nodal[N]
    expected = {
        i4: p.E1h1 + p.rho1h1 * dx / 2.0,
        i5: p.E3h3 + p.rho3h3 * dx / 2.0,
        i6: p.alpha * p.k + p.rhoh * dx / 2.0,
    }
    rng = np.random.default_rng(5)
    st = DiscreteState(q=block_draw(rng, sys_), p=block_draw(rng, sys_))
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
        st = nodal_state(sys_, u=np.sin(0.5 * np.pi * sys_.grid.nodes))
        errs.append(abs(sys_.field_energy(st.q, st.p) - exact))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(1.7 <= o <= 2.3 for o in orders), orders


def _panel_energy(sys_, q):
    """q'Kq summed panel by panel from the field differences."""
    p, dx = sys_.params, sys_.grid.dx
    u, v, w = (np.where(idx >= 0, q[idx], 0.0) for idx in sys_.nodal.T)
    shear = 0.5 * (v[:-1] + v[1:] - u[:-1] - u[1:]) + p.alpha * np.diff(w) / dx
    curvature = np.diff(w, 2) / dx ** 2
    kappa0 = 2.0 * (w[1] - w[0]) / dx ** 2
    return (
        dx * np.sum(p.E1h1 * (np.diff(u) / dx) ** 2 + p.E3h3 * (np.diff(v) / dx) ** 2 + p.k * shear ** 2)
        + dx * p.EI * np.sum(curvature ** 2)
        + 0.5 * dx * p.EI * kappa0 ** 2
    )


_coefficient = hs.floats(0.05, 20.0)


@settings(max_examples=60, deadline=None, database=None)
@given(
    N=hs.integers(8, 64),
    variant=hs.sampled_from((VARIANT_STABILIZED, VARIANT_CONTROLLED)),
    E1h1=_coefficient,
    E3h3=_coefficient,
    EI=_coefficient,
    k=_coefficient,
    alpha=_coefficient,
    L=hs.floats(0.2, 5.0),
    seed=hs.integers(0, 2 ** 32 - 1),
)
def test_band_stiffness_properties(N, variant, E1h1, E3h3, EI, k, alpha, L, seed):
    p = unit_params(E1h1=E1h1, E3h3=E3h3, EI=EI, k=k, alpha=alpha, L=L)
    sys_ = build_system(Grid1D(N=N, L=L), p, variant)
    K = sys_.K
    rows, cols = np.nonzero(K)
    assert np.max(np.abs(rows - cols)) <= KD
    assert np.array_equal(K, K.T)
    q = np.random.default_rng(seed).standard_normal(sys_.ndof)
    Kq = dsbmv(KD, 1.0, sys_.band, q, lower=1)
    dense = K @ q
    assert np.max(np.abs(Kq - dense)) <= 1e-13 * np.max(np.abs(dense))
    energy = _panel_energy(sys_, q)
    assert abs(q @ dense - energy) <= 1e-12 * energy
    assert abs(2.0 * sys_.field_energy(q, np.zeros_like(q)) - energy) <= 1e-12 * energy


def exact_band_form(band, q):
    """q'Kq of the stored band in exact rational arithmetic: every double
    is an integer multiple of 2**-1074."""

    def scaled(x):
        return [num * ((1 << 1074) // den) for num, den in map(float.as_integer_ratio, x.tolist())]

    Q = scaled(q)
    n = len(Q)
    total = sum(b * x * x for b, x in zip(scaled(band[0]), Q))
    for d in range(1, KD + 1):
        total += 2 * sum(b * x * y for b, x, y in zip(scaled(band[d, : n - d]), Q[: n - d], Q[d:]))
    return Fraction(total, 1 << 3 * 1074)


@pytest.mark.parametrize("variant", [VARIANT_CONTROLLED, VARIANT_STABILIZED])
@pytest.mark.parametrize("N", [256, 512, 1024])
def test_field_energy_matches_the_exact_band_form(variant, N):
    # with unit coefficients and N a power of 2 every band entry is exact,
    # so the band's exact q'Kq is the elastic energy itself.  Summed through
    # the band in double, q'Kq cancels like N^4: that sum was off by 5.6e-10
    # to 5.0e-7 here, and a long-double band sum by up to 5e-10 at N = 1024.
    # The strain sum was within 6.8e-15
    sys_ = build_system(Grid1D(N=N, L=1.0), unit_params(), variant)
    q = random_smooth_state(sys_, seed=1).q
    exact = exact_band_form(sys_.band, q)
    energy = 2.0 * sys_.field_energy(q, np.zeros_like(q))
    assert abs(Fraction(energy) - exact) <= 1e-12 * exact
