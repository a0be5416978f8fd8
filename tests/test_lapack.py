"""sandwichbeam.lapack against scipy's f2py routines: the same results, bit
for bit, from numpy's own OpenBLAS."""

import dataclasses

import numpy as np
import pytest
import scipy.linalg.blas
import scipy.linalg.lapack

from sandwichbeam import lapack
from sandwichbeam.discretize import KD, VARIANT_CONTROLLED, Grid1D, build_system
from sandwichbeam.presets import random_smooth_state
from sandwichbeam.timestep import IntegrationError, SchemeConfig, simulate

from test_params import unit_params

SIZES = [20, 97, 191, 3073]


def random_band(n, seed):
    """The lower band, in LAPACK storage, of a random diagonally dominant
    (so positive definite) symmetric matrix of half-bandwidth KD."""
    rng = np.random.default_rng(seed)
    band = np.asfortranarray(rng.standard_normal((KD + 1, n)))
    band[0] = 2.0 * KD + 1.0 + rng.random(n)
    return band


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("n", SIZES)
def test_dsbmv_matches_scipy(n):
    rng = np.random.default_rng(n)
    band, x = random_band(n, n), rng.standard_normal(n)
    for alpha, beta in ((-1.0, 1.0), (1.0, 0.0), (0.3, -2.5)):
        y0 = rng.standard_normal(n)
        expected = scipy.linalg.blas.dsbmv(KD, alpha, band, x, beta=beta, y=y0.copy(), lower=1)
        y = y0.copy()
        product = lapack.bind_dsbmv(band, x, y, alpha, beta)
        assert product() is None
        assert np.array_equal(bits(y), bits(expected))


@pytest.mark.parametrize("n", SIZES)
def test_dpbtrf_and_dpbtrs_match_scipy(n):
    rng = np.random.default_rng(n + 1)
    band, b0 = random_band(n, n + 1), rng.standard_normal(n)
    factor_ref, info_ref = scipy.linalg.lapack.dpbtrf(band, lower=1)
    solution_ref, solve_info_ref = scipy.linalg.lapack.dpbtrs(factor_ref, b0, lower=1)
    assert info_ref == solve_info_ref == 0
    # bound before the factor is written, as the stepper binds them
    factor, b = np.empty_like(band), b0.copy()
    factorize = lapack.bind_dpbtrf(factor)
    solve = lapack.bind_dpbtrs(factor, b)
    factor[...] = band
    assert factorize() == 0
    assert np.array_equal(bits(factor), bits(factor_ref))
    assert solve() == 0
    assert np.array_equal(bits(b), bits(solution_ref))


def test_bound_calls_read_the_buffers_current_contents():
    n = 97
    band, x, y = random_band(n, 0), np.empty(n), np.empty(n)
    product = lapack.bind_dsbmv(band, x, y, 1.0, 0.0)
    rng = np.random.default_rng(1)
    for _ in range(3):
        x[:] = rng.standard_normal(n)
        product()
        expected = scipy.linalg.blas.dsbmv(KD, 1.0, band, x, lower=1)
        assert np.array_equal(bits(y), bits(expected))


def test_dpbtrf_reports_the_first_minor_that_is_not_positive_definite():
    band = random_band(191, 2)
    band[0, 40] = -1.0
    _, info_ref = scipy.linalg.lapack.dpbtrf(band, lower=1)
    assert info_ref == 41
    assert lapack.bind_dpbtrf(band.copy(order="F"))() == info_ref


def test_effective_matrix_not_positive_definite_is_an_integration_error():
    p = unit_params()
    sys_ = build_system(Grid1D(N=16, L=p.L), p, VARIANT_CONTROLLED)
    state = random_smooth_state(sys_, seed=3)
    # with a negative mass, M + dt^2/4 K has a leading minor that is not
    # positive, which dpbtrf reports by its order
    negative = dataclasses.replace(sys_, M=-sys_.M)
    with pytest.raises(IntegrationError, match=r"factorization failed \(dpbtrf info [1-9][0-9]*\)$"):
        simulate(state, negative, SchemeConfig(dt=0.01, T=0.1))


def _read_only(a):
    a = a.copy(order="K")
    a.flags.writeable = False
    return a


@pytest.mark.parametrize(
    "name, spoil",
    [
        ("a", lambda band, x, y: (band.astype(np.float32), x, y)),
        ("a", lambda band, x, y: (np.ascontiguousarray(band), x, y)),
        ("a", lambda band, x, y: (band[0], x, y)),
        ("x", lambda band, x, y: (band, x.astype(np.int64), y)),
        ("x", lambda band, x, y: (band, np.repeat(x, 2)[::2], y)),
        ("x", lambda band, x, y: (band, np.append(x, 0.0), y)),
        ("y", lambda band, x, y: (band, x, y[:, None])),
        ("y", lambda band, x, y: (band, x, _read_only(y))),
    ],
    ids=["band-float32", "band-c-order", "band-1d", "x-int64", "x-strided", "x-long", "y-2d", "y-read-only"],
)
def test_a_buffer_the_routine_cannot_use_in_place_is_refused_when_bound(name, spoil):
    band, x, y = spoil(random_band(20, 3), np.zeros(20), np.zeros(20))
    with pytest.raises(ValueError, match=rf"^{name} must"):
        lapack.bind_dsbmv(band, x, y, 1.0, 0.0)


def test_factor_and_solve_refuse_buffers_they_cannot_use_in_place():
    band, b = random_band(20, 4), np.zeros(20)
    with pytest.raises(ValueError, match="^ab must be F-contiguous"):
        lapack.bind_dpbtrf(np.ascontiguousarray(band))
    read_only = _read_only(band)
    with pytest.raises(ValueError, match="^ab must be writeable"):
        lapack.bind_dpbtrf(read_only)
    # dpbtrs only reads the factor, and solves in place in b
    lapack.bind_dpbtrs(read_only, b)
    with pytest.raises(ValueError, match=r"^b must have shape \(20,\)"):
        lapack.bind_dpbtrs(band, np.zeros(21))
    with pytest.raises(ValueError, match="^b must be a float64 array"):
        lapack.bind_dpbtrs(band, b.astype(np.float32))


def test_blas_config_is_numpys_openblas_build():
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    words = lapack.BLAS_CONFIG.split()
    assert words[:2] == ["OpenBLAS", blas["version"]]
    assert "USE64BITINT" in words
