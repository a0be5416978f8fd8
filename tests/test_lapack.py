"""sandwichbeam.lapack against scipy.linalg: the same routines, the same results."""

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.blas
import scipy.linalg.lapack

from sandwichbeam import lapack


def test_routines_are_scipys_own_objects():
    assert lapack.dpbtrf is scipy.linalg.lapack.dpbtrf
    assert lapack.dpbtrs is scipy.linalg.lapack.dpbtrs
    assert lapack.dsbmv is scipy.linalg.blas.dsbmv


def definite_pair(rng, n):
    """A random symmetric a and a random symmetric positive definite b."""
    x, y = rng.standard_normal((2, n, n))
    return x + x.T, y @ y.T + n * np.eye(n)


@pytest.mark.parametrize("driver", ["gv", "gvd"])
@pytest.mark.parametrize("eigvals_only", [False, True])
@pytest.mark.parametrize("n", [1, 7, 40, 97])
def test_eigh_is_bitwise_scipys(driver, eigvals_only, n):
    rng = np.random.default_rng(n)
    a, b = definite_pair(rng, n)
    ours = lapack.eigh(a, b, eigvals_only=eigvals_only, driver=driver)
    theirs = scipy.linalg.eigh(a, b, eigvals_only=eigvals_only, driver=driver)
    if eigvals_only:
        ours, theirs = (ours,), (theirs,)
    for x, y in zip(ours, theirs, strict=True):
        assert x.tobytes() == y.tobytes()


@pytest.mark.parametrize("driver", ["gv", "gvd"])
def test_eigh_refuses_what_scipy_refuses(driver):
    a, b = definite_pair(np.random.default_rng(0), 6)
    bad = a.copy()
    bad[2, 3] = np.nan
    with pytest.raises(ValueError):
        lapack.eigh(bad, b, driver=driver)
    with pytest.raises(ValueError):
        lapack.eigh(a, np.where(b > 1.0, np.inf, b), driver=driver)
    with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
        lapack.eigh(a, a, driver=driver)
