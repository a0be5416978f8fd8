"""sandwichbeam.lapack against scipy: the same routines, the same results."""

import numpy as np
import pytest
import scipy
import scipy.linalg
import scipy.linalg.blas
import scipy.linalg.lapack

from sandwichbeam import lapack


def test_routines_are_scipys_own_objects():
    assert lapack.dpbtrf is scipy.linalg.lapack.dpbtrf
    assert lapack.dpbtrs is scipy.linalg.lapack.dpbtrs
    assert lapack.dsbmv is scipy.linalg.blas.dsbmv


def test_version_is_scipys_own():
    assert lapack.SCIPY_VERSION == scipy.__version__


def definite_pair(rng, n):
    """A random symmetric a and a random symmetric positive definite b."""
    x, y = rng.standard_normal((2, n, n))
    return x + x.T, y @ y.T + n * np.eye(n)


# scipy's default driver is "gvd" for the generalized problem, "evr" for the standard one
@pytest.mark.parametrize("driver", ["gvd", "evd"])
@pytest.mark.parametrize("eigvals_only", [False, True])
@pytest.mark.parametrize("n", [1, 7, 40, 97, 192])
def test_eigh_is_bitwise_scipys(driver, eigvals_only, n):
    rng = np.random.default_rng(n)
    a, b = definite_pair(rng, n)
    if driver == "evd":
        b = None  # the standard problem a v = w v
    ours = lapack.eigh(a, b, eigvals_only=eigvals_only)
    theirs = scipy.linalg.eigh(a, b, eigvals_only=eigvals_only, driver=driver)
    if eigvals_only:
        ours, theirs = (ours,), (theirs,)
    for x, y in zip(ours, theirs, strict=True):
        assert x.tobytes() == y.tobytes()


def test_eigh_refuses_what_scipy_refuses():
    a, b = definite_pair(np.random.default_rng(0), 6)
    for bad in (np.nan, np.inf):
        refused = a.copy()
        refused[2, 3] = bad
        with pytest.raises(ValueError):
            lapack.eigh(refused)
        with pytest.raises(ValueError):
            lapack.eigh(refused, b)
        with pytest.raises(ValueError):
            lapack.eigh(a, np.where(b > 1.0, bad, b))
    with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
        lapack.eigh(a, a)
