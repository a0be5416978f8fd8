"""sandwichbeam.lapack against scipy: the same routines, the same results."""

import scipy
import scipy.linalg.blas
import scipy.linalg.lapack

from sandwichbeam import lapack


def test_routines_are_scipys_own_objects():
    assert lapack.dpbtrf is scipy.linalg.lapack.dpbtrf
    assert lapack.dpbtrs is scipy.linalg.lapack.dpbtrs
    assert lapack.dsbmv is scipy.linalg.blas.dsbmv


def test_version_is_scipys_own():
    assert lapack.SCIPY_VERSION == scipy.__version__
