"""The compiled BLAS and LAPACK routines of the package, bound directly.

``import scipy.linalg`` runs scipy's package initialisation, which loads
its array-API compatibility layer and through it ``numpy.f2py`` and
``numpy.testing``: about 0.3 s at the start of every command, none of it
linear algebra.  The package calls five compiled routines, all of them in
scipy's f2py extension modules ``_fblas`` and ``_flapack``.  This module
loads those two extensions from their files under their full dotted names
(``scipy.linalg._fblas``, ``scipy.linalg._flapack``), so
``scipy/linalg/__init__.py`` never runs, and a later ``import
scipy.linalg`` finds them in ``sys.modules`` and reuses the same objects.
It is the one module of the package that touches scipy's compiled linear
algebra.

``dsbmv``, ``dpbtrf`` and ``dpbtrs`` are the f2py routines themselves.
``eigh`` solves the generalized symmetric-definite problem a x = w b x
from the lower triangles, through ``dsygvd`` or ``dsygv`` exactly as
``scipy.linalg.eigh`` calls them, and with its checks: non-finite input
raises ``ValueError``, a LAPACK failure ``LinAlgError``.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

import numpy as np
import scipy

__all__ = ["dsbmv", "dpbtrf", "dpbtrs", "eigh"]


def _extension(name):
    """The module ``scipy.linalg.<name>``, loaded from its file unless an
    earlier ``import scipy.linalg`` has loaded it already."""
    full_name = f"scipy.linalg.{name}"
    if full_name in sys.modules:
        return sys.modules[full_name]
    directory = os.path.join(os.path.dirname(scipy.__file__), "linalg")
    paths = [os.path.join(directory, name + s) for s in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((p for p in paths if os.path.exists(p)), None)
    if path is None:
        raise ImportError(f"scipy {scipy.__version__} has no {name} extension: none of {paths} exists")
    spec = importlib.util.spec_from_file_location(full_name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[full_name] = module
    spec.loader.exec_module(module)
    return module


_fblas = _extension("_fblas")
_flapack = _extension("_flapack")
dsbmv = _fblas.dsbmv
dpbtrf = _flapack.dpbtrf
dpbtrs = _flapack.dpbtrs


def eigh(a, b, eigvals_only=False, driver="gvd"):
    """Eigenvalues w (ascending) and, unless ``eigvals_only``, b-orthonormal
    eigenvectors v of a v = w b v, for symmetric a and positive definite b.

    ``driver`` is ``"gvd"`` (divide and conquer) or ``"gv"`` (QR iteration,
    a fraction of the workspace)."""
    a = np.asarray_chkfinite(a)
    b = np.asarray_chkfinite(b)
    jobz = "N" if eigvals_only else "V"
    if driver == "gvd":
        w, v, info = _flapack.dsygvd(a=a, b=b, itype=1, uplo="L", jobz=jobz)
    elif driver == "gv":
        work, info = _flapack.dsygv_lwork(a.shape[0], uplo="L")
        if info != 0:
            raise ValueError(f"Internal work array size computation failed: {info}")
        w, v, info = _flapack.dsygv(a=a, b=b, itype=1, uplo="L", jobz=jobz, lwork=int(work))
    else:
        raise ValueError(f"unknown driver {driver!r}, expected 'gvd' or 'gv'")
    if info > a.shape[0]:
        order = info - a.shape[0]
        raise np.linalg.LinAlgError(f"the leading minor of order {order} of b is not positive definite")
    if info != 0:
        raise np.linalg.LinAlgError(f"dsy{driver} did not converge: info = {info}")
    return w if eigvals_only else (w, v)
