"""The compiled BLAS and LAPACK routines of the time step, bound from numpy's
own OpenBLAS.

The step needs three compiled routines that numpy does not expose: the
band product ``dsbmv`` and the band Cholesky factor and solve ``dpbtrf``
and ``dpbtrs``.  numpy's PyPI wheels link the scipy-openblas build of
OpenBLAS, which exports the whole of BLAS and LAPACK with a ``scipy_``
prefix, a ``64_`` suffix and 64-bit integers (``USE64BITINT``).  This
module opens that library with ``RTLD_NOLOAD``, so it only ever finds the
copy numpy has already loaded and never loads a second one, and takes the
symbol convention from numpy's build record
(``numpy.__config__.CONFIG``).  There is one path: if numpy's BLAS is not
that build, importing this module raises ``ImportError`` naming what was
found.

Each ``bind_*`` function checks its buffers once (float64, contiguous in
the order the routine reads, the shape, writeable where the routine
writes) and returns a call with every argument built: a time step then
costs a ctypes call per routine and no argument parsing.  The buffers are
the Fortran routines' arguments, so a bound call sees every later change
of their contents.  ``BLAS_CONFIG`` is the configuration string OpenBLAS
reports at run time, which names the kernel in use; the manifests record
it.
"""

from __future__ import annotations

import ctypes
import os
from functools import partial

import numpy as np

__all__ = ["BLAS_CONFIG", "bind_dpbtrf", "bind_dpbtrs", "bind_dsbmv"]

_PREFIX = "libscipy_openblas64_"


def _numpy_blas():
    """numpy's scipy-openblas64 library, found among numpy's own bundled
    libraries and opened only if numpy has loaded it already."""
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    name, config = blas.get("name"), blas.get("openblas configuration", "")
    if name != "scipy-openblas" or "USE64BITINT" not in config.split():
        raise ImportError(
            "sandwichbeam needs numpy built with the scipy-openblas ILP64 BLAS "
            f"of its PyPI wheels; this numpy has {name!r} ({config or 'no OpenBLAS configuration'})"
        )
    package = os.path.dirname(np.__file__)
    # Linux wheels keep their libraries in numpy.libs, macOS wheels in numpy/.dylibs
    directories = [os.path.join(os.path.dirname(package), "numpy.libs"), os.path.join(package, ".dylibs")]
    paths = [
        os.path.join(d, f)
        for d in directories
        if os.path.isdir(d)
        for f in sorted(os.listdir(d))
        if f.startswith(_PREFIX)
    ]
    if len(paths) != 1:
        raise ImportError(f"expected one {_PREFIX}* library in {directories}, found {paths}")
    try:
        return ctypes.CDLL(paths[0], mode=os.RTLD_NOLOAD)
    except (AttributeError, OSError) as exc:
        raise ImportError(f"numpy has not loaded {paths[0]}: {exc}") from exc


_LIB = _numpy_blas()
_INT = ctypes.c_int64


def _routine(name):
    # no argtypes: each argument is built once, as the ctypes object of the
    # type the routine takes, and argtypes would convert all of them again
    # on every call (a dsbmv call at n = 20 took 2.9 us with them, 1.1 without)
    fn = getattr(_LIB, f"scipy_{name}_64_")
    fn.restype = None
    return fn


_dsbmv = _routine("dsbmv")
_dpbtrf = _routine("dpbtrf")
_dpbtrs = _routine("dpbtrs")
_config = _LIB.scipy_openblas_get_config64_
_config.restype = ctypes.c_char_p
BLAS_CONFIG = _config().decode()

# UPLO = 'L' and gfortran's hidden length of that one-character string
_LOWER = ctypes.c_char_p(b"L")
_LOWER_LEN = ctypes.c_size_t(1)


def _ref(value, ctype=_INT):
    return ctypes.byref(ctype(value))


def _pointer(name, arr, order, shape, writes):
    """The address of ``arr``, refused unless the routine may use it in
    place: float64, contiguous in ``order`` ('F' or 'C'), of ``shape``, and
    writeable if the routine ``writes`` it.  The pointer holds the array."""
    if not isinstance(arr, np.ndarray) or arr.dtype != np.float64:
        raise ValueError(f"{name} must be a float64 array, got {getattr(arr, 'dtype', type(arr))}")
    if arr.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    if not arr.flags[f"{order}_CONTIGUOUS"]:
        raise ValueError(f"{name} must be {order}-contiguous")
    if writes and not arr.flags.writeable:
        raise ValueError(f"{name} must be writeable")
    return arr.ctypes.data_as(ctypes.c_void_p)


def _band(name, ab, writes):
    """(n, kd, pointer) of a lower band ``ab`` in LAPACK storage, (kd + 1, n)
    in Fortran order."""
    if not isinstance(ab, np.ndarray) or ab.ndim != 2 or ab.shape[0] < 1:
        raise ValueError(f"{name} must be a (kd + 1, n) band array, got shape {np.shape(ab)}")
    kd1, n = ab.shape
    return n, kd1 - 1, _pointer(name, ab, "F", ab.shape, writes)


def bind_dsbmv(a, x, y, alpha, beta):
    """y := alpha * A x + beta * y for the symmetric band matrix A whose lower
    band is ``a``, as a call with no arguments."""
    n, k, pa = _band("a", a, writes=False)
    px = _pointer("x", x, "C", (n,), writes=False)
    py = _pointer("y", y, "C", (n,), writes=True)
    return partial(
        _dsbmv, _LOWER, _ref(n), _ref(k), _ref(alpha, ctypes.c_double), pa, _ref(k + 1),
        px, _ref(1), _ref(beta, ctypes.c_double), py, _ref(1), _LOWER_LEN,
    )


def bind_dpbtrf(ab):
    """The Cholesky factor L L' of the symmetric positive definite band matrix
    whose lower band is ``ab``, written over ``ab``, as a call with no
    arguments that returns LAPACK's info (0, or the order of the first
    leading minor that is not positive definite)."""
    n, kd, pab = _band("ab", ab, writes=True)
    info = _INT()
    call = partial(_dpbtrf, _LOWER, _ref(n), _ref(kd), pab, _ref(kd + 1), ctypes.byref(info), _LOWER_LEN)

    def factor():
        call()
        return info.value

    return factor


def bind_dpbtrs(ab, b):
    """b := A^-1 b for the band Cholesky factor ``ab`` that ``bind_dpbtrf``'s
    call writes, as a call with no arguments that returns LAPACK's info."""
    n, kd, pab = _band("ab", ab, writes=False)
    pb = _pointer("b", b, "C", (n,), writes=True)
    info = _INT()
    call = partial(
        _dpbtrs, _LOWER, _ref(n), _ref(kd), _ref(1), pab, _ref(kd + 1), pb, _ref(max(1, n)),
        ctypes.byref(info), _LOWER_LEN,
    )

    def solve():
        call()
        return info.value

    return solve
