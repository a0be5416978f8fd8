"""The compiled BLAS and LAPACK routines of the package, bound directly.

``import scipy.linalg`` runs scipy's package initialisation, which loads
its array-API compatibility layer and through it ``numpy.f2py`` and
``numpy.testing``: about 0.3 s at the start of every command, none of it
linear algebra.  The package needs three compiled routines that numpy
lacks, the band product and the band Cholesky factor and solve of the
time step, all of them in scipy's f2py extension modules ``_fblas`` and
``_flapack``; its eigensolves are numpy's own (``numpy.linalg.eigh`` and
``eigvalsh`` on standard problems).  This module
loads those two extensions from their files under their full dotted names
(``scipy.linalg._fblas``, ``scipy.linalg._flapack``), so
``scipy/linalg/__init__.py`` never runs, and a later ``import
scipy.linalg`` finds them in ``sys.modules`` and reuses the same objects.
It finds scipy's directory with ``importlib.util.find_spec``, which does
not import scipy either, so ``scipy/__init__.py`` does not run (about
18 ms and 1.3 MB of every command), and reads the version from
``scipy/version.py`` into a plain namespace, leaving ``sys.modules`` as
it was.  It is the one module of the package that imports anything of
scipy.

``dsbmv``, ``dpbtrf`` and ``dpbtrs`` are the f2py routines themselves,
``SCIPY_VERSION`` the version of the scipy they come from.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

__all__ = ["SCIPY_VERSION", "dsbmv", "dpbtrf", "dpbtrs"]

_SCIPY_SPEC = importlib.util.find_spec("scipy")
if _SCIPY_SPEC is None:
    raise ImportError("sandwichbeam needs scipy, which is not installed")
_SCIPY_DIR = _SCIPY_SPEC.submodule_search_locations[0]


def _version(directory):
    """The ``version`` string of ``<directory>/version.py``, run in a plain
    namespace and not registered as a module."""
    path = os.path.join(directory, "version.py")
    namespace = {}
    with open(path) as fh:
        exec(compile(fh.read(), path, "exec"), namespace)
    return namespace["version"]


SCIPY_VERSION = _version(_SCIPY_DIR)


def _extension(name):
    """The module ``scipy.linalg.<name>``, loaded from its file unless an
    earlier ``import scipy.linalg`` has loaded it already."""
    full_name = f"scipy.linalg.{name}"
    if full_name in sys.modules:
        return sys.modules[full_name]
    directory = os.path.join(_SCIPY_DIR, "linalg")
    paths = [os.path.join(directory, name + s) for s in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((p for p in paths if os.path.exists(p)), None)
    if path is None:
        raise ImportError(f"scipy {SCIPY_VERSION} has no {name} extension: none of {paths} exists")
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
