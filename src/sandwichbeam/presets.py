"""Named initial-data presets and admissible mode shapes.

Mode shapes respect the essential boundary conditions of each variant:
u and v vanish at x = 0 in both; the transverse field is clamped at x = 0
and pinned at x = L in the stabilized variant, and only has w_x(0) = 0 in
the controlled one.
"""

from __future__ import annotations

import numpy as np

from .delayline import init_history
from .discretize import VARIANT_STABILIZED, DiscreteState

__all__ = [
    "wave_mode",
    "bending_mode",
    "state_from_functions",
    "zero_state",
    "single_mode_state",
    "random_smooth_state",
    "eigen_mode_state",
    "make_histories",
]


def wave_mode(k, L):
    """k-th longitudinal shape sin((k - 1/2) pi x / L); vanishes at x = 0."""
    omega = (k - 0.5) * np.pi / L

    def shape(x):
        return np.sin(omega * x)

    return shape


def bending_mode(k, L, variant):
    """k-th transverse shape admissible for the given variant."""
    if variant == VARIANT_STABILIZED:

        def shape(x):
            return (x / L) ** 2 * np.sin(k * np.pi * x / L)

    else:

        def shape(x):
            return np.cos(k * np.pi * x / L)

    return shape


def interior_wave_mode(k, L):
    """sin(k pi x / L): vanishes at both ends (zero boundary trace)."""

    def shape(x):
        return np.sin(k * np.pi * x / L)

    return shape


def prepared_bending_mode(k, L, variant):
    """Transverse shape satisfying the natural end conditions as well.

    The polynomial prefactor kills the boundary moment (and for the
    controlled variant also the shear force) at the ends, so a run started
    from these shapes has no singular boundary layer and stays smooth.
    """
    if variant == VARIANT_STABILIZED:
        # w(0)=w_x(0)=w(L)=0 plus w_xx(L)=0 and w_x(L)=0
        def shape(x):
            s = x / L
            return s ** 2 * (1.0 - s) ** 3 * np.sin(k * np.pi * x / L)

    else:
        # w_x(0)=w_xxx(0)=0 plus w_xx(L)=w_xxx(L)=0
        def shape(x):
            s = x / L
            return s ** 4 * (1.0 - s) ** 4 * np.sin(k * np.pi * x / L)

    return shape


def state_from_functions(sys_, u=None, v=None, w=None, ut=None, vt=None, wt=None, t=0.0):
    """Sample smooth field functions onto the grid unknowns."""
    x = sys_.grid.nodes
    q = np.zeros(sys_.ndof)
    p = np.zeros(sys_.ndof)
    for fn, idx, vec in (
        (u, sys_.layout.iu, q),
        (v, sys_.layout.iv, q),
        (w, sys_.layout.iw, q),
        (ut, sys_.layout.iu, p),
        (vt, sys_.layout.iv, p),
        (wt, sys_.layout.iw, p),
    ):
        if fn is None:
            continue
        vals = np.asarray(fn(x), dtype=float)
        live = idx >= 0
        vec[idx[live]] = vals[live]
    return DiscreteState(q=q, p=p, t=t)


def zero_state(sys_):
    return DiscreteState(q=np.zeros(sys_.ndof), p=np.zeros(sys_.ndof), t=0.0)


def single_mode_state(sys_, field, mode, amplitude=1.0):
    """Displacement of one field set to a single admissible mode, zero velocity."""
    L = sys_.grid.L
    if field in ("u", "v"):
        shape = wave_mode(mode, L)
    elif field == "w":
        shape = bending_mode(mode, L, sys_.variant)
    else:
        raise ValueError(f"unknown field {field!r}")
    fn = lambda x: amplitude * shape(x)
    return state_from_functions(sys_, **{field: fn})


def random_smooth_state(sys_, seed, cutoff=6, amplitude=1.0, prepared=False):
    """Seeded superposition of the first ``cutoff`` modes of every field.

    Coefficients are standard normal draws damped by 1/k^2, so refinements
    of the same seed represent the same smooth continuum datum.  With
    ``prepared`` the shapes also satisfy the natural boundary conditions
    and carry zero boundary traces, giving a layer-free smooth start.
    """
    rng = np.random.default_rng(seed)
    L = sys_.grid.L
    coeff = rng.standard_normal((6, cutoff)) / np.arange(1, cutoff + 1) ** 2
    # bending modes ring at frequencies ~k^2 and their rotation trace picks up
    # another k; damp the transverse spectrum much harder than the wave fields
    coeff[2] /= np.arange(1, cutoff + 1) ** 2
    coeff[5] /= np.arange(1, cutoff + 1) ** 2
    if prepared:
        # keep the delayed rotation trace resolvable by the profile quadrature
        coeff[2, 3:] = 0.0
        coeff[5, 3:] = 0.0

    def series(row, shapes):
        def fn(x):
            total = np.zeros_like(np.asarray(x, dtype=float))
            for k in range(cutoff):
                total = total + coeff[row, k] * shapes[k](np.asarray(x, dtype=float))
            return amplitude * total

        return fn

    u_shapes = [wave_mode(k + 1, L) for k in range(cutoff)]
    if prepared:
        ut_shapes = [interior_wave_mode(k + 1, L) for k in range(cutoff)]
        w_shapes = [prepared_bending_mode(k + 1, L, sys_.variant) for k in range(cutoff)]
    else:
        ut_shapes = u_shapes
        w_shapes = [bending_mode(k + 1, L, sys_.variant) for k in range(cutoff)]
    return state_from_functions(
        sys_,
        u=series(0, u_shapes),
        v=series(1, u_shapes),
        w=series(2, w_shapes),
        ut=series(3, ut_shapes),
        vt=series(4, ut_shapes),
        wt=series(5, w_shapes),
    )


def eigen_mode_state(sys_, index, amplitude=1.0):
    """Displacement set to a discrete vibration eigenmode, zero velocity.

    Eigenvectors of (K, M) satisfy the discrete natural boundary conditions
    exactly, so runs started here have no boundary startup layer: the
    preset of choice for convergence-order studies.  Modes are M-normalized
    with the largest-magnitude entry made positive.
    """
    vecs = sys_.modes[1]
    if not 0 <= index < sys_.ndof:
        raise ValueError(f"mode index {index} out of range")
    phi = vecs[:, index]
    peak = np.argmax(np.abs(phi))
    if phi[peak] < 0:
        phi = -phi
    return DiscreteState(q=amplitude * phi, p=np.zeros(sys_.ndof), t=0.0)


def make_histories(sys_, state, delays):
    """Initial trace histories on [-tau_i(0), 0] for the delayed channels:
    the initial trace velocity extended backwards, the compatible choice."""
    traces = sys_.traces(state.p)
    return tuple(init_history(lambda s, c=c: c, law.tau(0.0)) for law, c in zip(delays, traces))
