"""Named initial-data presets and admissible mode shapes.

Mode shapes respect the essential boundary conditions of each variant:
u and v vanish at x = 0 in both; the transverse field is clamped at x = 0
and pinned at x = L in the stabilized variant, and only has w_x(0) = 0 in
the controlled one.  Each shape family gives its node values, one row per
mode number in ``k``.
"""

from __future__ import annotations

import numpy as np

from .delayline import init_history
from .discretize import VARIANT_STABILIZED, DiscreteState

__all__ = [
    "nodal_state",
    "zero_state",
    "single_mode_state",
    "random_smooth_state",
    "eigen_mode_state",
    "make_histories",
]


def _wave(sys_, k):
    """Longitudinal shapes sin((k - 1/2) pi x / L); they vanish at x = 0."""
    x, L = sys_.grid.nodes, sys_.grid.L
    return np.sin((k[:, None] - 0.5) * np.pi / L * x)


def _interior(sys_, k):
    """sin(k pi x / L): vanishes at both ends (zero boundary trace)."""
    x, L = sys_.grid.nodes, sys_.grid.L
    return np.sin(k[:, None] * np.pi * x / L)


def _bending(sys_, k):
    """Transverse shapes admissible for the variant of ``sys_``."""
    x, L = sys_.grid.nodes, sys_.grid.L
    if sys_.variant == VARIANT_STABILIZED:
        return (x / L) ** 2 * np.sin(k[:, None] * np.pi * x / L)
    return np.cos(k[:, None] * np.pi * x / L)


def _prepared_bending(sys_, k):
    """Transverse shapes satisfying the natural end conditions as well.

    The polynomial prefactor kills the boundary moment (and for the
    controlled variant also the shear force) at the ends, so a run started
    from these shapes has no singular boundary layer and stays smooth.
    """
    x, L = sys_.grid.nodes, sys_.grid.L
    s = x / L
    if sys_.variant == VARIANT_STABILIZED:
        # w(0)=w_x(0)=w(L)=0 plus w_xx(L)=0 and w_x(L)=0
        return s ** 2 * (1.0 - s) ** 3 * np.sin(k[:, None] * np.pi * x / L)
    # w_x(0)=w_xxx(0)=0 plus w_xx(L)=w_xxx(L)=0
    return s ** 4 * (1.0 - s) ** 4 * np.sin(k[:, None] * np.pi * x / L)


def nodal_state(sys_, u=0.0, v=0.0, w=0.0, ut=0.0, vt=0.0, wt=0.0):
    """The state whose displacements u, v, w and velocities ut, vt, wt take
    the given node values, one per grid node (a scalar fills every node);
    the values where an essential condition fixes a field are dropped."""
    values = np.zeros((sys_.grid.N + 1, 6))
    for f, vals in enumerate((u, v, w, ut, vt, wt)):
        values[:, f] = vals
    # the unknowns are numbered node by node over the live (node, field) slots
    live = sys_.nodal >= 0
    return DiscreteState(q=values[:, :3][live], p=values[:, 3:][live])


def zero_state(sys_):
    return DiscreteState(q=np.zeros(sys_.ndof), p=np.zeros(sys_.ndof))


def single_mode_state(sys_, field, mode, amplitude=1.0):
    """Displacement of one field set to a single admissible mode, zero velocity."""
    if field not in ("u", "v", "w"):
        raise ValueError(f"unknown field {field!r}")
    shapes = _bending if field == "w" else _wave
    return nodal_state(sys_, **{field: amplitude * shapes(sys_, np.array([mode]))[0]})


def random_smooth_state(sys_, seed, cutoff=6, amplitude=1.0, prepared=False):
    """Seeded superposition of the first ``cutoff`` modes of every field.

    Coefficients are standard normal draws damped by 1/k^2, so refinements
    of the same seed represent the same smooth continuum datum.  With
    ``prepared`` the shapes also satisfy the natural boundary conditions
    and carry zero boundary traces, giving a layer-free smooth start.
    """
    rng = np.random.default_rng(seed)
    coeff = rng.standard_normal((6, cutoff)) / np.arange(1, cutoff + 1) ** 2
    # bending modes ring at frequencies ~k^2 and their rotation trace picks up
    # another k; damp the transverse spectrum much harder than the wave fields
    coeff[2] /= np.arange(1, cutoff + 1) ** 2
    coeff[5] /= np.arange(1, cutoff + 1) ** 2
    if prepared:
        # keep the delayed rotation trace resolvable by the profile quadrature
        coeff[2, 3:] = 0.0
        coeff[5, 3:] = 0.0

    k = np.arange(1, cutoff + 1)
    u_shapes = _wave(sys_, k)
    if prepared:
        ut_shapes, w_shapes = _interior(sys_, k), _prepared_bending(sys_, k)
    else:
        ut_shapes, w_shapes = u_shapes, _bending(sys_, k)
    fields = []
    # fields u, v, w, ut, vt, wt, each summed mode by mode in order: a
    # matrix product may add the terms in another order
    for row, shapes in enumerate((u_shapes, u_shapes, w_shapes, ut_shapes, ut_shapes, w_shapes)):
        total = np.zeros(sys_.grid.N + 1)
        for j in range(cutoff):
            total = total + coeff[row, j] * shapes[j]
        fields.append(amplitude * total)
    return nodal_state(sys_, *fields)


def eigen_mode_state(sys_, index, amplitude=1.0):
    """Displacement set to a discrete vibration eigenmode, zero velocity.

    Eigenvectors of (K, M) satisfy the discrete natural boundary conditions
    exactly, so runs started here have no boundary startup layer: the
    preset of choice for convergence-order studies.  Modes are M-normalized
    with the trapezoid integral of x (u + 2v + 3w) made positive: a smooth
    functional, so refinements of one mode share its sign, where a nodal
    entry can tie with another and let roundoff pick the sign.
    """
    vecs = sys_.modes[1]
    if not 0 <= index < sys_.ndof:
        raise ValueError(f"mode index {index} out of range")
    phi = vecs[:, index]
    # the place of each unknown; they are numbered node by node
    x = sys_.grid.nodes[np.nonzero(sys_.nodal >= 0)[0]]
    if (np.array([1.0, 2.0, 3.0]) @ sys_.field_weights * x) @ phi < 0:
        phi = -phi
    return DiscreteState(q=amplitude * phi, p=np.zeros(sys_.ndof))


def make_histories(sys_, state, delays):
    """Initial trace histories on [-tau_i(0), 0] for the delayed channels:
    the initial trace velocity extended backwards, the compatible choice."""
    traces = sys_.traces(state.p)
    return tuple(init_history(lambda s, c=c: c, law.tau(0.0)) for law, c in zip(delays, traces))
