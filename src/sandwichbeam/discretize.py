"""Finite-difference semi-discretization of both beam systems.

Two boundary-condition variants share one assembly:

* ``stabilized_delayed``: u(0)=v(0)=w(0)=w_x(0)=w(L)=0; the traces u_x(L),
  v_x(L), w_xx(L) carry the (possibly delayed) velocity feedback and enter
  as rank-one force injections.
* ``controlled_conservative``: u(0)=v(0)=0, w_x(0)=0; the boundary values
  u(L), v(L), w(L) are dynamic degrees of freedom with their own inertia
  (E1h1, E3h3, alpha*k) driven by the three controls.

The stiffness matrix is assembled from quadratic-form panels (first
differences on cells, second differences on nodes, shear on cell midpoints)
so q'Kq is the trapezoid-consistent elastic energy and K is symmetric by
construction.  Ghost-node elimination of the natural conditions is exactly
the variational scheme these panels generate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.io import mmwrite

VARIANT_STABILIZED = "stabilized_delayed"
VARIANT_CONTROLLED = "controlled_conservative"

__all__ = [
    "VARIANT_STABILIZED",
    "VARIANT_CONTROLLED",
    "Grid1D",
    "DofLayout",
    "SemiDiscreteSystem",
    "DiscreteState",
    "build_system",
    "delay_energy_from_profiles",
    "hspace_norm",
    "export_matrices",
]


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid with N cells on [0, L]; nodes x_j = j*L/N."""

    N: int
    L: float

    def __post_init__(self):
        if self.N < 8:
            raise ValueError(f"need N >= 8 cells, got {self.N}")
        if not self.L > 0.0:
            raise ValueError("L must be positive")

    @property
    def dx(self):
        return self.L / self.N

    @property
    def nodes(self):
        return np.linspace(0.0, self.L, self.N + 1)


@dataclass(frozen=True)
class DofLayout:
    """Node-to-unknown index maps; -1 marks a node fixed by an essential condition."""

    variant: str
    iu: np.ndarray
    iv: np.ndarray
    iw: np.ndarray
    ndof: int


def _layout(grid, variant):
    N = grid.N
    iu = np.full(N + 1, -1, dtype=int)
    iv = np.full(N + 1, -1, dtype=int)
    iw = np.full(N + 1, -1, dtype=int)
    iu[1:] = np.arange(N)
    iv[1:] = N + np.arange(N)
    if variant == VARIANT_STABILIZED:
        iw[1:N] = 2 * N + np.arange(N - 1)
        ndof = 3 * N - 1
    elif variant == VARIANT_CONTROLLED:
        iw[:] = 2 * N + np.arange(N + 1)
        ndof = 3 * N + 1
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return DofLayout(variant=variant, iu=iu, iv=iv, iw=iw, ndof=ndof)


@dataclass
class SemiDiscreteSystem:
    """Assembled matrices and helper vectors for one variant.

    M is stored as its diagonal; K is dense (problem sizes stay small and a
    dense symmetric factorization is cheapest).  ``blocks`` holds the global
    indices of each field block and ``block_weights`` its plain trapezoid L2
    weights, used for the interior damping matrix and for unweighted
    velocity norms.

    The three boundary channels at x = L (feedback traces of the stabilized
    variant, controls and observations of the controlled one) are the map
    ``channel_coeff * x[channel_index]``: one unknown per channel, scaled by
    -1/dx for the stabilized w_x(L) = -w_{N-1}/dx and by 1 otherwise.
    """

    grid: Grid1D
    params: object
    variant: str
    layout: DofLayout
    M: np.ndarray
    K: np.ndarray
    blocks: dict
    block_weights: dict
    channel_index: np.ndarray
    channel_coeff: np.ndarray

    @property
    def ndof(self):
        return self.layout.ndof

    def block(self, name):
        """Global indices of one field block ('u', 'v' or 'w')."""
        return self.blocks[name]

    def damping_diagonal(self, a_values):
        """Diagonal of the interior damping matrix for weights (a1, a2, a3)."""
        c = np.zeros(self.ndof)
        for a, name in zip(a_values, ("u", "v", "w")):
            c[self.block(name)] = a * self.block_weights[name]
        return c

    def field_energy(self, q, p):
        """Field energy 0.5*(p'Mp + q'Kq); the controlled variant's boundary
        kinetic terms are part of M."""
        return float(0.5 * (np.dot(p, self.M * p) + q @ (self.K @ q)))

    def velocity_norms_sq(self, p):
        """Unweighted L2 norms squared (||u_t||^2, ||v_t||^2, ||w_t||^2)."""
        return tuple(
            float(np.dot(self.block_weights[name], p[self.block(name)] ** 2))
            for name in ("u", "v", "w")
        )

    def traces(self, x):
        """The three boundary-channel values of x: for velocities (u_t(L),
        v_t(L), w_tx(L) or w_t(L)), for displacements (u(L), v(L), w_x(L) or
        w(L))."""
        return self.channel_coeff * x[self.channel_index]


def _add_panel(K, idx, coeffs, weight):
    # accumulate weight * outer(coeffs, coeffs) onto the live indices;
    # looping keeps the accumulation order mirror-symmetric so K == K.T exactly
    live = [(g, c) for g, c in zip(idx, coeffs) if g >= 0]
    for ga, ca in live:
        for gb, cb in live:
            K[ga, gb] += weight * ca * cb


def build_system(grid, params, variant):
    """Assemble mass, stiffness and boundary machinery for one variant."""
    layout = _layout(grid, variant)
    N, dx = grid.N, grid.dx
    iu, iv, iw = layout.iu, layout.iv, layout.iw
    n = layout.ndof
    K = np.zeros((n, n))

    inv = 1.0 / dx
    for j in range(N):
        _add_panel(K, [iu[j], iu[j + 1]], [-inv, inv], params.E1h1 * dx)
        _add_panel(K, [iv[j], iv[j + 1]], [-inv, inv], params.E3h3 * dx)
        _add_panel(
            K,
            [iu[j], iu[j + 1], iv[j], iv[j + 1], iw[j], iw[j + 1]],
            [-0.5, -0.5, 0.5, 0.5, -params.alpha * inv, params.alpha * inv],
            params.k * dx,
        )

    inv2 = 1.0 / (dx * dx)
    # curvature panel at x=0 folds the ghost reflection of w_x(0)=0
    _add_panel(K, [iw[0], iw[1]], [-2.0 * inv2, 2.0 * inv2], params.EI * dx / 2.0)
    for j in range(1, N):
        _add_panel(
            K, [iw[j - 1], iw[j], iw[j + 1]], [inv2, -2.0 * inv2, inv2], params.EI * dx
        )
    # no curvature panel at x=L: the natural condition on w_xx(L) lives in the
    # boundary flux (feedback injection or zero), not in the elastic form

    M = np.zeros(n)
    wts = np.full(N, dx)
    wts[-1] = dx / 2.0
    M[iu[1:]] = params.rho1h1 * wts
    M[iv[1:]] = params.rho3h3 * wts

    block_weights = {"u": wts.copy(), "v": wts.copy()}
    if variant == VARIANT_STABILIZED:
        M[iw[1:N]] = params.rhoh * dx
        block_weights["w"] = np.full(N - 1, dx)
        # w_x(L) with w(L)=0 eliminated
        channel_index = np.array([iu[N], iv[N], iw[N - 1]])
        channel_coeff = np.array([1.0, 1.0, -inv])
    else:
        wtw = np.full(N + 1, dx)
        wtw[0] = wtw[-1] = dx / 2.0
        M[iw] = params.rhoh * wtw
        block_weights["w"] = wtw
        # the boundary values are dynamic unknowns with their own inertia
        channel_index = np.array([iu[N], iv[N], iw[N]])
        channel_coeff = np.ones(3)
        M[channel_index] += params.trace_masses

    return SemiDiscreteSystem(
        grid=grid,
        params=params,
        variant=variant,
        layout=layout,
        M=M,
        K=K,
        blocks={name: idx[idx >= 0] for name, idx in (("u", iu), ("v", iv), ("w", iw))},
        block_weights=block_weights,
        channel_index=channel_index,
        channel_coeff=channel_coeff,
    )


@dataclass
class DiscreteState:
    """Displacement/velocity pair on one layout at time t."""

    q: np.ndarray
    p: np.ndarray
    t: float = 0.0

    def copy(self):
        return DiscreteState(q=self.q.copy(), p=self.p.copy(), t=self.t)


def delay_energy_from_profiles(profiles, taus, betas):
    """Sum of (|beta_i|/2) * tau_i * int z_i^2 drho over the delayed channels.

    ``profiles`` is a (3, m+1) array of z_i sampled at rho = 0..1; the rho
    integral uses the composite trapezoid rule on those panels.
    """
    total = 0.0
    for i in range(3):
        b = betas[i]
        if b == 0.0:
            continue
        z = np.asarray(profiles[i])
        total += 0.5 * abs(b) * taus[i] * float(np.trapezoid(z * z, dx=1.0 / (len(z) - 1)))
    return total


def hspace_norm(state, sys_):
    """State-space norm sqrt(p'Mp + q'Kq) (no delay terms)."""
    return float(np.sqrt(2.0 * sys_.field_energy(state.q, state.p)))


def export_matrices(sys_, directory):
    """Dump M (diagonal) and K in MatrixMarket text format for debugging."""
    import os

    os.makedirs(directory, exist_ok=True)
    mmwrite(os.path.join(directory, "mass"), sparse.diags(sys_.M).tocoo())
    mmwrite(os.path.join(directory, "stiffness"), sparse.coo_matrix(sys_.K))
    return [os.path.join(directory, "mass.mtx"), os.path.join(directory, "stiffness.mtx")]
