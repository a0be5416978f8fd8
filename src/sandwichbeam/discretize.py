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

The unknowns are numbered node by node, (u_j, v_j, w_j) for j = 0..N with
the nodes fixed by essential conditions skipped, and state vectors use that
one order.  Every panel couples the three fields at no more than three
neighbouring nodes, so K is a band matrix of half-bandwidth ``KD`` = 6,
assembled and stored as LAPACK symmetric lower-band storage.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

VARIANT_STABILIZED = "stabilized_delayed"
VARIANT_CONTROLLED = "controlled_conservative"
# half-bandwidth of K in node order: the curvature panel couples w_{j-1}
# with w_{j+1}, two nodes of three unknowns apart
KD = 6

__all__ = [
    "VARIANT_STABILIZED",
    "VARIANT_CONTROLLED",
    "KD",
    "Grid1D",
    "SemiDiscreteSystem",
    "DiscreteState",
    "build_system",
    "hspace_norm",
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


def _nodal(grid, variant):
    """The numbering ``SemiDiscreteSystem.nodal`` of the unknowns."""
    N = grid.N
    live = np.ones((N + 1, 3), dtype=bool)
    live[0, :2] = False  # u(0) = v(0) = 0
    if variant == VARIANT_STABILIZED:
        live[[0, N], 2] = False  # w(0) = w(L) = 0
    elif variant != VARIANT_CONTROLLED:
        raise ValueError(f"unknown variant {variant!r}")
    nodal = np.full((N + 1, 3), -1)
    nodal[live] = np.arange(np.count_nonzero(live))  # row-major: node by node
    return nodal


@dataclass
class SemiDiscreteSystem:
    """Assembled matrices and helper vectors for one variant.

    ``nodal`` is the (N + 1, 3) numbering of the unknowns: ``nodal[j, f]``
    is the index of field f (u, v, w) at node j, or -1 where an essential
    condition fixes it.

    ``field_weights`` is the (3, n) weight table W: row f holds field f's
    trapezoid L2 weights on its unknowns (u, v, w in that order) and zeros
    elsewhere, so W[f] @ (x * y) is the L2 product of field f.  It weights
    the interior damping, the velocity norms of the ledger and the
    Lyapunov cross term, and M is built from it: the mass coefficients
    times W, plus the boundary inertia of the controlled variant.  M is
    stored as its diagonal.  The stiffness is ``band``, the (KD + 1, n)
    lower band of K in LAPACK storage, in Fortran order:
    ``band[d, i] = K[i + d, i]``.  ``K``
    is the dense view, built from the band on first use for ``modes``,
    the only reader; time stepping never builds it.

    The three boundary channels at x = L (feedback traces of the stabilized
    variant, controls and observations of the controlled one) are the map
    ``channel_coeff * x[channel_index]``: one unknown per channel, scaled by
    -1/dx for the stabilized w_x(L) = -w_{N-1}/dx and by 1 otherwise.
    """

    grid: Grid1D
    params: object
    variant: str
    nodal: np.ndarray
    M: np.ndarray
    band: np.ndarray
    field_weights: np.ndarray
    channel_index: np.ndarray
    channel_coeff: np.ndarray

    @property
    def ndof(self):
        return len(self.M)

    @cached_property
    def K(self):
        """Dense stiffness, exactly symmetric (both mirror entries are
        copied from one band entry)."""
        # the nonzero entries on and below the diagonal
        d, col = np.nonzero(self.band)
        row, val = col + d, self.band[d, col]
        K = np.zeros((self.ndof, self.ndof))
        K[row, col] = val
        K[col, row] = val
        return K

    @cached_property
    def modes(self):
        """Vibration modes: eigenpairs (omega^2, phi) of (K, M), eigenvalues
        ascending and eigenvectors M-normalized (phi' M phi = I).

        M is diagonal, so with s = M^-1/2 the pencil is the standard problem
        (sKs) v = omega^2 v, and phi = s v.  A non-finite K or M, or an M
        that is not positive, raises ``ValueError`` before the solve:
        numpy's ``eigh`` returns NaN for infinite input without an error."""
        s = 1.0 / np.sqrt(np.asarray_chkfinite(self.M))
        omega_sq, v = np.linalg.eigh(np.asarray_chkfinite(s[:, None] * self.K * s))
        return omega_sq, s[:, None] * v

    def field_energy(self, q, p):
        """Field energy 0.5*(p'Mp + q'Kq) of one state, or of a stack of
        states (one per row) as an array; the controlled variant's boundary
        kinetic terms are part of M.

        q'Kq is the symmetric band sum over the lower band, grouped by row:
        the sum over i of q_i * (band[0, i] q_i + 2 sum_d band[d, i] q_{i+d}),
        one array product per diagonal over the whole stack.  Each
        diagonal is doubled into one scratch row and its products go into
        one contiguous scratch array, so no copy of the band is made.  The
        terms of one row cancel before the rows are added, which keeps the
        digits a sum over whole diagonals would lose to the large diagonal
        terms.
        """
        band = self.band
        n = band.shape[1]
        kinetic = np.dot(p * p, self.M)
        y = band[0] * q
        twice = np.empty(n - 1)
        products = np.empty(y[..., 1:].size)
        for d in range(1, KD + 1):
            qd = q[..., d:]
            np.multiply(band[d, : n - d], 2.0, out=twice[: n - d])
            y[..., : n - d] += np.multiply(twice[: n - d], qd, out=products[: qd.size].reshape(qd.shape))
        energy = 0.5 * (kinetic + np.vecdot(q, y))
        return float(energy) if np.ndim(energy) == 0 else energy

    def traces(self, x):
        """The three boundary-channel values of x, or of each row of a stack:
        for velocities (u_t(L), v_t(L), w_tx(L) or w_t(L)), for displacements
        (u(L), v(L), w_x(L) or w(L))."""
        return self.channel_coeff * x[..., self.channel_index]


def _band_from_panels(n, passes):
    """Lower band storage of the sum over panels of weight * outer(coeffs, coeffs).

    Each pass is (slots, coeffs, weight, pairs): a (P, m) array of unknown
    indices (-1 for a fixed node) whose live indices increase along every
    row, m coefficients, one weight, and the pairs (a, b), a >= b, of
    columns whose products it adds.  A pair is one vectorized add of
    weight * coeffs[a] * coeffs[b] into the lower entries
    ``band[row - col, col]`` of its P panels, which are distinct, so every
    entry sums its contributions in the order of the adds.  The caller
    orders the passes so that this is panel order, which fixes the
    rounding of each entry whatever the storage layout.  The band is
    written in place: apart from it, no array is longer than P.
    """
    band = np.zeros((KD + 1, n), order="F")
    for slots, coeffs, weight, pairs in passes:
        for a, b in pairs:
            row, col = slots[:, a], slots[:, b]
            keep = (row >= col) & (col >= 0)
            col = col[keep]
            band[row[keep] - col, col] += weight * coeffs[a] * coeffs[b]
    return band


def _cell_passes(families):
    """The passes of the cell panels, whose first half of columns is the
    left node and second half the right node.  Node j receives cell j-1's
    pairs within its right node before cell j's within its left node, so
    the right-node pairs of every family come first; within each half the
    families keep their order, and a cross pair has one cell only."""
    right, left = [], []
    for slots, coeffs, weight in families:
        m = len(coeffs)
        right.append((slots, coeffs, weight, [(a, b) for b in range(m // 2, m) for a in range(b, m)]))
        left.append((slots, coeffs, weight, [(a, b) for b in range(m // 2) for a in range(b, m)]))
    return right + left


def build_system(grid, params, variant):
    """Assemble mass, stiffness and boundary machinery for one variant."""
    nodal = _nodal(grid, variant)
    N, dx = grid.N, grid.dx
    iu, iv, iw = nodal.T
    n = int(nodal.max()) + 1

    inv = 1.0 / dx
    inv2 = 1.0 / (dx * dx)
    # summation order of every entry: cells left to right (stretch u,
    # stretch v, shear), then the curvature panels from x=0
    band = _band_from_panels(
        n,
        _cell_passes(
            [
                (np.column_stack((iu[:-1], iu[1:])), (-inv, inv), params.E1h1 * dx),
                (np.column_stack((iv[:-1], iv[1:])), (-inv, inv), params.E3h3 * dx),
                (
                    np.column_stack((iu[:-1], iv[:-1], iw[:-1], iu[1:], iv[1:], iw[1:])),
                    (-0.5, 0.5, -params.alpha * inv, -0.5, 0.5, params.alpha * inv),
                    params.k * dx,
                ),
            ]
        )
        + [
            # curvature panel at x=0 folds the ghost reflection of w_x(0)=0
            (
                np.column_stack((iw[:1], iw[1:2])),
                (-2.0 * inv2, 2.0 * inv2),
                params.EI * dx / 2.0,
                [(0, 0), (1, 0), (1, 1)],
            ),
            # the panels at nodes j = 1..N-1 (columns: nodes j-1, j, j+1,
            # roles L, C, R): w_k w_k sums panel k-1's RR, panel k's CC,
            # then panel k+1's LL, and w_{k+1} w_k panel k's RC before
            # panel k+1's CL, so the pairs go RR, RC, CC, CL, LL, then RL,
            # which one panel alone reaches
            (
                np.column_stack((iw[:-2], iw[1:-1], iw[2:])),
                (inv2, -2.0 * inv2, inv2),
                params.EI * dx,
                [(2, 2), (2, 1), (1, 1), (1, 0), (0, 0), (2, 0)],
            ),
            # no curvature panel at x=L: the natural condition on w_xx(L)
            # lives in the boundary flux (feedback injection or zero), not in
            # the elastic form
        ],
    )

    # the weight table W: trapezoid L2 weights of each field on its unknowns;
    # u and v are fixed at x=0 and have half a cell at x=L
    W = np.zeros((3, n))
    wts = np.full(N, dx)
    wts[-1] = dx / 2.0
    W[0, iu[1:]] = wts
    W[1, iv[1:]] = wts
    if variant == VARIANT_STABILIZED:
        # w is fixed at both ends
        W[2, iw[1:N]] = dx
        # w_x(L) with w(L)=0 eliminated
        channel_index = np.array([iu[N], iv[N], iw[N - 1]])
        channel_coeff = np.array([1.0, 1.0, -inv])
    else:
        W[2, iw] = dx
        W[2, iw[[0, N]]] = dx / 2.0
        channel_index = np.array([iu[N], iv[N], iw[N]])
        channel_coeff = np.ones(3)
    # each entry of the product has one nonzero term, rho_f * weight
    M = np.asarray(params.mass_coefficients) @ W
    if variant == VARIANT_CONTROLLED:
        # the boundary values are dynamic unknowns with their own inertia
        M[channel_index] += params.trace_masses

    return SemiDiscreteSystem(
        grid=grid,
        params=params,
        variant=variant,
        nodal=nodal,
        M=M,
        band=band,
        field_weights=W,
        channel_index=channel_index,
        channel_coeff=channel_coeff,
    )


@dataclass
class DiscreteState:
    """Displacement/velocity pair in one system's numbering of the unknowns."""

    q: np.ndarray
    p: np.ndarray


def hspace_norm(state, sys_):
    """State-space norm sqrt(p'Mp + q'Kq) (no delay terms)."""
    return float(np.sqrt(2.0 * sys_.field_energy(state.q, state.p)))

