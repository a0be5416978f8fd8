"""Finite-difference semi-discretization of both beam systems.

Two boundary-condition variants share one assembly:

* ``stabilized_delayed``: u(0)=v(0)=w(0)=w_x(0)=w(L)=0; the traces u_x(L),
  v_x(L), w_xx(L) carry the (possibly delayed) velocity feedback and enter
  as rank-one force injections.
* ``controlled_conservative``: u(0)=v(0)=0, w_x(0)=0; the boundary values
  u(L), v(L), w(L) are dynamic degrees of freedom with their own inertia
  (E1h1, E3h3, alpha*k) driven by the three controls.

The elastic form is one table of quadratic-form panels (first
differences on cells, second differences on nodes, shear on cell
midpoints): q'Kq is the weighted sum of their squared strains, the
trapezoid-consistent elastic energy.  K is assembled from the table, so it
is symmetric by construction, and the field energy is read from it as
strains, without K.  Ghost-node elimination of the natural conditions is
exactly the variational scheme these panels generate.

The unknowns are numbered node by node, (u_j, v_j, w_j) for j = 0..N with
the nodes fixed by essential conditions skipped, and state vectors use that
one order.  Every panel couples the three fields at no more than three
neighbouring nodes, so K is a band matrix of half-bandwidth ``KD`` = 6,
assembled and stored as LAPACK symmetric lower-band storage.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import groupby

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
    stored as its diagonal.

    ``panels`` is the elastic form: a tuple of panel families
    (stencil, weight, range of panels), each stencil a tuple of
    (node offset, field, coefficient) entries.  Panel p of a family has
    the strain sum(coefficient * x[node p + offset, field]) on the node
    values, and q'Kq is the sum of weight * strain^2 over every panel.
    The stiffness is ``band``, the (KD + 1, n) lower band of K assembled
    from it in LAPACK storage, in Fortran order:
    ``band[d, i] = K[i + d, i]``.  ``K`` is the dense view, built from the
    band on first use for ``modes``, the only reader; time stepping never
    builds it.

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
    panels: tuple
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

        q'Kq is the weighted sum of the squared strains of ``panels``, each
        strain read on strided views of the node values: its terms are
        squares, so nothing cancels between panels.  The unknowns are one
        contiguous run of the node-major order, so one slice copy puts them
        among the zeros of the fixed nodes.
        """
        lead = np.shape(q)[:-1]
        nodes = np.zeros(lead + self.nodal.shape)
        first = int(np.argmax(self.nodal >= 0))
        nodes.reshape(lead + (-1,))[..., first : first + self.ndof] = q
        elastic = 0.0
        for stencil, weight, span in self.panels:
            (offset, f, c), *rest = stencil
            strain = c * nodes[..., span.start + offset : span.stop + offset, f]
            for offset, f, c in rest:
                strain += c * nodes[..., span.start + offset : span.stop + offset, f]
            elastic += weight * np.vecdot(strain, strain)
        energy = 0.5 * (np.dot(p * p, self.M) + elastic)
        return float(energy) if np.ndim(energy) == 0 else energy

    def traces(self, x):
        """The three boundary-channel values of x, or of each row of a stack:
        for velocities (u_t(L), v_t(L), w_tx(L) or w_t(L)), for displacements
        (u(L), v(L), w_x(L) or w(L))."""
        return self.channel_coeff * x[..., self.channel_index]


def _band_from_panels(nodal, panels):
    """Lower band storage of K, the sum over the panels of
    weight * outer(coeffs, coeffs) on their unknowns.

    Families over the same range of panels (the cell families) form one
    group, and the groups go in table order.  A pass adds one coefficient
    pair (a, b), a >= b in stencil order, of one family into the lower
    entries ``band[row - col, col]`` of all its panels with one vectorized
    add; the entries of one add are distinct, so every entry sums its
    contributions in the order of the passes.  Within a group the passes
    go by falling node offset of b, then by family, so every entry sums
    panel by panel from x=0 and the families of one panel in table order.
    That fixes the rounding of each entry whatever the storage layout.  The
    band is written in place: apart from it, no array is longer than a
    family's panel count.
    """
    band = np.zeros((KD + 1, int(nodal.max()) + 1), order="F")
    for _, group in groupby(panels, key=lambda family: family[2]):
        group = list(group)
        # (-node offset of b, family, b)
        order = [(-entry[0], i, b) for i, family in enumerate(group) for b, entry in enumerate(family[0])]
        for _, i, b in sorted(order):
            stencil, weight, span = group[i]
            off, f, c_b = stencil[b]
            col = nodal[span.start + off : span.stop + off, f]
            for off, f, c_a in stencil[b:]:
                row = nodal[span.start + off : span.stop + off, f]
                keep = (row >= col) & (col >= 0)
                band[row[keep] - col[keep], col[keep]] += weight * c_a * c_b
    return band


def build_system(grid, params, variant):
    """Assemble mass, stiffness and boundary machinery for one variant."""
    nodal = _nodal(grid, variant)
    N, dx = grid.N, grid.dx
    iu, iv, iw = nodal.T
    n = int(nodal.max()) + 1

    inv = 1.0 / dx
    inv2 = 1.0 / (dx * dx)
    u, v, w = range(3)
    a = params.alpha * inv
    # the elastic form: panel p of a family adds weight * strain^2 to q'Kq,
    # with strain = sum of coeff * x[node p + offset, field] over its stencil
    panels = (
        # stretching of u and of v on the cells
        (((0, u, -inv), (1, u, inv)), params.E1h1 * dx, range(N)),
        (((0, v, -inv), (1, v, inv)), params.E3h3 * dx, range(N)),
        # shear -u + v + alpha*w_x on the cells, u and v averaged
        (
            ((0, u, -0.5), (0, v, 0.5), (0, w, -a), (1, u, -0.5), (1, v, 0.5), (1, w, a)),
            params.k * dx,
            range(N),
        ),
        # curvature at x=0 folds the ghost reflection of w_x(0)=0
        (((0, w, -2.0 * inv2), (1, w, 2.0 * inv2)), params.EI * dx / 2.0, range(1)),
        # curvature at the nodes j = 1..N-1, panel j - 1.  None at x=L: the
        # natural condition on w_xx(L) lives in the boundary flux (feedback
        # injection or zero), not in the elastic form
        (((0, w, inv2), (1, w, -2.0 * inv2), (2, w, inv2)), params.EI * dx, range(N - 1)),
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
        band=_band_from_panels(nodal, panels),
        panels=panels,
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

