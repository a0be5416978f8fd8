"""Null-control synthesis and observability in the modes of (K, M).

The controlled conservative system is time-reversible (the generator is
skew-adjoint in the discrete state product), so the adjoint problem is the
same system integrated backward, realized as a forward solve with negated
velocities.  Observation = boundary displacement traces weighted by
(E1h1, E3h3, alpha*k), which is exactly dual to the control injection, so
the discrete duality identity

    [v'Mw - q'Mr]_0^T = sum_n dt * f_mid' B' w_mid

holds to roundoff and the Gramian G (x'Gx = weighted observation norm of
the adjoint solution from terminal datum x) is symmetric positive
semidefinite by construction.

HUM works in the modal coordinates (a, b) = (phi'M q, phi'M p) of the state
alone: nothing is mapped back to nodal data, so no back-transform adds
roundoff to the nearly unobservable directions the solve keeps.  The
unforced midpoint Newmark step advances every mode of (K, M) by an exact
rotation of angle 2*arctan(omega*dt/2), and the rigid mode (omega = 0) by
a + dt*b.  One modal propagator turns this into closed forms for everything
HUM needs of the unforced system: the free state at T (the right side), the
adjoint traces from the solved terminal datum (the controls), and the
midpoint traces of every modal datum, whose Gram matrix is G.  Since the
steps are rotations, the propagator at x + r steps is the one at x times
the one at r (the addition formulas), so the tables over the steps come from
a base table over the first sqrt(n_steps) steps and one row per block of
that many steps, and G is a sum of Hadamard products of small Gram matrices:
sqrt(n_steps) rows of cosines and sines instead of n_steps.  G is
numerically singular: the top bending modes and the spurious wave-branch
modes of the grid are almost invisible at the boundary, as for every
finite-difference scheme of this kind (Infante-Zuazua 1999;
Ervedoza-Zheng-Zuazua 2008).  ``observability`` therefore reports the exact
constant on a fixed class of low modes beside the unfiltered spectrum, and
``compute_null_control`` solves in the eigenbasis, dropping the least
observable directions only as far as the residual tolerance allows.  Only
the verification, the forward run under the synthesized controls, is
stepped through the Newmark loop.

The displacement part of the state product, diag(omega^2) in modes, is
blind to the rigid mode, a constant transverse shift (the controlled
variant has no essential condition on w itself).  The metrics complete it
by gamma*(L*w_c)^2, with w_c the M-weighted mean of w: its centre of mass,
the boundary mass included.  That direction is the rigid mode itself, so
the completed displacement block is diag(r^2), with r = omega on the
elastic modes and r_0^2 = gamma*(sum W_w)^2 / sum M_w, taken from the
masses rather than from eigh's phi_0.  The right side D b, and so the
controls of a full-rank solve, do not depend on the completion.

Both eigenproblems are standard problems of G with its displacement rows
and columns scaled by r (``compute_null_control``) or by 1/r
(``observability``), so the class constant is the spectrum of a principal
submatrix.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

from .discretize import VARIANT_CONTROLLED, hspace_norm
from .timestep import simulate

__all__ = [
    "gramian",
    "compute_null_control",
    "observability",
]


class _ModalPropagator:
    """The midpoint Newmark steps of ``cfg`` in the modes of (K, M), in closed form.

    In modal coordinates (a, b) = (phi'M q, phi'M p) one step turns every
    mode by the exact angle theta = 2*arctan(omega*dt/2) in the plane of
    (omega*a, b), and moves the rigid mode (omega = 0) by a + dt*b.  Modal
    data x are the stacked (a, b).  The rigid mode is the controlled
    variant's lowest: eigh returns its omega^2 as roundoff of either sign
    (growing like N^4), and its omega is set to exactly 0.

    With C(m) = cos(m theta) and S(m) = sin(m theta)/omega (m*dt on the
    rigid mode), the addition formulas C(x + r) = C(x)C(r) - omega^2 S(x)S(r)
    and S(x + r) = S(x)C(r) + C(x)S(r) hold on every mode, the rigid one
    included.  ``base_cos`` and ``base_sin`` hold C(r) and S(r) for the
    r < isqrt(n_steps) steps of one block.
    """

    def __init__(self, sys_, cfg):
        self.n_steps = cfg.n_steps
        self.dt = cfg.step
        omega_sq, phi = sys_.modes
        self.omega = np.sqrt(np.maximum(omega_sq, 0.0))
        if sys_.variant == VARIANT_CONTROLLED:
            self.omega[0] = 0.0
        self.theta = 2.0 * np.arctan(0.5 * self.dt * self.omega)
        # theta / omega, which tends to dt on the rigid mode
        self._theta_per_omega = np.divide(
            self.theta, self.omega, out=np.full_like(self.omega, self.dt), where=self.omega > 0.0
        )
        self.to_modal = phi.T * sys_.M
        # the three boundary channels of every mode
        self.traces = sys_.channel_coeff[:, None] * phi[sys_.channel_index]
        self.base_cos, self.base_sin = self(np.arange(max(1, math.isqrt(self.n_steps)))[:, None])

    def __call__(self, m):
        """C(m) and S(m) after m steps, for a number or a column of step
        counts, evaluated directly."""
        angle = m * self.theta
        return np.cos(angle), (m * self._theta_per_omega) * np.sinc(angle / np.pi)

    def free_state(self, x):
        """Modal data at T of the unforced run from modal data ``x``."""
        a, b = np.split(x, 2)
        cos, sin = self(self.n_steps)
        return np.concatenate([cos * a + sin * b, cos * b - self.omega * self.omega * sin * a])

    def adjoint_traces(self, x):
        """The observation series, the boundary displacement traces on the
        step grid, of the adjoint solution from modal terminal data ``x``.

        The adjoint is the run from (a_T, -b_T) reversed in time, so row k
        holds the displacement traces after n_steps - k of its steps.  After
        y = start + r of them the modal displacement is
        C(y)a - S(y)b = C(r)*alpha + S(r)*beta, with alpha and beta from the
        one direct row at ``start``; each block of the base table's length is
        written in turn, so the memory beside the (n_steps + 1, 3) result
        stays O(sqrt(n_steps) * n) whatever the horizon.
        """
        a, b = np.split(x, 2)
        series = np.empty((self.n_steps + 1, 3))
        # row y of the reversed view: after y steps of the adjoint run
        after = series[::-1]
        block = len(self.base_cos)
        for start in range(0, self.n_steps + 1, block):
            cos, sin = self(start)
            alpha = (cos * a - sin * b)[:, None] * self.traces.T
            beta = (-self.omega * self.omega * sin * a - cos * b)[:, None] * self.traces.T
            rows = min(block, self.n_steps + 1 - start)
            after[start : start + rows] = self.base_cos[:rows] @ alpha + self.base_sin[:rows] @ beta
        return series


def _metric_factor(sys_):
    """The per-mode scales r of the completed state product on modal data:
    its displacement block is diag(r^2) (see the module docstring) and its
    velocity block is I."""
    if sys_.variant != VARIANT_CONTROLLED:
        raise ValueError("HUM needs a controlled_conservative system")
    p = sys_.params
    r = np.sqrt(np.maximum(sys_.modes[0], 0.0))
    # no essential condition fixes w in the controlled variant
    iw = sys_.nodal[:, 2]
    # energy-scaled completion of the centre of mass; backed by the bending
    # stiffness so it survives shear-free reductions
    gamma = (p.k + p.EI / p.L ** 4) / p.L
    r[0] = math.sqrt(gamma * sys_.field_weights[2, iw].sum() ** 2 / sys_.M[iw].sum())
    return r


def gramian(sys_, cfg):
    """Gramian G on modal terminal data (a, b) = (phi'M q, phi'M p): x'Gx
    is the observation norm of the adjoint solution from x, for the steps
    of ``cfg``.

    The midpoint traces of step n of the reversed run are the channel rows
    of phi times C'[n]*a - S'[n]*b, the propagator at n + 1/2 steps times
    cos(theta/2): C' = C(n + 1/2) cos(theta/2) and S' = S(n + 1/2) cos(theta/2).
    So G is the Hadamard product of the Gram matrix of [C', -S'] over the
    steps with the Gram matrix of the weighted channel rows; the
    observation matrix itself is never formed.

    The steps n = k*B + r, k < n_steps // B, r < B, of the base table's
    length B give [C', -S'] = [c, c]*[C_r, -S_r] + [s, s]*[-omega^2 S_r, -C_r]
    per mode, with c and s the direct rows C' and S' at k*B + 1/2.  The Gram
    sum over (k, r) of such a table is, block by block, the sum over the
    pairs of terms of the Hadamard product of the Gram matrix over k (c'c,
    c's or s's) with the one over r.  The fewer than B steps left over are
    summed from direct rows.
    """
    prop = _ModalPropagator(sys_, cfg)
    n = len(prop.omega)
    half = np.cos(0.5 * prop.theta)
    block = len(prop.base_cos)
    cut = prop.n_steps - prop.n_steps % block
    cos, sin = prop(np.arange(0, cut, block)[:, None] + 0.5)
    cos *= half
    sin *= half
    first = np.hstack([prop.base_cos, -prop.base_sin])
    second = np.hstack([-prop.omega * prop.omega * prop.base_sin, -prop.base_cos])
    # G and one (2n, 2n) work buffer; each (n, n) Gram matrix over k
    # multiplies the four blocks of a Gram matrix over r in place
    G = first.T @ first
    G.reshape(2, n, 2, n)[...] *= (cos.T @ cos)[:, None, :]
    work = np.matmul(second.T, second)
    work.reshape(2, n, 2, n)[...] *= (sin.T @ sin)[:, None, :]
    G += work
    np.matmul(first.T, second, out=work)
    work.reshape(2, n, 2, n)[...] *= (cos.T @ sin)[:, None, :]
    G += work
    G += work.T
    cos, sin = prop(np.arange(cut, prop.n_steps)[:, None] + 0.5)
    left = np.hstack([cos * half, -sin * half])
    G += np.matmul(left.T, left, out=work)
    traces = prop.traces
    channels = prop.dt * traces.T @ (np.asarray(sys_.params.trace_masses)[:, None] * traces)
    # each of the four (n, n) blocks times the channel Gram matrix, in place
    G.reshape(2, n, 2, n)[...] *= channels[:, None, :]
    return G


def compute_null_control(initial, sys_, cfg, tol=1e-8):
    """Solve G x = D b in the eigenbasis of (G, D), computed in standard
    form (see the module docstring), and verify the controls.

    On modal data the dual metric D = blockdiag(I, diag(r)^-2) is the
    pullback of the state metric blockdiag(diag(r^2), I) through the
    duality pairing, and b represents the free evolution: D b = (-b_T, a_T)
    for the free modal state (a_T, b_T) at T.  So the D-norm of the residual is the energy
    norm of the terminal state the controls leave.  Eigen-directions are
    kept in order of falling eigenvalue up to the first rank whose
    residual is at most tol*||b||_D (the discrepancy principle); directions
    below the roundoff floor of G are never kept, and a tolerance they
    would need is reported as not converged, together with the
    independently verified terminal norm.

    The right side and the controls (the adjoint traces from x) come in
    closed form from the modes; the one run through the Newmark loop is
    the verification, the forward run under the controls that gives
    ``terminal_rel_norm``.  The horizon is cfg.T.

    Returns the controls, (n_steps + 1, 3) on the step grid, beside the
    entries of the ``hum.json`` block, all as attributes (the benchmark's
    tracer reads ``iterations`` and ``terminal_rel_norm`` so): ``rank``,
    the number of eigen-directions kept, also under its earlier name
    ``iterations``; ``residuals[k]``, the residual norm with the first k of
    them, k = 0..rank; ``final_residual``, the last relative to the first;
    ``converged``; ``terminal_rel_norm``; ``control_cost``; ``rayleigh``,
    the extreme kept eigenvalues, None when none is kept; and ``dt``, the
    step taken, which differs from a requested step that does not divide T.
    """
    r = _metric_factor(sys_)
    G = gramian(sys_, cfg)
    n = len(r)
    # the standard form S'GS, S = blockdiag(I, diag(r)), in place
    G[:, n:] *= r
    G[n:, :] *= r[:, None]
    prop = _ModalPropagator(sys_, cfg)
    x0 = np.concatenate([prop.to_modal @ initial.q, prop.to_modal @ initial.p])
    a_T, b_T = np.split(prop.free_state(x0), 2)
    # the eigenvectors of (G, D) are S y, so their products with D b are
    # y'S'(D b), and S'(D b) = (-b_T, r*a_T)
    lam, vecs = np.linalg.eigh(G)
    lam, vecs = lam[::-1], vecs[:, ::-1]
    beta = vecs.T @ np.concatenate([-b_T, r * a_T])
    # residual norm with the first k directions kept, k = 0..2n
    tail = np.sqrt(np.cumsum(beta[::-1] ** 2)[::-1])
    resolved = int(np.count_nonzero(lam > 2 * len(beta) * np.finfo(float).eps * lam[0]))
    residuals = np.append(tail, 0.0)[: resolved + 1]
    met = np.flatnonzero(residuals <= tol * residuals[0])
    converged = met.size > 0
    rank = int(met[0]) if converged else resolved
    y_a, y_b = np.split(vecs[:, :rank] @ (beta[:rank] / lam[:rank]), 2)
    x = np.concatenate([y_a, r * y_b])

    controls = prop.adjoint_traces(x)
    verification = simulate(initial, sys_, cfg, controls=controls)
    terminal = verification.final_state()
    denom = hspace_norm(initial, sys_)
    rel = hspace_norm(terminal, sys_) / denom if denom > 0.0 else hspace_norm(terminal, sys_)
    # the weighted L2(0,T) norm pairs midpoint values, as the integrator
    # applies the controls
    cost = 0.0
    for i, wgt in enumerate(sys_.params.trace_masses):
        mid = 0.5 * (controls[:-1, i] + controls[1:, i])
        cost += wgt * verification.dt * float(np.dot(mid, mid))
    return SimpleNamespace(
        controls=controls,
        rank=rank,
        iterations=rank,
        converged=converged,
        # its square is the share of the initial (completed) energy left in
        # the dropped eigen-directions
        final_residual=residuals[rank] / residuals[0] if residuals[0] > 0.0 else 0.0,
        residuals=residuals[: rank + 1].tolist(),
        terminal_rel_norm=rel,
        control_cost=cost,
        rayleigh={"min": lam[rank - 1] if rank else None, "max": lam[0] if rank else None},
        dt=verification.dt,
    )


def observability(sys_, cfg, cutoff=8):
    """Exact observability quotients x'Gx / x'(metric)x for the steps of ``cfg``.

    On modal data the completed state metric is blockdiag(diag(r^2), I),
    and both spectra are computed in standard form (see the module
    docstring).  Returns (minimum on the span of the lowest ``cutoff``
    modes of (K, M), in displacement and in velocity, which are the first
    ``cutoff`` indices of each block; minimum over all data; maximum over
    all data).  The
    unfiltered minimum sits at roundoff: the discrete system is not
    uniformly observable, its constant on a fixed class of low modes is,
    and that constant is stable under grid refinement.
    """
    r = _metric_factor(sys_)
    G = gramian(sys_, cfg)
    n = len(r)
    # H = T^-1 G T^-1, T = blockdiag(diag(r), I), in place
    G[:n] /= r[:, None]
    G[:, :n] /= r
    full = np.linalg.eigvalsh(G)
    low = np.ix_(*2 * [np.r_[:cutoff, n : n + cutoff]])
    restricted = np.linalg.eigvalsh(G[low])
    return float(restricted[0]), float(full[0]), float(full[-1])
