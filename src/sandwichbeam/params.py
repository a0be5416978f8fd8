"""Physical coefficients, gains, delay laws and damping weights.

The model couples two longitudinal wave fields u, v (outer layers) to one
transverse bending field w through the shear strain -u + v + alpha*w_x.
Everything here is a plain immutable value object; all hypothesis checking
lives in :mod:`sandwichbeam.hypotheses`.  The time laws (``tau``, ``dtau``
and ``a``) take a float or an array of times and return the same shape, so
a run samples each law on its whole time grid in one numpy expression.
A scenario's delays are a 3-tuple of delay laws, one per feedback channel
(the u, v and w_x traces at x = L), and its damping a 3-tuple of weights,
one per field equation.  A constant law is its family's zero member:
``SinusoidalDelay(value, 0.0, 0.0)`` and ``ExponentialDamping(value, value,
0.0)`` return ``value`` (and a zero slope) bitwise at every time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "PhysicalParams",
    "SinusoidalDelay",
    "ExponentialDamping",
    "GainConfig",
]

_REL_TOL = 1e-12


def _require_finite(obj):
    """Refuse a value object with a nan or infinite number in any field."""
    for field in fields(obj):
        value = getattr(obj, field.name)
        if not math.isfinite(value):
            raise ValueError(f"{type(obj).__name__} {field.name} must be finite, got {value!r}")


@dataclass(frozen=True)
class PhysicalParams:
    """Composite beam coefficients (unit-free internally).

    rho1h1, E1h1   mass / stiffness coefficient of the first wave layer
    rho3h3, E3h3   same for the third layer
    rhoh, EI       mass / bending stiffness of the transverse field
    k              shear modulus of the core
    alpha          shear coupling length h2 + (h1 + h3)/2
    L              beam length
    """

    rho1h1: float
    E1h1: float
    rho3h3: float
    E3h3: float
    rhoh: float
    EI: float
    k: float
    alpha: float
    L: float

    def __post_init__(self):
        for name in ("rho1h1", "E1h1", "rho3h3", "E3h3", "rhoh", "EI", "k", "alpha", "L"):
            value = getattr(self, name)
            if not (value > 0.0 and math.isfinite(value)):
                raise ValueError(f"{name} must be strictly positive, got {value!r}")

    @classmethod
    def from_layers(cls, rho, h, E, I, k, L):
        """Build composites from per-layer data.

        rho, h, E are length-3 sequences (layers 1, 2, 3); I is indexed the
        same way but only layers 1 and 3 contribute stiffness.  Enforces
        rhoh = sum(rho_i h_i), EI = E1*I1 + E3*I3, alpha = h2 + (h1+h3)/2.
        """
        rho1, rho2, rho3 = rho
        h1, h2, h3 = h
        E1, _, E3 = E
        I1, _, I3 = I
        return cls(
            rho1h1=rho1 * h1,
            E1h1=E1 * h1,
            rho3h3=rho3 * h3,
            E3h3=E3 * h3,
            rhoh=rho1 * h1 + rho2 * h2 + rho3 * h3,
            EI=E1 * I1 + E3 * I3,
            k=k,
            alpha=h2 + 0.5 * (h1 + h3),
            L=L,
        )

    def check_layer_consistency(self, rho, h, E, I):
        """Verify that given layer data reproduces the stored composites.

        Returns a list of (name, stored, recomputed) mismatches; empty if
        everything agrees to relative tolerance 1e-12.  Layer data whose
        composites are not positive raise ValueError, as in ``from_layers``.
        """
        expected = PhysicalParams.from_layers(rho, h, E, I, k=self.k, L=self.L)
        bad = []
        for name in ("rho1h1", "E1h1", "rho3h3", "E3h3", "rhoh", "EI", "alpha"):
            stored, value = getattr(self, name), getattr(expected, name)
            if abs(stored - value) > _REL_TOL * max(abs(stored), abs(value)):
                bad.append((name, stored, value))
        return bad

    @property
    def mass_coefficients(self):
        """(rho1h1, rho3h3, rhoh) in channel order."""
        return (self.rho1h1, self.rho3h3, self.rhoh)

    @property
    def boundary_stiffness(self):
        """(E1h1, E3h3, EI): the trace weights of the three feedback channels."""
        return (self.E1h1, self.E3h3, self.EI)

    @property
    def trace_masses(self):
        """(E1h1, E3h3, alpha*k): inertia of the dynamic boundary traces of the
        controlled variant, and the weights of its controls and observations."""
        return (self.E1h1, self.E3h3, self.alpha * self.k)


@dataclass(frozen=True)
class SinusoidalDelay:
    """tau(t) = base + amplitude*sin(frequency*t); twice differentiable.

    The analytic slope bound is |amplitude*frequency|, which must stay
    below 1 for the delayed argument t - tau(t) to be increasing.
    """

    base: float
    amplitude: float
    frequency: float

    def __post_init__(self):
        _require_finite(self)
        if not self.base - abs(self.amplitude) > 0.0:
            raise ValueError(f"delay floor base - |amplitude| must be positive, got {self.floor!r}")
        # a slope bound >= 1 is representable so the validator can report it
        # as a failed hypothesis; the integrator refuses to run with it

    def tau(self, t):
        return self.base + self.amplitude * np.sin(self.frequency * t)

    def dtau(self, t):
        return self.amplitude * self.frequency * np.cos(self.frequency * t)

    @property
    def floor(self):
        return self.base - abs(self.amplitude)

    @property
    def cap(self):
        return self.base + abs(self.amplitude)

    @property
    def slope_bound(self):
        return abs(self.amplitude * self.frequency)


@dataclass(frozen=True)
class ExponentialDamping:
    """a(t) = floor + (initial - floor) * exp(-rate*t), non-increasing to a floor."""

    floor: float
    initial: float
    rate: float

    def __post_init__(self):
        _require_finite(self)
        if not self.floor > 0.0:
            raise ValueError(f"damping floor must be positive, got {self.floor!r}")
        if self.initial < self.floor:
            raise ValueError("initial damping below floor would be increasing")
        if self.rate < 0.0:
            raise ValueError("decay rate must be nonnegative")

    def a(self, t):
        return self.floor + (self.initial - self.floor) * np.exp(-self.rate * t)


@dataclass(frozen=True)
class GainConfig:
    """Boundary feedback gains: instantaneous alpha_i and delayed beta_i."""

    alpha1: float
    beta1: float
    alpha2: float
    beta2: float
    alpha3: float
    beta3: float

    def __post_init__(self):
        _require_finite(self)

    @property
    def alphas(self):
        return (self.alpha1, self.alpha2, self.alpha3)

    @property
    def betas(self):
        return (self.beta1, self.beta2, self.beta3)

    @property
    def any_delayed(self):
        return any(b != 0.0 for b in self.betas)
