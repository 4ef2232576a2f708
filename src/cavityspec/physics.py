"""Closed-form cavity QED relations for a single dipole coupled to one cavity mode.

Convention: every rate in this package (g, kappa, gamma0, Omega, detunings
passed to dynamics) is an angular frequency in rad/s.  User-facing numbers
are quoted as ordinary frequencies, so a coupling "2.08 MHz" enters as
2*pi*2.08e6.  Positions are metres, with z >= 0 measured into the substrate
from the cavity interface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import C_LIGHT, EPSILON_0, HBAR, TWO_PI
from .errors import DomainError


def _require_positive(**kwargs):
    for name, value in kwargs.items():
        arr = np.asarray(value, dtype=float)
        if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
            raise DomainError(f"{name} must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class CavityParams:
    """Single-sided cavity description."""

    f_cav: float        # resonance frequency, Hz
    kappa: float        # total energy decay rate, rad/s
    eta_cav: float      # waveguide (out)coupling fraction kappa_wg/kappa
    g_if: float         # single-emitter coupling at the interface peak, rad/s
    z_half: float       # depth over which |E|^2 halves, m

    def __post_init__(self):
        _require_positive(f_cav=self.f_cav, kappa=self.kappa, g_if=self.g_if,
                          z_half=self.z_half)
        if not 0.0 <= self.eta_cav <= 1.0:
            raise DomainError(f"eta_cav must lie in [0, 1], got {self.eta_cav}")

    @classmethod
    def default(cls) -> "CavityParams":
        return cls(f_cav=195.1188e12, kappa=TWO_PI * 3.85e9, eta_cav=0.16,
                   g_if=TWO_PI * 2.62e6, z_half=45e-9)


@dataclass(frozen=True)
class EmitterConstants:
    """Bare-emitter constants of the optical transition."""

    gamma0: float         # free-space (bulk) decay rate, rad/s
    omega: float          # transition angular frequency, rad/s
    gamma_d: float = TWO_PI * 3.1e6  # pure dephasing, rad/s
    beta: float = 0.21    # branching ratio of the monitored transition
    n_host: float = 1.80  # host refractive index

    def __post_init__(self):
        _require_positive(gamma0=self.gamma0, n_host=self.n_host, omega=self.omega)
        if not (self.gamma_d >= 0.0 and math.isfinite(self.gamma_d)):
            raise DomainError(f"gamma_d must be non-negative and finite, "
                              f"got {self.gamma_d}")
        if not 0.0 < self.beta <= 1.0:
            raise DomainError(f"beta must lie in (0, 1], got {self.beta}")

    @classmethod
    def default(cls) -> "EmitterConstants":
        return cls(gamma0=TWO_PI * 14.0, omega=TWO_PI * 195e12)


@dataclass(frozen=True)
class EfficiencyChain:
    """Photon survival budget from cavity emission to detector click."""

    eta_cav: float      # cavity -> waveguide
    eta_wg: float       # waveguide -> fibre interface region
    eta_fib: float      # fibre path transmission
    eta_det: float      # detector quantum efficiency

    def __post_init__(self):
        for name in ("eta_cav", "eta_wg", "eta_fib", "eta_det"):
            v = getattr(self, name)
            if not (np.isfinite(v) and 0.0 <= v <= 1.0):
                raise DomainError(f"{name} must lie in [0, 1], got {v}")


@dataclass(frozen=True)
class TransverseEnvelope:
    """In-plane mode envelope, amplitude exp(-x^2/wx^2 - y^2/wy^2).

    The waists are 1/e^2 intensity radii.  The depth dependence is handled
    separately by coupling_at_depth; multiplying the two gives g(x, y, z).
    """

    waist_x: float = 800e-9   # along the waveguide, m
    waist_y: float = 325e-9   # across the waveguide, m

    def __post_init__(self):
        _require_positive(waist_x=self.waist_x, waist_y=self.waist_y)

    def amplitude(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return np.exp(-((x / self.waist_x) ** 2) - ((y / self.waist_y) ** 2))


def purcell_factor(g, kappa, gamma0):
    """Emission enhancement P = 4 g^2 / (kappa gamma0) in the weak-coupling limit."""
    _require_positive(g=g, kappa=kappa, gamma0=gamma0)
    g = np.asarray(g, dtype=float)
    return 4.0 * g * g / (kappa * gamma0)


def enhanced_lifetime(purcell, tau0):
    """Cavity-shortened lifetime tau0 / (P + 1)."""
    _require_positive(tau0=tau0)
    purcell = np.asarray(purcell, dtype=float)
    if not np.all(np.isfinite(purcell)) or np.any(purcell < 0.0):
        raise DomainError("purcell must be non-negative and finite")
    return tau0 / (purcell + 1.0)


def coupling_at_depth(g_if, z, z_half):
    """Evanescent coupling g_if * 2^(-z / (2 z_half)).

    The intensity |E|^2 halves every z_half of depth, so the amplitude g
    falls by sqrt(2) over the same distance.
    """
    _require_positive(g_if=g_if, z_half=z_half)
    z = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z)) or np.any(z < 0.0):
        raise DomainError("z must be non-negative and finite")
    return g_if * np.exp2(-z / (2.0 * z_half))


def dipole_from_lifetime(gamma0, beta, n_host, omega):
    """Transition dipole moment (C m) that reproduces a bulk decay rate.

    Inverts gamma0 = (1/beta) (3 n^2 / (2 n^2 + 1))^2 n d^2 omega^3
    / (3 pi eps0 hbar c^3), the rate of a dipole d inside a host of index
    n with the local-field correction for a substitutional site.
    """
    _require_positive(gamma0=gamma0, beta=beta, n_host=n_host, omega=omega)
    lfc = 3.0 * n_host**2 / (2.0 * n_host**2 + 1.0)
    gamma0 = np.asarray(gamma0, dtype=float)
    d_sq = (gamma0 * beta * 3.0 * math.pi * EPSILON_0 * HBAR * C_LIGHT**3 /
            (lfc**2 * n_host * omega**3))
    return np.sqrt(d_sq)


def eta_cav_from_contrast(contrast, undercoupled=True):
    """Coupling fraction from on-resonance reflection contrast C = (1 - 2 eta)^2.

    The quadratic has two roots; `undercoupled` selects eta <= 1/2.
    """
    contrast = np.asarray(contrast, dtype=float)
    if not np.all(np.isfinite(contrast)) or np.any(contrast < 0.0) or np.any(contrast > 1.0):
        raise DomainError("contrast must lie in [0, 1]")
    root = np.sqrt(contrast)
    return (1.0 - root) / 2.0 if undercoupled else (1.0 + root) / 2.0


def efficiency_total(chain: EfficiencyChain) -> float:
    """End-to-end photon detection efficiency of a chain."""
    return chain.eta_cav * chain.eta_wg * chain.eta_fib * chain.eta_det
