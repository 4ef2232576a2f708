"""Doped-ion ensembles: spatial/spectral sampling and Zeeman line positions.

A sampling region is a box: x and y centred on the cavity field maximum,
z from 0 (interface) down into the substrate.  Only site-1 ions couple in
the band of interest, hence the site1_fraction multiplier on the density.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .constants import MU_BOHR, H_PLANCK
from .errors import CapacityError, DomainError
from .physics import CavityParams, EmitterConstants, TransverseEnvelope, coupling_at_depth

YTTRIUM_SITE_DENSITY = 1.87e28  # substitutional host sites per m^3


class Site(IntEnum):
    SITE1 = 1
    SITE2 = 2


@dataclass(frozen=True)
class IonRecord:
    """One sampled ion.

    position: (x, y, z) metres, z >= 0 into the substrate
    f0: optical transition frequency, Hz
    g: cavity coupling at the ion's position, rad/s
    purcell: 4 g^2 / (kappa gamma0) for the owning cavity
    """

    position: tuple[float, float, float]
    f0: float
    g: float
    purcell: float
    site: Site = Site.SITE1

    def __post_init__(self):
        if self.position[2] < 0.0:
            raise DomainError(f"ion depth must be >= 0, got {self.position[2]}")
        if not (self.f0 > 0 and self.g >= 0 and self.purcell >= 0):
            raise DomainError("f0 must be positive; g and purcell non-negative")


@dataclass(frozen=True)
class EnsembleConfig:
    """Sampling recipe for a doped region around the cavity."""

    density: float                  # total dopant density, m^-3
    site1_fraction: float = 0.5
    f_center: float = 195.1188e12   # inhomogeneous line centre, Hz
    sigma_inh: float = 2.9e9        # inhomogeneous standard deviation, Hz
    region: tuple[float, float, float] = (2e-6, 1e-6, 0.2e-6)  # (Lx, Ly, Lz), m
    max_count: int = 10_000_000

    def __post_init__(self):
        if not (self.density > 0 and np.isfinite(self.density)):
            raise DomainError(f"density must be positive, got {self.density}")
        if not 0.0 < self.site1_fraction <= 1.0:
            raise DomainError("site1_fraction must lie in (0, 1]")
        if not (self.f_center > 0 and self.sigma_inh > 0):
            raise DomainError("f_center and sigma_inh must be positive")
        if any(not (d > 0 and np.isfinite(d)) for d in self.region):
            raise DomainError(f"region dimensions must be positive, got {self.region}")
        if self.max_count < 1:
            raise DomainError("max_count must be at least 1")

    @classmethod
    def from_ppm(cls, ppm: float, **kwargs) -> "EnsembleConfig":
        """Doping quoted in parts per million of host sites."""
        if not ppm > 0:
            raise DomainError("ppm must be positive")
        return cls(density=ppm * 1e-6 * YTTRIUM_SITE_DENSITY, **kwargs)

    @property
    def volume(self) -> float:
        lx, ly, lz = self.region
        return lx * ly * lz

    @property
    def mean_count(self) -> float:
        return self.density * self.site1_fraction * self.volume


@dataclass(frozen=True)
class ZeemanConfig:
    """Magnetic configuration for spin-split optical lines.

    b_offset models a stray/remanent field that adds vectorially to the
    applied one; delta_g is the |g_ground - g_excited| difference governing
    spin-conserving lines.  Spin-flip lines need the g-factor sum and are
    off by default.
    """

    b_applied: tuple[float, float, float] = (0.0, 0.0, 0.0)  # Tesla
    b_offset: tuple[float, float, float] = (1e-4, 0.0, 0.0)  # Tesla
    delta_g: float = 1.55
    spin_flip_strength: float = 0.0   # relative to a spin-conserving line
    sum_g: float | None = None

    def __post_init__(self):
        for vec in (self.b_applied, self.b_offset):
            if len(vec) != 3 or any(not np.isfinite(c) for c in vec):
                raise DomainError(f"field vectors must be finite 3-vectors, got {vec}")
        if not (self.delta_g > 0 and np.isfinite(self.delta_g)):
            raise DomainError(f"delta_g must be positive, got {self.delta_g}")
        if self.spin_flip_strength < 0:
            raise DomainError("spin_flip_strength must be non-negative")
        if self.spin_flip_strength > 0 and self.sum_g is None:
            raise DomainError("spin-flip lines require sum_g")

    @property
    def total_field(self) -> float:
        ax, ay, az = self.b_applied
        ox, oy, oz = self.b_offset
        return math.sqrt((ax + ox) ** 2 + (ay + oy) ** 2 + (az + oz) ** 2)


# the ensemble table: one record per ion, with IonRecord's field names
ION_DTYPE = np.dtype([("position", float, (3,)), ("f0", float), ("g", float),
                      ("purcell", float)])


def sample_ensemble(cfg: EnsembleConfig, cavity: CavityParams,
                    emitter: EmitterConstants, rng: np.random.Generator,
                    envelope: TransverseEnvelope | None = None) -> np.recarray:
    """Draw one random ensemble as a record array of ION_DTYPE.

    Ion count is Poisson with mean density*site1_fraction*volume; positions
    are uniform in the region; frequencies are normal around f_center with
    the inhomogeneous sigma.  Each ion's coupling combines the exponential
    depth law with the transverse envelope, and its Purcell factor follows
    from the owning cavity.
    """
    if envelope is None:
        envelope = TransverseEnvelope()
    mean = cfg.mean_count
    # refuse only a mean no draw fits under (the draw fails past ~9.2e18)
    if not mean - 40.0 * math.sqrt(mean) <= cfg.max_count:
        raise CapacityError(f"expected {mean:.3g} ions, far beyond "
                            f"max_count={cfg.max_count}")
    n = int(rng.poisson(mean))
    if n > cfg.max_count:
        raise CapacityError(
            f"sampled {n} ions, exceeding max_count={cfg.max_count}")
    lx, ly, lz = cfg.region
    x = rng.uniform(-lx / 2.0, lx / 2.0, size=n)
    y = rng.uniform(-ly / 2.0, ly / 2.0, size=n)
    z = rng.uniform(0.0, lz, size=n)
    f0 = rng.normal(cfg.f_center, cfg.sigma_inh, size=n)
    if np.any(f0 <= 0):
        raise DomainError("sampled a non-positive f0: sigma_inh is too wide "
                          "for f_center")
    g = coupling_at_depth(cavity.g_if, z, cavity.z_half) * envelope.amplitude(x, y)
    ions = np.recarray(n, dtype=ION_DTYPE)
    ions.position, ions.f0, ions.g = np.column_stack((x, y, z)), f0, g
    ions.purcell = 4.0 * g * g / (cavity.kappa * emitter.gamma0)
    return ions


MAX_QUADRATURE_CELLS = 100_000_000  # ~8x the default region's grid
DEPTH_STEP = 1e-9        # m, quadrature step in z
TRANSVERSE_STEP = 5e-9   # m, quadrature step in x and y
# (fraction, depth) thresholds compared per block by ions_above_purcell:
# ~8 MB for each temporary array
_THRESHOLD_BLOCK = 1_000_000


def ions_above_purcell(cfg: EnsembleConfig, cavity: CavityParams,
                       p_star_fraction,
                       envelope: TransverseEnvelope | None = None):
    """Expected number of ions with P >= p_star_fraction * P_max.

    P(r)/P_max = 2^(-z/z_half) * envelope(x, y)^2, so the count is the
    site-1 density times the volume where that product clears the fraction,
    integrated on a midpoint grid (DEPTH_STEP in z, TRANSVERSE_STEP in x/y).
    p_star_fraction is one fraction or an array of them; the result is a
    float or an array of the same shape.
    """
    fractions = np.asarray(p_star_fraction, dtype=float)
    bad = ~((fractions > 0.0) & (fractions <= 1.0))
    if np.any(bad):
        raise DomainError("p_star_fraction must lie in (0, 1], got "
                          f"{fractions[bad][0]}")
    if envelope is None:
        envelope = TransverseEnvelope()
    lx, ly, lz = cfg.region
    # at least 2 cells an axis; rint rounds half to even, as round() does
    cells = np.maximum(2.0, np.rint(np.divide(
        cfg.region, (TRANSVERSE_STEP, TRANSVERSE_STEP, DEPTH_STEP))))
    if not np.prod(cells) <= MAX_QUADRATURE_CELLS:
        raise DomainError(f"region {cfg.region} needs {np.prod(cells):.3g} "
                          f"quadrature cells, more than {MAX_QUADRATURE_CELLS:,}")
    nx, ny, nz = (int(n) for n in cells)
    x = (np.arange(nx) + 0.5) * lx / nx - lx / 2.0
    y = (np.arange(ny) + 0.5) * ly / ny - ly / 2.0
    z = (np.arange(nz) + 0.5) * lz / nz
    t_sq = np.sort(envelope.amplitude(x[:, None], y[None, :]) ** 2, axis=None)
    cell_area = (lx / nx) * (ly / ny)
    # past ~1024 z_half the factor is inf: no cell reaches that threshold
    with np.errstate(over="ignore"):
        depth_factor = np.exp2(z / cavity.z_half)
    flat = fractions.ravel()
    volume = np.empty(flat.size)
    rows = max(1, _THRESHOLD_BLOCK // nz)
    for start in range(0, flat.size, rows):
        # per-depth threshold on the transverse intensity; the cells at or
        # above it are the sorted tail
        thresholds = flat[start:start + rows, None] * depth_factor
        area = (t_sq.size - np.searchsorted(t_sq, thresholds)) * cell_area
        volume[start:start + rows] = np.sum(area, axis=-1) * (lz / nz)
    count = cfg.density * cfg.site1_fraction * volume.reshape(fractions.shape)
    return float(count) if count.ndim == 0 else count


def zeeman_splitting(zcfg: ZeemanConfig) -> float:
    """Spin-conserving line separation delta_g * mu_B * |B| / h, in Hz."""
    return zcfg.delta_g * MU_BOHR * zcfg.total_field / H_PLANCK


def zeeman_frequencies(f0, zcfg: ZeemanConfig):
    """The two spin-conserving line frequencies (lower, upper), Hz."""
    if not np.all((f0 > 0) & np.isfinite(f0)):
        raise DomainError("f0 must be positive and finite")
    half = zeeman_splitting(zcfg) / 2.0
    return (f0 - half, f0 + half)


def zeeman_lines(f0, zcfg: ZeemanConfig) -> list[tuple]:
    """All optical lines as (frequency, weight); weights sum to 1.  f0 may
    be an array of line centres, as in zeeman_frequencies.

    Spin-conserving lines carry weight 1 each and spin-flip lines carry
    spin_flip_strength, before normalisation.
    """
    lo, hi = zeeman_frequencies(f0, zcfg)
    r = zcfg.spin_flip_strength
    norm = 2.0 * (1.0 + r)
    lines = [(lo, 1.0 / norm), (hi, 1.0 / norm)]
    if r > 0:
        half_flip = zcfg.sum_g * MU_BOHR * zcfg.total_field / H_PLANCK / 2.0
        lines += [(f0 - half_flip, r / norm), (f0 + half_flip, r / norm)]
    return lines
