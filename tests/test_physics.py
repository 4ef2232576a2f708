"""Closed-form relations: frozen expected values and algebraic invariants."""

import math

import numpy as np
import pytest

from cavityspec.constants import C_LIGHT, EPSILON_0, HBAR, TWO_PI
from cavityspec.errors import DomainError
from cavityspec.physics import (
    CavityParams,
    EfficiencyChain,
    EmitterConstants,
    TransverseEnvelope,
    coupling_at_depth,
    dipole_from_lifetime,
    efficiency_total,
    enhanced_lifetime,
    eta_cav_from_contrast,
    purcell_factor,
)

RNG = np.random.default_rng(20260819)

KAPPA = TWO_PI * 3.85e9
GAMMA0 = TWO_PI * 14.0


def test_purcell_factor_reference_points():
    # 4 g^2/(kappa gamma0); the 2*pi factors cancel against one another
    assert purcell_factor(TWO_PI * 2.08e6, KAPPA, GAMMA0) == pytest.approx(321.068645640, rel=1e-9)
    assert purcell_factor(TWO_PI * 2.62e6, KAPPA, GAMMA0) == pytest.approx(509.417439703, rel=1e-9)


def test_purcell_factor_scaling_homogeneity():
    # P(s*g) = s^2 P and P(g, s*kappa) = P/s over random positive draws
    for _ in range(200):
        g, k, g0, s = RNG.uniform(0.1, 10.0, size=4)
        p = purcell_factor(g, k, g0)
        assert purcell_factor(s * g, k, g0) == pytest.approx(s * s * p, rel=1e-12)
        assert purcell_factor(g, s * k, g0) == pytest.approx(p / s, rel=1e-12)
        assert purcell_factor(g, k, s * g0) == pytest.approx(p / s, rel=1e-12)


def test_purcell_factor_rejects_bad_inputs():
    with pytest.raises(DomainError):
        purcell_factor(-1.0, KAPPA, GAMMA0)
    with pytest.raises(DomainError):
        purcell_factor(1.0, 0.0, GAMMA0)
    with pytest.raises(DomainError):
        purcell_factor(float("nan"), KAPPA, GAMMA0)


def test_enhanced_lifetime_reference_points():
    # tau0/(P+1) with tau0 = 11.4 ms
    assert enhanced_lifetime(252.0, 11.4e-3) == pytest.approx(4.505928853755e-05, rel=1e-9)
    assert enhanced_lifetime(320.0, 11.4e-3) == pytest.approx(3.551401869159e-05, rel=1e-9)
    assert enhanced_lifetime(0.0, 11.4e-3) == pytest.approx(11.4e-3, rel=1e-12)


def test_coupling_at_depth_halving_law():
    g_if = TWO_PI * 2.62e6
    # amplitude falls by sqrt(2) per half-depth; intensity by 2
    assert coupling_at_depth(g_if, 45e-9, 45e-9) == pytest.approx(g_if / math.sqrt(2), rel=1e-12)
    assert coupling_at_depth(g_if, 90e-9, 45e-9) == pytest.approx(g_if / 2.0, rel=1e-12)
    assert coupling_at_depth(TWO_PI * 2.62e6, 45e-9, 45e-9) == pytest.approx(
        TWO_PI * 1.852619766709e6, rel=1e-9)
    z = RNG.uniform(0.0, 500e-9, size=50)
    ratio = (coupling_at_depth(g_if, z, 45e-9) / g_if) ** 2
    assert ratio == pytest.approx(np.exp2(-z / 45e-9), rel=1e-12)


def test_coupling_at_depth_monotone_decreasing():
    z = np.linspace(0.0, 300e-9, 64)
    g = coupling_at_depth(1.0, z, 45e-9)
    assert np.all(np.diff(g) < 0)


def test_dipole_from_lifetime_reference_value():
    d = dipole_from_lifetime(GAMMA0, 0.21, 1.80, TWO_PI * 195e12)
    assert d == pytest.approx(2.7991103732e-32, rel=1e-9)
    assert abs(d - 2.80e-32) / 2.80e-32 < 0.01
    # a nearby literature number must NOT come out of this formula
    assert abs(d - 2.07e-32) / 2.07e-32 > 0.10


def _emission_rate_from_dipole(d, beta, n_host, omega):
    """Bulk decay rate of a dipole d in a host of index n_host, with the
    local-field correction: the relation dipole_from_lifetime inverts."""
    lfc = 3.0 * n_host**2 / (2.0 * n_host**2 + 1.0)
    return (lfc**2 * n_host * d**2 * omega**3 /
            (3.0 * math.pi * EPSILON_0 * HBAR * C_LIGHT**3)) / beta


def test_dipole_round_trip():
    for _ in range(50):
        gamma0 = RNG.uniform(1.0, 1e4)
        beta = RNG.uniform(0.05, 1.0)
        n = RNG.uniform(1.1, 3.5)
        omega = RNG.uniform(0.5, 3.0) * TWO_PI * 195e12
        d = dipole_from_lifetime(gamma0, beta, n, omega)
        assert _emission_rate_from_dipole(d, beta, n, omega) == pytest.approx(gamma0, rel=1e-12)


def test_eta_cav_contrast_round_trip():
    # the single-sided cavity's reflectance on resonance, |1 - 2 eta|^2, is
    # the contrast; inverting it recovers eta on both branches
    for eta in RNG.uniform(0.0, 0.5, size=40):
        c = (1.0 - 2.0 * eta) ** 2
        assert eta_cav_from_contrast(c, undercoupled=True) == pytest.approx(eta, abs=1e-12)
    for eta in RNG.uniform(0.5, 1.0, size=40):
        c = (1.0 - 2.0 * eta) ** 2
        assert eta_cav_from_contrast(c, undercoupled=False) == pytest.approx(eta, abs=1e-12)


def test_eta_cav_from_contrast_reference_point():
    assert eta_cav_from_contrast(0.46, undercoupled=True) == pytest.approx(0.160883500844, rel=1e-9)
    with pytest.raises(DomainError):
        eta_cav_from_contrast(1.5)
    with pytest.raises(DomainError):
        eta_cav_from_contrast(-0.1)


def test_efficiency_chain_reference_product():
    chain = EfficiencyChain(eta_cav=0.16, eta_wg=0.46, eta_fib=0.8, eta_det=0.67)
    assert efficiency_total(chain) == pytest.approx(0.0394496, rel=1e-12)
    assert efficiency_total(chain) <= min(chain.eta_cav, chain.eta_wg, chain.eta_fib, chain.eta_det)
    with pytest.raises(DomainError):
        EfficiencyChain(1.2, 0.5, 0.5, 0.5)


def test_cavity_params_quality_factor():
    cav = CavityParams.default()
    assert purcell_factor(cav.g_if, cav.kappa, EmitterConstants.default().gamma0) == pytest.approx(
        509.417439703, rel=1e-9)
    with pytest.raises(DomainError):
        CavityParams(f_cav=195e12, kappa=-1.0, eta_cav=0.16, g_if=1.0, z_half=45e-9)


@pytest.mark.parametrize("gamma_d", [-1.0, math.inf, math.nan])
def test_emitter_rejects_bad_dephasing(gamma_d):
    with pytest.raises(DomainError, match="gamma_d"):
        EmitterConstants(gamma0=GAMMA0, omega=TWO_PI * 195e12, gamma_d=gamma_d)


def test_transverse_envelope():
    env = TransverseEnvelope()
    assert env.amplitude(0.0, 0.0) == 1.0
    # 1/e^2 intensity radius: amplitude^2 at (waist_x, 0) is e^-2
    assert env.amplitude(env.waist_x, 0.0) ** 2 == pytest.approx(math.exp(-2.0), rel=1e-12)
    x = RNG.uniform(-2e-6, 2e-6, size=30)
    y = RNG.uniform(-1e-6, 1e-6, size=30)
    a = env.amplitude(x, y)
    assert np.all(a > 0) and np.all(a <= 1.0)
