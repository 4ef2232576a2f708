"""Ensemble sampling, threshold-count quadrature, Zeeman lines."""

import math

import numpy as np
import pytest

from cavityspec import ensemble
from cavityspec.ensemble import (
    EnsembleConfig,
    IonRecord,
    ZeemanConfig,
    ions_above_purcell,
    sample_ensemble,
    zeeman_frequencies,
    zeeman_lines,
    zeeman_splitting,
)
from cavityspec.errors import CapacityError, DomainError
from cavityspec.physics import CavityParams, EmitterConstants, TransverseEnvelope

CAV = CavityParams.default()
EMIT = EmitterConstants.default()


def _ks_statistic(samples, cdf):
    x = np.sort(np.asarray(samples, dtype=float))
    n = len(x)
    f = np.asarray([cdf(v) for v in x])
    d_plus = np.max(np.arange(1, n + 1) / n - f)
    d_minus = np.max(f - np.arange(0, n) / n)
    return max(d_plus, d_minus)


def test_sampling_is_reproducible():
    cfg = EnsembleConfig(density=2e21, region=(1e-6, 1e-6, 0.2e-6))
    a = sample_ensemble(cfg, CAV, EMIT, np.random.default_rng(11))
    b = sample_ensemble(cfg, CAV, EMIT, np.random.default_rng(11))
    assert np.array_equal(a, b)
    c = sample_ensemble(cfg, CAV, EMIT, np.random.default_rng(12))
    assert not np.array_equal(a, c)


def test_sampled_records_satisfy_coupling_invariant():
    cfg = EnsembleConfig(density=5e21, region=(2e-6, 1e-6, 0.3e-6))
    ions = sample_ensemble(cfg, CAV, EMIT, np.random.default_rng(3))
    assert len(ions) > 100
    assert ions.dtype.names == ("position", "f0", "g", "purcell")
    for ion in ions:
        assert ion.position[2] >= 0.0
        assert 0.0 < ion.g <= CAV.g_if
        expected_p = 4.0 * ion.g**2 / (CAV.kappa * EMIT.gamma0)
        assert abs(ion.purcell - expected_p) <= 1e-9 * expected_p


def test_poisson_count_mean():
    # site1_fraction 1 so the mean is density * volume = 6000
    cfg = EnsembleConfig(density=3.0e22, site1_fraction=1.0,
                         region=(1e-6, 1e-6, 0.2e-6))
    assert cfg.mean_count == pytest.approx(6000.0, rel=1e-12)
    rng = np.random.default_rng(2026)
    n_seeds = 300
    counts = [len(sample_ensemble(cfg, CAV, EMIT, rng)) for _ in range(n_seeds)]
    se = math.sqrt(6000.0 / n_seeds)
    assert abs(np.mean(counts) - 6000.0) < 3.0 * se


def test_frequencies_are_normal_ks():
    cfg = EnsembleConfig(density=3.0e22, site1_fraction=1.0, sigma_inh=2.9e9,
                         region=(3.4e-6, 1e-6, 1e-6))  # mean ~ 1.02e5 ions
    ions = sample_ensemble(cfg, CAV, EMIT, np.random.default_rng(7))
    f = np.array([ion.f0 for ion in ions])
    n = len(f)
    assert n > 90_000

    def normal_cdf(v):
        return 0.5 * (1.0 + math.erf((v - cfg.f_center) / (cfg.sigma_inh * math.sqrt(2.0))))

    d = _ks_statistic(f, normal_cdf)
    assert d < 1.6276 / math.sqrt(n)  # 1% critical value


def test_positions_are_uniform_ks():
    cfg = EnsembleConfig(density=3.0e22, site1_fraction=1.0,
                         region=(2e-6, 1e-6, 0.5e-6))
    ions = sample_ensemble(cfg, CAV, EMIT, np.random.default_rng(17))
    z = np.array([ion.position[2] for ion in ions])
    lz = cfg.region[2]
    d = _ks_statistic(z, lambda v: min(max(v / lz, 0.0), 1.0))
    assert d < 1.6276 / math.sqrt(len(z))


def test_capacity_guard():
    cfg = EnsembleConfig(density=3.0e22, region=(1e-6, 1e-6, 0.2e-6), max_count=100)
    with pytest.raises(CapacityError):
        sample_ensemble(cfg, CAV, EMIT, np.random.default_rng(0))


def test_mean_separation_reference_points():
    # default doping: 3 ppm of host sites, half in site 1
    cfg = EnsembleConfig.from_ppm(3.0)
    site1_density = cfg.density * cfg.site1_fraction
    assert site1_density == pytest.approx(2.805e22, rel=1e-12)


def test_ions_above_purcell_against_monte_carlo():
    cfg = EnsembleConfig(density=1e22, site1_fraction=1.0,
                         region=(1.5e-6, 0.8e-6, 0.15e-6))
    env = TransverseEnvelope()
    fraction = 0.2
    expected = ions_above_purcell(cfg, CAV, fraction, envelope=env)
    p_max = 4.0 * CAV.g_if**2 / (CAV.kappa * EMIT.gamma0)
    rng = np.random.default_rng(41)
    n_seeds = 100
    counts = []
    for _ in range(n_seeds):
        ions = sample_ensemble(cfg, CAV, EMIT, rng, envelope=env)
        counts.append(sum(1 for ion in ions if ion.purcell >= fraction * p_max))
    mc_mean = np.mean(counts)
    se = math.sqrt(max(expected, 1.0) / n_seeds)
    assert abs(mc_mean - expected) < 3.0 * se


def _count_on_grid(monkeypatch, cfg, depth_step, transverse_step):
    monkeypatch.setattr(ensemble, "DEPTH_STEP", depth_step)
    monkeypatch.setattr(ensemble, "TRANSVERSE_STEP", transverse_step)
    return ions_above_purcell(cfg, CAV, 0.25)


def test_ions_above_purcell_grid_convergence(monkeypatch):
    cfg = EnsembleConfig(density=1e22, region=(1e-6, 0.6e-6, 0.12e-6))
    coarse = _count_on_grid(monkeypatch, cfg, 2e-9, 8e-9)
    fine = _count_on_grid(monkeypatch, cfg, 1e-9, 4e-9)
    assert abs(coarse - fine) / fine < 0.01


def test_ions_above_purcell_monotone_in_threshold():
    cfg = EnsembleConfig(density=1e22, region=(1e-6, 0.6e-6, 0.12e-6))
    fractions = (0.1, 0.2, 0.4, 0.8)
    for counts in ([ions_above_purcell(cfg, CAV, f) for f in fractions],
                   ions_above_purcell(cfg, CAV, np.array(fractions))):
        assert all(a > b for a, b in zip(counts, counts[1:]))
    with pytest.raises(DomainError):
        ions_above_purcell(cfg, CAV, 0.0)


def test_ions_above_purcell_array_matches_scalars(monkeypatch):
    cfg = EnsembleConfig(density=1e22, region=(1e-6, 0.6e-6, 0.12e-6))
    fractions = np.linspace(0.05, 1.0, 7)
    one = [ions_above_purcell(cfg, CAV, f) for f in fractions]
    assert all(isinstance(c, float) for c in one)
    assert np.array_equal(ions_above_purcell(cfg, CAV, fractions), one)
    # 120 depths: two fractions per block, so four blocks
    monkeypatch.setattr(ensemble, "_THRESHOLD_BLOCK", 250)
    assert np.array_equal(ions_above_purcell(cfg, CAV, fractions), one)
    counts = ions_above_purcell(cfg, CAV, fractions.reshape(1, 7))
    assert counts.shape == (1, 7) and np.array_equal(counts[0], one)
    for bad in (0.0, 1.5, np.nan):
        with pytest.raises(DomainError):
            ions_above_purcell(cfg, CAV, np.array([0.5, bad, 0.2]))


def test_zeeman_slope_and_offset():
    # delta_g mu_B / h = 21.694 GHz/T
    z1 = ZeemanConfig(b_applied=(0.0, 0.0, 1.0), b_offset=(0.0, 0.0, 0.0))
    assert zeeman_splitting(z1) == pytest.approx(21.694179654889e9, rel=1e-9)
    z_gauss = ZeemanConfig(b_applied=(0.0, 0.0, 0.0), b_offset=(1e-4, 0.0, 0.0))
    assert zeeman_splitting(z_gauss) == pytest.approx(2.169417965489e6, rel=1e-9)
    lo, hi = zeeman_frequencies(195e12, z1)
    assert hi - lo == pytest.approx(zeeman_splitting(z1), rel=1e-12)
    assert (hi + lo) / 2.0 == pytest.approx(195e12, rel=1e-15)


def test_zeeman_symmetry_and_triangle():
    rng = np.random.default_rng(5)
    for _ in range(50):
        a = tuple(rng.uniform(-0.1, 0.1, size=3))
        o = tuple(rng.uniform(-0.01, 0.01, size=3))
        plus = ZeemanConfig(b_applied=a, b_offset=o)
        minus = ZeemanConfig(b_applied=tuple(-c for c in a), b_offset=tuple(-c for c in o))
        assert zeeman_splitting(plus) == pytest.approx(zeeman_splitting(minus), rel=1e-12)
        # |a + o| <= |a| + |o|
        sep_a = zeeman_splitting(ZeemanConfig(b_applied=a, b_offset=(0, 0, 0)))
        sep_o = zeeman_splitting(ZeemanConfig(b_applied=(0, 0, 0), b_offset=o))
        assert zeeman_splitting(plus) <= sep_a + sep_o + 1e-6


def test_zeeman_offset_makes_splitting_nonlinear():
    offset = (1e-4, 0.0, 0.0)
    zero = zeeman_splitting(ZeemanConfig(b_applied=(0, 0, 0), b_offset=offset))
    slope = 21.694179654889e9
    for b in (0.5e-4, 1e-4, 2e-4):
        z = ZeemanConfig(b_applied=(0.0, 0.0, b), b_offset=offset)
        growth = zeeman_splitting(z) - zero
        assert growth < slope * b  # perpendicular offset slows the initial growth
    # collinear offset adds exactly
    z_col = ZeemanConfig(b_applied=(2e-4, 0.0, 0.0), b_offset=offset)
    assert zeeman_splitting(z_col) == pytest.approx(slope * 3e-4, rel=1e-9)


def test_zeeman_lines_weights():
    z = ZeemanConfig(b_applied=(0, 0, 0.01))
    lines = zeeman_lines(195e12, z)
    assert len(lines) == 2
    assert sum(w for _, w in lines) == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(DomainError):
        ZeemanConfig(spin_flip_strength=0.3)  # needs sum_g
    z4 = ZeemanConfig(b_applied=(0, 0, 0.01), spin_flip_strength=0.3, sum_g=10.0)
    lines4 = zeeman_lines(195e12, z4)
    assert len(lines4) == 4
    assert sum(w for _, w in lines4) == pytest.approx(1.0, rel=1e-12)


def test_ion_record_validation():
    with pytest.raises(DomainError):
        IonRecord(position=(0.0, 0.0, -1e-9), f0=195e12, g=1.0, purcell=1.0)
    with pytest.raises(DomainError):
        IonRecord(position=(0.0, 0.0, 1e-9), f0=-195e12, g=1.0, purcell=1.0)


def test_capacity_guard_refuses_a_mean_no_draw_fits_under():
    # a 1 m^3 region: the Poisson draw itself would fail, so the mean is
    # refused before drawing and the generator is left untouched
    cfg = EnsembleConfig.from_ppm(3.0, region=(1.0, 1.0, 1.0))
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(CapacityError, match="max_count"):
        sample_ensemble(cfg, CAV, EMIT, rng)
    assert rng.bit_generator.state == state
    # a mean less than 40 sigma above max_count is drawn as before
    near = EnsembleConfig(density=1300.0, site1_fraction=1.0,
                          region=(1.0, 1.0, 1.0), max_count=1000)
    with pytest.raises(CapacityError, match="sampled"):
        sample_ensemble(near, CAV, EMIT, np.random.default_rng(1))


def test_sampled_lines_are_positive():
    cfg = EnsembleConfig(density=3.0e21, region=(1e-6, 1e-6, 0.2e-6),
                         f_center=1e9, sigma_inh=1e9)
    with pytest.raises(DomainError, match="non-positive f0"):
        sample_ensemble(cfg, CAV, EMIT, np.random.default_rng(0))


def test_ions_above_purcell_bounds_its_grid():
    cfg = EnsembleConfig.from_ppm(3.0, region=(1e-3, 1e-3, 1e-3))
    with pytest.raises(DomainError, match="region .* quadrature cells"):
        ions_above_purcell(cfg, CAV, 0.5)
