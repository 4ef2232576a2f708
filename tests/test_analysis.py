"""Fit engine, model Jacobians, and peak extraction."""

import numpy as np
import pytest

from cavityspec.analysis import (
    BUNCHING,
    EXPONENTIAL,
    GAUSSIAN,
    LINEAR,
    LORENTZIAN,
    MODELS,
    PeakList,
    count_peaks,
    fit_model,
    fit_peak_density,
)
from cavityspec.errors import DomainError, FitError


def _fd_jacobian(model, x, p):
    out = np.empty((len(x), len(p)))
    for j in range(len(p)):
        h = 1e-6 * max(abs(p[j]), 1e-6)
        hi, lo = p.copy(), p.copy()
        hi[j] += h
        lo[j] -= h
        out[:, j] = (model(x, hi) - model(x, lo)) / (2 * h)
    return out


@pytest.mark.parametrize("model,x,p", [
    (EXPONENTIAL, np.linspace(0.0, 5.0, 40), np.array([3.2, 1.7, 0.4])),
    (LORENTZIAN, np.linspace(-10.0, 10.0, 81), np.array([5.0, 1.2, 2.5, 0.3])),
    (GAUSSIAN, np.linspace(-10.0, 10.0, 81), np.array([4.0, -0.7, 1.8, 0.2])),
    (LINEAR, np.linspace(-3.0, 3.0, 21), np.array([2.0, -1.0])),
    (BUNCHING, np.linspace(1e-4, 1e-3, 10), np.array([2.3, 5e-4])),
], ids=lambda v: getattr(v, "name", ""))
def test_jacobians_match_finite_differences(model, x, p):
    analytic = model.jacobian(x, p)
    numeric = _fd_jacobian(model, x, p)
    scale = 1.0 + np.max(np.abs(analytic))
    assert np.max(np.abs(analytic - numeric)) / scale < 1e-5


def test_exponential_fit_recovers_exact_parameters():
    x = np.linspace(0.0, 200e-6, 60)
    true = np.array([120.0, 45e-6, 3.0])
    y = EXPONENTIAL(x, true)
    result = fit_model(EXPONENTIAL, x, y)
    assert result.converged
    for name, value in zip(EXPONENTIAL.param_names, true):
        assert result.params[name] == pytest.approx(value, rel=1e-6)
    assert result.residual_norm < 1e-6


def test_exponential_fit_with_noise_stays_within_errors():
    rng = np.random.default_rng(20260819)
    x = np.linspace(0.0, 250e-6, 120)
    true = np.array([200.0, 45e-6, 5.0])
    y = EXPONENTIAL(x, true) + rng.normal(0.0, 2.0, len(x))
    result = fit_model(EXPONENTIAL, x, y)
    assert result.converged
    for name, value in zip(EXPONENTIAL.param_names, true):
        assert abs(result.params[name] - value) < 5 * result.stderr[name]
    assert np.all(np.diff(result.history) <= 1e-12)


def test_lorentzian_fit_recovers_exact_parameters():
    x = np.linspace(-30e6, 30e6, 201)
    true = np.array([0.02, 1.2e6, 6.2e6, 0.001])
    y = LORENTZIAN(x, true)
    result = fit_model(LORENTZIAN, x, y)
    assert result.converged
    for name, value in zip(LORENTZIAN.param_names, true):
        assert result.params[name] == pytest.approx(value, rel=1e-6)
    assert result.params["width"] > 0


def test_gaussian_fit_with_noise():
    rng = np.random.default_rng(7)
    x = np.linspace(-12.0, 12.0, 161)
    true = np.array([55.0, 0.8, 2.9, 2.0])
    y = GAUSSIAN(x, true) + rng.normal(0.0, 1.5, len(x))
    result = fit_model(GAUSSIAN, x, y)
    assert result.converged
    assert result.params["sigma"] == pytest.approx(2.9, rel=0.1)
    assert result.params["center"] == pytest.approx(0.8, abs=0.3)


def test_linear_fit_is_exact():
    x = np.linspace(0.0, 9.0, 10)
    y = LINEAR(x, np.array([21.7, -3.0]))
    result = fit_model(LINEAR, x, y)
    assert result.params["slope"] == pytest.approx(21.7, rel=1e-10)
    assert result.params["intercept"] == pytest.approx(-3.0, rel=1e-9)


def test_fit_validation_and_registry():
    assert set(MODELS) == {"exponential", "lorentzian", "gaussian", "linear",
                           "bunching"}
    x = np.linspace(0.0, 1.0, 3)
    with pytest.raises(FitError):
        fit_model(LORENTZIAN, x, x)  # fewer points than parameters
    with pytest.raises(FitError):
        fit_model(LINEAR, x, np.array([1.0, np.nan, 2.0]))
    with pytest.raises(FitError):
        fit_model(LINEAR, np.linspace(0, 1, 5), np.linspace(0, 1, 5),
                  weights=np.zeros(5))
    result = fit_model(LINEAR, np.linspace(0, 1, 5), np.linspace(0, 1, 5),
                       weights=np.full(5, 2.0))
    assert result.converged
    assert result.to_json()["model"] == "linear"


def test_count_peaks_on_flat_noise_finds_nothing():
    rng = np.random.default_rng(3)
    x = np.arange(0.0, 50.0, 0.02)
    y = rng.normal(0.0, 0.1, len(x))
    peaks = count_peaks(x, y, width=0.3, noise_sigma=0.1)
    assert peaks.count == 0
    with pytest.raises(DomainError):
        count_peaks(x, y, width=-1.0, noise_sigma=0.1)


def test_count_peaks_recovers_separated_lines():
    rng = np.random.default_rng(20260819)
    x = np.arange(0.0, 100.0 + 1e-9, 0.02)
    # jittered regular layout keeps every pair at least 1.5 apart
    centers = np.linspace(3.0, 97.0, 50) + rng.uniform(-0.2, 0.2, 50)
    amps = rng.uniform(5.0, 10.0, 50)
    width = 0.3
    y = np.zeros_like(x)
    for c, a in zip(centers, amps):
        y += a / (1.0 + (2.0 * (x - c) / width) ** 2)
    y += rng.normal(0.0, 0.1, len(x))

    peaks = count_peaks(x, y, width=width, noise_sigma=0.1)
    assert peaks.count == 50
    for c in centers:
        assert np.min(np.abs(peaks.centers - c)) < width / 5.0
    # amplitudes come back in the right range
    assert peaks.amplitudes.min() > 4.0
    assert peaks.amplitudes.max() < 11.0
    # a second pass over the residual finds nothing new
    again = count_peaks(x, peaks.residual, width=width, noise_sigma=0.1)
    assert again.count == 0


def test_density_envelope_recovers_hidden_peaks():
    rng = np.random.default_rng(11)
    all_centers = rng.normal(0.0, 2.9, 600)
    visible = all_centers[np.abs(all_centers) >= 1.0]
    peaks = PeakList(np.sort(visible), np.ones(len(visible)), np.zeros(1))
    est = fit_peak_density(peaks, n_bins=36, mask_ranges=((-1.0, 1.0),),
                           x_range=(-10.0, 10.0))
    assert est.detected == len(visible)
    assert est.hidden > 0
    assert est.total == pytest.approx(600, rel=0.15)
    assert abs(est.fit.params["sigma"]) == pytest.approx(2.9, rel=0.15)
    with pytest.raises(FitError):
        fit_peak_density(peaks, n_bins=8,
                         mask_ranges=((-10.0, 9.0),), x_range=(-10.0, 10.0))
