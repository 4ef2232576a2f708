"""Model fitting and spectrum reduction.

A small Levenberg-Marquardt engine drives a fixed set of models with
analytic Jacobians.  On top of it sit the spectrum tools: a greedy
matched-filter peak counter for dense scans and a density-envelope fit
that extrapolates through masked windows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, FitError

_REL_TOL = 1e-8
_MAX_REJECTS = 50
_MAX_ITER = 200
PEAK_THRESHOLD = 3.0  # count_peaks keeps amplitudes above this many sigma
_MAX_PEAKS = 100_000


@dataclass
class FitResult:
    """Outcome of one weighted least-squares fit."""

    model: str
    params: dict[str, float]
    stderr: dict[str, float]
    residual_norm: float          # sqrt of the weighted residual sum
    converged: bool
    n_iter: int
    history: list[float] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "model": self.model,
            "params": self.params,
            "stderr": self.stderr,
            "residual_norm": self.residual_norm,
            "converged": self.converged,
            "n_iter": self.n_iter,
        }


class ExponentialModel:
    """amplitude * exp(-x / tau) + offset"""

    name = "exponential"
    param_names = ("amplitude", "tau", "offset")

    def __call__(self, x, p):
        a, tau, c = p
        return a * np.exp(-x / tau) + c

    def jacobian(self, x, p):
        a, tau, _ = p
        e = np.exp(-x / tau)
        return np.stack([e, a * x * e / tau**2, np.ones_like(x)], axis=1)

    def initial_guess(self, x, y):
        tail = max(1, len(y) // 10)
        c0 = float(np.mean(y[-tail:]))
        a0 = float(y[0] - c0)
        if a0 == 0.0:
            a0 = float(np.max(y) - c0) or 1.0
        span = float(x[-1] - x[0]) or 1.0
        lifted = (y - c0) / a0
        usable = lifted > 0.05
        if np.count_nonzero(usable) >= 2:
            slope = np.polyfit(x[usable], np.log(lifted[usable]), 1)[0]
            tau0 = -1.0 / slope if slope < 0 else span / 3.0
        else:
            tau0 = span / 3.0
        return np.array([a0, tau0, c0])

    def canonical(self, p):
        return p


class LorentzianModel:
    """amplitude / (1 + (2 (x - center) / width)^2) + offset"""

    name = "lorentzian"
    param_names = ("amplitude", "center", "width", "offset")

    def __call__(self, x, p):
        a, x0, w, c = p
        u = 2.0 * (x - x0) / w
        return a / (1.0 + u * u) + c

    def jacobian(self, x, p):
        a, x0, w, _ = p
        u = 2.0 * (x - x0) / w
        den = (1.0 + u * u) ** 2
        return np.stack([
            1.0 / (1.0 + u * u),
            4.0 * a * u / (w * den),
            2.0 * a * u * u / (w * den),
            np.ones_like(x),
        ], axis=1)

    def initial_guess(self, x, y):
        return _peak_guess(x, y, sigma=False)

    def canonical(self, p):
        p = p.copy()
        p[2] = abs(p[2])
        return p


class GaussianModel:
    """amplitude * exp(-(x - center)^2 / (2 sigma^2)) + offset"""

    name = "gaussian"
    param_names = ("amplitude", "center", "sigma", "offset")

    def __call__(self, x, p):
        a, x0, s, c = p
        return a * np.exp(-((x - x0) ** 2) / (2.0 * s * s)) + c

    def jacobian(self, x, p):
        a, x0, s, _ = p
        d = x - x0
        e = np.exp(-(d * d) / (2.0 * s * s))
        return np.stack([e, a * e * d / s**2, a * e * d * d / s**3,
                         np.ones_like(x)], axis=1)

    def initial_guess(self, x, y):
        return _peak_guess(x, y, sigma=True)

    def canonical(self, p):
        p = p.copy()
        p[2] = abs(p[2])
        return p


class LinearModel:
    """slope * x + intercept"""

    name = "linear"
    param_names = ("slope", "intercept")

    def __call__(self, x, p):
        return p[0] * x + p[1]

    def jacobian(self, x, p):
        return np.stack([x, np.ones_like(x)], axis=1)

    def initial_guess(self, x, y):
        return np.asarray(np.polyfit(x, y, 1), dtype=float)

    def canonical(self, p):
        return p


class BunchingModel:
    """1 + amplitude * exp(-x / switch_time); the uncorrelated level is pinned."""

    name = "bunching"
    param_names = ("amplitude", "switch_time")

    def __call__(self, x, p):
        a, tau = p
        return 1.0 + a * np.exp(-x / tau)

    def jacobian(self, x, p):
        a, tau = p
        e = np.exp(-x / tau)
        return np.stack([e, a * x * e / tau**2], axis=1)

    def initial_guess(self, x, y):
        a0 = float(y[0] - 1.0)
        if a0 <= 0:
            a0 = max(float(np.max(y) - 1.0), 0.1)
        drop = y - 1.0 < a0 / math.e
        tau0 = float(x[np.argmax(drop)]) if np.any(drop) else float(x[-1]) / 3.0
        return np.array([a0, tau0 if tau0 > 0 else float(x[-1]) / 3.0])

    def canonical(self, p):
        return p


def _peak_guess(x, y, sigma):
    c0 = float(np.percentile(y, 10))
    i_pk = int(np.argmax(y))
    a0 = float(y[i_pk] - c0)
    if a0 <= 0:
        a0 = float(np.max(y) - np.min(y)) or 1.0
    above = y >= c0 + a0 / 2.0
    if np.count_nonzero(above) >= 2:
        w0 = float(np.ptp(x[above]))
    else:
        w0 = float(np.ptp(x)) / 10.0
    w0 = w0 or float(np.ptp(x)) / 10.0
    if sigma:
        return np.array([a0, float(x[i_pk]), w0 / 2.3548, c0])
    return np.array([a0, float(x[i_pk]), w0, c0])


EXPONENTIAL = ExponentialModel()
LORENTZIAN = LorentzianModel()
GAUSSIAN = GaussianModel()
LINEAR = LinearModel()
BUNCHING = BunchingModel()

MODELS = {m.name: m for m in (EXPONENTIAL, LORENTZIAN, GAUSSIAN, LINEAR,
                              BUNCHING)}


def fit_model(model, x, y, weights=None) -> FitResult:
    """Damped least squares with analytic Jacobians.

    weights multiply squared residuals; the default 1/max(|y|, 1) treats y
    as counts.  Convergence is declared when the accepted step changes every
    parameter by less than 1e-8 relative.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise FitError("x and y must be 1-d arrays of the same length")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise FitError("fit input contains non-finite values")
    n_par = len(model.param_names)
    if len(x) <= n_par:
        raise FitError(f"need more than {n_par} points to fit {model.name}")
    if weights is None:
        w = 1.0 / np.maximum(np.abs(y), 1.0)
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != y.shape or np.any(w <= 0) or not np.all(np.isfinite(w)):
            raise FitError("weights must be positive, finite, and match y")

    p = np.asarray(model.initial_guess(x, y), dtype=float)
    chi2 = _chi2(model, x, y, w, p)
    if not np.isfinite(chi2):
        raise FitError("initial parameters give a non-finite residual")
    history = [chi2]
    lam = 1e-3
    converged = False
    n_iter = 0
    for n_iter in range(1, _MAX_ITER + 1):
        # wild trial parameters may overflow inside the model; the step
        # acceptance test below already discards any non-finite outcome
        with np.errstate(all="ignore"):
            jac = model.jacobian(x, p)
            jw = jac * w[:, None]
            hess = jac.T @ jw
            grad = jw.T @ (y - model(x, p))
        accepted = False
        for _ in range(_MAX_REJECTS):
            damped = hess + lam * np.diag(np.maximum(np.diag(hess), 1e-300))
            try:
                step = np.linalg.solve(damped, grad)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            p_try = p + step
            chi2_try = _chi2(model, x, y, w, p_try)
            if np.isfinite(chi2_try) and chi2_try <= chi2:
                accepted = True
                break
            lam *= 10.0
        if not accepted:
            break
        rel = np.max(np.abs(step) / np.maximum(np.abs(p_try), 1e-300))
        # parameters sitting at zero: judge the step in residual units instead
        scale = np.sqrt(np.maximum(np.diag(hess), 1e-300))
        scaled_step = np.linalg.norm(scale * step)
        scaled_p = np.linalg.norm(scale * p_try)
        p, chi2 = p_try, chi2_try
        history.append(chi2)
        lam = max(lam / 10.0, 1e-12)
        if rel < _REL_TOL or scaled_step <= _REL_TOL * (_REL_TOL + scaled_p):
            converged = True
            break

    p = model.canonical(p)
    stderr = _param_errors(model, x, y, w, p, chi2)
    return FitResult(
        model=model.name,
        params=dict(zip(model.param_names, (float(v) for v in p))),
        stderr=dict(zip(model.param_names, stderr)),
        residual_norm=math.sqrt(chi2),
        converged=converged,
        n_iter=n_iter,
        history=history,
    )


def _chi2(model, x, y, w, p):
    with np.errstate(all="ignore"):
        r = y - model(x, p)
        val = float(np.sum(w * r * r))
    return val


def _param_errors(model, x, y, w, p, chi2):
    dof = len(x) - len(p)
    with np.errstate(all="ignore"):
        jac = model.jacobian(x, p)
        hess = jac.T @ (jac * w[:, None])
    try:
        cov = np.linalg.inv(hess) * (chi2 / dof)
        diag = np.diag(cov)
        return [math.sqrt(v) if v >= 0 else math.nan for v in diag]
    except np.linalg.LinAlgError:
        return [math.nan] * len(p)


@dataclass
class PeakList:
    """Peaks pulled out of a scan, in extraction order, plus the residual."""

    centers: np.ndarray
    amplitudes: np.ndarray
    residual: np.ndarray

    @property
    def count(self) -> int:
        return len(self.centers)


def count_peaks(x, y, width, noise_sigma) -> PeakList:
    """Greedy matched-filter extraction of same-width peaks.

    Repeatedly take the highest residual point, fit a unit Lorentzian of the
    given width there by linear least squares, and subtract it; stop once
    the fitted amplitude drops below PEAK_THRESHOLD * noise_sigma.  Peaks
    closer than width/2 to an already-extracted one are not double counted:
    they are unresolved by construction.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise DomainError("x and y must be 1-d arrays of the same length")
    for name, value in (("width", width), ("noise_sigma", noise_sigma)):
        if not (value > 0 and math.isfinite(value)):
            raise DomainError(f"{name} must be positive and finite, "
                              f"got {value}")
    available = np.ones(len(x), dtype=bool)
    residual = y.astype(float).copy()
    floor = PEAK_THRESHOLD * noise_sigma
    centers: list[float] = []
    amplitudes: list[float] = []
    neg_inf = -np.inf
    while len(centers) < _MAX_PEAKS:
        if not np.any(available):
            break
        search = np.where(available, residual, neg_inf)
        i = int(np.argmax(search))
        if residual[i] < floor:
            break
        u = 2.0 * (x - x[i]) / width
        line = 1.0 / (1.0 + u * u)
        a_hat = float(np.dot(line, residual) / np.dot(line, line))
        if a_hat < floor:
            break
        residual -= a_hat * line
        centers.append(float(x[i]))
        amplitudes.append(a_hat)
        available &= np.abs(x - x[i]) >= width / 2.0
    else:
        raise FitError(f"peak extraction exceeded {_MAX_PEAKS} components")
    order = np.argsort(centers)
    return PeakList(np.asarray(centers)[order], np.asarray(amplitudes)[order],
                    residual)


@dataclass
class DensityEstimate:
    """Peak-density envelope with the masked-window extrapolation."""

    total: float            # detected peaks plus the estimated hidden ones
    detected: int
    hidden: float
    fit: FitResult
    bin_mids: np.ndarray
    bin_counts: np.ndarray
    bin_valid: np.ndarray


def fit_peak_density(peaks: PeakList, *, n_bins=40, mask_ranges=(),
                     x_range=None) -> DensityEstimate:
    """Fit a Gaussian envelope to the center histogram.

    Bins overlapping a masked interval are excluded from the fit; the model
    value there, minus the fitted offset, estimates how many peaks the mask
    hid from the counter.
    """
    if peaks.count < 8:
        raise FitError("too few peaks for a density estimate")
    counts, edges = np.histogram(peaks.centers, bins=n_bins, range=x_range)
    mids = 0.5 * (edges[:-1] + edges[1:])
    valid = np.ones(n_bins, dtype=bool)
    for lo, hi in mask_ranges:
        valid &= (edges[1:] <= lo) | (edges[:-1] >= hi)
    if np.count_nonzero(valid) <= 5:
        raise FitError("mask leaves too few histogram bins")
    fit = fit_model(GAUSSIAN, mids[valid], counts[valid].astype(float))
    model_counts = GAUSSIAN(mids, np.array([fit.params["amplitude"],
                                            fit.params["center"],
                                            fit.params["sigma"],
                                            fit.params["offset"]]))
    hidden = float(np.sum(np.maximum(model_counts[~valid]
                                     - fit.params["offset"], 0.0)))
    return DensityEstimate(
        total=peaks.count + hidden,
        detected=peaks.count,
        hidden=hidden,
        fit=fit,
        bin_mids=mids,
        bin_counts=counts,
        bin_valid=valid,
    )
