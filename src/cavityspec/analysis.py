"""Model fitting and spectrum reduction.

A small Levenberg-Marquardt engine drives a fixed set of models with
analytic Jacobians (one evaluation a point a round), by weighted least
squares or, for counts, Poisson likelihood, over one fit or a stack of
independent fits at once, returned as arrays (FitStack).
On top of it sit the spectrum tools: a greedy matched-filter peak counter
for dense scans and a density-envelope fit that extrapolates through
masked windows.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DomainError, FitError

_REL_TOL = 1e-8
_MAX_REJECTS = 50
_MAX_ITER = 200
# A fit also converges on a step that lowers its objective by less than
# this many of its variance units (1 for a Poisson deviance, chi2 / dof for
# a weighted fit): Fisher scoring crawls by zero-count bins or the boundary
# mu > 0, Gauss-Newton on a large-residual fit, and a crawl of 1e-6 units
# moves no parameter by a statistically visible amount.
_DEV_TOL = 1e-6
PEAK_THRESHOLD = 3.0  # count_peaks keeps amplitudes above this many sigma
_MAX_PEAKS = 100_000


@dataclass
class FitResult:
    """Outcome of one fit."""

    model: str
    params: dict[str, float]
    stderr: dict[str, float]
    residual_norm: float  # sqrt of the weighted residual sum, or deviance
    converged: bool
    n_iter: int

    def to_json(self) -> dict:
        return asdict(self)


def _columns(p):
    """Parameters (..., k) as k columns (..., 1), which broadcast against x
    (..., n): one parameter vector on one row, or a stack on a stack."""
    p = np.asarray(p, dtype=float)
    return [p[..., j, None] for j in range(p.shape[-1])]


def _lines(x, y, keep):
    """Least-squares lines through the points keep marks in each row of x
    and y, shape (rows, n), y finite where keep is not: slopes and
    intercepts of shape (rows,), and the rows refused because their kept x
    squares sum to zero.

    Each row's x is divided by its largest kept |x| and then centred, so x
    near 1e+-300 neither overflows nor underflows; a row whose kept x have
    no spread gets slope 0.
    """
    ax = np.where(keep, np.abs(x), 0.0)
    refused = ~(ax * ax > 0).any(axis=-1)
    scale = ax.max(axis=-1)
    scale[scale == 0] = 1.0
    n = keep.sum(axis=-1)
    u = np.where(keep, x / scale[:, None], 0.0)
    u_mean = u.sum(axis=-1) / n
    y_mean = np.where(keep, y, 0.0).sum(axis=-1) / n
    d = np.where(keep, u - u_mean[:, None], 0.0)
    sdd = (d * d).sum(axis=-1)
    slope_u = (d * (y - y_mean[:, None])).sum(axis=-1) / sdd
    slope_u[sdd == 0] = 0.0
    return slope_u / scale, y_mean - slope_u * u_mean, refused


def _running_mean(y, k):
    """The mean of every k consecutive points along the last axis of y, as a
    difference of prefix sums from 0 over y scaled by 2**-m, 2**m > 2n, so
    no prefix sum overflows.  Where the k-point sums are exact (integers
    whose prefix sums stay below 2**53) it equals the k-point sum over k."""
    m = 1 + y.shape[-1].bit_length()
    prefix = np.cumsum(np.concatenate(
        [np.zeros(y.shape[:-1] + (1,)), y * 2.0**-m], axis=-1), axis=-1)
    return (prefix[..., k:] - prefix[..., :-k]) * 2.0**m / k


class _Model:
    """A fit model whose fitted parameters are reported as they are.

    evaluate(x, p) returns the model's values and its Jacobian, shape
    (..., n, k), from shared subexpressions.  initial_guess(x, y) starts
    every row of x and y, shape (rows, n), at once: it returns (rows, k)
    parameters and which rows it refuses, and each row's guess is the
    same, bit for bit, at any stack height.
    """

    def __call__(self, x, p):
        return self.evaluate(x, p)[0]

    def jacobian(self, x, p):
        return self.evaluate(x, p)[1]

    def canonical(self, p):
        return p


class ExponentialModel(_Model):
    """amplitude * exp(-x / tau) + offset"""

    name = "exponential"
    param_names = ("amplitude", "tau", "offset")

    def evaluate(self, x, p):
        a, tau, c = _columns(p)
        e = np.exp(-x / tau)
        return a * e + c, np.stack([e, a * x * e / (tau * tau),
                                    np.ones_like(x)], axis=-1)

    def initial_guess(self, x, y):
        tail = max(1, y.shape[-1] // 10)
        c0 = y[:, -tail:].mean(axis=-1)
        a0 = y[:, 0] - c0
        a0 = np.where(a0 == 0.0, y.max(axis=-1) - c0, a0)
        a0[a0 == 0.0] = 1.0
        span = x[:, -1] - x[:, 0]
        span[span == 0.0] = 1.0
        lifted = (y - c0[:, None]) / a0[:, None]
        usable = lifted > 0.05
        fit = usable.sum(axis=-1) >= 2
        slope, _, refused = _lines(x, np.log(np.where(usable, lifted, 1.0)),
                                   usable & fit[:, None])
        p = np.empty((len(y), 3))
        p[:, 0], p[:, 2] = a0, c0
        p[:, 1] = np.where(fit & (slope < 0), -1.0 / slope, span / 3.0)
        return p, fit & refused


class _PeakModel(_Model):
    """A peak over an offset, (amplitude, center, width, offset), whose
    width is reported positive."""

    sigma = False  # the width is a FWHM; a Gaussian's is its sigma

    def initial_guess(self, x, y):
        rows = np.arange(len(y))
        c0 = np.percentile(y, 10, axis=-1)
        k = max(1, y.shape[-1] // 50)  # smooth long rows: a spike wins no peak
        if k > 1:  # a centred running mean of k points; the edges read c0
            run = _running_mean(y, k)
            y = np.repeat(c0[:, None], y.shape[-1], axis=-1)
            y[:, (k - 1) // 2:][:, :run.shape[-1]] = run
        i_pk = y.argmax(axis=-1)
        y_pk = y[rows, i_pk]
        a0 = y_pk - c0
        spread = y_pk - y.min(axis=-1)
        spread[spread == 0.0] = 1.0
        a0 = np.where(a0 <= 0, spread, a0)
        above = y >= (c0 + a0 / 2.0)[:, None]
        w0 = (np.where(above, x, -np.inf).max(axis=-1)
              - np.where(above, x, np.inf).min(axis=-1))
        w0[above.sum(axis=-1) < 2] = 0.0
        w0 = np.where(w0 == 0.0, (x.max(axis=-1) - x.min(axis=-1)) / 10.0, w0)
        p = np.empty((len(y), 4))
        p[:, 0], p[:, 1], p[:, 3] = a0, x[rows, i_pk], c0
        p[:, 2] = w0 / 2.3548 if self.sigma else w0
        return p, np.zeros(len(y), dtype=bool)

    def canonical(self, p):
        p = p.copy()
        p[..., 2] = abs(p[..., 2])
        return p


class LorentzianModel(_PeakModel):
    """amplitude / (1 + (2 (x - center) / width)^2) + offset"""

    name = "lorentzian"
    param_names = ("amplitude", "center", "width", "offset")

    def evaluate(self, x, p):
        a, x0, w, c = _columns(p)
        u = 2.0 * (x - x0) / w
        q = 1.0 + u * u
        den = q * q
        return a / q + c, np.stack([1.0 / q, 4.0 * a * u / (w * den),
                                    2.0 * a * u * u / (w * den),
                                    np.ones_like(x)], axis=-1)


class GaussianModel(_PeakModel):
    """amplitude * exp(-(x - center)^2 / (2 sigma^2)) + offset"""

    name = "gaussian"
    param_names = ("amplitude", "center", "sigma", "offset")
    sigma = True

    def evaluate(self, x, p):
        a, x0, s, c = _columns(p)
        d = x - x0
        e = np.exp(-(d * d) / (2.0 * s * s))
        return a * e + c, np.stack([e, a * e * d / (s * s),
                                    a * e * d * d / (s * s * s),
                                    np.ones_like(x)], axis=-1)


class LinearModel(_Model):
    """slope * x + intercept"""

    name = "linear"
    param_names = ("slope", "intercept")

    def evaluate(self, x, p):
        slope, intercept = _columns(p)
        return slope * x + intercept, np.stack([x, np.ones_like(x)], axis=-1)

    def initial_guess(self, x, y):
        slope, intercept, refused = _lines(x, y, np.ones(x.shape, dtype=bool))
        return np.stack([slope, intercept], axis=-1), refused


class BunchingModel(_Model):
    """1 + amplitude * exp(-x / switch_time); the uncorrelated level is pinned."""

    name = "bunching"
    param_names = ("amplitude", "switch_time")

    def evaluate(self, x, p):
        a, tau = _columns(p)
        e = np.exp(-x / tau)
        return 1.0 + a * e, np.stack([e, a * x * e / (tau * tau)], axis=-1)

    def initial_guess(self, x, y):
        a0 = y[:, 0] - 1.0
        a0 = np.where(a0 <= 0, np.maximum(y.max(axis=-1) - 1.0, 0.1), a0)
        drop = y - 1.0 < (a0 / math.e)[:, None]
        first = x[np.arange(len(y)), drop.argmax(axis=-1)]
        fallback = x[:, -1] / 3.0
        tau0 = np.where(drop.any(axis=-1), first, fallback)
        p = np.empty((len(y), 2))
        p[:, 0], p[:, 1] = a0, np.where(tau0 > 0, tau0, fallback)
        return p, np.zeros(len(y), dtype=bool)


class DoubletModel(_Model):
    """amp_lo / (1 + u_lo^2) + amp_hi / (1 + u_hi^2) + offset, with
    u = 2 (x - mid -+ split / 2) / width: two Lorentzians that share their
    width and offset.  Not in MODELS: every row starts at start, the
    caller's guess, and its parameters are reported as fitted."""

    name = "doublet"
    param_names = ("amp_lo", "amp_hi", "mid", "split", "width", "offset")

    def __init__(self, start):
        self.start = np.asarray(start, dtype=float)

    def evaluate(self, x, p):
        a_lo, a_hi, mid, split, w, c = _columns(p)
        lo, j_lo = LORENTZIAN.evaluate(  # the lower line carries the offset
            x, np.concatenate([a_lo, mid - split / 2.0, w, c], axis=-1))
        hi, j_hi = LORENTZIAN.evaluate(
            x, np.concatenate([a_hi, mid + split / 2.0, w, 0.0 * c], axis=-1))
        d_lo, d_hi = j_lo[..., 1], j_hi[..., 1]  # by each line's centre
        return lo + hi, np.stack([j_lo[..., 0], j_hi[..., 0], d_lo + d_hi,
                                  (d_hi - d_lo) / 2.0,
                                  j_lo[..., 2] + j_hi[..., 2], j_lo[..., 3]],
                                 axis=-1)

    def initial_guess(self, x, y):
        return (np.repeat(self.start[None], len(y), axis=0),
                np.zeros(len(y), dtype=bool))


EXPONENTIAL = ExponentialModel()
LORENTZIAN = LorentzianModel()
GAUSSIAN = GaussianModel()
LINEAR = LinearModel()
BUNCHING = BunchingModel()

MODELS = {m.name: m for m in (EXPONENTIAL, LORENTZIAN, GAUSSIAN, LINEAR,
                              BUNCHING)}


@dataclass
class FitStack:
    """fit_models' outcome, one array entry per row.  A refused row has NaN
    params, stderr and residual_norm, is not converged, ran no iteration,
    and has its FitError in refusals."""

    model: _Model
    params: np.ndarray          # (rows, k)
    stderr: np.ndarray          # (rows, k)
    residual_norm: np.ndarray   # (rows,)
    converged: np.ndarray       # (rows,) bool
    n_iter: np.ndarray          # (rows,) int
    refusals: dict[int, FitError]

    def row(self, i: int) -> FitResult | FitError:
        """Row i as fit_model reports it: its FitResult, or its FitError."""
        if i in self.refusals:
            return self.refusals[i]
        names = self.model.param_names
        return FitResult(self.model.name,
                         dict(zip(names, self.params[i].tolist())),
                         dict(zip(names, self.stderr[i].tolist())),
                         float(self.residual_norm[i]), bool(self.converged[i]),
                         int(self.n_iter[i]))


def fit_model(model, x, y, weights=None, *, poisson=False) -> FitResult:
    """Damped least squares with analytic Jacobians.

    weights multiply squared residuals, and with none the fit is
    unweighted; with poisson it instead minimises the Poisson deviance of
    counts y.  It has converged when its last step moved every parameter by
    less than 1e-8 relative, or the objective by less than 1e-6 of its scale
    (_DEV_TOL), and each stderr is finite and positive (or 0 on a
    least-squares fit with zero residual).  This is fit_models on one row.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise FitError("x and y must be 1-d arrays of the same length")
    w = None if weights is None else np.asarray(weights, dtype=float)[None]
    result = fit_models(model, x[None], y[None], w, poisson=poisson).row(0)
    if isinstance(result, FitError):
        raise result
    return result


def fit_models(model, x, y, weights=None, *, poisson=False) -> FitStack:
    """fit_model on every row of 2-d x and y (and weights, which default to
    1), run as one batched engine that returns the stack as arrays.

    Rows are independent: each keeps its own parameters, objective, damping
    and counters, and its result equals fit_model on that row alone, bit
    for bit, whatever else is in the stack.  A row fit_model would refuse
    has that FitError in refusals, and converged means what it does there.
    The model and its Jacobian are evaluated once a point a round, and no
    per-row object is made.

    With poisson each row of y is a histogram of counts, and the fit
    minimises the Poisson deviance 2 sum[mu - y + y ln(y / mu)] (Baker &
    Cousins, NIM 221 (1984) 437), which no weighting of squared residuals
    does without bias: every Hessian is built with weights 1 / mu(p) at the
    parameters it is built at, so the steps solve the Poisson likelihood
    equations, and the stderr is the unscaled covariance, since the counts'
    variance is known.  residual_norm is then the deviance's square root.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 2:
        raise FitError("x and y must be 2-d arrays of the same shape")
    n_rows, n_par = len(y), len(model.param_names)
    if poisson:
        if weights is not None:
            raise FitError("a Poisson fit weighs by the model: pass no weights")
        w = None
        good_w = np.all(y >= 0, axis=1)
        refusal = "a Poisson fit needs counts: y must not be negative"
    else:
        w = np.ones_like(y) if weights is None else np.asarray(weights, float)
        if w.shape != y.shape:
            raise FitError("weights must be positive, finite, and match y")
        good_w = np.all(w > 0, axis=1) & np.all(np.isfinite(w), axis=1)
        refusal = "weights must be positive, finite, and match y"
    finite = np.all(np.isfinite(x), axis=1) & np.all(np.isfinite(y), axis=1)
    short = x.shape[1] <= n_par
    stack = FitStack(model, np.full((n_rows, n_par), np.nan),
                     np.full((n_rows, n_par), np.nan), np.full(n_rows, np.nan),
                     np.zeros(n_rows, dtype=bool), np.zeros(n_rows, dtype=int),
                     {})
    # a row's refusal is the first check it fails
    for i in np.flatnonzero(~finite | short | ~good_w).tolist():
        stack.refusals[i] = FitError(
            "fit input contains non-finite values" if not finite[i] else
            f"need more than {n_par} points to fit {model.name}" if short
            else refusal)
    rows = np.flatnonzero(finite & good_w & (not short))
    if not rows.size:
        return stack
    # guesses on extreme x and wild trial parameters may overflow; the
    # tests below discard any non-finite outcome, so no warning reaches
    # the caller
    with np.errstate(all="ignore"):
        p, refused = model.initial_guess(x[rows], y[rows])
        for i in rows[refused].tolist():  # a line fit on x that squares to 0
            stack.refusals[i] = FitError("initial guess failed: x is zero, or "
                                         "too small to square in double "
                                         "precision")
        rows, p = rows[~refused], p[~refused]
        x, y, w = x[rows], y[rows], None if poisson else w[rows]
        mu, jac = model.evaluate(x, p)
        chi2 = _objective(y, w, mu)
        keep = np.isfinite(chi2)
        for i in rows[~keep].tolist():
            stack.refusals[i] = FitError("initial parameters give a "
                                         "non-finite residual")
        rows, x, y, p, chi2, mu, jac = (
            a[keep] for a in (rows, x, y, p, chi2, mu, jac))
        w = None if poisson else w[keep]
        p, chi2, stack.converged[rows], stack.n_iter[rows] = (
            _levenberg_marquardt(model, x, y, w, p, chi2, mu, jac))
        stack.params[rows] = p = model.canonical(p)
        stack.stderr[rows] = err = _param_errors(model, x, y, w, p, chi2)
        fixed = (err > 0) | ((chi2 == 0) & (not poisson))[:, None]
        stack.converged[rows] &= np.all(fixed & (err < np.inf), axis=1)
        # a deviance at its minimum 0 may round below it
        stack.residual_norm[rows] = np.sqrt(np.maximum(chi2, 0.0))
    return stack


def _levenberg_marquardt(model, x, y, w, p, chi2, mu, jac):
    """Damped Gauss-Newton on every row at once, from p with objective chi2,
    model values mu and Jacobian jac (w None: the Poisson deviance, with
    weights 1 / mu(p)).

    Each round, every live row tries one damped step.  A rejected step (or
    a singular damped matrix) multiplies that row's damping by 10, and 50
    rejects in a row end its fit.  An accepted step divides the damping by
    10 and starts the row's next iteration, with a new Hessian, unless the
    step met the convergence test or the row used up its iterations.
    The model and its Jacobian are evaluated once a round at each trial
    step, and a row that accepts its step builds its next Hessian from them.
    """
    n_rows, n_par = p.shape
    p_end, chi2_end = p.copy(), chi2.copy()
    p, chi2 = p.copy(), chi2.copy()
    converged, n_iter = np.zeros(n_rows, dtype=bool), np.ones(n_rows, int)
    # the live rows' state; a row that finishes is written out and dropped
    rows = np.arange(n_rows)
    lam, rejects = np.full(n_rows, 1e-3), np.zeros(n_rows, dtype=int)
    its = n_iter.copy()
    hess, grad = _normal_equations(mu, jac, y, w)
    while rows.size:
        floor = np.maximum(hess.diagonal(axis1=1, axis2=2), 1e-300)
        # + 0.0, not copy(): a -0.0 entry reads 0.0, as under a damping sum
        damped = hess + 0.0
        damped.reshape(rows.size, -1)[:, ::n_par + 1] += lam[:, None] * floor
        step, solved = _stacked(np.linalg.solve, damped, grad[..., None])
        step = step[..., 0]
        p_try = p + step
        mu, jac = model.evaluate(x, p_try)
        chi2_try = _objective(y, w, mu)
        # chi2 is finite, so a NaN or infinite chi2_try fails the test
        accepted = solved & (chi2_try <= chi2)
        lam = np.where(accepted, np.maximum(lam / 10.0, 1e-12), lam * 10.0)
        rejects = np.where(accepted, 0, rejects + 1)
        done = accepted
        if np.count_nonzero(accepted):
            rel = (np.abs(step) / np.maximum(np.abs(p_try), 1e-300)).max(axis=1)
            # parameters sitting at zero: judge the step in residual units,
            # by the dot products np.linalg.norm takes
            v = np.sqrt(floor)[:, None] * np.stack([step, p_try], axis=1)
            norm = np.sqrt((v[..., None, :] @ v[..., None])[..., 0, 0])
            done = accepted & ((rel < _REL_TOL) | (
                norm[:, 0] <= _REL_TOL * (_REL_TOL + norm[:, 1])))
            unit = 1.0 if w is None else chi2_try / (x.shape[1] - n_par)
            done |= accepted & (chi2 - chi2_try < _DEV_TOL * unit)
            np.copyto(p, p_try, where=accepted[:, None])
            np.copyto(chi2, chi2_try, where=accepted)
        out = done | (accepted & (its == _MAX_ITER)) | (rejects == _MAX_REJECTS)
        stale = accepted & ~out   # rows that go on from a new p
        its += stale
        n_stale = np.count_nonzero(stale)
        if n_stale:
            sel = slice(None) if n_stale == rows.size else stale
            hess[sel], grad[sel] = _normal_equations(
                mu[sel], jac[sel], y[sel], None if w is None else w[sel])
        if np.count_nonzero(out):
            ended = rows[out]
            p_end[ended], chi2_end[ended] = p[out], chi2[out]
            converged[ended], n_iter[ended] = done[out], its[out]
            keep = ~out
            rows, p, chi2, lam, rejects, its, hess, grad, x, y = (
                a[keep] for a in (rows, p, chi2, lam, rejects, its, hess,
                                  grad, x, y))
            w = None if w is None else w[keep]
    return p_end, chi2_end, converged, n_iter


def _stacked(solver, *arrays):
    """solver on stacked matrices, and which slices it could do.

    numpy raises LinAlgError for the whole stack when one slice is
    singular; then each slice is done on its own, and the singular ones
    come back NaN and False.
    """
    try:
        return solver(*arrays), np.ones(len(arrays[0]), dtype=bool)
    except np.linalg.LinAlgError:
        pass
    out = np.full(arrays[-1].shape, np.nan)
    ok = np.ones(len(out), dtype=bool)
    for j in range(len(out)):
        try:
            out[j] = solver(*(a[j:j + 1] for a in arrays))[0]
        except np.linalg.LinAlgError:
            ok[j] = False
    return out, ok


def _normal_equations(mu, jac, y, w):
    """Each row's Gauss-Newton Hessian and gradient from its model values
    mu and Jacobian, by weights w or, with w None, 1 / mu."""
    jw = jac * (1.0 / mu if w is None else w)[..., None]
    # an (n, 1) column keeps matmul on its matrix-vector routine
    return jac.mT @ jw, (jw.mT @ (y - mu)[..., None])[..., 0]


def _objective(y, w, mu):
    """Each row's weighted residual sum of squares at model values mu; with
    w None the Poisson deviance, infinite where some mu is not positive."""
    if w is not None:
        r = y - mu
        return (w * r * r).sum(axis=-1)
    # y ln(y / mu) -> 0 as y -> 0
    dev = 2.0 * (mu - y + y * np.log(np.where(y > 0, y / mu, 1.0))).sum(-1)
    return np.where(np.all(mu > 0, axis=-1), dev, np.inf)


def _param_errors(model, x, y, w, p, chi2):
    """Standard errors of each row, NaN where the Hessian is singular; a
    weighted fit's covariance is scaled by chi2 / dof, a Poisson fit's
    (w None) is not."""
    hess, _ = _normal_equations(*model.evaluate(x, p), y, w)
    cov, _ = _stacked(np.linalg.inv, hess)
    var = np.diagonal(cov, axis1=1, axis2=2)
    if w is not None:
        var = var * (chi2 / (x.shape[-1] - p.shape[-1]))[:, None]
    return np.where(var >= 0, np.sqrt(var), np.nan)


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
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
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
    while np.any(available):
        search = np.where(available, residual, neg_inf)
        i = int(np.argmax(search))
        if residual[i] < floor:
            break
        u = 2.0 * (x - x[i]) / width
        line = 1.0 / (1.0 + u * u)
        a_hat = float(np.dot(line, residual) / np.dot(line, line))
        if a_hat < floor:
            break
        if len(centers) == _MAX_PEAKS:
            raise FitError(f"peak extraction exceeded {_MAX_PEAKS} components")
        residual -= a_hat * line
        centers.append(float(x[i]))
        amplitudes.append(a_hat)
        available &= np.abs(x - x[i]) >= width / 2.0
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
    """Fit a Gaussian envelope to the center histogram, by Poisson likelihood.

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
    fit = fit_model(GAUSSIAN, mids[valid], counts[valid], poisson=True)
    model_counts = GAUSSIAN(mids, np.array([fit.params[k]
                                            for k in GAUSSIAN.param_names]))
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
