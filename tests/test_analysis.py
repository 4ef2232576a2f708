"""Fit engine, model Jacobians, and peak extraction."""

import json
import math
import warnings
import zlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cavityspec import analysis
from cavityspec.analysis import (
    BUNCHING,
    EXPONENTIAL,
    GAUSSIAN,
    LINEAR,
    LORENTZIAN,
    MODELS,
    DoubletModel,
    FitResult,
    PeakList,
    count_peaks,
    fit_model,
    fit_models,
    fit_peak_density,
)
from cavityspec.cli import main
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
    (DoubletModel(np.zeros(6)), np.linspace(-10.0, 10.0, 81),
     np.array([5.0, 3.0, 0.4, 4.0, 2.5, 0.3])),
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


def test_lorentzian_fit_recovers_exact_parameters():
    x = np.linspace(-30e6, 30e6, 201)
    true = np.array([0.02, 1.2e6, 6.2e6, 0.001])
    y = LORENTZIAN(x, true)
    result = fit_model(LORENTZIAN, x, y)
    assert result.converged
    for name, value in zip(LORENTZIAN.param_names, true):
        assert result.params[name] == pytest.approx(value, rel=1e-6)
    assert result.params["width"] > 0


def test_doublet_fit_recovers_exact_parameters():
    # two lines 1.2 widths apart, started from where they merge to one
    x = np.linspace(-20.0, 20.0, 241)
    true = np.array([40.0, 25.0, 0.7, 3.0, 2.5, 5.0])
    model = DoubletModel([30.0, 30.0, 0.0, 1.5, 3.0, 4.0])
    fit = fit_model(model, x, model(x, true), poisson=True)
    assert fit.converged
    got = np.array([fit.params[k] for k in model.param_names])
    np.testing.assert_allclose(got, true, rtol=1e-6)


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


# -- the batched engine against the per-fit loop it replaced ----------------

def _reference_fit(model, x, y, weights=None) -> FitResult:
    """The sequential Levenberg-Marquardt loop fit_model ran, one fit at a
    time, kept verbatim as the oracle for fit_models."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise FitError("x and y must be 1-d arrays of the same length")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise FitError("fit input contains non-finite values")
    n_par = len(model.param_names)
    if len(x) <= n_par:
        raise FitError(f"need more than {n_par} points to fit {model.name}")
    w = np.ones_like(y) if weights is None else np.asarray(weights, float)
    if w.shape != y.shape or np.any(w <= 0) or not np.all(np.isfinite(w)):
        raise FitError("weights must be positive, finite, and match y")

    guess, refused = model.initial_guess(x[None], y[None])
    if refused[0]:
        raise FitError("initial guess failed: x is zero, or too small to "
                       "square in double precision")
    p = guess[0]
    chi2 = _reference_chi2(model, x, y, w, p)
    if not np.isfinite(chi2):
        raise FitError("initial parameters give a non-finite residual")
    lam = 1e-3
    converged = False
    n_iter = 0
    for n_iter in range(1, analysis._MAX_ITER + 1):
        with np.errstate(all="ignore"):
            jac = model.jacobian(x, p)
            jw = jac * w[:, None]
            hess = jac.T @ jw
            grad = jw.T @ (y - model(x, p))
        accepted = False
        for _ in range(analysis._MAX_REJECTS):
            damped = hess + lam * np.diag(np.maximum(np.diag(hess), 1e-300))
            try:
                step = np.linalg.solve(damped, grad)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            p_try = p + step
            chi2_try = _reference_chi2(model, x, y, w, p_try)
            if np.isfinite(chi2_try) and chi2_try <= chi2:
                accepted = True
                break
            lam *= 10.0
        if not accepted:
            break
        rel = np.max(np.abs(step) / np.maximum(np.abs(p_try), 1e-300))
        scale = np.sqrt(np.maximum(np.diag(hess), 1e-300))
        scaled_step = np.linalg.norm(scale * step)
        scaled_p = np.linalg.norm(scale * p_try)
        unit = chi2_try / (len(x) - n_par)
        crawl = chi2 - chi2_try < analysis._DEV_TOL * unit
        p, chi2 = p_try, chi2_try
        lam = max(lam / 10.0, 1e-12)
        if (rel < analysis._REL_TOL or crawl
                or scaled_step <= analysis._REL_TOL * (analysis._REL_TOL
                                                       + scaled_p)):
            converged = True
            break

    p = model.canonical(p)
    stderr = _reference_errors(model, x, y, w, p, chi2)
    return FitResult(
        model=model.name,
        params=dict(zip(model.param_names, (float(v) for v in p))),
        stderr=dict(zip(model.param_names, stderr)),
        residual_norm=math.sqrt(chi2),
        converged=converged,
        n_iter=n_iter,
    )


def _reference_chi2(model, x, y, w, p):
    with np.errstate(all="ignore"):
        r = y - model(x, p)
        val = float(np.sum(w * r * r))
    return val


def _reference_errors(model, x, y, w, p, chi2):
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


def _rows(stack):
    """Every row of a fit_models stack, as fit_model reports it."""
    return [stack.row(i) for i in range(len(stack.params))]


def _outcome(result):
    """Everything a fit reports, as text that tells every float bit apart
    (repr round-trips, keeps -0.0 and prints every NaN alike)."""
    if isinstance(result, FitError):
        return f"FitError: {result}"
    return repr((result.model, result.params, result.stderr,
                 result.residual_norm, result.converged, result.n_iter))


def _reference(model, x, y, weights=None):
    """The reference loop's FitResult, or the FitError it raised."""
    # the reference loop leaves numpy's warnings on; only the values count
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            return _reference_fit(model, x, y, weights)
        except FitError as exc:
            return exc


# true parameters on x in [lo, 10] (times 10**scale): which parameters scale
# with x, and the scale at which the initial Jacobian is NaN or infinite, so
# every trial step is rejected
_SHAPES = {
    "exponential": (0.0, (100.0, 2.0, 3.0), (1,), -160),
    "lorentzian": (-5.0, (50.0, 0.3, 2.0, 4.0), (1, 2), -200),
    "gaussian": (-5.0, (40.0, -0.5, 1.5, 2.0), (1, 2), -110),
    "linear": (-5.0, (3.0, -2.0), (), 300),
    "bunching": (0.0, (1.5, 0.7), (1,), -200),
}
ROW_KINDS = ("signal", "noise", "rejects", "flat", "huge", "nan", "zero")


def _row(model, kind, n, seed):
    """One (x, y) row of the given kind for a stack of fits.

    signal: the model plus noise; noise: no signal at all, which often runs
    the fit to _MAX_ITER; rejects: a scale where the first Jacobian is not
    finite (linear needs uniform weights for that); flat: every x equal, so
    the Hessian is singular (a peak model's width guess is then 0, and it
    refuses the row); huge: y alternating at +-1e307, so the initial
    residual overflows; nan: one non-finite y; zero: every x 0.0 or 1e-170,
    whose squares sum to zero, so the exponential and linear guesses refuse
    the row.
    """
    rng = np.random.default_rng(seed)
    lo, true, scaled, reject_scale = _SHAPES[model.name]
    exponent = rng.uniform(-3.0, 3.0)
    if kind == "rejects":
        exponent = reject_scale
    elif model is LINEAR and kind == "noise":  # only extreme scales stall it
        exponent = rng.uniform(200.0, 300.0)
    x = np.linspace(lo, 10.0, n) * 10.0 ** exponent
    p = np.array(true) * np.exp(rng.normal(0.0, 0.3, len(true)))
    for i in scaled:
        p[i] *= 10.0 ** exponent
    if model is LINEAR:
        p[0] /= 10.0 ** exponent
    with np.errstate(all="ignore"):
        y = model(x, p)
    if kind == "signal":
        y = y + rng.normal(0.0, 0.05, n) * np.abs(y)
    elif kind == "noise" and model is LINEAR:
        y = rng.normal(0.0, 1.0, n) * 10.0 ** rng.uniform(0.0, 100.0)
    elif kind == "noise":
        y = rng.exponential(1.0, n)
    elif kind == "rejects" and model is LINEAR:
        y = rng.normal(0.0, 1e100, n)
    elif kind == "flat":
        x = np.full(n, x[-1])
    elif kind == "huge":
        y = 1e307 * (1.0 + rng.uniform(0.0, 0.5, n)) * np.resize([1, -1], n)
    elif kind == "nan":
        y[rng.integers(n)] = rng.choice([np.nan, np.inf])
    elif kind == "zero":
        x = np.full(n, rng.choice([0.0, 1e-170]))
    return x, y


def _exits(result):
    """How a fit ended, plus "nan_stderr" when some stderr is NaN."""
    if isinstance(result, FitError):
        return {"refused"}
    exits = {"converged" if result.converged else
             "max_iter" if result.n_iter == analysis._MAX_ITER else "rejects"}
    if any(math.isnan(v) for v in result.stderr.values()):
        exits.add("nan_stderr")
    return exits


def _check_stack(model, x, y, w):
    """Fit the stack, and each row alone, against the reference loop on
    that row; returns every exit the rows took."""
    stacked = _rows(fit_models(model, x, y, w))
    seen = set()
    for i in range(len(x)):
        reference = _reference(model, x[i], y[i], None if w is None else w[i])
        expected = _outcome(reference)
        assert _outcome(stacked[i]) == expected, f"row {i}"
        alone = fit_models(model, x[i:i + 1], y[i:i + 1],
                           None if w is None else w[i:i + 1]).row(0)
        assert _outcome(alone) == expected, f"row {i} alone"
        seen |= _exits(reference)
    return seen


def _weights(kinds, y, weighting):
    """None (unit weights), uniform weights given, or per row: uniform for
    rejects rows (linear needs them there) and 1/max(|y|, 1) elsewhere."""
    if weighting == "default":
        return None
    if weighting == "uniform":
        return np.ones_like(y)
    with np.errstate(invalid="ignore"):
        w = 1.0 / np.maximum(np.abs(y), 1.0)
    w[[k == "rejects" for k in kinds]] = 1.0
    return w


# a noise row per model that runs its fit to _MAX_ITER; a linear fit starts
# on its least-squares line and ends within a few iterations, and the
# exponential and bunching noise rows end on a crawl of chi2 well before
# 200, so theirs reach the cap only when the cap is a few iterations
_STALLING_SEED = {"exponential": 1, "lorentzian": 13, "gaussian": 7,
                  "linear": 2, "bunching": 23}
_STALLING_CAP = {"exponential": 3, "linear": 2, "bunching": 5}


@pytest.mark.parametrize("model", MODELS.values(), ids=list(MODELS))
def test_fit_models_matches_the_loop_on_every_way_a_fit_ends(model):
    """One stack whose rows reach every exit of the loop, for every model:
    convergence, 50 rejects, _MAX_ITER, refusal, and a final Hessian too
    singular for finite errors.  The random stacks below draw from the
    same row kinds."""
    rows = [(kind, 0) for kind in ROW_KINDS] + [
        ("noise", _STALLING_SEED[model.name]), ("flat", 1), ("noise", 3)]
    kinds = [kind for kind, _ in rows]
    x, y = map(np.array, zip(*(_row(model, kind, 24, seed)
                               for kind, seed in rows)))
    cap = _STALLING_CAP.get(model.name, analysis._MAX_ITER)
    with mock.patch.object(analysis, "_MAX_ITER", cap):
        seen = _check_stack(model, x, y, _weights(kinds, y, "mixed"))
    assert seen == {"converged", "rejects", "max_iter", "nan_stderr",
                    "refused"}


@pytest.mark.parametrize("model", MODELS.values(), ids=list(MODELS))
@given(data=st.data())
def test_fit_models_equals_the_per_fit_loop(model, data):
    n = data.draw(st.integers(len(model.param_names) + 1, 30), label="n")
    kinds = data.draw(st.lists(st.sampled_from(ROW_KINDS), min_size=1,
                               max_size=5), label="kinds")
    seeds = data.draw(st.lists(st.integers(0, 2**32 - 1),
                               min_size=len(kinds), max_size=len(kinds)),
                      label="seeds")
    weighting = data.draw(st.sampled_from(["default", "uniform", "mixed"]),
                          label="weights")
    # low caps end many more fits there, and keep them cheap; the
    # reference loop reads the same module constants
    max_iter = data.draw(st.integers(1, 30), label="max_iter")
    max_rejects = data.draw(st.sampled_from([1, 2, 3, 5, 50]),
                            label="max_rejects")
    x, y = map(np.array, zip(*(_row(model, kind, n, seed)
                               for kind, seed in zip(kinds, seeds))))
    with mock.patch.object(analysis, "_MAX_ITER", max_iter), \
            mock.patch.object(analysis, "_MAX_REJECTS", max_rejects):
        _check_stack(model, x, y, _weights(kinds, y, weighting))


@pytest.mark.parametrize("model", MODELS.values(), ids=list(MODELS))
def test_singular_solves_count_as_rejects(model):
    """A damped matrix that cannot be solved is one reject for its row,
    also inside a stack, where numpy fails the whole stacked solve.
    Singular damped matrices are rare in practice, so a stand-in solve
    calls about a third of all matrices singular, by a hash of their bytes:
    the same matrix gets the same verdict in the loop and in the batch."""
    real_solve = np.linalg.solve
    refused = []

    def solve(a, b):
        for m in np.reshape(a, (-1,) + np.shape(a)[-2:]):
            if zlib.crc32(m.tobytes()) % 3 == 0:
                refused.append(1)
                raise np.linalg.LinAlgError("Singular matrix")
        return real_solve(a, b)

    kinds = ["signal", "signal", "noise", "flat", "rejects", "huge"]
    x, y = map(np.array, zip(*(_row(model, kind, 16, seed)
                               for seed, kind in enumerate(kinds))))
    for max_rejects in (2, 3, 50):
        with mock.patch.object(np.linalg, "solve", solve), \
                mock.patch.object(analysis, "_MAX_REJECTS", max_rejects):
            _check_stack(model, x, y, _weights(kinds, y, "mixed"))
    assert refused


def test_fit_model_is_the_one_row_call():
    x, y = _row(LORENTZIAN, "signal", 40, 5)
    fit = fit_model(LORENTZIAN, x, y, weights=np.full(40, 2.0))
    (row,) = _rows(fit_models(LORENTZIAN, x[None], y[None],
                              np.full((1, 40), 2.0)))
    assert _outcome(fit) == _outcome(row)
    with pytest.raises(FitError, match="non-finite residual"):
        fit_model(LORENTZIAN, *_row(LORENTZIAN, "huge", 40, 5))
    with pytest.raises(FitError, match="2-d"):
        fit_models(LORENTZIAN, x, y)
    # the stacked solve and inverse fall back to one slice at a time
    # when a single slice is singular
    a = np.stack([np.eye(3), np.zeros((3, 3)), 2.0 * np.eye(3)])
    out, ok = analysis._stacked(np.linalg.inv, a)
    assert ok.tolist() == [True, False, True]
    assert np.array_equal(out[0], np.eye(3)) and np.isnan(out[1]).all()
    assert np.array_equal(out[2], np.linalg.inv(a[2]))
    out, ok = analysis._stacked(np.linalg.solve, a, np.ones((3, 3, 1)))
    assert ok.tolist() == [True, False, True]
    assert np.array_equal(out[2], np.full((3, 1), 0.5))


def test_fit_stack_keeps_refused_rows_as_nan():
    """A refused row of the stack is NaN, unconverged after no iteration,
    with its FitError in refusals, between fitted rows that read as their
    fit_model; a stack refused in every row still has every array."""
    kinds = ["nan", "signal", "zero", "huge", "signal", "flat"]
    x, y = map(np.array, zip(*(_row(EXPONENTIAL, kind, 24, seed)
                               for seed, kind in enumerate(kinds))))
    stack = fit_models(EXPONENTIAL, x, y)
    assert sorted(stack.refusals) == [0, 2, 3]
    for i in range(len(kinds)):
        if i in stack.refusals:
            assert np.isnan(stack.params[i]).all()
            assert np.isnan(stack.stderr[i]).all()
            assert np.isnan(stack.residual_norm[i])
            assert not stack.converged[i] and stack.n_iter[i] == 0
            with pytest.raises(FitError, match=str(stack.refusals[i])):
                fit_model(EXPONENTIAL, x[i], y[i])
        else:
            assert _outcome(stack.row(i)) == _outcome(
                fit_model(EXPONENTIAL, x[i], y[i]))
    x, y = x[:, :3].copy(), y[:, :3].copy()
    y[0, 1] = np.nan
    short = fit_models(EXPONENTIAL, x, y)
    assert short.params.shape == (6, 3) and short.stderr.shape == (6, 3)
    assert np.isnan(short.params).all() and np.isnan(short.residual_norm).all()
    assert not short.converged.any() and not short.n_iter.any()
    assert [str(short.row(i)) for i in range(6)] == (
        ["fit input contains non-finite values"]
        + ["need more than 3 points to fit exponential"] * 5)


@pytest.mark.parametrize("model", MODELS.values(), ids=list(MODELS))
def test_no_weights_are_unit_weights(model):
    """A fit given no weights is the fit given np.ones_like(y), bit for
    bit, on every row kind: no statistic is chosen behind the caller."""
    x, y = map(np.array, zip(*(_row(model, kind, 24, seed)
                               for seed, kind in enumerate(ROW_KINDS))))
    plain = _rows(fit_models(model, x, y))
    unit = _rows(fit_models(model, x, y, np.ones_like(y)))
    assert [_outcome(f) for f in plain] == [_outcome(f) for f in unit]


def test_parameter_powers_round_as_float64_scalars():
    """Each row of a stacked Jacobian equals the one-row Jacobian and the
    formula on float64 scalars, bit for bit, at values such as these two,
    where libm's pow and a product differ in the last bit: every power of a
    parameter is a product."""
    x = np.linspace(0.0, 3.0, 7)
    s = np.array([1.2131646764254524, 1.8190554752387018])
    for model, p in ((EXPONENTIAL, [2.0, 0.0, 0.5]), (BUNCHING, [2.0, 0.0]),
                     (GAUSSIAN, [2.0, 0.3, 0.0, 0.5])):
        stack = np.tile(p, (2, 1))
        j = {"gaussian": 2}.get(model.name, 1)
        stack[:, j] = s
        jac = model.jacobian(np.tile(x, (2, 1)), stack)
        for row, params, t in zip(jac, stack, s.tolist()):
            one = model.jacobian(x[None], params[None])[0]
            assert one.tobytes() == row.tobytes()
            t = np.float64(t)
            if model is GAUSSIAN:
                d = x - 0.3
                e = np.exp(-(d * d) / (2.0 * t * t))
                assert np.array_equal(row[:, 1], 2.0 * e * d / (t * t))
                assert np.array_equal(row[:, 2], 2.0 * e * d * d / (t * t * t))
            else:
                e = np.exp(-x / t)
                assert np.array_equal(row[:, 1], 2.0 * x * e / (t * t))


# -- one evaluation a point: the fused model against the formulas it joined ---

def _separate_formulas(model, x, p):
    """Each model's value and Jacobian as two expressions that share no
    subexpression: the oracle for evaluate's shared ones."""
    cols = [p[..., j, None] for j in range(p.shape[-1])]
    ones = np.ones_like(x)
    if model is EXPONENTIAL:
        a, tau, c = cols
        e = np.exp(-x / tau)
        return (a * np.exp(-x / tau) + c,
                np.stack([e, a * x * e / (tau * tau), ones], axis=-1))
    if model is LORENTZIAN:
        a, x0, w, c = cols
        u = 2.0 * (x - x0) / w
        den = (1.0 + u * u) ** 2
        return a / (1.0 + u * u) + c, np.stack([
            1.0 / (1.0 + u * u), 4.0 * a * u / (w * den),
            2.0 * a * u * u / (w * den), ones], axis=-1)
    if model is GAUSSIAN:
        a, x0, s, c = cols
        d = x - x0
        e = np.exp(-(d * d) / (2.0 * s * s))
        return (a * np.exp(-((x - x0) ** 2) / (2.0 * s * s)) + c,
                np.stack([e, a * e * d / (s * s), a * e * d * d / (s * s * s),
                          ones], axis=-1))
    if model is LINEAR:
        slope, intercept = cols
        return slope * x + intercept, np.stack([x, ones], axis=-1)
    a, tau = cols
    e = np.exp(-x / tau)
    return (1.0 + a * np.exp(-x / tau),
            np.stack([e, a * x * e / (tau * tau)], axis=-1))


def _bits(a):
    """a's bytes with every NaN made one NaN: which NaN an operation on two
    returns (its sign bit) varies with numpy's loop, and no fit reads it."""
    return np.where(np.isnan(a), np.nan, a).tobytes()


_EXTREME = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                     st.sampled_from([0.0, -0.0, 5e-324, -1e-300, 1e300]))


@pytest.mark.parametrize("model", MODELS.values(), ids=list(MODELS))
@given(data=st.data())
def test_evaluate_is_the_model_and_its_jacobian(model, data):
    """evaluate's values are model(x, p) and its Jacobian model.jacobian(x,
    p), bit for bit, and both are the separate formulas they replaced, on
    one row and on each row of a stack, at any x and p (a stack's row and
    the one-row call may differ in a NaN's sign)."""
    k = len(model.param_names)
    rows = data.draw(st.integers(1, 3), label="rows")
    n = data.draw(st.integers(1, 12), label="n")
    x = np.array(data.draw(st.lists(_EXTREME, min_size=rows * n,
                                    max_size=rows * n), label="x"))
    p = np.array(data.draw(st.lists(_EXTREME, min_size=rows * k,
                                    max_size=rows * k), label="p"))
    x, p = x.reshape(rows, n), p.reshape(rows, k)
    with np.errstate(all="ignore"):
        value, jac = model.evaluate(x, p)
        assert value.tobytes() == model(x, p).tobytes()
        assert jac.tobytes() == model.jacobian(x, p).tobytes()
        want_value, want_jac = _separate_formulas(model, x, p)
        assert value.tobytes() == want_value.tobytes()
        assert jac.tobytes() == want_jac.tobytes()
        for i in range(rows):
            one_value, one_jac = model.evaluate(x[i], p[i])
            assert _bits(one_value) == _bits(value[i]), f"row {i}"
            assert _bits(one_jac) == _bits(jac[i]), f"row {i}"


_SPECIAL = st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan])


@given(data=st.data())
def test_running_mean_adds_as_the_sum_of_shifted_rows(data):
    """The peak guess's running mean of k points equals Python's sum of the
    k shifted rows, divided by k, bit for bit: a window of -0.0 reads 0.0
    as sum's start 0 makes it, and infinities and NaN land alike.  Only
    where two NaN of opposite sign meet, which needs a non-finite y that
    fit_models refuses before the guess, may the NaN's sign differ."""
    rows = data.draw(st.integers(1, 3), label="rows")
    n = data.draw(st.integers(1, 200), label="n")
    k = data.draw(st.integers(1, n), label="k")
    values = st.one_of(_SPECIAL, st.floats(-1e300, 1e300),
                       st.just(-0.0), st.just(-0.0))
    y = np.array(data.draw(st.lists(values, min_size=rows * n,
                                    max_size=rows * n), label="y"))
    y = y.reshape(rows, n)
    with np.errstate(all="ignore"):
        want = sum(y[:, j:j + n - k + 1] for j in range(k)) / k
        got = analysis._running_mean(y, k)
    assert _bits(got) == _bits(want)
    if np.isfinite(y).all():
        assert got.tobytes() == want.tobytes()


# -- the stacked initial guesses against the one-row code they replaced -------

def _peak_guess(self, x, y):
    """_PeakModel.initial_guess one row at a time: the oracle for the
    stacked guess.  A row of n >= 100 points is read through its centred
    running mean of k = n // 50 points, each a sum of Python floats from
    the left, whose k - 1 edge points read the 10th percentile."""
    c0 = float(np.percentile(y, 10))
    k = max(1, len(y) // 50)
    if k > 1:
        run = [sum(y[i:i + k].tolist()) / k for i in range(len(y) - k + 1)]
        y = np.array([c0] * ((k - 1) // 2) + run + [c0] * (k // 2))
    i_pk = int(np.argmax(y))
    a0 = float(y[i_pk] - c0)
    if a0 <= 0:
        a0 = float(np.max(y) - np.min(y)) or 1.0
    above = y >= c0 + a0 / 2.0
    w0 = float(np.ptp(x[above])) if np.count_nonzero(above) >= 2 else 0.0
    w0 = w0 or float(np.ptp(x)) / 10.0
    if self.sigma:
        return np.array([a0, float(x[i_pk]), w0 / 2.3548, c0])
    return np.array([a0, float(x[i_pk]), w0, c0])


def _bunching_guess(self, x, y):
    """BunchingModel.initial_guess as it was, one row at a time."""
    a0 = float(y[0] - 1.0)
    if a0 <= 0:
        a0 = max(float(np.max(y) - 1.0), 0.1)
    drop = y - 1.0 < a0 / math.e
    tau0 = float(x[np.argmax(drop)]) if np.any(drop) else float(x[-1]) / 3.0
    return np.array([a0, tau0 if tau0 > 0 else float(x[-1]) / 3.0])


# any finite value, and small integers, which tie
_VALUES = st.one_of(st.floats(-1e300, 1e300), st.integers(-3, 3).map(float))


@pytest.mark.parametrize("model", [LORENTZIAN, GAUSSIAN, BUNCHING],
                         ids=lambda m: m.name)
@given(data=st.data())
def test_stacked_guesses_equal_the_one_row_guess(model, data):
    """The peak and bunching guesses of a stack of rows equal the one-row
    code on each row, bit for bit: rows of 4 to 400 points (a peak row of
    100 or more is read through its running mean), with all-equal y, the
    highest y at either edge, y <= 1, or a noisy line plus a spike.  Past
    60 points a row repeats its 60 drawn values in a seeded order."""
    n = data.draw(st.integers(4, 400), label="n")
    shapes = data.draw(st.lists(st.sampled_from(
        ["any", "flat", "first", "last", "low", "peak"]), min_size=1,
        max_size=4), label="shapes")
    x, y = [], []
    for shape in shapes:
        m = min(n, 60)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1),
                                              label="seed"))
        order = rng.integers(0, m, n) if n > m else np.arange(n)
        row = [np.array(data.draw(st.lists(_VALUES, min_size=m,
                                           max_size=m)))[order]
               for _ in "xy"]
        if shape == "peak":
            u = (np.arange(n) - n / 3.0) / (n / 20.0)
            row[1] = 50.0 / (1.0 + u * u) + rng.normal(0.0, 5.0, n)
            row[1][rng.integers(n)] += 80.0
        elif shape == "flat":
            row[1][:] = row[1][0]
        elif shape in ("first", "last"):
            row[1][0 if shape == "first" else -1] = np.max(row[1]) + 1.0
        elif shape == "low":
            row[1] = 1.0 - np.abs(row[1])
        x.append(row[0])
        y.append(row[1])
    x, y = np.array(x), np.array(y)
    oracle = _bunching_guess if model is BUNCHING else _peak_guess
    with np.errstate(all="ignore"):
        guess, refused = model.initial_guess(x, y)
        expected = [oracle(model, xr, yr) for xr, yr in zip(x, y)]
    assert not refused.any()
    for i, want in enumerate(expected):
        assert guess[i].tobytes() == want.tobytes(), f"row {i}"


@given(ks=st.lists(st.integers(-997, 997), min_size=1, max_size=4),
       n=st.integers(3, 40), seed=st.integers(0, 2**32 - 1))
def test_closed_form_line_is_polyfit_at_any_x_scale(ks, n, seed):
    """The linear guess, a closed-form line, of each row of a stack equals
    np.polyfit(x, y, 1) within 1e-12 relative, on well-conditioned rows (x
    in [1, 3] times 2**k, y a line of slope and intercept in [0.5, 2] plus
    1% noise) at x scales from 1e-300 to 1e300.  polyfit squares x, which
    overflows or underflows beyond about 1e+-154, so it fits x * 2**-k, an
    exact rescaling, and its slope is scaled back.  A row is refused exactly
    when its x squares sum to zero, although its line is still computed."""
    rng = np.random.default_rng(seed)
    u = np.sort(rng.uniform(1.0, 3.0, (len(ks), n)), axis=-1)
    line = rng.uniform(0.5, 2.0, (len(ks), 2))
    y = line[:, :1] * u + line[:, 1:] + rng.normal(0.0, 0.01, u.shape)
    x = u * 2.0 ** np.array(ks, dtype=float)[:, None]
    with np.errstate(over="ignore"):
        guess, refused = LINEAR.initial_guess(x, y)
        assert refused.tolist() == (np.sum(x * x, axis=-1) == 0).tolist()
    for i, k in enumerate(ks):
        slope, intercept = np.polyfit(u[i], y[i], 1)
        assert guess[i, 0] == pytest.approx(slope * 2.0 ** -k, rel=1e-12)
        assert guess[i, 1] == pytest.approx(intercept, rel=1e-12)


@pytest.mark.parametrize("model,x", [
    ("exponential", [2.0] * 6),
    ("linear", [2.0] * 6),
    ("linear", [0.0, 1.0, 1e308, 3.0, 4.0, 5.0]),
    ("exponential", [0.0, 1.0, 1e308, 3.0, 4.0, 5.0]),
])
def test_fit_command_prints_no_numpy_warning(tmp_path, capsys, model, x):
    """Degenerate x (all equal, or near overflow) used to print polyfit's
    RankWarning and overflow RuntimeWarnings; the fit written is the
    reference loop's, with the weights 1/max(|y|, 1) of --weights poisson,
    the default."""
    y = [5.0, 3.0, 2.0, 1.0, 1.0, 0.5]
    data = str(tmp_path / "data.csv")
    with open(data, "w") as fh:
        fh.write("x,y\n" + "".join(f"{a!r},{b!r}\n" for a, b in zip(x, y)))
    out = str(tmp_path / "fit.json")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        main(["fit", data, "--model", model, "--output", out])
    assert not caught
    assert "Warning" not in capsys.readouterr().err
    y = np.array(y)
    expected = _reference(MODELS[model], np.array(x), y,
                          1.0 / np.maximum(np.abs(y), 1.0))
    with open(out) as fh:
        assert fh.read() == json.dumps(expected.to_json(), indent=1,
                                       sort_keys=True) + "\n"


def test_fit_command_refuses_an_all_zero_x_column(tmp_path, capsys):
    """polyfit's least squares cannot scale an all-zero x column; the fit
    exits 1 naming the failed initial guess, with no traceback."""
    data = str(tmp_path / "data.csv")
    with open(data, "w") as fh:
        fh.write("x,y\n" + "0.0,5.0\n0.0,3.0\n" * 3)
    for model in ("exponential", "linear"):
        assert main(["fit", data, "--model", model]) == 1
        assert "initial guess failed" in capsys.readouterr().err


POISSON_FITS = 1000


def test_poisson_fit_pulls_at_low_counts():
    """tau of a Poisson fit of decays with 20 counts in the first bin, over
    N = POISSON_FITS fits of one stack: |mean z| <= 4 / sqrt(N), about
    0.126, fixed from N before any run.  Weighting squared residuals by
    1 / max(|y|, 1) instead puts the median tau ~13% low on these data."""
    rng = np.random.default_rng(5)
    x = np.tile(np.linspace(0.0, 5.0, 30), (POISSON_FITS, 1))
    y = rng.poisson(EXPONENTIAL(x, np.array([20.0, 1.0, 0.5]))).astype(float)
    fits = _rows(fit_models(EXPONENTIAL, x, y, poisson=True))
    assert all(f.converged for f in fits)
    z = np.array([(f.params["tau"] - 1.0) / f.stderr["tau"] for f in fits])
    assert abs(z.mean()) <= 4.0 / math.sqrt(POISSON_FITS), z.mean()


def test_poisson_fit_rows_fit_alone():
    """A Poisson stack's rows end bit for bit where each row's own fit
    does, an all-zero row too; a row with a negative count is refused,
    and so are weights."""
    rng = np.random.default_rng(8)
    x = np.tile(np.linspace(0.0, 5.0, 24), (6, 1))
    y = rng.poisson(EXPONENTIAL(x, np.array([30.0, 1.2, 0.0]))).astype(float)
    y[2, 5] = -1.0
    y[4] = 0.0  # every model value heads for the boundary mu > 0
    stacked = _rows(fit_models(EXPONENTIAL, x, y, poisson=True))
    for i in range(len(x)):
        alone = _rows(fit_models(EXPONENTIAL, x[i:i + 1], y[i:i + 1],
                                 poisson=True))
        assert _outcome(stacked[i]) == _outcome(alone[0]), f"row {i}"
    assert "must not be negative" in str(stacked[2])
    assert sum(isinstance(f, FitResult) for f in stacked) == 5
    with pytest.raises(FitError, match="no weights"):
        fit_model(EXPONENTIAL, x[0], y[0], weights=np.ones(24), poisson=True)
