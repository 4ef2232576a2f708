"""Pulsed-experiment runners.

Each runner turns a parameter plan plus an integer seed into synthetic
data.  A PLE scan, saturation series or cavity sweep draws from one
default_rng(seed), over arrays with the points in sorted order (rank), a
PLE scan one block of points at a time: a point's counts depend on the
rest of the grid, but reordering a drift-free grid only permutes the
output.  A PLE scan draws each point's ions in line-centre order, so a
block's (point, ion) groups are runs of its pairs and need no sort.  A
cavity sweep without dead time draws each point's gate
histogram directly from the law of its clicks; with dead time it draws
every click.

EXPERIMENTS, at the end, maps each experiment name to the function that
runs it from a RunConfig.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .analysis import (EXPONENTIAL, LINEAR, LORENTZIAN, DoubletModel,
                       FitResult, count_peaks, fit_model, fit_models)
from .constants import TWO_PI
from .detection import (MAX_BACKGROUND_CLICKS, BlinkConfig, ClickStream,
                        DetectorConfig, EmissionModel, g2_background_floor,
                        g2_pulsed, simulate_clicks)
from .dynamics import (SpinRelaxParams, intracavity_photon_number,
                       pulse_excitation, spin_t1, window_capture_fraction)
from .ensemble import (IonRecord, ZeemanConfig, ions_above_purcell,
                       sample_ensemble, zeeman_lines, zeeman_splitting)
from .errors import ConfigError, DomainError, FitError
from .physics import CavityParams, EmitterConstants

if TYPE_CHECKING:
    from .config import RunConfig

# beyond this many power-broadened half-widths an ion's tail is dropped
CUTOFF_HALFWIDTHS = 30.0
# candidate line-point pairs per block of a PLE scan: a block's peak holds
# about 30 arrays of 8 bytes a pair, 3.9 MB at 16,384.  The heap policy set
# by cli.main keeps that much freed memory in the process, so the next
# block reuses the pages instead of faulting them in again
_PAIR_BLOCK = 16_384


@dataclass(frozen=True)
class PulseSequence:
    """Drive timing and power; the collection gate lives in DetectorConfig."""

    input_power: float           # W at the cavity input
    excite_duration: float = 10e-6
    rep_period: float = 100e-6

    def __post_init__(self):
        if self.input_power < 0 or not np.isfinite(self.input_power):
            raise DomainError(f"input_power must be non-negative, got {self.input_power}")
        if self.excite_duration <= 0:
            raise DomainError("excite_duration must be positive")
        if self.rep_period < self.excite_duration:
            raise DomainError("rep_period must cover the excitation pulse")


@dataclass
class ScanResult:
    grid: np.ndarray
    counts: np.ndarray
    expected: np.ndarray
    cavity_freq: np.ndarray
    elapsed: np.ndarray


def _point_grid(values, name: str):
    """Scan points as a 1-d array of distinct finite floats, and the order
    their random draws are made in: the grid index of each draw, which
    sorts the grid."""
    grid = np.ascontiguousarray(values, dtype=float)
    if grid.ndim != 1 or len(grid) < 1:
        raise DomainError(f"{name}: must be a non-empty 1-d array")
    if not np.all(np.isfinite(grid)):
        raise DomainError(f"{name}: values must be finite")
    order = np.argsort(grid, kind="stable")
    if np.any(np.diff(grid[order]) == 0):
        raise DomainError(f"{name}: values must be distinct")
    return grid, order


# below numpy's Poisson limit of about 9.2e18
MAX_POINT_MEAN = 1e18


def _background_mean(pulses_per_point, det: DetectorConfig,
                     background_coeff, n_ph):
    """Dark and laser-background counts expected at each point."""
    if background_coeff < 0:
        raise DomainError("background_coeff must be non-negative")
    lam = pulses_per_point * (det.dark_rate * det.gate_duration
                              + background_coeff * n_ph)
    if not np.all(lam <= MAX_POINT_MEAN):
        raise DomainError(f"more than {MAX_POINT_MEAN:.0e} background counts "
                          "per point: lower background_coeff, dark_rate or "
                          "pulses_per_point")
    return lam


def _validate_gate(seq: PulseSequence, det: DetectorConfig) -> None:
    if det.gate_start < seq.excite_duration:
        raise ConfigError("collection gate opens before the drive ends: "
                          "gate_start < excite_duration")
    if det.gate_start + det.gate_duration > seq.rep_period:
        raise ConfigError("collection gate extends past the pulse period: "
                          "gate_start + gate_duration > rep_period")


# The per-pulse click model of every pulsed runner; scalars or arrays.

def _rolloff(delta, kappa):
    """Cavity Lorentzian: drive and Purcell factor at detuning delta are
    their resonant values divided by 1 + (2 delta / kappa)^2."""
    u = 2.0 * delta / kappa
    return 1.0 + u * u


def _decay(purcell, emitter: EmitterConstants):
    """Total decay rate and the share of decays into the cavity mode."""
    return emitter.gamma0 * (1.0 + purcell), purcell / (1.0 + purcell)


def _half_width(n_ph, g, purcell, emitter):
    """Power-broadened half-width of a line driven by n_ph cavity photons."""
    gamma, _ = _decay(purcell, emitter)
    gamma2 = gamma / 2.0 + emitter.gamma_d
    return gamma2 * np.sqrt(1.0 + n_ph * (g * g) / (gamma * gamma2))


def _excitation(n_ph, g, purcell, detuning, emitter, duration):
    """Excited population after the drive, decay rate, cavity branching."""
    gamma, eta = _decay(purcell, emitter)
    p_exc = pulse_excitation(np.sqrt(n_ph) * g, detuning, gamma,
                             emitter.gamma_d, duration)
    return p_exc, gamma, eta


def _detected(p_emit, gamma, det: DetectorConfig, decay_start):
    """Clicks per pulse from p_emit photons per pulse into the cavity mode:
    the share of the decay inside the gate, times the detection chain."""
    return p_emit * window_capture_fraction(
        gamma, det.gate_start, det.gate_duration, decay_start) * det.eta_total


def expected_linewidth(ion: IonRecord, cavity: CavityParams,
                       emitter: EmitterConstants, seq: PulseSequence) -> float:
    """Power-broadened FWHM in Hz with the cavity tracking the laser."""
    n_ph = intracavity_photon_number(seq.input_power, cavity.eta_cav,
                                     cavity.kappa, emitter.omega)
    return float(2.0 * _half_width(n_ph, ion.g, ion.purcell, emitter)
                 / TWO_PI)


def run_ple_scan(grid, ions, cavity: CavityParams,
                 emitter: EmitterConstants, seq: PulseSequence,
                 det: DetectorConfig, pulses_per_point: int,
                 seed: int | np.random.Generator, *,
                 zeeman: ZeemanConfig | None = None,
                 co_scan: bool = True,
                 cavity_drift_rate: float = 0.0,
                 background_coeff: float = 0.0) -> ScanResult:
    """Pulsed excitation scan over laser frequency.

    Every grid point runs pulses_per_point cycles: excite, gate, count.
    ions is one IonRecord or an ensemble record array.  With co_scan the
    cavity is servoed to the laser (plus cavity_drift_rate, Hz/s); with a
    fixed cavity the intracavity drive and each ion's enhancement roll off
    with the respective detunings.  Ions are Bernoulli click sources, dark
    counts and the unresolved-ion background are Poisson, drawn from
    default_rng(seed), which returns a Generator seed as it is.

    The points are taken in sorted order, a block at a time that ends
    before its candidate (point, line) pairs pass _PAIR_BLOCK, so memory
    follows the points plus one block.  A point's candidates are the run
    of ions, in line-centre order (f0, then index), whose lines reach its
    window, each ion's lines in frequency order; so a (point, ion) group
    is a run of pairs inside one block, and a block needs no sort.  The
    stream is the same at any block size: every group's clicks in (point,
    line centre) order, then every point's background, both in sorted
    point order.  A group sums its in-window lines' click probabilities in
    frequency order and draws one binomial.
    """
    grid, by_rank = _point_grid(grid, "grid")
    f_ion = np.atleast_1d(ions.f0)
    g_ion = np.atleast_1d(ions.g)
    p_max = np.atleast_1d(ions.purcell)
    if len(f_ion) == 0:
        raise DomainError("need at least one ion: an ensemble's ppm, "
                          "density_per_m3, site1_fraction or region is too low")
    if pulses_per_point < 1:
        raise DomainError("pulses_per_point must be at least 1")
    if not np.isfinite(cavity_drift_rate):
        raise DomainError("cavity_drift_rate must be finite")
    diffs = np.diff(grid)
    if cavity_drift_rate and not (np.all(diffs > 0) or np.all(diffs < 0)):
        raise DomainError("a drifting scan must visit the grid monotonically")
    _validate_gate(seq, det)

    n_pts = len(grid)
    elapsed = np.arange(n_pts) * (pulses_per_point * seq.rep_period)
    f_cav = ((grid if co_scan else cavity.f_cav)
             + cavity_drift_rate * elapsed)
    n_ph_res = intracavity_photon_number(seq.input_power, cavity.eta_cav,
                                         cavity.kappa, emitter.omega)
    n_ph = n_ph_res / _rolloff(TWO_PI * (grid - f_cav), cavity.kappa)
    lam = _background_mean(pulses_per_point, det, background_coeff, n_ph)

    # the ions in line-centre order (stable: equal centres keep their index
    # order), one row each, and each ion's lines in frequency order.  Every
    # line sits a fixed offset from its ion's f0, so each column rises down
    # the rows
    by_f0 = np.argsort(f_ion, kind="stable")
    lines = [(f_ion, 1.0)] if zeeman is None else zeeman_lines(f_ion, zeeman)
    f_line = np.stack([f for f, _ in lines], axis=1)[by_f0]
    by_freq = np.argsort(f_line, axis=1, kind="stable")
    f_line = np.take_along_axis(f_line, by_freq, axis=1)
    n_lines = f_line.shape[1]
    line_w = np.array([w for _, w in lines])[by_freq].ravel()
    # candidate window per ion, sized at full enhancement and peak drive;
    # it, g and the Purcell factor are repeated for each of the ion's lines
    cut_ion = (CUTOFF_HALFWIDTHS * _half_width(n_ph.max(), g_ion, p_max,
                                               emitter) / TWO_PI)[by_f0]
    cut_hz, g_line, p_line = (np.repeat(a, n_lines) for a in
                              (cut_ion, g_ion[by_f0], p_max[by_f0]))

    # each point's candidates are the run of ions whose lines reach within
    # max_cut of it, every line of each; a block of points in rank order
    # ends before its candidate pairs pass _PAIR_BLOCK, or holds one point
    max_cut = float(cut_ion.max())
    lo = np.searchsorted(f_line[:, -1], grid[by_rank] - max_cut)
    n_cand = (np.searchsorted(f_line[:, 0], grid[by_rank] + max_cut)
              - lo) * n_lines
    ends = np.cumsum(n_cand)
    f_line = f_line.ravel()

    rng = np.random.default_rng(seed)
    source = np.empty(n_pts)
    clicks = np.empty(n_pts, dtype=np.int64)
    start = 0
    while start < n_pts:
        stop = max(start + 1, int(np.searchsorted(
            ends, ends[start] - n_cand[start] + _PAIR_BLOCK, side="right")))
        n_blk = n_cand[start:stop]
        # candidate (point, line) pairs by point, then by ion in line-centre
        # order, then by line frequency, so each candidate (point, ion)
        # group is n_lines pairs in a row; the pairs inside their window
        pt = np.repeat(by_rank[start:stop], n_blk)
        pair = np.arange(len(pt))
        ln = pair + np.repeat(lo[start:stop] * n_lines - np.cumsum(n_blk)
                              + n_blk, n_blk)
        near = np.abs(grid[pt] - f_line[ln]) <= cut_hz[ln]
        pt, ln, group = pt[near], ln[near], pair[near] // n_lines

        p_eff = p_line[ln] / _rolloff(TWO_PI * (f_line[ln] - f_cav[pt]),
                                      cavity.kappa)
        p_exc, gamma, eta = _excitation(n_ph[pt], g_line[ln], p_eff,
                                        TWO_PI * (grid[pt] - f_line[ln]),
                                        emitter, seq.excite_duration)
        p_click = _detected(line_w[ln] * p_exc * eta, gamma, det,
                            seq.excite_duration)
        # one draw a candidate group, in (rank, ion) order: a group with no
        # line in its window has p 0, and binomial(n, 0) draws nothing.
        # bincount adds in turn; a point's clicks, added as floats, are
        # exact below 2**53, which the config's limits keep them under
        group_rk = np.repeat(np.arange(stop - start), n_blk // n_lines)
        p_group = np.clip(np.bincount(group, weights=p_click,
                                      minlength=len(group_rk)), 0.0, 1.0)
        source[start:stop] = np.bincount(group_rk, weights=p_group,
                                         minlength=stop - start)
        clicks[start:stop] = np.bincount(
            group_rk, weights=rng.binomial(pulses_per_point, p_group),
            minlength=stop - start)
        start = stop
    expected, counts = np.empty(n_pts), np.empty(n_pts, dtype=np.int64)
    expected[by_rank] = lam[by_rank] + pulses_per_point * source
    counts[by_rank] = clicks + rng.poisson(lam[by_rank])
    return ScanResult(grid=grid.copy(), counts=counts,
                      expected=expected, cavity_freq=f_cav, elapsed=elapsed)


def _ion_emission(ion, cavity, emitter, seq, cavity_detuning_hz,
                  laser_detuning_hz=0.0):
    """Excitation, decay rate and cavity branching of one ion at each of an
    array of cavity detunings, the laser laser_detuning_hz from its line."""
    roll = _rolloff(TWO_PI * np.asarray(cavity_detuning_hz, dtype=float),
                    cavity.kappa)
    n_ph = intracavity_photon_number(seq.input_power, cavity.eta_cav,
                                     cavity.kappa, emitter.omega) / roll
    return _excitation(n_ph, ion.g, ion.purcell / roll,
                       TWO_PI * laser_detuning_hz, emitter, seq.excite_duration)


def _ion_model(ion, cavity, emitter, seq, det, cavity_detuning_hz=0.0,
               laser_detuning_hz=0.0) -> EmissionModel:
    """One driven ion's click model, its gate checked against the drive."""
    _validate_gate(seq, det)
    (p_exc,), (gamma,), (eta,) = (v.tolist() for v in _ion_emission(
        ion, cavity, emitter, seq, [cavity_detuning_hz], laser_detuning_hz))
    return EmissionModel(p_excited=p_exc, gamma=gamma, eta_into_cavity=eta,
                         decay_start=seq.excite_duration)


def _gate_histogram(t, det: DetectorConfig, n_bins: int):
    """Click arrival times binned across the gate: (bin mids, counts)."""
    edges = np.linspace(det.gate_start, det.gate_start + det.gate_duration,
                        n_bins + 1)
    counts, _ = np.histogram(t, bins=edges)
    return 0.5 * (edges[:-1] + edges[1:]), counts


@dataclass
class LifetimeResult:
    stream: ClickStream
    bin_mids: np.ndarray
    bin_counts: np.ndarray
    gamma: float        # decay rate used by the simulation
    p_excited: float


def run_lifetime(ion: IonRecord, cavity: CavityParams,
                 emitter: EmitterConstants, seq: PulseSequence,
                 det: DetectorConfig, n_pulses: int, seed: int, *,
                 laser_detuning_hz: float = 0.0,
                 cavity_detuning_hz: float = 0.0,
                 background_per_pulse: float = 0.0,
                 n_bins: int = 64) -> LifetimeResult:
    """Time-tag the gated decay after each excitation pulse."""
    emission = _ion_model(ion, cavity, emitter, seq, det, cavity_detuning_hz,
                          laser_detuning_hz)
    stream = simulate_clicks(
        emission, det, n_pulses, np.random.default_rng(seed),
        rep_period=seq.rep_period,
        background_per_pulse=background_per_pulse, seed=seed)
    mids, bin_counts = _gate_histogram(stream.t_in_pulse, det, n_bins)
    return LifetimeResult(stream=stream, bin_mids=mids,
                          bin_counts=bin_counts, gamma=float(emission.gamma),
                          p_excited=float(emission.p_excited))


def fit_lifetime(result: LifetimeResult) -> FitResult:
    """Exponential fit of the binned decay, by Poisson likelihood; tau is
    in seconds."""
    x = result.bin_mids - result.bin_mids[0]
    return fit_model(EXPONENTIAL, x, result.bin_counts.astype(float),
                     poisson=True)


# histogram bins per batched lifetime fit: bounds the fit's working arrays
# (a block is this many bins' worth of rows, and at least one row)
_FIT_BLOCK = 1 << 14


@dataclass
class CavitySweepResult:
    detuning_hz: np.ndarray
    gamma_fit: np.ndarray
    gamma_err: np.ndarray
    gamma_expected: np.ndarray
    purcell_fit: np.ndarray
    converged: np.ndarray


def run_cavity_sweep(ion: IonRecord, cavity: CavityParams,
                     emitter: EmitterConstants, seq: PulseSequence,
                     detunings_hz, pulses_per_point: int, seed: int, *,
                     eta_total: float = 0.04,
                     dark_rate: float = 0.0,
                     dead_time: float = 0.0,
                     n_bins: int = 48,
                     gate_factor: float = 6.0) -> CavitySweepResult:
    """Lifetime versus cavity-ion detuning, laser parked on the ion.

    The gate opens as the drive ends and lasts gate_factor expected
    lifetimes, so every point resolves its own decay; each point's gate
    histogram is fit for gamma by Poisson likelihood.  The emission of the
    whole grid is computed at once, each point's as a one-point call gives
    it, bit for bit, since every square is an IEEE product.  The histograms
    come from one default_rng(seed), with the points in sorted order
    (rank): drawn directly without dead time (_drawn_histograms), from
    every click with it (_clicked_histograms).  They are fitted a block of
    ranks at a time as one batch (fit_models), each exactly as a fit of its
    own.  A failed or unconverged fit, or a gamma_err not below gamma, is a
    NaN row.
    """
    detunings, order = _point_grid(detunings_hz, "detunings")
    if not 0 < gate_factor <= 1000:  # past ~20 lifetimes a gate sees no decay
        raise DomainError(f"gate_factor must lie in (0, 1000], got {gate_factor}")

    gamma_fit = np.full(len(detunings), np.nan)
    gamma_err = np.full(len(detunings), np.nan)
    converged = np.zeros(len(detunings), dtype=bool)
    det = DetectorConfig(eta_total=eta_total, dark_rate=dark_rate,
                         dead_time=dead_time)
    p_exc, gamma_expected, eta = _ion_emission(ion, cavity, emitter, seq,
                                               detunings)
    # the longest gate, gate_factor lifetimes, holds the most dark counts
    dark = dark_rate * (gate_factor / gamma_expected.min()) * pulses_per_point
    if not dark <= MAX_BACKGROUND_CLICKS:
        raise DomainError(f"more than {MAX_BACKGROUND_CLICKS:,} dark counts "
                          "in a sweep point's gate: lower dark_rate, "
                          "gate_factor or pulses_per_point, or raise gamma0")
    p_exc, gamma, eta = p_exc[order], gamma_expected[order], eta[order]
    gate = gate_factor / gamma
    rng = np.random.default_rng(seed)
    block = max(1, _FIT_BLOCK // n_bins)
    if dead_time > 0:
        hists = _clicked_histograms(rng, seq, det, p_exc, gamma, eta,
                                    pulses_per_point, n_bins, gate_factor,
                                    block)
    else:
        hists = _drawn_histograms(rng, pulses_per_point,
                                  p_exc * eta * eta_total,
                                  dark_rate * gate * pulses_per_point,
                                  n_bins, gate_factor, block)
    for start, hist in zip(range(0, len(detunings), block), hists):
        # bin mids, from the gate's opening
        mids = ((np.arange(n_bins) + 0.5)
                * (gate[start:start + block, None] / n_bins))
        fits = fit_models(EXPONENTIAL, mids, hist, poisson=True)
        if not fits.converged.any():  # n_bins may leave no second bin
            continue
        # a refused (NaN) or collapsed fit (tau ~ 0, a wild stderr), and one
        # on a flat likelihood (a gamma its stderr reaches), are NaN rows
        tau = fits.params[:, 1]
        with np.errstate(all="ignore"):
            err = fits.stderr[:, 1] / (tau * tau)
            ok = (fits.converged & (tau > mids[:, 1] - mids[:, 0])
                  & (err < 1.0 / tau))
        k = order[start:start + block][ok]
        gamma_fit[k], gamma_err[k], converged[k] = 1.0 / tau[ok], err[ok], True
    purcell = gamma_fit / emitter.gamma0 - 1.0
    return CavitySweepResult(detuning_hz=detunings, gamma_fit=gamma_fit,
                             gamma_err=gamma_err,
                             gamma_expected=gamma_expected,
                             purcell_fit=purcell, converged=converged)


def _drawn_histograms(rng, n_pulses, p_click, dark_mean, n_bins,
                      gate_factor, block):
    """Gate histograms, block rows at a time, drawn directly from each
    point's click probability a pulse and mean dark counts a gate.

    This is the law of the click path without dead time, drawn exactly.
    The gate opens as the decay starts and lasts gate_factor lifetimes, so
    at every point a decay lands in it with probability 1 - exp(-g), and
    in bin k with exp(-k u) (1 - exp(-u)), g = gate_factor, u = g / n_bins.
    A point's gated source counts are then Binomial(n_pulses, p_click (1 -
    exp(-g))) and its dark counts Poisson(dark_mean).  Both totals are
    drawn for every point first; then each point in turn splits its source
    counts, and then its dark counts, multinomially over the bins (Devroye
    1986, ch. XI).  So the block size does not change the draw.
    """
    u = gate_factor / n_bins
    in_gate = -math.expm1(-gate_factor)
    decay_bins = -math.expm1(-u) / in_gate * np.exp(-u * np.arange(n_bins))
    split = np.stack([decay_bins, np.full(n_bins, 1.0 / n_bins)])
    totals = np.stack([rng.binomial(n_pulses, p_click * in_gate),
                       rng.poisson(dark_mean)], axis=1)
    for start in range(0, len(totals), block):
        yield rng.multinomial(totals[start:start + block],
                              split).sum(axis=1, dtype=float)


def _clicked_histograms(rng, seq, det, p_exc, gamma, eta, n_pulses, n_bins,
                        gate_factor, block):
    """Gate histograms of every click, block rows at a time: each point in
    turn draws its clicks, drops those its detector's dead time hides, and
    bins the rest.  A point's gate opens as its drive ends and lasts
    gate_factor lifetimes, and its pulse period ends with the gate."""
    points = list(zip(p_exc.tolist(), gamma.tolist(), eta.tolist()))
    for start in range(0, len(points), block):
        rows = points[start:start + block]
        hist = np.empty((len(rows), n_bins))
        for j, (p, g, e) in enumerate(rows):
            det_k = replace(det, gate_start=seq.excite_duration,
                            gate_duration=gate_factor / g)
            stream = simulate_clicks(
                EmissionModel(p, g, e, decay_start=seq.excite_duration),
                det_k, n_pulses, rng,
                rep_period=seq.excite_duration + det_k.gate_duration)
            _, hist[j] = _gate_histogram(stream.t_in_pulse, det_k, n_bins)
        yield hist


def fit_enhancement(result: CavitySweepResult) -> FitResult:
    """Lorentzian fit of enhancement versus cavity detuning, by 1 / sigma^2."""
    ok = result.converged
    if np.count_nonzero(ok) < 5:
        raise FitError("too few converged sweep points")
    sigma = (1.0 + result.purcell_fit) * result.gamma_err / result.gamma_fit
    return fit_model(LORENTZIAN, result.detuning_hz[ok],
                     result.purcell_fit[ok], weights=1.0 / sigma[ok] ** 2)


@dataclass
class SaturationResult:
    powers: np.ndarray
    on_counts: np.ndarray
    off_counts: np.ndarray
    expected_on: np.ndarray
    expected_off: np.ndarray


def run_saturation_series(ion: IonRecord, cavity: CavityParams,
                          emitter: EmitterConstants, powers,
                          det: DetectorConfig, pulses_per_point: int,
                          seed: int, *,
                          excite_duration: float = 10e-6,
                          rep_period: float = 100e-6,
                          off_detuning_hz: float = 200e6,
                          background_coeff: float = 0.0) -> SaturationResult:
    """Peak and off-resonance click totals for a ladder of drive powers."""
    powers, order = _point_grid(powers, "powers")
    if np.any(powers < 0):
        raise DomainError("powers must be non-negative")
    # one drive timing for every power
    _validate_gate(PulseSequence(0.0, excite_duration, rep_period), det)

    n_ph = intracavity_photon_number(powers, cavity.eta_cav, cavity.kappa,
                                     emitter.omega)
    # row 0 with the laser on the ion, row 1 off_detuning_hz from it
    detuning = np.array([[0.0], [TWO_PI * off_detuning_hz]])
    p_exc, gamma, eta = _excitation(n_ph, ion.g, ion.purcell, detuning,
                                    emitter, excite_duration)
    p_click = _detected(p_exc * eta, gamma, det, excite_duration)
    lam = _background_mean(pulses_per_point, det, background_coeff, n_ph)
    # one stream per run, in rank order: the on row's clicks, the off
    # row's, then the background of both rows
    rng = np.random.default_rng(seed)
    counts = np.empty(p_click.shape, dtype=np.int64)
    counts[:, order] = (rng.binomial(pulses_per_point, p_click[:, order])
                        + rng.poisson(lam[order], size=p_click.shape))
    expected = pulses_per_point * p_click + lam
    return SaturationResult(powers=powers, on_counts=counts[0],
                            off_counts=counts[1], expected_on=expected[0],
                            expected_off=expected[1])


@dataclass
class G2Result:
    offsets: np.ndarray
    g2: np.ndarray
    stderr: np.ndarray
    floor_predicted: float
    signal_per_pulse: float
    background_per_pulse: float
    stream: ClickStream


def run_g2(ion: IonRecord, cavity: CavityParams, emitter: EmitterConstants,
           seq: PulseSequence, det: DetectorConfig, n_pulses: int,
           seed: int, *,
           blink: BlinkConfig | None = None,
           background_per_pulse: float = 0.0,
           max_offset: int = 10) -> G2Result:
    """Pulse-wise autocorrelation of one driven ion."""
    emission = _ion_model(ion, cavity, emitter, seq, det)
    stream = simulate_clicks(
        emission, det, n_pulses, np.random.default_rng(seed),
        rep_period=seq.rep_period, blink=blink,
        background_per_pulse=background_per_pulse, seed=seed)
    if not len(stream):  # a numeric outcome, not a bad input
        raise FitError(f"no click in {n_pulses} pulses: g2 is undefined")
    offsets, g2, stderr = g2_pulsed(stream, max_offset)
    signal = float(_detected(emission.p_excited * emission.eta_into_cavity,
                             emission.gamma, det, seq.excite_duration))
    if blink is not None:
        signal *= blink.p_bright
    background = det.dark_rate * det.gate_duration + background_per_pulse
    floor = g2_background_floor(signal / background) if background > 0 else 0.0
    return G2Result(offsets=offsets, g2=g2, stderr=stderr,
                    floor_predicted=float(floor), signal_per_pulse=signal,
                    background_per_pulse=float(background), stream=stream)


@dataclass
class ZeemanSeriesResult:
    b_values: np.ndarray
    splittings: np.ndarray
    predicted: np.ndarray
    slope_fit: FitResult


def run_zeeman_series(ion: IonRecord, cavity: CavityParams,
                      emitter: EmitterConstants, seq: PulseSequence,
                      det: DetectorConfig, b_values, seed: int, *,
                      pulses_per_point: int,
                      zeeman_base: ZeemanConfig | None = None
                      ) -> ZeemanSeriesResult:
    """Measure the line splitting at several applied fields along x.

    Each field value gets its own small scan, drawn in turn from one
    default_rng(seed).  A doublet (two Lorentzians at mid -+ split / 2
    sharing width and offset) is fitted by Poisson likelihood to the
    scan's raw counts, started at the two strongest peaks the peak counter
    finds; the splitting and its stderr come from the doublet's covariance.
    A field fails when the counter finds fewer than two peaks, when the fit
    is refused or unconverged (a stderr that is not finite and positive
    makes it so) or puts mid outside the scan, or when the fitted split
    (signed: a negative one swapped the lines) is below 1.5 FWHM.  That
    floor sits between what one unresolved line fitted as a doublet reads
    (about 1.1 FWHM at 0 T and the default 1 G offset, where the lines are
    0.17 FWHM apart) and the smallest splitting it measures well (1.9 FWHM
    at 1 mT).  A linear fit of splitting versus field by 1 / sigma^2 gives
    slope and intercept.
    """
    b_values = np.ascontiguousarray(b_values, dtype=float)
    if b_values.ndim != 1 or len(b_values) < 3:
        raise DomainError("need at least three fields in b_values")
    base = zeeman_base if zeeman_base is not None else ZeemanConfig()
    fwhm = expected_linewidth(ion, cavity, emitter, seq)
    predicted, splittings, errs = np.empty((3, len(b_values)))
    rng = np.random.default_rng(seed)
    step = fwhm / 6.0
    for i, b in enumerate(b_values):
        cfg = replace(base, b_applied=(float(b), 0.0, 0.0))
        predicted[i] = zeeman_splitting(cfg)
        span = max(8.0 * fwhm, 1.3 * predicted[i] + 8.0 * fwhm)
        _check_grid_size(span / step + 1.0, "fields, b_offset, delta_g", (
            f"the scan at {b:g} T, splitting over linewidth (gamma0, "
            "gamma_dephasing, purcell, power),"))
        n_half = int(math.ceil(span / 2.0 / step))
        grid = _spaced(ion.f0 + np.arange(-n_half, n_half + 1) * step,
                       f"[ion] offset: the scan at {b:g} T steps below the "
                       "float spacing at the line centre (frequency, offset;"
                       " gamma0, gamma_dephasing, purcell, power)")
        scan = run_ple_scan(grid, ion, cavity, emitter, seq, det,
                            pulses_per_point, rng, zeeman=cfg)
        baseline = float(np.median(scan.counts))
        peaks = count_peaks(grid, scan.counts - baseline, width=fwhm,
                            noise_sigma=math.sqrt(max(baseline, 1.0)))
        if peaks.count < 2:
            raise FitError(f"splitting unresolved at B = {b} T")
        top = np.sort(np.argsort(peaks.amplitudes)[-2:])  # in centre order
        (a_lo, a_hi), (lo, hi) = peaks.amplitudes[top], peaks.centers[top]
        x = grid - ion.f0
        start = [a_lo, a_hi, (lo + hi) / 2.0 - ion.f0, hi - lo, fwhm, baseline]
        try:
            fit = fit_model(DoubletModel(start), x, scan.counts, poisson=True)
        except FitError:
            raise FitError(f"line fit failed at B = {b} T") from None
        splittings[i], errs[i] = fit.params["split"], fit.stderr["split"]
        if not (fit.converged and x[0] <= fit.params["mid"] <= x[-1]):
            raise FitError(f"line fit failed at B = {b} T")
        if not splittings[i] >= 1.5 * fwhm:
            raise FitError(f"splitting unresolved at B = {b} T")
    slope_fit = fit_model(LINEAR, b_values, splittings, weights=1.0 / errs ** 2)
    return ZeemanSeriesResult(b_values=b_values, splittings=splittings,
                              predicted=predicted, slope_fit=slope_fit)


# The ensemble draw's spawn key.
_ENSEMBLE_STREAM = 2**32


# Grids derived from a span and a step are refused above this size before
# anything is allocated: about 100x the largest scan in use (10,001 points).
MAX_GRID_POINTS = 1_000_000


def _check_grid_size(n_points: float, where: str,
                     grid: str = "the grid") -> None:
    if not n_points <= MAX_GRID_POINTS:
        raise ConfigError(f"{where}: {grid} would hold {n_points:.3g} "
                          f"points, more than {MAX_GRID_POINTS:,}")


def _spaced(grid: np.ndarray, error: str) -> np.ndarray:
    """grid; ConfigError(error) if float spacing merges or drops points."""
    if not len(grid) or np.any(grid[1:] <= grid[:-1]):
        raise ConfigError(error)
    return grid


def scan_grid(cfg: RunConfig) -> np.ndarray:
    """[scan] laser grid: symmetric around the centre, masked intervals
    removed."""
    span, step = cfg["scan", "span"], cfg["scan", "step"]
    if step <= 0 or span <= 0:
        raise ConfigError("[scan]: span and step must be positive")
    _check_grid_size(span / step + 1.0, "[scan] step", "the span / step grid")
    n_half = int(round(span / 2.0 / step))
    offsets = np.arange(-n_half, n_half + 1) * step
    keep = np.ones(len(offsets), dtype=bool)
    for lo, hi in cfg["scan", "mask"]:
        keep &= ~((offsets >= lo) & (offsets <= hi))
    if not np.any(keep):
        raise ConfigError("[scan]: mask removes every grid point")
    centre = cfg.cavity.f_cav + cfg["scan", "center_offset"]
    return _spaced(centre + offsets[keep], "[scan] step: below the float "
                   "spacing at the scan centre (frequency, center_offset)")


def temperature_grid(cfg: RunConfig) -> np.ndarray:
    """[spin_t1] temp_grid expanded, both ends included."""
    start, stop, step = cfg["spin_t1", "temp_grid"]
    _check_grid_size((stop - start) / step + 1.0, "[spin_t1] temp_grid")
    return _spaced(np.arange(start, stop + step / 2.0, step),
                   "[spin_t1] temp_grid: step below the float spacing")


# Each experiment below returns (columns, header, click stream or None).
# The CLI adds config_hash to the header: last, unless the header already
# holds a "config_hash" slot; a table's key order is part of its bytes.

def _ple(cfg: RunConfig):
    if cfg["ensemble", "enabled"]:
        rng = np.random.default_rng(np.random.SeedSequence(
            entropy=cfg.seed, spawn_key=(_ENSEMBLE_STREAM,)))
        try:
            ions = sample_ensemble(cfg.ensemble, cfg.cavity, cfg.emitter, rng,
                                   cfg.envelope)
        except DomainError:  # a drawn line centre at or below 0 Hz
            raise ConfigError(
                "[cavity] frequency, [ensemble] center_offset, [ensemble] "
                "sigma: a sampled line centre is not positive; the spread "
                "is too wide for the centre frequency") from None
    else:
        ions = cfg.ion
    res = run_ple_scan(scan_grid(cfg), ions, cfg.cavity, cfg.emitter,
                       cfg.sequence, cfg.detector,
                       cfg["scan", "pulses_per_point"], cfg.seed,
                       co_scan=cfg["scan", "co_scan"],
                       cavity_drift_rate=cfg["scan", "drift"],
                       background_coeff=cfg["scan", "background_coeff"])
    # frequencies relative to origin_hz, the first grid value, so that 12
    # significant digits keep sub-Hz resolution
    origin = float(res.grid[0])
    cols = [("laser_offset_hz", res.grid - origin), ("counts", res.counts),
            ("expected", res.expected),
            ("cavity_offset_hz", res.cavity_freq - origin),
            ("elapsed_s", res.elapsed)]
    return cols, {"axis": "laser_frequency",
                  "pulses_per_point": cfg["scan", "pulses_per_point"],
                  "seed": cfg.seed, "origin_hz": repr(origin),
                  "config_hash": None, "n_ions": np.size(ions.f0)}, None


def _lifetime(cfg: RunConfig):
    res = run_lifetime(cfg.ion, cfg.cavity, cfg.emitter, cfg.sequence,
                       cfg.detector, cfg["lifetime", "n_pulses"], cfg.seed,
                       laser_detuning_hz=cfg["lifetime", "laser_detuning"],
                       cavity_detuning_hz=cfg["lifetime", "cavity_detuning"],
                       background_per_pulse=cfg["lifetime",
                                                "background_per_pulse"],
                       n_bins=cfg["lifetime", "n_bins"])
    cols = [("time_s", res.bin_mids), ("counts", res.bin_counts)]
    return cols, {"gamma_true": res.gamma, "p_excited": res.p_excited,
                  "seed": cfg.seed}, res.stream


def _cavity_sweep(cfg: RunConfig):
    span, n = cfg["cavity_sweep", "span"], cfg["cavity_sweep", "n_points"]
    if span == 0 and n > 1:
        raise ConfigError("[cavity_sweep] span: must be non-zero for n_points > 1")
    # a single point sits on resonance rather than at the lower edge
    detunings = (np.linspace(-span / 2.0, span / 2.0, n) if n > 1
                 else np.zeros(1))
    res = run_cavity_sweep(cfg.ion, cfg.cavity, cfg.emitter, cfg.sequence,
                           detunings, cfg["cavity_sweep", "pulses_per_point"],
                           cfg.seed, eta_total=cfg.detector.eta_total,
                           dark_rate=cfg.detector.dark_rate,
                           dead_time=cfg.detector.dead_time,
                           n_bins=cfg["cavity_sweep", "n_bins"],
                           gate_factor=cfg["cavity_sweep", "gate_factor"])
    cols = [("cavity_detuning_hz", res.detuning_hz),
            ("gamma_fit", res.gamma_fit), ("gamma_err", res.gamma_err),
            ("gamma_expected", res.gamma_expected),
            ("purcell_fit", res.purcell_fit)]
    return cols, {"pulses_per_point": cfg["cavity_sweep", "pulses_per_point"],
                  "seed": cfg.seed}, None


def _saturation(cfg: RunConfig):
    p_min = cfg["saturation", "power_min"]
    p_max = cfg["saturation", "power_max"]
    if not 0 < p_min < p_max:
        raise ConfigError("[saturation]: need 0 < power_min < power_max")
    powers = np.geomspace(p_min, p_max, cfg["saturation", "n_points"])
    res = run_saturation_series(cfg.ion, cfg.cavity, cfg.emitter, powers,
                                cfg.detector, cfg["scan", "pulses_per_point"],
                                cfg.seed,
                                excite_duration=cfg.sequence.excite_duration,
                                rep_period=cfg.sequence.rep_period,
                                off_detuning_hz=cfg["saturation",
                                                    "off_detuning"],
                                background_coeff=cfg["scan",
                                                     "background_coeff"])
    cols = [("input_power_w", res.powers), ("on_counts", res.on_counts),
            ("off_counts", res.off_counts), ("expected_on", res.expected_on),
            ("expected_off", res.expected_off)]
    return cols, {"pulses_per_point": cfg["scan", "pulses_per_point"],
                  "seed": cfg.seed}, None


def _zeeman(cfg: RunConfig):
    res = run_zeeman_series(cfg.ion, cfg.cavity, cfg.emitter, cfg.sequence,
                            cfg.detector, np.asarray(cfg["zeeman", "fields"]),
                            cfg.seed, zeeman_base=cfg.zeeman,
                            pulses_per_point=cfg["zeeman", "pulses_per_point"])
    cols = [("b_field_t", res.b_values), ("splitting_hz", res.splittings),
            ("predicted_hz", res.predicted)]
    p, err = res.slope_fit.params, res.slope_fit.stderr
    return cols, {"slope_hz_per_t": p["slope"], "intercept_hz": p["intercept"],
                  "slope_err_hz_per_t": err["slope"],
                  "intercept_err_hz": err["intercept"]}, None


def _g2(cfg: RunConfig):
    blink = (BlinkConfig(p_bright=cfg["g2", "p_bright"],
                         switch_time=cfg["g2", "switch_time"])
             if cfg["g2", "blink"] else None)
    if cfg["g2", "max_offset"] > cfg["g2", "n_pulses"] - 2:  # before drawing
        raise ConfigError("[g2] max_offset: must be at most n_pulses - 2, "
                          f"got max_offset {cfg['g2', 'max_offset']} and "
                          f"n_pulses {cfg['g2', 'n_pulses']}")
    res = run_g2(cfg.ion, cfg.cavity, cfg.emitter, cfg.sequence,
                 cfg.detector, cfg["g2", "n_pulses"], cfg.seed,
                 blink=blink,
                 background_per_pulse=cfg["g2", "background_per_pulse"],
                 max_offset=cfg["g2", "max_offset"])
    cols = [("offset", res.offsets), ("g2", res.g2), ("stderr", res.stderr)]
    return cols, {"floor_predicted": res.floor_predicted,
                  "signal_per_pulse": res.signal_per_pulse,
                  "background_per_pulse": res.background_per_pulse,
                  "seed": cfg.seed}, res.stream


def _spin_t1(cfg: RunConfig):
    temps = temperature_grid(cfg)
    nu_ghz = cfg["spin_t1", "nu"] / 1e9
    if not nu_ghz > 0:
        raise ConfigError("[spin_t1] nu: must be positive")
    t1 = spin_t1(SpinRelaxParams(
        temperature=temps, spin_splitting=nu_ghz,
        a_direct=cfg["spin_t1", "a_direct"],
        a_raman=cfg["spin_t1", "a_raman"],
        a_orbach=cfg["spin_t1", "a_orbach"],
        delta_orbach=cfg["spin_t1", "delta_orbach"]))
    cols = [("temperature_k", temps), ("rate_per_s", t1.rate),
            ("t1_s", t1.seconds)]
    return cols, {"config_hash": None, "nu_ghz": nu_ghz, "seed": cfg.seed}, None


def _purcell_stats(cfg: RunConfig):
    for key in ("fraction_min", "fraction_max"):
        if not 0 < cfg["purcell_stats", key] <= 1:
            raise ConfigError(f"[purcell_stats] {key}: must lie in (0, 1]")
    fracs = np.linspace(cfg["purcell_stats", "fraction_min"],
                        cfg["purcell_stats", "fraction_max"],
                        cfg["purcell_stats", "n_points"])
    counts = ions_above_purcell(cfg.ensemble, cfg.cavity, fracs,
                                envelope=cfg.envelope)
    cols = [("p_star_fraction", fracs), ("expected_count", counts)]
    return cols, {"config_hash": None, "seed": cfg.seed}, None


# The one list of experiment names; each also names the data table.
EXPERIMENTS = {"ple": _ple, "lifetime": _lifetime,
               "cavity_sweep": _cavity_sweep, "saturation": _saturation,
               "zeeman": _zeeman, "g2": _g2, "spin_t1": _spin_t1,
               "purcell_stats": _purcell_stats}
