"""Driven two-level dynamics and spin relaxation.

The optical Bloch equations in the frame rotating at the laser frequency,
with rho_ge = u + i v and gamma2 = gamma/2 + gamma_d:

    d rho_ee / dt = -gamma rho_ee - Omega v
    d rho_ge / dt = -(gamma2 + i delta) rho_ge + i (Omega/2) (2 rho_ee - 1)

All rates are angular (rad/s).  evolve_bloch integrates with fixed-step RK4
at step min(dt_max, 1/(50 max_rate)), max_rate the largest of gamma, gamma2
and sqrt(Omega^2 + delta^2), and is the reference the fast path is tested
against.  At its default step it agrees with the exact solution to
1e-7 only up to about 100 rad of generalized Rabi angle
sqrt(Omega^2 + delta^2) T, the limit tests/test_oracle.py uses
(RK4_MAX_ANGLE); past it RK4 drifts, by 1.6e-7 at Omega = 1e6 rad/s,
T = 1 ms.

pulse_excitation, the fast path used by scans, solves the same linear
system exactly from the ground state in closed form: the solution is a sum
over the roots of the system's characteristic cubic (Torrey, Phys. Rev. 76,
1059 (1949)), written through divided differences of the exponential, which
stay finite and accurate as roots meet.  The terms of the root pair c +- nu,
the optical coherence, all carry the decay of its slower exponent,
e^{(c + nu) T} for a real pair and e^{cT} for a complex one.  A pulse that
outlasts the coherence many times over (gamma2 T above about 40; the
default dephasing gives ~195 over a 10 us pulse) damps them below half an
ulp of every partial sum they would enter, which a per-pair bound checks
(_pulse_excitation_block), and such pairs skip them with the bits of the
full form; short pulses and slow dephasing take the full form.  It solves
its line-point pairs _CHUNK at a time: each pair's result depends on that
pair alone, so any block size gives the same bits, and blocks small enough
that their temporaries stay in a core's L2 cache run faster than one call
on a PLE scan's block of up to 32,768 pairs, whose temporaries spill out
of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .constants import E_CHARGE, HBAR, K_BOLTZMANN, H_PLANCK
from .errors import DomainError, IntegrationError

_BOUND_TOL = 1e-9
_MAX_REFINEMENTS = 6
_MAX_STEPS = 10_000_000  # RK4 steps per pass: ~20 s of pure Python
# line-point pairs per block in pulse_excitation, sized for L2: at most ~20
# arrays of 8 bytes a pair are live at once in a block (18 where the pair
# terms are dropped), 1.3 MB at 8,192 pairs, within a 2 MB per-core L2.  On
# a 2-core Xeon with 2 MB L2 per core, the ensemble_ple benchmark ran about
# as fast at 4,096 (0.2 MB less peak RSS) as at 8,192, and slower at 16,384
# and 32,768 (1.7 and 4.0 MB more); 4,096 made one call on 1e6 pairs 6-8%
# slower (twice the calls)
_CHUNK = 8_192
_NEWTON_MAX = 100  # cap on _real_root's steps; a triple root takes ~30
_TAYLOR_TERMS = 19  # h_k / (k + 2)! < 1e-17 beyond this on _exp3's series
# _pulse_excitation_block drops a pair's terms where they are below 2^-56 of
# every partial sum they enter: half the spacing of the floats next to a
# normal x is at least 2^-54 |x|, so they cannot move its bits, with a
# factor 4 to spare for the rounding of the terms and of the bound
_DROP = 2.0 ** -56
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class BlochState:
    """Density-matrix state (rho_ee, Re rho_ge, Im rho_ge)."""

    rho_ee: float
    coh_re: float
    coh_im: float

    def __post_init__(self):
        if not all(np.isfinite(v) for v in (self.rho_ee, self.coh_re, self.coh_im)):
            raise DomainError("Bloch state components must be finite")
        if not -_BOUND_TOL <= self.rho_ee <= 1.0 + _BOUND_TOL:
            raise DomainError(f"rho_ee = {self.rho_ee} outside [0, 1]")
        # round-off from integration may poke out by < _BOUND_TOL; clamp it
        object.__setattr__(self, "rho_ee", min(max(self.rho_ee, 0.0), 1.0))
        mag_sq = self.coh_re**2 + self.coh_im**2
        if mag_sq > self.rho_ee * (1.0 - self.rho_ee) + _BOUND_TOL:
            raise DomainError("coherence exceeds the population bound")


GROUND = BlochState(0.0, 0.0, 0.0)


@dataclass(frozen=True)
class DriveParams:
    """Constant drive seen by one emitter."""

    omega_rabi: float   # rad/s
    detuning: float     # laser minus transition, rad/s
    gamma: float        # total population decay, rad/s
    gamma_d: float      # pure dephasing, rad/s

    def __post_init__(self):
        if not (self.gamma > 0 and np.isfinite(self.gamma)):
            raise DomainError(f"gamma must be positive, got {self.gamma}")
        if self.omega_rabi < 0 or not np.isfinite(self.omega_rabi):
            raise DomainError(f"omega_rabi must be non-negative, got {self.omega_rabi}")
        if self.gamma_d < 0 or not np.isfinite(self.gamma_d):
            raise DomainError(f"gamma_d must be non-negative, got {self.gamma_d}")
        if not np.isfinite(self.detuning):
            raise DomainError("detuning must be finite")

    @property
    def gamma2(self) -> float:
        return self.gamma / 2.0 + self.gamma_d


@dataclass(frozen=True)
class SpinRelaxParams:
    """Ground-state spin relaxation inputs (practical units)."""

    temperature: float | np.ndarray  # K, one value or an array
    spin_splitting: float        # GHz
    a_direct: float = 5.0e-5     # s^-1 GHz^-5
    a_raman: float = 1.3e-3      # s^-1 K^-9
    a_orbach: float = 2.5e10     # s^-1
    delta_orbach: float = 6.4    # meV

    def __post_init__(self):
        if not (np.all(np.asarray(self.temperature) > 0)
                and self.spin_splitting > 0):
            raise DomainError("temperature and spin_splitting must be positive")
        if any(c < 0 for c in (self.a_direct, self.a_raman, self.a_orbach)):
            raise DomainError("a_direct, a_raman and a_orbach must be "
                              "non-negative")
        if self.delta_orbach <= 0:
            raise DomainError("delta_orbach must be positive")


class SpinT1(NamedTuple):
    seconds: float | np.ndarray
    underflow: bool | np.ndarray  # True where every channel gave zero rate
    rate: float | np.ndarray      # s^-1, from spin_relaxation_rate


@dataclass
class BlochTrajectory:
    """Sampled solution of the Bloch equations, including the final state."""

    times: np.ndarray
    rho_ee: np.ndarray
    coh_re: np.ndarray
    coh_im: np.ndarray

    @property
    def final(self) -> BlochState:
        return BlochState(float(self.rho_ee[-1]), float(self.coh_re[-1]),
                          float(self.coh_im[-1]))


def intracavity_photon_number(p_in, eta_cav, kappa, omega):
    """Mean photon number 4 eta_cav (P_in / hbar omega) / kappa on resonance."""
    if not 0.0 <= eta_cav <= 1.0:
        raise DomainError(f"eta_cav must lie in [0, 1], got {eta_cav}")
    if not (kappa > 0 and omega > 0):
        raise DomainError("kappa and omega must be positive")
    p_in = np.asarray(p_in, dtype=float)
    if not np.all(np.isfinite(p_in)) or np.any(p_in < 0):
        raise DomainError("input power must be non-negative")
    return 4.0 * eta_cav * (p_in / (HBAR * omega)) / kappa


def steady_state(drive: DriveParams) -> BlochState:
    """Closed-form fixed point of the driven-damped Bloch equations."""
    rho, u, v = _steady_arrays(drive.omega_rabi, drive.detuning, drive.gamma,
                               drive.gamma2)
    return BlochState(float(rho), float(u), float(v))


def _steady_arrays(omega, delta, gamma, gamma2):
    omega = np.asarray(omega, dtype=float)
    delta = np.asarray(delta, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    gamma2 = np.asarray(gamma2, dtype=float)
    denom = omega**2 * gamma2 + gamma * (delta**2 + gamma2**2)
    rho = 0.5 * omega**2 * gamma2 / denom
    # = Omega (2 rho - 1) / (2 (gamma2^2 + delta^2)), without the cancellation
    # in 2 rho - 1 under a drive far above saturation
    scale = -0.5 * omega * gamma / denom
    return rho, scale * delta, scale * gamma2


def _step_limit(dt_max, omega, delta, gamma, gamma2):
    max_rate = max(gamma, gamma2, math.hypot(omega, delta))
    if max_rate <= 0.0:
        return dt_max
    return min(dt_max, 1.0 / (50.0 * max_rate))


def evolve_bloch(state: BlochState, drive: DriveParams, duration: float,
                 dt_max: float = 1e-6, max_samples: int = 2048) -> BlochTrajectory:
    """Integrate from `state` under constant drive for `duration` seconds.

    Fixed-step fourth-order Runge-Kutta; the step honours both dt_max and
    the stiffest rate in the system.  If the sampled state ever leaves the
    physical region the step is halved and the integration restarted, a few
    times, before giving up with IntegrationError.  At the default step the
    result is within 1e-7 of the exact solution only up to about 100 rad of
    generalized Rabi angle sqrt(Omega^2 + delta^2) * duration; past that it
    drifts (1.6e-7 at Omega = 1e6 rad/s, duration = 1 ms).
    """
    if duration < 0 or not np.isfinite(duration):
        raise DomainError(f"duration must be non-negative, got {duration}")
    if dt_max <= 0 or not np.isfinite(dt_max):
        raise DomainError(f"dt_max must be positive, got {dt_max}")
    if duration == 0.0:
        point = np.array([0.0])
        return BlochTrajectory(point, np.array([state.rho_ee]),
                               np.array([state.coh_re]), np.array([state.coh_im]))

    dt_cap = _step_limit(dt_max, drive.omega_rabi, drive.detuning, drive.gamma,
                         drive.gamma2)
    if not duration / dt_cap <= _MAX_STEPS:
        raise IntegrationError(f"{duration / dt_cap:.3g} RK4 steps needed "
                               f"(drive={drive}), more than {_MAX_STEPS:,}")
    for refinement in range(_MAX_REFINEMENTS + 1):
        trajectory = _rk4_run(state, drive, duration, dt_cap / (2.0**refinement),
                              max_samples)
        if trajectory is not None:
            return trajectory
    raise IntegrationError(
        f"Bloch state left physical bounds even at step {dt_cap / 2.0**_MAX_REFINEMENTS:.3e} s "
        f"(drive={drive}, duration={duration})")


def _rk4_run(state, drive, duration, dt_cap, max_samples):
    n_steps = max(1, int(math.ceil(duration / dt_cap)))
    dt = duration / n_steps
    stride = max(1, int(math.ceil(n_steps / max(max_samples - 1, 1))))
    record_count = n_steps // stride + 1 + (1 if n_steps % stride else 0)
    times = np.empty(record_count)
    rho_arr = np.empty(record_count)
    u_arr = np.empty(record_count)
    v_arr = np.empty(record_count)

    omega = drive.omega_rabi
    delta = drive.detuning
    gamma = drive.gamma
    gamma2 = drive.gamma2
    rho, u, v = state.rho_ee, state.coh_re, state.coh_im

    idx = 0
    times[idx], rho_arr[idx], u_arr[idx], v_arr[idx] = 0.0, rho, u, v
    idx += 1
    half_omega = 0.5 * omega
    for step in range(1, n_steps + 1):
        k1r = -gamma * rho - omega * v
        k1u = -gamma2 * u + delta * v
        k1v = omega * rho - delta * u - gamma2 * v - half_omega

        r2 = rho + 0.5 * dt * k1r
        u2 = u + 0.5 * dt * k1u
        v2 = v + 0.5 * dt * k1v
        k2r = -gamma * r2 - omega * v2
        k2u = -gamma2 * u2 + delta * v2
        k2v = omega * r2 - delta * u2 - gamma2 * v2 - half_omega

        r3 = rho + 0.5 * dt * k2r
        u3 = u + 0.5 * dt * k2u
        v3 = v + 0.5 * dt * k2v
        k3r = -gamma * r3 - omega * v3
        k3u = -gamma2 * u3 + delta * v3
        k3v = omega * r3 - delta * u3 - gamma2 * v3 - half_omega

        r4 = rho + dt * k3r
        u4 = u + dt * k3u
        v4 = v + dt * k3v
        k4r = -gamma * r4 - omega * v4
        k4u = -gamma2 * u4 + delta * v4
        k4v = omega * r4 - delta * u4 - gamma2 * v4 - half_omega

        rho += dt * (k1r + 2.0 * k2r + 2.0 * k3r + k4r) / 6.0
        u += dt * (k1u + 2.0 * k2u + 2.0 * k3u + k4u) / 6.0
        v += dt * (k1v + 2.0 * k2v + 2.0 * k3v + k4v) / 6.0

        if step % stride == 0 or step == n_steps:
            if not (-_BOUND_TOL <= rho <= 1.0 + _BOUND_TOL
                    and u * u + v * v <= rho * (1.0 - rho) + _BOUND_TOL):
                return None  # caller halves the step and retries
            times[idx], rho_arr[idx], u_arr[idx], v_arr[idx] = step * dt, rho, u, v
            idx += 1

    return BlochTrajectory(times[:idx], rho_arr[:idx], u_arr[:idx], v_arr[:idx])


def pulse_excitation(omega_rabi, detuning, gamma, gamma_d, duration):
    """Excited-state population after a constant drive pulse from the ground state.

    Exact closed form (see _pulse_excitation_block) of the linear system that
    evolve_bloch integrates, broadcast over the inputs for whole scans at once.
    Inputs are checked once for the whole call; the pairs are then solved
    _CHUNK at a time, so that each block's temporaries stay in cache.
    """
    if duration < 0 or not np.isfinite(duration):
        raise DomainError(f"duration must be non-negative, got {duration}")
    arrays = np.broadcast_arrays(
        *(np.asarray(a, dtype=float) for a in (omega_rabi, detuning, gamma, gamma_d)))
    for name, a in zip(("omega_rabi", "detuning", "gamma", "gamma_d"), arrays):
        if not np.all(np.isfinite(a)):
            raise DomainError(f"{name} must be finite")
    omega, delta, gam, gd = arrays
    if np.any(gam <= 0) or np.any(omega < 0) or np.any(gd < 0):
        raise DomainError("gamma must be positive; omega_rabi and gamma_d non-negative")
    shape = omega.shape
    omega, delta, gam, gd = (a.ravel() for a in (omega, delta, gam, gd))
    rho_out = np.zeros(omega.shape)
    on = omega > 0
    if duration == 0.0 or not on.any():
        return rho_out.reshape(shape) if shape else 0.0
    every = bool(on.all())
    if not every:
        active = np.flatnonzero(on)
        omega, delta, gam, gd = (a[active] for a in (omega, delta, gam, gd))
    gamma2 = gam / 2.0 + gd
    top = np.maximum(omega, np.abs(delta))
    np.maximum(top, gam, out=top)
    np.maximum(top, gamma2, out=top)
    # fl(top * T) is monotone in top: checking the largest checks every
    # pair's sigma = top T
    peak = top.max()
    with np.errstate(over="ignore"):
        finite = np.isfinite(peak * duration)
    if not finite:
        raise DomainError(f"a {duration} s pulse at rates up to {peak:.3g} "
                          f"rad/s turns through more than 1.8e308 rad")
    out = rho_out if every else np.empty(len(omega))
    for start in range(0, len(omega), _CHUNK):
        blk = slice(start, start + _CHUNK)
        out[blk] = _pulse_excitation_block(omega[blk], delta[blk], gam[blk],
                                           gamma2[blk], top[blk], duration)
    if not every:
        rho_out[active] = out
    return rho_out.reshape(shape) if shape else float(rho_out[0])


def _pulse_excitation_block(omega, delta, gam, gamma2, top, duration):
    """rho_ee(T) = rho_ss - [e^{AT} x_ss]_0 for x = (rho_ee, u, v), x(0) = 0.

    A = [[-gamma, 0, -Omega], [0, -gamma2, delta], [Omega, -delta, -gamma2]]
    has the characteristic cubic
        P(s) = (s + gamma)((s + gamma2)^2 + delta^2) + Omega^2 (s + gamma2)
    with a real root r (_real_root) and a pair c +- nu, where nu^2 = D may
    have either sign.  Row 0 of (sI - A)^-1 x_ss, the Laplace transform of
    [e^{At} x_ss]_0, is N(s) / P(s) with
        N(s) = ((s + gamma2)^2 + delta^2) rho_ss + Omega delta u_ss
               - Omega (s + gamma2) v_ss,
    so [e^{AT} x_ss]_0 is the divided difference of N(s) e^{sT} over the
    roots.  By Leibniz's rule that is
        N(r) E[r, c+nu, c-nu] + (N'(c) + rho_ss (r - c)) E[c+nu, c-nu]
        + rho_ss (e^{(c+nu)T} + e^{(c-nu)T}) / 2,
    E the divided differences of e^{sT}, each a function of D that is entire,
    so the pair may be real, repeated or complex.  The rates are divided by
    the largest of them, top = S, so that no square overflows; sigma = S T,
    finite by the caller's check, turns the scaled roots back into exponents.

    Away from _exp3's series, E[r, c+nu, c-nu] = (e^{rT} - mean
    + (c - r) E[c+nu, c-nu]) / ((c - r)^2 - nu^2); within the series' reach
    all three roots lie within 1/2 of r in exponent, and the bound below
    fails.  Every pair term carries L = e^{(c + nu+)T}, nu+ = nu for a real
    pair (c + nu is its slower exponent) and 0 for a complex one:
    |mean| <= L and |E[c+nu, c-nu]| <= T L, as |cos|, |sinc| and
    (1 - e^{-2x}) / 2x are at most 1.  In the scaled rates below (m = c - r,
    coef = N'(c) + rho_ss (r - c), T -> sigma) the pair terms enter four
    partial sums: e^{sigma r} takes terms of at most L and |m| sigma L, and
    a = n_r e^{sigma r} / (m^2 - D) takes terms of at most |coef| sigma L
    and rho_ss L <= L.  Where, with B = max(L, tiny),
        B max(1, |m| sigma) <= 2^-56 e^{sigma r}  and
        B max(1, |coef| sigma) <= 2^-56 |a|,
    every term is below half an ulp of its partial sum (_DROP), and the
    floor at the smallest normal float keeps both sums above 2^56 tiny, so
    that a term's own underflow cannot tip them: the full formula rounds to
    a, bit for bit.  Such pairs, a pulse long against the optical coherence
    (L / e^{sigma r} ~ e^{-(gamma2 - gamma) T}), take decay = a; the rest,
    short pulses and slow dephasing, go through _pair_exp and _exp3 as an
    index subset.
    """
    w, d, g, g2 = (a / top for a in (omega, delta, gam, gamma2))
    r = _real_root(w, d, g, g2)
    rho_ss, u_ss, v_ss = _steady_arrays(w, d, g, g2)
    sigma = top * duration
    # P(s) / (s - r) = (s - c)^2 - D, from synthetic division in s + g2
    y = r + g2
    h = (g + r) / 2.0
    big_d = h * h - (d * d + w * w + y * (g + r))
    n_r = (y * y + d * d) * rho_ss + w * d * u_ss - w * y * v_ss
    coef = (y - h) * rho_ss - w * v_ss
    c = -g2 - h
    m = -y - h  # c - r
    # freed before the pair terms, so that fewer temporaries are live at once
    del w, d, g, g2, u_ss, v_ss, y, h
    nu = np.sqrt(np.abs(big_d))
    arg = sigma * nu
    real = big_d > 0
    e_lead = np.exp(sigma * c + np.where(real, arg, 0.0))
    e_r = np.exp(sigma * r)
    gap = m * m - big_d

    def full_decay(i):
        e_mean, e_pair = _pair_exp(e_lead[i], arg[i], nu[i], real[i],
                                   sigma[i])
        e_three = _exp3(e_r[i], m[i], big_d[i], nu[i], gap[i], sigma[i],
                        e_mean, e_pair)
        return n_r[i] * e_three + coef[i] * e_pair + rho_ss[i] * e_mean

    # implied by the cut below, and cheap: a block of undamped pairs stops here
    damped = e_lead <= _DROP * e_r
    if not damped.any():
        decay = full_decay(slice(None))
    else:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            decay = n_r * (e_r / gap)
            bound = np.maximum(e_lead, _TINY)
            damped = ((bound * np.maximum(1.0, sigma * np.abs(m))
                       <= _DROP * e_r)
                      & (bound * np.maximum(1.0, sigma * np.abs(coef))
                         <= _DROP * np.abs(decay)))
        if not damped.all():
            rest = np.flatnonzero(~damped)
            decay[rest] = full_decay(rest)
    return np.clip(rho_ss - decay, 0.0, 1.0)


def _real_root(w, d, g, g2):
    """A real root of P(s) = (s + g)((s + g2)^2 + d^2) + w^2 (s + g2).

    The symmetric part of A is -diag(g, g2, g2), so every root has a real
    part in [-max(g, g2), -min(g, g2)], and P(-g) = w^2 (g2 - g) and
    P(-g2) = (g - g2) d^2 have opposite signs.  Newton's method started at the
    end of that interval on the same side of the inflection point
    -(g + 2 g2) / 3 as a root moves monotonically onto it: P is convex above
    the inflection and concave below it.  An element stops once P reaches
    the root's sign or a step no longer moves it; at a double root Newton
    slows to halving the distance, which costs steps, not accuracy.
    """
    w2, d2 = w * w, d * d

    def cubic(s):  # P(s) and P'(s)
        a, b = s + g, s + g2
        q = b * b + d2
        return a * q + w2 * b, q + 2.0 * a * b + w2

    above = cubic(-(g + 2.0 * g2) / 3.0)[0] <= 0  # a root above the inflection
    s = np.where(above, -np.minimum(g, g2), -np.maximum(g, g2))
    side = np.where(above, 1.0, -1.0)
    root = s.copy()
    idx = np.arange(len(s))
    for _ in range(_NEWTON_MAX):
        p, slope = cubic(s)
        short = side * p > 0
        with np.errstate(divide="ignore", invalid="ignore"):
            new = np.where(short, s - p / slope, s)
        going = new != s
        s = new
        if not going.all():
            root[idx] = s
            idx, s, side, g, g2, w2, d2 = (
                x[going] for x in (idx, s, side, g, g2, w2, d2))
            if not len(idx):
                break
    root[idx] = s
    return root


def _pair_exp(e_lead, arg, nu, real, sigma):
    """Mean and divided difference (times sigma) of e^x over c +- arg.

    arg = sigma nu, and e_lead = e^{c + arg} where the pair is real, e^c
    where it is not.  A complex pair gives e^c cos and e^c sin / nu; a real
    one the same through cosh and sinh, taken from the larger exponent down
    so that neither overflows.
    """
    mean = e_lead * np.cos(arg)
    diff = e_lead * sigma * np.sinc(arg / np.pi)
    if real.any():
        arg_r, nu_r, e_top = arg[real], nu[real], e_lead[real]
        mean[real] = e_top * (1.0 + np.exp(-2.0 * arg_r)) / 2.0
        diff[real] = -e_top * np.expm1(-2.0 * arg_r) / (2.0 * nu_r)
    return mean, diff


def _exp3(e_r, m, big_d, nu, gap, sigma, e_mean, e_pair):
    """sigma^2 times the divided difference of e^x over {r, c + nu, c - nu}.

    e_r = e^r, r an exponent; m = (c - r) / sigma, D = (nu / sigma)^2 and
    gap = m^2 - D are scaled.  The divided difference is entire in (m, D)
    and is evaluated as a series when both nodes of the pair lie within 1 of
    r, else in closed form over (c - r)^2 - nu^2.  When the pair is real,
    _real_root has returned the root beyond the inflection point (r + 2c) / 3
    from both nodes, so |m| >= 3 nu and that denominator is at least 8 nu^2.
    """
    reach = sigma * np.maximum(np.abs(m), nu)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (e_r - e_mean + m * e_pair) / gap
    near = reach <= 0.5
    if near.any():
        # e^r sum_k h_k / (k + 2)!, h_k the complete symmetric polynomials of
        # the nodes relative to r: h_k = 2 m h_{k-1} - (m^2 - D) h_{k-2}
        s_n = sigma[near]
        m_n, nu_n = s_n * m[near], s_n * nu[near]
        k_n = m_n * m_n - np.copysign(nu_n * nu_n, big_d[near])
        h_prev, h = np.zeros_like(m_n), np.ones_like(m_n)
        total = h / 2.0
        factorial = 2.0
        for k in range(1, _TAYLOR_TERMS):
            h, h_prev = 2.0 * m_n * h - k_n * h_prev, h
            factorial *= k + 2
            total += h / factorial
        out[near] = e_r[near] * s_n * s_n * total
    return out


def window_capture_fraction(gamma, gate_start, gate_duration, decay_start):
    """Probability that an exponential decay starting at decay_start lands in the gate."""
    if gate_duration <= 0 or gate_start < 0 or decay_start < 0:
        raise DomainError("gate must have positive duration and non-negative start")
    gamma = np.asarray(gamma, dtype=float)
    if np.any(gamma <= 0):
        raise DomainError("gamma must be positive")
    lead = np.maximum(0.0, gate_start - decay_start)
    tail = np.maximum(0.0, gate_start + gate_duration - decay_start)
    return np.exp(-gamma * lead) - np.exp(-gamma * tail)


def spin_relaxation_rate(params: SpinRelaxParams) -> float | np.ndarray:
    """Total 1/T1 in s^-1 (inf past the float range): direct (single-phonon),
    Raman, and Orbach channels, at one temperature or an array of them.

    A channel whose coefficient is 0 adds 0, also where its power of nu or T
    is inf.  The direct term is a nu^5 coth(x), x = h nu / 2kT; where x
    underflows to 0 it is its limit a nu^4 2kT / h, not 0 / 0."""
    nu_ghz = np.float64(params.spin_splitting)  # nu**5 may overflow to inf
    t = np.asarray(params.temperature, dtype=float)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        x = H_PLANCK * nu_ghz * 1e9 / (2.0 * K_BOLTZMANN * t)
        direct = raman = 0.0
        if params.a_direct:
            direct = params.a_direct * nu_ghz**5 / np.tanh(x)
            if not np.all(x):  # coth x = 1 / x where x = 0, nu / x = 2kT / h
                direct = np.where(x == 0, params.a_direct * nu_ghz**4 * (
                    2.0 * K_BOLTZMANN * t / (H_PLANCK * 1e9)), direct)
        if params.a_raman:
            raman = params.a_raman * t**9
        orbach = params.a_orbach * np.exp(
            -params.delta_orbach * 1e-3 * E_CHARGE / (K_BOLTZMANN * t))
        rate = direct + raman + orbach
    return float(rate) if rate.ndim == 0 else rate


def spin_t1(params: SpinRelaxParams) -> SpinT1:
    """Spin lifetime 1/rate, per temperature; flags the (unphysical-input)
    case of a zero total rate, whose lifetime is inf."""
    rate = spin_relaxation_rate(params)
    with np.errstate(divide="ignore", over="ignore"):
        seconds = np.divide(1.0, rate)
    return SpinT1(seconds if np.ndim(rate) else float(seconds), rate <= 0.0,
                  rate)
