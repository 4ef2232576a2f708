"""Driven two-level dynamics, per-pulse photon yield, and spin relaxation.

The optical Bloch equations in the frame rotating at the laser frequency,
with rho_ge = u + i v and gamma2 = gamma/2 + gamma_d:

    d rho_ee / dt = -gamma rho_ee - Omega v
    d rho_ge / dt = -(gamma2 + i delta) rho_ge + i (Omega/2) (2 rho_ee - 1)

All rates are angular (rad/s).  evolve_bloch integrates with fixed-step RK4
at step min(dt_max, 1/(50 max_rate)); pulse_excitation solves the same
linear system exactly through a batched matrix exponential and is the fast
path used by scans.
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
_CHUNK = 200_000  # matrices propagated per batch by pulse_excitation


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

    temperature: float           # K
    spin_splitting: float        # GHz
    a_direct: float = 5.0e-5     # s^-1 GHz^-5
    a_raman: float = 1.3e-3      # s^-1 K^-9
    a_orbach: float = 2.5e10     # s^-1
    delta_orbach: float = 6.4    # meV

    def __post_init__(self):
        if not (self.temperature > 0 and self.spin_splitting > 0):
            raise DomainError("temperature and spin_splitting must be positive")
        if any(c < 0 for c in (self.a_direct, self.a_raman, self.a_orbach)):
            raise DomainError("a_direct, a_raman and a_orbach must be "
                              "non-negative")
        if self.delta_orbach <= 0:
            raise DomainError("delta_orbach must be positive")


class SpinT1(NamedTuple):
    seconds: float
    underflow: bool  # True when every channel underflowed to zero rate


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
    scale = 0.5 * omega * (2.0 * rho - 1.0) / (gamma2**2 + delta**2)
    return rho, scale * delta, scale * gamma2


def _step_limit(dt_max, omega, delta, gamma, gamma2):
    max_rate = max(gamma, gamma2, abs(delta), omega)
    if max_rate <= 0.0:
        return dt_max
    return min(dt_max, 1.0 / (50.0 * max_rate))


def evolve_bloch(state: BlochState, drive: DriveParams, duration: float,
                 dt_max: float = 1e-6, max_samples: int = 2048) -> BlochTrajectory:
    """Integrate from `state` under constant drive for `duration` seconds.

    Fixed-step fourth-order Runge-Kutta; the step honours both dt_max and
    the stiffest rate in the system.  If the sampled state ever leaves the
    physical region the step is halved and the integration restarted, a few
    times, before giving up with IntegrationError.
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


def _expm3_batch(m: np.ndarray) -> np.ndarray:
    """exp(M) for a stack of 3x3 matrices via scaling-and-squaring Taylor."""
    norm = np.max(np.sum(np.abs(m), axis=2), axis=1)
    s = np.zeros(len(m), dtype=int)
    big = norm > 0.25
    s[big] = np.ceil(np.log2(norm[big] / 0.25)).astype(int)
    x = m / np.exp2(s.astype(float))[:, None, None]
    eye = np.broadcast_to(np.eye(3), m.shape)
    result = eye.copy()
    term = eye.copy()
    for k in range(1, 13):  # remainder < 0.25^13/13! ~ 2e-18 at this norm
        term = term @ x / k
        result += term
    for level in range(1, int(s.max(initial=0)) + 1):
        mask = s >= level
        result[mask] = result[mask] @ result[mask]
    return result


def pulse_excitation(omega_rabi, detuning, gamma, gamma_d, duration):
    """Excited-state population after a constant drive pulse from the ground state.

    Exact solution of the linear Bloch system, broadcast over the inputs;
    equivalent to evolve_bloch but vectorised for scans.
    """
    if duration < 0 or not np.isfinite(duration):
        raise DomainError(f"duration must be non-negative, got {duration}")
    omega, delta, gam, gd = np.broadcast_arrays(
        *(np.asarray(a, dtype=float) for a in (omega_rabi, detuning, gamma, gamma_d)))
    if np.any(gam <= 0) or np.any(omega < 0) or np.any(gd < 0):
        raise DomainError("gamma must be positive; omega_rabi and gamma_d non-negative")
    shape = omega.shape
    omega, delta, gam, gd = (a.ravel() for a in (omega, delta, gam, gd))
    rho_out = np.zeros(omega.shape)
    active = np.flatnonzero((omega > 0) & (duration > 0))
    for start in range(0, len(active), _CHUNK):
        sel = active[start:start + _CHUNK]
        rho_out[sel] = _pulse_excitation_chunk(omega[sel], delta[sel], gam[sel],
                                               gd[sel], duration)
    return rho_out.reshape(shape) if shape else float(rho_out[0])


def _pulse_excitation_chunk(omega, delta, gam, gd, duration):
    gamma2 = gam / 2.0 + gd
    n = len(omega)
    a = np.zeros((n, 3, 3))
    a[:, 0, 0] = -gam
    a[:, 0, 2] = -omega
    a[:, 1, 1] = -gamma2
    a[:, 1, 2] = delta
    a[:, 2, 0] = omega
    a[:, 2, 1] = -delta
    a[:, 2, 2] = -gamma2
    rho_ss, u_ss, v_ss = _steady_arrays(omega, delta, gam, gamma2)
    xss = np.stack([rho_ss, u_ss, v_ss], axis=1)
    # extreme rates overflow here; those pairs are caught below as bad
    with np.errstate(over="ignore", invalid="ignore"):
        propagator = _expm3_batch(a * duration)
        # x(t) = xss + e^{At}(x0 - xss) with x0 = 0
        rho = xss[:, 0] - np.einsum("nij,nj->ni", propagator, xss)[:, 0]
    bad = ~np.isfinite(rho) | (rho < -1e-6) | (rho > 1.0 + 1e-6)
    if np.any(bad):
        for i in np.flatnonzero(bad):  # rare; integrate those the slow way
            drive = DriveParams(float(omega[i]), float(delta[i]), float(gam[i]),
                                float(gd[i]))
            rho[i] = evolve_bloch(GROUND, drive, duration).final.rho_ee
    return np.clip(rho, 0.0, 1.0)


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


def emitted_photons_per_pulse(drive: DriveParams, pulse) -> float:
    """Expected photons radiated (all channels) inside the collection gate.

    `pulse` provides excite_duration, gate_start and gate_duration, all
    relative to the pulse start.  The state starts in the ground state, the
    drive is on for excite_duration, and the integral of gamma*rho_ee is
    accumulated over [gate_start, gate_start + gate_duration].
    """
    t_on = float(pulse.excite_duration)
    gs = float(pulse.gate_start)
    ge = gs + float(pulse.gate_duration)
    if t_on <= 0 or gs < 0 or ge <= gs:
        raise DomainError("pulse must have positive excite_duration and a valid gate")
    boundaries = sorted({0.0, min(t_on, ge), min(gs, ge), ge})
    state = GROUND
    photons = 0.0
    for t0, t1 in zip(boundaries, boundaries[1:]):
        if t1 <= t0:
            continue
        mid = 0.5 * (t0 + t1)
        seg_drive = drive if mid < t_on else DriveParams(
            0.0, drive.detuning, drive.gamma, drive.gamma_d)
        in_gate = gs <= mid < ge
        if seg_drive.omega_rabi == 0.0 and not in_gate:
            # free decay with nothing to accumulate: advance analytically
            decay = math.exp(-drive.gamma * (t1 - t0))
            damp = math.exp(-seg_drive.gamma2 * (t1 - t0))
            phase = seg_drive.detuning * (t1 - t0)
            re = state.coh_re * damp
            im = state.coh_im * damp
            state = BlochState(state.rho_ee * decay,
                               re * math.cos(phase) + im * math.sin(phase),
                               im * math.cos(phase) - re * math.sin(phase))
            continue
        traj = evolve_bloch(state, seg_drive, t1 - t0)
        if in_gate:
            photons += drive.gamma * float(np.trapezoid(traj.rho_ee, traj.times))
        state = traj.final
    return photons


def spin_relaxation_rate(params: SpinRelaxParams) -> float:
    """Total 1/T1 in s^-1: direct (single-phonon), Raman, and Orbach channels."""
    nu_ghz = params.spin_splitting
    t = params.temperature
    x = H_PLANCK * nu_ghz * 1e9 / (2.0 * K_BOLTZMANN * t)
    direct = params.a_direct * nu_ghz**5 / math.tanh(x)
    raman = params.a_raman * t**9
    orbach = params.a_orbach * math.exp(
        -params.delta_orbach * 1e-3 * E_CHARGE / (K_BOLTZMANN * t))
    return direct + raman + orbach


def spin_t1(params: SpinRelaxParams) -> SpinT1:
    """Spin lifetime; flags the (unphysical-input) case of a zero total rate."""
    rate = spin_relaxation_rate(params)
    if rate <= 0.0:
        return SpinT1(math.inf, True)
    return SpinT1(1.0 / rate, False)
