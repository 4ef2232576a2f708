"""Integrator, exact-propagator, and spin-relaxation tests."""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from cavityspec import dynamics
from cavityspec.constants import E_CHARGE, H_PLANCK, K_BOLTZMANN, TWO_PI
from cavityspec.dynamics import (
    GROUND,
    BlochState,
    DriveParams,
    SpinRelaxParams,
    evolve_bloch,
    intracavity_photon_number,
    pulse_excitation,
    spin_relaxation_rate,
    spin_t1,
    steady_state,
    window_capture_fraction,
)
from cavityspec.errors import DomainError

# operating point shared by several tests: a strongly Purcell-enhanced ion
GAMMA_OP = TWO_PI * 1.8e3
GAMMA_D_OP = TWO_PI * 3.1e6


def test_free_decay_matches_exponential():
    drive = DriveParams(0.0, 0.0, 1.0 / 45e-6, 0.0)
    traj = evolve_bloch(BlochState(1.0, 0.0, 0.0), drive, 100e-6)
    expected = np.exp(-drive.gamma * traj.times)
    assert np.max(np.abs(traj.rho_ee - expected) / expected) < 1e-8
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(100e-6, rel=1e-12)


def test_free_coherence_precession():
    delta = TWO_PI * 50e3
    drive = DriveParams(0.0, delta, 2e3, 1e3)
    state = BlochState(0.3, 0.2, 0.1)
    traj = evolve_bloch(state, drive, 40e-6)
    g2 = drive.gamma2
    # (u + iv)(t) = (u0 + iv0) exp(-(gamma2 + i delta) t)
    z0 = complex(state.coh_re, state.coh_im)
    z = z0 * np.exp(-(g2 + 1j * delta) * traj.times)
    assert np.max(np.abs(traj.coh_re - z.real)) < 1e-8
    assert np.max(np.abs(traj.coh_im - z.imag)) < 1e-8


def test_driven_system_reaches_closed_form_steady_state():
    rng = np.random.default_rng(20260819)
    unit = TWO_PI * 1e6
    for _ in range(8):
        gamma = unit * rng.uniform(0.1, 0.5)
        gamma_d = unit * rng.uniform(0.5, 3.0)
        gamma2 = gamma / 2 + gamma_d
        omega = gamma2 * rng.uniform(0.1, 3.0)
        delta = gamma2 * rng.uniform(-3.0, 3.0)
        drive = DriveParams(omega, delta, gamma, gamma_d)
        final = evolve_bloch(GROUND, drive, 30.0 / gamma).final
        ss = steady_state(drive)
        assert abs(final.rho_ee - ss.rho_ee) < 1e-4
        assert abs(final.coh_re - ss.coh_re) < 1e-4
        assert abs(final.coh_im - ss.coh_im) < 1e-4


def test_step_halving_changes_nothing():
    drive = DriveParams(TWO_PI * 1.3e6, TWO_PI * 2e6, GAMMA_OP, GAMMA_D_OP)
    coarse = evolve_bloch(GROUND, drive, 10e-6, dt_max=5e-10).final
    fine = evolve_bloch(GROUND, drive, 10e-6, dt_max=2.5e-10).final
    assert abs(coarse.rho_ee - fine.rho_ee) < 1e-6
    assert abs(coarse.coh_re - fine.coh_re) < 1e-6
    assert abs(coarse.coh_im - fine.coh_im) < 1e-6


def test_trajectory_stays_physical():
    drive = DriveParams(TWO_PI * 10e6, TWO_PI * 1e6, TWO_PI * 1e3, 0.0)
    traj = evolve_bloch(GROUND, drive, 5e-6)
    assert np.all(traj.rho_ee >= -1e-9)
    assert np.all(traj.rho_ee <= 1 + 1e-9)
    purity = traj.coh_re**2 + traj.coh_im**2 - traj.rho_ee * (1 - traj.rho_ee)
    assert np.all(purity <= 1e-9)


def test_strong_resonant_drive_saturates_to_half():
    drive = DriveParams(TWO_PI * 5e6, 0.0, GAMMA_OP, GAMMA_D_OP)
    final = evolve_bloch(GROUND, drive, 10e-6).final
    assert abs(final.rho_ee - 0.5) < 0.005
    assert abs(final.rho_ee - steady_state(drive).rho_ee) < 1e-4


def test_rabi_pulse_inverts_population():
    # negligible damping: a pi pulse should take the ground state to ~1
    omega = TWO_PI * 10e6
    drive = DriveParams(omega, 0.0, TWO_PI * 14, 0.0)
    half = evolve_bloch(GROUND, drive, math.pi / omega).final
    assert half.rho_ee > 0.99
    quarter = evolve_bloch(GROUND, drive, 0.5 * math.pi / omega).final
    assert abs(quarter.rho_ee - 0.5) < 0.01


def test_pulse_excitation_agrees_with_integrator():
    rng = np.random.default_rng(7)
    for duration in (0.5e-6, 2e-6):
        for _ in range(4):
            omega = TWO_PI * 10 ** rng.uniform(4.0, 6.7)
            delta = TWO_PI * rng.uniform(-5e6, 5e6)
            gamma = TWO_PI * 10 ** rng.uniform(3.0, 4.3)
            gamma_d = TWO_PI * rng.uniform(0.0, 3.1e6)
            fast = pulse_excitation(omega, delta, gamma, gamma_d, duration)
            slow = evolve_bloch(GROUND, DriveParams(omega, delta, gamma, gamma_d),
                                duration).final.rho_ee
            assert abs(fast - slow) < 1e-6


def test_pulse_excitation_shapes_and_edges():
    omega = np.array([0.0, TWO_PI * 1e6, TWO_PI * 2e6])
    out = pulse_excitation(omega, 0.0, GAMMA_OP, GAMMA_D_OP, 10e-6)
    assert out.shape == (3,)
    assert out[0] == 0.0
    assert np.all((out >= 0) & (out <= 1))
    assert out[2] > out[1]

    scalar = pulse_excitation(TWO_PI * 1e6, 0.0, GAMMA_OP, GAMMA_D_OP, 10e-6)
    assert isinstance(scalar, float)
    assert scalar == pytest.approx(out[1], rel=1e-12)

    grid = pulse_excitation(omega[None, :], np.array([[0.0], [TWO_PI * 1e6]]),
                            GAMMA_OP, GAMMA_D_OP, 10e-6)
    assert grid.shape == (2, 3)
    assert np.all(grid[1, 1:] < grid[0, 1:])  # detuning lowers the yield

    assert pulse_excitation(TWO_PI * 1e6, 0.0, GAMMA_OP, GAMMA_D_OP, 0.0) == 0.0
    with pytest.raises(DomainError):
        pulse_excitation(TWO_PI * 1e6, 0.0, 0.0, GAMMA_D_OP, 1e-6)
    with pytest.raises(DomainError, match="1.8e308 rad"):
        pulse_excitation(TWO_PI * 1e6, 1e307, GAMMA_OP, GAMMA_D_OP, 100.0)


@pytest.mark.parametrize("first", [0.0, 1e307])
def test_overflow_message_does_not_depend_on_blocking(first):
    # three blocks of four; the largest rate sits in the last block, alone or
    # after another rate that overflows in the first
    delta = np.full(11, TWO_PI * 1e6)
    delta[1], delta[-1] = first, 1.5e308
    args = (TWO_PI * 1e6, delta, GAMMA_OP, GAMMA_D_OP, 100.0)
    messages = []
    for size in (len(delta) + 1, 4):
        with mock.patch.object(dynamics, "_CHUNK", size), \
                pytest.raises(DomainError, match="1.8e308 rad") as err:
            pulse_excitation(*args)
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert "rates up to 1.5e+308 rad/s" in messages[0]


def _rate(lo, hi):
    """10^x for x uniform in [lo, hi], a rate in units of 1/T."""
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


def _signed(rates):
    return st.tuples(rates, st.sampled_from([1.0, -1.0])).map(
        lambda pair: pair[0] * pair[1])


# repeated roots at gamma T = 1, gamma_d T = 3 (see tests/test_oracle.py):
# the pair meets at delta = 0, Omega = e / 2, all three roots at
# delta = e / sqrt(27), Omega = sqrt(8 / 27) e, e = gamma2 - gamma
_E = 2.5
_NEAR = st.floats(-1e-6, 1e-6).map(lambda eps: 1.0 + eps)
# (Omega, delta, gamma, gamma_d) T: any drive, a pair whose drive is off, a
# drive near a double or triple root (Newton's slow path), and one whose
# roots all lie within 0.5 / T of each other (_exp3's series)
PAIRS = st.one_of(
    st.tuples(_rate(-6, 5), _signed(st.one_of(st.just(0.0), _rate(-8, 21))),
              _rate(-6, 5), _rate(-6, 5)),
    st.tuples(st.just(0.0), _signed(_rate(-8, 21)), _rate(-6, 5),
              _rate(-6, 5)),
    _NEAR.map(lambda x: (_E / 2 * x, 0.0, 1.0, 3.0)),
    st.tuples(_NEAR, _NEAR).map(lambda xs: (math.sqrt(8 / 27) * _E * xs[0],
                                            _E / math.sqrt(27) * xs[1],
                                            1.0, 3.0)),
    st.tuples(_rate(-6, -1.5), _signed(_rate(-6, -1.5)), _rate(-6, -1.5),
              _rate(-6, -1.5)),
)


@given(pairs=st.lists(PAIRS, min_size=1, max_size=12),
       duration=_rate(-9, -3), blocks=st.integers(0, 3),
       extra=st.integers(0, 2**16), shift=st.integers(0, 11))
@example(pairs=[(3.0, 0.0, 1.0, 3.0), (0.0, 5.0, 1.0, 3.0),
                (_E / 2 * (1 + 1e-9), 0.0, 1.0, 3.0),
                (math.sqrt(8 / 27) * _E, _E / math.sqrt(27), 1.0, 3.0),
                (0.01, -0.02, 0.03, 0.01), (1e-4, 1e3, 1.0, 3.0)],
         duration=1e-5, blocks=3, extra=5, shift=0)
def test_pulse_excitation_is_blocking_invariant(pairs, duration, blocks,
                                                extra, shift):
    # rests on numpy's SIMD exp, cos, sinc and expm1 giving the same bits
    # at every array length and offset
    rates = np.array(pairs).T / duration
    one = np.array([pulse_excitation(*pair, duration) for pair in rates.T])
    # (block size, pairs in the call), and one block longer than any call
    cases = [(size, max(blocks * size + extra % size, 1))
             for size in (1, 7, dynamics._CHUNK)]
    longest = max(n for _, n in cases)
    for size, n in cases + [(longest + 1, longest)]:
        # the pairs over and over from pair `shift`, so each meets several
        # block offsets
        pick = (np.arange(n) + shift) % len(pairs)
        with mock.patch.object(dynamics, "_CHUNK", size):
            out = pulse_excitation(*rates[:, pick], duration)
        np.testing.assert_array_equal(out.view(np.uint64),
                                      one[pick].view(np.uint64))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("position,name", enumerate(
    ("omega_rabi", "detuning", "gamma", "gamma_d")))
def test_pulse_excitation_rejects_non_finite(position, name, bad):
    args = [TWO_PI * 1e6, TWO_PI * 1e6, GAMMA_OP, GAMMA_D_OP]
    args[position] = np.array([args[position], bad])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=f"{name} must be finite"):
            pulse_excitation(*args, 10e-6)


def test_intracavity_photon_number_at_one_nanowatt():
    n_ph = intracavity_photon_number(1e-9, 0.16, TWO_PI * 3.85e9, TWO_PI * 195e12)
    assert n_ph == pytest.approx(0.20476170413547543, rel=1e-12)
    powers = np.array([0.0, 1e-9, 2e-9])
    out = intracavity_photon_number(powers, 0.16, TWO_PI * 3.85e9, TWO_PI * 195e12)
    assert out[0] == 0.0
    assert out[2] == pytest.approx(2 * n_ph, rel=1e-12)
    with pytest.raises(DomainError):
        intracavity_photon_number(1e-9, 1.5, TWO_PI * 3.85e9, TWO_PI * 195e12)
    with pytest.raises(DomainError):
        intracavity_photon_number(-1e-9, 0.16, TWO_PI * 3.85e9, TWO_PI * 195e12)


def test_window_capture_fraction_values():
    # saturated emitter, gate opening right at the end of the excite pulse
    cap = window_capture_fraction(GAMMA_OP, 10e-6, 82e-6, 10e-6)
    assert 0.5 * cap == pytest.approx(0.3022091919690052, rel=1e-12)
    # gate entirely before the decay starts collects nothing
    assert window_capture_fraction(GAMMA_OP, 0.0, 5e-6, 10e-6) == 0.0
    # longer gates capture monotonically more
    caps = window_capture_fraction(GAMMA_OP, 10e-6, 200e-6, 10e-6)
    assert caps > cap
    with pytest.raises(DomainError):
        window_capture_fraction(-1.0, 10e-6, 82e-6, 10e-6)
    with pytest.raises(DomainError):
        window_capture_fraction(GAMMA_OP, 10e-6, 0.0, 10e-6)


def test_spin_t1_reference_points():
    # direct + Raman + Orbach at the default coefficients
    cold = spin_t1(SpinRelaxParams(temperature=4.0, spin_splitting=9.0))
    assert cold.seconds == pytest.approx(0.00163547, rel=1e-5)
    assert not cold.underflow
    warm = spin_t1(SpinRelaxParams(temperature=6.0, spin_splitting=9.0))
    assert warm.seconds == pytest.approx(8.44437e-06, rel=1e-5)
    frozen = spin_t1(SpinRelaxParams(temperature=0.9, spin_splitting=0.1))
    assert frozen.seconds == pytest.approx(1984.78, rel=1e-5)

    assert spin_relaxation_rate(SpinRelaxParams(6.0, 9.0)) > \
        spin_relaxation_rate(SpinRelaxParams(4.0, 9.0))
    assert spin_relaxation_rate(SpinRelaxParams(0.9, 9.0)) > \
        spin_relaxation_rate(SpinRelaxParams(0.9, 0.1))


def test_spin_t1_underflow_flagged():
    quiet = SpinRelaxParams(temperature=0.01, spin_splitting=1e-3,
                            a_direct=0.0, a_raman=0.0)
    result = spin_t1(quiet)
    assert result.underflow
    assert math.isinf(result.seconds)


def _math_rate(t, nu_ghz, a_direct, a_raman, a_orbach, delta_orbach):
    """The total spin relaxation rate at one temperature, with math, as
    spin_relaxation_rate computed it before it took arrays: the oracle."""
    x = H_PLANCK * nu_ghz * 1e9 / (2.0 * K_BOLTZMANN * t)
    direct = a_direct * nu_ghz**5 / math.tanh(x)
    raman = a_raman * t**9
    orbach = a_orbach * math.exp(
        -delta_orbach * 1e-3 * E_CHARGE / (K_BOLTZMANN * t))
    return direct + raman + orbach


def _coefficient(lo_exp, hi_exp):
    return st.one_of(st.just(0.0), st.floats(lo_exp, hi_exp).map(
        lambda e: 10.0**e))


# one rate channel is at most a few rounded operations plus one
# transcendental call (tanh, power or exp), each a few ulp from libm's
RATE_ULPS = 8


@given(temps=st.lists(st.floats(0.01, 1000.0), min_size=1, max_size=16),
       nu_ghz=st.floats(1e-3, 100.0),
       a_direct=_coefficient(-10, 0), a_raman=_coefficient(-8, 0),
       a_orbach=_coefficient(4, 14), delta_orbach=st.floats(0.1, 50.0))
# the default coefficients; and Orbach alone, where it underflows to zero
# below ~0.1 K and is subnormal just above
@example(temps=[2.0, 2.5, 4.0, 8.0], nu_ghz=9.0, a_direct=5e-5,
         a_raman=1.3e-3, a_orbach=2.5e10, delta_orbach=6.4)
@example(temps=[0.01, 0.0995, 0.0998, 0.1, 0.11], nu_ghz=1e-3,
         a_direct=0.0, a_raman=0.0, a_orbach=2.5e10, delta_orbach=6.4)
def test_array_rate_matches_the_math_formula(temps, nu_ghz, a_direct,
                                             a_raman, a_orbach,
                                             delta_orbach):
    coefficients = dict(a_direct=a_direct, a_raman=a_raman,
                        a_orbach=a_orbach, delta_orbach=delta_orbach)
    params = SpinRelaxParams(temperature=np.array(temps),
                             spin_splitting=nu_ghz, **coefficients)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rates = spin_relaxation_rate(params)
        t1 = spin_t1(params)
    oracle = np.array([_math_rate(t, nu_ghz, a_direct, a_raman, a_orbach,
                                  delta_orbach) for t in temps])
    assert rates.shape == oracle.shape
    np.testing.assert_array_equal(rates == 0.0, oracle == 0.0)
    # positive floats order like their bit patterns; an Orbach term whose
    # exp is subnormal keeps one subnormal step of error, times a_orbach
    ulps = np.abs(rates.view(np.int64) - oracle.view(np.int64))
    slack = (np.abs(rates - oracle)
             <= a_orbach * 5e-324 + RATE_ULPS * np.spacing(oracle))
    assert np.all((ulps <= RATE_ULPS) | slack), (ulps.max(), rates, oracle)
    np.testing.assert_array_equal(t1.rate, rates)
    for i, t in enumerate(temps):
        one = spin_t1(SpinRelaxParams(temperature=t, spin_splitting=nu_ghz,
                                      **coefficients))
        assert (one.seconds, one.underflow, one.rate) == \
            (t1.seconds[i], t1.underflow[i], t1.rate[i])
        assert type(one.seconds) is float and type(one.rate) is float


def test_zero_rate_gives_infinite_t1_without_warnings():
    params = SpinRelaxParams(temperature=np.array([0.01, 0.05, 0.1, 4.0]),
                             spin_splitting=1e-3, a_direct=0.0, a_raman=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = spin_t1(params)
    np.testing.assert_array_equal(result.underflow,
                                  [True, True, False, False])
    assert np.all(np.isinf(result.seconds[:2]))
    assert 0.0 < result.rate[2] < 1e-300 and np.isinf(result.seconds[2])
    assert result.seconds[3] == 1.0 / result.rate[3]


def test_parameter_validation():
    with pytest.raises(DomainError):
        DriveParams(1.0, 0.0, 0.0, 0.0)
    with pytest.raises(DomainError):
        DriveParams(-1.0, 0.0, 1.0, 0.0)
    with pytest.raises(DomainError):
        DriveParams(1.0, 0.0, 1.0, -1.0)
    with pytest.raises(DomainError):
        BlochState(1.5, 0.0, 0.0)
    with pytest.raises(DomainError):
        BlochState(0.0, 0.5, 0.0)
    with pytest.raises(DomainError):
        BlochState(math.nan, 0.0, 0.0)
    # tiny numeric overshoot is tolerated and clamped
    assert BlochState(1.0 + 5e-10, 0.0, 0.0).rho_ee == 1.0
    with pytest.raises(DomainError):
        evolve_bloch(GROUND, DriveParams(1.0, 0.0, 1.0, 0.0), -1.0)
    with pytest.raises(DomainError):
        SpinRelaxParams(temperature=-1.0, spin_splitting=9.0)
    with pytest.raises(DomainError):
        SpinRelaxParams(temperature=4.0, spin_splitting=9.0, a_raman=-1.0)
    for temps in ([4.0, 0.0], [4.0, -1.0], [4.0, math.nan]):
        with pytest.raises(DomainError, match="temperature and spin_"):
            SpinRelaxParams(temperature=np.array(temps), spin_splitting=9.0)


def test_weak_drive_linewidth_is_dephasing_limited():
    # FWHM of the steady excitation spectrum -> 2 gamma2 as Omega -> 0
    step = TWO_PI * 0.05e6
    delta = np.arange(-300, 301) * step
    omega = TWO_PI * 5e3
    settle = 12.0 / GAMMA_OP
    spectrum = pulse_excitation(omega, delta, GAMMA_OP, GAMMA_D_OP, settle)
    peak = spectrum.max()
    assert spectrum.argmax() == 300
    half = peak / 2
    above = spectrum >= half

    def crossing(i_lo, i_hi):
        f = (half - spectrum[i_lo]) / (spectrum[i_hi] - spectrum[i_lo])
        return delta[i_lo] + f * (delta[i_hi] - delta[i_lo])

    left = np.flatnonzero(above)[0]
    right = np.flatnonzero(above)[-1]
    fwhm = crossing(right + 1, right) - crossing(left - 1, left)
    gamma2 = GAMMA_OP / 2 + GAMMA_D_OP
    assert fwhm == pytest.approx(2 * gamma2, rel=0.02)
    assert fwhm / TWO_PI == pytest.approx(6.2018e6, rel=0.02)


def test_trajectory_sampling_budget():
    drive = DriveParams(TWO_PI * 1.3e6, 0.0, GAMMA_OP, GAMMA_D_OP)
    traj = evolve_bloch(GROUND, drive, 50e-6, max_samples=256)
    assert len(traj.times) <= 257
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(50e-6, rel=1e-12)
