"""Fast paths against slow oracles, across their domains.

The closed-form propagator pulse_excitation must match a matrix
exponential of the Bloch system taken by mpmath at 40+ digits to 1e-10, and
evolve_bloch's RK4 to 1e-7 where RK4 needs at most 2e5 steps and the
generalized Rabi angle sqrt(Omega^2 + delta^2) T is at most 100 rad: RK4 at
its default step drifts from the exact solution by ~1.3e-7 over 300 rad.
Where it drops the pair terms of a long pulse, it must give the bits of its
own closed form with every term kept.
Rates are drawn as multiples of 1/T, log-uniform over many decades: up to
1e5 for Omega, gamma and gamma_d, where rounding the inputs alone moves
rho_ee by ~1e-11, and up to 1e21 for |delta|.
"""

import math
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from cavityspec import dynamics
from cavityspec.dynamics import (GROUND, DriveParams, _step_limit,
                                 evolve_bloch, pulse_excitation)

RK4_MAX_STEPS = 200_000
RK4_MAX_ANGLE = 100.0

# repeated roots of the characteristic cubic: at delta = 0 the pair meets
# at Omega = |gamma2 - gamma| / 2; all three roots meet at
# delta = |e| / sqrt(27), Omega = sqrt(8 / 27) |e|, e = gamma2 - gamma
GAMMA, GAMMA_D, T = 1e5, 3e5, 1e-5
SPLIT = GAMMA / 2 + GAMMA_D - GAMMA


# the cut in gamma_d past which pulse_excitation drops the pair terms, at
# drives (Omega, delta, gamma, T) with a complex pair and with a real one
# (sigma nu = 7.7 there, so a bound that missed the real pair's slower
# exponent would move the cut by e^7.7): the last gamma_d below it and the
# first above, adjacent floats found by bisection with numpy 2.4
CUT_EDGES = [((2e7, -3e8, 2e5, 1e-5), 4395474.454027216, 4395474.454027217),
             ((3e6, 0.0, 1e5, 1e-5), 7416480.34285937, 7416480.342859371)]


def _log_uniform(lo, hi):
    """10^x for x uniform in [lo, hi]."""
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


@st.composite
def drives(draw):
    duration = draw(_log_uniform(-9, -3))
    omega, gamma, gamma_d = (draw(_log_uniform(-6, 5)) / duration
                             for _ in range(3))
    delta = draw(st.one_of(st.just(0.0), _log_uniform(-8, 21))) / duration
    return omega, draw(st.sampled_from([1.0, -1.0])) * delta, gamma, gamma_d, duration


@st.composite
def cut_drives(draw):
    """Drives whose gamma_d T of 10-80 spreads across the cut (40-75 at
    CUT_EDGES; ~40% of these drives are past it), at gamma T of at most 3,
    where the decay is large enough to show in rho_ee's bits."""
    duration = draw(_log_uniform(-9, -3))
    omega = draw(_log_uniform(-3, 2)) / duration
    gamma = draw(_log_uniform(-3, 0.5)) / duration
    gamma_d = draw(st.floats(10.0, 80.0)) / duration
    delta = draw(st.one_of(st.just(0.0), _log_uniform(-3, 6))) / duration
    return omega, draw(st.sampled_from([1.0, -1.0])) * delta, gamma, gamma_d, duration


def _with_gamma_d(edge, side, scale=1.0):
    (omega, delta, gamma, duration), *gamma_d = edge
    return omega, delta, gamma, gamma_d[side] * scale, duration


def _exact(omega, delta, gamma, gamma_d, duration):
    """rho_ee(T) from exp of the augmented system d(x, 1)/dt = M (x, 1)."""
    spread = max(abs(delta), omega, gamma, gamma_d) * duration
    with mpmath.workdps(40 + 2 * math.ceil(math.log10(max(spread, 1.0)))):
        o, d, g, gd, t = (mpmath.mpf(x) for x in (omega, delta, gamma, gamma_d,
                                                   duration))
        g2 = g / 2 + gd
        m = mpmath.matrix([[-g, 0, -o, 0], [0, -g2, d, 0],
                           [o, -d, -g2, -o / 2], [0, 0, 0, 0]])
        return float(mpmath.expm(m * t)[0, 3])


@given(drives())
@example((1e-6, 2e6, GAMMA, GAMMA_D, T))                        # Omega -> 0
@example((3e6, 0.0, GAMMA, GAMMA_D, T))                         # delta = 0
@example((3e6, 1e6, GAMMA, 1e10, T))                            # gamma2 T >> 1
@example((SPLIT / 2, 0.0, GAMMA, GAMMA_D, T))                   # repeated root
@example((SPLIT / 2 * (1 + 1e-9), 0.0, GAMMA, GAMMA_D, T))
@example((SPLIT / 2 * (1 - 1e-9), 0.0, GAMMA, GAMMA_D, T))
@example((math.sqrt(8 / 27) * SPLIT, SPLIT / math.sqrt(27),     # triple root
          GAMMA, GAMMA_D, T))
@example((1e-3, 1e-3, GAMMA, GAMMA / 2, T))                    # gamma_d = gamma/2
@example((3e6, 1e25, GAMMA, GAMMA_D, T))                        # |delta| = 1e25
@example((69783.05848598662, 69783.05848598662, 100.0, 100.0, 1e-3))  # 99 rad
def test_pulse_excitation_matches_oracles(drive):
    omega, delta, gamma, gamma_d, duration = drive
    with mock.patch.object(dynamics, "_exp3", wraps=dynamics._exp3) as exp3:
        fast = pulse_excitation(omega, delta, gamma, gamma_d, duration)
    assert abs(fast - _exact(*drive)) <= 1e-10
    # _exp3's closed form needs |c - r| > 2 nu for a real pair; _real_root
    # gives |c - r| >= 3 nu (up to rounding)
    for call in exp3.call_args_list:
        _, m, big_d = call.args[:3]
        real = big_d > 0
        assert np.all(np.abs(m[real]) >= 3.0 * np.sqrt(big_d[real]) * (1 - 1e-9))
    params = DriveParams(omega, delta, gamma, gamma_d)
    angle = math.hypot(omega, delta) * duration
    dt = _step_limit(1e-6, omega, delta, gamma, params.gamma2)
    if angle <= RK4_MAX_ANGLE and duration / dt <= RK4_MAX_STEPS:
        slow = evolve_bloch(GROUND, params, duration).final.rho_ee
        assert abs(fast - slow) <= 1e-7


def _full_form(omega, delta, gamma, gamma_d, duration):
    """pulse_excitation's closed form with every pair term kept, one drive."""
    o, d, g = (np.array([x]) for x in (omega, delta, gamma))
    g2 = g / 2.0 + gamma_d
    top = np.maximum(np.maximum(np.maximum(o, np.abs(d)), g), g2)
    w, d, g, g2 = (a / top for a in (o, d, g, g2))
    sigma = top * duration
    rho_ss, u_ss, v_ss = dynamics._steady_arrays(w, d, g, g2)
    r = dynamics._real_root(w, d, g, g2)
    y = r + g2
    h = (g + r) / 2.0
    big_d = h * h - (d * d + w * w + y * (g + r))
    c, m = -g2 - h, -y - h
    nu = np.sqrt(np.abs(big_d))
    arg, real = sigma * nu, big_d > 0
    e_lead = np.exp(sigma * c + np.where(real, arg, 0.0))
    e_mean, e_pair = dynamics._pair_exp(e_lead, arg, nu, real, sigma)
    e_three = dynamics._exp3(np.exp(sigma * r), m, big_d, nu, m * m - big_d,
                             sigma, e_mean, e_pair)
    n_r = (y * y + d * d) * rho_ss + w * d * u_ss - w * y * v_ss
    decay = (n_r * e_three + ((y - h) * rho_ss - w * v_ss) * e_pair
             + rho_ss * e_mean)
    return np.clip(rho_ss - decay, 0.0, 1.0)[0]


@given(st.one_of(drives(), cut_drives()))
@example(_with_gamma_d(CUT_EDGES[0], 0))
@example(_with_gamma_d(CUT_EDGES[0], 1))
@example(_with_gamma_d(CUT_EDGES[1], 0))
@example(_with_gamma_d(CUT_EDGES[1], 1))
def test_pulse_excitation_equals_the_full_closed_form(drive):
    # where it drops the damped pair terms it must give these bits anyway
    fast = np.float64(pulse_excitation(*drive))
    assert fast.view(np.uint64) == _full_form(*drive).view(np.uint64), (
        fast, _full_form(*drive))


@pytest.mark.parametrize("edge", CUT_EDGES)
def test_cut_edges_straddle_the_cut(edge):
    # 1e-6 from each edge, which a different exp's last bit cannot move
    for side, scale, full in ((0, 1 - 1e-6, True), (1, 1 + 1e-6, False)):
        with mock.patch.object(dynamics, "_pair_exp",
                               wraps=dynamics._pair_exp) as pair_exp:
            pulse_excitation(*_with_gamma_d(edge, side, scale))
        assert pair_exp.called == full
