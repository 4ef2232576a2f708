"""Pull tests: simulated counts against the expectation the runner reports.

At each point the pull is z = (counts - expected) / sqrt(var), where var is
the sum of each ion's binomial variance n p (1 - p) and the Poisson
background mean.  Over N pulls, z must have mean 0 and variance 1.  The
bounds follow from N alone and were fixed before any run:
|mean z| <= 4 / sqrt(N) and |var z - 1| <= 5 sqrt(2 / (N - 1)).

`pytest --pull-points N` sets the points per scan (default 2,000).

The g2(0) pulls take z = (g2(0) - floor_predicted) / stderr over G2_RUNS
runs of run_g2, with the same bounds at N = G2_RUNS = 300: |mean z| <=
0.231 and |var z - 1| <= 0.409.
"""

import numpy as np
import pytest

from cavityspec.detection import BlinkConfig
from cavityspec.experiments import (PulseSequence, expected_linewidth,
                                    run_g2, run_ple_scan,
                                    run_saturation_series)
from test_experiments import (CAV, EMITTER, F0, STD_DET, _ion, _ions,
                              _power_for_s)

PULSES = 400
SEQ = PulseSequence(input_power=_power_for_s(2.0, 321.0))
FWHM = expected_linewidth(_ion(), CAV, EMITTER, SEQ)
# dark counts only (background_coeff 0): the same mean at every point
LAM = PULSES * STD_DET.dark_rate * STD_DET.gate_duration


@pytest.fixture
def n_points(request):
    return request.config.getoption("--pull-points")


def _assert_pulls(counts, expected, variance):
    _assert_unit_normal((counts - expected) / np.sqrt(variance))


def _assert_unit_normal(z):
    n = z.size
    assert abs(z.mean()) <= 4.0 / np.sqrt(n), z.mean()
    assert abs(z.var(ddof=1) - 1.0) <= 5.0 * np.sqrt(2.0 / (n - 1)), z.var()


def _ple_pulls(offsets, n_points, seed):
    grid = F0 + np.linspace(-4.0, 4.0, n_points) * FWHM
    res = run_ple_scan(grid, _ions(*offsets), CAV, EMITTER, SEQ, STD_DET,
                       PULSES, seed)
    # each ion's n p from a scan of that ion alone
    n_p = [run_ple_scan(grid, _ions(f), CAV, EMITTER, SEQ, STD_DET, PULSES,
                        seed).expected - LAM for f in offsets]
    np.testing.assert_allclose(res.expected, LAM + sum(n_p), rtol=1e-12)
    variance = LAM + sum(m * (1.0 - m / PULSES) for m in n_p)
    _assert_pulls(res.counts, res.expected, variance)


def test_one_ion_ple_pulls(n_points):
    _ple_pulls([0.0], n_points, seed=101)


def test_three_ion_ple_pulls(n_points):
    # overlapping lines: most points draw from two or three ions
    _ple_pulls([-1.5 * FWHM, 0.0, 0.7 * FWHM], n_points, seed=202)


def test_saturation_pulls(n_points):
    powers = np.geomspace(1e-14, 1e-8, n_points)
    res = run_saturation_series(_ion(), CAV, EMITTER, powers, STD_DET, PULSES,
                                seed=303)
    counts = np.concatenate([res.on_counts, res.off_counts])
    expected = np.concatenate([res.expected_on, res.expected_off])
    n_p = expected - LAM
    _assert_pulls(counts, expected, LAM + n_p * (1.0 - n_p / PULSES))


G2_RUNS = 300
G2_SEQ = PulseSequence(input_power=_power_for_s(400.0, 321.0))


@pytest.mark.parametrize("blink", [None, BlinkConfig(0.5, 800e-6)],
                         ids=["steady", "blinking"])
def test_g2_zero_pulls(blink):
    """g2(0) against the background floor run_g2 predicts, over 300 runs
    of 200,000 pulses at 0.0182 background clicks a pulse (0.01 plus the
    dark counts): |mean z| <= 4 / sqrt(300) = 0.231 and |var z - 1| <=
    5 sqrt(2 / 299) = 0.409, fixed from N before any run."""
    z = np.empty(G2_RUNS)
    for seed in range(G2_RUNS):
        res = run_g2(_ion(), CAV, EMITTER, G2_SEQ, STD_DET, 200_000,
                     seed=seed, blink=blink, background_per_pulse=0.01,
                     max_offset=0)
        z[seed] = (res.g2[0] - res.floor_predicted) / res.stderr[0]
    _assert_unit_normal(z)
