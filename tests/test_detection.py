"""Click simulation and pulsed correlation statistics.

The sparse g2_pulsed and its partner pointers, the dead-time pass and the
block-wise, in-order click draw are checked against the dense,
search-per-offset, per-click loop and per-candidate, lexsorted versions
they replaced, kept here as oracles; the telegraph's thinning, against
its law.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from cavityspec import detection
from cavityspec.constants import TWO_PI
from cavityspec.detection import (
    BlinkConfig,
    ClickStream,
    DetectorConfig,
    EmissionModel,
    draw_clicks,
    g2_background_floor,
    g2_pulsed,
    settle_clicks,
    simulate_clicks,
)
from cavityspec.errors import ConfigError, DomainError

WIDE_GATE = DetectorConfig(eta_total=1.0, dark_rate=0.0, gate_start=0.0,
                           gate_duration=1.0)
FAST_DECAY = 1e6  # photons land well inside any gate used here


def bunching_profile(blink, rep_period, max_offset):
    """Blinking envelope g2(m) = 1 + ((1-p)/p) exp(-m T / tau) for m >= 0:
    the oracle the blinking click streams are checked against."""
    m = np.arange(max_offset + 1)
    p = blink.p_bright
    return 1.0 + ((1.0 - p) / p) * np.exp(-m * rep_period / blink.switch_time)


def _counts(stream):
    """Clicks per pulse, length n_pulses."""
    return np.bincount(stream.pulse_index.astype(np.int64),
                       minlength=stream.n_pulses)


def _emitter(p_excited, eta=1.0, gamma=FAST_DECAY, decay_start=0.0):
    return EmissionModel(p_excited=p_excited, gamma=gamma,
                         eta_into_cavity=eta, decay_start=decay_start)


def test_ideal_single_emitter_never_coincides():
    rng = np.random.default_rng(20260819)
    stream = simulate_clicks(_emitter(1.0), WIDE_GATE, 20_000, rng)
    counts = _counts(stream)
    assert counts.max() == 1
    assert counts.min() == 1  # unit efficiency, gate catches everything
    offsets, g2, stderr = g2_pulsed(stream, max_offset=5)
    assert g2[0] == 0.0
    assert np.all(g2[1:] == 1.0)
    assert list(offsets) == [0, 1, 2, 3, 4, 5]
    assert np.all(stderr >= 0)


def test_poisson_background_is_uncorrelated():
    rng = np.random.default_rng(11)
    stream = simulate_clicks(_emitter(0.0), WIDE_GATE, 200_000, rng,
                             background_per_pulse=0.05)
    _, g2, stderr = g2_pulsed(stream, max_offset=3)
    assert np.all(np.abs(g2 - 1.0) < 4 * stderr)


def test_floor_set_by_signal_to_background():
    assert g2_background_floor(5.5) == pytest.approx(0.28402366863905326,
                                                     rel=1e-12)
    assert g2_background_floor(0.0) == 1.0
    a = np.array([1.0, 10.0, 100.0])
    floors = g2_background_floor(a)
    assert np.all(np.diff(floors) < 0)  # cleaner signal pushes the floor down
    with pytest.raises(DomainError):
        g2_background_floor(-0.5)

    rng = np.random.default_rng(42)
    stream = simulate_clicks(_emitter(0.011), WIDE_GATE, 2_000_000, rng,
                             background_per_pulse=0.002)
    _, g2, stderr = g2_pulsed(stream, max_offset=1)
    floor = g2_background_floor(0.011 / 0.002)
    assert abs(g2[0] - floor) < 3 * stderr[0] + 1e-3
    assert g2[0] < 0.6  # clearly below the Poisson level


def test_zero_delay_dip_survives_detector_loss():
    results = []
    for eta, seed in ((1.0, 5), (0.4, 6)):
        rng = np.random.default_rng(seed)
        det = DetectorConfig(eta_total=eta, dark_rate=0.0, gate_start=0.0,
                             gate_duration=1.0)
        stream = simulate_clicks(_emitter(0.2), det, 500_000, rng,
                                 background_per_pulse=0.01 * eta)
        _, g2, stderr = g2_pulsed(stream, max_offset=1)
        results.append((g2[0], stderr[0]))
    (a, sa), (b, sb) = results
    assert abs(a - b) < 4 * math.hypot(sa, sb)


def test_blinking_builds_the_analytic_bunching_tail():
    blink = BlinkConfig(p_bright=0.3, switch_time=500e-6)
    rep = 100e-6
    rng = np.random.default_rng(97)
    stream = simulate_clicks(_emitter(0.8, eta=0.1), WIDE_GATE, 600_000, rng,
                             blink=blink, rep_period=rep)
    offsets, g2, stderr = g2_pulsed(stream, max_offset=8)
    expected = bunching_profile(blink, rep, 8)
    assert g2[0] == 0.0
    for m in range(1, 9):
        assert abs(g2[m] - expected[m]) < 4 * stderr[m], f"offset {m}"
    # tail decays toward 1 from above
    assert expected[1] > expected[8] > 1.0


# (p_bright, switch_time) at a 100 us period: slow, fast, sticky and
# rarely-bright telegraphs
TELEGRAPHS = [(0.5, 800e-6), (0.3, 500e-6), (0.02, 1e-2), (0.9, 1e-6),
              (0.5, 1e6), (1 - 1e-12, 1.0), (1e-12, 1.0)]


def _draw_clicks_per_candidate(emission, detector, n_pulses, rng, *,
                               blink=None, rep_period=100e-6,
                               background_per_pulse=0.0):
    """Reference draw_clicks: the same draws (each block's geometric gaps,
    then a uniform per candidate in range if blinking), walked one
    candidate at a time in Python integers, the telegraph stepped by
    P(bright) = p + (s - p) decay^k over a gap of k pulses; the
    background's ordered points are cut into pulse and time with floor,
    and every click is put in order by lexsort."""
    p_click = emission.p_excited * emission.eta_into_cavity * detector.eta_total
    blinking = blink is not None and blink.p_bright < 1.0
    if blinking:
        p = blink.p_bright
        decay = math.exp(-rep_period / blink.switch_time)
    fired, last, state = [], -1, None
    while p_click > 0 and last < n_pulses - 1:
        left = n_pulses - 1 - last
        mean = left * p_click
        gaps = rng.geometric(p_click, min(detection._BLOCK, left,
                                          int(mean + 4 * math.sqrt(mean)) + 1))
        candidates, at = [], last
        for gap in gaps.tolist():
            at += gap
            if at >= n_pulses:
                break
            candidates.append(at)
        if blinking and candidates:
            for pulse, u in zip(candidates,
                                rng.random(len(candidates)).tolist()):
                bright = p if state is None else (
                    p + (state - p) * decay ** (pulse - last))
                state, last = u < bright, pulse
                if state:
                    fired.append(pulse)
        else:
            fired += candidates
        if len(candidates) < len(gaps):
            break
        last = candidates[-1]
    src_pulse = np.array(fired, dtype=np.uint64)
    src_t = emission.decay_start + rng.exponential(1.0 / emission.gamma,
                                                   size=len(src_pulse))
    gate_end = detector.gate_start + detector.gate_duration
    in_gate = (src_t >= detector.gate_start) & (src_t < gate_end)
    src_pulse, src_t = src_pulse[in_gate], src_t[in_gate]
    lam = detector.dark_rate * detector.gate_duration + background_per_pulse
    ends = np.cumsum(rng.standard_exponential(rng.poisson(lam * n_pulses)
                                              + 1))
    x = np.minimum(ends[:-1] * (n_pulses / ends[-1]),
                   np.nextafter(n_pulses, 0))
    bg_pulse = np.floor(x).astype(np.uint64)
    bg_t = detector.gate_start + (x - np.floor(x)) * detector.gate_duration
    pulse = np.concatenate([src_pulse, bg_pulse])
    t = np.concatenate([src_t, bg_t])
    order = np.lexsort((t, pulse))
    return pulse[order], t[order]


@st.composite
def block_draws(draw):
    """(block, n_pulses, emission, blink, background): n_pulses at or near
    the block boundaries, or anywhere below four blocks; p_excited 0, 1,
    or any, subnormal included, whose gaps numpy gives as INT64_MAX."""
    block = draw(st.sampled_from([1, 7, detection._BLOCK]))
    boundary = [n for n in (block - 1, block, block + 1, 3 * block + 7) if n]
    n_pulses = draw(st.one_of(st.sampled_from(boundary),
                              st.integers(1, min(4 * block, 5000))))
    p_excited = draw(st.one_of(st.sampled_from([0.0, 1.0]),
                               st.floats(0.0, 1.0)))
    # a state that is never left: exp(-period / 1e300 s) rounds to 1; and
    # a state that is left at once: exp(-period / 1 ns) rounds to 0
    telegraph = st.sampled_from(TELEGRAPHS + [(0.5, 1e300), (0.5, 1e-9),
                                              (1.0, 1e-3)])
    blink = draw(st.one_of(st.none(), telegraph.map(lambda c: BlinkConfig(*c))))
    background = draw(st.sampled_from([0.0, 0.01, 2.0]))
    return block, n_pulses, _emitter(p_excited, gamma=2e5), blink, background


# about 0.37 of the decays land inside this gate, the rest before or after
NARROW_GATE = DetectorConfig(eta_total=1.0, dark_rate=1e3, gate_start=1e-6,
                             gate_duration=3e-6)


@example((1, 1, _emitter(1.0), BlinkConfig(0.5, 1e300), 0.0))
@example((7, 28, _emitter(0.0), None, 2.0))
# a block a candidate: each steps the telegraph from the block before
@example((1, 400, _emitter(0.3), BlinkConfig(0.5, 100e-6), 0.0))
@example((detection._BLOCK, 3 * detection._BLOCK + 7, _emitter(0.3),
          BlinkConfig(0.5, 800e-6), 0.01))
@example((detection._BLOCK, 3 * detection._BLOCK + 7, _emitter(1.0),
          BlinkConfig(0.02, 1e-2), 0.0))
@example((7, 20, _emitter(1e-30), None, 0.0))
@given(block_draws())
def test_block_draw_matches_the_per_candidate_draw(case):
    block, n_pulses, emission, blink, background = case
    fast, slow = np.random.default_rng(18), np.random.default_rng(18)
    with mock.patch.object(detection, "_BLOCK", block):
        pulse, t = draw_clicks(emission, NARROW_GATE, n_pulses, fast,
                               blink=blink, background_per_pulse=background)
        ref_pulse, ref_t = _draw_clicks_per_candidate(
            emission, NARROW_GATE, n_pulses, slow, blink=blink,
            background_per_pulse=background)
    assert pulse.dtype == ref_pulse.dtype == np.uint64
    assert np.array_equal(pulse, ref_pulse)
    assert np.array_equal(t.view(np.uint64), ref_t.view(np.uint64))
    assert fast.bit_generator.state == slow.bit_generator.state


@given(block_draws())
def test_drawn_clicks_are_in_pulse_then_time_order(case):
    block, n_pulses, emission, blink, background = case
    with mock.patch.object(detection, "_BLOCK", block):
        pulse, t = draw_clicks(emission, NARROW_GATE, n_pulses,
                               np.random.default_rng(24), blink=blink,
                               background_per_pulse=background)
    step = np.diff(pulse.astype(np.int64))
    assert np.all(step >= 0)
    assert np.all(np.diff(t)[step == 0] >= 0)
    assert np.all(pulse < n_pulses)
    gate_end = NARROW_GATE.gate_start + NARROW_GATE.gate_duration
    assert np.all((t >= NARROW_GATE.gate_start) & (t <= gate_end))


def test_background_is_poisson_in_count_and_uniform_in_time():
    """Background alone over N = 200,000 pulses at 2 clicks a pulse.  The
    bounds were fixed from N before any run: the per-pulse count's mean
    within 4 sqrt(lam / N) of lam, and its variance within 4 sqrt((lam +
    2 lam^2) / N) of lam (the sample variance's sd for a Poisson count);
    the in-gate times' Kolmogorov distance from uniform below 1.95 /
    sqrt(n) over the n clicks (exceeded with probability 0.001)."""
    n_pulses, lam = 200_000, 2.0
    det = DetectorConfig(eta_total=1.0, dark_rate=0.0, gate_start=10e-6,
                         gate_duration=82e-6)
    pulse, t = draw_clicks(_emitter(0.0), det, n_pulses,
                           np.random.default_rng(2024),
                           background_per_pulse=lam)
    counts = np.bincount(pulse.astype(np.int64), minlength=n_pulses)
    assert abs(counts.mean() - lam) <= 4.0 * math.sqrt(lam / n_pulses)
    assert (abs(counts.var(ddof=1) - lam)
            <= 4.0 * math.sqrt((lam + 2.0 * lam ** 2) / n_pulses))
    u = np.sort((t - det.gate_start) / det.gate_duration)
    n = len(u)
    ks = max(np.max(np.arange(1, n + 1) / n - u), np.max(u - np.arange(n) / n))
    assert ks < 1.95 / math.sqrt(n)


def _within(value, expected, sd, what):
    assert abs(value - expected) < 4.0 * sd, (what, value, expected, sd)


@pytest.mark.parametrize("block", [7, detection._BLOCK])
@pytest.mark.parametrize("p_excited,switch_time", [
    (1.0, 1e-9), (1.0, 800e-6), (0.3, 1e-9), (0.3, 800e-6)])
def test_only_bright_pulses_fire(block, p_excited, switch_time):
    """The telegraph's law, seen through the fired pulses of N = 60,000
    at p_bright p = 0.5 and a 100 us period, d = exp(-period / switch_time),
    p_click q.  A pulse fires at most once, with probability p q, and a
    fired pulse's next pulse fires with probability pi = q (p + (1 - p) d).
    At q = 1 the fired pulses are the bright ones, so the bright runs
    between dark ones have mean length 1 / ((1 - p)(1 - d)), and the dark
    runs 1 / (p (1 - d)).  The bounds were fixed from N before any run, at
    4 sd each: the fired fraction's sd is sqrt((p q (1 - p q) + 2 q^2
    p (1 - p) d / (1 - d)) / N), pi's over the M fired pulses with a
    successor sqrt(pi (1 - pi) / M), and a mean run's over its R whole
    runs sqrt(1 - leave) / leave / sqrt(R), leave its run's leave rate."""
    n_pulses, p, q = 60_000, 0.5, p_excited
    d = math.exp(-100e-6 / switch_time)
    with mock.patch.object(detection, "_BLOCK", block):
        pulse, _ = draw_clicks(_emitter(q), WIDE_GATE, n_pulses,
                               np.random.default_rng(21),
                               blink=BlinkConfig(p, switch_time))
    pulse = pulse.astype(np.int64)
    assert np.all(np.diff(pulse) > 0)
    _within(len(pulse) / n_pulses, p * q,
            math.sqrt((p * q * (1 - p * q) + 2 * q * q * p * (1 - p) * d
                       / (1 - d)) / n_pulses), "fired fraction")
    has_next = pulse[pulse < n_pulses - 1]
    pi = q * (p + (1 - p) * d)
    _within(np.isin(has_next + 1, pulse).mean(), pi,
            math.sqrt(pi * (1 - pi) / len(has_next)), "next fires")
    if q == 1.0:
        fired = np.zeros(n_pulses, dtype=np.int8)
        fired[pulse] = 1
        edges = np.flatnonzero(np.diff(fired)) + 1
        runs = np.diff(edges)  # whole runs, from the first switch on
        for first, leave in ((1, (1 - p) * (1 - d)), (0, p * (1 - d))):
            kind = runs[int(fired[edges[0]] != first)::2]
            _within(kind.mean(), 1 / leave,
                    math.sqrt(1 - leave) / leave / math.sqrt(len(kind)),
                    f"mean run of state {first}")


class _NoDraws:
    """A generator stand-in that fails any draw."""

    def random(self, *args, **kwargs):
        raise AssertionError("drew before refusing the run")

    geometric = random


def test_background_cap_refuses_before_drawing():
    with pytest.raises(DomainError, match="n_pulses"):
        draw_clicks(_emitter(0.5), WIDE_GATE, 50_000_000, _NoDraws(),
                    blink=BlinkConfig(p_bright=0.5), background_per_pulse=3.0)


def test_bunching_profile_shape():
    blink = BlinkConfig(p_bright=0.25, switch_time=800e-6)
    prof = bunching_profile(blink, 100e-6, 4)
    assert prof[0] == pytest.approx(1.0 / 0.25, rel=1e-12)
    assert np.all(np.diff(prof) < 0)
    steady = bunching_profile(BlinkConfig(p_bright=1.0), 100e-6, 4)
    assert np.all(steady == 1.0)


def test_dark_and_background_rates_add():
    rng = np.random.default_rng(3)
    det = DetectorConfig(eta_total=0.04, dark_rate=100.0, gate_start=10e-6,
                         gate_duration=82e-6)
    n = 400_000
    lam = 100.0 * 82e-6 + 0.01
    stream = simulate_clicks(_emitter(0.0), det, n, rng,
                             background_per_pulse=0.01)
    mean = _counts(stream).mean()
    assert abs(mean - lam) < 4 * math.sqrt(lam / n)
    # all arrivals stay inside the gate
    assert stream.t_in_pulse.min() >= 10e-6
    assert stream.t_in_pulse.max() < 92e-6


def test_gate_truncates_the_decay():
    rng = np.random.default_rng(8)
    gamma = TWO_PI * 1.8e3
    det = DetectorConfig(eta_total=1.0, dark_rate=0.0, gate_start=10e-6,
                         gate_duration=82e-6)
    n = 200_000
    stream = simulate_clicks(_emitter(1.0, gamma=gamma, decay_start=10e-6),
                             det, n, rng)
    capture = math.exp(0.0) - math.exp(-gamma * 82e-6)
    frac = len(stream) / n
    assert abs(frac - capture) < 4 * math.sqrt(capture * (1 - capture) / n)


def test_dead_time_collapses_multiple_clicks():
    rng = np.random.default_rng(15)
    det = DetectorConfig(eta_total=1.0, dark_rate=0.0, gate_start=0.0,
                         gate_duration=82e-6, dead_time=100e-6)
    stream = simulate_clicks(_emitter(0.0), det, 5_000, rng,
                             background_per_pulse=3.0)
    assert _counts(stream).max() == 1
    rng = np.random.default_rng(15)
    free = simulate_clicks(_emitter(0.0),
                           DetectorConfig(eta_total=1.0, dark_rate=0.0,
                                          gate_start=0.0, gate_duration=82e-6),
                           5_000, rng, background_per_pulse=3.0)
    assert _counts(free).max() > 1
    # pruning never reorders or moves surviving clicks
    assert np.all(np.isin(stream.t_in_pulse, free.t_in_pulse))


def test_streams_are_reproducible():
    kwargs = dict(background_per_pulse=0.01, seed=123)
    a = simulate_clicks(_emitter(0.3), WIDE_GATE, 50_000,
                        np.random.default_rng(123), **kwargs)
    b = simulate_clicks(_emitter(0.3), WIDE_GATE, 50_000,
                        np.random.default_rng(123), **kwargs)
    assert np.array_equal(a.pulse_index, b.pulse_index)
    assert np.array_equal(a.t_in_pulse, b.t_in_pulse)
    assert a.seed == b.seed == 123


def test_binary_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    stream = simulate_clicks(_emitter(0.2), WIDE_GATE, 10_000, rng,
                             background_per_pulse=0.02, seed=7)
    path = tmp_path / "clicks.bin"
    stream.to_binary(path)
    back = ClickStream.from_binary(path)
    assert np.array_equal(back.pulse_index, stream.pulse_index)
    assert np.allclose(back.t_in_pulse, stream.t_in_pulse, rtol=1e-12, atol=0)
    assert back.n_pulses == stream.n_pulses
    assert back.seed == 7

    blob = path.read_bytes()
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(ConfigError):
        ClickStream.from_binary(bad)
    truncated = tmp_path / "short.bin"
    truncated.write_bytes(blob[:-9])
    with pytest.raises(ConfigError):
        ClickStream.from_binary(truncated)


def test_validation():
    with pytest.raises(DomainError):
        DetectorConfig(eta_total=1.2)
    with pytest.raises(DomainError):
        DetectorConfig(gate_duration=0.0)
    with pytest.raises(DomainError):
        BlinkConfig(p_bright=0.0)
    with pytest.raises(DomainError):
        EmissionModel(p_excited=0.5, gamma=0.0, eta_into_cavity=1.0)
    with pytest.raises(DomainError):
        ClickStream(np.array([5], dtype=np.uint64), np.array([1e-6]), n_pulses=5)
    empty = ClickStream(np.array([], dtype=np.uint64), np.array([]), n_pulses=100)
    with pytest.raises(DomainError):
        g2_pulsed(empty)
    rng = np.random.default_rng(1)
    stream = simulate_clicks(_emitter(0.5), WIDE_GATE, 50, rng)
    with pytest.raises(DomainError):
        g2_pulsed(stream, max_offset=100)
    with pytest.raises(DomainError):
        simulate_clicks(_emitter(0.5), WIDE_GATE, 0, rng)


def _g2_dense(stream, max_offset):
    """Reference g2_pulsed: every pulse's count, products over all pulses."""
    counts = _counts(stream).astype(float)
    mu = counts.mean()
    g2 = np.empty(max_offset + 1)
    stderr = np.empty(max_offset + 1)
    mu_sq = mu * mu
    for m in range(max_offset + 1):
        x = counts * (counts - 1.0) if m == 0 else counts[:-m] * counts[m:]
        g2[m] = x.mean() / mu_sq
        stderr[m] = x.std(ddof=1) / math.sqrt(len(x)) / mu_sq
    return g2, stderr


@st.composite
def click_streams(draw):
    """(stream, max_offset): a few clicked pulses, up to 400 clicks each,
    anywhere in up to 10^5 pulses, and any allowed max_offset."""
    n_pulses = draw(st.one_of(st.integers(2, 40),
                              st.integers(2, 10 ** 5)))
    pulses = st.one_of(st.integers(0, n_pulses - 1),
                       st.sampled_from([0, n_pulses - 1]))
    per_pulse = draw(st.dictionaries(pulses, st.integers(1, 400),
                                     min_size=1, max_size=30))
    pulse = np.repeat(np.array(sorted(per_pulse), dtype=np.uint64),
                      [per_pulse[p] for p in sorted(per_pulse)])
    max_offset = draw(st.integers(0, min(12, n_pulses - 2)))
    if n_pulses <= 40:
        max_offset = draw(st.sampled_from([max_offset, n_pulses - 2]))
    stream = ClickStream(pulse, np.zeros(len(pulse)), n_pulses=n_pulses)
    return stream, max_offset


def _stream(n_pulses, per_pulse):
    pulse = np.repeat(np.arange(n_pulses, dtype=np.uint64), per_pulse)
    return ClickStream(pulse, np.zeros(len(pulse)), n_pulses=n_pulses)


# one click in the first and one in the last pulse: offsets 1..n-2 have
# no pair; max_offset = n_pulses - 2
@example((_stream(6, [1, 0, 0, 0, 0, 1]), 4))
# clicks only in the last pulse, one offset
@example((_stream(3, [0, 0, 7]), 1))
# many clicks in every pulse
@example((_stream(5, [400, 399, 1, 400, 250]), 3))
# products of 1e10, whose int64 squares would overflow
@example((_stream(4, [100_000, 0, 100_000, 3]), 2))
@given(click_streams())
def test_sparse_g2_matches_the_dense_sums(case):
    stream, max_offset = case
    offsets, g2, stderr = g2_pulsed(stream, max_offset)
    g2_ref, stderr_ref = _g2_dense(stream, max_offset)
    assert np.array_equal(offsets, np.arange(max_offset + 1))
    assert np.array_equal(g2, g2_ref)
    np.testing.assert_allclose(stderr, stderr_ref, rtol=1e-12, atol=0)


@pytest.mark.parametrize("seed", [7, 8, 9, 11, 23])
def test_sparse_g2_writes_the_dense_strings(seed):
    """The g2 experiment's stream, printed as its CSV prints: %.12g."""
    rng = np.random.default_rng(seed)
    blink = BlinkConfig(p_bright=0.5, switch_time=800e-6)
    stream = simulate_clicks(_emitter(0.3, eta=0.1), WIDE_GATE, 300_000, rng,
                             blink=blink, background_per_pulse=0.002)
    _, g2, stderr = g2_pulsed(stream, 10)
    g2_ref, stderr_ref = _g2_dense(stream, 10)
    assert (["%.12g" % v for v in (*g2, *stderr)]
            == ["%.12g" % v for v in (*g2_ref, *stderr_ref)])


def test_g2_accepts_a_stream_out_of_pulse_order():
    pulse = np.array([4, 0, 4, 2, 1, 4], dtype=np.uint64)
    shuffled = ClickStream(pulse, np.zeros(6), n_pulses=6)
    ordered = ClickStream(np.sort(pulse), np.zeros(6), n_pulses=6)
    for a, b in zip(g2_pulsed(shuffled, 3), g2_pulsed(ordered, 3)):
        assert np.array_equal(a, b)


def _g2_searchsorted(stream, max_offset):
    """Reference g2_pulsed partner search: one binary search of the
    clicked pulses per offset, the sums as g2_pulsed makes them."""
    pulse = np.sort(stream.pulse_index)
    starts = np.flatnonzero(np.r_[True, pulse[1:] != pulse[:-1]])
    p = pulse[starts].astype(np.int64)
    c = np.diff(np.r_[starts, len(pulse)])
    mu = len(pulse) / stream.n_pulses
    g2 = np.empty(max_offset + 1)
    stderr = np.empty(max_offset + 1)
    mu_sq = mu * mu
    for m in np.arange(max_offset + 1):
        if m == 0:
            x = c * (c - 1)
        else:
            partner = p + m
            j = np.searchsorted(p, partner)
            pair = p[np.minimum(j, len(p) - 1)] == partner
            x = c[pair] * c[j[pair]]
        n = stream.n_pulses - m
        mean = x.sum() / n
        var = ((np.square(x - mean).sum() + (n - len(x)) * mean * mean)
               / (n - 1))
        g2[m] = mean / mu_sq
        stderr[m] = math.sqrt(var) / math.sqrt(n) / mu_sq
    return g2, stderr


@st.composite
def pointer_streams(draw):
    """(stream, max_offset): sparse, dense, bunched, one-pulse and
    every-pulse streams, some with several clicks a pulse, some out of
    pulse order, at max_offset 0, 1, past the largest gap, n_pulses - 2
    or anywhere between."""
    n_pulses = draw(st.one_of(st.integers(2, 40), st.integers(2, 600)))
    kind = draw(st.sampled_from(["sparse", "dense", "bunched", "one",
                                 "every"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind in ("sparse", "dense"):
        low, high = (0.001, 0.05) if kind == "sparse" else (0.5, 0.99)
        clicked = np.flatnonzero(rng.random(n_pulses)
                                 < draw(st.floats(low, high)))
    elif kind == "bunched":  # bright and dark runs of geometric length
        mean_run = draw(st.sampled_from([2.0, 10.0, 50.0]))
        runs = np.cumsum(rng.geometric(1 / mean_run, size=2 * n_pulses))
        bright = np.searchsorted(runs, np.arange(n_pulses), "right") % 2 == 0
        clicked = np.flatnonzero(bright & (rng.random(n_pulses) < 0.7))
    elif kind == "one":
        clicked = np.array([draw(st.integers(0, n_pulses - 1))])
    else:
        clicked = np.arange(n_pulses)
    if not len(clicked):
        clicked = np.array([rng.integers(n_pulses)])
    per_pulse = rng.integers(1, draw(st.sampled_from([1, 2, 5])) + 1,
                             size=len(clicked))
    pulse = np.repeat(clicked, per_pulse).astype(np.uint64)
    if draw(st.booleans()):
        rng.shuffle(pulse)
    past_gap = int(np.diff(clicked).max(initial=0)) + 1
    max_offset = draw(st.sampled_from([
        0, 1, min(past_gap, n_pulses - 2), n_pulses - 2,
        draw(st.integers(0, n_pulses - 2))]))
    max_offset = min(max_offset, n_pulses - 2)
    stream = ClickStream(pulse, np.zeros(len(pulse)), n_pulses=n_pulses)
    return stream, max_offset


# every pulse clicked twice, every offset
@example((_stream(7, [2] * 7), 5))
# one click in the first and one in the last pulse, out of order
@example((ClickStream(np.array([9, 0], dtype=np.uint64), np.zeros(2),
                      n_pulses=10), 8))
@given(pointer_streams())
def test_pointer_g2_is_bit_equal_to_the_search_per_offset(case):
    stream, max_offset = case
    _, g2, stderr = g2_pulsed(stream, max_offset)
    g2_ref, stderr_ref = _g2_searchsorted(stream, max_offset)
    assert np.array_equal(g2.view(np.uint64), g2_ref.view(np.uint64))
    assert np.array_equal(stderr.view(np.uint64), stderr_ref.view(np.uint64))


@st.composite
def raw_clicks(draw, max_clicks=120, max_pulses=50):
    """Unsorted (pulse, t) with repeated pulses and repeated times."""
    n = draw(st.integers(0, max_clicks))
    n_pulses = draw(st.integers(1, max_pulses))
    pulse = draw(st.lists(st.integers(0, n_pulses - 1), min_size=n,
                          max_size=n))
    times = st.one_of(st.sampled_from([0.0, 1e-6, 2e-6, 5e-5]),
                      st.floats(0.0, 1e-4))
    t = draw(st.lists(times, min_size=n, max_size=n))
    return np.array(pulse, dtype=np.uint64), np.array(t, dtype=float)


def _prune_loop(pulse, t, dead_time):
    """Reference pruning: one click at a time, from each pulse's first."""
    keep = np.ones(len(pulse), dtype=bool)
    last = None
    for j in range(len(pulse)):
        if j and pulse[j] == pulse[j - 1] and t[j] - last < dead_time:
            keep[j] = False
        else:
            last = t[j]
    return pulse[keep], t[keep]


DEAD_TIMES = st.sampled_from([1e-9, 1e-6, 3e-6, 1e-5, 1.0])


def _check_pruning(pulse, t, dead_time):
    order = np.lexsort((t, pulse))
    pulse, t = pulse[order], t[order]
    fast = settle_clicks(pulse, t, dead_time)
    slow = _prune_loop(pulse, t, dead_time)
    assert np.array_equal(fast[0], slow[0])
    assert np.array_equal(fast[1].view(np.uint64), slow[1].view(np.uint64))


# two runs of two close clicks: the second click of the first is exactly
# the dead time after the click before the run, that of the second is not
@example((np.repeat(np.arange(2, dtype=np.uint64), 3),
          np.array([0.0, 0.5, 1.0, 0.0, 0.5, 0.75]) * 1e-6), 1e-6)
@given(raw_clicks(), DEAD_TIMES)
def test_vectorised_dead_time_matches_a_click_loop(clicks, dead_time):
    _check_pruning(*clicks, dead_time)


def _long_pulses():
    """3 pulses of 5,000 clicks, the first 40 at one time."""
    t = np.random.default_rng(3).random(15_000) * 1e-4
    t[:40] = 2e-6
    return np.repeat(np.arange(3, dtype=np.uint64), 5000), t


# few pulses of many clicks: long runs of close clicks, walked
@example(_long_pulses(), 5e-8)
@given(raw_clicks(max_clicks=400, max_pulses=3), DEAD_TIMES)
def test_walked_dead_time_matches_a_click_loop(clicks, dead_time):
    _check_pruning(*clicks, dead_time)


def test_walk_settles_rounded_gaps_as_the_loop():
    # t1 - t0 rounds up to the dead time though t0 + dead time rounds above
    # t1, and t3 - t2 rounds below it though t3 is t2 + dead time rounded:
    # bisection on the rounded sum alone misplaces both
    dead = 5.084741201379321e-06
    t = np.array([2.3439488134573915e-07, 5.31913608272506e-06,
                  1.003655057153186e-04, 1.0545024691669792e-04])
    keep = np.array([True, False, False, False])
    detection._walk_pulses(t, np.array([1]), np.array([4]), t[:1], dead, keep)
    assert keep.tolist() == [True, True, True, False]
    pulse = np.zeros(4, np.uint64)
    assert np.array_equal(t[keep], _prune_loop(pulse, t, dead)[1])
    assert np.array_equal(t[keep], settle_clicks(pulse, t, dead)[1])
