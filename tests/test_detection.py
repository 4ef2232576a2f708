"""Click simulation and pulsed correlation statistics.

The sparse g2_pulsed and its partner pointers, the click ordering, the
vectorised dead-time pruning and the block-wise click draw are checked
against the dense, search-per-offset, lexsort, per-click loop and
per-pulse versions they replaced, kept here as oracles.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from cavityspec import detection
from cavityspec.constants import TWO_PI
from cavityspec.detection import (
    BlinkConfig,
    ClickStream,
    DetectorConfig,
    EmissionModel,
    _click_order,
    _prune_dead_time,
    _telegraph_runs,
    draw_clicks,
    g2_background_floor,
    g2_pulsed,
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


def _sojourn_loop(n_pulses, p_bright, rep_period, switch_time, rng):
    """Reference telegraph: one sojourn at a time, the same draws."""
    decay = math.exp(-rep_period / switch_time)
    state = bool(rng.random() < p_bright)
    leave = {True: (1 - p_bright) * (1 - decay), False: p_bright * (1 - decay)}
    flags = []
    while len(flags) < n_pulses:
        if leave[state] <= 0:
            return np.array(flags + [state] * (n_pulses - len(flags)))
        runs_a = rng.geometric(leave[state], size=2048)
        runs_b = rng.geometric(max(leave[not state], 1e-12), size=2048)
        for pair in zip(runs_a, runs_b):
            for on, run in zip((state, not state), pair):
                flags += [on] * int(min(run, n_pulses))
            if len(flags) >= n_pulses:
                break
    return np.array(flags[:n_pulses])


# (p_bright, switch_time) at a 100 us period: slow, fast, sticky and
# rarely-bright telegraphs
TELEGRAPHS = [(0.5, 800e-6), (0.3, 500e-6), (0.02, 1e-2), (0.9, 1e-6),
              (0.5, 1e6), (1 - 1e-12, 1.0), (1e-12, 1.0)]


def _expand(first, lengths):
    """Per-pulse bright flags of a telegraph given as runs."""
    return np.repeat(np.tile([first, not first], len(lengths) // 2), lengths)


def _bright_flags(n_pulses, blocks):
    """Per-pulse bright flags of the (start, length) runs blocks yields,
    checking that the runs are in order, disjoint and inside the pulses."""
    flags = np.zeros(n_pulses, dtype=bool)
    end = 0
    for start, length in blocks:
        assert start.dtype == length.dtype == np.int64
        for s, n in zip(start.tolist(), length.tolist()):
            assert end <= s and n >= 0 and s + n <= n_pulses
            flags[s:s + n] = True
            end = s + n
    return flags


@pytest.mark.parametrize("n_pulses,p_bright,switch_time", [
    (1, 0.5, 800e-6), (4096, 0.3, 500e-6), (30_000, 0.5, 800e-6),
    (50_000, 0.02, 1e-2), (20_000, 0.9, 1e-6), (3_000, 0.5, 1e6),
    # the first sojourn is drawn at the int64 maximum
    (5_000, 1 - 1e-12, 1.0), (5_000, 1e-12, 1.0)])
def test_telegraph_matches_a_sojourn_loop(n_pulses, p_bright, switch_time):
    fast, slow = np.random.default_rng(8), np.random.default_rng(8)
    flags = _bright_flags(n_pulses, _telegraph_runs(
        n_pulses, p_bright, 100e-6, switch_time, fast))
    reference = _sojourn_loop(n_pulses, p_bright, 100e-6, switch_time, slow)
    assert np.array_equal(flags, reference)
    assert fast.bit_generator.state == slow.bit_generator.state


def _telegraph_blocks(n_pulses, p_bright, rep_period, switch_time, rng):
    """Reference telegraph: per-pulse bright flags, one block of 2048
    sojourn pairs at a time, drawn only as they are read."""
    decay = math.exp(-rep_period / switch_time)
    first = bool(rng.random() < p_bright)
    leave = ((1.0 - p_bright) * (1.0 - decay), p_bright * (1.0 - decay))
    leave_a, leave_b = leave if first else leave[::-1]
    if leave_a <= 0.0:
        yield np.full(n_pulses, first)
        return
    total = 0
    while total < n_pulses:
        runs = np.empty(2 * 2048, dtype=np.int64)
        runs[0::2] = rng.geometric(leave_a, size=2048)
        runs[1::2] = rng.geometric(max(leave_b, 1e-12), size=2048)
        ends = np.minimum(np.cumsum(np.minimum(runs, n_pulses)),
                          n_pulses - total)
        flags = _expand(first, np.diff(ends, prepend=0))
        total += len(flags)
        yield flags


def _draw_clicks_per_pulse(emission, detector, n_pulses, rng, *, blink=None,
                           rep_period=100e-6, background_per_pulse=0.0):
    """Reference draw_clicks: a bright flag per pulse, and one uniform per
    bright pulse in pulse order, each block of the telegraph's before the
    next block is drawn."""
    p_click = emission.p_excited * emission.eta_into_cavity * detector.eta_total
    if blink is not None and blink.p_bright < 1.0:
        fire = []
        for bright in _telegraph_blocks(n_pulses, blink.p_bright, rep_period,
                                        blink.switch_time, rng):
            block = np.zeros(len(bright), dtype=bool)
            block[bright] = rng.random(np.count_nonzero(bright)) < p_click
            fire.append(block)
        fire = np.concatenate(fire)
    else:
        fire = rng.random(n_pulses) < p_click
    src_pulse = np.flatnonzero(fire).astype(np.uint64)
    src_t = emission.decay_start + rng.exponential(1.0 / emission.gamma,
                                                   size=len(src_pulse))
    gate_end = detector.gate_start + detector.gate_duration
    in_gate = (src_t >= detector.gate_start) & (src_t < gate_end)
    src_pulse, src_t = src_pulse[in_gate], src_t[in_gate]
    lam = detector.dark_rate * detector.gate_duration + background_per_pulse
    total_bg = rng.poisson(lam * n_pulses)
    bg_pulse = rng.integers(0, n_pulses, size=total_bg, dtype=np.uint64)
    bg_t = detector.gate_start + rng.random(total_bg) * detector.gate_duration
    return np.concatenate([src_pulse, bg_pulse]), np.concatenate([src_t, bg_t])


@st.composite
def block_draws(draw):
    """(block, n_pulses, emission, blink, background): n_pulses at or near
    the block boundaries, or anywhere below four blocks."""
    block = draw(st.sampled_from([1, 7, detection._UNIFORM_BLOCK]))
    boundary = [n for n in (block - 1, block, block + 1, 3 * block + 7) if n]
    n_pulses = draw(st.one_of(st.sampled_from(boundary),
                              st.integers(1, min(4 * block, 5000))))
    p_excited = draw(st.one_of(st.sampled_from([0.0, 1.0]),
                               st.floats(0.0, 1.0)))
    # a state that is never left: exp(-period / 1e300 s) rounds to 1
    telegraph = st.sampled_from(TELEGRAPHS + [(0.5, 1e300), (1.0, 1e-3)])
    blink = draw(st.one_of(st.none(), telegraph.map(lambda c: BlinkConfig(*c))))
    background = draw(st.sampled_from([0.0, 0.01, 2.0]))
    return block, n_pulses, _emitter(p_excited, gamma=2e5), blink, background


# about 0.37 of the decays land inside this gate, the rest before or after
NARROW_GATE = DetectorConfig(eta_total=1.0, dark_rate=1e3, gate_start=1e-6,
                             gate_duration=3e-6)


@example((1, 1, _emitter(1.0), BlinkConfig(0.5, 1e300), 0.0))
@example((7, 28, _emitter(0.0), None, 2.0))
@example((detection._UNIFORM_BLOCK, 3 * detection._UNIFORM_BLOCK + 7,
          _emitter(0.3), BlinkConfig(0.5, 800e-6), 0.01))
@given(block_draws())
def test_block_draw_matches_the_per_pulse_draw(case):
    block, n_pulses, emission, blink, background = case
    fast, slow = np.random.default_rng(18), np.random.default_rng(18)
    with mock.patch.object(detection, "_UNIFORM_BLOCK", block):
        pulse, t = draw_clicks(emission, NARROW_GATE, n_pulses, fast,
                               blink=blink, background_per_pulse=background)
    ref_pulse, ref_t = _draw_clicks_per_pulse(
        emission, NARROW_GATE, n_pulses, slow, blink=blink,
        background_per_pulse=background)
    assert pulse.dtype == ref_pulse.dtype == np.uint64
    assert np.array_equal(pulse, ref_pulse)
    assert np.array_equal(t.view(np.uint64), ref_t.view(np.uint64))
    assert fast.bit_generator.state == slow.bit_generator.state


@pytest.mark.parametrize("block", [7, detection._UNIFORM_BLOCK])
@pytest.mark.parametrize("p_excited,switch_time", [
    (1.0, 1e-9), (1.0, 800e-6), (0.3, 1e-9), (0.3, 800e-6)])
def test_only_bright_pulses_fire(block, p_excited, switch_time):
    """No source click lands in a dark run, and a bright pulse fires with
    p_click: every one of them at p_click = 1."""
    n_pulses, blocks = 60_000, []

    def recorded(*args):
        for runs in _telegraph_runs(*args):
            blocks.append(runs)
            yield runs

    with mock.patch.object(detection, "_telegraph_runs", recorded), \
            mock.patch.object(detection, "_UNIFORM_BLOCK", block):
        pulse, _ = draw_clicks(_emitter(p_excited), WIDE_GATE, n_pulses,
                               np.random.default_rng(21),
                               blink=BlinkConfig(0.5, switch_time))
    bright = _bright_flags(n_pulses, blocks)
    n_bright = np.count_nonzero(bright)
    assert 0.4 * n_pulses < n_bright < 0.6 * n_pulses
    assert np.all(bright[pulse.astype(np.int64)])
    assert np.all(np.diff(pulse.astype(np.int64)) > 0)
    if p_excited == 1.0:
        assert len(pulse) == n_bright
    else:
        sd = math.sqrt(n_bright * p_excited * (1.0 - p_excited))
        assert abs(len(pulse) - n_bright * p_excited) < 4.0 * sd


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


@given(raw_clicks())
def test_click_order_is_lexsort(clicks):
    pulse, t = clicks
    assert np.array_equal(_click_order(pulse, t), np.lexsort((t, pulse)))


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
    fast = _prune_dead_time(pulse, t, dead_time)
    slow = _prune_loop(pulse, t, dead_time)
    assert np.array_equal(fast[0], slow[0])
    assert np.array_equal(fast[1], slow[1])


@given(raw_clicks(), DEAD_TIMES)
def test_vectorised_dead_time_matches_a_click_loop(clicks, dead_time):
    pulse, t = clicks
    assume(len(pulse) > 1)  # simulate_clicks prunes from two clicks on
    _check_pruning(pulse, t, dead_time)


# few pulses of many clicks, which lockstep hands to the per-pulse walk
@given(raw_clicks(max_clicks=400, max_pulses=3), DEAD_TIMES)
def test_walked_dead_time_matches_a_click_loop(clicks, dead_time):
    pulse, t = clicks
    assume(len(pulse) > 1)
    _check_pruning(pulse, t, dead_time)


def test_long_pulses_leave_lockstep_for_the_walk():
    rng = np.random.default_rng(3)
    pulse = np.repeat(np.arange(3, dtype=np.uint64), 5000)
    t = rng.random(15_000) * 1e-4
    t[:40] = 2e-6  # a run of equal times
    with mock.patch.object(detection, "_walk_pulses",
                           wraps=detection._walk_pulses) as walk:
        _check_pruning(pulse, t, 5e-8)
    assert walk.called


def test_walk_settles_rounded_gaps_as_the_loop():
    # t1 - t0 rounds up to the dead time though t0 + dead time rounds above
    # t1, and t3 - t2 rounds below it though t3 is t2 + dead time rounded:
    # bisection on the rounded sum alone misplaces both
    dead = 5.084741201379321e-06
    t = np.array([2.3439488134573915e-07, 5.31913608272506e-06,
                  1.003655057153186e-04, 1.0545024691669792e-04])
    keep = np.ones(4, dtype=bool)
    detection._walk_pulses(t, np.array([1]), np.array([4]), t[:1], dead, keep)
    assert keep.tolist() == [True, True, True, False]
    assert np.array_equal(t[keep], _prune_loop(np.zeros(4, np.uint64), t,
                                                dead)[1])
