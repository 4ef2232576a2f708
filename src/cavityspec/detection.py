"""Click-level detection model and pulsed photon statistics.

A pulsed experiment is reduced to a stream of detector clicks tagged with
the pulse number and the arrival time inside the pulse.  The emitter
contributes at most one photon per pulse (the drive is off once the gate
opens), thinned by the collection chain and the gate; dark counts and
residual laser background arrive as Poisson processes inside the gate.
Slow intensity switching (blinking) gates the emitter with a two-state
telegraph sampled at the pulse boundaries.  The telegraph is drawn a block
of sojourns at a time and only its bright pulses draw a firing uniform,
so memory follows the clicks, not the pulses or the sojourns.
"""

from __future__ import annotations

import math
import struct
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError
from .output import write_bytes_atomic

_BINARY_MAGIC = b"CSPK"
_BINARY_VERSION = 1
_RECORD_DTYPE = np.dtype([("pulse_index", "<u8"), ("t_ns", "<f8")])
_SOJOURN_BLOCK = 2048  # telegraph sojourn pairs drawn per block
_UNIFORM_BLOCK = 32_768  # firing uniforms drawn per block: 256 kB, in L2


@dataclass(frozen=True)
class DetectorConfig:
    """Collection efficiency, noise, and gating of the counting hardware."""

    eta_total: float = 0.04       # photon -> click probability, all losses
    dark_rate: float = 100.0      # Hz
    gate_start: float = 10e-6     # s, relative to the pulse start
    gate_duration: float = 82e-6  # s
    dead_time: float = 0.0        # s, applied within each pulse

    def __post_init__(self):
        if not 0.0 <= self.eta_total <= 1.0:
            raise DomainError(f"eta_total must lie in [0, 1], got {self.eta_total}")
        if self.dark_rate < 0:
            raise DomainError(f"dark_rate must be non-negative, got {self.dark_rate}")
        if self.gate_start < 0 or self.gate_duration <= 0:
            raise DomainError("gate_start must be >= 0 and gate_duration > 0")
        if self.dead_time < 0:
            raise DomainError(f"dead_time must be non-negative, got {self.dead_time}")


@dataclass(frozen=True)
class BlinkConfig:
    """Telegraph intensity switching: stationary bright fraction and the
    correlation time of the bright/dark process."""

    p_bright: float = 1.0
    switch_time: float = 800e-6  # s

    def __post_init__(self):
        if not 0.0 < self.p_bright <= 1.0:
            raise DomainError(f"p_bright must lie in (0, 1], got {self.p_bright}")
        if self.switch_time <= 0:
            raise DomainError(f"switch_time must be positive, got {self.switch_time}")


@dataclass(frozen=True)
class EmissionModel:
    """Per-pulse emitter behaviour after the drive switches off."""

    p_excited: float          # excited-state population at the end of the drive
    gamma: float              # total decay rate, rad/s equivalent (1/s)
    eta_into_cavity: float    # fraction of decays emitting into the collected mode
    decay_start: float = 10e-6  # s, when free decay begins (end of the drive)

    def __post_init__(self):
        if not 0.0 <= self.p_excited <= 1.0:
            raise DomainError(f"p_excited must lie in [0, 1], got {self.p_excited}")
        if self.gamma <= 0:
            raise DomainError(f"gamma must be positive, got {self.gamma}")
        if not 0.0 <= self.eta_into_cavity <= 1.0:
            raise DomainError("eta_into_cavity must lie in [0, 1]")
        if self.decay_start < 0:
            raise DomainError("decay_start must be non-negative")


@dataclass(frozen=True)
class ClickStream:
    """Detector clicks, sorted by pulse and then by arrival time."""

    pulse_index: np.ndarray
    t_in_pulse: np.ndarray
    n_pulses: int
    seed: int = 0

    def __post_init__(self):
        pulse = np.ascontiguousarray(self.pulse_index, dtype=np.uint64)
        t = np.ascontiguousarray(self.t_in_pulse, dtype=float)
        object.__setattr__(self, "pulse_index", pulse)
        object.__setattr__(self, "t_in_pulse", t)
        if pulse.shape != t.shape or pulse.ndim != 1:
            raise DomainError("pulse_index and t_in_pulse must be 1-d and equal length")
        if self.n_pulses <= 0:
            raise DomainError(f"n_pulses must be positive, got {self.n_pulses}")
        if len(pulse) and int(pulse.max()) >= self.n_pulses:
            raise DomainError("click pulse_index outside the recorded range")
        if np.any(t < 0) or not np.all(np.isfinite(t)):
            raise DomainError("click times must be finite and non-negative")

    def __len__(self) -> int:
        return len(self.pulse_index)

    def to_binary(self, path) -> None:
        records = np.empty(len(self), dtype=_RECORD_DTYPE)
        records["pulse_index"] = self.pulse_index
        records["t_ns"] = self.t_in_pulse * 1e9
        head = struct.pack("<4sIQQQ", _BINARY_MAGIC, _BINARY_VERSION,
                           self.n_pulses, self.seed, len(self))
        write_bytes_atomic(path, head, records)

    @classmethod
    def from_binary(cls, path) -> "ClickStream":
        with open(path, "rb") as fh:
            raw = fh.read()
        head_size = struct.calcsize("<4sIQQQ")
        if len(raw) < head_size:
            raise ConfigError(f"{path}: truncated click file")
        magic, version, n_pulses, seed, n_records = struct.unpack_from(
            "<4sIQQQ", raw)
        if magic != _BINARY_MAGIC:
            raise ConfigError(f"{path}: not a click file (bad magic {magic!r})")
        if version != _BINARY_VERSION:
            raise ConfigError(f"{path}: unsupported click file version {version}")
        body = raw[head_size:]
        if len(body) != n_records * _RECORD_DTYPE.itemsize:
            raise ConfigError(f"{path}: click record payload has the wrong size")
        records = np.frombuffer(body, dtype=_RECORD_DTYPE)
        return cls(records["pulse_index"].copy(), records["t_ns"] * 1e-9,
                   n_pulses=int(n_pulses), seed=int(seed))


def _telegraph_runs(n_pulses, p_bright, rep_period, switch_time, rng):
    """The bright runs of the stationary two-state telegraph over n_pulses
    pulses, yielded a block at a time as (start, length) arrays.

    Sojourn lengths are geometric and alternate from a stationary first
    state.  A block draws _SOJOURN_BLOCK sojourns of the first state's
    kind, then as many of the other's, so it holds an even number of whole
    runs and the next block starts in the first state again; clipped at
    n_pulses, a run may be empty.  Blocks are drawn only as they are read,
    until they cover n_pulses, and a state that is never left lasts to the
    end.
    """
    decay = math.exp(-rep_period / switch_time)
    first = bool(rng.random() < p_bright)
    leave = ((1.0 - p_bright) * (1.0 - decay), p_bright * (1.0 - decay))
    leave_a, leave_b = leave if first else leave[::-1]
    if leave_a <= 0.0:
        if first:
            yield np.zeros(1, dtype=np.int64), np.array([n_pulses])
        return
    bright = 0 if first else 1  # the bright runs' parity in a block
    edges = np.empty(2 * _SOJOURN_BLOCK + 1, dtype=np.int64)
    total = edges[0] = 0
    while total < n_pulses:
        runs = edges[1:]
        runs[0::2] = rng.geometric(leave_a, size=_SOJOURN_BLOCK)
        runs[1::2] = rng.geometric(max(leave_b, 1e-12), size=_SOJOURN_BLOCK)
        np.minimum(runs, n_pulses, out=runs)
        np.cumsum(runs, out=runs)
        np.minimum(runs, n_pulses - total, out=runs)
        runs += total
        start = edges[bright:-1:2].copy()
        yield start, edges[bright + 1::2] - start
        total = edges[0] = int(edges[-1])


MAX_BACKGROUND_CLICKS = 100_000_000  # a record each: the n_pulses cap


def simulate_clicks(emission: EmissionModel, detector: DetectorConfig,
                    n_pulses: int, rng: np.random.Generator, *,
                    blink: BlinkConfig | None = None,
                    rep_period: float = 100e-6,
                    background_per_pulse: float = 0.0,
                    seed: int = 0) -> ClickStream:
    """Generate the click record of a pulsed single-emitter run."""
    pulse, t = settle_clicks(*draw_clicks(
        emission, detector, n_pulses, rng, blink=blink, rep_period=rep_period,
        background_per_pulse=background_per_pulse), detector.dead_time)
    return ClickStream(pulse, t, n_pulses=n_pulses, seed=seed)


def draw_clicks(emission: EmissionModel, detector: DetectorConfig,
                n_pulses: int, rng: np.random.Generator, *,
                blink: BlinkConfig | None = None, rep_period: float = 100e-6,
                background_per_pulse: float = 0.0):
    """(pulse index, time in pulse) of every click before ordering and
    dead time.  Draw order is fixed (telegraph and excitation, decay times,
    background) so a given generator state always yields the same clicks.

    Only a bright pulse can fire, so only bright pulses draw a uniform: one
    each, in pulse order, and it fires below p_click.  A steady emitter's
    pulses are all bright.  A blinking emitter's telegraph comes a block
    of runs at a time; each block's bright pulses draw theirs before the
    next block is drawn, and a fired one is mapped from its slot among
    them back to its pulse through the block's cumulative bright lengths.
    The uniforms are drawn _UNIFORM_BLOCK at a time into one buffer, and
    no array holds one entry per pulse or per sojourn, so memory follows
    the clicks.  random() takes one 64-bit output per double, so a steady
    emitter's uniforms are the values, and leave the generator state, of
    one rng.random(n_pulses).
    """
    if n_pulses <= 0:
        raise DomainError(f"n_pulses must be positive, got {n_pulses}")
    if background_per_pulse < 0:
        raise DomainError("background_per_pulse must be non-negative")
    if rep_period <= 0:
        raise DomainError(f"rep_period must be positive, got {rep_period}")
    lam = detector.dark_rate * detector.gate_duration + background_per_pulse
    if not lam * n_pulses <= MAX_BACKGROUND_CLICKS:
        raise DomainError(f"more than {MAX_BACKGROUND_CLICKS:,} background "
                          "clicks expected: lower n_pulses, dark_rate, "
                          "gate_duration or background_per_pulse")

    p_click = emission.p_excited * emission.eta_into_cavity * detector.eta_total
    buf = np.empty(min(n_pulses, _UNIFORM_BLOCK))
    if blink is not None and blink.p_bright < 1.0:
        fired = [np.empty(0, dtype=np.int64)]
        for start, length in _telegraph_runs(n_pulses, blink.p_bright,
                                             rep_period, blink.switch_time,
                                             rng):
            cum = np.cumsum(length)
            slot = _fired_slots(int(cum[-1]), p_click, buf, rng)
            # a slot's pulse: its run's first pulse, plus its place in the run
            run = np.searchsorted(cum, slot, side="right")
            fired.append(slot + (start - cum + length)[run])
        src_pulse = np.concatenate(fired)
    else:
        src_pulse = _fired_slots(n_pulses, p_click, buf, rng)
    src_pulse = src_pulse.astype(np.uint64)
    src_t = emission.decay_start + rng.exponential(1.0 / emission.gamma,
                                                   size=len(src_pulse))
    gate_end = detector.gate_start + detector.gate_duration
    in_gate = (src_t >= detector.gate_start) & (src_t < gate_end)
    src_pulse, src_t = src_pulse[in_gate], src_t[in_gate]

    total_bg = rng.poisson(lam * n_pulses)
    bg_pulse = rng.integers(0, n_pulses, size=total_bg, dtype=np.uint64)
    bg_t = detector.gate_start + rng.random(total_bg) * detector.gate_duration
    return np.concatenate([src_pulse, bg_pulse]), np.concatenate([src_t, bg_t])


def _fired_slots(n, p_click, buf, rng):
    """Indices of the n slots whose uniform falls below p_click, the
    uniforms drawn len(buf) at a time into buf."""
    fired = [np.empty(0, dtype=np.int64)]
    for lo in range(0, n, len(buf)):
        u = buf[:n - lo]
        rng.random(out=u)
        fired.append(np.flatnonzero(u < p_click) + lo)
    return np.concatenate(fired)


def settle_clicks(pulse, t, dead_time):
    """Clicks sorted by pulse and then by time, each dropped that follows
    the last kept click of its pulse by less than dead_time."""
    order = _click_order(pulse, t)
    pulse, t = pulse[order], t[order]
    if dead_time > 0 and len(pulse) > 1:
        pulse, t = _prune_dead_time(pulse, t, dead_time)
    return pulse, t


def _click_order(pulse, t):
    """The permutation np.lexsort((t, pulse)) gives, in about a third of
    its time.

    Clicks are ranked by time (ties by position, as a stable sort would),
    then one uint64 key per click, pulse * n + rank, is sorted: the keys
    are unique, so any sort gives the same order.  The key stays below
    2**64 while n_pulses and the n clicks are both below 4e9, and 4e9
    pulses already take 32 GB of draws.
    """
    n = len(t)
    by_t = np.argsort(t)
    t_sorted = t[by_t]
    tie = np.flatnonzero(t_sorted[1:] == t_sorted[:-1])
    if len(tie):
        pos = np.union1d(tie, tie + 1)
        tied = by_t[pos]
        by_t[pos] = tied[np.lexsort((tied, t_sorted[pos]))]
    del t_sorted  # the peak memory stays at lexsort's
    key = pulse[by_t]
    key *= np.uint64(n)
    key += np.arange(n, dtype=np.uint64)
    key.sort()
    if n:
        key %= np.uint64(n)
    return by_t[key]


# _prune_dead_time's cost model, in units of one click settled in a
# lockstep step: a step's numpy calls cost about _STEP_COST of them, a
# walked pulse about _WALK_COST per click it keeps (timed on numpy 2.4)
_STEP_COST = 300.0
_WALK_COST = 50.0
_WALK_CHECK = 16  # lockstep steps between choices


def _prune_dead_time(pulse, t, dead_time):
    """Drop each click that follows the last kept click of its pulse by
    less than dead_time.

    Pulses advance in lockstep: step k settles the k-th click of every
    pulse that has one.  Every _WALK_CHECK steps, if walking the pulses
    still active one by one, a jump per kept click, would cost less than
    lockstep to the end of the longest, they are handed to _walk_pulses.
    """
    keep = np.ones(len(pulse), dtype=bool)
    starts = np.flatnonzero(np.r_[True, pulse[1:] != pulse[:-1]])
    end = np.r_[starts[1:], len(pulse)]
    j, last = starts + 1, t[starts]
    step = 0
    while True:
        active = j < end
        j, end, last = j[active], end[active], last[active]
        if not len(j):
            return pulse[keep], t[keep]
        step += 1
        if step % _WALK_CHECK == 0:
            left = end - j
            # a pulse keeps at most one click per dead_time of its span
            kept = np.minimum(left, (t[end - 1] - last) / dead_time + 1.0)
            if (_WALK_COST * kept.sum()
                    < left.max() * (_STEP_COST + len(left))):
                _walk_pulses(t, j, end, last, dead_time, keep)
                return pulse[keep], t[keep]
        t_j = t[j]
        dead = t_j - last < dead_time
        keep[j[dead]] = False
        last = np.where(dead, last, t_j)
        j += 1


def _walk_pulses(t, starts, ends, lasts, dead_time, keep):
    """Settle clicks starts[i]:ends[i] of each pulse after a kept click at
    lasts[i], jumping by bisection from each kept click to the next."""
    for start, stop, last in zip(starts.tolist(), ends.tolist(),
                                 lasts.tolist()):
        times = t[start:stop].tolist()
        kept = []
        i = 0
        while True:
            c = bisect_left(times, last + dead_time, i)
            # the sum is rounded: settle c by the loop's own test
            while c > i and times[c - 1] - last >= dead_time:
                c -= 1
            while c < len(times) and times[c] - last < dead_time:
                c += 1
            if c == len(times):
                break
            kept.append(c)
            last, i = times[c], c + 1
        mask = np.zeros(len(times), dtype=bool)
        mask[kept] = True
        keep[start:stop] = mask


def g2_pulsed(stream: ClickStream, max_offset: int = 10):
    """Pulse-wise normalised intensity correlation.

    Returns (offsets, g2, stderr).  Offset 0 uses the factorial moment
    <n(n-1)>/<n>^2; offsets m >= 1 use <n_i n_{i+m}>/<n>^2.  The standard
    error treats the per-pulse products as independent samples and ignores
    the (smaller) uncertainty of the mean rate.

    The work scales with the clicked pulses, not with n_pulses.  One pass
    over the pulse-sorted stream gives each clicked pulse p and its count
    c.  Offset m has L = n_pulses - m products x; only the K products at
    clicked pulses can be nonzero: c(c - 1) for m = 0, and c_i c_j over
    the pairs p_j = p_i + m for m >= 1.  The sum of x is an exact int64,
    so mean = sum(x) / L equals the mean over all L products; the variance
    sums (x - mean)^2 over the K products in float64 and adds
    (L - K) mean^2 for the zeros.

    Pairs are found by a pointer per pulse, not a search per offset.  Only
    the K' pulses whose next clicked pulse lies within max_offset can
    pair.  Each keeps j, its first clicked pulse at or past p_i + m: as p
    is strictly increasing, j moves on by one past each partner found and
    stays put otherwise.  The time is O(K' max_offset) and the memory O(K).
    """
    if max_offset < 0:
        raise DomainError(f"max_offset must be non-negative, got {max_offset}")
    if stream.n_pulses < max_offset + 2:
        raise DomainError(f"n_pulses {stream.n_pulses} is too few for "
                          f"max_offset {max_offset}")
    pulse = stream.pulse_index
    if not len(pulse):
        raise DomainError("click stream is empty; g2 is undefined")
    if np.any(pulse[1:] < pulse[:-1]):
        pulse = np.sort(pulse)
    starts = np.flatnonzero(np.r_[True, pulse[1:] != pulse[:-1]])
    p = pulse[starts].astype(np.int64)
    c = np.diff(np.r_[starts, len(pulse)])
    near = np.flatnonzero(p[1:] - p[:-1] <= max_offset)  # the K' pulses
    c_near, p_near = c[near], p[near]
    j = near + 1
    gap = p[j] - p_near  # p_j - p_i
    mu = len(pulse) / stream.n_pulses
    offsets = np.arange(max_offset + 1)
    g2 = np.empty(max_offset + 1)
    stderr = np.empty(max_offset + 1)
    mu_sq = mu * mu
    for m in offsets:
        if m == 0:
            x = c * (c - 1)
        else:
            pair = np.flatnonzero(gap == m)
            hit = j[pair]
            x = c_near[pair] * c[hit]
            hit += 1
            j[pair] = hit
            # a j past the last pulse reads the last, whose gap is this m:
            # it never pairs again
            gap[pair] = p[np.minimum(hit, len(p) - 1)] - p_near[pair]
        n = stream.n_pulses - m
        mean = x.sum() / n
        var = ((np.square(x - mean).sum() + (n - len(x)) * mean * mean)
               / (n - 1))
        g2[m] = mean / mu_sq
        stderr[m] = math.sqrt(var) / math.sqrt(n) / mu_sq
    return offsets, g2, stderr


def g2_background_floor(ratio):
    """Zero-delay correlation of one quiet emitter over Poisson background.

    With per-pulse mean counts a*b (emitter) and b (background),
    g2(0) -> (2a + 1) / (a + 1)^2 for a perfectly antibunched source.
    """
    a = np.asarray(ratio, dtype=float)
    if np.any(a < 0) or not np.all(np.isfinite(a)):
        raise DomainError("signal-to-background ratio must be finite and non-negative")
    out = (2.0 * a + 1.0) / (a + 1.0) ** 2
    return float(out) if out.ndim == 0 else out
