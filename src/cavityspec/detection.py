"""Click-level detection model and pulsed photon statistics.

A pulsed experiment is reduced to a stream of detector clicks tagged with
the pulse number and the arrival time inside the pulse.  The emitter
contributes at most one photon per pulse (the drive is off once the gate
opens), thinned by the collection chain and the gate; dark counts and
residual laser background arrive as Poisson processes inside the gate.
Slow intensity switching (blinking) gates the emitter with a two-state
telegraph sampled at the pulse boundaries.  The pulses whose photon would
be collected are drawn as geometric gaps, and a blinking emitter's
telegraph is sampled only at those pulses, a block at a time, so work and
memory follow the clicks, not the pulses or the telegraph's switches.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError
from .output import write_bytes_atomic

_BINARY_MAGIC = b"CSPK"
_BINARY_VERSION = 1
_RECORD_DTYPE = np.dtype([("pulse_index", "<u8"), ("t_ns", "<f8")])
_BLOCK = 32_768  # candidate pulses drawn and thinned per block


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

    def to_binary(self, path) -> str:
        """Write the stream as a click file; return its SHA-256 hex digest."""
        records = np.empty(len(self), dtype=_RECORD_DTYPE)
        records["pulse_index"] = self.pulse_index
        records["t_ns"] = self.t_in_pulse * 1e9
        head = struct.pack("<4sIQQQ", _BINARY_MAGIC, _BINARY_VERSION,
                           self.n_pulses, self.seed, len(self))
        return write_bytes_atomic(path, head, records)

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
    """(pulse index, time in pulse) of every click before dead time, in
    (pulse, time) order.  Draw order is fixed, so a generator state gives
    the same clicks: the candidate pulses' geometric gaps and, if blinking,
    their thinning uniforms, a block at a time (_source_pulses); then the
    source clicks' decay times; then the background.
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
    src_pulse = _source_pulses(n_pulses, p_click, blink, rep_period,
                               rng).astype(np.uint64)
    src_t = emission.decay_start + rng.exponential(1.0 / emission.gamma,
                                                   size=len(src_pulse))
    gate_end = detector.gate_start + detector.gate_duration
    in_gate = (src_t >= detector.gate_start) & (src_t < gate_end)
    src_pulse, src_t = src_pulse[in_gate], src_t[in_gate]

    # background: one Poisson process along the gates laid end to end, its
    # points in order from normalised exponential spacings (Devroye 1986,
    # ch. V); a point's integer part is its pulse, its fraction in the gate
    x = rng.standard_exponential(rng.poisson(lam * n_pulses) + 1)
    np.cumsum(x, out=x)
    x *= n_pulses / x[-1]
    x = x[:-1]
    # rounding can lift the last few points to n_pulses
    x[np.searchsorted(x, n_pulses):] = np.nextafter(n_pulses, 0)
    bg_pulse = x.astype(np.uint64)
    x -= bg_pulse
    x *= detector.gate_duration
    x += detector.gate_start
    # each source click goes before the first background click of its
    # pulse at or after its time, found by bisection within the pulse
    lo = np.searchsorted(bg_pulse, src_pulse)
    hi = np.searchsorted(bg_pulse, src_pulse, side="right")
    todo = np.flatnonzero(lo < hi)
    while len(todo):
        mid = (lo[todo] + hi[todo]) // 2
        later = x[mid] < src_t[todo]
        lo[todo[later]] = mid[later] + 1
        hi[todo[~later]] = mid[~later]
        todo = todo[lo[todo] < hi[todo]]
    return np.insert(bg_pulse, lo, src_pulse), np.insert(x, lo, src_t)


def _source_pulses(n_pulses, p_click, blink, rep_period, rng):
    """The pulses whose emitter photon is collected, in order.

    Candidates are the pulses whose Bernoulli(p_click) trial succeeds,
    drawn as cumulative geometric gaps (Batagelj and Brandes, Phys. Rev. E
    71, 036113, 2005).  A steady emitter's candidates are its source
    pulses.  A blinking emitter keeps a candidate iff its stationary
    telegraph is bright there.  After k pulses the telegraph is bright with
    probability p + (s - p) decay^k, s its state at the last candidate.
    So, by one uniform u each, a candidate is bright whatever s was below
    lo = p - p decay^k, dark at or above hi = p + (1 - p) decay^k, and
    keeps s between; the first candidate is bright below p.  (lo is
    written so to give the bits of p + (s - p) decay^k at s = 0.)  Its
    state is then that of the last candidate so forced, filled forward.

    Each block draws its gaps, at most _BLOCK and about four sd more than
    the candidates left to expect, then one uniform per candidate in range
    if blinking; the last pulse and state carry to the next block.
    """
    fired = [np.empty(0, dtype=np.int64)]
    thin = blink is not None and blink.p_bright < 1.0
    if thin:
        p = blink.p_bright
        decay = math.exp(-rep_period / blink.switch_time)
    last, bright = -1, None
    while p_click > 0 and last < n_pulses - 1:
        left = n_pulses - 1 - last
        mean = left * p_click
        size = min(_BLOCK, left, int(mean + 4 * math.sqrt(mean)) + 1)
        pulse = rng.geometric(p_click, size)
        # numpy gives INT64_MAX for p_click below ~1e-20; any gap past the
        # last pulse ends the draw alike, and the clip keeps the sum in int64
        np.minimum(pulse, left + 1, out=pulse)
        np.cumsum(pulse, out=pulse)
        pulse += last
        pulse = pulse[:np.searchsorted(pulse, n_pulses)]
        if thin and len(pulse):
            u = rng.random(len(pulse))
            dk = decay ** np.diff(pulse, prepend=last)
            if bright is None:
                dk[0] = 0.0
            on = u < p - p * dk
            forced = np.where(on | (u >= p + (1.0 - p) * dk),
                              np.arange(1, len(u) + 1), 0)
            np.maximum.accumulate(forced, out=forced)
            state = np.r_[bool(bright), on][forced]
            bright = state[-1]
            fired.append(pulse[state])
        else:
            fired.append(pulse)
        if len(pulse) < size:
            break
        last = int(pulse[-1])
    return np.concatenate(fired)


def settle_clicks(pulse, t, dead_time):
    """Drop each click of a (pulse, time)-sorted stream that follows the
    last kept click of its pulse by less than dead_time.

    A click at least dead_time after its pulse's previous click is kept:
    the last kept click is no later, and a rounded difference does not
    fall as what it subtracts falls.  So each run of closer clicks is
    settled from the kept click before it: its first click is dropped, a
    second of two is kept if dead_time after it, longer runs are walked.
    """
    if not dead_time > 0:
        return pulse, t
    close = np.zeros(len(t) + 1, dtype=bool)
    close[1:-1] = (np.diff(t) < dead_time) & (pulse[1:] == pulse[:-1])
    # the runs of close clicks, [start, end)
    start, end = (np.flatnonzero(close[1:] != close[:-1]) + 1).reshape(-1, 2).T
    keep = ~close[:-1]
    two = start[end - start == 2]
    keep[two + 1] = t[two + 1] - t[two - 1] >= dead_time
    long = end - start > 2
    _walk_pulses(t, start[long] + 1, end[long], t[start[long] - 1], dead_time,
                 keep)
    return pulse[keep], t[keep]


def _walk_pulses(t, starts, ends, lasts, dead_time, keep):
    """Mark in keep, False there before, the clicks kept among
    starts[i]:ends[i] of each pulse after a kept click at lasts[i].

    All runs step together: each round bisects every live run for its
    first click whose difference from the run's last kept click is at
    least dead_time, by the loop's own test, keeps it and walks on from
    it.  A run ends when no such click is left.
    """
    lo, end, last = starts.copy(), ends, lasts
    while len(lo):
        hi = end.copy()
        todo = np.flatnonzero(lo < hi)
        while len(todo):
            mid = (lo[todo] + hi[todo]) // 2
            far = t[mid] - last[todo] >= dead_time
            hi[todo[far]] = mid[far]
            lo[todo[~far]] = mid[~far] + 1
            todo = todo[lo[todo] < hi[todo]]
        live = lo < end
        found = lo[live]
        keep[found] = True
        lo, end, last = found + 1, end[live], t[found]


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
    # one set of buffers for every offset: on a dense stream most of the K'
    # pulses pair at each offset, and fresh arrays would be faulted in each
    # time.  Every index taken is in range; mode "clip" writes `out`
    # unbuffered
    is_pair = np.empty(len(near), dtype=bool)
    hit, other, prod = np.empty((3, len(near)), dtype=np.int64)
    dev = np.empty(len(c))
    for m in offsets:
        if m == 0:
            x = c * (c - 1)
        else:
            pair = np.flatnonzero(np.equal(gap, m, out=is_pair))
            h, o, x = hit[:len(pair)], other[:len(pair)], prod[:len(pair)]
            j.take(pair, out=h, mode="clip")
            c_near.take(pair, out=x, mode="clip")
            x *= c.take(h, out=o, mode="clip")
            h += 1
            j[pair] = h
            # a j past the last pulse reads the last, whose gap is this m:
            # it never pairs again
            p.take(np.minimum(h, len(p) - 1, out=o), out=h, mode="clip")
            h -= p_near.take(pair, out=o, mode="clip")
            gap[pair] = h
        n = stream.n_pulses - m
        mean = x.sum() / n
        d = np.subtract(x, mean, out=dev[:len(x)])
        var = ((np.square(d, out=d).sum() + (n - len(x)) * mean * mean)
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
