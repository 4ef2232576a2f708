"""Run configuration: unit-suffixed `key = value` text grouped in [sections].

Dimensioned fields require an explicit unit ("kappa = 3.85 GHz"); a bare
number there is an error, not a guess.  Rates and couplings entered as
frequencies (kappa, g_interface, gamma0, gamma_dephasing) are cycles and
get multiplied by 2*pi internally; dark_rate stays a plain counts/s.
Frequencies inside a file are absolute, except the keys named *_offset,
which are relative to the cavity frequency.

dump_config writes the fully resolved settings back in the same syntax;
parsing that text reproduces the configuration exactly, and its SHA-256 is
the config hash recorded in run manifests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .constants import TWO_PI
from .detection import DetectorConfig
from .ensemble import EnsembleConfig, IonRecord, ZeemanConfig
from .errors import ConfigError, DomainError
from .experiments import EXPERIMENTS, MAX_GRID_POINTS, PulseSequence
from .output import read_text
from .physics import CavityParams, EmitterConstants, TransverseEnvelope


class Kind(Enum):
    STR = "string"
    COUNT = "positive integer"
    NATURAL = "non-negative integer"
    BOOL = "boolean"
    PLAIN = "dimensionless number"
    FREQ = "frequency"
    TIME = "time"
    POWER = "power"
    LENGTH = "length"
    BFIELD = "magnetic field"
    TEMP = "temperature"
    DRIFT = "frequency drift rate"
    VEC_LENGTH = "length 3-vector"
    VEC_BFIELD = "field 3-vector"
    BFIELD_LIST = "field list"
    INTERVALS = "interval list"
    TEMP_GRID = "temperature grid"


_UNITS: dict[Kind, dict[str, float]] = {
    Kind.FREQ: {"hz": 1.0, "khz": 1e3, "mhz": 1e6, "ghz": 1e9, "thz": 1e12},
    Kind.TIME: {"s": 1.0, "ms": 1e-3, "us": 1e-6, "µs": 1e-6, "ns": 1e-9},
    Kind.POWER: {"w": 1.0, "mw": 1e-3, "uw": 1e-6, "µw": 1e-6,
                 "nw": 1e-9, "pw": 1e-12},
    Kind.LENGTH: {"m": 1.0, "mm": 1e-3, "um": 1e-6, "µm": 1e-6, "nm": 1e-9},
    Kind.BFIELD: {"t": 1.0, "mt": 1e-3, "ut": 1e-6, "µt": 1e-6, "g": 1e-4},
    Kind.TEMP: {"k": 1.0},
    Kind.DRIFT: {"hz/s": 1.0, "khz/s": 1e3, "mhz/s": 1e6, "ghz/s": 1e9,
                 "mhz/hr": 1e6 / 3600.0, "ghz/hr": 1e9 / 3600.0},
}
_UNITS[Kind.VEC_LENGTH] = _UNITS[Kind.LENGTH]
_UNITS[Kind.VEC_BFIELD] = _UNITS[Kind.BFIELD]
_UNITS[Kind.BFIELD_LIST] = _UNITS[Kind.BFIELD]
_UNITS[Kind.INTERVALS] = _UNITS[Kind.FREQ]
_UNITS[Kind.TEMP_GRID] = _UNITS[Kind.TEMP]

_INT_FLOOR = {Kind.COUNT: 1, Kind.NATURAL: 0}

_EXAMPLE = {Kind.FREQ: "3.85 GHz", Kind.TIME: "10 us", Kind.POWER: "1 nW",
            Kind.LENGTH: "45 nm", Kind.BFIELD: "2 mT", Kind.TEMP: "4 K",
            Kind.DRIFT: "1 MHz/s"}


def _fail(where: str, message: str) -> ConfigError:
    return ConfigError(f"{where}: {message}")


def _build(section: str, ctor, **fields):
    """ctor(**fields), a DomainError reported against the section's keys."""
    try:
        return ctor(**fields)
    except DomainError as exc:
        keys = ", ".join(k for s, k in SETTINGS if s == section)
        raise _fail(f"[{section}] {keys}", str(exc)) from None


def _number(token: str, where: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise _fail(where, f"not a number: {token!r}") from None
    if not math.isfinite(value):
        raise _fail(where, f"value must be finite, got {token!r}")
    return value


def _unit_factor(token: str, kind: Kind, where: str) -> float:
    table = _UNITS[kind]
    factor = table.get(token.lower())
    if factor is None:
        raise _fail(where, f"unknown {kind.value} unit {token!r} "
                           f"(expected one of {', '.join(sorted(table))})")
    return factor


def _scalar_with_unit(text: str, kind: Kind, where: str) -> float:
    parts = text.split()
    if len(parts) == 1:
        raise _fail(where, f"{kind.value} needs a unit, e.g. "
                           f"'{_EXAMPLE[kind]}'; got bare {text!r}")
    if len(parts) != 2:
        raise _fail(where, f"expected '<number> <unit>', got {text!r}")
    return _number(parts[0], where) * _unit_factor(parts[1], kind, where)


def _tuple_with_unit(text: str, form: str, kind: Kind,
                     where: str) -> tuple[float, ...]:
    """'(a, b, ...) <unit>' with as many components as form, the expected
    syntax '(x, y, z)' or '(lo, hi)', each scaled by the kind's unit."""
    body = text.strip()
    close = body.find(")")
    comps = [c.strip() for c in body[1:close].split(",")]
    unit = body[close + 1:].strip()
    if (not body.startswith("(") or close < 0 or not unit
            or len(comps) != form.count(",") + 1):
        raise _fail(where, f"expected '{form} <unit>', got {text!r}")
    factor = _unit_factor(unit, kind, where)
    return tuple(_number(c, where) * factor for c in comps)


def _intervals(text: str, where: str) -> tuple[tuple[float, float], ...]:
    if not text.strip():
        return ()
    out = []
    for chunk in text.split(";"):
        body = chunk.strip()
        lo, hi = _tuple_with_unit(body, "(lo, hi)", Kind.FREQ, where)
        if not lo < hi:
            raise _fail(where, f"interval bounds must satisfy lo < hi, got {body!r}")
        out.append((lo, hi))
    return tuple(out)


def _temp_grid(text: str, where: str) -> tuple[float, float, float]:
    parts = text.split()
    if len(parts) != 2:
        raise _fail(where, f"expected 'start:stop:step K', got {text!r}")
    factor = _unit_factor(parts[1], Kind.TEMP, where)
    pieces = parts[0].split(":")
    if len(pieces) != 3:
        raise _fail(where, f"expected 'start:stop:step K', got {text!r}")
    start, stop, step = (_number(p, where) * factor for p in pieces)
    if step <= 0 or not 0 < start <= stop:
        raise _fail(where, "grid needs step > 0 and 0 < start <= stop")
    return (start, stop, step)


def parse_value(text: str, kind: Kind, where: str):
    if kind is Kind.STR:
        return text
    if kind is Kind.BOOL:
        low = text.lower()
        if low in ("true", "yes", "on", "1"):
            return True
        if low in ("false", "no", "off", "0"):
            return False
        raise _fail(where, f"expected true/false, got {text!r}")
    if kind in _INT_FLOOR:
        try:
            value = int(text)
        except ValueError:
            raise _fail(where, f"expected an integer, got {text!r}") from None
        if value < _INT_FLOOR[kind]:
            raise _fail(where, f"expected a {kind.value}, got {text!r}")
        return value
    if kind is Kind.PLAIN:
        if len(text.split()) != 1:
            raise _fail(where, f"takes a bare number (no unit), got {text!r}")
        return _number(text, where)
    if kind in (Kind.VEC_LENGTH, Kind.VEC_BFIELD):
        return _tuple_with_unit(text, "(x, y, z)", kind, where)
    if kind is Kind.BFIELD_LIST:
        return tuple(_scalar_with_unit(c.strip(), Kind.BFIELD, where)
                     for c in text.split(",") if c.strip())
    if kind is Kind.INTERVALS:
        return _intervals(text, where)
    if kind is Kind.TEMP_GRID:
        return _temp_grid(text, where)
    return _scalar_with_unit(text, kind, where)


# (section, key) -> (kind, default), in the order dump_config writes them
SETTINGS: dict[tuple[str, str], tuple[Kind, str]] = {
    ("", "experiment"): (Kind.STR, "ple"),
    ("", "seed"): (Kind.NATURAL, "1"),
    ("", "output_dir"): (Kind.STR, "cavityspec-out"),
    ("cavity", "frequency"): (Kind.FREQ, "195.1188 THz"),
    ("cavity", "kappa"): (Kind.FREQ, "3.85 GHz"),
    ("cavity", "eta_cav"): (Kind.PLAIN, "0.16"),
    ("cavity", "g_interface"): (Kind.FREQ, "2.62 MHz"),
    ("cavity", "z_half"): (Kind.LENGTH, "45 nm"),
    ("emitter", "gamma0"): (Kind.FREQ, "14 Hz"),
    ("emitter", "frequency"): (Kind.FREQ, "195 THz"),
    ("emitter", "gamma_dephasing"): (Kind.FREQ, "3.1 MHz"),
    ("ion", "offset"): (Kind.FREQ, "0 Hz"),
    ("ion", "purcell"): (Kind.PLAIN, "320"),
    ("ion", "delta_g"): (Kind.PLAIN, "1.55"),
    ("detector", "eta_total"): (Kind.PLAIN, "0.04"),
    ("detector", "dark_rate"): (Kind.FREQ, "100 Hz"),
    ("detector", "gate_start"): (Kind.TIME, "10 us"),
    ("detector", "gate_duration"): (Kind.TIME, "82 us"),
    ("detector", "dead_time"): (Kind.TIME, "0 s"),
    ("sequence", "power"): (Kind.POWER, "50 pW"),
    ("sequence", "excite"): (Kind.TIME, "10 us"),
    ("sequence", "period"): (Kind.TIME, "100 us"),
    ("ensemble", "enabled"): (Kind.BOOL, "false"),
    ("ensemble", "ppm"): (Kind.PLAIN, "3"),
    ("ensemble", "density_per_m3"): (Kind.PLAIN, "0"),
    ("ensemble", "site1_fraction"): (Kind.PLAIN, "0.5"),
    ("ensemble", "center_offset"): (Kind.FREQ, "0 Hz"),
    ("ensemble", "sigma"): (Kind.FREQ, "2.9 GHz"),
    ("ensemble", "region"): (Kind.VEC_LENGTH, "(2, 1, 0.15) um"),
    ("ensemble", "max_count"): (Kind.COUNT, "10000000"),
    ("ensemble", "waist_x"): (Kind.LENGTH, "800 nm"),
    ("ensemble", "waist_y"): (Kind.LENGTH, "325 nm"),
    ("scan", "center_offset"): (Kind.FREQ, "0 Hz"),
    ("scan", "span"): (Kind.FREQ, "100 MHz"),
    ("scan", "step"): (Kind.FREQ, "0.5 MHz"),
    ("scan", "pulses_per_point"): (Kind.COUNT, "2000"),
    ("scan", "drift"): (Kind.DRIFT, "0 Hz/s"),
    ("scan", "co_scan"): (Kind.BOOL, "true"),
    ("scan", "background_coeff"): (Kind.PLAIN, "0"),
    ("scan", "mask"): (Kind.INTERVALS, ""),
    ("lifetime", "n_pulses"): (Kind.COUNT, "100000"),
    ("lifetime", "n_bins"): (Kind.COUNT, "64"),
    ("lifetime", "laser_detuning"): (Kind.FREQ, "0 Hz"),
    ("lifetime", "cavity_detuning"): (Kind.FREQ, "0 Hz"),
    ("lifetime", "background_per_pulse"): (Kind.PLAIN, "0"),
    ("cavity_sweep", "span"): (Kind.FREQ, "9.24 GHz"),
    ("cavity_sweep", "n_points"): (Kind.COUNT, "13"),
    ("cavity_sweep", "pulses_per_point"): (Kind.COUNT, "30000"),
    ("cavity_sweep", "gate_factor"): (Kind.PLAIN, "6"),
    ("cavity_sweep", "n_bins"): (Kind.COUNT, "48"),
    ("saturation", "power_min"): (Kind.POWER, "10 pW"),
    ("saturation", "power_max"): (Kind.POWER, "10 nW"),
    ("saturation", "n_points"): (Kind.COUNT, "9"),
    ("saturation", "off_detuning"): (Kind.FREQ, "200 MHz"),
    ("zeeman", "b_offset"): (Kind.VEC_BFIELD, "(1, 0, 0) G"),
    ("zeeman", "spin_flip_strength"): (Kind.PLAIN, "0"),
    ("zeeman", "sum_g"): (Kind.PLAIN, "0"),
    ("zeeman", "fields"): (Kind.BFIELD_LIST, "2 mT, 4 mT, 6 mT, 8 mT, 10 mT"),
    # the short default excite pulse undersettles the ion, so peak finding
    # needs more shots per point than the other scans
    ("zeeman", "pulses_per_point"): (Kind.COUNT, "30000"),
    ("g2", "n_pulses"): (Kind.COUNT, "1000000"),
    ("g2", "max_offset"): (Kind.NATURAL, "10"),
    ("g2", "background_per_pulse"): (Kind.PLAIN, "0"),
    ("g2", "blink"): (Kind.BOOL, "false"),
    ("g2", "p_bright"): (Kind.PLAIN, "1"),
    ("g2", "switch_time"): (Kind.TIME, "800 us"),
    ("spin_t1", "temp_grid"): (Kind.TEMP_GRID, "2:8:0.5 K"),
    ("spin_t1", "nu"): (Kind.FREQ, "9 GHz"),
    ("spin_t1", "a_direct"): (Kind.PLAIN, "5e-5"),
    ("spin_t1", "a_raman"): (Kind.PLAIN, "1.3e-3"),
    ("spin_t1", "a_orbach"): (Kind.PLAIN, "2.5e10"),
    ("spin_t1", "delta_orbach"): (Kind.PLAIN, "6.4"),
    ("purcell_stats", "fraction_min"): (Kind.PLAIN, "0.02"),
    ("purcell_stats", "fraction_max"): (Kind.PLAIN, "1"),
    ("purcell_stats", "n_points"): (Kind.COUNT, "25"),
}

# Upper bounds of every count key, checked at build so a huge value exits
# naming its key instead of failing inside numpy.
COUNT_LIMITS = {
    # grid and table sizes (the g2 table has max_offset + 1 rows)
    **dict.fromkeys([("lifetime", "n_bins"), ("cavity_sweep", "n_points"),
                     ("cavity_sweep", "n_bins"), ("saturation", "n_points"),
                     ("purcell_stats", "n_points"), ("g2", "max_offset")],
                    MAX_GRID_POINTS),
    # pulses drawn and binomial trial counts: 10x the largest pulse count
    # in use (a click draw holds no per-pulse array; its memory follows
    # the clicks)
    **dict.fromkeys([("lifetime", "n_pulses"), ("g2", "n_pulses"),
                     ("cavity_sweep", "pulses_per_point"),
                     ("scan", "pulses_per_point"),
                     ("zeeman", "pulses_per_point")], 100_000_000),
    ("ensemble", "max_count"): 10_000_000,  # its default
}


@dataclass
class RunConfig:
    """The physics objects several experiments share, plus every parsed
    setting, read as cfg[section, key] where an experiment uses it."""

    experiment: str
    seed: int
    output_dir: str
    cavity: CavityParams
    emitter: EmitterConstants
    ion: IonRecord
    detector: DetectorConfig
    sequence: PulseSequence
    ensemble: EnsembleConfig
    envelope: TransverseEnvelope
    zeeman: ZeemanConfig
    values: dict[tuple[str, str], object]
    raw: dict[tuple[str, str], str]

    def __getitem__(self, key: tuple[str, str]):
        return self.values[key]


def parse_config_text(text: str, source: str = "<config>") -> dict[tuple[str, str], str]:
    """Raw (section, key) -> value strings, validated against SETTINGS."""
    entries: dict[tuple[str, str], str] = {}
    section = ""
    known_sections = {s for s, _ in SETTINGS}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"{source}: line {lineno}"
        if line.startswith("["):
            if not line.endswith("]"):
                raise _fail(where, f"unterminated section header {line!r}")
            section = line[1:-1].strip().lower()
            if section not in known_sections:
                raise _fail(where, f"unknown section [{section}]")
            continue
        if "=" not in line:
            raise _fail(where, f"expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        if (section, key) not in SETTINGS:
            place = f"[{section}]" if section else "the top level"
            raise _fail(where, f"unknown key {key!r} in {place}")
        entries[(section, key)] = value.strip()
    return entries


def build_config(overrides: dict[tuple[str, str], str] | None = None) -> RunConfig:
    """Resolve defaults plus overrides into a typed RunConfig."""
    raw = {key: default for key, (_, default) in SETTINGS.items()}
    raw.update(overrides or {})
    v: dict[tuple[str, str], object] = {}
    for (section, key), text in raw.items():
        where = f"[{section}] {key}" if section else key
        v[(section, key)] = parse_value(text, SETTINGS[(section, key)][0],
                                        where)
        limit = COUNT_LIMITS.get((section, key))
        if limit is not None and v[(section, key)] > limit:
            raise _fail(where, f"expected at most {limit:,}, got {text!r}")

    if v[("", "seed")] >= 2**64:  # clicks.bin stores it in 8 bytes
        raise _fail("seed", f"expected less than 2**64, got {raw['', 'seed']!r}")
    experiment = str(v[("", "experiment")]).lower()
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"experiment: unknown experiment {experiment!r}, "
                          f"expected one of {', '.join(EXPERIMENTS)}")

    cavity = _build(
        "cavity", CavityParams,
        f_cav=v[("cavity", "frequency")],
        kappa=TWO_PI * v[("cavity", "kappa")],
        eta_cav=v[("cavity", "eta_cav")],
        g_if=TWO_PI * v[("cavity", "g_interface")],
        z_half=v[("cavity", "z_half")])
    emitter = _build(
        "emitter", EmitterConstants,
        gamma0=TWO_PI * v[("emitter", "gamma0")],
        omega=TWO_PI * v[("emitter", "frequency")],
        gamma_d=TWO_PI * v[("emitter", "gamma_dephasing")])

    purcell = v[("ion", "purcell")]
    g_ion = math.sqrt(max(purcell, 0.0) * cavity.kappa * emitter.gamma0 / 4.0)
    ion = _build("ion", IonRecord, position=(0.0, 0.0, 0.0),
                 f0=cavity.f_cav + v[("ion", "offset")],
                 g=g_ion, purcell=purcell)

    detector = _build(
        "detector", DetectorConfig,
        eta_total=v[("detector", "eta_total")],
        dark_rate=v[("detector", "dark_rate")],
        gate_start=v[("detector", "gate_start")],
        gate_duration=v[("detector", "gate_duration")],
        dead_time=v[("detector", "dead_time")])
    sequence = _build(
        "sequence", PulseSequence,
        input_power=v[("sequence", "power")],
        excite_duration=v[("sequence", "excite")],
        rep_period=v[("sequence", "period")])

    # a positive density_per_m3 overrides the doping in ppm
    density = v[("ensemble", "density_per_m3")]
    make, dose = ((EnsembleConfig, {"density": density}) if density > 0 else
                  (EnsembleConfig.from_ppm, {"ppm": v[("ensemble", "ppm")]}))
    ensemble = _build(
        "ensemble", make, **dose,
        site1_fraction=v[("ensemble", "site1_fraction")],
        f_center=cavity.f_cav + v[("ensemble", "center_offset")],
        sigma_inh=v[("ensemble", "sigma")],
        region=v[("ensemble", "region")],
        max_count=v[("ensemble", "max_count")])
    envelope = _build("ensemble", TransverseEnvelope,
                      waist_x=v[("ensemble", "waist_x")],
                      waist_y=v[("ensemble", "waist_y")])

    sum_g = v[("zeeman", "sum_g")]
    zeeman = _build(
        "zeeman", ZeemanConfig,
        b_applied=(0.0, 0.0, 0.0),
        b_offset=v[("zeeman", "b_offset")],
        delta_g=v[("ion", "delta_g")],
        spin_flip_strength=v[("zeeman", "spin_flip_strength")],
        sum_g=sum_g if sum_g > 0 else None)

    return RunConfig(
        experiment=experiment, seed=v[("", "seed")],
        output_dir=v[("", "output_dir")], cavity=cavity, emitter=emitter,
        ion=ion, detector=detector, sequence=sequence,
        ensemble=ensemble, envelope=envelope, zeeman=zeeman, values=v,
        raw=raw)


def load_config(path) -> RunConfig:
    return build_config(parse_config_text(read_text(path, "config file"),
                                          source=str(path)))


def dump_config(cfg: RunConfig) -> str:
    """Resolved settings in the input syntax; parsing it reproduces cfg.

    output_dir is omitted: it names a filesystem location, not a physics
    setting, and keeping it out makes the config hash independent of where
    the bundle lands.
    """
    lines: list[str] = []
    section = ""
    for s, key in SETTINGS:
        if (s, key) == ("", "output_dir"):
            continue
        if s != section:
            section = s
            lines += ["", f"[{section}]"]
        lines.append(f"{key} = {cfg.raw[(s, key)]}")
    return "\n".join(lines) + "\n"
