"""Every value the config parser meets ends a run in one of three ways,
and every setting changes some output.

One SETTINGS key gets a drawn value of its kind, across many decades, zero
and both signs; `cavityspec run` then exits 0 with a bundle that `inspect`
verifies, exits 2 naming the key, or exits 1 with an `error:` line.  No
exception may escape main.  The other keys hold small runs.
"""

import contextlib
import io
import os
import re
import tempfile

import numpy as np
from hypothesis import assume, example, given, strategies as st

from cavityspec.cli import main
from cavityspec.config import (_UNITS, COUNT_LIMITS, SETTINGS, Kind,
                               build_config)
from cavityspec.errors import (CapacityError, ConfigError, DomainError,
                               FitError, IntegrationError)
from cavityspec.experiments import EXPERIMENTS

# sizes that do not matter to the property, kept small
SMALL = {("scan", "span"): "20 MHz", ("scan", "step"): "1 MHz",
         ("scan", "pulses_per_point"): "500",
         ("lifetime", "n_pulses"): "5000",
         ("cavity_sweep", "n_points"): "5",
         ("cavity_sweep", "pulses_per_point"): "5000",
         ("saturation", "n_points"): "4",
         ("zeeman", "fields"): "2 mT, 6 mT, 10 mT",
         ("g2", "n_pulses"): "20000",
         ("purcell_stats", "n_points"): "4"}

# output_dir names a place on disk, not a setting: the run sets it
KEYS = sorted(key for key in SETTINGS if key != ("", "output_dir"))

numbers = st.builds(lambda sign, m: f"{sign * m:.6g}",
                    st.sampled_from([1.0, -1.0]),
                    st.one_of(st.just(0.0),
                              st.floats(-30.0, 30.0).map(lambda e: 10.0 ** e)))
integers = st.one_of(st.integers(-3, 30),
                     st.integers(0, 70).map(lambda e: 2 ** e),
                     st.integers(0, 70).map(lambda e: -(2 ** e))).map(str)


def _values(kind: Kind):
    """Strategy for a config value of kind, valid or not."""
    if kind is Kind.STR:
        return st.sampled_from([*EXPERIMENTS, "banana", ""])
    if kind is Kind.BOOL:
        return st.sampled_from(["true", "false", "yes", "off", "maybe"])
    if kind in (Kind.COUNT, Kind.NATURAL):
        return integers
    if kind is Kind.PLAIN:
        return numbers
    unit = st.sampled_from(sorted(_UNITS[kind]))
    if kind in (Kind.VEC_LENGTH, Kind.VEC_BFIELD):
        return st.builds(lambda a, b, c, u: f"({a}, {b}, {c}) {u}",
                         numbers, numbers, numbers, unit)
    if kind is Kind.BFIELD_LIST:
        return st.lists(st.builds("{} {}".format, numbers, unit),
                        max_size=6).map(", ".join)
    if kind is Kind.INTERVALS:
        return st.lists(st.builds("({}, {}) {}".format, numbers, numbers,
                                  unit), max_size=3).map("; ".join)
    if kind is Kind.TEMP_GRID:
        return st.builds("{}:{}:{} {}".format, numbers, numbers, numbers, unit)
    return st.builds("{} {}".format, numbers, unit)


# the experiments that read a section; the other sections reach them all
READERS = {"scan": ("ple", "saturation"), "ensemble": ("ple", "purcell_stats"),
           **{name: (name,) for name in EXPERIMENTS}}


@st.composite
def cases(draw):
    """One key, a value of its kind, and an experiment that reads it."""
    section, key = draw(st.sampled_from(KEYS))
    value = draw(_values(SETTINGS[section, key][0]))
    experiment = draw(st.sampled_from(READERS.get(section, list(EXPERIMENTS))))
    return (section, key), value, experiment


def _config_text(entries) -> str:
    lines = [f"{k} = {v}" for (s, k), v in entries.items() if not s]
    section = ""
    for (s, k), v in entries.items():
        if s:
            if s != section:
                section = s
                lines.append(f"[{s}]")
            lines.append(f"{k} = {v}")
    return "\n".join(lines) + "\n"


def _quiet_main(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


# configs that once ended in a traceback, run at the default sizes
FOUND = [
    (("scan", "pulses_per_point"), str(10**24), "ple"),
    (("scan", "pulses_per_point"), str(10**24), "saturation"),
    (("zeeman", "pulses_per_point"), str(10**24), "zeeman"),
    (("scan", "background_coeff"), "1e30", "ple"),
    (("scan", "background_coeff"), "1e30", "saturation"),
    (("g2", "background_per_pulse"), "1e15", "g2"),
    (("lifetime", "background_per_pulse"), "1e15", "lifetime"),
    (("detector", "dark_rate"), "1e20 Hz", "lifetime"),
    (("g2", "background_per_pulse"), "1000", "g2"),
    (("detector", "dark_rate"), "1e9 Hz", "lifetime"),
    (("ensemble", "region"), "(1, 1, 1) m", "ple"),
    (("ensemble", "region"), "(1, 1, 1) mm", "purcell_stats"),
    (("", "seed"), str(2**64), "g2"),
    (("emitter", "gamma_dephasing"), "-1e13 GHz", "zeeman"),
]


def _with_found_examples(test):
    for case in FOUND:
        test = example(case=case, ensemble=case[0][0] == "ensemble",
                       small=False)(test)
    return test


@_with_found_examples
@given(case=cases(), ensemble=st.booleans(), small=st.just(True))
def test_every_config_value_ends_cleanly(case, ensemble, small):
    (section, key), value, experiment = case
    # a large count within its bound only costs time: skip those draws
    assume(not (SETTINGS[section, key][0] is Kind.COUNT
                and 4096 < int(value) <= COUNT_LIMITS[section, key]))
    entries = {("", "experiment"): experiment, **(SMALL if small else {}),
               ("ensemble", "enabled"): str(ensemble).lower(),
               (section, key): value}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_config_text(entries))
        out = os.path.join(tmp, "out")
        code, err = _quiet_main(["run", path, "--output", out])
        if code == 0:
            (bundle,) = os.listdir(out)
            bundle = os.path.join(out, bundle)
            assert _quiet_main(["inspect", bundle])[0] == 0
            data = [n for n in os.listdir(bundle)
                    if n.endswith((".csv", ".json")) and n != "manifest.json"]
            assert len(data) == 1
            assert os.path.getsize(os.path.join(bundle, data[0])) > 0
        else:
            error = [line for line in err.splitlines()
                     if line.startswith("error: ")]
            assert code in (1, 2) and error, (code, err)
            assert code == 1 or key in error[0], err


# Every setting must change some output.  Each key is perturbed in turn
# from a small run; some experiment's table or exit code has to move.
REDUCED = {**SMALL,
           # ~1,400 ions: half of max_count is too few
           ("ensemble", "region"): "(1, 0.5, 0.1) um",
           ("ensemble", "max_count"): "2000"}

# settings a key acts through, held in both runs
SPIN_FLIP = {("zeeman", "spin_flip_strength"): "0.1", ("zeeman", "sum_g"): "3"}
# switch_time acts only through fired pulses a few switch times apart: a
# 10% change left the g2 table unchanged at 42 of seeds 0-99 at 20,000
# pulses, and at none at 200,000
BLINK = {("g2", "blink"): "true", ("g2", "p_bright"): "0.5",
         ("g2", "n_pulses"): "200000"}
CONTEXT = {("zeeman", "spin_flip_strength"): SPIN_FLIP,
           ("zeeman", "sum_g"): SPIN_FLIP,
           ("g2", "blink"): {("g2", "p_bright"): "0.5"},
           ("g2", "p_bright"): BLINK, ("g2", "switch_time"): BLINK,
           # background puts two clicks inside one gate
           ("detector", "dead_time"): {("lifetime", "background_per_pulse"):
                                       "2"},
           # room for the gate to open earlier or the period to shorten
           ("detector", "gate_start"): {("sequence", "excite"): "5 us"},
           ("sequence", "period"): {("detector", "gate_duration"): "70 us"},
           **{key: {("ensemble", "enabled"): "true"} for key in SETTINGS
              if (key[0] == "ensemble" and key[1] != "enabled")
              or key == ("cavity", "g_interface")}}

# the value a zero-valued key of each kind moves to
NONZERO = {Kind.PLAIN: "0.5", Kind.FREQ: "5 MHz", Kind.TIME: "10 us",
           Kind.DRIFT: "1 MHz/s", Kind.INTERVALS: "(-2, 2) MHz"}
NUMBER = re.compile(r"-?\d+(?:\.\d*)?(?:e-?\d+)?")


def _perturbed(kind: Kind, text: str) -> str:
    """A different valid value: a flag flips, a count halves, zero becomes
    non-zero and any other number shrinks by a tenth."""
    if kind is Kind.BOOL:
        return "false" if text == "true" else "true"
    if kind in (Kind.COUNT, Kind.NATURAL):
        return str(int(text) // 2)
    if not any(float(n) for n in NUMBER.findall(text)):
        return NONZERO[kind]
    return NUMBER.sub(lambda n: f"{float(n.group()) * 0.9:.6g}", text)


def _outcome(entries, experiment):
    """The data table, or the exit code the CLI would give."""
    try:
        cfg = build_config({**entries, ("", "experiment"): experiment})
        cols, header, _ = EXPERIMENTS[experiment](cfg)
    except (ConfigError, DomainError):
        return 2
    except (FitError, IntegrationError, CapacityError):
        return 1
    return [(name, np.asarray(col, dtype=float).tobytes())
            for name, col in cols], repr(header)


def test_every_setting_changes_an_output():
    baselines = {}
    dead = []
    for key, (kind, default) in SETTINGS.items():
        if key[0] == "":  # experiment, seed, output_dir
            continue
        base = {**REDUCED, **CONTEXT.get(key, {})}
        moved = {**base, key: _perturbed(kind, base.get(key, default))}
        # the experiments that read the key's section first
        for experiment in dict.fromkeys([*READERS.get(key[0], ()),
                                         *EXPERIMENTS]):
            ctx = (experiment, tuple(sorted(base.items())))
            if ctx not in baselines:
                baselines[ctx] = _outcome(base, experiment)
            if _outcome(moved, experiment) != baselines[ctx]:
                break
        else:
            dead.append(f"[{key[0]}] {key[1]}")
    assert dead == []
