"""Every value the config parser meets ends a run in one of three ways,
every setting changes some output, and every table ends a fit cleanly.

One SETTINGS key gets a drawn value of its kind, across many decades, zero
and both signs; `cavityspec run` then exits 0 with a bundle that `inspect`
verifies, exits 2 naming the key, or exits 1 with an `error:` line.  No
exception may escape main.  The other keys hold small runs.

`cavityspec fit` gets drawn tables of 1-4 columns and up to 50 rows, with
every model and `peaks`, `--width` and `--noise-sigma`: it exits 0 with
finite numbers, or 1 or 2 with one `error:` line.
"""

import contextlib
import io
import json
import math
import os
import re
import tempfile
import warnings

import numpy as np
from hypothesis import assume, example, given, strategies as st

from cavityspec.analysis import MODELS
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


# `cavityspec fit` on any table: values across the double range, the
# non-finite ones, integers where float spacing reaches 1 and small counts.
# A table draws its cells from all of them, or from counts or plain numbers
# only, which fit more often.
extreme = st.one_of(
    st.builds(lambda sign, e: repr(sign * 10.0 ** e),
              st.sampled_from([1.0, -1.0]), st.floats(-308.0, 308.0)),
    st.sampled_from(["0", "-0", "nan", "inf", "-inf", "1e308", "-1e308",
                     "1e-308", "-1e-308"]),
    st.integers(2**53 - 4, 2**53 + 4).map(str),
    st.integers(-(2**53) - 4, -(2**53) + 4).map(str))
count_cells = st.integers(0, 100).map(str)
plain_cells = st.floats(-1e3, 1e3).map(repr)
CELLS = {"any": st.one_of(extreme, count_cells, plain_cells),
         "counts": count_cells, "plain": plain_cells}
fit_options = st.one_of(
    st.none(), st.sampled_from(["0", "-1", "nan", "inf", "1e308", "1e-308"]),
    st.floats(-3.0, 8.0).map(lambda e: repr(10.0 ** e)))


@st.composite
def tables(draw):
    n_cols = draw(st.integers(1, 4), label="columns")
    names = ",".join("xyzw"[:n_cols])
    cells = CELLS[draw(st.sampled_from(sorted(CELLS)), label="cells")]
    rows = draw(st.lists(st.lists(cells, min_size=n_cols, max_size=n_cols),
                         max_size=50), label="rows")
    lines = [",".join(row) for row in rows]
    if draw(st.booleans(), label="column header"):
        lines.insert(0, names)
    # blank, comment and header lines anywhere, before the rows or among them
    for at, line in draw(st.lists(st.tuples(
            st.integers(0, len(lines)),
            st.sampled_from(["", "  ", "# seed: 7", "# a comment", names])),
            max_size=3), label="extra lines"):
        lines.insert(at, line)
    return "\n".join(lines) + "\n"


def _finite_json(path):
    """The fit JSON, with NaN and infinity refused as strict JSON does."""
    def refuse(token):
        raise AssertionError(f"{path}: {token} in the fit JSON")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh, parse_constant=refuse)


@example(table="x,y\n0,5\n1,3\n2,2\n3,1\n4,1\n", model="linear",
         width=None, noise=None)
@example(table="x,y\n" + "".join(f"{i},{i % 3}\n" for i in range(1, 9)),
         model="bunching", width=None, noise=None)
@example(table="x,y,z\n1,1,0\n1,1,0\n2,3,0\n", model="linear",
         width=None, noise=None)
@example(table="x,y\n0,1e308\n1,-1e308\n2,1e308\n3,-1e308\n4,1e308\n",
         model="peaks", width=None, noise=None)
@given(table=tables(), model=st.sampled_from([*MODELS, "peaks"]),
       width=fit_options, noise=fit_options)
def test_every_table_fits_cleanly(table, model, width, noise):
    """fit exits 0 with every printed parameter and stderr finite (a
    stderr positive, or zero on a least-squares fit with zero residual) and
    a fit JSON that holds no NaN or infinity, or exits 1 or 2 with one
    `error:` line; no warning or traceback reaches stderr."""
    with tempfile.TemporaryDirectory() as tmp:
        data, out = os.path.join(tmp, "t.csv"), os.path.join(tmp, "fit.json")
        with open(data, "w", encoding="utf-8") as fh:
            fh.write(table)
        argv = ["fit", data, "--model", model, "--output", out]
        argv += [] if width is None else [f"--width={width}"]
        argv += [] if noise is None else [f"--noise-sigma={noise}"]
        stdout, stderr = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            warnings.simplefilter("always")
            code = main(argv)
        err = stderr.getvalue()
        assert not caught and "Warning" not in err, err
        assert "Traceback" not in err, err
        lines = err.splitlines()
        assert all(line.startswith(("note: ", "error: ")) for line in lines)
        errors = [line for line in lines if line.startswith("error: ")]
        if code != 0:
            assert code in (1, 2) and len(errors) == 1, (code, err)
            return
        assert not errors, err
        fit = _finite_json(out)
        if model == "peaks":
            return
        for name, value in fit["params"].items():
            sigma = fit["stderr"][name]
            assert math.isfinite(value) and math.isfinite(sigma), fit
            assert sigma > 0 or (sigma == fit["residual_norm"] == 0
                                 and fit["statistic"] == "least_squares")
        printed = [line.split() for line in stdout.getvalue().splitlines()
                   if " +- " in line]
        assert sorted(p[0] for p in printed) == sorted(fit["params"])
        assert all(map(math.isfinite, (float(p[1]) for p in printed)))
