"""End-to-end checks of the command-line interface.

Everything runs main() in process, except where a child process must show
what native code writes to the streams; bundles land in pytest tmp dirs.
"""

import ctypes
import json
import os
import subprocess
import sys
import types
import warnings

import numpy as np
import pytest

from cavityspec import cli, dynamics, experiments
from cavityspec.cli import main
from cavityspec.config import build_config
from cavityspec.dynamics import intracavity_photon_number
from cavityspec.experiments import EXPERIMENTS
from cavityspec.output import read_csv, write_csv_atomic
from cavityspec.physics import TransverseEnvelope


def _bundle_files(bundle: str) -> dict[str, bytes]:
    out = {}
    for name in sorted(os.listdir(bundle)):
        with open(os.path.join(bundle, name), "rb") as fh:
            out[name] = fh.read()
    return out


def _write_cfg(tmp_path, text: str) -> str:
    path = str(tmp_path / "run.cfg")
    with open(path, "w") as fh:
        fh.write(text)
    return path


# every experiment at defaults in both formats, plus configs that switch on
# the paths the defaults leave off: the ion ensemble and blinking with
# background
RERUN_CASES = [(e, fmt, None) for e in EXPERIMENTS for fmt in ("csv", "json")]
RERUN_CASES += [
    ("ple", "csv", "experiment = ple\n\n[ensemble]\nenabled = true\n"
                   "ppm = 0.5\n\n[scan]\nspan = 2 GHz\nstep = 10 MHz\n"
                   "background_coeff = 0.01\n"),
    ("g2", "csv", "experiment = g2\n\n[g2]\nn_pulses = 200000\n"
                  "blink = true\np_bright = 0.6\n"
                  "background_per_pulse = 0.001\n"),
]
RERUN_IDS = [f"{e}-{fmt}" for e, fmt, cfg in RERUN_CASES if cfg is None]
RERUN_IDS += ["ple-ensemble", "g2-blink-background"]


@pytest.mark.parametrize("experiment,fmt,cfg", RERUN_CASES, ids=RERUN_IDS)
def test_rerun_is_byte_identical(tmp_path, experiment, fmt, cfg):
    target = experiment if cfg is None else _write_cfg(tmp_path, cfg)
    manifests = []
    for name in ("a", "b"):
        out = str(tmp_path / name)
        assert main(["run", target, "--seed", "7", "--format", fmt,
                     "--output", out]) == 0
        bundle = os.path.join(out, f"{experiment}-seed7")
        assert main(["inspect", bundle]) == 0
        manifests.append(_bundle_files(bundle)["manifest.json"])
    # the manifest hashes every data file and config.txt, whose digest is
    # the config hash
    assert manifests[0] == manifests[1]
    manifest = json.loads(manifests[0])
    clicks = {"clicks.bin"} if experiment in ("lifetime", "g2") else set()
    assert set(manifest["files"]) == ({f"{experiment}.{fmt}", "config.txt"}
                                      | clicks)
    assert manifest["files"]["config.txt"] == manifest["config_hash"]


def test_rerun_replaces_the_bundle(tmp_path, capsys):
    out = str(tmp_path / "o")
    bundle = os.path.join(out, "lifetime-seed7")
    for fmt in ("csv", "json"):
        assert main(["run", "lifetime", "--seed", "7", "--format", fmt,
                     "--output", out]) == 0
    # the csv table of the first run is gone, and no staging dir is left
    assert os.listdir(out) == ["lifetime-seed7"]
    assert sorted(os.listdir(bundle)) == ["clicks.bin", "config.txt",
                                          "lifetime.json", "manifest.json"]
    with open(os.path.join(bundle, "notes.txt"), "w") as fh:
        fh.write("not part of the run\n")
    capsys.readouterr()
    assert main(["inspect", bundle]) == 0
    report = capsys.readouterr().out
    assert "notes.txt            UNLISTED" in report
    assert "lifetime.csv" not in report


def test_failed_run_leaves_no_bundle(tmp_path):
    cfg = _write_cfg(tmp_path, "experiment = saturation\n\n[saturation]\n"
                               "power_min = 10 nW\npower_max = 1 nW\n")
    out = tmp_path / "o"
    assert main(["run", cfg, "--output", str(out)]) == 2
    assert os.listdir(out) == []


def test_single_point_cavity_sweep_sits_on_resonance(tmp_path):
    # the point's relative stderr is ~17% at 30,000 pulses and ~1.2% at
    # 6,000,000, so the 5% bound is at least 4 of them
    cfg = _write_cfg(tmp_path, "experiment = cavity_sweep\n\n"
                               "[cavity_sweep]\nn_points = 1\n"
                               "pulses_per_point = 6000000\n")
    out = str(tmp_path / "o")
    assert main(["run", cfg, "--seed", "7", "--output", out]) == 0
    _, cols = read_csv(os.path.join(out, "cavity_sweep-seed7",
                                    "cavity_sweep.csv"))
    assert list(cols["cavity_detuning_hz"]) == [0.0]
    purcell = cols["purcell_fit"][0]
    assert abs(purcell - 320.0) / 320.0 < 0.05


def test_cavity_sweep_honours_detector_dead_time(tmp_path):
    # dark counts crowd each stretched gate; a 5 us dead time drops some.
    # At the default pulses a point a seed leaves every dead-time row NaN
    # about a third of the time; at 1e6 none of seeds 0-199 does
    sweeps = []
    for dead in ("0 s", "5 us"):
        cfg = _write_cfg(tmp_path, "experiment = cavity_sweep\n\n"
                                   "[detector]\ndark_rate = 2 kHz\n"
                                   f"dead_time = {dead}\n\n"
                                   "[cavity_sweep]\nn_points = 5\n"
                                   "pulses_per_point = 1000000\n")
        out = str(tmp_path / dead.replace(" ", ""))
        assert main(["run", cfg, "--seed", "7", "--output", out]) == 0
        _, cols = read_csv(os.path.join(out, "cavity_sweep-seed7",
                                        "cavity_sweep.csv"))
        sweeps.append(cols)
    free, dead = sweeps
    assert np.array_equal(free["gamma_expected"], dead["gamma_expected"])
    assert np.isfinite(dead["gamma_fit"]).any()
    assert not np.array_equal(free["gamma_fit"], dead["gamma_fit"],
                              equal_nan=True)


def test_ple_scan_far_from_every_line(tmp_path, capsys):
    # the only ion sits 10 GHz from a 10 MHz scan: no line-point pair, so
    # every point expects dark counts plus background and nothing else
    text = ("experiment = ple\n\n[ion]\noffset = 10 GHz\n\n[scan]\n"
            "span = 10 MHz\nstep = 0.5 MHz\nbackground_coeff = 0.01\n")
    out = str(tmp_path / "o")
    assert main(["run", _write_cfg(tmp_path, text), "--seed", "7",
                 "--output", out]) == 0
    bundle = os.path.join(out, "ple-seed7")
    assert main(["inspect", bundle]) == 0
    _, cols = read_csv(os.path.join(bundle, "ple.csv"))
    cfg = build_config({("scan", "background_coeff"): "0.01"})
    n_ph = intracavity_photon_number(cfg.sequence.input_power,
                                     cfg.cavity.eta_cav, cfg.cavity.kappa,
                                     cfg.emitter.omega)
    per_pulse = (cfg.detector.dark_rate * cfg.detector.gate_duration
                 + 0.01 * n_ph)
    assert len(cols["expected"]) == 21
    np.testing.assert_allclose(cols["expected"],
                               cfg["scan", "pulses_per_point"] * per_pulse,
                               rtol=1e-11)


def test_saturation_far_off_resonance(tmp_path, monkeypatch):
    # the off row is 6.9e10 THz from the line, where the excitation is
    # ~1e-30: the run gives that number, not an overflow or an RK4 error
    excitation = []

    def spy(*args):
        excitation.append(dynamics.pulse_excitation(*args))
        return excitation[-1]

    monkeypatch.setattr(experiments, "pulse_excitation", spy)
    cfg = _write_cfg(tmp_path, "experiment = saturation\n\n[saturation]\n"
                               "off_detuning = 6.9e10 THz\n")
    out = str(tmp_path / "o")
    assert main(["run", cfg, "--seed", "7", "--output", out]) == 0
    assert main(["inspect", os.path.join(out, "saturation-seed7")]) == 0
    (p_exc,) = excitation
    assert np.all(p_exc[1] <= 1e-20)
    assert np.all(p_exc[0] > 1e-3)  # the on-resonance row still excites


def test_written_files_follow_the_umask(tmp_path):
    old = os.umask(0o022)
    try:
        out = str(tmp_path / "o")
        cfg = _write_cfg(tmp_path, "experiment = lifetime\n\n[lifetime]\n"
                                   "n_pulses = 20000\n")
        assert main(["run", cfg, "--seed", "7", "--output", out]) == 0
        bundle = os.path.join(out, "lifetime-seed7")
        assert main(["fit", os.path.join(bundle, "lifetime.csv"),
                     "--model", "exponential"]) == 0
    finally:
        os.umask(old)
    names = sorted(os.listdir(bundle))
    assert names == ["clicks.bin", "config.txt", "lifetime.csv",
                     "lifetime.csv.fit.json", "manifest.json"]
    for name in names:
        assert os.stat(os.path.join(bundle, name)).st_mode & 0o777 == 0o644, name


class _GuardedGenerator(np.random.Generator):
    """Refuses the draws an unbounded rate would ask for: a Poisson mean
    numpy cannot draw, or a click array past 100,000,000 entries."""

    def poisson(self, lam=1.0, size=None):
        assert np.all(np.asarray(lam) <= 1e18), "Poisson mean out of range"
        return super().poisson(lam, size)

    def integers(self, *args, size=None, **kwargs):
        assert np.prod(size or 1) <= 10**8, "click array out of range"
        return super().integers(*args, size=size, **kwargs)


# rates whose expected counts no Poisson draw or click array can hold
HUGE_RATES = [
    ("ple", "[scan]\nbackground_coeff = 1e30", "background_coeff"),
    ("saturation", "[scan]\nbackground_coeff = 1e30", "background_coeff"),
    ("g2", "[g2]\nbackground_per_pulse = 1e15", "background_per_pulse"),
    ("lifetime", "[lifetime]\nbackground_per_pulse = 1e15",
     "background_per_pulse"),
    ("lifetime", "[detector]\ndark_rate = 1e20 Hz", "dark_rate"),
    ("g2", "[g2]\nbackground_per_pulse = 1000", "background_per_pulse"),
    ("lifetime", "[detector]\ndark_rate = 1e9 Hz", "dark_rate"),
]


@pytest.mark.parametrize("experiment,text,key", HUGE_RATES,
                         ids=[f"{e}-{t.split()[1]}={t.split()[3]}"
                              for e, t, _ in HUGE_RATES])
def test_huge_rate_exits_2_naming_key(tmp_path, capsys, monkeypatch,
                                      experiment, text, key):
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed=None: _GuardedGenerator(np.random.PCG64(seed)))
    cfg = _write_cfg(tmp_path, f"experiment = {experiment}\n{text}\n")
    out = tmp_path / "o"
    assert main(["run", cfg, "--seed", "7", "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err
    assert not (out / f"{experiment}-seed7").exists()


def test_oversized_ensemble_region_is_a_capacity_error(tmp_path, capsys):
    # ~3e22 ions expected: refused before the draw, exit 1 like every
    # capacity failure
    cfg = _write_cfg(tmp_path, "experiment = ple\n[ensemble]\nenabled = true\n"
                               "region = (1, 1, 1) m\n")
    assert main(["run", cfg, "--output", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "max_count" in err


def test_ensemble_wider_than_its_centre_exits_2_naming_keys(tmp_path,
                                                           capsys):
    # lines drawn from N(1 GHz, 1 GHz) fall below 0 Hz
    cfg = _write_cfg(tmp_path, "experiment = ple\n[cavity]\nfrequency = 1 GHz"
                               "\n[ensemble]\nenabled = true\n")
    out = tmp_path / "o"
    assert main(["run", cfg, "--seed", "7", "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    for key in ("[cavity] frequency", "[ensemble] center_offset",
                "[ensemble] sigma"):
        assert key in err
    assert not out.exists() or not os.listdir(out)


def test_oversized_purcell_stats_region_exits_2(tmp_path, capsys,
                                                monkeypatch):
    amplitude = TransverseEnvelope.amplitude

    def guarded(self, x, y):
        assert np.broadcast(x, y).size <= 10**8, "grid out of range"
        return amplitude(self, x, y)

    monkeypatch.setattr(TransverseEnvelope, "amplitude", guarded)
    cfg = _write_cfg(tmp_path, "experiment = purcell_stats\n[ensemble]\n"
                               "region = (1, 1, 1) mm\n")
    assert main(["run", cfg, "--output", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "region" in err


@pytest.mark.filterwarnings("error")
def test_purcell_stats_with_a_shallow_decay_length(tmp_path):
    """At z_half = 0.001 nm the depth factor overflows below ~1 nm: those
    depths hold no ion above any fraction, with no numpy warning."""
    cfg = _write_cfg(tmp_path, "experiment = purcell_stats\n[cavity]\n"
                               "z_half = 0.001 nm\n[purcell_stats]\n"
                               "n_points = 4\n")
    assert main(["run", cfg, "--output", str(tmp_path / "o")]) == 0


def test_thin_long_purcell_stats_region_exits_2(tmp_path, capsys):
    # 0.2 x 2e10 x 1e-5 unrounded cells, but at least 2 a side: 8e10
    cfg = _write_cfg(tmp_path, "experiment = purcell_stats\n[ensemble]\n"
                               "region = (1, 1e+11, 1e-05) nm\n")
    assert main(["run", cfg, "--output", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "region" in err


def test_sweep_gate_past_the_dark_count_cap_exits_2(tmp_path, capsys):
    # the gate lasts gate_factor lifetimes: ~1e10 s at this gamma0
    cfg = _write_cfg(tmp_path, "experiment = cavity_sweep\n[emitter]\n"
                               "gamma0 = 1e-14 GHz\n")
    assert main(["run", cfg, "--output", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "gamma0" in err


def test_temp_grid_step_below_float_spacing_exits_2(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "experiment = spin_t1\n[spin_t1]\n"
                               "temp_grid = 1e35:1e35:1 K\n")
    out = tmp_path / "o"
    assert main(["run", cfg, "--seed", "7", "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "[spin_t1] temp_grid" in err
    assert not (out / "spin_t1-seed7").exists()


# max_offset 10 needs 12 pulses: refused before the draw, which alone used
# to decide between exit 1 (no click in 5 pulses) and exit 2
@pytest.mark.parametrize("n_pulses,background,code", [
    (5, "0", 2), (5, "10", 2), (12, "10", 0)])
def test_g2_max_offset_past_the_pulses_exits_2(tmp_path, capsys, n_pulses,
                                               background, code):
    cfg = _write_cfg(tmp_path, "experiment = g2\n[g2]\n"
                               f"n_pulses = {n_pulses}\n"
                               f"background_per_pulse = {background}\n")
    out = tmp_path / "o"
    assert main(["run", cfg, "--seed", "7", "--output", str(out)]) == code
    err = capsys.readouterr().err
    if code:
        assert err.startswith("error: [g2] max_offset") and "n_pulses" in err
    assert (out / "g2-seed7").exists() == (code == 0)


# max_offset sizes the g2 table and its offset loop: capped at 1,000,000
# rows like every other table, before anything is drawn
@pytest.mark.parametrize("max_offset", [1_000_001, 99_999_998])
def test_g2_max_offset_past_the_table_cap_exits_2(tmp_path, capsys,
                                                  monkeypatch, max_offset):
    def refuse(*args, **kwargs):
        raise AssertionError("the clicks were drawn")

    monkeypatch.setattr(experiments, "run_g2", refuse)
    cfg = _write_cfg(tmp_path, "experiment = g2\n[g2]\n"
                               "n_pulses = 100000000\n"
                               f"max_offset = {max_offset}\n")
    out = tmp_path / "o"
    assert main(["run", cfg, "--seed", "7", "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [g2] max_offset: expected at most "
                          "1,000,000, got ")
    assert not out.exists()


# a line centre so far out that the scan's step falls below its float
# spacing: each refusal names the key that moved the centre
FAR_CENTRES = [("zeeman", "[ion]\noffset = 1e+14 GHz", "[ion] offset"),
               ("ple", "[scan]\ncenter_offset = 1e+14 GHz", "center_offset")]


@pytest.mark.parametrize("experiment,text,key", FAR_CENTRES,
                         ids=[e for e, _, _ in FAR_CENTRES])
def test_scan_below_float_spacing_exits_2_naming_key(tmp_path, capsys,
                                                     experiment, text, key):
    cfg = _write_cfg(tmp_path, f"experiment = {experiment}\n{text}\n")
    out = tmp_path / "o"
    assert main(["run", cfg, "--seed", "7", "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err and "float spacing" in err
    assert not (out / f"{experiment}-seed7").exists()


def _spin_table(tmp_path, name, body):
    """rate_per_s and t1_s of a spin_t1 run, which must warn of nothing."""
    cfg = _write_cfg(tmp_path, f"experiment = spin_t1\n[spin_t1]\n{body}\n")
    out = tmp_path / name
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", cfg, "--seed", "7", "--output", str(out)]) == 0
    _, cols = read_csv(str(out / "spin_t1-seed7" / "spin_t1.csv"))
    assert not np.isnan(cols["rate_per_s"]).any()
    assert not np.isnan(cols["t1_s"]).any()
    return cols["rate_per_s"], cols["t1_s"]


def test_spin_t1_past_the_float_range_ends_cleanly(tmp_path):
    # nu^5 overflows: every rate is inf and T1 is 0
    rate, t1 = _spin_table(tmp_path, "big", "nu = 1e+70 GHz")
    assert np.all(np.isinf(rate)) and np.all(t1 == 0.0)
    # h nu / 2kT underflows: the direct term is its limit, 0 at such a nu
    rate, _ = _spin_table(tmp_path, "small", "nu = 1e-290 Hz")
    np.testing.assert_array_equal(rate,
                                  _spin_table(tmp_path, "off", "a_direct = 0")[0])
    # T^9 overflows, but the Raman channel is off
    rate, t1 = _spin_table(tmp_path, "hot",
                           "temp_grid = 1e35:2e35:1e35 K\na_raman = 0")
    assert np.all(np.isfinite(rate) & (rate > 0) & (t1 > 0))


def test_seed_flag_changes_data_not_config_hash(tmp_path):
    cfg = _write_cfg(tmp_path, "experiment = g2\n\n[g2]\nn_pulses = 20000\n")
    a = str(tmp_path / "a")
    assert main(["run", cfg, "--seed", "1", "--output", a]) == 0
    assert main(["run", cfg, "--seed", "2", "--output", a]) == 0
    with open(os.path.join(a, "g2-seed1", "manifest.json")) as fh:
        m1 = json.load(fh)
    with open(os.path.join(a, "g2-seed2", "manifest.json")) as fh:
        m2 = json.load(fh)
    assert m1["seed"] == 1 and m2["seed"] == 2
    # the seed lives in the config, so the hash moves with it
    assert m1["config_hash"] != m2["config_hash"]
    assert m1["files"]["clicks.bin"] != m2["files"]["clicks.bin"]


def test_run_rejects_unknown_target(tmp_path, capsys):
    assert main(["run", "nosuch", "--output", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "nosuch" in err and "ple" in err


NOT_UTF8 = b"experiment = g2\n# \xff\xfe\n"


# (command, file name, its bytes); no file name means the directory itself
@pytest.mark.parametrize("command, name, content", [
    ("run", None, None),
    ("run", "run.cfg", NOT_UTF8),
    ("fit", "data.csv", NOT_UTF8),
    ("inspect", "manifest.json", NOT_UTF8),
    ("inspect", "manifest.json", b"[]"),
    ("inspect", "manifest.json", b'"str"'),
    ("inspect", "manifest.json", b'{"files": 5}'),
    ("inspect", "manifest.json", b'{"files": {"x": 5}}'),
    ("inspect", "manifest.json", b'{"files": {"../x": "0"}}'),
    ("inspect", "manifest.json", b"[" * 100_000),
], ids=["run-directory", "run-not-utf8", "fit-not-utf8", "inspect-not-utf8",
        "manifest-list", "manifest-string", "files-number",
        "digest-number", "name-with-separator", "nested-too-deep"])
def test_unreadable_input_exits_2(tmp_path, capsys, command, name, content):
    path = tmp_path
    if name is not None:
        path = tmp_path / name
        path.write_bytes(content)
    extra = {"run": ["--output", str(tmp_path / "o")],
             "fit": ["--model", "linear"]}.get(command, [])
    assert main([command, str(path), *extra]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err


def test_run_reports_config_line_number(tmp_path, capsys):
    cfg = _write_cfg(tmp_path,
                     "experiment = ple\n\n[cavity]\nkappa = 3.85\n")
    assert main(["run", cfg, "--output", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "kappa" in err and "unit" in err


def test_fit_malformed_csv_names_line(tmp_path, capsys):
    path = str(tmp_path / "bad.csv")
    with open(path, "w") as fh:
        fh.write("x,y\n1,2\n3\n")
    assert main(["fit", path, "--model", "linear"]) == 2
    assert "line 3" in capsys.readouterr().err


def test_fit_empty_csv(tmp_path, capsys):
    path = str(tmp_path / "empty.csv")
    with open(path, "w") as fh:
        fh.write("x,y\n")
    assert main(["fit", path, "--model", "linear"]) == 2
    assert "no data rows" in capsys.readouterr().err


def test_fit_skips_non_finite_rows(tmp_path, capsys):
    rows = [(x, 3.0 + 2.0 * x + 0.1 * (-1) ** x) for x in range(8)]
    fits = {}
    for name, extra in (("finite", []), ("with_nan", [(3.5, "nan")])):
        path = str(tmp_path / f"{name}.csv")
        with open(path, "w") as fh:
            fh.write("x,y\n")
            fh.writelines(f"{x},{y}\n" for x, y in sorted(rows + extra))
        fit_path = str(tmp_path / f"{name}.json")
        assert main(["fit", path, "--model", "linear",
                     "--output", fit_path]) == 0
        with open(fit_path) as fh:
            fits[name] = json.load(fh)
        err = capsys.readouterr().err
    assert "note: skipping 1 non-finite rows" in err
    assert fits["with_nan"] == fits["finite"]


def test_fit_exponential_recovers_lifetime(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "\n".join([
        "experiment = lifetime",
        "",
        "[sequence]",
        "power = 8 nW",
        "excite = 30 us",
        "period = 250 us",
        "",
        "[detector]",
        "gate_start = 30 us",
        "gate_duration = 200 us",
        "dark_rate = 0 Hz",
        "",
        "[lifetime]",
        "n_pulses = 300000",
    ]) + "\n")
    out = str(tmp_path / "o")
    assert main(["run", cfg, "--seed", "12", "--output", out]) == 0
    data = os.path.join(out, "lifetime-seed12", "lifetime.csv")
    header, _ = read_csv(data)
    fit_path = str(tmp_path / "fit.json")
    assert main(["fit", data, "--model", "exponential",
                 "--output", fit_path]) == 0
    with open(fit_path) as fh:
        fit = json.load(fh)
    tau = fit["params"]["tau"]
    err = fit["stderr"]["tau"]
    tau_true = 1.0 / float(header["gamma_true"])
    assert fit["converged"]
    assert abs(tau - tau_true) < 4.0 * err
    assert abs(tau - tau_true) / tau_true < 0.05


def test_fit_lorentzian_on_cavity_sweep(tmp_path):
    cfg = _write_cfg(tmp_path, "\n".join([
        "experiment = cavity_sweep",
        "",
        "[sequence]",
        "power = 8 nW",
        "excite = 30 us",
        "",
        "[detector]",
        "dark_rate = 0 Hz",
        "",
        "[cavity_sweep]",
        "n_points = 17",
        "pulses_per_point = 60000",
    ]) + "\n")
    out = str(tmp_path / "o")
    assert main(["run", cfg, "--seed", "11", "--output", out]) == 0
    data = os.path.join(out, "cavity_sweep-seed11", "cavity_sweep.csv")
    fit_path = str(tmp_path / "fit.json")
    assert main(["fit", data, "--model", "lorentzian",
                 "--weights", "uniform", "--output", fit_path]) == 0
    with open(fit_path) as fh:
        fit = json.load(fh)
    # first two columns are detuning and fitted gamma, so the fitted width
    # is the cavity linewidth in Hz
    assert abs(fit["params"]["width"] - 3.85e9) / 3.85e9 < 0.10
    assert abs(fit["params"]["center"]) < 0.4e9


def test_spin_t1_grid_flags(tmp_path):
    out = str(tmp_path / "o")
    assert main(["run", "spin_t1", "--temp-grid", "2:8:0.5", "--nu", "9",
                 "--output", out]) == 0
    header, cols = read_csv(os.path.join(out, "spin_t1-seed1",
                                         "spin_t1.csv"))
    assert len(cols["temperature_k"]) == 13
    assert float(header["nu_ghz"]) == 9.0
    i4 = int(np.argmin(np.abs(cols["temperature_k"] - 4.0)))
    assert cols["t1_s"][i4] == pytest.approx(1.63547e-3, rel=1e-4)


def test_nu_flag_keeps_every_digit(tmp_path):
    out = str(tmp_path / "o")
    assert main(["run", "spin_t1", "--nu", "9.123456789",
                 "--output", out]) == 0
    with open(os.path.join(out, "spin_t1-seed1", "config.txt")) as fh:
        assert "nu = 9.123456789 GHz\n" in fh.read()


def test_purcell_stats_counts_decrease(tmp_path):
    out = str(tmp_path / "o")
    assert main(["run", "purcell_stats", "--output", out]) == 0
    _, cols = read_csv(os.path.join(out, "purcell_stats-seed1",
                                    "purcell_stats.csv"))
    counts = cols["expected_count"]
    assert np.all(np.diff(counts) <= 1e-9)
    assert counts[0] > 100.0


def test_json_format_matches_csv(tmp_path):
    cfg = _write_cfg(tmp_path, "\n".join([
        "experiment = ple",
        "",
        "[scan]",
        "span = 20 MHz",
        "pulses_per_point = 500",
    ]) + "\n")
    a = str(tmp_path / "a")
    b = str(tmp_path / "b")
    assert main(["run", cfg, "--seed", "4", "--output", a]) == 0
    assert main(["run", cfg, "--seed", "4", "--output", b,
                 "--format", "json"]) == 0
    _, csv_cols = read_csv(os.path.join(a, "ple-seed4", "ple.csv"))
    with open(os.path.join(b, "ple-seed4", "ple.json")) as fh:
        js = json.load(fh)
    for name, arr in csv_cols.items():
        # CSV went through 12-digit formatting, JSON carries full floats
        np.testing.assert_allclose(js["columns"][name], arr, rtol=1e-11)


def test_inspect_flags_tampering(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "experiment = g2\n\n[g2]\nn_pulses = 5000\n")
    out = str(tmp_path / "o")
    assert main(["run", cfg, "--seed", "3", "--output", out]) == 0
    bundle = os.path.join(out, "g2-seed3")
    assert main(["inspect", bundle]) == 0
    report = capsys.readouterr().out
    assert "experiment       g2" in report
    assert "MODIFIED" not in report
    with open(os.path.join(bundle, "g2.csv"), "a") as fh:
        fh.write("tampered\n")
    assert main(["inspect", bundle]) == 1
    assert "MODIFIED" in capsys.readouterr().out
    os.remove(os.path.join(bundle, "clicks.bin"))
    assert main(["inspect", bundle]) == 1
    assert "clicks.bin" in [line.split()[0] for line in
                            capsys.readouterr().out.splitlines()
                            if "MISSING" in line]
    # a listed name that is not a regular file is missing too
    os.mkdir(os.path.join(bundle, "clicks.bin"))
    assert main(["inspect", bundle]) == 1
    assert "clicks.bin" in [line.split()[0] for line in
                            capsys.readouterr().out.splitlines()
                            if "MISSING" in line]
    assert main(["inspect", str(tmp_path / "nowhere")]) == 2


def test_peaks_model_counts_separable_lines(tmp_path, capsys):
    x = np.linspace(0.0, 1e9, 4001)
    width = 6e6
    y = np.full_like(x, 5.0)
    centers = [2e8, 5e8, 8.1e8]
    for c in centers:
        y += 40.0 / (1.0 + (2.0 * (x - c) / width) ** 2)
    path = str(tmp_path / "scan.csv")
    write_csv_atomic(path, [("frequency_hz", x), ("counts", y)], header={})
    out = str(tmp_path / "peaks.json")
    assert main(["fit", path, "--model", "peaks", "--width", "6e6",
                 "--noise-sigma", "0.5", "--output", out]) == 0
    assert "peaks found: 3" in capsys.readouterr().out
    with open(out) as fh:
        found = json.load(fh)
    assert found["count"] == 3
    assert np.allclose(sorted(found["centers"]), centers, atol=width)


@pytest.mark.parametrize("flag, value, name", [
    ("--width", "nan", "width"), ("--width", "inf", "width"),
    ("--noise-sigma", "nan", "noise_sigma"),
    ("--noise-sigma", "inf", "noise_sigma"),
    ("--noise-sigma", "0", "noise_sigma"),
])
def test_peaks_model_rejects_bad_width_or_noise(tmp_path, capsys, flag,
                                                value, name):
    x = np.linspace(0.0, 1e9, 401)
    y = 5.0 + 40.0 / (1.0 + (2.0 * (x - 5e8) / 6e6) ** 2) + np.cos(x / 1e7)
    path = str(tmp_path / "scan.csv")
    write_csv_atomic(path, [("frequency_hz", x), ("counts", y)], header={})
    out = str(tmp_path / "peaks.json")
    assert main(["fit", path, "--model", "peaks", flag, value,
                 "--output", out]) == 2
    assert name in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n, noise", [
    (2, []), (3, []), (8, []), (9, []),
    (3, ["--noise-sigma", "1"]), (9, ["--noise-sigma", "1"])])
def test_peaks_on_data_that_overflow_exit_2(tmp_path, capsys, n, noise):
    """y alternating +-1e308: its spread about the median overflows a
    double (with an odd n, y itself less the median does), which is one
    error line, not a numpy warning."""
    path = str(tmp_path / "huge.csv")
    y = np.where(np.arange(n) % 2, 1e308, -1e308)
    write_csv_atomic(path, [("x", np.arange(n) * 1e6), ("y", y)], header={})
    out = str(tmp_path / "peaks.json")
    assert main(["fit", path, "--model", "peaks", *noise,
                 "--output", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {path}: the data overflow double "
                            "precision; rescale them\n")
    assert not os.path.exists(out)


def test_fit_bunching_skips_zero_offset(tmp_path):
    m = np.arange(0, 11, dtype=float)
    g2 = 1.0 + 0.8 * np.exp(-m / 4.0)
    g2[0] = 0.02  # antibunched point must not drag the envelope fit
    path = str(tmp_path / "g2.csv")
    write_csv_atomic(path, [("offset", m), ("g2", g2)], header={})
    out = str(tmp_path / "fit.json")
    assert main(["fit", path, "--model", "bunching", "--weights", "uniform",
                 "--output", out]) == 0
    with open(out) as fh:
        fit = json.load(fh)
    assert fit["params"]["amplitude"] == pytest.approx(0.8, rel=1e-6)
    assert fit["params"]["switch_time"] == pytest.approx(4.0, rel=1e-6)


def _cli_in_child(*args):
    """The CLI run in a fresh interpreter, its stdout and stderr captured."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    return subprocess.run(
        [sys.executable, "-c", "import sys; from cavityspec.cli import main; "
         "sys.exit(main(sys.argv[1:]))", *args],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src})


@pytest.mark.parametrize("text", ["x,y\n", "# seed: 7\nx,y\n\n \n"])
def test_fit_on_a_header_only_csv_prints_one_error_line(tmp_path, text):
    """numpy's reader warns on a table with no rows; the warning must not
    reach stderr, which a child process shows as the user sees it."""
    data = tmp_path / "data.csv"
    data.write_text(text)
    proc = _cli_in_child("fit", str(data), "--model", "linear")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: {data}: no data rows\n"


@pytest.mark.parametrize("model", ["exponential", "linear"])
@pytest.mark.parametrize("x", ["0.0", "1e-170"])
def test_fit_on_a_zero_x_column_prints_one_error_line(tmp_path, model, x):
    """polyfit would scale an x whose squares sum to zero by 1/0, and
    LAPACK would print its complaint on the process's stdout, out of reach
    of Python's stream capture; so the CLI runs in a child process."""
    data = tmp_path / "data.csv"
    data.write_text("x,y\n" + f"{x},5.0\n{x},3.0\n" * 3)
    proc = _cli_in_child("fit", str(data), "--model", model)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == ("error: initial guess failed: x is zero, or too "
                           "small to square in double precision\n")


def test_zeeman_series_with_unresolved_lines_exits_1(tmp_path):
    """At 0 mT the default 1 G offset splits the lines by 0.17 FWHM, below
    the doublet fit's 1.5 FWHM floor, so the series refuses that field:
    exit 1, one error line naming it, and no numpy warning or traceback
    where the user sees the streams."""
    cfg = _write_cfg(tmp_path, "experiment = zeeman\n\n[zeeman]\n"
                               "fields = 0 mT, 2 mT, 4 mT\n")
    out = tmp_path / "o"
    proc = _cli_in_child("run", cfg, "--seed", "7", "--output", str(out))
    assert proc.returncode == 1
    assert proc.stderr == "error: splitting unresolved at B = 0.0 T\n"
    assert os.listdir(out) == []


def test_zeeman_series_from_1_mT_writes_a_bundle(tmp_path):
    # at 1 mT the lines sit 1.9 FWHM apart, which one doublet fit resolves
    cfg = _write_cfg(tmp_path, "experiment = zeeman\n\n[zeeman]\n"
                               "fields = 1 mT, 2 mT, 3 mT\n")
    out = str(tmp_path / "o")
    assert main(["run", cfg, "--seed", "7", "--output", out]) == 0
    assert main(["inspect", os.path.join(out, "zeeman-seed7")]) == 0


def test_heap_policy_is_a_silent_no_op_without_mallopt(monkeypatch, capsys):
    """A C library with no mallopt is left alone; one that refuses every
    parameter (returns 0) is asked once for each and nothing is raised."""
    monkeypatch.setattr(ctypes, "CDLL", lambda name: types.SimpleNamespace())
    assert cli._set_heap_policy() is None
    asked = []

    def refusing(param, value):
        asked.append(param)
        return 0

    monkeypatch.setattr(ctypes, "CDLL",
                        lambda name: types.SimpleNamespace(mallopt=refusing))
    assert cli._set_heap_policy() is None
    assert asked == [param for param, _ in cli._HEAP_POLICY]
    assert capsys.readouterr() == ("", "")


def test_main_sets_the_heap_policy(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "_set_heap_policy", lambda: calls.append(1))
    assert main(["inspect", str(tmp_path)]) == 2
    assert calls == [1]


# one ensemble PLE run in a fresh interpreter, with glibc's default heap
# policy (argv[1] "default") or the one main sets; prints the scan's
# pulse_excitation calls, one a pair block, after the bundle's path
_POLICY_CHILD = """\
import sys
from cavityspec import cli, experiments
if sys.argv[1] == "default":
    cli._set_heap_policy = lambda: None
real, blocks = experiments.pulse_excitation, []
def counted(*args):
    blocks.append(1)
    return real(*args)
experiments.pulse_excitation = counted
code = cli.main(sys.argv[2:])
print(len(blocks))
sys.exit(code)
"""


def test_heap_policy_keeps_a_multi_block_scan_byte_identical(tmp_path):
    """The benchmark's ensemble scan (~94k line-point pairs, seven blocks)
    writes the same manifest, so the same bytes, under either policy."""
    cfg = _write_cfg(tmp_path, "experiment = ple\n\n[cavity]\n"
                               "frequency = 195.1188 THz\n\n[ensemble]\n"
                               "enabled = true\ndensity_per_m3 = 2.8e22\n"
                               "site1_fraction = 0.5\n"
                               "region = (2, 1, 0.15) um\n\n[scan]\n"
                               "span = 20 GHz\nstep = 16 MHz\n")
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    manifests = []
    for policy in ("default", "set"):
        out = str(tmp_path / policy)
        proc = subprocess.run(
            [sys.executable, "-c", _POLICY_CHILD, policy, "run", cfg,
             "--seed", "7", "--output", out],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout.split()[-1]) >= 3
        manifests.append(_bundle_files(
            os.path.join(out, "ple-seed7"))["manifest.json"])
    assert manifests[0] == manifests[1]
