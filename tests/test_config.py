import hashlib
import math

import numpy as np
import pytest

from cavityspec.cli import main
from cavityspec.config import (COUNT_LIMITS, build_config, dump_config,
                               load_config, parse_config_text)
from cavityspec.constants import TWO_PI
from cavityspec.errors import ConfigError
from cavityspec.experiments import EXPERIMENTS, scan_grid, temperature_grid
from cavityspec.physics import EmitterConstants


def test_default_config_hash_is_pinned():
    # config.txt, and so every bundle's config hash (its SHA-256), follows
    # the SETTINGS order
    cfg = build_config({("", "experiment"): "ple"})
    digest = hashlib.sha256(dump_config(cfg).encode("utf-8")).hexdigest()
    assert digest == ("eb71fa8b37d3a76dd552471d5f7677c0"
                      "de6d447997f356e4310331ec7a5288b6")
    assert dump_config(cfg).startswith("experiment = ple\nseed = 1\n\n"
                                       "[cavity]\nfrequency = 195.1188 THz\n")


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_default_config_builds_for_every_experiment(name):
    cfg = build_config({("", "experiment"): name})
    assert cfg.experiment == name
    assert cfg.cavity.kappa == TWO_PI * 3.85e9
    assert cfg.emitter.gamma0 == TWO_PI * 14.0


def test_unknown_experiment_rejected():
    with pytest.raises(ConfigError, match="unknown experiment"):
        build_config({("", "experiment"): "banana"})


def test_unit_suffixes_and_case():
    cfg = build_config({
        ("cavity", "kappa"): "3850 mhz",
        ("sequence", "power"): "0.001 uW",
        ("sequence", "excite"): "10 µs",
        ("detector", "gate_duration"): "0.082 ms",
        ("scan", "drift"): "3.6 GHz/hr",
        ("zeeman", "b_offset"): "(10, 0, 0) G",
    })
    assert math.isclose(cfg.cavity.kappa, TWO_PI * 3.85e9, rel_tol=1e-12)
    assert math.isclose(cfg.sequence.input_power, 1e-9, rel_tol=1e-12)
    assert math.isclose(cfg.sequence.excite_duration, 10e-6, rel_tol=1e-12)
    assert math.isclose(cfg.detector.gate_duration, 82e-6, rel_tol=1e-12)
    assert math.isclose(cfg["scan", "drift"], 1e6, rel_tol=1e-12)
    assert cfg.zeeman.b_offset == (1e-3, 0.0, 0.0)


def test_bare_number_rejected_for_dimensioned_field():
    with pytest.raises(ConfigError, match="kappa.*needs a unit"):
        build_config({("cavity", "kappa"): "3.85"})
    with pytest.raises(ConfigError, match="unknown frequency unit"):
        build_config({("cavity", "kappa"): "3.85 parsec"})
    with pytest.raises(ConfigError, match="bare number"):
        build_config({("ion", "purcell"): "320 Hz"})


def test_parse_text_reports_line_and_key():
    with pytest.raises(ConfigError, match="line 2.*unknown key 'kapa'"):
        parse_config_text("[cavity]\nkapa = 3.85 GHz\n", source="f.cfg")
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config_text("[cavities]\n")
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        parse_config_text("kappa 3.85 GHz\n")


def test_derived_quantities():
    cfg = build_config({("ion", "offset"): "2.5 GHz",
                        ("ion", "purcell"): "252"})
    assert math.isclose(cfg.ion.f0, 195.1188e12 + 2.5e9, rel_tol=0)
    # g is derived so that 4 g^2 / (kappa gamma0) reproduces the purcell number
    p = 4.0 * cfg.ion.g**2 / (cfg.cavity.kappa * cfg.emitter.gamma0)
    assert math.isclose(p, 252.0, rel_tol=1e-12)
    assert cfg.zeeman.sum_g is None
    assert cfg.ensemble.density == pytest.approx(3e-6 * 1.87e28)

    dense = build_config({("ensemble", "density_per_m3"): "2.805e22"})
    assert dense.ensemble.density == 2.805e22

    # pure dephasing is the emitter's, in rad/s
    assert build_config({("emitter", "gamma_dephasing"): "5 MHz"}
                        ).emitter.gamma_d == TWO_PI * 5e6
    assert build_config().emitter.gamma_d == EmitterConstants.default().gamma_d


def test_scan_grid_and_mask():
    cfg = build_config({
        ("scan", "span"): "10 MHz",
        ("scan", "step"): "1 MHz",
        ("scan", "mask"): "(-3.5, -2.5) MHz; (2.5, 4.5) MHz",
    })
    grid = scan_grid(cfg)
    offsets = np.round((grid - cfg.cavity.f_cav) / 1e6).astype(int)
    assert list(offsets) == [-5, -4, -2, -1, 0, 1, 2, 5]
    with pytest.raises(ConfigError, match="mask removes every"):
        scan_grid(build_config({("scan", "span"): "2 MHz",
                                ("scan", "step"): "1 MHz",
                                ("scan", "mask"): "(-2, 2) MHz"}))


def test_temp_grid_expansion():
    cfg = build_config({("spin_t1", "temp_grid"): "2:8:0.5 K"})
    temps = temperature_grid(cfg)
    assert temps[0] == 2.0 and temps[-1] == 8.0 and len(temps) == 13
    with pytest.raises(ConfigError, match="start:stop:step"):
        build_config({("spin_t1", "temp_grid"): "2-8 K"})


def test_bool_and_int_parsing():
    cfg = build_config({("ensemble", "enabled"): "yes",
                        ("g2", "blink"): "off"})
    assert cfg["ensemble", "enabled"] is True
    assert cfg["g2", "blink"] is False
    with pytest.raises(ConfigError, match="true/false"):
        build_config({("g2", "blink"): "maybe"})
    with pytest.raises(ConfigError, match="integer"):
        build_config({("", "seed"): "1.5"})


COUNT_KEYS = [("scan", "pulses_per_point"), ("lifetime", "n_pulses"),
              ("lifetime", "n_bins"), ("cavity_sweep", "n_points"),
              ("cavity_sweep", "pulses_per_point"), ("cavity_sweep", "n_bins"),
              ("saturation", "n_points"), ("zeeman", "pulses_per_point"),
              ("g2", "n_pulses"), ("purcell_stats", "n_points"),
              ("ensemble", "max_count")]
OUT_OF_RANGE = [(section, name, value) for section, name in COUNT_KEYS
                for value in ("0", "-1")]
OUT_OF_RANGE += [("g2", "max_offset", "-1"), ("", "seed", "-1")]


@pytest.mark.parametrize("section,name,value", OUT_OF_RANGE)
def test_out_of_range_integer_exits_2_naming_key(tmp_path, capsys, section,
                                                   name, value):
    if section:
        experiment = section if section in EXPERIMENTS else "ple"
        path = tmp_path / "run.cfg"
        path.write_text(f"experiment = {experiment}\n[{section}]\n"
                        f"{name} = {value}\n")
        argv = ["run", str(path)]
        where = f"[{section}] {name}"
    else:
        argv = ["run", "ple", "--seed", value]
        where = name
    out = tmp_path / "o"
    assert main(argv + ["--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {where}: expected a ")
    assert "integer" in err
    assert not out.exists()


@pytest.mark.parametrize("section,name,value,form", [
    ("zeeman", "b_offset", "1, 0, 0 G", "(x, y, z)"),
    ("zeeman", "b_offset", "(1, 0, 0 G", "(x, y, z)"),
    ("zeeman", "b_offset", "(1, 0) G", "(x, y, z)"),
    ("ensemble", "region", "(2, 1, 0.15)", "(x, y, z)"),
    ("scan", "mask", "(-1, 1) MHz; (2, 3, 4) MHz", "(lo, hi)"),
    ("scan", "mask", "(-1, 1 MHz", "(lo, hi)"),
    ("scan", "mask", "(-1, 1)", "(lo, hi)"),
])
def test_malformed_tuple_exits_2_naming_key(tmp_path, capsys, section, name,
                                            value, form):
    path = tmp_path / "run.cfg"
    path.write_text(f"experiment = ple\n[{section}]\n{name} = {value}\n")
    out = tmp_path / "o"
    assert main(["run", str(path), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: [{section}] {name}: expected '{form} "
                          "<unit>', got ")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("text,flags,where", [
    ("experiment = ple\n[scan]\nspan = 1 THz\nstep = 1 Hz\n", [],
     "[scan] step"),
    ("experiment = spin_t1\n", ["--temp-grid", "2:8:1e-12"],
     "[spin_t1] temp_grid"),
], ids=["scan", "temp_grid"])
def test_oversized_grid_exits_2_naming_key(tmp_path, capsys, monkeypatch,
                                           text, flags, where):
    def refuse(*args, **kwargs):
        raise AssertionError("the grid was allocated")

    monkeypatch.setattr(np, "arange", refuse)
    path = tmp_path / "run.cfg"
    path.write_text(text)
    assert main(["run", str(path), *flags,
                 "--output", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {where}: ")
    assert "more than 1,000,000" in err


@pytest.mark.parametrize("section,name", sorted(COUNT_LIMITS),
                         ids=[f"{s}-{k}" for s, k in sorted(COUNT_LIMITS)])
def test_oversized_count_exits_2_naming_key(tmp_path, capsys, monkeypatch,
                                            section, name):
    def refuse(*args, **kwargs):
        raise AssertionError("an array was allocated")

    for alloc in ("arange", "linspace", "geomspace", "empty", "zeros"):
        monkeypatch.setattr(np, alloc, refuse)
    experiment = section if section in EXPERIMENTS else "ple"
    path = tmp_path / "run.cfg"
    path.write_text(f"experiment = {experiment}\n[{section}]\n"
                    f"{name} = {10**12}\n")
    out = tmp_path / "o"
    assert main(["run", str(path), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    limit = COUNT_LIMITS[(section, name)]
    assert err.startswith(f"error: [{section}] {name}: expected at most "
                          f"{limit:,}, got ")
    assert not out.exists()


@pytest.mark.parametrize("key", sorted(COUNT_LIMITS),
                         ids=[f"{s}-{k}" for s, k in sorted(COUNT_LIMITS)])
def test_count_one_past_its_limit_is_refused(key):
    limit = COUNT_LIMITS[key]
    with pytest.raises(ConfigError, match=f"expected at most {limit:,}, "
                                          f"got '{limit + 1}'"):
        build_config({key: str(limit + 1)})


def test_count_limits_admit_the_bound():
    cfg = build_config({key: str(limit) for key, limit in COUNT_LIMITS.items()})
    assert all(cfg[key] == limit for key, limit in COUNT_LIMITS.items())


def test_dump_roundtrip_is_identity():
    cfg = build_config({("", "experiment"): "g2",
                        ("", "seed"): "99",
                        ("cavity", "kappa"): "4.0 GHz",
                        ("scan", "mask"): "(-1, 1) MHz"})
    text = dump_config(cfg)
    again = build_config(parse_config_text(text))
    assert again.raw == cfg.raw
    assert dump_config(again) == text


def test_load_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("experiment = lifetime\nseed = 12\n"
                    "[lifetime]\nn_pulses = 500  # quick run\n")
    cfg = load_config(path)
    assert cfg.experiment == "lifetime"
    assert cfg.seed == 12
    assert cfg["lifetime", "n_pulses"] == 500
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "missing.cfg")


@pytest.mark.parametrize("section,key", [("cavity", "interface_fraction"),
                                         ("emitter", "beta"),
                                         ("emitter", "n_host")])
def test_removed_key_exits_2_naming_it(tmp_path, capsys, section, key):
    path = tmp_path / "run.cfg"
    path.write_text(f"experiment = ple\n[{section}]\n{key} = 0.5\n")
    assert main(["run", str(path), "--output", str(tmp_path / "o")]) == 2
    assert f"unknown key {key!r} in [{section}]" in capsys.readouterr().err
