"""The benchmark's workloads: generated configs, the pipeline, the gate.

A pipeline is what a researcher runs by hand: `cavityspec run <cfg> --seed S`,
then `fit` on the bundle's data table, then `inspect` on the bundle, all in
process through `cavityspec.cli.main`.  Every pipeline passes a correctness
gate: each command exits 0, the manifest is byte-identical to the reference
pipeline at the same seed, and one ground-truth check for the workload holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass
from typing import Callable

# Absolute cavity frequency written into every config; `*_offset` keys are
# relative to it, so the fine scan's true line position is known here.
F_CAV_HZ = 195.1188e12
FINE_ION_OFFSET_HZ = 3e6
SWEEP_PURCELL = 320.0
# site-1 ions: density x site fraction x region volume (2 x 1 x 0.15 um^3)
ENSEMBLE_DENSITY_PER_M3 = 2.8e22
ENSEMBLE_MEAN_IONS = ENSEMBLE_DENSITY_PER_M3 * 0.5 * 2e-6 * 1e-6 * 0.15e-6


@dataclass(frozen=True)
class Workload:
    name: str
    experiment: str
    config: str
    fit_args: tuple[str, ...]
    check: Callable[["Bundle"], list[str]]
    # How strongly the pipeline time follows the calibration kernel's speed
    # (speed.py): the exponent that left the least spread between the
    # medians of 12-pipeline windows over 9 minutes of pipelines alternating
    # with kernels, in steps of 0.25.  g2_clicks is bound by numpy work on
    # 3 M-element arrays, which slows about half as much as the kernel.
    speed_exponent: float = 1.0


@dataclass
class Bundle:
    """What one pipeline left behind, read back for the gate."""

    path: str
    table: str
    fit_path: str

    @classmethod
    def at(cls, path: str, wl: Workload, out_dir: str) -> "Bundle":
        return cls(path, os.path.join(path, wl.experiment + ".csv"),
                   os.path.join(out_dir, "fit.json"))


@dataclass
class Outcome:
    seconds: float
    codes: tuple[int, ...]
    bundle: Bundle | None
    error: str = ""


def read_table(path: str) -> tuple[dict[str, str], dict[str, list[float]]]:
    """Parse a bundle CSV: `# key: value` header lines, a column line, rows."""
    meta: dict[str, str] = {}
    names: list[str] | None = None
    rows: list[list[float]] = []
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, _, value = line[1:].partition(":")
                meta[key.strip()] = value.strip()
            elif names is None:
                names = line.split(",")
            else:
                rows.append([float(c) for c in line.split(",")])
    if names is None or not rows:
        raise ValueError(f"{path}: no data rows")
    return meta, {n: [r[i] for r in rows] for i, n in enumerate(names)}


def _read_fit(bundle: Bundle) -> dict:
    with open(bundle.fit_path, encoding="utf-8") as fh:
        return json.load(fh)


def _check_ensemble(bundle: Bundle) -> list[str]:
    # the ion count is Poisson and each point's counts are Bernoulli plus
    # Poisson draws (variance at most the mean), so both sit within a few
    # square roots of their expectations
    meta, cols = read_table(bundle.table)
    total, expected = sum(cols["counts"]), sum(cols["expected"])
    n_ions = int(meta.get("n_ions", "0"))
    problems = []
    if abs(n_ions - ENSEMBLE_MEAN_IONS) > 5.0 * math.sqrt(ENSEMBLE_MEAN_IONS):
        problems.append(f"{n_ions} ions, expected {ENSEMBLE_MEAN_IONS:g}")
    if abs(total - expected) > 5.0 * math.sqrt(expected):
        problems.append(f"total counts {total:.0f} vs expected "
                        f"{expected:.1f} +- {math.sqrt(expected):.1f}")
    if _read_fit(bundle).get("count", 0) < 1:
        problems.append("peak count found no lines")
    return problems


def _check_fine(bundle: Bundle) -> list[str]:
    meta, _ = read_table(bundle.table)
    fit = _read_fit(bundle)
    line = F_CAV_HZ + FINE_ION_OFFSET_HZ - float(meta["origin_hz"])
    center, err = fit["params"]["center"], fit["stderr"]["center"]
    if not (fit["converged"] and err > 0 and abs(center - line) <= 5.0 * err):
        return [f"Lorentzian centre {center:.6g} +- {err:.3g} Hz, "
                f"ion line at {line:.6g} Hz"]
    return []


def _check_sweep(bundle: Bundle) -> list[str]:
    # Each row is an independent lifetime fit; within 0.5 GHz of zero
    # detuning the enhancement is within 7% of its peak, so the median of
    # those rows recovers the configured Purcell factor.  The Lorentzian fit
    # of the whole table is not checked: at the default 50 pW drive it ran
    # away on some seeds while reporting convergence.
    _, cols = read_table(bundle.table)
    near = [p for d, p in zip(cols["cavity_detuning_hz"], cols["purcell_fit"])
            if abs(d) <= 0.5e9 and math.isfinite(p)]
    if len(near) < 5:
        return [f"only {len(near)} converged rows within 0.5 GHz of zero"]
    purcell = statistics.median(near)
    if abs(purcell - SWEEP_PURCELL) > 0.15 * SWEEP_PURCELL:
        return [f"Purcell factor near zero detuning {purcell:.1f}, "
                f"configured {SWEEP_PURCELL:g}"]
    return []


def _check_g2(bundle: Bundle) -> list[str]:
    meta, cols = read_table(bundle.table)
    g2_0, err = cols["g2"][0], cols["stderr"][0]
    floor = float(meta["floor_predicted"])
    if not (err > 0 and abs(g2_0 - floor) <= 5.0 * err):
        return [f"g2(0) = {g2_0:.4f} +- {err:.4f}, predicted floor {floor:.4f}"]
    return []


_COMMON = f"""\
[cavity]
frequency = {F_CAV_HZ / 1e12:.4f} THz
"""

# Why each workload exists, and the layer it loads, is recorded in
# BENCHMARK.json; the sizes keep one pipeline near half a second on 2 cores.
# sweep_fit drives at 5 nW: at the default 50 pW the far-detuned points get
# few clicks and their lifetime fits fail at a seed-dependent rate, which
# made the pipeline time vary by ~25% between seeds; at 5 nW every fit
# converges in ~10 iterations.
WORKLOADS = {w.name: w for w in (
    Workload(
        "ensemble_ple", "ple",
        "experiment = ple\n" + _COMMON + f"""
[ensemble]
enabled = true
density_per_m3 = {ENSEMBLE_DENSITY_PER_M3:g}
site1_fraction = 0.5
region = (2, 1, 0.15) um

[scan]
span = 20 GHz
step = 16 MHz
""", ("--model", "peaks", "--width", "6e6"), _check_ensemble),
    Workload(
        "fine_ple", "ple",
        "experiment = ple\n" + _COMMON + f"""
[ion]
offset = {FINE_ION_OFFSET_HZ / 1e6:g} MHz

[scan]
span = 30 MHz
step = 4 kHz
""", ("--model", "lorentzian"), _check_fine, speed_exponent=1.25),
    Workload(
        "sweep_fit", "cavity_sweep",
        "experiment = cavity_sweep\n" + _COMMON + f"""
[ion]
purcell = {SWEEP_PURCELL:g}

[sequence]
power = 5 nW

[cavity_sweep]
n_points = 201
pulses_per_point = 30000
""", ("--model", "lorentzian"), _check_sweep, speed_exponent=1.25),
    Workload(
        "g2_clicks", "g2",
        "experiment = g2\n" + _COMMON + """
[g2]
n_pulses = 3000000
blink = true
p_bright = 0.5
""", ("--model", "bunching"), _check_g2, speed_exponent=0.5),
)}


def run_pipeline(main, wl: Workload, cfg_path: str, seed: int, out_dir: str,
                 span=None) -> Outcome:
    """run + fit + inspect into a fresh out_dir; time the three commands.

    `span(name)`, when given, wraps each command so a tracer can attribute
    time to the CLI layer.
    """
    span = span or (lambda name: contextlib.nullcontext())
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    run_out = io.StringIO()
    sink = io.StringIO()
    codes: list[int] = []
    bundle = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stderr(sink):
            with span("run"), contextlib.redirect_stdout(run_out):
                codes.append(main(["run", cfg_path, "--seed", str(seed),
                                   "--output", out_dir]))
            if codes[-1] == 0:
                bundle = Bundle.at(run_out.getvalue().splitlines()[0].strip(),
                                   wl, out_dir)
                with span("fit"), contextlib.redirect_stdout(sink):
                    codes.append(main(["fit", bundle.table, *wl.fit_args,
                                       "--output", bundle.fit_path]))
                with span("inspect"), contextlib.redirect_stdout(sink):
                    codes.append(main(["inspect", bundle.path]))
    except Exception:  # a traceback is a failed pipeline, not a crash
        return Outcome(time.perf_counter() - start, tuple(codes), bundle,
                       traceback.format_exc())
    seconds = time.perf_counter() - start
    error = "" if all(c == 0 for c in codes) else sink.getvalue()
    return Outcome(seconds, tuple(codes), bundle, error)


def gate(wl: Workload, outcome: Outcome, reference: bytes | None) -> list[str]:
    """Problems with one pipeline's outputs; empty when it passes."""
    if outcome.error or len(outcome.codes) != 3:
        return [f"exit codes {outcome.codes}: {outcome.error.strip()}"]
    problems = []
    if reference is not None and manifest_bytes(outcome) != reference:
        problems.append("manifest differs from the first pipeline's")
    try:
        problems += wl.check(outcome.bundle)
    except (OSError, KeyError, ValueError) as exc:
        problems.append(f"cannot read outputs: {exc!r}")
    return problems


def manifest_bytes(outcome: Outcome) -> bytes | None:
    if outcome.bundle is None:
        return None
    try:
        with open(os.path.join(outcome.bundle.path, "manifest.json"), "rb") as fh:
            return fh.read()
    except OSError:
        return None
