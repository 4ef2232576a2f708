"""Wall time and peak memory of cavityspec at default and at scale settings.

    python3 bench/scale.py --out BENCH_8.json
    python3 bench/scale.py --out BENCH_16.json --parent HEAD~1

Run it from the root of a checkout; it imports cavityspec from ./src.  Every
entry runs in a fresh interpreter, REPEATS times, or SHORT_REPEATS times when
its first run takes under SHORT_S seconds (host noise alone moves the median
of 3 such runs by ±15%).  The output records, per entry, each run's wall
time and minor page faults (the child's ru_minflt), their number and median
time, and the largest peak RSS of the runs, with the machine's core count.
With --parent REV, the committed files of REV are extracted to a temporary
directory (git archive) and every run of this checkout is paired with one
of REV, entry by entry and repeat by repeat, which of the two goes first
alternating; REV's rows go under "parent", so host drift moves both sides
of a row alike.  Entries:

- `run <experiment>`: `cavityspec run <experiment> --seed 7` at defaults,
  timed from before `import cavityspec.cli` to the end of `main`;
- `run <experiment> @ <setting>`: the same at one scale setting (SCALE);
- `pulse_excitation 1e6 pairs`: the line-point pairs of the `ensemble_ple`
  benchmark workload at seed 7, tiled to 1,000,000, in one call;
- `pulse_excitation 1e6 undamped pairs`: the same pairs with no pure
  dephasing, so gamma2 T = gamma T / 2 <= 0.22: the optical coherence
  outlives the pulse and every pair takes the propagator's full closed form,
  where at the workload's dephasing (gamma2 T ~ 195) every pair drops its
  damped pair terms;
- `pulse_excitation 1 pair`: one call on the first of those pairs, the
  median of 1,000 calls counted as one run.

Bundles are written to a temporary directory and deleted.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXPERIMENTS = ("ple", "lifetime", "cavity_sweep", "saturation", "zeeman", "g2",
               "spin_t1", "purcell_stats")
# one scale setting per experiment, two for ple (about 1.5M and 6M
# line-point pairs), four for lifetime (many background clicks, sparse dead
# time, dead time that closes a few clicks in many pulses, a detector
# saturated under dead time), two for cavity_sweep (many
# points drawn directly, and every click of each point under dead time), and
# six for g2: with and without the blinking telegraph, with a
# telegraph that switches about every other pulse, with a rarely bright
# one (its candidate pulses far outnumber its clicks), with many offsets,
# and with a click in nearly every pulse (most pulses pair at each offset)
SCALE = {
    "ple @ ensemble 20 GHz at 2 MHz": "experiment = ple\n[cavity]\n"
        "frequency = 195.1188 THz\n[ensemble]\nenabled = true\n[scan]\n"
        "span = 20 GHz\nstep = 2 MHz\n",
    "ple @ ensemble 20 GHz at 0.5 MHz": "experiment = ple\n[cavity]\n"
        "frequency = 195.1188 THz\n[ensemble]\nenabled = true\n[scan]\n"
        "span = 20 GHz\nstep = 0.5 MHz\n",
    "lifetime @ 1e7 background clicks": "experiment = lifetime\n[lifetime]\n"
        "n_pulses = 1000000\nbackground_per_pulse = 10\n",
    "lifetime @ 50 ns dead time, 2e6 clicks": "experiment = lifetime\n"
        "[lifetime]\nn_pulses = 1000000\nbackground_per_pulse = 2\n"
        "[detector]\ndead_time = 50 ns\n",
    "lifetime @ 10 us dead time, 2e6 clicks": "experiment = lifetime\n"
        "[lifetime]\nn_pulses = 1000000\nbackground_per_pulse = 2\n"
        "[detector]\ndead_time = 10 us\n",
    "lifetime @ 1,000 clicks a pulse, 1 us dead time": "experiment = "
        "lifetime\n[lifetime]\nn_pulses = 10000\nbackground_per_pulse = "
        "1000\n[detector]\ndead_time = 1 us\n",
    "purcell_stats @ 2048 fractions": "experiment = purcell_stats\n"
        "[purcell_stats]\nn_points = 2048\n",
    "g2 @ 1e7 pulses": "experiment = g2\n[g2]\nn_pulses = 10000000\n",
    "g2 @ 1e7 pulses, blinking": "experiment = g2\n[g2]\n"
        "n_pulses = 10000000\nblink = true\np_bright = 0.5\n",
    "g2 @ 1e7 pulses, blinking, switch_time 1 ns": "experiment = g2\n[g2]\n"
        "n_pulses = 10000000\nblink = true\np_bright = 0.5\n"
        "switch_time = 1 ns\n",
    "g2 @ 1e7 pulses, blinking, p_bright 0.02": "experiment = g2\n[g2]\n"
        "n_pulses = 10000000\nblink = true\np_bright = 0.02\n",
    "g2 @ 1e7 pulses, max_offset 1000": "experiment = g2\n[g2]\n"
        "n_pulses = 10000000\nmax_offset = 1000\n",
    "g2 @ 1e6 pulses, 5 background clicks a pulse": "experiment = g2\n[g2]\n"
        "n_pulses = 1000000\nbackground_per_pulse = 5\n",
    "cavity_sweep @ 1001 points x 1e5 pulses": "experiment = cavity_sweep\n"
        "[cavity_sweep]\nn_points = 1001\npulses_per_point = 100000\n",
    "cavity_sweep @ 201 points, 50 ns dead time, 2 kHz dark": "experiment = "
        "cavity_sweep\n[cavity_sweep]\nn_points = 201\n[detector]\n"
        "dead_time = 50 ns\ndark_rate = 2 kHz\n",
    "saturation @ 200,000 powers": "experiment = saturation\n[saturation]\n"
        "n_points = 200000\n",
    # from 2 mT, as this row has always run: the doublet fit also measures
    # 1 mT (lines 1.9 FWHM apart), and refuses fields split by less than
    # 1.5 FWHM, such as 0 mT
    "zeeman @ 100 fields, 2-101 mT": "experiment = zeeman\n[zeeman]\nfields = "
        + ", ".join(f"{b} mT" for b in range(2, 102)) + "\n",
    "spin_t1 @ 600,001 temperatures": "experiment = spin_t1\n[spin_t1]\n"
        "temp_grid = 2:8:1e-5 K\n",
}
ENTRIES = ([f"run {e}" for e in EXPERIMENTS] + [f"run {s}" for s in SCALE]
           + ["pulse_excitation 1e6 pairs",
              "pulse_excitation 1e6 undamped pairs",
              "pulse_excitation 1 pair"])
REPEATS = 3
SHORT_REPEATS, SHORT_S = 9, 1.0
PAIRS = 1_000_000
ONE_PAIR_CALLS = 1000


def _usage() -> dict:
    """This process's peak RSS and minor page faults so far."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {"peak_rss_mb": usage.ru_maxrss / 1024.0,
            "minor_faults": usage.ru_minflt}


def _run_main(target: str, out: str) -> None:
    from cavityspec.cli import main
    code = main(["run", target, "--seed", "7", "--output", out])
    if code != 0:
        raise SystemExit(f"cavityspec run {target} exited {code}")


def capture_pairs(path: str) -> None:
    """Save the ensemble_ple workload's pulse_excitation inputs to path."""
    sys.path.insert(0, ROOT)
    from cavityspec import experiments
    from perfbench.workloads import WORKLOADS

    calls = []
    real = experiments.pulse_excitation

    def spy(*args):
        calls.append(args)
        return real(*args)

    experiments.pulse_excitation = spy
    try:
        with tempfile.TemporaryDirectory() as tmp:
            cfg = os.path.join(tmp, "run.cfg")
            with open(cfg, "w", encoding="utf-8") as fh:
                fh.write(WORKLOADS["ensemble_ple"].config)
            with contextlib.redirect_stdout(io.StringIO()):
                _run_main(cfg, tmp)
    finally:
        experiments.pulse_excitation = real
    columns, durations = [], set()
    for *rates, duration in calls:
        columns.append(np.stack([a.ravel() for a in np.broadcast_arrays(
            *(np.asarray(r, dtype=float) for r in rates))]))
        durations.add(float(duration))
    (duration,) = durations
    np.savez(path, pairs=np.concatenate(columns, axis=1), duration=duration)


def child(name: str, pairs_path: str) -> dict:
    """Run one entry once in this interpreter; its seconds and peak RSS."""
    if name.startswith("run "):
        label = name[4:]
        with tempfile.TemporaryDirectory() as tmp:
            target = label
            if label in SCALE:
                target = os.path.join(tmp, "run.cfg")
                with open(target, "w", encoding="utf-8") as fh:
                    fh.write(SCALE[label])
            start = time.perf_counter()
            _run_main(target, tmp)
            seconds = time.perf_counter() - start
        return {"seconds": seconds, **_usage()}

    from cavityspec.dynamics import pulse_excitation
    saved = np.load(pairs_path)
    pairs, duration = saved["pairs"], float(saved["duration"])
    if name.endswith("1 pair"):
        one = [float(x) for x in pairs[:, 0]]
        times = []
        for _ in range(ONE_PAIR_CALLS):
            start = time.perf_counter()
            pulse_excitation(*one, duration)
            times.append(time.perf_counter() - start)
        seconds = statistics.median(times)
    else:
        tiled = np.tile(pairs, -(-PAIRS // pairs.shape[1]))[:, :PAIRS].copy()
        if "undamped" in name:
            tiled[3] = 0.0  # gamma_d
        start = time.perf_counter()
        pulse_excitation(*tiled, duration)
        seconds = time.perf_counter() - start
    return {"seconds": seconds, **_usage()}


def _extract(rev: str, tmp: str) -> tuple[str, str]:
    """REV's committed files under tmp/parent, and REV's commit hash."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
                         check=True, cwd=ROOT, text=True,
                         capture_output=True).stdout.strip()
    archive = subprocess.run(["git", "archive", "--prefix=parent/", sha],
                             check=True, cwd=ROOT, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
    return os.path.join(tmp, "parent"), sha


def _summary(runs: list[dict]) -> dict:
    seconds = [r["seconds"] for r in runs]
    return {"median_s": statistics.median(seconds), "repeats": len(seconds),
            "runs_s": seconds,
            "peak_rss_mb": max(r["peak_rss_mb"] for r in runs),
            "minor_faults": [r["minor_faults"] for r in runs]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--parent", metavar="REV",
                        help="also time git revision REV, alternating runs")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("--pairs", help=argparse.SUPPRESS)
    parser.add_argument("--capture", help=argparse.SUPPRESS)
    parser.add_argument("--root", default=ROOT, help=argparse.SUPPRESS)
    args = parser.parse_args()
    sys.path.insert(0, os.path.join(args.root, "src"))
    if args.capture:
        capture_pairs(args.capture)
        return 0
    if args.child:
        print(json.dumps(child(args.child, args.pairs)))
        return 0

    with tempfile.TemporaryDirectory() as tmp:
        roots = {"entries": ROOT}
        if args.parent:
            roots["parent"], sha = _extract(args.parent, tmp)
        results = {side: {} for side in roots}
        pairs = os.path.join(tmp, "pairs.npz")
        me = [sys.executable, os.path.abspath(__file__), "--out", args.out]
        # in a child too: Linux carries a process's peak RSS across exec, so
        # every later child would report this one's
        subprocess.run(me + ["--capture", pairs], check=True, cwd=ROOT)
        if args.parent:
            print(f"{'':45s} {'this checkout':>31s} {'parent':>31s}")
        for name in ENTRIES:
            runs = {side: [] for side in roots}
            for rep in range(SHORT_REPEATS):
                if rep == REPEATS and runs["entries"][0]["seconds"] >= SHORT_S:
                    break
                for side in list(roots)[::-1 if rep % 2 else 1]:
                    done = subprocess.run(
                        me + ["--child", name, "--pairs", pairs,
                              "--root", roots[side]],
                        check=True, cwd=ROOT, text=True, capture_output=True)
                    runs[side].append(json.loads(done.stdout.splitlines()[-1]))
            line = f"{name:45s}"
            for side in roots:
                results[side][name] = row = _summary(runs[side])
                line += (f" {row['median_s']:9.4f} s "
                         f"{row['peak_rss_mb']:7.1f} MB "
                         f"{statistics.median(row['minor_faults']):7.0f} mf")
            print(line, flush=True)
    report = {"cores": os.cpu_count(), "python": sys.version.split()[0],
              "numpy": np.__version__, "entries": results["entries"]}
    if args.parent:
        report["parent"] = {"rev": sha, "entries": results["parent"]}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
