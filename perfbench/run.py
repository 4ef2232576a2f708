"""cavityspec benchmark: end-to-end and per-layer timings of the user pipeline.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ensemble_ple --seed 7 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --seconds 25

One run writes the workload's config file, passes the seed to `run --seed`,
times `setup_s` over several fresh interpreters, runs one reference
pipeline, then runs pipelines one at a time, closed loop, for `--seconds`.
Every timing is scaled to a reference machine speed measured by a
calibration kernel run between samples (see speed.py).  With `--trace 0`
the pipelines are untraced and the end-to-end metrics are reported; with
`--trace 1` untraced and traced pipelines alternate and the per-layer
metrics are reported.  The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  `--workload all` runs every
workload in both modes and prints one table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import workloads
from speed import REFERENCE_S, SpeedMeter
from tracing import EXACT_COUNTS, Tracer, layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_LAUNCHES = 9
MIN_UNTRACED = 11  # the tail percentile needs ten samples beyond it
MIN_TRACED = 3
TAIL_BEYOND = 10


def _declared_units() -> tuple[dict, dict]:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def _child_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _child(args: list[str], env: dict) -> dict:
    proc = subprocess.run([sys.executable, os.path.join(HERE, "child.py"),
                           *args], env=env, capture_output=True, text=True,
                          timeout=120, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"child {args[0]} exited {proc.returncode}: "
                           f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _import_cli(src: str):
    sys.path.insert(0, src)
    import cavityspec.cli
    where = os.path.realpath(cavityspec.cli.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise RuntimeError(f"cavityspec imported from {where}, not {src}")
    return cavityspec.cli.main


def _tail(times: list[float]) -> tuple[float, float]:
    """Value with exactly TAIL_BEYOND samples above it, and its percentile."""
    ranked = sorted(times)
    n = len(ranked)
    return ranked[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


class Run:
    """One workload at one seed: pipelines, gate results, timings."""

    def __init__(self, wl, seed: int, root: str):
        self.wl, self.seed = wl, seed
        self.src = os.path.join(root, "src")
        self.work = os.path.join(root, ".perfbench-work", wl.name)
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.cfg = os.path.join(self.work, wl.name + ".cfg")
        with open(self.cfg, "w", encoding="utf-8") as fh:
            fh.write(wl.config)
        self.env = _child_env(self.src)
        self.out = os.path.join(self.work, "out")
        self.attempted = 0
        self.failed = 0
        self.reference: bytes | None = None

    def record(self, outcome) -> None:
        """Gate one pipeline; a failure is counted, never dropped."""
        self.attempted += 1
        problems = workloads.gate(self.wl, outcome, self.reference)
        if problems:
            self.failed += 1
            print(f"FAIL {self.wl.name} seed {self.seed} pipeline "
                  f"{self.attempted}: {'; '.join(problems)}", file=sys.stderr)
        if self.reference is None:
            self.reference = workloads.manifest_bytes(outcome)

    def setup(self) -> list[tuple[float, dict]]:
        """Fresh-interpreter launches: (seconds, child's own timings in s).

        Launches are interpreter-bound (imports), so they scale with the
        kernel at exponent 1.
        """
        meter = SpeedMeter()
        probes = []
        for _ in range(SETUP_LAUNCHES):
            start = time.perf_counter()
            report = _child(["setup", self.wl.name, self.cfg], self.env)
            wall = time.perf_counter() - start
            scale = meter.factor()
            probes.append((wall * scale, {k: v * scale
                                          for k, v in report.items()}))
        return probes

    def pipeline(self, main, span=None):
        outcome = workloads.run_pipeline(main, self.wl, self.cfg, self.seed,
                                         self.out, span)
        self.record(outcome)
        return outcome

    def rss_child(self) -> float:
        out = os.path.join(self.work, "rss-out")
        report = _child(["pipeline", self.wl.name, self.cfg, str(self.seed),
                         out], self.env)
        bundle = report["bundle"] and workloads.Bundle.at(
            report["bundle"], self.wl, out)
        self.record(workloads.Outcome(0.0, tuple(report["codes"]), bundle,
                                      report["error"]))
        return report["peak_rss_mb"]


def _end_to_end(run: Run, main, probes, seconds: float):
    peak_rss_mb = run.rss_child()
    meter = SpeedMeter(run.wl.speed_exponent)
    walls: list[float] = []
    times: list[float] = []
    started: list[float] = []
    t0 = time.perf_counter()
    while time.perf_counter() < t0 + seconds or len(times) < MIN_UNTRACED:
        started.append(time.perf_counter() - t0)
        walls.append(run.pipeline(main).seconds)
        times.append(walls[-1] * meter.factor())
    with open(os.path.join(run.work, "pipelines.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"started_s": started, "wall_s": walls, "pipeline_s": times,
                   "kernel_s": meter.kernels}, fh)
    tail, pct = _tail(times)
    metrics = {
        "pipeline_s": statistics.median(times),
        "pipeline_tail_s": tail,
        "setup_s": statistics.median(p[0] for p in probes),
        "peak_rss_mb": peak_rss_mb,
        "pass_ratio": 1.0 - run.failed / run.attempted,
    }
    note = (f"pipeline_tail_s is p{pct:.0f}: {TAIL_BEYOND} of {len(times)} "
            f"pipelines were slower; setup_s is the median of "
            f"{len(probes)} launches\n"
            f"{_speed_note(walls, meter)}")
    return metrics, note, []


def _per_layer(run: Run, main, probes, seconds: float):
    """Alternate untraced and traced pipelines; per-layer traced medians."""
    tracer = Tracer()
    meter = SpeedMeter(run.wl.speed_exponent)
    walls: list[float] = []
    untraced: list[float] = []
    traced: list[float] = []
    per_pipeline: list[dict[str, float]] = []
    all_spans = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(traced) < MIN_TRACED:
        walls.append(run.pipeline(main).seconds)
        untraced.append(walls[-1] * meter.factor())
        tracer.spans = []
        with tracer.installed():
            wall = run.pipeline(main, span=tracer.span).seconds
        scale = meter.factor()
        traced.append(wall * scale)
        per_pipeline.append(layer_metrics(tracer.spans, scale))
        all_spans.append(tracer.spans)
    _write_spans(os.path.join(run.work, "spans.jsonl"), all_spans)
    if tracer.missing:
        print("trace: not found in cavityspec: " + ", ".join(tracer.missing),
              file=sys.stderr)
    problems = [f"{key} differs across pipelines at seed {run.seed}: "
                f"{sorted({m[key] for m in per_pipeline})}"
                for key in EXACT_COUNTS
                if len({m[key] for m in per_pipeline}) > 1]
    metrics = {key: statistics.median(m[key] for m in per_pipeline)
               for key in per_pipeline[0]}
    metrics["cli.import_s"] = statistics.median(p[1]["import_s"]
                                                for p in probes)
    metrics["config.build_s"] = statistics.median(p[1]["build_s"]
                                                  for p in probes)
    metrics["trace.overhead_s"] = (statistics.median(traced)
                                   - statistics.median(untraced))
    top = max((k for k in metrics if k.endswith(".self_s")), key=metrics.get)
    note = (f"largest self time: {top.split('.')[0]} ({metrics[top]:.4f} s "
            f"of a {statistics.median(traced):.4f} s traced pipeline); "
            f"{len(traced)} traced and {len(untraced)} untraced pipelines\n"
            f"{_speed_note(walls, meter)}")
    return metrics, note, problems


def _speed_note(walls: list[float], meter: SpeedMeter) -> str:
    return (f"times are at reference speed (kernel {REFERENCE_S * 1e3:g} ms, "
            f"exponent {meter.exponent:g}); untraced wall median "
            f"{statistics.median(walls):.4f} s, kernel median "
            f"{statistics.median(meter.kernels) * 1e3:.2f} ms")


def _write_spans(path: str, all_spans) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for i, spans in enumerate(all_spans):
            for s in spans:
                fh.write(json.dumps({"pipeline": i, "name": s.name,
                                     "layer": s.layer, "start": s.start,
                                     "end": s.end, "parent": s.parent,
                                     "counts": s.counts}) + "\n")


def measure(wl, seed: int, seconds: float, trace: bool, root: str) -> dict:
    run = Run(wl, seed, root)
    probes = run.setup()
    main = _import_cli(run.src)
    run.pipeline(main)  # warm-up and reference manifest, not timed
    mode = _per_layer if trace else _end_to_end
    metrics, note, problems = mode(run, main, probes, seconds)
    for out in ("out", "rss-out"):
        shutil.rmtree(os.path.join(run.work, out), ignore_errors=True)
    for p in problems:
        print(f"ERROR {wl.name}: {p}", file=sys.stderr)
    return {"correct": run.failed == 0 and not problems,
            "attempted": run.attempted, "failed": run.failed,
            "metrics": metrics, "note": note}


def _machine() -> str:
    import numpy
    return (f"nproc {os.cpu_count()}, Python {platform.python_version()}, "
            f"numpy {numpy.__version__}")


def _run_all(args) -> int:
    """Every workload in both modes, each in its own process."""
    rows: dict[str, dict] = {}
    results = {}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)], capture_output=True, text=True,
                check=False)
            sys.stderr.write(proc.stderr)
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                result = {"correct": False, "attempted": 0, "failed": 0,
                          "metrics": {}}
            results[(name, trace)] = result
            for key, m in result["metrics"].items():
                rows.setdefault(key, {"unit": m["unit"]})[name] = m["value"]
    names = list(workloads.WORKLOADS)
    print(f"seed {args.seed}, {args.seconds} s per run, {_machine()}")
    print(f"{'metric':<24}{'unit':<8}" + "".join(f"{n:>15}" for n in names))
    for key, row in rows.items():
        print(f"{key:<24}{row['unit']:<8}"
              + "".join(f"{row.get(n, float('nan')):>15.6g}" for n in names))
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}/{k}": {"value": v, "unit": rows[k]["unit"]}
                    for k in rows for n, v in rows[k].items() if n != "unit"},
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "cavityspec", "cli.py")):
        print("error: run from the root of a cavityspec checkout "
              "(src/cavityspec/cli.py not found)", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)

    e2e_units, layer_units = _declared_units()
    units = layer_units if args.trace else e2e_units
    result = measure(workloads.WORKLOADS[args.workload], args.seed,
                     args.seconds, bool(args.trace), root)
    if set(result["metrics"]) != set(units):
        raise RuntimeError("metrics do not match BENCHMARK.json: "
                           f"{sorted(set(result['metrics']) ^ set(units))}")
    print(f"{args.workload}, seed {args.seed}, trace {args.trace}, "
          f"{_machine()}")
    print(result.pop("note"))
    for key in sorted(result["metrics"]):
        print(f"  {key:<24} {result['metrics'][key]:>16.6g} {units[key]}")
    result["metrics"] = {k: {"value": v, "unit": units[k]}
                         for k, v in result["metrics"].items()}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
