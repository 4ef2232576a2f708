"""Fresh-interpreter probes the benchmark launches as child processes.

    python3 perfbench/child.py setup <workload> <cfg>
        import cavityspec.cli, build the workload's config, report timings
    python3 perfbench/child.py pipeline <workload> <cfg> <seed> <out_dir>
        run one untraced pipeline, report exit codes and peak RSS

The parent puts the checkout's `src` on PYTHONPATH.  Each probe prints one
JSON object on its last stdout line.
"""

import sys
import time


def _setup(cfg_path: str) -> dict:
    t0 = time.perf_counter()
    import cavityspec.cli  # noqa: F401  (the import is what is timed)
    t1 = time.perf_counter()
    from cavityspec.config import load_config
    load_config(cfg_path)
    t2 = time.perf_counter()
    return {"import_s": t1 - t0, "build_s": t2 - t1}


def _pipeline(workload: str, cfg_path: str, seed: str, out_dir: str) -> dict:
    import resource

    from cavityspec.cli import main
    from workloads import WORKLOADS, run_pipeline

    outcome = run_pipeline(main, WORKLOADS[workload], cfg_path, int(seed),
                           out_dir)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"codes": outcome.codes, "error": outcome.error,
            "bundle": outcome.bundle and outcome.bundle.path,
            "peak_rss_mb": peak_kb / 1024.0}


if __name__ == "__main__":
    mode, workload, cfg = sys.argv[1:4]
    result = _setup(cfg) if mode == "setup" else _pipeline(workload, cfg,
                                                           *sys.argv[4:6])
    import json
    print(json.dumps(result))
