"""Command-line surface: run experiments, fit data files, inspect bundles.

`run` executes one experiment from a config file (or built-in defaults named
by experiment), writing data files, the resolved config, and a manifest of
SHA-256 hashes into the output directory.  Identical configs and seeds
produce byte-identical bundles; wall time is reported on stderr only.

Exit codes: 0 success, 1 numeric failure, 2 input error.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import hashlib
import json
import os
import shutil
import sys
import tempfile
import time

import numpy as np

from . import __version__
from .analysis import MODELS, PEAK_THRESHOLD, count_peaks, fit_model
from .config import RunConfig, build_config, dump_config, parse_config_text
from .errors import (CapacityError, ConfigError, DomainError, FitError,
                     IntegrationError)
from .experiments import EXPERIMENTS
from .output import (read_csv, read_text, write_csv_atomic,
                     write_json_atomic, write_text_atomic)

# glibc's heap policy, as mallopt(3) (parameter, value) pairs.  By default
# glibc hands free heap past twice its dynamic mmap threshold back to the
# kernel, so each pair block of a PLE scan would fault in again the pages
# the last one freed.  M_TRIM_THRESHOLD (-1): a block's ~30 float64 arrays
# of 16,384 pairs (3.75 MiB) and a propagator chunk's ~20 of 8,192 (1.25
# MiB) stay, 5 MiB; at 4 MiB ~1,000 faults a 94k-pair scan were left in
# most heap layouts.  M_MMAP_THRESHOLD (-3): those arrays (128 KiB at most)
# come from the heap, and arrays over 1 MiB are mapped on their own and
# unmapped when freed, so they cannot pin the heap's top (at 32 MiB a
# lifetime run with 50 ns of dead time and 2e6 clicks peaked 13 MB higher).
_HEAP_POLICY = ((-1, 5 << 20), (-3, 1 << 20))


def _execute(cfg: RunConfig, outdir: str, fmt: str) -> dict[str, str]:
    """Write config.txt and run cfg.experiment; return each file written, by
    name, with the SHA-256 digest of its bytes."""
    # config.txt holds dump_config(cfg), so its digest is the config hash
    files = {"config.txt": write_text_atomic(
        os.path.join(outdir, "config.txt"), dump_config(cfg))}
    cols, meta, clicks = EXPERIMENTS[cfg.experiment](cfg)
    meta = {**meta, "config_hash": files["config.txt"]}
    name = f"{cfg.experiment}.{fmt}"
    path = os.path.join(outdir, name)
    if fmt == "json":
        files[name] = write_json_atomic(path, {"header": meta, "columns": {
            k: np.asarray(arr, dtype=float).tolist() for k, arr in cols}})
    else:
        files[name] = write_csv_atomic(path, cols, header=meta)
    if clicks is not None:
        files["clicks.bin"] = clicks.to_binary(
            os.path.join(outdir, "clicks.bin"))
    return files


def _sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _cmd_run(args) -> int:
    if args.target in EXPERIMENTS:
        entries = {("", "experiment"): args.target}
    elif os.path.exists(args.target):
        entries = parse_config_text(read_text(args.target, "config file"),
                                    source=args.target)
    else:
        raise ConfigError(
            f"{args.target!r} is neither an experiment name "
            f"({', '.join(EXPERIMENTS)}) nor a config file")
    if args.seed is not None:
        entries[("", "seed")] = str(args.seed)
    if args.output is not None:
        entries[("", "output_dir")] = args.output
    cfg = build_config(entries)

    outdir = os.path.join(cfg.output_dir, f"{cfg.experiment}-seed{cfg.seed}")
    # the bundle is built aside and renamed into place, so a failed run
    # leaves nothing behind and a rerun leaves no stale file
    parent = cfg.output_dir or "."
    os.makedirs(parent, exist_ok=True)
    stage = tempfile.mkdtemp(dir=parent, prefix=".tmp-")
    new, old = os.path.join(stage, "new"), os.path.join(stage, "old")
    try:
        os.mkdir(new)
        started = time.monotonic()
        files = _execute(cfg, new, args.format)
        manifest = {
            "experiment": cfg.experiment,
            "seed": cfg.seed,
            "config_hash": files["config.txt"],
            "package_version": __version__,
            "format": args.format,
            "files": files,  # written with sorted keys
        }
        write_json_atomic(os.path.join(new, "manifest.json"), manifest)
        if os.path.lexists(outdir):
            os.rename(outdir, old)
        os.rename(new, outdir)
    finally:
        shutil.rmtree(stage, ignore_errors=True)
    print(outdir)
    print(f"run {cfg.experiment}: {len(files) + 1} files, "
          f"{time.monotonic() - started:.2f} s", file=sys.stderr)
    return 0


def _cmd_fit(args) -> int:
    _, cols = read_csv(args.data)
    names = list(cols)
    if len(names) < 2:
        raise ConfigError(f"{args.data}: need at least two columns, "
                          f"got {names}")
    x, y = cols[names[0]], cols[names[1]]
    finite = np.isfinite(x) & np.isfinite(y)
    if not np.all(finite):
        print(f"note: skipping {int(np.sum(~finite))} non-finite rows",
              file=sys.stderr)
        x, y = x[finite], y[finite]
    if len(x) == 0:
        raise ConfigError(f"{args.data}: no finite data rows")
    out_path = args.output or args.data + ".fit.json"

    if args.model == "peaks":
        try:
            with np.errstate(over="raise", invalid="raise"):
                baseline = float(np.median(y))
                y = y - baseline
                noise = args.noise_sigma
                if noise is None:  # the median absolute deviation, as a sigma
                    noise = 1.4826 * float(np.median(np.abs(y)))
                    if noise <= 0:
                        raise ConfigError(
                            "noise sigma is zero; pass --noise-sigma")
                peaks = count_peaks(x, y, width=args.width, noise_sigma=noise)
        except FloatingPointError:
            raise ConfigError(f"{args.data}: the data overflow double "
                              "precision; rescale them") from None
        result = {"model": "peaks", "count": peaks.count,
                  "width": args.width, "noise_sigma": noise,
                  "baseline": baseline,
                  "centers": peaks.centers.tolist(),
                  "amplitudes": peaks.amplitudes.tolist()}
        print(f"peaks found: {peaks.count} (width {args.width:g}, "
              f"threshold {PEAK_THRESHOLD:g} x {noise:g})")
        write_json_atomic(out_path, result)
        return 0

    if args.model == "bunching":
        keep = x > 0  # the zero-offset point is antibunched, not bunching
        x, y = x[keep], y[keep]
    # a column of counts is fitted by its own law, anything else unweighted
    counts = bool(np.all((y >= 0) & (np.trunc(y) == y)))
    statistic = "poisson" if counts else "least_squares"
    fit = fit_model(MODELS[args.model], x, y, poisson=counts)
    print(f"model       {fit.model}")
    print(f"statistic   {statistic}")
    state = "yes" if fit.converged else "NO"
    print(f"converged   {state} ({fit.n_iter} iterations)")
    for key in fit.params:
        print(f"{key:<11} {fit.params[key]:.6g} +- {fit.stderr[key]:.3g}")
    print(f"residual    {fit.residual_norm:.6g}")
    write_json_atomic(out_path, {**fit.to_json(), "statistic": statistic})
    if not fit.converged:
        bad = [k for k, v in fit.stderr.items() if not 0.0 < v < np.inf]
        raise FitError("fit not identified: no finite, positive stderr for "
                       f"{', '.join(bad)}" if bad else "fit did not converge")
    return 0


def _cmd_inspect(args) -> int:
    path = args.bundle
    if os.path.isdir(path):
        path = os.path.join(path, "manifest.json")
    try:
        manifest = json.loads(read_text(path, "manifest"))
    # the decoder recurses once per nesting level
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ConfigError(f"{path}: not a manifest: {exc}") from None
    files = manifest.get("files") if isinstance(manifest, dict) else None
    if not (isinstance(files, dict) and all(
            isinstance(d, str) and os.path.basename(n) == n
            for n, d in files.items())):
        raise ConfigError(f"{path}: not a manifest: 'files' must map plain "
                          "file names to SHA-256 digests")
    for key in ("experiment", "seed", "config_hash", "package_version",
                "format"):
        print(f"{key:<16} {manifest.get(key)}")
    bundle_dir = os.path.dirname(path)
    bad = 0
    for name, digest in sorted(files.items()):
        target = os.path.join(bundle_dir, name)
        status = ("MISSING" if not os.path.isfile(target) else
                  "MODIFIED" if _sha256_file(target) != digest else "ok")
        bad += status != "ok"
        print(f"  {name:<20} {status}  {digest[:16]}")
    # files the manifest does not list (say, a fit written here) are shown,
    # not failed
    listed = set(files) | {os.path.basename(path)}
    for name in sorted(set(os.listdir(bundle_dir or ".")) - listed):
        print(f"  {name:<20} UNLISTED")
    return 1 if bad else 0


# built once a process: parsing does not change the parser, and argparse
# looks up sys.stdout and sys.stderr only when it prints
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cavityspec",
        description="Synthetic cavity-enhanced spectroscopy runs and fits.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute one experiment")
    run_p.add_argument("target",
                       help="experiment name (" + ", ".join(EXPERIMENTS)
                            + ") or a config file path")
    run_p.add_argument("--seed", type=int, help="override the RNG seed")
    run_p.add_argument("--output", help="override the output directory")
    run_p.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="data file format (default csv)")

    fit_p = sub.add_parser("fit", help="fit a CSV data file")
    fit_p.add_argument("data", help="CSV whose first two columns are x, y")
    fit_p.add_argument("--model", required=True,
                       choices=tuple(MODELS) + ("peaks",))
    fit_p.add_argument("--width", type=float, default=6e6,
                       help="peaks: fixed Lorentzian width in x units "
                            "(default 6e6)")
    fit_p.add_argument("--noise-sigma", dest="noise_sigma", type=float,
                       help="peaks: noise level; default is estimated "
                            "from the data")
    fit_p.add_argument("--output", help="where to write the JSON result")

    ins_p = sub.add_parser("inspect", help="print and verify a run manifest")
    ins_p.add_argument("bundle", help="bundle directory or manifest path")
    return parser


def _set_heap_policy() -> None:
    """Apply _HEAP_POLICY where the C library has glibc's mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no such C library call
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    for param, value in _HEAP_POLICY:
        mallopt(param, value)  # 0 where refused; the default stands


def main(argv=None) -> int:
    _set_heap_policy()
    args = _build_parser().parse_args(argv)
    try:
        return {"run": _cmd_run, "fit": _cmd_fit,
                "inspect": _cmd_inspect}[args.command](args)
    except (ConfigError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FitError, IntegrationError, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
