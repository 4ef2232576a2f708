"""Spans around cavityspec's layers, recorded from outside the program.

The tracer replaces each target function with a wrapper on every
`cavityspec.*` module attribute bound to it (runners import their helpers
by name, e.g. `experiments.pulse_excitation`) and puts every attribute back
on exit.  Spans stay in memory; the caller writes them out at the end.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import sys
import time
from dataclasses import dataclass

import numpy as np


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    counts: dict


# (layer, module, names) -- a "*" in a name matches any non-empty middle
TARGETS = (
    ("config", "config", ("build_config",)),
    ("ensemble", "ensemble", ("sample_ensemble",)),
    ("experiments", "experiments", ("run_*",)),
    ("dynamics", "dynamics", ("pulse_excitation", "evolve_bloch")),
    ("detection", "detection", ("simulate_clicks", "g2_pulsed")),
    ("analysis", "analysis", ("fit_model", "count_peaks")),
    ("output", "output", ("write_*_atomic",)),
)

LAYERS = ("cli", "config", "ensemble", "experiments", "dynamics",
          "detection", "analysis", "output")


def _matches(pattern: str, name: str) -> bool:
    head, star, tail = pattern.partition("*")
    if not star:
        return name == pattern
    return (name.startswith(head) and name.endswith(tail)
            and len(name) > len(head) + len(tail))


def _first_array_len(result) -> int:
    """Scan points a runner produced: its first 1-d array field."""
    for value in getattr(result, "__dict__", {}).values():
        if isinstance(value, np.ndarray) and value.ndim == 1:
            return len(value)
    return 0


def _count(name: str, bound, result) -> dict:
    """Deterministic work counts for one call of a wrapped function."""
    if name == "sample_ensemble":
        return {"ions": len(result)}
    if name == "pulse_excitation":
        args = bound.arguments
        return {"pairs": int(np.broadcast(
            *(np.asarray(args[k]) for k in ("omega_rabi", "detuning",
                                            "gamma", "gamma_d"))).size)}
    if name == "simulate_clicks":
        return {"clicks": len(result)}
    if name == "fit_model":
        return {"fit_iters": result.n_iter, "fit_ok": int(result.converged)}
    if name == "count_peaks":
        return {"peaks": len(result.centers)}
    if name.startswith("run_"):
        return {"points": _first_array_len(result)}
    if name.startswith("write_"):
        return {"bytes": os.path.getsize(bound.arguments["path"])}
    return {}


class Tracer:
    """Records nested spans; use `with tracer.installed():` around calls."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    @contextlib.contextmanager
    def span(self, name: str, layer: str = "cli"):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = Span(name, layer, time.perf_counter(), 0.0, parent, {})
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, layer: str):
        name = fn.__name__
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name, layer) as record:
                result = fn(*args, **kwargs)
            # counting runs after the span closes, so its (small) cost falls
            # in the caller's span and in the tracing overhead, not here
            record.counts = _count(name, signature.bind(*args, **kwargs),
                                   result)
            return result
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch every binding of every target, restore them all on exit."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "cavityspec" or key.startswith("cavityspec.")]
        self.missing = []
        try:
            for layer, module_name, patterns in TARGETS:
                home = sys.modules.get("cavityspec." + module_name)
                for pattern in patterns:
                    found = [] if home is None else [
                        v for k, v in sorted(vars(home).items())
                        if _matches(pattern, k) and inspect.isfunction(v)
                        and v.__module__ == home.__name__]
                    if not found:
                        self.missing.append(f"{module_name}.{pattern}")
                    for fn in found:
                        self._patch_all(modules, fn, self._wrap(fn, layer))
            yield self
        finally:
            for module, attr, original in reversed(self._patched):
                setattr(module, attr, original)
            self._patched.clear()

    def _patch_all(self, modules, fn, wrapper) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)


def layer_metrics(spans: list[Span], scale: float = 1.0) -> dict[str, float]:
    """Per-layer times and counts of one traced pipeline.

    Every span's duration is multiplied by `scale`, the pipeline's
    machine-speed factor (see speed.py).
    """
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += (s.end - s.start) * scale
    m: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for key in ("ensemble.sample_s", "ensemble.ions", "dynamics.propagate_s",
                "dynamics.pairs", "dynamics.rk4_fallbacks",
                "experiments.points", "detection.clicks_s", "detection.g2_s",
                "detection.clicks", "analysis.fit_s", "analysis.fits",
                "analysis.fit_iters", "analysis.peaks_s", "analysis.peaks",
                "output.write_s", "output.bytes", "cli.inspect_s"):
        m[key] = 0.0
    fit_ok = 0
    for i, s in enumerate(spans):
        duration = (s.end - s.start) * scale
        m[f"{s.layer}.self_s"] += duration - covered[i]
        c = s.counts
        if s.name == "sample_ensemble":
            m["ensemble.sample_s"] += duration
            m["ensemble.ions"] += c.get("ions", 0)
        elif s.name == "pulse_excitation":
            m["dynamics.propagate_s"] += duration
            m["dynamics.pairs"] += c.get("pairs", 0)
        elif s.name == "evolve_bloch":
            if s.parent >= 0 and spans[s.parent].name == "pulse_excitation":
                m["dynamics.rk4_fallbacks"] += 1
        elif s.name.startswith("run_"):
            m["experiments.points"] += c.get("points", 0)
        elif s.name == "simulate_clicks":
            m["detection.clicks_s"] += duration
            m["detection.clicks"] += c.get("clicks", 0)
        elif s.name == "g2_pulsed":
            m["detection.g2_s"] += duration
        elif s.name == "fit_model":
            # a FitError leaves no counts: attempted, not converged
            m["analysis.fit_s"] += duration
            m["analysis.fits"] += 1
            m["analysis.fit_iters"] += c.get("fit_iters", 0)
            fit_ok += c.get("fit_ok", 0)
        elif s.name == "count_peaks":
            m["analysis.peaks_s"] += duration
            m["analysis.peaks"] += c.get("peaks", 0)
        elif s.name.startswith("write_"):
            m["output.write_s"] += duration
            m["output.bytes"] += c.get("bytes", 0)
        elif s.name == "inspect":
            m["cli.inspect_s"] += duration
    m["dynamics.pairs_per_s"] = (m["dynamics.pairs"] / m["dynamics.propagate_s"]
                                 if m["dynamics.propagate_s"] > 0 else 0.0)
    m["analysis.fit_ok_ratio"] = (fit_ok / m["analysis.fits"]
                                  if m["analysis.fits"] else 1.0)
    return m


# counts that must repeat exactly across pipelines at one seed
EXACT_COUNTS = ("ensemble.ions", "dynamics.pairs", "dynamics.rk4_fallbacks",
                "detection.clicks", "analysis.fits", "analysis.fit_iters",
                "output.bytes", "experiments.points", "analysis.peaks")
