"""Spans around nlshaping's public functions, for the benchmark's traced run.

The wrappers are installed from outside the package: every public function
of the listed modules is replaced, in its own module and at each import
site (``nl_model.mi_awgn_2d``, ``cli.optimize_mb``, ...), by a wrapper that
records a span (name, start, end, parent) in memory. Calls inside a module
go through its globals, so they are seen too. Untraced runs never import
this file.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import resource
import time

LAYERS = ("constellation", "shaping", "awgn_mi", "nl_model", "ssfm", "cli")

# Builders that all make a pmf; build_pmf calls one of the others, so the
# group's time counts the outermost span only.
PMF_BUILDERS = frozenset(
    f"shaping.{name}" for name in ("uniform_pmf", "mb_pmf", "tailored_pmf", "ring_pmf", "build_pmf")
)


class Tracer:
    """Holds the spans of one traced run.

    Each span is a dict with ``name`` ("<layer>.<function>"), ``start`` and
    ``end`` (seconds since the tracer was made), ``parent`` (index of the
    enclosing span or None) and ``minor_faults`` taken by the call. An
    observer may add fields computed from the call's arguments and result.
    ``overhead_s`` sums the time the wrappers spend outside the calls they
    wrap, which is what tracing adds to the run's wall time.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self.overhead_s = 0.0
        self._open: list[int] = []
        self._origin = time.perf_counter()

    def wrap(self, name: str, fn, observe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = time.perf_counter()
            span = {"name": name, "parent": self._open[-1] if self._open else None}
            self._open.append(len(self.spans))
            self.spans.append(span)
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                span["minor_faults"] = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
                span["start"], span["end"] = start - self._origin, end - self._origin
                self._open.pop()
            if observe is not None:
                span.update(observe(args, kwargs, result))
            self.overhead_s += (start - entered) + (time.perf_counter() - end)
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"overhead_s": self.overhead_s, "spans": self.spans}, handle)


def install(tracer: Tracer, observers: dict) -> None:
    """Wrap every public function of nlshaping's layers.

    ``observers`` maps a span name to ``observe(args, kwargs, result) -> dict``.
    """
    modules = [importlib.import_module(f"nlshaping.{layer}") for layer in LAYERS]
    sites = [importlib.import_module("nlshaping"), *modules]
    for layer, module in zip(LAYERS, modules):
        for attr, fn in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                continue
            name = f"{layer}.{attr}"
            wrapped = tracer.wrap(name, fn, observers.get(name))
            for site in sites:
                for site_attr, value in list(vars(site).items()):
                    if value is fn:
                        setattr(site, site_attr, wrapped)


def _ancestors(spans, index):
    parent = spans[index]["parent"]
    while parent is not None:
        yield parent
        parent = spans[parent]["parent"]


def _outermost_seconds(spans, names) -> float:
    """Time inside spans of ``names``, counting a span nested in another of
    the same names once."""
    total = 0.0
    for i, span in enumerate(spans):
        if span["name"] in names and not any(spans[a]["name"] in names for a in _ancestors(spans, i)):
            total += span["end"] - span["start"]
    return total


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the run, name -> (value, unit).

    A layer the workload does not reach reads 0.
    """
    spans = tracer.spans

    def calls(name):
        return sum(1 for s in spans if s["name"] == name)

    def seconds(name):
        return _outermost_seconds(spans, {name})

    def evals_per_call(optimizer):
        n = calls(optimizer)
        if n == 0:
            return 0.0
        evals = sum(
            1
            for i, s in enumerate(spans)
            if s["name"] == "awgn_mi.mi_awgn_2d"
            and any(spans[a]["name"] == optimizer for a in _ancestors(spans, i))
        )
        return evals / n

    mi_calls = calls("awgn_mi.mi_awgn_2d")
    steps = sum(s.get("steps", 0) for s in spans if s["name"] == "ssfm.propagate")
    propagate_s = seconds("ssfm.propagate")
    out = {
        "awgn_mi.mi_awgn_2d.calls": (mi_calls, "count"),
        "awgn_mi.mi_awgn_2d.ms_per_call": (
            1e3 * seconds("awgn_mi.mi_awgn_2d") / mi_calls if mi_calls else 0.0, "ms"),
        "nl_model.optimize_mb.calls": (calls("nl_model.optimize_mb"), "count"),
        "nl_model.optimize_mb.evals_per_call": (evals_per_call("nl_model.optimize_mb"), "evals/call"),
        "nl_model.optimize_tailored.evals_per_call": (
            evals_per_call("nl_model.optimize_tailored"), "evals/call"),
        "nl_model.optimize_tailored.s": (seconds("nl_model.optimize_tailored"), "s"),
        "shaping.pmf_build.s": (_outermost_seconds(spans, PMF_BUILDERS), "s"),
        "shaping.is_ring_constant.s": (seconds("shaping.is_ring_constant"), "s"),
        "shaping.excess_kurtosis.s": (seconds("shaping.excess_kurtosis"), "s"),
        "constellation.normalized.s": (seconds("constellation.normalized"), "s"),
        "ssfm.propagate.s": (propagate_s, "s"),
        "ssfm.propagate.ms_per_step": (1e3 * propagate_s / steps if steps else 0.0, "ms"),
        "ssfm.propagate.steps": (steps, "count"),
        "ssfm.propagate.minor_faults": (
            sum(s["minor_faults"] for s in spans if s["name"] == "ssfm.propagate"), "count"),
    }
    for name in ("ssfm.generate_wdm", "ssfm.amplify", "ssfm.receive", "ssfm.estimate_snr",
                 "ssfm.mi_from_samples", "awgn_mi.mi_monte_carlo",
                 "cli.build_modulations", "cli.write_csv"):
        out[f"{name}.s"] = (seconds(name), "s")
    out["trace.spans"] = (len(spans), "count")
    out["trace.overhead_s"] = (tracer.overhead_s, "s")
    return out
