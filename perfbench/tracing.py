"""Spans around the calls into pdfisp's layers, recorded from outside the package.

`Tracer.install()` replaces each traced function with a wrapper in the
module that calls it: the package binds its callees with `from .x import y`,
so the name has to be replaced where it is looked up, not where it is
defined. `pdfisp.reconstruct` is the function (the package re-exports it
over the submodule), so modules are reached through importlib.

Spans (name, start, end, parent) stay in memory until the run ends;
`layer_metrics` turns them into the per-layer numbers.
"""
from __future__ import annotations

import functools
import importlib
import statistics
import time
from dataclasses import dataclass

# (module that looks the name up, attribute, span name)
PATCHES = [
    ("pdfisp.studies", "simulate", "forward.simulate"),
    ("pdfisp.studies", "reconstruct", "reconstruct.reconstruct"),
    ("pdfisp.forward", "build_greens", "forward.build_greens"),
    ("pdfisp.forward", "incident_fields", "forward.incident_fields"),
    ("pdfisp.forward", "solve_total_field", "forward.solve_total_field"),
    ("pdfisp.forward", "apply_gd", "forward.apply_gd"),
    ("pdfisp.reconstruct", "build_greens", "forward.build_greens"),
    ("pdfisp.reconstruct", "incident_fields", "forward.incident_fields"),
    ("pdfisp.reconstruct", "bp_initialize", "reconstruct.bp_initialize"),
    ("pdfisp.reconstruct", "init_alpha", "reconstruct.init_alpha"),
    ("pdfisp.reconstruct", "grad_loss", "network.grad_loss"),
    ("pdfisp.reconstruct", "adam_step", "network.adam_step"),
    ("pdfisp.reconstruct", "pipeline_forward", "losses.pipeline_forward"),
    ("pdfisp.reconstruct", "pixel_least_squares", "cie.pixel_least_squares"),
    ("pdfisp.reconstruct", "apply_cco", "filters.apply_cco"),
    ("pdfisp.network", "pipeline_forward", "losses.pipeline_forward"),
    ("pdfisp.network", "pipeline_backward", "losses.pipeline_backward"),
    ("pdfisp.losses", "pixel_least_squares", "cie.pixel_least_squares"),
]

# per-layer metric name -> unit, in the order BENCHMARK.json lists them
LAYER_UNITS = {
    "forward.gd_applications": "count",
    "forward.apply_gd_ms": "ms",
    "forward.solve_s": "s",
    "forward.solves": "count",
    "forward.build_greens_s": "s",
    "forward.incident_fields_s": "s",
    "spectral.operators_build_s": "s",
    "spectral.operator_builds": "count",
    "reconstruct.bp_initialize_s": "s",
    "reconstruct.init_alpha_s": "s",
    "reconstruct.iters_per_s": "1/s",
    "losses.pipeline_forward_ms": "ms",
    "losses.pipeline_backward_ms": "ms",
    "cie.pixel_least_squares_ms": "ms",
    "network.grad_loss_ms": "ms",
    "network.self_ms": "ms",
    "network.adam_step_ms": "ms",
    "filters.apply_cco_ms": "ms",
    "bench.traced_call_s": "s",
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None


class Tracer:
    """Records nested spans of the wrapped functions while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append(Span(name, time.perf_counter(), float("nan"),
                                   self._stack[-1] if self._stack else None))
            self._stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx].end = time.perf_counter()
        return traced

    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        for module, attr, name in PATCHES:
            mod = importlib.import_module(module)
            self._replace(mod, attr, self.wrap(name, getattr(mod, attr)))
        ops = importlib.import_module("pdfisp.spectral").SpectralOperators
        build = ops.__dict__["build"].__func__
        self._replace(ops, "build", classmethod(self.wrap("spectral.operators_build", build)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class Capture:
    """Keeps the return value of one package function, for the checks after timing.

    Unlike Tracer it takes no timestamps: one list append per call.
    """

    def __init__(self, module: str, attr: str):
        self.module = importlib.import_module(module)
        self.attr = attr
        self.calls: list[tuple[tuple, dict, object]] = []

    def __enter__(self) -> "Capture":
        self.original = getattr(self.module, self.attr)

        def captured(*args, **kwargs):
            out = self.original(*args, **kwargs)
            self.calls.append((args, kwargs, out))
            return out

        setattr(self.module, self.attr, captured)
        return self

    def __exit__(self, *exc) -> None:
        setattr(self.module, self.attr, self.original)


def _durations(spans: list[Span], name: str, parent_name: str | None = None) -> list[float]:
    return [s.end - s.start for s in spans if s.name == name
            and (parent_name is None
                 or (s.parent is not None and spans[s.parent].name == parent_name))]


def _median(values: list[float], scale: float = 1.0) -> float:
    return statistics.median(values) * scale if values else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer numbers from the spans of one timed call.

    Times are medians over the layer's calls; counts are per solve
    (gd_applications) or per timed call. A layer the workload never
    enters reads 0.
    """
    solves = _durations(spans, "forward.solve_total_field")
    in_solve = _durations(spans, "forward.apply_gd", "forward.solve_total_field")
    grad = _durations(spans, "network.grad_loss")
    adam = _durations(spans, "network.adam_step")
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    grad_self = [s.end - s.start - child_time[i] for i, s in enumerate(spans)
                 if s.name == "network.grad_loss"]
    loop = sum(grad) + sum(adam)
    return {
        "forward.gd_applications": len(in_solve) / len(solves) if solves else 0.0,
        "forward.apply_gd_ms": _median(in_solve, 1e3),
        "forward.solve_s": _median(solves),
        "forward.solves": len(solves),
        "forward.build_greens_s": _median(_durations(spans, "forward.build_greens")),
        "forward.incident_fields_s": _median(_durations(spans, "forward.incident_fields")),
        "spectral.operators_build_s": _median(_durations(spans, "spectral.operators_build")),
        "spectral.operator_builds": len(_durations(spans, "spectral.operators_build")),
        "reconstruct.bp_initialize_s": _median(_durations(spans, "reconstruct.bp_initialize")),
        "reconstruct.init_alpha_s": _median(_durations(spans, "reconstruct.init_alpha")),
        "reconstruct.iters_per_s": len(grad) / loop if loop > 0 else 0.0,
        "losses.pipeline_forward_ms": _median(_durations(spans, "losses.pipeline_forward"), 1e3),
        "losses.pipeline_backward_ms": _median(_durations(spans, "losses.pipeline_backward"), 1e3),
        "cie.pixel_least_squares_ms": _median(_durations(spans, "cie.pixel_least_squares"), 1e3),
        "network.grad_loss_ms": _median(grad, 1e3),
        "network.self_ms": _median(grad_self, 1e3),
        "network.adam_step_ms": _median(adam, 1e3),
        "filters.apply_cco_ms": _median(_durations(spans, "filters.apply_cco"), 1e3),
        "bench.traced_call_s": _median(_durations(spans, "bench.call")),
    }
