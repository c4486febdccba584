"""Per-layer tracing of thompson_holo, installed from outside the package.

`Tracer.install` wraps the public functions of each layer module, plus the few
methods the benchmark attributes time to, in every module namespace that holds
them (the package imports with `from .x import y`, so one function can sit in
several namespaces).  Each call records one span with its parent; a span's self
time is its duration minus the time covered by its child spans.  Scalar helpers
that run per chord or per point get no span, so their cost lands in their
callers' self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time

LAYER_MODULES = (
    "dyadic",
    "thompson",
    "tensor",
    "semicontinuous",
    "tessellation",
    "approximation",
    "cli",
)

# (module, class, attribute) of the methods and properties that get spans.
METHODS = (
    ("semicontinuous", "FineGrainer", "matrix"),
    ("semicontinuous", "FineGrainer", "apply"),
    ("tessellation", "Tessellation", "face_apex"),
    ("approximation", "CircleMap", "__init__"),
)

# Called once per chord or per point, like the scalar dyadic operations.
SCALAR = {
    "tessellation.chord",
    "tessellation.interval_chord",
    "tessellation.in_standard_set",
    "approximation.circle_distance",
}

# Facts counted at layer boundaries: layer -> {counter: f(args, result)}.
COUNTERS = {
    "thompson.parse_word": {"letters": lambda a, r: len(a[0].strip())},
    "thompson.compose": {"leaves_out": lambda a, r: r.num_leaves},
    "tensor.contract": {"nodes": lambda a, r: len(a[0].tensors)},
    "semicontinuous.FineGrainer.matrix": {"bytes": lambda a, r: r.nbytes},
    "semicontinuous.fine_grainer": {"carets": lambda a, r: len(r.carets)},
    "tessellation.flips_realizing": {"flips_out": lambda a, r: len(r)},
    "approximation.approximate": {"ties": lambda a, r: len(r.ties)},
}

# Per-call size measure for the scaling exponent: layer -> f(args, result).
SIZES = {
    "thompson.parse_word": lambda a, r: len(a[0].strip()),
    "tensor.contract": lambda a, r: len(a[0].tensors),
    "semicontinuous.FineGrainer.matrix": lambda a, r: r.shape[0],
    "approximation.approximate": lambda a, r: 2**r.n,
}

# Counters that also keep their largest single value, under another name.
MAXIMA = {
    "semicontinuous.FineGrainer.matrix.bytes": "semicontinuous.FineGrainer.matrix.max_bytes",
}


class Tracer:
    """Spans and per-layer aggregates for one process.

    Recording is switched with `enabled`; while it is off a wrapped call costs
    one attribute check, so the benchmark can turn it off around its own
    output checks.
    """

    def __init__(self):
        self.enabled = False
        self.layers: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.counters: dict[str, float] = {}
        self.sized: dict[str, list[tuple[float, float]]] = {}
        self.span_layer: list[int] = []
        self.span_parent: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self._open: list[int] = []
        self._child: list[float] = []

    def install(self, package: str) -> None:
        mods = {m: importlib.import_module(f"{package}.{m}") for m in LAYER_MODULES}
        namespaces = [
            m
            for name, m in list(sys.modules.items())
            if name == package or name.startswith(package + ".")
        ]
        for modname, mod in mods.items():
            for attr in getattr(mod, "__all__", ["main"]):
                layer = f"{modname}.{attr}"
                fn = getattr(mod, attr, None)
                if layer in SCALAR or not inspect.isfunction(fn):
                    continue
                wrapped = self.wrap(layer, fn)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            setattr(ns, key, wrapped)
        for modname, clsname, attr in METHODS:
            cls = getattr(mods[modname], clsname)
            raw = cls.__dict__[attr]
            layer = f"{modname}.{clsname}" if attr == "__init__" else f"{modname}.{clsname}.{attr}"
            if isinstance(raw, property):
                setattr(cls, attr, property(self.wrap(layer, raw.fget)))
            else:
                setattr(cls, attr, self.wrap(layer, raw))

    def wrap(self, layer: str, fn):
        lid = len(self.layers)
        self.layers.append(layer)
        self.calls.append(0)
        self.self_s.append(0.0)
        counters = COUNTERS.get(layer, {})
        size_of = SIZES.get(layer)
        if size_of is not None:
            self.sized[layer] = []
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = len(self.span_layer)
            self.span_layer.append(lid)
            self.span_parent.append(self._open[-1] if self._open else -1)
            self._open.append(span)
            self._child.append(0.0)
            t0 = clock()
            self.span_start.append(t0)
            self.span_end.append(t0)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = clock()
                self.span_end[span] = t1
                self._open.pop()
                dur = t1 - t0
                own = dur - self._child.pop()
                if self._child:
                    self._child[-1] += dur
                self.calls[lid] += 1
                self.self_s[lid] += own
            if ok:
                for name, f in counters.items():
                    key = f"{layer}.{name}"
                    value = f(args, result)
                    self.counters[key] = self.counters.get(key, 0) + value
                    if key in MAXIMA:
                        top = MAXIMA[key]
                        self.counters[top] = max(self.counters.get(top, 0), value)
                if size_of is not None:
                    self.sized[layer].append((size_of(args, result), own))
            return result

        return traced

    def summary(self, scale: float) -> dict:
        """Per-layer facts; times are multiplied by `scale`."""
        out: dict[str, float] = {}
        for lid, layer in enumerate(self.layers):
            out[f"{layer}.calls"] = self.calls[lid]
            out[f"{layer}.self_s"] = self.self_s[lid] * scale
        out.update(self.counters)
        for layer, samples in self.sized.items():
            out[f"{layer}.scaling_exp"] = scaling_exponent(samples)
        return out


def scaling_exponent(samples) -> float:
    """Least-squares slope of log(self time) against log(size), one point per call.

    Calls too short for the clock to resolve are left out; with fewer than two
    distinct sizes the slope is undefined and reported as 0.0.
    """
    pts = [(math.log(s), math.log(t)) for s, t in samples if s > 0 and t > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    sxy = sum((x - mx) * (y - my) for x, y in pts)
    return sxy / sxx
