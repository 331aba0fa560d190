"""Spans around the program's layers, installed from outside the program.

``Tracer.install`` replaces every public function of the layer modules with a
wrapper that records one span (name, start, end, parent) per call, in memory,
and puts the originals back on ``restore``.  Names bound by ``from ... import``
are separate bindings, so every module attribute that *is* a wrapped function
is replaced, not only the defining one.  Classes are patched in place
(``Jet2`` operators, ``ChartFrame.__init__`` and its cached properties), which
reaches every binding of the class at once.  Dicts that hold functions, such
as ``jets._ANALYTIC`` and ``cli._DISPATCH``, keep the originals: the calls
through them are counted by wrapping the dispatching function
(``jets.analytic``, ``cli.main``).

A layer is the module a span's function belongs to; its self time is the
span's duration minus the durations of its direct child spans and minus the
time of the tracer's own hooks that ran inside it.  That hook time is charged
to the harness instead.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import time
from array import array
from functools import cached_property
from pathlib import Path

import numpy as np

LAYERS = ("jets", "exprlang", "surfaces", "geometry", "ambient", "operators", "cli")

#: Span groups whose call counts and inclusive times are reported.  A group's
#: time counts only spans with no enclosing span of the same group, so that
#: nested stencils are not counted twice.
GROUPS = {
    "jets.mul": ("jets.Jet2.__mul__", "jets.Jet2.__rmul__"),
    "jets.analytic": tuple(f"jets.{f}" for f in ("exp", "sin", "cos", "sqrt", "log", "analytic")),
    "jets.reciprocal": ("jets.Jet2.reciprocal",),
    "surfaces.evaluate": ("surfaces.evaluate_jet_batch",),
    "exprlang.eval_jet": ("exprlang.eval_jet",),
    "geometry.frame_init": ("geometry.ChartFrame.__init__",),
    "operators.fd": ("operators.partial_derivative",),
    "operators.grid_residuals": ("operators.grid_residuals",),
    "operators.csl_willmore": ("operators.residual_csl_willmore",),
    "operators.csl_willmore_direct": ("operators.csl_willmore_direct",),
    "operators.identity_suite": ("operators.identity_suite",),
    "operators.normal_laplacian": ("operators.normal_laplacian_H",),
    "operators.brioschi_fd": ("operators.brioschi_curvature_fd",),
    "operators.divergence": ("operators.divergence",),
    "operators.laplace_beltrami": ("operators.laplace_beltrami",),
    "operators.willmore_energy": ("operators.willmore_energy",),
    "cli.build_config": ("cli.build_config",),
}

#: Jet2 methods that do arithmetic (the constructor and repr stay unwrapped).
_JET_METHODS = (
    "truncate", "__add__", "__radd__", "__neg__", "__sub__", "__rsub__", "__mul__",
    "__rmul__", "reciprocal", "__truediv__", "__rtruediv__", "dx", "dy",
    "conjugate", "real_part", "imag_part",
)


def _public_functions(module):
    return [
        (name, obj)
        for name, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_")
    ]


class Tracer:
    """Records spans in flat arrays; one instance per traced pass."""

    def __init__(self) -> None:
        self.span_names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.outer = array("b")  # 1 when no span of the same group encloses it
        self._stack = [-1]
        self._group_depth: dict[str, list[int]] = {}
        self.counts: dict[str, float] = {}
        self.mul_batches = array("l")
        #: Seconds of hook time per enclosing span index (-1: no span).
        self.hook_s: dict[int, float] = {}
        self._restore: list = []

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, name: str, fn, hook=None):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.span_names)
            self.span_names.append(name)
        nid = self._name_ids[name]
        group = next((g for g, members in GROUPS.items() if name in members), name)
        depth = self._group_depth.setdefault(group, [0])
        names, parents, starts, ends, outer, stack, hook_s = (
            self.name, self.parent, self.start, self.end, self.outer, self._stack, self.hook_s,
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            outer.append(depth[0] == 0)
            ends.append(0.0)
            stack.append(idx)
            depth[0] += 1
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                depth[0] -= 1
                stack.pop()
            if hook is not None:
                h0 = clock()
                hook(args, kwargs, result)
                parent = parents[idx]
                hook_s[parent] = hook_s.get(parent, 0.0) + (clock() - h0)
            return result

        return wrapper

    def _count(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _on_mul(self, args, kwargs, result) -> None:
        a, b = args
        out = result.coeffs
        b_bytes = getattr(getattr(b, "coeffs", b), "nbytes", 0)  # 0 for a Python scalar
        self._count("jets.mul_bytes", a.coeffs.nbytes + b_bytes + out.nbytes)
        self.mul_batches.append(out.size // out.shape[0])

    def _on_evaluate(self, args, kwargs, result) -> None:
        self._count("surfaces.evaluate_points", np.size(args[1]))

    def _on_frame(self, args, kwargs, result) -> None:
        # ChartFrame(self, spec, xs, ys, degree=4, wrap=True)
        degree = args[4] if len(args) > 4 else kwargs.get("degree", 4)
        xs = args[2] if len(args) > 2 else kwargs["xs"]
        self._count(f"geometry.frames.deg{degree}", 1)
        self._count(f"geometry.frame_points.deg{degree}", np.size(xs))

    def _on_fd(self, args, kwargs, result) -> None:
        # partial_derivative(spec, f, xs, ys, axis): six stencil points per point
        xs = args[2] if len(args) > 2 else kwargs["xs"]
        self._count("operators.fd_points", 6 * np.size(xs))

    def install(self) -> None:
        """Wrap the layers of ``legendrian_lab``; call ``restore`` to undo."""
        modules = {layer: importlib.import_module(f"legendrian_lab.{layer}") for layer in LAYERS}
        bindings = [importlib.import_module("legendrian_lab")] + list(modules.values())
        hooks = {
            "surfaces.evaluate_jet_batch": self._on_evaluate,
            "operators.partial_derivative": self._on_fd,
        }
        wrapped = {}
        for layer, module in modules.items():
            for name, fn in _public_functions(module):
                span = f"{layer}.{name}"
                wrapped[id(fn)] = (fn, self._wrap(span, fn, hooks.get(span)))
        for module in bindings:
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped and wrapped[id(value)][0] is value:
                    self._patch(module, attr, value, wrapped[id(value)][1])

        jet = modules["jets"].Jet2
        for method in _JET_METHODS:
            hook = self._on_mul if method in ("__mul__", "__rmul__") else None
            original = jet.__dict__[method]
            self._patch(jet, method, original, self._wrap(f"jets.Jet2.{method}", original, hook))

        frame = modules["geometry"].ChartFrame
        init = frame.__dict__["__init__"]
        self._patch(frame, "__init__", init,
                    self._wrap("geometry.ChartFrame.__init__", init, self._on_frame))
        for attr, prop in list(vars(frame).items()):
            if isinstance(prop, cached_property):
                self._patch(prop, "func", prop.func,
                            self._wrap(f"geometry.ChartFrame.{attr}", prop.func))

    def _patch(self, owner, attr: str, original, replacement) -> None:
        setattr(owner, attr, replacement)
        self._restore.append((owner, attr, original))

    def restore(self) -> None:
        """Put back every original the tracer replaced."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- reduction ------------------------------------------------------------

    def summary(self, wall_s: float, calls_s: float) -> dict[str, float]:
        """Per-group counts and times, per-layer self times, harness time.

        ``wall_s`` is the traced pass's wall time and ``calls_s`` the summed
        time of its ``cli.main`` calls as the caller timed them.  The
        harness's own time is measured from those two, not from the spans:
        ``wall_s - calls_s`` plus the hook time.  ``spans.gap_s`` is how far
        the layer self times plus harness time miss ``wall_s``; it is the
        caller's call time that no top-level span accounts for.
        """
        names = np.asarray(self.name)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = np.asarray(self.end) - np.asarray(self.start)
        outer = np.asarray(self.outer, dtype=bool)
        child = np.zeros(len(dur))
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        self_time = dur - child
        inner_hook_s = 0.0
        for idx, seconds in self.hook_s.items():
            if idx >= 0:  # hook time outside every span is already harness time
                self_time[idx] -= seconds
                inner_hook_s += seconds

        span_layer = np.array([s.split(".", 1)[0] for s in self.span_names])
        layer_of = span_layer[names]
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = float(np.sum(self_time[layer_of == layer]))
        out["harness.self_s"] = float(wall_s - calls_s + inner_hook_s)
        out["trace.hook_s"] = sum(self.hook_s.values())
        out["spans.gap_s"] = float(calls_s - np.sum(dur[~nested]))

        for group, members in GROUPS.items():
            ids = [self._name_ids[m] for m in members if m in self._name_ids]
            mask = np.isin(names, ids)
            out[f"{group}_calls"] = int(np.sum(mask))
            out[f"{group}_s"] = float(np.sum(dur[mask & outer]))
        ambient = layer_of == "ambient"
        parent_layer = np.where(nested, layer_of[np.maximum(parent, 0)], "")
        out["ambient.calls"] = int(np.sum(ambient))
        out["ambient.s"] = float(np.sum(dur[ambient & (parent_layer != "ambient")]))
        out["jets.mul_batch_p50"] = (
            float(statistics.median(self.mul_batches)) if self.mul_batches else 0.0
        )
        for key, value in self.counts.items():
            out[key] = value
        return out

    def write(self, path: Path) -> None:
        """Write the spans as tab-separated name, start, end, parent index."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.start[0] if self.start else 0.0
        with path.open("w", encoding="utf-8") as fh:
            fh.write("name\tstart_s\tend_s\tparent\n")
            for i in range(len(self.name)):
                fh.write(
                    f"{self.span_names[self.name[i]]}\t{self.start[i] - t0:.9f}\t"
                    f"{self.end[i] - t0:.9f}\t{self.parent[i]}\n"
                )
