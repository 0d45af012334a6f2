"""Spans around lagssm's public functions, installed from outside the package.

Every public function of a layer module, and every public method of a class
the module defines, is wrapped. The wrapper is bound in every `lagssm.*`
namespace that holds the original, so names other modules imported with
`from .basis import phi_matrix` are traced too. `uninstall` puts the
originals back, so untraced cycles run the library untouched.

A call made while the innermost open span already belongs to the same layer
opens no span of its own: its time stays in the caller's self time and only
its call and work counters are recorded. This keeps the 5e5 Lorenz
right-hand-side calls of a long trace from becoming 5e5 spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = {
    "lagssm.basis": "basis",
    "lagssm.warp": "warp",
    "lagssm.quadrature": "quadrature",
    "lagssm.matrices": "matrices",
    "lagssm.recurrence": "recurrence",
    "lagssm.signals": "signals",
    "lagssm.experiments": "experiments",
    "lagssm.cli": "experiments",
}


def _n_times_points(ba):
    return ba.arguments["spec"].n_basis * np.size(ba.arguments["z"])


def _panel_size(ba):
    cfg = ba.arguments["cfg"]
    return cfg.points_per_panel * cfg.panels


# Work counters, taken from the arguments of the call that does the work.
WORK = {
    ("basis", "phi_matrix"): ("values", _n_times_points),
    ("basis", "phi_deriv_matrix"): ("values", _n_times_points),
    ("quadrature", "panel_nodes"): ("nodes", _panel_size),
    ("recurrence", "run"): ("steps", lambda ba: len(ba.arguments["trace"].values)),
    ("recurrence", "step"): ("steps", lambda ba: 1),
    ("signals", "lorenz63"): ("samples", lambda ba: ba.arguments["params"].steps),
    ("signals", "sine_mixture"): ("samples", lambda ba: ba.arguments["steps"]),
}


class Tracer:
    """Holds spans (name, layer, start, end, parent, op id) and counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._bindings: list[tuple[object, str, object]] = []
        self.op_id = -1

    # --- spans -----------------------------------------------------------

    def open(self, name: str, layer: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, time.perf_counter(), 0.0, parent, self.op_id])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self._stack.pop()

    def _innermost_layer(self):
        return self.spans[self._stack[-1]][1] if self._stack else None

    def _wrap(self, fn, layer: str, name: str):
        tracer = self
        work = WORK.get((layer, name))
        sig = inspect.signature(fn) if work else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.counts[f"{layer}.calls"] += 1
            if work:
                ba = sig.bind(*args, **kwargs)
                ba.apply_defaults()
                tracer.counts[f"{layer}.{work[0]}"] += work[1](ba)
            if tracer._innermost_layer() == layer:
                return fn(*args, **kwargs)
            idx = tracer.open(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)

        return traced

    # --- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of each layer module everywhere it is bound."""
        modules = {n: m for n, m in sys.modules.items() if n == "lagssm" or n.startswith("lagssm.")}
        originals: dict[int, object] = {}
        for mod_name, layer in LAYERS.items():
            mod = modules[mod_name]
            for name, obj in vars(mod).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != mod_name:
                    continue
                if inspect.isfunction(obj):
                    originals[id(obj)] = (obj, self._wrap(obj, layer, name))
                elif inspect.isclass(obj):
                    self._wrap_methods(obj, layer)
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._bind(mod, name, obj, hit[1])

    def _wrap_methods(self, cls, layer: str) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            if inspect.isfunction(attr):
                self._bind(cls, name, attr, self._wrap(attr, layer, f"{cls.__name__}.{name}"))
            elif isinstance(attr, (classmethod, staticmethod)):
                wrapped = self._wrap(attr.__func__, layer, f"{cls.__name__}.{name}")
                self._bind(cls, name, attr, type(attr)(wrapped))

    def _bind(self, holder, name, original, wrapper) -> None:
        setattr(holder, name, wrapper)
        self._bindings.append((holder, name, original))

    def uninstall(self) -> None:
        for holder, name, original in reversed(self._bindings):
            setattr(holder, name, original)
        self._bindings.clear()

    # --- results ---------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self time per layer and per layer.function: duration minus the
        time covered by direct child spans."""
        child = [0.0] * len(self.spans)
        for name, layer, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, layer, start, end, _, _) in enumerate(self.spans):
            own = end - start - child[i]
            out[layer] += own
            out[f"{layer}.{name}"] += own
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, layer, start, end, parent, op in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "layer": layer, "start": start, "end": end,
                         "parent": parent, "op": op}
                    )
                    + "\n"
                )
