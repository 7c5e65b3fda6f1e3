"""Span recorder that wraps spatialcox's public functions from outside the package.

While installed, every public function defined in a layer module is replaced,
in every package namespace that holds it, by a wrapper that records a span:
name, parent span, op id, start, end, and counts taken from the call's
arguments or result.  Replacing the name in each namespace matters because
the modules import functions by name (``from .sarh import simulate_sarh1``),
so a caller looks the function up in its own module.

Spans stay in memory; the caller writes them out when the run ends.
"""

from __future__ import annotations

import importlib
import inspect
import os
import time
from contextlib import contextmanager

LAYERS = ("sarh", "spectral", "whittle", "cox", "pipeline", "basis", "field", "cli",
          "experiment")

# span fields
NAME, PARENT, OP, START, END, COUNTS = range(6)


def _bound(fn, args, kwargs):
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _simulate_cells(fn, args, kwargs, out):
    a = _bound(fn, args, kwargs)
    b = int(a["burn_in"])
    return {"cells": (int(a["dims"][0]) + b) * (int(a["dims"][1]) + b) * a["params"].n_modes}


def _estimate_counts(fn, args, kwargs, out):
    return {"loss_evals": int(out.n_loss_evals), "converged": int(bool(out.converged)),
            "fits": 1}


def _idw_pairs(fn, args, kwargs, out):
    a = _bound(fn, args, kwargs)
    n1, n2 = a["target_dims"]
    return {"pairs": int(n1) * int(n2) * a["series"].sites.shape[0]}


def _project_mults(fn, args, kwargs, out):
    a = _bound(fn, args, kwargs)
    shape = a["samples"].shape
    batch = 1
    for n in shape[:-1]:
        batch *= int(n)
    return {"mults": batch * a["spec"].n_modes * int(shape[-1])}


def _cov_grid(fn, args, kwargs, out):
    a = _bound(fn, args, kwargs)
    family = getattr(a["model"], "family", "")
    kind = "separable" if family in ("example1", "example2") else "pmf"
    return {"grid_points": int(a["grid_size"]) ** 2, kind: 1}


def _empirical_cov_mults(fn, args, kwargs, out):
    a = _bound(fn, args, kwargs)
    n1, n2, m = a["field"].data.shape
    l1, l2 = int(a["max_lag"][0]), int(a["max_lag"][1])
    rows = sum(n1 - abs(z) for z in range(-l1, l1 + 1))
    cols = sum(n2 - abs(z) for z in range(-l2, l2 + 1))
    return {"mults": rows * cols * m * m}


def _count_pairs(fn, args, kwargs, out):
    area = _bound(fn, args, kwargs)["rect"].area
    return {"pairs": area * area}


def _file_bytes(key):
    def count(fn, args, kwargs, out):
        return {key: os.path.getsize(_bound(fn, args, kwargs)["path"])}
    return count


def _experiment_failed(fn, args, kwargs, out):
    per_size = {r["N"]: r["n_failed"] for r in out.rows}
    return {"failed": int(sum(per_size.values()))}


COUNTERS = {
    "sarh.simulate_sarh1": _simulate_cells,
    "whittle.estimate": _estimate_counts,
    "pipeline.idw_interpolate": _idw_pairs,
    "basis.project_samples": _project_mults,
    "spectral.cov_from_spectrum": _cov_grid,
    "spectral.empirical_cov": _empirical_cov_mults,
    "cox.count_moments": _count_pairs,
    "field.save_field_binary": _file_bytes("bytes_written"),
    "field.save_field_csv": _file_bytes("bytes_written"),
    "field.load_field_binary": _file_bytes("bytes_read"),
    "experiment.run_experiment": _experiment_failed,
}


class Recorder:
    """Collects spans; ``recording(op)`` installs the wrappers for one op."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._op = None
        self._modules = [importlib.import_module(f"spatialcox.{m}") for m in LAYERS]
        self._modules.append(importlib.import_module("spatialcox"))
        self._wrapped = {}
        for mod in self._modules[:-1]:
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    name = f"{mod.__name__.rsplit('.', 1)[1]}.{obj.__name__}"
                    self._wrapped[id(obj)] = self._wrap(name, obj, COUNTERS.get(name))

    def _wrap(self, name, fn, counter):
        spans, stack = self.spans, self._stack

        def recorded(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, self._op, time.perf_counter(), None,
                    None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if counter is not None:
                span[COUNTS] = counter(fn, args, kwargs, out)
            return out

        recorded.__wrapped__ = fn
        return recorded

    @contextmanager
    def recording(self, op):
        """Swap the wrappers into every package namespace for the duration of one op."""
        saved = []
        for mod in self._modules:
            for attr, obj in list(vars(mod).items()):
                wrapper = self._wrapped.get(id(obj))
                if wrapper is not None:
                    saved.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)
        self._op = op
        try:
            yield self
        finally:
            for mod, attr, obj in saved:
                setattr(mod, attr, obj)
            self._op = None


def self_times(spans):
    """Per-span self time: duration minus the durations of its direct children."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out
