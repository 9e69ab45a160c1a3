"""In-memory spans around the package's public functions, for the traced run.

The package binds functions with ``from .x import y``, so a call such as
``analysis.fit_fringe -> fit_least_squares`` looks the callee up in the
*calling* module.  `install` therefore replaces every ``impurityprobe.*``
module attribute that is the original function, not only the defining one.

A span is ``[name, op, parent, start, end, attrs]``; spans of one op share
``op``.  Nothing is recorded while no op is open, so set-up and the
benchmark's own reference computation leave no spans.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []

    def wrap(self, name, fn, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else None
            span = [name, self.op, parent, perf_counter(), None, {}]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            except Exception:
                span[5]["error"] = 1
                raise
            finally:
                span[4] = perf_counter()
                self._stack.pop()
            if attrs is not None:
                span[5].update(attrs(args, kwargs, out))
            return out
        return traced

    def note(self, fn, attrs):
        """Wrap `fn` without a span: add its attributes to the open span."""
        @functools.wraps(fn)
        def noted(*args, **kwargs):
            out = fn(*args, **kwargs)
            if self.op is not None and self._stack:
                span_attrs = self.spans[self._stack[-1]][5]
                for key, value in attrs(args, kwargs, out).items():
                    span_attrs[key] = span_attrs.get(key, 0) + value
            return out
        return noted


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _file_bytes(args, kwargs):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _lsq_attrs(args, kwargs, sol):
    return {"nfev": int(sol.nfev), "lsq": 1,
            "bound_active": int(np.any(sol.active_mask != 0))}


# (span name, attribute extractor).  A span name is "<defining module>.<function>".
LAYERS = [
    ("thermal.mb_quadrature", lambda a, k, out: {"nodes": len(out[0])}),
    ("bath.density_weight_measure", lambda a, k, out: {"nodes": len(out[0])}),
    ("scattering.delta_a", lambda a, k, out: {"evals": int(np.size(out))}),
    ("ramsey.detuning_nodes",
     lambda a, k, out: {"nodes": out[0].size,
                        "node_bytes": out[0].nbytes + out[1].nbytes}),
    ("ramsey.population_grid",
     lambda a, k, out: {"nt": len(_arg(a, k, 0, "protocol").t)}),
    ("ramsey.synthesize_fringe",
     lambda a, k, out: {"noise_cells": out.p.size
                        if (a[3] if len(a) > 3 else k.get("noise")) else 0}),
    ("analysis.analyze_fringes", None),
    ("analysis.fit_fringe", None),
    ("analysis.fit_visibility_decay", None),
    ("analysis.extract_phase_series", None),
    ("analysis.fit_phase_slope", None),
    ("fitting.fit_least_squares", None),
    ("calibration.fit_release_curve", None),
    ("calibration.fit_zeeman", None),
    ("calibration.fit_bfield", None),
    ("calibration.fit_light_shift", None),
    ("calibration.fit_no_bath_trace", None),
    ("inference.infer_density", None),
    ("inference.infer_temperature", None),
    ("inference.forward_observables", None),
    ("serialization.fringe_to_csv", lambda a, k, out: {"bytes": len(out)}),
    ("serialization.fringe_from_csv", lambda a, k, out: _file_bytes(a, k)),
    ("serialization.write_json", lambda a, k, out: _file_bytes(a, k)),
    ("serialization.load_config", lambda a, k, out: _file_bytes(a, k)),
]


def _rebind(original, replacement) -> None:
    """Point every impurityprobe module attribute bound to `original` at
    `replacement`."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("impurityprobe"):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap every layer function, and scipy's least_squares inside fitting.

    A layer the package no longer has is skipped; the traced run then
    reports that it recorded no span of it.
    """
    import importlib
    import impurityprobe.cli  # noqa: F401  (loads every module of the package)
    for name, attrs in LAYERS:
        module, func = name.rsplit(".", 1)
        original = getattr(importlib.import_module(f"impurityprobe.{module}"), func, None)
        if original is not None:
            _rebind(original, tracer.wrap(name, original, attrs))
    lsq = getattr(importlib.import_module("impurityprobe.fitting"), "least_squares", None)
    if lsq is not None:
        _rebind(lsq, tracer.note(lsq, _lsq_attrs))


def load_spans(path, op, into: list) -> None:
    """Append spans that a traced child process dumped, re-indexing parents."""
    with open(path) as fh:
        spans = json.load(fh)
    base = len(into)
    for name, _, parent, start, end, attrs in spans:
        into.append([name, op, None if parent is None else base + parent,
                     start, end, attrs])


def summarize(spans: list) -> dict:
    """Per span name: calls, self time (duration minus direct children) and
    summed attributes.  Also the derived ramsey.trig_evals."""
    child_time = [0.0] * len(spans)
    child_nodes = [0] * len(spans)
    for name, _, parent, start, end, attrs in spans:
        if parent is not None:
            child_time[parent] += end - start
            if name == "ramsey.detuning_nodes":
                child_nodes[parent] += attrs.get("nodes", 0)
    out = {}
    trig = 0
    for i, (name, _, _, start, end, attrs) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += (end - start) - child_time[i]
        for key, value in attrs.items():
            row[key] = row.get(key, 0) + value
        if name == "ramsey.population_grid":
            # cos and sin of every node at every time, from array sizes
            trig += 2 * attrs.get("nt", 0) * child_nodes[i]
    out["ramsey.trig_evals"] = trig
    return out
