"""Per-layer tracing of gwass, applied from outside the library.

The tracer wraps a fixed list of library entry points.  Installing it
re-binds every name under which a ``gwass`` module holds one of those
functions (``gwass.gw.canonicalize`` and ``gwass.dynamics.gw_distance`` as
well as the defining modules), so calls made inside the library are seen
too.  Each call becomes a span: entry point, parent span, start, end,
whether it raised, and the work counts read off its arguments and result.
Spans stay in memory; self time and the per-layer metrics are computed
from them after the run, and :meth:`Tracer.write` dumps them as JSON lines.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time

import numpy as np

#: Marks a wrapper so that a leftover binding can be detected.
_MARK = "__perfbench_span__"


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _canonicalize_counts(args, kwargs, result):
    return {"atoms_in": _arg(args, kwargs, 0, "mu").n_atoms, "atoms_out": result.n_atoms}


def _line_counts(args, kwargs, result):
    src_pos = _arg(args, kwargs, 0, "src_pos")
    tgt_pos = _arg(args, kwargs, 2, "tgt_pos")
    nodes = np.unique(np.concatenate([src_pos, tgt_pos])).size
    # kept mass per atom plus a forward and a backward flux per gap
    return {"vars": src_pos.size + tgt_pos.size + 2 * (nodes - 1)}


def _partial_counts(args, kwargs, result):
    mask = _arg(args, kwargs, 3, "arc_mask")
    return {"arcs": int(np.count_nonzero(mask)), "cells": int(mask.size)}


def _parametric_counts(args, kwargs, result):
    return {"segments": len(result)}


def _flow_counts(args, kwargs, result):
    carrier = _arg(args, kwargs, 1, "carrier")
    t = _arg(args, kwargs, 3, "t")
    cfg = _arg(args, kwargs, 4, "cfg") or sys.modules["gwass.flows"].FlowConfig()
    if t == 0 or carrier.n_atoms == 0:
        return {"atom_steps": 0}
    # the RK4 step count flow_pushforward takes for time t
    steps = max(1, int(math.ceil(t / cfg.ode_step - 1e-12)))
    return {"atom_steps": carrier.n_atoms * steps}


def _trajectory_counts(args, kwargs, result):
    return {"final_atoms": result.snapshots[-1][1].n_atoms}


#: (module, function, work counter, the counts it returns).  ``lab`` and
#: ``cli`` only drive these and are not traced.
ENTRY_POINTS = (
    ("measures", "canonicalize", _canonicalize_counts, ("atoms_in", "atoms_out")),
    ("transport", "wasserstein", None, ()),
    ("gw", "gw_distance", None, ()),
    ("gw", "_assemble", None, ()),
    ("_minflow", "solve_line_partial_w1", _line_counts, ("vars",)),
    ("_minflow", "parametric_partial_transport", _parametric_counts, ("segments",)),
    ("_minflow", "solve_partial_transportation", _partial_counts, ("arcs", "cells")),
    ("_minflow", "solve_transportation", None, ()),
    ("_minflow", "_check_certificate", None, ()),
    ("_minflow", "monotone_coupling", None, ()),
    ("flows", "flow_pushforward", _flow_counts, ("atom_steps",)),
    ("dynamics", "sample_and_hold", _trajectory_counts, ("final_atoms",)),
    ("dynamics", "cauchy_table", None, ()),
)

#: Which solver path a gw_distance call took, keyed by the _minflow child it ran.
_PATH_OF_CHILD = {
    "_minflow.solve_line_partial_w1": "line_p1",
    "_minflow.solve_partial_transportation": "dense_p1",
    "_minflow.parametric_partial_transport": "parametric",
}
PATHS = ("single", "line_p1", "dense_p1", "parametric", "removal")


def metric_name(span_name: str) -> str:
    """Metric prefix of an entry point; metric names must start alphanumeric."""
    return span_name.lstrip("_")


class SelfCheckError(RuntimeError):
    """The tracer's own bookkeeping disagrees with the library's dispatch."""


class Tracer:
    """Wraps the entry points of an imported ``gwass`` and records spans."""

    def __init__(self):
        self.names = []
        self._targets = []          # (original, counter)
        self._count_keys = []
        for module, func, counter, keys in ENTRY_POINTS:
            self.names.append(f"{module}.{func}")
            self._targets.append((getattr(sys.modules[f"gwass.{module}"], func), counter))
            self._count_keys.append(keys)
        self._bindings = []         # (module object, attribute, original)
        # span: [name index, parent index, start, end, raised, counts]
        self.spans = []
        self._stack = []

    def _wrap(self, index, original, counter):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = [index, stack[-1] if stack else -1, clock(), 0.0, False, None]
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[3] = clock()
                stack.pop()
            if counter is not None:
                span[5] = counter(args, kwargs, result)
            return result

        setattr(wrapper, _MARK, True)
        return wrapper

    def _gwass_modules(self):
        return [mod for name, mod in list(sys.modules.items())
                if mod is not None and (name == "gwass" or name.startswith("gwass."))]

    def install(self):
        if self._bindings:
            raise SelfCheckError("tracer installed twice")
        by_original = {id(orig): self._wrap(i, orig, counter)
                       for i, (orig, counter) in enumerate(self._targets)}
        originals = {id(orig): orig for orig, _ in self._targets}
        for mod in self._gwass_modules():
            for attr, value in list(vars(mod).items()):
                if id(value) in originals and value is originals[id(value)]:
                    setattr(mod, attr, by_original[id(value)])
                    self._bindings.append((mod, attr, value))

    def uninstall(self):
        for mod, attr, original in self._bindings:
            setattr(mod, attr, original)
        self._bindings = []

    def assert_clean(self):
        """Raise unless no gwass module still holds a wrapper."""
        for mod in self._gwass_modules():
            for attr, value in vars(mod).items():
                if getattr(value, _MARK, False):
                    raise SelfCheckError(f"{mod.__name__}.{attr} is still wrapped")

    # --- analysis ---------------------------------------------------------

    def _children(self):
        kids = [[] for _ in self.spans]
        for k, span in enumerate(self.spans):
            if span[1] >= 0:
                kids[span[1]].append(k)
        return kids

    def solve_path(self, k, kids):
        """Solver path of gw_distance span ``k``, inferred from its children."""
        atoms_out = []
        for c in kids[k]:
            name = self.names[self.spans[c][0]]
            if name in _PATH_OF_CHILD:
                return _PATH_OF_CHILD[name]
            if name == "measures.canonicalize" and self.spans[c][5]:
                atoms_out.append(self.spans[c][5]["atoms_out"])
        if len(atoms_out) == 2 and min(atoms_out) > 0 and max(atoms_out) == 1:
            return "single"
        # an empty side, or a p=1 instance with no arc shorter than 2a/b
        return "removal"

    def metrics(self, batches: int) -> dict:
        """Per-layer metrics: totals over all spans divided by the number of
        traced batches, plus the ratios and path counts derived from them."""
        kids = self._children()
        totals = {}
        for name, keys in zip(self.names, self._count_keys):
            for key in ("calls", "busy_s", "self_s", "errors") + keys:
                totals[f"{metric_name(name)}.{key}"] = 0
        paths = dict.fromkeys(PATHS, 0)
        for k, (idx, _, start, end, raised, cnt) in enumerate(self.spans):
            name = self.names[idx]
            prefix = metric_name(name)
            dur = end - start
            totals[prefix + ".calls"] += 1
            totals[prefix + ".busy_s"] += dur
            totals[prefix + ".self_s"] += dur - sum(self.spans[c][3] - self.spans[c][2]
                                                    for c in kids[k])
            totals[prefix + ".errors"] += int(raised)
            for key, val in (cnt or {}).items():
                totals[f"{prefix}.{key}"] += val
            if name == "gw.gw_distance" and not raised:
                paths[self.solve_path(k, kids)] += 1
        for path, val in paths.items():
            totals[f"gw.path.{path}"] = val
        totals["trace.spans"] = len(self.spans)
        out = {key: val / batches for key, val in totals.items()}
        lp = "minflow.solve_partial_transportation"
        out[lp + ".arc_ratio"] = totals[lp + ".arcs"] / max(totals[lp + ".cells"], 1)
        flow = "flows.flow_pushforward"
        out[flow + ".ns_per_atom_step"] = 1e9 * totals[flow + ".busy_s"] / max(
            totals[flow + ".atom_steps"], 1)
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for k, (idx, parent, start, end, raised, cnt) in enumerate(self.spans):
                rec = {"id": k, "parent": parent, "name": self.names[idx],
                       "start": start, "end": end, "raised": raised}
                if cnt:
                    rec.update(cnt)
                fh.write(json.dumps(rec) + "\n")
