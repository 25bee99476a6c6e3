"""Outside-in tracing of lerchzeta's modules.

``Tracer.install`` wraps every public function of each layer module in a
timing wrapper and rebinds every name in every loaded ``lerchzeta`` module
that refers to the same function object.  Rebinding all names matters:
``afe``, ``cli``, ``funceq`` and ``meansquare`` import ``lerch_via_hurwitz``
and ``gamma_phase_product`` by name (``funceq`` as ``_gpp``), so patching
the defining module alone would miss their calls.

Spans live in flat arrays (one entry per call: layer, parent span, start,
end) and are summarised, and optionally written, after the job.  A layer's
self time is its spans' durations minus the durations of their direct
child spans.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from array import array
from itertools import count

import numpy as np

from lerchzeta.params import EvalResult

LAYERS = ("gammafns", "oracles", "afe", "meansquare", "funceq", "cli")


class Tracer:
    def __init__(self):
        self.ids = array("q")
        self.parents = array("q")
        self.layers = array("b")
        self.starts = array("d")
        self.ends = array("d")
        # (span id, main_terms, dual_terms, reliable) for EvalResult returns
        self.evals: list[tuple[int, int, int, bool]] = []
        self._stack = [-1]
        self._next = count()
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, layer: int):
        ids, parents, layers = self.ids, self.parents, self.layers
        starts, ends, evals = self.starts, self.ends, self.evals
        stack, next_id, clock = self._stack, self._next, time.perf_counter

        def traced(*args, **kwargs):
            sid = next(next_id)
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                ids.append(sid)
                parents.append(parent)
                layers.append(layer)
                starts.append(t0)
                ends.append(t1)
            if type(result) is EvalResult:
                evals.append((sid, result.main_terms, result.dual_terms,
                              result.reliable))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [importlib.import_module(f"lerchzeta.{name}") for name in LAYERS]
        loaded = [m for name, m in list(sys.modules.items())
                  if name == "lerchzeta" or name.startswith("lerchzeta.")]
        for layer, module in enumerate(modules):
            for attr in module.__all__:
                fn = getattr(module, attr)
                if not (inspect.isfunction(fn)
                        and fn.__module__ == module.__name__):
                    continue
                wrapper = self._wrap(fn, layer)
                for m in loaded:
                    for key, value in list(vars(m).items()):
                        if value is fn:
                            self._patched.append((m, key, fn))
                            setattr(m, key, wrapper)

    def uninstall(self) -> None:
        for module, key, fn in reversed(self._patched):
            setattr(module, key, fn)
        self._patched.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        """Spans in id order: parent position (-1 for a root), layer, start,
        end."""
        order = np.argsort(np.frombuffer(self.ids, dtype=np.int64), kind="stable")
        return {"parent": np.frombuffer(self.parents, dtype=np.int64)[order],
                "layer": np.frombuffer(self.layers, dtype=np.int8)[order],
                "start": np.frombuffer(self.starts)[order],
                "end": np.frombuffer(self.ends)[order]}

    def save(self, path: str) -> None:
        np.savez(path, layer_names=np.array(LAYERS), **self.arrays())

    def summary(self, wall_s: float) -> dict:
        """Per-layer totals for one traced job of wall time ``wall_s``.

        ``calls`` counts evaluations: spans returning an EvalResult (every
        span for gammafns, whose functions return numbers or LogComplex),
        leaving out those nested inside another evaluation of the same layer.
        ``main_terms``, ``dual_terms`` and ``reliable`` sum those calls'
        EvalResult fields, and the percentiles are of their durations.
        ``span_s`` is the time inside the layer's entry spans (calls into it
        from outside it); ``bench_self_s`` is the part of ``wall_s`` outside
        every span.
        """
        s = self.arrays()
        parent, layer = s["parent"], s["layer"]
        dur = s["end"] - s["start"]
        n = len(dur)
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_t = dur - child

        main = np.zeros(n, dtype=np.int64)
        dual = np.zeros(n, dtype=np.int64)
        reliable = np.zeros(n, dtype=bool)
        is_eval = layer == LAYERS.index("gammafns")
        if self.evals:
            ev = np.array(self.evals, dtype=np.int64)
            main[ev[:, 0]], dual[ev[:, 0]] = ev[:, 1], ev[:, 2]
            reliable[ev[:, 0]] = ev[:, 3].astype(bool)
            is_eval[ev[:, 0]] = True
        nested = np.zeros(n, dtype=bool)
        anc = parent.copy()
        while (anc >= 0).any():
            up = anc >= 0
            a = anc[up]
            nested[up] |= (layer[a] == layer[up]) & is_eval[a]
            anc[up] = parent[a]
        is_call = is_eval & ~nested

        # entry spans: calls into a layer from outside it
        entry = layer != np.where(has_parent, layer[np.maximum(parent, 0)], -1)
        out = {"wall_s": wall_s,
               "bench_self_s": wall_s - float(dur[~has_parent].sum())}
        for i, name in enumerate(LAYERS):
            mine = layer == i
            calls = mine & is_call
            call_us = dur[calls] * 1e6
            out[name] = {
                "self_s": float(self_t[mine].sum()),
                "span_s": float(dur[mine & entry].sum()),
                "calls": int(calls.sum()),
                "main_terms": int(main[calls].sum()),
                "dual_terms": int(dual[calls].sum()),
                "reliable": int(reliable[calls].sum()),
                "call_us_p50": float(np.percentile(call_us, 50)) if len(call_us) else 0.0,
                "call_us_p99": float(np.percentile(call_us, 99)) if len(call_us) else 0.0,
            }
        return out
