"""Per-layer tracing from outside the package.

The layers are the ``cuspidor`` modules.  ``Tracer.install`` wraps every
public function and public method of each layer (plus the arithmetic dunders
and ``__init__``), rebinds each wrapped module-level function in every
``cuspidor`` module that imported it by name, and replaces each method on its
class, so every call made through those names is seen.

Each wrapped call is a span (layer, start, end, parent).  Self time is the
span's duration minus the time covered by its child spans; it is accumulated
per layer on a stack as the spans close.  A call is counted in
``<layer>.calls`` when it enters the layer from another layer or from the
benchmark, i.e. at a layer boundary.  The named counters below count every
call of their function, boundary or not.  Spans that start directly below an
item span (the benchmark calling into a layer) are also kept in memory and
written out at the end; deeper spans are aggregated only, since the hot
arithmetic makes millions of them.

Tracing is off except between ``begin_item`` and ``end_item``, so set-up and
output checks are not counted.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time

LAYERS = ("exactcore", "cyclotomic", "ffield", "rootdata", "torus",
          "charformula", "clifford", "dixon", "centralizer", "cocycle",
          "fixture_gen", "cli")

# dunders that do arithmetic or construction; comparison and hashing are
# left alone (they run inside every dict lookup and would only add noise)
_DUNDERS = {"__init__", "__call__", "__add__", "__radd__", "__sub__",
            "__rsub__", "__mul__", "__rmul__", "__neg__", "__pow__",
            "__truediv__"}

# (layer, qualified name) -> counter name; counts every call
COUNTERS = {
    ("exactcore", "Mat.__pow__"): "exactcore.mat_pow_calls",
    ("exactcore", "FinAb.project"): "exactcore.project_calls",
    ("exactcore", "smith_normal_form"): "exactcore.snf_calls",
    ("torus", "is_nonsingular"): "torus.nonsingular_calls",
    ("cyclotomic", "Cyc.__mul__"): "cyclotomic.mul_calls",
    ("cyclotomic", "Cyc.__rmul__"): "cyclotomic.mul_calls",
    ("cyclotomic", "Cyc.__add__"): "cyclotomic.add_calls",
    ("cyclotomic", "Cyc.__radd__"): "cyclotomic.add_calls",
    ("cyclotomic", "Cyc.promote"): "cyclotomic.promote_calls",
    ("ffield", "FiniteField.__init__"): "ffield.field_builds",
    ("charformula", "mod_a_data"): "charformula.mod_a_calls",
    ("clifford", "ConcreteGroup.mul"): "clifford.group_mul_calls",
    ("dixon", "brute_force_census"): "dixon.tables_built",
}


def _key_mat_pow(args, kwargs):
    return (args[0], args[1])


def _key_nonsingular(args, kwargs):
    theta = args[0]
    sub = args[1] if len(args) > 1 else kwargs.get("subsystem")
    return (id(theta.torus), theta.values,
            None if sub is None else tuple(map(tuple, sub)))


def _key_field(args, kwargs):
    p = args[1]
    m = args[2] if len(args) > 2 else kwargs.get("m", 1)
    return (p, m)


# counter name -> (share metric name, argument key); share = distinct / calls
DISTINCT = {
    "exactcore.mat_pow_calls": ("exactcore.mat_pow_distinct_share",
                                _key_mat_pow),
    "torus.nonsingular_calls": ("torus.nonsingular_distinct_share",
                                _key_nonsingular),
    "ffield.field_builds": ("ffield.distinct_field_share", _key_field),
}

# the root-span cap keeps the written trace bounded on long runs
MAX_KEPT_SPANS = 200_000


class Tracer:
    def __init__(self):
        self.active = False
        self.stack = []            # open frames: [layer, start, child_time]
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.calls = {layer: 0 for layer in LAYERS}
        self.counts = {name: 0 for name in set(COUNTERS.values())}
        self.seen = {name: set() for name in DISTINCT}
        self.spans = []            # (name, start, end, parent span index)
        self.dropped_spans = 0
        self._item_span = None

    # -- item boundaries ---------------------------------------------------

    def begin_item(self, name):
        self._item_span = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, None])
        self.stack.append(["bench", 0.0, 0.0])
        self.active = True

    def end_item(self):
        self.active = False
        self.stack.pop()
        self.spans[self._item_span][2] = time.perf_counter()

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn, layer, qualname):
        counter = COUNTERS.get((layer, qualname))
        share = DISTINCT.get(counter)
        seen = self.seen[counter] if share else None
        keyf = share[1] if share else None
        counts = self.counts
        self_s = self.self_s
        calls = self.calls
        stack = self.stack
        spans = self.spans
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if counter is not None:
                counts[counter] += 1
                if seen is not None:
                    seen.add(keyf(args, kwargs))
            parent_layer = stack[-1][0]
            if parent_layer != layer:
                calls[layer] += 1
            root = len(stack) == 1
            frame = [layer, 0.0, 0.0]
            stack.append(frame)
            start = clock()
            frame[1] = start
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                self_s[layer] += dur - frame[2]
                stack[-1][2] += dur
                if root:
                    if len(spans) < MAX_KEPT_SPANS:
                        spans.append([f"{layer}.{qualname}", start, end,
                                      tracer._item_span])
                    else:
                        tracer.dropped_spans += 1

        return traced

    def install(self):
        """Wrap every layer's public surface; returns self."""
        modules = {layer: importlib.import_module(f"cuspidor.{layer}")
                   for layer in LAYERS}
        replaced = {}              # original function -> wrapper
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    replaced[obj] = self._wrap(obj, layer, name)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(obj, layer)
        # rebind by name wherever a wrapped function was imported
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("cuspidor"):
                continue
            for name, obj in list(vars(mod).items()):
                wrapper = replaced.get(obj) if inspect.isfunction(obj) else None
                if wrapper is not None:
                    setattr(mod, name, wrapper)
        return self

    def _wrap_class(self, cls, layer):
        for name, raw in list(vars(cls).items()):
            if name.startswith("_") and name not in _DUNDERS:
                continue
            qualname = f"{cls.__name__}.{name}"
            if isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(raw.__func__, layer, qualname))
            elif isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, layer, qualname))
            elif inspect.isfunction(raw):
                new = self._wrap(raw, layer, qualname)
            else:
                continue
            setattr(cls, name, new)

    # -- results -------------------------------------------------------------

    def metrics(self):
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (self.self_s[layer], "s")
            out[f"{layer}.calls"] = (self.calls[layer], "count")
        for name, value in sorted(self.counts.items()):
            out[name] = (value, "count")
        for counter, (share_name, _) in DISTINCT.items():
            calls = self.counts[counter]
            # no calls: nothing was recomputed either, reported as 0
            share = len(self.seen[counter]) / calls if calls else 0.0
            out[share_name] = (share, "ratio")
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
            if self.dropped_spans:
                fh.write(json.dumps({"dropped_spans": self.dropped_spans})
                         + "\n")
