"""Outside-in tracing of the ccslab layers.

Nothing inside ``src/`` records spans.  ``Tracer.install`` wraps, from the
outside, every public function defined in each layer module, constructor
validation (``__post_init__``) of the core classes, and ``EventPair.products``.
``from .core import is_ccs`` copies a binding into other modules, so every
module global bound to a wrapped function is patched, not just the defining
one.  ``uninstall`` restores the originals.

Spans are kept in memory as parallel arrays (name id, start, end, parent,
op id) and written out with ``save``.  A span's self time is its duration
minus the durations of its direct children; calls are single-threaded and
nested, so the children never overlap.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

LAYERS = (
    "core", "twoqubit", "families", "solver", "sampling",
    "classify", "propositions", "goldentable", "serialize", "cli",
)
VALIDATED_CLASSES = ("Tolerance", "ProjectionEvent", "Partition", "DensityState", "PureState", "EventPair")


def layer_modules() -> dict:
    # through sys.modules: the package attribute ``ccslab.classify`` is the function
    return {name: sys.modules[f"ccslab.{name}"] for name in LAYERS}


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.kind = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.op = array("l")
        self.current_op = [0]
        self._stack = [-1]
        self._patches = []
        self._seen = set()  # distinct is_ccs triples of the current op
        self.distinct_triples = 0

    # -- recording ---------------------------------------------------------

    def begin_op(self, op_id: int):
        self.current_op[0] = op_id
        self._seen.clear()

    def clear(self):
        for arr in (self.kind, self.start, self.end, self.parent, self.op):
            del arr[:]
        self._seen.clear()
        self.distinct_triples = 0

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, name: str, fn, on_return=None):
        nid = self._name_id(name)
        kind, start, end, parent, ops = self.kind, self.start, self.end, self.parent, self.op
        stack, current_op, clock = self._stack, self.current_op, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(kind)
            kind.append(nid)
            start.append(0)
            end.append(0)
            parent.append(stack[-1])
            ops.append(current_op[0])
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()
                if on_return is not None:
                    on_return(args, kwargs)

        return functools.update_wrapper(wrapper, fn)

    def _count_triple(self, args, kwargs):
        """Record whether this is_ccs(state, partition, pair, ...) triple is new within the op."""
        state, partition, pair = args[:3] + tuple(kwargs[k] for k in ("state", "partition", "pair")[len(args):3])
        rho = getattr(state, "rho", None)
        matrix = rho if rho is not None else state.psi
        key = hash((
            matrix.tobytes(),
            tuple(e.op.tobytes() for e in partition.elements),
            pair.a.op.tobytes(),
            pair.b.op.tobytes(),
        ))
        if key not in self._seen:
            self._seen.add(key)
            self.distinct_triples += 1

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr: str, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self):
        import ccslab

        mods = layer_modules()
        core = mods["core"]
        wrapped = {}
        for layer, mod in mods.items():
            for name, obj in vars(mod).items():
                if (
                    name.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__
                    or inspect.isgeneratorfunction(obj)
                ):
                    continue
                hook = self._count_triple if obj is core.is_ccs else None
                wrapped[obj] = self._wrap(f"{layer}.{name}", obj, hook)
        for mod in (ccslab, *mods.values()):
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(mod, name, wrapped[obj])
        for cls_name in VALIDATED_CLASSES:
            cls = getattr(core, cls_name)
            self._patch(cls, "__post_init__", self._wrap("core.validate", vars(cls)["__post_init__"]))
        pair_cls = core.EventPair
        self._patch(pair_cls, "products", self._wrap("core.EventPair.products", vars(pair_cls)["products"]))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> tuple:
        """({span name: self seconds}, {span name: calls})."""
        n = len(self.kind)
        child = [0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        self_ns = [0] * len(self.names)
        calls = [0] * len(self.names)
        for i in range(n):
            k = self.kind[i]
            self_ns[k] += end[i] - start[i] - child[i]
            calls[k] += 1
        return (
            {name: self_ns[k] / 1e9 for k, name in enumerate(self.names)},
            {name: calls[k] for k, name in enumerate(self.names)},
        )

    def save(self, path: str):
        """Write the spans as a compressed numpy archive (one array per field)."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.kind, dtype=np.uint16),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            op=np.frombuffer(self.op, dtype=np.int64),
        )


def layer_metrics(tracer: Tracer, ops: int, nbytes: int) -> dict:
    """Per-layer metrics of one traced batch of ``ops`` ops."""
    self_s, calls = tracer.self_times()

    def s(name):
        return self_s.get(name, 0.0)

    def c(name):
        return calls.get(name, 0)

    out = {}
    for layer in LAYERS:
        prefix = layer + "."
        out[f"{layer}.self_s"] = sum(v for k, v in self_s.items() if k.startswith(prefix))
        out[f"{layer}.calls"] = sum(v for k, v in calls.items() if k.startswith(prefix))
    is_ccs_calls = c("core.is_ccs")
    out.update({
        "core.is_ccs.self_s": s("core.is_ccs"),
        "core.is_ccs.per_op": is_ccs_calls / ops,
        "core.is_ccs.distinct_ratio": tracer.distinct_triples / is_ccs_calls if is_ccs_calls else 0.0,
        "core.conditional_correlation.self_s": s("core.conditional_correlation"),
        "core.EventPair.products.calls": c("core.EventPair.products"),
        "core.EventPair.products.per_op": c("core.EventPair.products") / ops,
        "core.validate.self_s": s("core.validate"),
        "core.validate.calls": c("core.validate"),
        "sampling.rng_for.self_s": s("sampling.rng_for"),
        "sampling.rng_for.calls": c("sampling.rng_for"),
        "sampling.draw.self_s": out["sampling.self_s"] - s("sampling.rng_for"),
        "classify.classify.self_s": s("classify.classify"),
        "classify.certify_triviality.self_s": s("classify.certify_triviality"),
        "propositions.check_proposition.self_s": s("propositions.check_proposition"),
        "serialize.emit_document.self_s": s("serialize.emit_document"),
        "serialize.parse_document.self_s": s("serialize.parse_document"),
        "serialize.bytes_per_op": nbytes / ops,
        "trace.spans": len(tracer.kind),
    })
    return out
