"""Span tracing of fedfusion's layers from outside the package.

Each traced function is replaced, in every fedfusion module namespace that
binds it, by one wrapper that records a span (name, start, end, parent) and
the function's work counters. Spans of one run share a run id, are kept in
memory and are written out by `Tracer.save` when the run ends. A function
that does not exist at the traced commit is reported as absent.
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys
import time
from array import array

import numpy as np

# functions timed with a span, as "<module>.<name>"
SPANS = (
    "flcore.run_training",
    "flcore.client_local_update",
    "flcore.feddf_fuse",
    "flcore.ensemble_logits",
    "flcore.top1_accuracy",
    "models.forward_cached",
    "models.predict_logits",
    "models.average_params",
    "numerics.grad",
    "numerics.opt_step",
    "numerics.softmax",
    "data.sample_distill_batch",
    "data.make_gaussian_blobs",
    "data.split_train_val",
    "data.dirichlet_partition",
    "harness.run_experiment",
    "harness.load_experiment_config",
    "harness.build_seed_data",
    "harness.centralized_reference",
    "harness.write_metrics",
    "harness.save_boundary_grid",
    "bound.make_bound_instance",
    "bound.check_bound",
    "bound.erm",
    "cli.main",
)
# functions only counted: they are called too often for a span each
COUNTED = ("models.layer_slices",)
COUNTED_PROPERTIES = ("models.Prototype.n_params",)


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.absent: list[str] = []
        self._fusion: list[tuple[tuple, np.ndarray]] | None = None
        self._undo: list[tuple[object, str, object]] = []

    # --- installation -------------------------------------------------------

    def install(self) -> None:
        layers = {}
        for qual in SPANS + COUNTED + COUNTED_PROPERTIES:
            layer = qual.split(".")[0]
            try:
                layers[layer] = importlib.import_module(f"fedfusion.{layer}")
            except ModuleNotFoundError:
                layers[layer] = None
        mods = [m for n, m in list(sys.modules.items()) if n == "fedfusion" or n.startswith("fedfusion.")]
        for qual in SPANS + COUNTED:
            layer, name = qual.split(".")
            fn = getattr(layers[layer], name, None)
            if not callable(fn):
                self.absent.append(qual)
                continue
            wrapper = self._span_wrapper(qual, fn) if qual in SPANS else self._count_wrapper(qual, fn)
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._undo.append((mod, attr, value))
                        setattr(mod, attr, wrapper)
        for qual in COUNTED_PROPERTIES:
            layer, cls_name, attr = qual.split(".")
            cls = getattr(layers[layer], cls_name, None)
            prop = inspect.getattr_static(cls, attr, None) if cls is not None else None
            if not isinstance(prop, property):
                self.absent.append(qual)
                continue
            self._undo.append((cls, attr, prop))
            setattr(cls, attr, property(self._count_wrapper(qual, prop.fget)))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def _count_wrapper(self, qual: str, fn):
        counters = self.counters
        key = qual + ".calls"
        counters[key] = 0

        def counted(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _span_wrapper(self, qual: str, fn):
        nid = len(self.names)
        self.names.append(qual)
        names, parents, starts, ends, stack = (
            self.span_name, self.span_parent, self.span_start, self.span_end, self._stack
        )
        on_enter, on_exit = self._hooks(qual, fn)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            if on_enter is not None:
                on_enter(args, kwargs)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_exit is not None:
                on_exit(args, kwargs, out)
            return out

        return traced

    # --- work counters ------------------------------------------------------

    def _hooks(self, qual: str, fn):
        c = self.counters
        sig = inspect.signature(fn)
        position = {p: i for i, p in enumerate(sig.parameters)}

        def arg(args, kwargs, name):
            i = position[name]
            return args[i] if i < len(args) else kwargs[name]

        def add(key, value):
            c[key] = c.get(key, 0) + value

        if qual == "flcore.client_local_update":
            c[qual + ".steps"] = 0
            c[qual + ".examples"] = 0

            def local_exit(args, kwargs, out):
                rows = len(arg(args, kwargs, "shard"))
                epochs = arg(args, kwargs, "epochs")
                add(qual + ".steps", epochs * -(-rows // arg(args, kwargs, "batch_size")))
                add(qual + ".examples", epochs * rows)

            return None, local_exit
        if qual == "flcore.feddf_fuse":
            c[qual + ".steps"] = 0
            c[qual + ".rows"] = 0
            c["flcore.ensemble_logits.fusion_rows"] = 0
            c["flcore.ensemble_logits.distinct_pairs"] = 0

            def fuse_enter(args, kwargs):
                self._fusion = []

            def fuse_exit(args, kwargs, out):
                steps = int(out[1])
                add(qual + ".steps", steps)
                add(qual + ".rows", steps * arg(args, kwargs, "cfg").pool.batch_size)
                # a fusion keeps its teacher list fixed, so distinct (teacher, row)
                # pairs are the distinct rows per teacher list times its length
                by_teachers: dict[tuple, list[np.ndarray]] = {}
                for teacher_ids, rows in self._fusion:
                    by_teachers.setdefault(teacher_ids, []).append(rows)
                for teacher_ids, rows in by_teachers.items():
                    stacked = np.ascontiguousarray(np.concatenate(rows))
                    as_bytes = stacked.view(np.dtype((np.void, stacked.dtype.itemsize * stacked.shape[1])))
                    add("flcore.ensemble_logits.distinct_pairs", len(teacher_ids) * len(np.unique(as_bytes)))
                self._fusion = None

            return fuse_enter, fuse_exit
        if qual == "flcore.ensemble_logits":
            c[qual + ".teacher_rows"] = 0

            def ens_exit(args, kwargs, out):
                teachers = arg(args, kwargs, "teachers")
                inputs = np.asarray(arg(args, kwargs, "inputs"))
                add(qual + ".teacher_rows", len(teachers) * inputs.shape[0])
                if self._fusion is not None:
                    add(qual + ".fusion_rows", len(teachers) * inputs.shape[0])
                    self._fusion.append((tuple(id(t) for t in teachers), inputs.copy()))

            return None, ens_exit
        if qual == "flcore.top1_accuracy":
            c[qual + ".rows"] = 0
            return None, lambda args, kwargs, out: add(qual + ".rows", len(arg(args, kwargs, "dataset")))
        if qual == "models.forward_cached":
            c[qual + ".rows"] = 0
            return None, lambda args, kwargs, out: add(
                qual + ".rows", np.shape(arg(args, kwargs, "inputs"))[0]
            )
        if qual == "harness.save_boundary_grid":
            c[qual + ".bytes"] = 0
            return None, lambda args, kwargs, out: add(
                qual + ".bytes", os.path.getsize(arg(args, kwargs, "path"))
            )
        return None, None

    # --- results ------------------------------------------------------------

    def summary(self) -> dict:
        """calls, busy_s and self_s per span name, plus the raw counters."""
        name = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = np.frombuffer(self.span_end) - np.frombuffer(self.span_start)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        out = {}
        for nid, qual in enumerate(self.names):
            sel = name == nid
            out[qual] = dict(
                calls=int(sel.sum()),
                busy_s=float(dur[sel].sum()),
                self_s=float((dur[sel] - child[sel]).sum()),
            )
        return dict(spans=out, counters=dict(self.counters), absent=list(self.absent))

    def save(self, path) -> None:
        np.savez(
            path,
            run_id=np.array(self.run_id),
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start),
            end=np.frombuffer(self.span_end),
        )
