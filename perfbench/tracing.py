"""Spans around every call into blocktri's public functions, taken from outside.

``Tracer.active`` replaces each public function of the eight modules at every
``blocktri.*`` module attribute bound to it (``blocktri.maps.inverse`` and
``blocktri.linalg.inverse`` are separate import sites of one function), and
swaps the ``GALLERY`` specs for copies with wrapped evaluators, whose calls
no attribute patch can reach. On exit everything is restored, so untraced ops
run the unmodified code. Spans live in flat in-memory arrays (name, start,
end, parent, op, status, note) and are written out once, at the end.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import os
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

MODULES = ("linalg", "algebra", "maps", "preservers", "canonical", "gallery", "documents", "cli")
CHECKERS = (
    "preservers.check_char_poly_preserving",
    "preservers.check_spectrum_shrinking",
    "preservers.check_commutativity_preserving",
    "preservers.check_multiplicity_preserving",
)
SIZED = ("linalg.eigenvalues", "linalg.inverse", "linalg.char_poly", "linalg.spectral_norm")
STATUS_OK, STATUS_DOCUMENTED_ERROR, STATUS_OTHER_ERROR = 0, 1, 2


def _digest(x) -> int:
    return hash(np.ascontiguousarray(x).tobytes())


# What a span notes besides its times, by function: (name_of, note) hooks.
#   name_of(args, kwargs) -> span name suffix, chosen before the call
#   note(args, kwargs, result) -> int stored with the span
HOOKS = {
    "maps.apply": (None, lambda args, kwargs, result: _digest(args[1])),
    "documents.load_json": (None, lambda args, kwargs, result: os.path.getsize(args[0])),
    "documents.canonical_json": (None, lambda args, kwargs, result: len(result.encode())),
    "cli.main": (lambda args, kwargs: (args[0] if args else kwargs["argv"])[0], lambda args, kwargs, result: result),
    "gallery.run_gallery_suite": (lambda args, kwargs: args[0] if args else kwargs["name"], None),
}
for _name in SIZED:
    HOOKS[_name] = (None, lambda args, kwargs, result: len(args[0]))
EVALUATOR_HOOKS = (None, lambda args, kwargs, result: _digest(args[0]))


class Tracer:
    def __init__(self, bt):
        self.bt = bt
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.status = array("b")
        self.note = array("q")
        self._cur = [-1]
        self._op = [-1]
        self._patches = self._plan()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str):
        name_of, note = EVALUATOR_HOOKS if name.startswith("gallery.evaluator.") else HOOKS.get(name, (None, None))
        fixed_id = self.name_id(name)
        documented = self.bt.BlockTriError
        names, starts, ends, parents, ops = self.name.append, self.start.append, self.end, self.parent, self.op.append
        status, notes, cur, op, clock = self.status, self.note, self._cur, self._op, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(ends)
            names(fixed_id if name_of is None else self.name_id(f"{name}.{name_of(args, kwargs)}"))
            parents.append(cur[0])
            ops(op[0])
            ends.append(0.0)
            status.append(STATUS_OK)
            notes.append(-1)
            cur[0] = sid
            starts(clock())
            try:
                result = fn(*args, **kwargs)
            except documented:
                status[sid] = STATUS_DOCUMENTED_ERROR
                raise
            except BaseException:
                status[sid] = STATUS_OTHER_ERROR
                raise
            finally:
                ends[sid] = clock()
                cur[0] = parents[sid]
            if note is not None:
                notes[sid] = note(args, kwargs, result)
            return result

        return traced

    def _plan(self) -> list:
        """(module, attribute, original, wrapper) for every import site."""
        wrappers = {}
        for short in MODULES:
            module = sys.modules[f"{self.bt.__name__}.{short}"]
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                    wrappers[id(obj)] = (obj, self.wrap(obj, f"{short}.{attr}"))
        plan = []
        for modname, module in list(sys.modules.items()):
            if modname != self.bt.__name__ and not modname.startswith(self.bt.__name__ + "."):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    plan.append((module, attr, obj, wrappers[id(obj)][1]))
        return plan

    @contextmanager
    def active(self, op_id: int):
        gallery = self.bt.GALLERY
        specs = dict(gallery)
        self._op[0] = op_id
        try:
            for module, attr, _, wrapper in self._patches:
                setattr(module, attr, wrapper)
            for name, spec in specs.items():
                evaluator = self.wrap(spec.evaluator, f"gallery.evaluator.{name}")
                gallery[name] = dataclasses.replace(spec, evaluator=evaluator)
            yield
        finally:
            for module, attr, original, _ in self._patches:
                setattr(module, attr, original)
            gallery.update(specs)
            self._op[0] = -1

    def arrays(self) -> dict:
        fields = ("name", "start", "end", "parent", "op", "status", "note")
        return {f: np.array(getattr(self, f)) for f in fields}  # copies: the arrays keep growing

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


class SpanStats:
    """Per-layer statistics over the spans of ``ops`` traced ops."""

    def __init__(self, tracer: Tracer, ops: int, op_wall_s: float):
        a = tracer.arrays()
        self.names = tracer.names
        self.ops = max(ops, 1)
        self.op_wall_s = op_wall_s
        self.name, self.parent, self.note, self.status = a["name"], a["parent"], a["note"], a["status"]
        self.dur = a["end"] - a["start"]
        inner = self.parent >= 0
        children = np.bincount(self.parent[inner], weights=self.dur[inner], minlength=self.dur.size)
        self.self_time = self.dur - children
        module_of = np.array([n.split(".")[0] for n in self.names] + [""])
        self.module = module_of[self.name]

    def ids(self, span: str) -> np.ndarray:
        """Span indices of one function (or of a function suffixed by a subname)."""
        if span not in self.names:
            return np.zeros(0, dtype=np.intp)
        return np.flatnonzero(self.name == self.names.index(span))

    def outermost(self, idx: np.ndarray) -> np.ndarray:
        """Drop spans nested inside a span of the same name (recursion)."""
        keep = []
        for s in idx:
            p = self.parent[s]
            while p >= 0 and self.name[p] != self.name[s]:
                p = self.parent[p]
            keep.append(p < 0)
        return idx[np.array(keep, dtype=bool)] if len(idx) else idx

    def nearest(self, idx: np.ndarray, targets: set) -> np.ndarray:
        """For each span, its nearest ancestor whose name id is in ``targets`` (-1 if none)."""
        out = np.full(len(idx), -1)
        for k, s in enumerate(idx):
            p = self.parent[s]
            while p >= 0 and int(self.name[p]) not in targets:
                p = self.parent[p]
            out[k] = p
        return out

    @functools.cached_property
    def evaluator_calls(self) -> tuple[np.ndarray, np.ndarray]:
        """Evaluator spans (apply and gallery evaluators) and their checker span."""
        evals = np.flatnonzero(
            np.isin(self.name, [k for k, n in enumerate(self.names) if n == "maps.apply" or n.startswith("gallery.evaluator.")])
        )
        checker_ids = {self.names.index(c) for c in CHECKERS if c in self.names}
        return evals, self.nearest(evals, checker_ids)

    def metric(self, metric: str) -> float:
        """Evaluate one per-layer metric named ``<span>.<stat>``, per traced op."""
        per_op = 1.0 / self.ops
        if metric == "trace.span_cover_frac":
            return float(self.dur[self.parent < 0].sum() / self.op_wall_s) if self.op_wall_s else 0.0
        if metric in ("documents.bytes_in", "documents.bytes_out"):
            span = "documents.load_json" if metric.endswith("in") else "documents.canonical_json"
            return float(self.note[self.ids(span)].sum() * per_op)
        if metric.startswith("cli.exit_code."):
            code = int(metric.rsplit(".", 1)[1])
            mains = np.isin(self.name, [k for k, n in enumerate(self.names) if n.startswith("cli.main.")])
            return float(np.count_nonzero(mains & (self.note == code)) * per_op)
        if ".us_per_call.n" in metric:
            span, n = metric.split(".us_per_call.n")
            idx = self.ids(span)
            idx = idx[self.note[idx] == int(n)]
            return float(self.dur[idx].mean() * 1e6) if len(idx) else 0.0
        span, stat = metric.rsplit(".", 1)
        if span in MODULES and stat == "self_ms":
            return float(self.self_time[self.module == span].sum() * 1e3 * per_op)
        if stat == "distinct_eval_frac" or stat == "evals":
            evals, owner = self.evaluator_calls
            mine = np.isin(owner, self.ids(span))
            if stat == "evals":
                return float(np.count_nonzero(mine) * per_op)
            distinct = sum(len(set(self.note[evals[mine & (owner == c)]].tolist())) for c in self.ids(span))
            return float(distinct / np.count_nonzero(mine)) if np.any(mine) else 0.0
        idx = self.ids(span)
        if stat == "calls":
            return float(len(idx) * per_op)
        if stat == "self_ms":
            return float(self.self_time[idx].sum() * 1e3 * per_op)
        if stat == "busy_ms":
            return float(self.dur[self.outermost(idx)].sum() * 1e3 * per_op)
        if stat == "rejected":
            return float(np.count_nonzero(self.status[idx] == STATUS_DOCUMENTED_ERROR) * per_op)
        raise KeyError(f"no rule computes the per-layer metric {metric!r}")
