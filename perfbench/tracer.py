"""Runtime span tracer that wraps a program's public functions from outside.

The tracer never edits the program's files: :meth:`Tracer.patch_attr` and
:meth:`Tracer.patch_function` replace class and module attributes with
timing wrappers at run time, and :meth:`Tracer.uninstall` puts the originals
back, so traced and untraced passes can alternate in one process.  Which
functions belong to which layer is decided in ``layers.py``.

Two kinds of span wrapper:

* ``call`` — one span per call;
* ``gen`` — a DES generator timed per *resumption*: each ``send``/``throw``
  into the wrapped generator is one span, so simulated waiting never counts
  as host time.

Counters (:meth:`Tracer.cell`) need no clock reads; ``layers.py`` uses bare
counting wrappers for the hottest methods.

A span is (id, name, start, end, parent); its pass and unit (one campaign or
real-mode run) follow from the marks taken when they begin.  Self time is
computed online with integer nanoseconds: a span's self time is its duration
minus the summed durations of its direct children (children nest strictly,
so they never overlap).  The pass's root span is the benchmark itself; its
self time is the unattributed remainder, so the layer self times plus that
remainder equal the root span exactly.

Spans are kept in memory in one typed array and written once, at exit, by
:meth:`Tracer.save`.
"""

from __future__ import annotations

import itertools
import sys
from array import array
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional

ROOT = "root"

#: Columns of one span row in :attr:`Tracer.spans`.
COLUMNS = ("id", "name", "start_ns", "end_ns", "parent")


class Tracer:
    """Spans, per-layer self time and counters for traced passes."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.layer_of_name: List[int] = []
        self.layers: List[str] = []
        #: Closed spans, ``len(COLUMNS)`` integers per row, in closing order.
        self.spans = array("q")
        #: ``(first row, pass id)`` and ``(first row, unit id)`` marks.
        self.pass_marks: List[tuple] = []
        self.unit_marks: List[tuple] = []
        self.unit_id = 0
        self._ids = itertools.count()
        # Stack frames: [child_ns, span_id]; the bottom frame is a sentinel.
        self._stack: List[list] = [[0, -1]]
        self._self_ns: List[int] = []
        self._cells: Dict[str, list] = {}
        self._patches: List[tuple] = []

    # ------------------------------------------------------------ bookkeeping

    def _layer(self, layer: str) -> int:
        if layer not in self.layers:
            self.layers.append(layer)
            self._self_ns.append(0)
        return self.layers.index(layer)

    def _name(self, name: str, layer: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = len(self.names)
            self._name_ids[name] = nid
            self.names.append(name)
            self.layer_of_name.append(self._layer(layer))
        return nid

    def name_id(self, name: str) -> Optional[int]:
        """The id of span name ``name`` (``None`` if never wrapped)."""
        return self._name_ids.get(name)

    def layer_of(self, name_id: int) -> str:
        """The layer a span name belongs to."""
        return self.layers[self.layer_of_name[name_id]]

    @property
    def self_ns(self) -> Dict[str, int]:
        """Self time per layer (nanoseconds) since the last :meth:`reset`."""
        return dict(zip(self.layers, self._self_ns))

    def cell(self, key: str) -> list:
        """The one-element list holding counter ``key`` (wrappers bump ``cell[0]``)."""
        cell = self._cells.get(key)
        if cell is None:
            cell = self._cells[key] = [0]
        return cell

    def counts(self) -> Dict[str, int]:
        """Every counter's current value."""
        return {key: cell[0] for key, cell in self._cells.items()}

    def reset(self) -> int:
        """Zero counters and self-time accumulators for a new pass; returns the
        row its first span will have in the span table."""
        for cell in self._cells.values():
            cell[0] = 0
        for i in range(len(self._self_ns)):
            self._self_ns[i] = 0
        return len(self.spans) // len(COLUMNS)

    def begin_unit(self) -> None:
        """Mark the start of the next unit (one campaign or real-mode run)."""
        self.unit_id += 1
        self.unit_marks.append((len(self.spans) // len(COLUMNS), self.unit_id))

    # ----------------------------------------------------------------- spans

    def _span(self, nid: int) -> tuple:
        """The (open, close) hot path shared by every wrapper of one name."""
        layer = self.layer_of_name[nid]
        stack = self._stack
        push, pop = stack.append, stack.pop
        next_id = self._ids.__next__
        record = self.spans.extend
        self_ns = self._self_ns

        def open_():
            frame = [0, next_id()]
            push(frame)
            return frame

        def close(frame, t0, t1):
            pop()
            dur = t1 - t0
            parent = stack[-1]
            parent[0] += dur
            self_ns[layer] += dur - frame[0]
            record((frame[1], nid, t0, t1, parent[1]))

        return open_, close

    def root(self, pass_id: int) -> "_RootSpan":
        """Context manager for one traced pass; the root of every span in it."""
        return _RootSpan(self, pass_id)

    # ------------------------------------------------------------- wrappers

    def wrap_call(self, layer: str, name: str, fn: Callable, count: Optional[str] = None,
                  on_result: Optional[Callable] = None) -> Callable:
        """One span per call to ``fn``; optionally count calls / inspect results."""
        open_, close = self._span(self._name(name, layer))
        calls = self.cell(count) if count else None

        def traced(*args, **kwargs):
            if calls is not None:
                calls[0] += 1
            frame = open_()
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(frame, t0, perf_counter_ns())
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return traced

    def wrap_gen(self, layer: str, name: str, fn: Callable, count: Optional[str] = None,
                 on_result: Optional[Callable] = None) -> Callable:
        """Time each resumption of the generator ``fn`` returns."""
        open_, close = self._span(self._name(name, layer))
        calls = self.cell(count) if count else None

        def traced(*args, **kwargs):
            if calls is not None:
                calls[0] += 1
            gen = fn(*args, **kwargs)
            value = None
            error = None
            while True:
                done = False
                frame = open_()
                t0 = perf_counter_ns()
                try:
                    if error is None:
                        item = gen.send(value)
                    else:
                        item, error = gen.throw(error), None
                except StopIteration as stop:
                    done, result = True, stop.value
                finally:
                    close(frame, t0, perf_counter_ns())
                if done:
                    if on_result is not None:
                        on_result(args, kwargs, result)
                    return result
                try:
                    value = yield item
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as exc:  # forwarded into the wrapped generator
                    error = exc

        return traced

    # -------------------------------------------------------------- patching

    def patch_attr(self, owner, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr`` (function, property, class- or staticmethod)
        with the wrapper ``make(original function)``."""
        original = owner.__dict__[attr]
        if isinstance(original, property):
            replacement = property(make(original.fget))
        elif isinstance(original, (classmethod, staticmethod)):
            replacement = type(original)(make(original.__func__))
        else:
            replacement = make(original)
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def patch_function(self, module, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Replace a module-level function everywhere the program bound it by name."""
        original = getattr(module, attr)
        replacement = make(original)
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "") or ""
            if not (name == "repro" or name.startswith("repro.")):
                continue
            if mod.__dict__.get(attr) is original:
                setattr(mod, attr, replacement)
                self._patches.append((mod, attr, original))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ----------------------------------------------------------------- output

    def table(self, first: int = 0):
        """Span rows from row ``first`` on, as an ``(n, 5)`` NumPy int64 array."""
        import numpy as np

        rows = np.frombuffer(self.spans, dtype=np.int64).reshape(-1, len(COLUMNS))
        return rows[first:]

    def save(self, path: str) -> None:
        """Write the whole span table once, as compressed NumPy arrays."""
        import numpy as np

        table = self.table()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            layers=np.array([self.layer_of(i) for i in range(len(self.names))]),
            pass_marks=np.array(self.pass_marks, dtype=np.int64).reshape(-1, 2),
            unit_marks=np.array(self.unit_marks, dtype=np.int64).reshape(-1, 2),
            **{column: table[:, k] for k, column in enumerate(COLUMNS)},
        )


class _RootSpan:
    """The benchmark's own span around one pass (layer ``root``)."""

    def __init__(self, tracer: Tracer, pass_id: int) -> None:
        self.tracer = tracer
        self.pass_id = pass_id
        self.open, self.close = tracer._span(tracer._name(ROOT, ROOT))
        self.duration_ns = 0

    def __enter__(self) -> "_RootSpan":
        tracer = self.tracer
        if len(tracer._stack) != 1:
            raise RuntimeError("root span opened inside another span")
        tracer.pass_marks.append((len(tracer.spans) // len(COLUMNS), self.pass_id))
        self.frame = self.open()
        self.t0 = perf_counter_ns()
        return self

    def __exit__(self, *exc) -> bool:
        t1 = perf_counter_ns()
        self.close(self.frame, self.t0, t1)
        self.duration_ns = t1 - self.t0
        return False


def self_time_from_table(table, layer_of: Callable[[int], str]) -> Dict[str, int]:
    """Recompute per-layer self time from span rows, independently of the
    online accumulators: duration minus the summed durations of children."""
    ids = table[:, 0].tolist()
    names = table[:, 1].tolist()
    durations = (table[:, 3] - table[:, 2]).tolist()
    parents = table[:, 4].tolist()
    index = {sid: i for i, sid in enumerate(ids)}
    child = [0] * len(ids)
    for i, parent in enumerate(parents):
        if parent >= 0:
            child[index[parent]] += durations[i]
    out: Dict[str, int] = {}
    for i in range(len(ids)):
        layer = layer_of(names[i])
        out[layer] = out.get(layer, 0) + durations[i] - child[i]
    return out
