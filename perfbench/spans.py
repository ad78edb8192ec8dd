"""In-memory span tracing around balrig's public entry points.

The tracer wraps functions and methods from the outside: it replaces every
reference to an entry point that the balrig modules hold (including aliases
such as ``rigidity.complex_ridges``) with a wrapper that records a span, and
puts the originals back on ``uninstall``. Nothing under ``src/`` changes.

A span is ``(call_id, span_id, parent_id, name, layer, start, end, kind)``.
Spans are recorded only while a root span (one timed verdict call, or the
traced set-up) is open; code the harness runs between calls, such as the
correctness gate, is not traced. A layer's self time is the duration of its
spans minus the part their child spans cover.

Work counters are read from arguments and returned objects after the span
closes, inside a ``tracing`` span, so that counting is subtracted from every
enclosing span and shows up as its own row rather than in a layer.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import time
from collections import defaultdict

#: Span kinds: a wrapped entry point, a root span, a trial body run by
#: ``run_trials`` on behalf of its caller's layer, and counter bookkeeping.
ENTRY, ROOT, BODY, COUNTING = "entry", "root", "body", "counting"

ROOT_LAYER = "harness"
COUNTING_LAYER = "tracing"


class Tracer:
    """Span recorder and entry-point patcher for one benchmark process."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.missing_entry_points: list[str] = []
        self.counter_errors: dict[str, str] = {}
        self.layers_present: set[str] = set()
        self._stack: list[tuple[int, str]] = []
        self._call_id = None
        self._next_id = 0
        self._patches: list[tuple[object, str, object, object]] = []
        # sample_theta results not yet read by a matrix builder, by id; the
        # strong reference keeps the id from being reused within a call
        self._drawn: dict[int, tuple[object, int]] = {}

    # -- spans -------------------------------------------------------------

    def _open(self) -> int:
        self._next_id += 1
        return self._next_id

    def run_root(self, call_id, name, fn, *args):
        """Run ``fn(*args)`` as the root span of one traced call."""
        self._call_id = call_id
        sid = self._open()
        self._stack.append((sid, ROOT_LAYER))
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans.append((call_id, sid, None, name, ROOT_LAYER, t0, t1, ROOT))
            self._drawn.clear()

    def _wrap(self, fn, name, layer, counter=None):
        tracer = self
        signature = None if counter is None else inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer._stack:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1][0]
            sid = tracer._open()
            tracer._stack.append((sid, layer))
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append(
                    (tracer._call_id, sid, parent, name, layer, t0, t1, ENTRY)
                )
            if counter is not None:
                tracer._count(name, counter, signature, args, kwargs, result)
            return result

        return wrapper

    def _count(self, name, counter, signature, args, kwargs, result):
        parent = self._stack[-1][0]
        sid = self._open()
        t0 = time.perf_counter()
        try:
            bound = signature.bind(*args, **kwargs)
            counter(self, bound.arguments, result)
        except Exception as exc:  # a renamed argument must not stop the run
            self.counter_errors.setdefault(name, f"{type(exc).__name__}: {exc}")
        t1 = time.perf_counter()
        self.spans.append(
            (self._call_id, sid, parent, f"count:{name}", COUNTING_LAYER, t0, t1, COUNTING)
        )

    def _wrap_run_trials(self, fn, name, layer, counter):
        """``run_trials`` runs its caller's trial body; give that body a span
        in the caller's layer so the trials layer keeps only its own loop."""
        tracer = self
        traced = self._wrap(fn, name, layer, counter)

        @functools.wraps(fn)
        def wrapper(policy, compute, *args, **kwargs):
            if not tracer._stack:
                return fn(policy, compute, *args, **kwargs)
            body_layer = tracer._stack[-1][1]

            def body(*cargs, **ckwargs):
                parent = tracer._stack[-1][0]
                sid = tracer._open()
                tracer._stack.append((sid, body_layer))
                t0 = time.perf_counter()
                try:
                    return compute(*cargs, **ckwargs)
                finally:
                    t1 = time.perf_counter()
                    tracer._stack.pop()
                    tracer.spans.append(
                        (tracer._call_id, sid, parent, "trial-body", body_layer, t0, t1, BODY)
                    )

            return traced(policy, body, *args, **kwargs)

        return wrapper

    # -- patching ----------------------------------------------------------

    def prepare(self, modules: dict, layers: dict) -> None:
        """Build a wrapper for every entry point of ``layers``.

        ``modules`` maps short names (``"exactla"``) to imported modules;
        ``layers`` maps a layer name to a list of ``(target, counter)`` where
        target is ``"module.func"`` or ``"module.Class.method"``. Entry points
        that do not exist are recorded as missing, not raised. Nothing is
        patched until ``install``.
        """
        for layer, targets in layers.items():
            for target, counter in targets:
                patches = self._patches_for(modules, layer, target, counter)
                if patches:
                    self._patches += patches
                    self.layers_present.add(layer)
                else:
                    self.missing_entry_points.append(target)

    def _patches_for(self, modules, layer, target, counter) -> list:
        parts = target.split(".")
        module = modules.get(parts[0])
        if module is None:
            return []
        if len(parts) == 3:
            cls = getattr(module, parts[1], None)
            raw = None if cls is None else cls.__dict__.get(parts[2])
            if raw is None:
                return []
            if isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(self._wrap(raw.__func__, target, layer, counter))
            else:
                new = self._wrap(raw, target, layer, counter)
            return [(cls, parts[2], raw, new)]
        original = getattr(module, parts[1], None)
        if original is None:
            return []
        if parts[1] == "run_trials":
            new = self._wrap_run_trials(original, target, layer, counter)
        else:
            new = self._wrap(original, target, layer, counter)
        return [
            (mod, attr, original, new)
            for mod in modules.values()
            for attr, value in vars(mod).items()
            if value is original
        ]

    def install(self) -> None:
        for owner, attr, _original, new in self._patches:
            setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, original, _new in self._patches:
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def self_times(self, setup: bool = False) -> tuple[dict, dict, float]:
        """Per-layer self seconds and entry calls, and the total root time,
        over the traced calls or, with ``setup``, over the traced set-up.

        Self time is computed from the stored spans: each span's duration
        minus the durations of its direct children.
        """
        covered: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span[2] is not None:
                covered[span[2]] += span[6] - span[5]
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        root_total = 0.0
        for call_id, sid, _parent, _name, layer, t0, t1, kind in self.spans:
            if (call_id == "setup") != setup:
                continue
            self_s[layer] += (t1 - t0) - covered[sid]
            if kind == ENTRY:
                calls[layer] += 1
            elif kind == ROOT:
                root_total += t1 - t0
        return self_s, calls, root_total

    def write(self, path) -> None:
        """Write the spans as gzipped JSON lines, one span per line."""
        keys = ("call", "id", "parent", "name", "layer", "start", "end", "kind")
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")

    # -- counters ------------------------------------------------------------

    def note_draw(self, blocks, entries: int) -> None:
        self._drawn[id(blocks)] = (blocks, entries)

    def take_draw(self, theta) -> int | None:
        """Entries of the draw that produced ``theta``, once, or None."""
        hit = self._drawn.pop(id(theta), None)
        return None if hit is None else hit[1]
