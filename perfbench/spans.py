"""Spans around the calls into each layer, recorded from outside ``src``.

:class:`SpanRecorder` wraps the public entry points listed in
:data:`LAYER_CALLS` for the duration of a traced run.  Every call
becomes a span with a name, start, end, parent span and request id; a
layer's self time is its spans' duration minus their child spans.
Self time and call counts are accumulated exactly for every span, while
individual spans are kept in memory (up to ``max_spans``) and written
as a Chrome-trace JSON when the run ends.

Calls made in forked worker processes are not recorded: the wrappers
check the process id and call straight through.  The serve workloads
take the worker-side split from each response instead.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: ``(owner, attribute, span name)``.  An owner that is a class has the
#: method replaced on the class; for a function, every ``repro`` module
#: that holds it under any name gets the wrapper.
LAYER_CALLS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.kernels.registry", "make_workload", "kernels.workload"),
    ("repro.compiler.cache", "cached_optimize_kernel", "compiler.optimize"),
    ("repro.compiler.cache", "cached_compile_kernel", "compiler.vgiw_compile"),
    ("repro.compiler.cache", "cached_map_kernel", "compiler.sgmf_map"),
    ("repro.interp", "interpret", "interp.interpret"),
    ("repro.simt:FermiSM", "run", "simt.run"),
    ("repro.vgiw:VGIWCore", "run", "vgiw.run"),
    ("repro.sgmf:SGMFCore", "run", "sgmf.run"),
    ("repro.power", "energy_fermi", "power.energy"),
    ("repro.power", "energy_vgiw", "power.energy"),
    ("repro.power", "energy_sgmf", "power.energy"),
    ("repro.evalharness.runner", "run_kernel", "evalharness.run"),
    ("repro.evalharness.runner", "run_suite", "evalharness.run"),
    ("repro.evalharness.resultcache:ResultCache", "key_for",
     "resultcache.key"),
    ("repro.evalharness.resultcache:ResultCache", "get", "resultcache.get"),
    ("repro.evalharness.resultcache:ResultCache", "put", "resultcache.put"),
    ("repro.serve.service:ExecutionService", "submit", "serve.submit"),
    ("repro.fuzz.generate", "generate_case", "fuzz.generate"),
    ("repro.fuzz.oracle", "run_case", "fuzz.oracle"),
)

ENGINE_SPANS = {"simt.run": "fermi", "vgiw.run": "vgiw", "sgmf.run": "sgmf"}


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class SpanRecorder:
    """In-memory span store plus the patching that feeds it."""

    def __init__(self, max_spans: int = 50_000) -> None:
        self.pid = os.getpid()
        self.t0_ns = time.perf_counter_ns()
        self.max_spans = max_spans
        self.spans: List[tuple] = []
        self.dropped = 0
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        #: ``on_result`` hooks by span name (see :meth:`on_result`)
        self._hooks: Dict[str, Callable[[Any, Any], None]] = {}
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._undo: List[Tuple[Any, str, Any]] = []

    # -- request attribution --------------------------------------------
    def set_request(self, request_id: Any) -> None:
        """Attribute the calling thread's next spans to ``request_id``."""
        self._local.request = request_id

    @property
    def request(self) -> Any:
        return getattr(self._local, "request", None)

    def on_result(self, name: str, hook: Callable[[Any, Any], None]) -> None:
        """Call ``hook(request_id, result)`` after each ``name`` span."""
        self._hooks[name] = hook

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counts[name] += n

    # -- spans ----------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable) -> Callable:
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != rec.pid:
                return fn(*args, **kwargs)
            stack = rec._stack()
            frame = [next(rec._ids), 0]  # span id, child-span ns
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                rec._close(name, frame, parent, start, end)
            hook = rec._hooks.get(name)
            if hook is not None:
                hook(rec.request, result)
            return result

        return traced

    def _close(self, name, frame, parent, start, end) -> None:
        with self._lock:
            self.self_ns[name] += end - start - frame[1]
            self.calls[name] += 1
            if len(self.spans) < self.max_spans:
                self.spans.append((name, start, end, frame[0], parent,
                                   self.request, threading.get_ident()))
            else:
                self.dropped += 1

    def _count_builds(self, fn: Callable) -> Callable:
        """Wrap ``CompileCache.get_or_build`` to count hits and misses:
        a miss is a call that invoked its builder."""
        rec = self

        @functools.wraps(fn)
        def get_or_build(cache, category, key, builder):
            if os.getpid() != rec.pid:
                return fn(cache, category, key, builder)
            built = []

            def build():
                built.append(True)
                return builder()

            value = fn(cache, category, key, build)
            rec.count("compiler.cache_misses" if built
                      else "compiler.cache_hits")
            return value

        return get_or_build

    # -- patching -------------------------------------------------------
    def install(self) -> None:
        for owner_name, attr, span in LAYER_CALLS:
            owner = _resolve(owner_name)
            original = getattr(owner, attr)
            wrapper = self.wrap(span, original)
            if isinstance(owner, type):
                if isinstance(vars(owner).get(attr), staticmethod):
                    wrapper = staticmethod(wrapper)
                self._patch(owner, attr, wrapper)
                continue
            for mod_name, module in list(sys.modules.items()):
                if module is None or not mod_name.startswith("repro"):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        cache_cls = _resolve("repro.compiler.cache:CompileCache")
        self._patch(cache_cls, "get_or_build",
                    self._count_builds(cache_cls.get_or_build))

    def _patch(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- readout --------------------------------------------------------
    def self_s(self, name: str) -> float:
        return self.self_ns.get(name, 0) / 1e9

    def write_chrome_trace(self, path: str,
                           extra: Optional[List[dict]] = None) -> None:
        """Chrome-trace JSON of the kept spans (µs since recorder start),
        plus ``extra`` ready-made events whose ``ts`` is in µs of the
        monotonic clock (``time.monotonic``, the clock behind
        ``perf_counter`` here)."""
        lanes: Dict[int, int] = {}
        events = []
        for name, start, end, sid, parent, request, tid in self.spans:
            events.append({
                "name": name, "cat": name.split(".")[0], "ph": "X",
                "ts": (start - self.t0_ns) / 1e3,
                "dur": (end - start) / 1e3,
                "pid": "perfbench",
                "tid": lanes.setdefault(tid, len(lanes)),
                "args": {"span": sid, "parent": parent,
                         "request": None if request is None
                         else str(request)},
            })
        for event in extra or ():
            events.append(dict(event, ts=event["ts"] - self.t0_ns / 1e3))
        doc = {"traceEvents": events, "displayTimeUnit": "ms",
               "otherData": {"dropped_spans": self.dropped}}
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(doc, fh)
