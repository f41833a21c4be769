"""Timing wrappers around the public entry points of each layer.

The traced server process installs these before it builds anything; no
file under ``src/`` changes.  Each wrapped call records one span
``(id, parent, name, start, end, request, phase)`` in memory:

* ``parent`` is the innermost open span on the same thread.  A span
  opened on a scheduler worker thread with nothing open on that thread
  is parented to the open ``BatchScheduler.run`` span that carries its
  cell, so a batch's self time excludes the runs it hands to workers;
* ``request`` is the cell name (the designer's user name for session
  opens), inherited from the parent when the call does not name one;
* ``phase`` is set by the server: ``setup``, ``serve`` or ``restart``.

Self time of a span is its duration minus the union of its children's
intervals.  Context-manager entry points are timed either over the
whole ``with`` body (transactions) or over ``__enter__`` only (waits for
a turnstile turn or a lock).
"""

from __future__ import annotations

import functools
import itertools
import os
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: span tuple layout
ID, PARENT, NAME, START, END, REQUEST, PHASE = range(7)


class Tracer:
    """In-memory span recorder shared by every thread of the server."""

    def __init__(self) -> None:
        self.spans: List[Tuple] = []
        #: counts made at the wrapped calls (see :meth:`add`)
        self.counters: Counter = Counter()
        self.window_waits_ms: List[float] = []
        self.batch_sizes: List[int] = []
        self.phase = "setup"
        #: objects in the OMS database, kept from create/delete calls
        self.objects = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        #: cell -> id of the open BatchScheduler.run span carrying it
        self._batch_of: Dict[str, int] = {}
        #: cell -> wall time its submit returned
        self._submitted: Dict[str, float] = {}

    def add(self, counter: str, amount: int = 1) -> None:
        """Thread-safe increment (worker threads count concurrently)."""
        with self._lock:
            self.counters[counter] += amount

    def count_objects(self, delta: int) -> None:
        with self._lock:
            self.objects += delta

    def reset(self, phase: str) -> None:
        """Forget recorded work (set-up) and start recording *phase*."""
        self.spans = []
        self.counters = Counter()
        self.window_waits_ms = []
        self.batch_sizes = []
        self.phase = phase

    def record(self) -> Dict[str, Any]:
        """Everything recorded, as JSON-ready data."""
        return {
            "spans": self.spans,
            "counters": dict(self.counters),
            "window_waits_ms": self.window_waits_ms,
            "batch_sizes": self.batch_sizes,
        }

    def _stack(self) -> List[Tuple[int, Optional[str]]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, request: Optional[str] = None):
        """Open a span; returns the token :meth:`close` needs."""
        stack = self._stack()
        if stack:
            parent, inherited = stack[-1]
        else:
            parent, inherited = None, None
            if request is not None:
                parent = self._batch_of.get(request)
        if request is None:
            request = inherited
        span_id = next(self._ids)
        stack.append((span_id, request))
        return (span_id, parent, name, time.perf_counter(), request)

    def close(self, token) -> float:
        end = time.perf_counter()
        self._stack().pop()
        span_id, parent, name, start, request = token
        self.spans.append((span_id, parent, name, start, end, request,
                           self.phase))
        return end

    # -- wrapping ----------------------------------------------------------

    def timed(self, name: str, request_arg: Optional[int] = None,
              before: Optional[Callable] = None,
              after: Optional[Callable] = None) -> Callable:
        """Decorator factory: time calls under span *name*.

        *request_arg* is the positional index (``self`` included) of the
        argument naming the request; *before* runs with the call's
        arguments before it, *after* with its result and start time.
        """
        tracer = self

        def decorate(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                request = None
                if request_arg is not None and len(args) > request_arg:
                    request = str(args[request_arg])
                if before is not None:
                    before(*args, **kwargs)
                token = tracer.open(name, request)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.close(token)
                if after is not None:
                    after(result, token[3], *args, **kwargs)
                return result

            return wrapper

        return decorate

    def timed_cm(self, name: str, enter_only: bool) -> Callable:
        """Decorator factory for context-manager entry points."""
        tracer = self

        class _Timed:
            def __init__(self, cm) -> None:
                self._cm = cm
                self._token = None

            def __enter__(self):
                self._token = tracer.open(name)
                try:
                    value = self._cm.__enter__()
                except BaseException:
                    tracer.close(self._token)
                    raise
                if enter_only:
                    tracer.close(self._token)
                return value

            def __exit__(self, *exc):
                try:
                    return self._cm.__exit__(*exc)
                finally:
                    if not enter_only:
                        tracer.close(self._token)

        def decorate(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return _Timed(fn(*args, **kwargs))

            return wrapper

        return decorate

    # -- hooks for derived counts --------------------------------------------

    def submit_returned(self, result, start, engine, session, cell, *a, **k):
        self._submitted[str(cell)] = time.perf_counter()

    def run_many_started(self, hybrid, requests, *args, **kwargs) -> None:
        now = time.perf_counter()
        requests = list(requests)
        self.batch_sizes.append(len(requests))
        for request in requests:
            submitted = self._submitted.pop(request.cell_name, None)
            if submitted is not None:
                self.window_waits_ms.append((now - submitted) * 1000.0)


def _replace_function(module_name: str, name: str, wrapped_of) -> None:
    """Rebind module function *name* everywhere it was imported by name."""
    module = sys.modules[module_name]
    original = getattr(module, name)
    wrapped = wrapped_of(original)
    for other in list(sys.modules.values()):
        other_name = getattr(other, "__name__", "") or ""
        if not other_name.startswith("repro"):
            continue
        if getattr(other, name, None) is original:
            setattr(other, name, wrapped)


def _replace_method(cls, name: str, wrapped_of) -> None:
    raw = None
    for klass in cls.__mro__:
        if name in klass.__dict__:
            raw = klass.__dict__[name]
            break
    if isinstance(raw, classmethod):
        setattr(cls, name, classmethod(wrapped_of(raw.__func__)))
    elif isinstance(raw, staticmethod):
        setattr(cls, name, staticmethod(wrapped_of(raw.__func__)))
    else:
        setattr(cls, name, wrapped_of(raw))


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point the per-layer metrics read."""
    import repro.core.coupling as coupling
    import repro.core.encapsulation as encapsulation
    import repro.core.gates as gates
    import repro.core.consistency as consistency
    import repro.core.recovery as recovery
    import repro.core.scheduler as scheduler
    import repro.fmcad.checkout as checkout
    import repro.fmcad.library as library
    import repro.jcf.flow_engine as flow_engine
    import repro.jcf.project as project
    import repro.jcf.resources as resources
    import repro.jcf.triggers as triggers
    import repro.oms.blobs as blobs
    import repro.oms.database as database
    import repro.oms.locks as locks
    import repro.oms.readcache as readcache
    import repro.oms.storage as storage
    import repro.oms.wal as wal
    import repro.oms.zerocopy  # noqa: F401  (bound by name in storage)
    import repro.server.engine as engine
    import repro.tools.layout.editor as layout_editor
    import repro.tools.schematic.editor as schematic_editor
    import repro.tools.schematic.model as schematic_model
    import repro.tools.schematic.symbols  # noqa: F401
    import repro.tools.simulator.testbench as testbench

    t = tracer

    def method(cls, name, span, **options):
        _replace_method(cls, name, t.timed(span, **options))

    def function(module, name, span, **options):
        _replace_function(module, name, t.timed(span, **options))

    # server
    method(engine.ServeEngine, "open_session", "server.open_session",
           request_arg=1)
    method(engine.ServeEngine, "submit", "server.submit", request_arg=2,
           after=t.submit_returned)
    method(coupling.HybridFramework, "run_many", "server.run_many",
           before=t.run_many_started)

    # core: scheduler, gates, encapsulation, restart
    def scheduler_run(fn):
        @functools.wraps(fn)
        def wrapper(batch_scheduler, requests):
            requests = list(requests)
            token = t.open("core.scheduler.run")
            for request in requests:
                # the wave's worker threads parent their runs here
                t._batch_of[request.cell_name] = token[0]
            try:
                return fn(batch_scheduler, requests)
            finally:
                for request in requests:
                    t._batch_of.pop(request.cell_name, None)
                t.close(token)

        return wrapper

    _replace_method(scheduler.BatchScheduler, "run", scheduler_run)
    _replace_method(gates.Turnstile, "turn",
                    t.timed_cm("core.scheduler.gate_wait", enter_only=True))
    for wrapper_cls in (encapsulation.SchematicEntryWrapper,
                        encapsulation.DigitalSimulatorWrapper,
                        encapsulation.LayoutEntryWrapper):
        method(wrapper_cls, "run", "core.encapsulation.run", request_arg=4)
    method(recovery.CouplingRecovery, "recover", "core.recovery.recover")
    method(consistency.ConsistencyGuard, "audit", "core.consistency.audit")

    # tools the wrappers call
    for cls, names in (
        (testbench.Testbench, ("run",)),
        (schematic_editor.SchematicEditor,
         ("open_bytes", "save_bytes", "require_clean")),
        (schematic_model.Schematic, ("from_bytes",)),
        (layout_editor.LayoutEditor, ("open_bytes", "save_bytes")),
        (layout_editor.Layout, ("from_bytes",)),
    ):
        for name in names:
            method(cls, name, "tools")
    function("repro.tools.schematic.netlist", "netlist_schematic", "tools")
    function("repro.tools.layout.drc", "run_drc", "tools")
    function("repro.tools.schematic.symbols", "symbol_for", "tools")

    # jcf
    for name in ("find_user", "find_team", "is_member",
                 "team_supports_project"):
        method(resources.ResourceManager, name, "jcf.resources.lookup")
    for name in ("find_cell", "create_design_object"):
        method(project.JCFProject, name, "jcf.project.lookup")
    function("repro.jcf.project", "find_or_create_viewtype",
             "jcf.project.lookup")
    for name in ("start_activity", "finish_activity"):
        method(flow_engine.FlowEngine, name, "jcf.flow_engine")
    method(triggers.TriggerRegistry, "record_event", "jcf.triggers")

    # fmcad
    method(checkout.CheckoutManager, "checkout", "fmcad.checkout")
    method(checkout.CheckoutManager, "checkin", "fmcad.checkin")

    def meta_written(result, start, lib, *args, **kwargs):
        if result:
            t.add("meta_bytes", os.path.getsize(lib.metafile.path))

    method(library.Library, "flush_meta", "fmcad.flush_meta",
           after=meta_written)
    method(library.Library, "read_version", "fmcad.read_version")
    method(library.Library, "open", "fmcad.library_open")

    # oms
    def created(result, start, *args, **kwargs):
        t.count_objects(1)

    def deleted(result, start, *args, **kwargs):
        t.count_objects(-1)

    def selected(result, start, *args, **kwargs):
        t.add("select_examined", t.objects)
        t.add("select_rows", len(result))

    method(database.OMSDatabase, "create", "oms.create", after=created)
    method(database.OMSDatabase, "delete", "oms.delete", after=deleted)
    method(database.OMSDatabase, "select", "oms.select", after=selected)
    for name in ("transaction", "group_commit"):
        _replace_method(database.OMSDatabase, name,
                        t.timed_cm("oms.transaction", enter_only=False))
    for name in ("export_object", "export_objects"):
        method(storage.StagingArea, name, "oms.storage.export")
    for name in ("import_object", "import_objects"):
        method(storage.StagingArea, name, "oms.storage.import")
    method(storage.StagingArea, "adopt_existing", "oms.storage.adopt")

    def probed(*args, **kwargs):
        t.add("probe_calls")

    function("repro.oms.zerocopy", "probe_capabilities",
             "oms.zerocopy.probe", before=probed)
    method(blobs.BlobStore, "materialize", "oms.blobs.materialize")

    def cache_got(result, start, *args, **kwargs):
        t.add("cache_gets")
        t.add("cache_hits", int(result is not None))

    method(readcache.MaterializationCache, "get", "oms.readcache.get",
           after=cache_got)
    method(locks.LockManager, "acquire", "oms.locks.wait")
    for name in ("reading", "writing"):
        _replace_method(locks.DigestLockTable, name,
                        t.timed_cm("oms.locks.wait", enter_only=True))
    method(wal.WriteAheadLog, "commit", "oms.wal.commit")
    method(wal.WriteAheadLog, "recover", "oms.wal.recover")

    # device: every fsync the server process issues
    os.fsync = t.timed("device.fsync")(os.fsync)


def self_times(spans: List[Tuple]) -> Dict[int, float]:
    """Span id -> self time in seconds (duration minus child coverage)."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] is not None:
            children[span[PARENT]].append((span[START], span[END]))
    result: Dict[int, float] = {}
    for span in spans:
        start, end = span[START], span[END]
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(span[ID], ())):
            c_start = max(c_start, cursor)
            c_end = min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        result[span[ID]] = (end - start) - covered
    return result


def summarize(record: Dict[str, Any]) -> Dict[str, Dict[str, Dict]]:
    """Per-phase, per-name totals of a :meth:`Tracer.record`:
    calls, self seconds and wall seconds."""
    spans = record["spans"]
    selfs = self_times(spans)
    totals: Dict[str, Dict[str, Dict[str, float]]] = {}
    for span in spans:
        phase = totals.setdefault(span[PHASE], {})
        entry = phase.setdefault(
            span[NAME], {"calls": 0, "self_s": 0.0, "wall_s": 0.0}
        )
        entry["calls"] += 1
        entry["self_s"] += selfs[span[ID]]
        entry["wall_s"] += span[END] - span[START]
    return totals
