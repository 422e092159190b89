"""Wrap/restore span tracer for the end-to-end benchmark.

The tracer replaces chosen functions with thin wrappers that record one
span per call (name, start, end, parent span, thread) and restores the
originals afterwards, so the program under test is traced without a
single edit to its sources.  Spans stay in memory; :func:`chrome_trace`
turns them into Chrome trace-event JSON (loadable in Perfetto) with the
stdlib ``json`` module only.

A target is ``(module, "attr")`` for a module-level function or
``(module, "Class.method")`` for a method defined on that class.  A
module-level function is also replaced wherever another already-imported
module of the same package bound it by name (``from .x import f``), so
callers that hold their own reference are traced too.
"""

from __future__ import annotations

import importlib
import json
import sys
import threading
import time

__all__ = ["Span", "Tracer", "chrome_trace"]

#: Aliases of a hooked module function are replaced in this package only.
PACKAGE = "repro"


class Span:
    """One traced call. ``parent`` is the enclosing span on the same
    thread (``None`` at the top of the thread's stack)."""

    __slots__ = ("name", "t0", "t1", "parent", "tid", "attrs")

    def __init__(self, name, t0, parent, tid):
        self.name = name
        self.t0 = t0
        self.t1 = t0
        self.parent = parent
        self.tid = tid
        self.attrs = None

    @property
    def dur(self) -> float:
        return self.t1 - self.t0


def _resolve(module_name: str, qualname: str):
    """(owner, attribute name, original object) for one target."""
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    if isinstance(owner, type):
        if attr not in vars(owner):
            raise AttributeError(f"{module_name}.{qualname} is not defined on {owner.__name__}")
        return owner, attr, vars(owner)[attr]
    return owner, attr, getattr(owner, attr)


class Tracer:
    """Records spans at the targets of ``hooks`` while installed.

    ``hooks`` maps ``(module, qualname)`` to ``(span_name, after,
    before)``; the last two are optional.  ``span_name=None`` makes a
    count-only hook: no span, one increment of
    ``counts["module:qualname"]`` per call (for entry points too hot to
    span).  ``before(span, args)`` runs just before the wrapped call and
    ``after(span, args, result)`` just after it returns; both may set
    ``span.attrs``.
    """

    def __init__(self, hooks: dict):
        self.hooks = hooks
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self._count_lock = threading.Lock()
        self._local = threading.local()
        self._saved: list[tuple] = []

    # ------------------------------------------------------------------
    def _wrap(self, fn, name, after, before, count_key):
        spans = self.spans
        local = self._local
        clock = time.perf_counter
        get_ident = threading.get_ident

        if name is None:
            counts = self.counts
            lock = self._count_lock

            def counted(*args, **kwargs):
                with lock:
                    counts[count_key] = counts.get(count_key, 0) + 1
                return fn(*args, **kwargs)

            counted.__wrapped__ = fn
            return counted

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = Span(name, clock(), stack[-1] if stack else None, get_ident())
            if before is not None:
                before(span, args)
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.t1 = clock()
                stack.pop()
            if after is not None:
                after(span, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Replace every hooked function (and its same-package aliases)."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
        ]
        try:
            for (module_name, qualname), spec in self.hooks.items():
                name, after, before = (tuple(spec) + (None, None))[:3]
                owner, attr, original = _resolve(module_name, qualname)
                wrapper = self._wrap(
                    original, name, after, before, f"{module_name}:{qualname}"
                )
                self._replace(owner, attr, original, wrapper)
                if isinstance(owner, type):
                    continue
                for mod in modules:
                    if mod is not owner and vars(mod).get(attr) is original:
                        self._replace(mod, attr, original, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def _replace(self, owner, attr, original, wrapper) -> None:
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Put every original back (idempotent)."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> bool:
        self.uninstall()
        return False


def chrome_trace(spans, path: str) -> None:
    """Write ``spans`` as Chrome trace-event JSON (complete ``X`` events)."""
    origin = min((s.t0 for s in spans), default=0.0)
    events = []
    for s in spans:
        ev = {
            "name": s.name,
            "cat": s.name.split(".", 1)[0],
            "ph": "X",
            "ts": (s.t0 - origin) * 1e6,
            "dur": s.dur * 1e6,
            "pid": 1,
            "tid": s.tid,
        }
        if s.attrs:
            ev["args"] = dict(s.attrs)
        events.append(ev)
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
