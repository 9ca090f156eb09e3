"""In-memory span recorder and the wrappers that feed it.

The benchmark traces the program from the outside: it replaces public
functions and methods of the ``repro`` modules with wrappers that record a
span (name, start, end, parent, thread, request) around each call. Nothing
in the program changes; :func:`install` patches every module namespace
that bound the original object (``from x import f`` included) and
:func:`uninstall` puts the originals back.

Rules:

* A call nested directly inside a span of the same name is merged into
  it (``spmm`` dispatching to ``spmm_row_product`` is one SpMM call).
* Synchronous spans nest per thread. Coroutine spans (``serve.handle``)
  interleave on the event loop, so they stand apart from the thread stack
  and instead set the *request* that later spans are attributed to.
* A method marked ``bind_request`` captures the current request when it
  is looked up, so work submitted to an executor thread is attributed to
  the request that submitted it.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: The request (a ``serve.handle`` span id) the current code works for.
REQUEST: contextvars.ContextVar[Optional[int]] = contextvars.ContextVar(
    "perfbench_request", default=None
)


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    thread: int
    request: Optional[int] = None
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_jsonable(self) -> Dict[str, Any]:
        return {"sid": self.sid, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent,
                "thread": self.thread, "request": self.request,
                "attrs": self.attrs}

    @classmethod
    def from_jsonable(cls, data: Dict[str, Any]) -> "Span":
        return cls(**data)


class Recorder:
    """Collects spans from every thread of one process."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[Tuple[str, int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _add(self, span: Span) -> None:
        with self._lock:
            self.spans.append(span)

    def wrap(self, name: str, fn: Callable,
             attrs: Optional[Callable] = None) -> Callable:
        """A synchronous wrapper recording ``name`` around ``fn``.

        ``attrs(args, kwargs, result)`` returns work counts for the span;
        it runs after the span's end time is taken.
        """
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            parent = stack[-1][1] if stack else None
            sid = next(self._ids)
            stack.append((name, sid))
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self.clock()
                stack.pop()
            span = Span(sid, name, start, end, parent,
                        threading.get_ident(), REQUEST.get())
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            self._add(span)
            return result

        wrapper.__perfbench_original__ = fn
        return wrapper

    def wrap_async(self, name: str, fn: Callable,
                   attrs: Optional[Callable] = None) -> Callable:
        """A coroutine wrapper: the span is the request that inner work
        (including executor work bound with ``bind_request``) reports to."""
        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            sid = next(self._ids)
            token = REQUEST.set(sid)
            start = self.clock()
            try:
                result = await fn(*args, **kwargs)
            finally:
                end = self.clock()
                REQUEST.reset(token)
            span = Span(sid, name, start, end, None, threading.get_ident(),
                        sid)
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            self._add(span)
            return result

        wrapper.__perfbench_original__ = fn
        return wrapper


class _BindRequest:
    """Descriptor: the bound method carries the request of its lookup."""

    def __init__(self, fn: Callable):
        self.fn = fn
        self.__perfbench_original__ = fn

    def __get__(self, obj, objtype=None):
        if obj is None:
            return self.fn
        request = REQUEST.get()
        fn = self.fn

        def call(*args, **kwargs):
            token = REQUEST.set(request)
            try:
                return fn(obj, *args, **kwargs)
            finally:
                REQUEST.reset(token)

        return call


# ---------------------------------------------------------------------------
# installing wrappers
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Target:
    """One traced entry point: ``module:function`` or ``module:Class.method``.

    ``subclasses`` also wraps every subclass's own override of the method.
    """

    span: str
    where: str
    attrs: Optional[Callable] = None
    subclasses: bool = False
    bind_request: bool = False


def _resolve(where: str) -> Tuple[Any, str]:
    module_name, _, path = where.partition(":")
    owner: Any = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _all_subclasses(cls) -> List[type]:
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


def install(recorder: Recorder, targets: Sequence[Target],
            package: str = "repro") -> List[Tuple[Any, str, Any]]:
    """Wrap every target; returns the undo list for :func:`uninstall`."""
    undo: List[Tuple[Any, str, Any]] = []

    def replace(owner, attr, new):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    for target in targets:
        owner, attr = _resolve(target.where)
        if inspect.isclass(owner):
            classes = (_all_subclasses(owner) if target.subclasses
                       else [owner])
            for cls in classes:
                if attr not in cls.__dict__:
                    continue
                fn = cls.__dict__[attr]
                if target.bind_request:
                    inner = recorder.wrap(target.span, fn, target.attrs)
                    replace(cls, attr, _BindRequest(inner))
                elif inspect.iscoroutinefunction(fn):
                    replace(cls, attr,
                            recorder.wrap_async(target.span, fn,
                                                target.attrs))
                else:
                    replace(cls, attr,
                            recorder.wrap(target.span, fn, target.attrs))
            continue
        fn = getattr(owner, attr)
        wrapper = recorder.wrap(target.span, fn, target.attrs)
        # Rebind the name in every loaded module of the package that
        # imported it, so `from x import f` call sites see the wrapper.
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package
                                   or mod_name.startswith(package + ".")):
                continue
            for name, value in list(vars(mod).items()):
                if value is fn:
                    replace(mod, name, wrapper)
    return undo


def uninstall(undo: List[Tuple[Any, str, Any]]) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------
def union_length(intervals: Sequence[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's duration minus the part of it its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(
                (span.start, span.end))
    return {
        span.sid: span.duration - union_length(children.get(span.sid, ()))
        for span in spans
    }


def claimed_time(spans: Sequence[Span], window: Tuple[float, float]
                 ) -> float:
    """Wall time inside ``window`` covered by at least one root span."""
    lo, hi = window
    roots = [(max(s.start, lo), min(s.end, hi)) for s in spans
             if s.parent is None and s.end > lo and s.start < hi]
    return union_length(roots)
