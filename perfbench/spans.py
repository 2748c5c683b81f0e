"""Span recording from outside the program.

A :class:`Tracer` replaces a public function or method with a wrapper
that records one span per call: name, start, end, parent span and, when
the call carries one, a request id.  Spans stay in memory until
:meth:`Tracer.dump` writes them out at exit.  Nothing inside ``src/``
is changed; :meth:`Tracer.restore` puts every original back.

Modules bind imported names (``from repro.serving.codec import decode``),
so a wrapper must replace the name in the *calling* module's namespace;
:meth:`Tracer.wrap` takes that module (or class) explicitly.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional

#: One recorded span: (id, parent id or 0, name, start s, end s, request id).
Span = tuple


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list = []
        self._lock = threading.Lock()
        #: While False, wrappers call straight through and record nothing.
        self.enabled = True

    # ---- request ids --------------------------------------------------
    def set_request(self, rid) -> None:
        """Tag spans opened on this thread with ``rid`` until cleared."""
        self._local.rid = rid

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # ---- wrapping -----------------------------------------------------
    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        rid_of: Optional[Callable] = None,
        on_result: Optional[Callable] = None,
    ) -> None:
        """Record a span named ``name`` around every ``owner.attr`` call.

        ``rid_of(args, kwargs, result)`` may extract a request id from
        the call; otherwise the thread's current :meth:`set_request` id
        is used.  ``on_result(result)`` sees every traced call's result.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            result = None
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                rid = getattr(tracer._local, "rid", None)
                if rid_of is not None:
                    try:
                        rid = rid_of(args, kwargs, result)
                    except (AttributeError, KeyError, TypeError, IndexError):
                        pass
                with tracer._lock:
                    tracer.spans.append((sid, parent, name, start, end, rid))
            if on_result is not None:
                on_result(result)
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        with self._lock:
            spans = list(self.spans)
        with open(path, "w") as fh:
            json.dump(spans, fh)


def wrap_runtime_layers(tracer: Tracer, run_rid: Optional[Callable] = None) -> None:
    """Spans around the entry points a plan and an execution pass
    through below the caller: service planning, the plan store, program
    lowering, and each program kind's ``run``."""
    import repro.kernels.codegen as codegen
    import repro.kernels.executor as executor
    from repro.runtime.service import TransposeService
    from repro.runtime.store import PlanStore

    tracer.wrap(TransposeService, "plan", "runtime.service.plan")
    tracer.wrap(PlanStore, "put", "runtime.store.put")
    tracer.wrap(PlanStore, "flush", "runtime.store.flush")
    # compile_executor is called through the executor module's globals.
    tracer.wrap(executor, "compile_executor", "kernels.executor.compile")
    for cls in (
        executor.ViewProgram,
        executor.RegionProgram,
        executor.IndexedProgram,
        executor.ChunkedProgram,
        codegen.NestProgram,
    ):
        tracer.wrap(cls, "run", "kernels.run." + cls.kind, rid_of=run_rid)


def load_spans(path) -> List[Span]:
    with open(path) as fh:
        return [tuple(s) for s in json.load(fh)]


def self_times(spans: Iterable[Span]) -> Dict[str, List[float]]:
    """Per-name list of self times in seconds.

    A span's self time is its duration minus the time its child spans
    cover.  Children nest properly inside their parent on one thread,
    so the covered time is the sum of the children's durations.
    """
    spans = list(spans)
    child_time: Dict[int, float] = defaultdict(float)
    for sid, parent, _name, start, end, _rid in spans:
        if parent:
            child_time[parent] += end - start
    out: Dict[str, List[float]] = defaultdict(list)
    for sid, _parent, name, start, end, _rid in spans:
        out[name].append(max(0.0, end - start - child_time.get(sid, 0.0)))
    return out

