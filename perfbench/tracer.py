"""Span tracer for the traced benchmark run.

The tracer wraps public entry points of each layer from the outside
(class attributes and module-level names), so the program itself carries
no tracing code.  Wrappers must be installed *before* the cluster or
fleet is built: several call sites bind methods once at construction.

Each synchronous span records its name, start and end
(``perf_counter_ns``), the id of its parent span on the same thread, and
a tag: the query id of the message it handles when there is one,
otherwise the thread name.  A span's *self time* is its duration minus
the time of its child spans.  Asynchronous spans (coroutines) are timed
start to finish and kept off the per-thread stack, because other work
interleaves on the event loop while they are suspended.

Per-name totals are kept for every span; the raw spans are kept in
memory up to ``SPAN_CAP`` and written out by :meth:`Tracer.dump` at the end.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Optional

_now_ns = time.perf_counter_ns
#: raw spans kept per run; later spans still count in the totals.
SPAN_CAP = 100_000


def _message_tag(args: tuple) -> Optional[str]:
    """The accounting tag of a message argument, if the call has one."""
    for arg in args:
        payload = arg if isinstance(arg, dict) else getattr(arg, "payload", None)
        if isinstance(payload, dict):
            tag = payload.get("qid") or payload.get("probe_id") or payload.get(
                "sub_id"
            )
            return None if tag is None else str(tag)
    return None


class Tracer:
    """Collects spans from wrapped callables; see the module docstring."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[tuple] = []
        self.dropped = 0
        #: span name -> [calls, total ns, self ns]
        self.totals: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
        #: named counters recorded at the same boundaries (frames, bytes).
        self.counts: dict[str, int] = defaultdict(int)
        #: thread name -> ns covered by its outermost synchronous spans
        #: (what the thread spent inside any traced layer).
        self.top_level_ns: dict[str, int] = defaultdict(int)
        self._local = threading.local()
        self._ids = iter(range(1, 1 << 62))
        self._restore: list[tuple[Any, str, Any]] = []
        self._lock = threading.Lock()

    # -- recording ------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(
        self, name: str, start: int, end: int, child: int, parent: int,
        span_id: int, tag: Optional[str],
    ) -> None:
        thread = threading.current_thread().name
        # Spans arrive from several threads on the deployed plane; the
        # read-modify-write totals need the lock to not lose updates.
        with self._lock:
            entry = self.totals[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child
            if parent == 0:
                self.top_level_ns[thread] += end - start
            if len(self.spans) < SPAN_CAP:
                self.spans.append(
                    (span_id, name, start, end, parent, tag or thread)
                )
            else:
                self.dropped += 1

    def count(self, name: str, amount: int = 1) -> None:
        if self.enabled:
            with self._lock:
                self.counts[name] += amount

    # -- wrapping -------------------------------------------------------

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        on_result: Optional[Callable[[Any], None]] = None,
    ) -> Callable:
        """Replace ``owner.attr`` by a synchronous span wrapper.

        ``on_result`` sees each return value (e.g. to count frame bytes).
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.enabled:
                return original(*args, **kwargs)
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1][0] if stack else 0
            frame = [span_id, 0]
            stack.append(frame)
            start = _now_ns()
            try:
                result = original(*args, **kwargs)
                if on_result is not None:
                    on_result(result)
                return result
            finally:
                end = _now_ns()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                tracer._record(
                    name, start, end, frame[1], parent, span_id,
                    _message_tag(args),
                )

        self._install(owner, attr, original, traced)
        return original

    def wrap_async(self, owner: Any, attr: str, name: str) -> Callable:
        """Replace coroutine function ``owner.attr`` by a timed wrapper."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        async def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.enabled:
                return await original(*args, **kwargs)
            span_id = next(tracer._ids)
            start = _now_ns()
            try:
                return await original(*args, **kwargs)
            finally:
                # parent -1: an async span is nobody's child and no
                # thread's outermost synchronous span.
                tracer._record(name, start, _now_ns(), 0, -1, span_id, None)

        self._install(owner, attr, original, traced)
        return original

    def replace(self, owner: Any, attr: str, new: Any) -> None:
        """Swap ``owner.attr`` for ``new`` until :meth:`uninstall`."""
        self._install(owner, attr, getattr(owner, attr), new)

    def _install(self, owner: Any, attr: str, original: Any, new: Any) -> None:
        self._restore.append((owner, attr, original))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        """Put every wrapped attribute back (latest first)."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- reading --------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.totals[name][0] if name in self.totals else 0

    def self_s(self, name: str) -> float:
        return self.totals[name][2] / 1e9 if name in self.totals else 0.0

    def total_s(self, name: str) -> float:
        return self.totals[name][1] / 1e9 if name in self.totals else 0.0

    def mean_self_us(self, name: str) -> float:
        calls = self.calls(name)
        return self.self_s(name) * 1e6 / calls if calls else 0.0

    def dump(self, path: str, meta: dict[str, Any]) -> None:
        """Write the kept spans as JSON lines, after one header line."""
        with open(path, "w", encoding="utf-8") as out:
            header = dict(meta, spans=len(self.spans), dropped=self.dropped)
            out.write(json.dumps(header) + "\n")
            for span_id, name, start, end, parent, tag in self.spans:
                out.write(
                    json.dumps(
                        {"id": span_id, "name": name, "start_ns": start,
                         "end_ns": end, "parent": parent, "tag": tag}
                    )
                    + "\n"
                )
