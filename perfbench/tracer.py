"""Span tracing installed from outside the package.

The tracer replaces a public name with a timing wrapper at the place its
caller looks it up: ``mfquad.cli.run_epoch`` for the CLI's call,
``mfquad.trainer.sieve_map`` for the trainer's, ``MlpModel.evaluate`` on the
class for method calls.  Nothing in the package itself changes.

Each wrapped call is a span.  A span's self time is its duration minus the
durations of the spans it encloses.  A call that re-enters a span of the
same name (``cross_polytope_signs`` calling ``sign_sequence``, both traced
as ``quadrature.signs``) folds into the outer span, so it is counted once.

A name that no longer exists is recorded in ``missing`` and skipped, so a
refactor of the package degrades the trace instead of crashing the run.
"""

from __future__ import annotations

import functools
import time
from array import array


class SpanStats:
    """Totals for one span name, plus per-call self times and counts."""

    __slots__ = ("calls", "total_s", "self_s", "count", "first_start", "samples",
                 "sample_counts")

    def __init__(self, first_start: float):
        self.first_start = first_start  # clock reading when the first call began
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.count = 0
        self.samples = array("d")
        self.sample_counts = array("d")


class Tracer:
    """Collects spans from wrapped functions; one instance per process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, SpanStats] = {}
        self.missing: list[str] = []
        self._stack: list[list] = []  # [name, start, child_time, depth]
        self._patched: list[tuple[object, str, object]] = []
        # on_exit(start, end) runs after each outermost span ends, outside
        # every span, so the time it takes is nobody's self time.
        self.on_exit = None

    def reset(self) -> None:
        """Drops all recorded spans; the wrappers stay installed."""
        self.stats = {}

    def wrap(self, owner, attr: str, span: str, count=None) -> bool:
        """Traces ``owner.attr`` as ``span``; ``count(args, result)`` adds work units.

        Returns False and records the name as missing when ``owner`` has no
        callable ``attr``.
        """
        fn = getattr(owner, attr, None)
        if not callable(fn):
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return False
        enter, leave = self._enter, self._leave

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = enter(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                leave(frame, span, None, args, None)
                raise
            leave(frame, span, count, args, result)
            return result

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, fn))
        return True

    def unwrap_all(self) -> None:
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    def _enter(self, span: str):
        stack = self._stack
        if stack and stack[-1][0] == span:
            stack[-1][3] += 1
            return None
        frame = [span, self.clock(), 0.0, 0]
        stack.append(frame)
        return frame

    def _leave(self, frame, span, count, args, result) -> None:
        stack = self._stack
        if frame is None:
            stack[-1][3] -= 1
            return
        duration = self.clock() - frame[1]
        stack.pop()
        if stack:
            stack[-1][2] += duration
        st = self.stats.get(span)
        if st is None:
            st = self.stats[span] = SpanStats(frame[1])
        own = duration - frame[2]
        units = 1 if count is None else count(args, result)
        st.calls += 1
        st.total_s += duration
        st.self_s += own
        st.count += units
        st.samples.append(own)
        st.sample_counts.append(units)
        if not stack and self.on_exit is not None:
            self.on_exit(frame[1], frame[1] + duration)
