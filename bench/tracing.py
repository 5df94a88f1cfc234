"""In-memory span tracer for the benchmark's traced passes.

Spans are recorded from the benchmark's own code: around the harness's
calls into the library, and by wrapping library functions at the module
attribute through which the library itself calls them (for example
``composite_forge.assemble.refine_residues``). Nothing under ``src/`` is
touched; ``uninstall`` puts every original attribute back.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from contextlib import contextmanager, nullcontext

# field order of one span record
FIELDS = ("name", "start", "end", "parent", "case", "phase", "pass", "n", "ok")
NAME, START, END, PARENT, CASE, PHASE, PASS, N, OK = range(len(FIELDS))


class Tracer:
    """Records spans (name, start, end, parent span, case, phase, pass,
    work count, ok) and plain call counters while ``enabled``."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()  # (pass, name) -> calls
        self.enabled = False
        self.case: str | None = None
        self.phase: str | None = None
        self.pass_no = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(
            [name, time.perf_counter(), None, parent, self.case, self.phase, self.pass_no, 0, True]
        )
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, ok: bool, n: int) -> None:
        rec = self.spans[idx]
        rec[END] = time.perf_counter()
        rec[N] = n
        rec[OK] = ok
        self._stack.pop()

    def span(self, name: str):
        """Context manager recording one span; a no-op while disabled."""
        if not self.enabled:
            return nullcontext()
        return self._span(name)

    @contextmanager
    def _span(self, name: str):
        idx = self._open(name)
        ok = False
        try:
            yield
            ok = True
        finally:
            self._close(idx, ok, 0)

    def patch(self, module, attr: str, name: str, work=None, work_on_error=None) -> None:
        """Replace module.attr by a wrapper recording a span per call.

        ``work(args, kwargs, result)`` and ``work_on_error(args, kwargs)``
        give the span's work count (0 when omitted)."""
        fn = getattr(module, attr)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer._close(idx, False, work_on_error(args, kwargs) if work_on_error else 0)
                raise
            tracer._close(idx, True, work(args, kwargs, result) if work else 0)
            return result

        self._patched.append((module, attr, fn))
        setattr(module, attr, wrapper)

    def count_calls(self, module, attr: str, name: str) -> None:
        """Replace module.attr by a wrapper that only counts calls (for
        functions too small and too frequent to afford a span each)."""
        fn = getattr(module, attr)
        counts = self.counts
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[(tracer.pass_no, name)] += 1
            return fn(*args, **kwargs)

        self._patched.append((module, attr, fn))
        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            module, attr, fn = self._patched.pop()
            setattr(module, attr, fn)

    def write_jsonl(self, path) -> None:
        """Write every span as one JSON object per line, with its self time."""
        with open(path, "w") as fh:
            for i, (s, self_s) in enumerate(zip(self.spans, self_times(self.spans))):
                fh.write(json.dumps({"id": i, **dict(zip(FIELDS, s)), "self_s": self_s}) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """A span's duration minus the durations of its direct children."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out

