"""In-memory spans and the attribute patches that record them.

A span is ``[name, start, end, parent]``: ``parent`` is the index of the
span that was open when this one began, or -1. Spans stay in memory until
the run ends; nothing is written while timing.
"""
from __future__ import annotations

from time import perf_counter

_MISSING = object()


class Patches:
    """Replace attributes of modules, classes or instances; undo in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def patch(self, owner, attr: str, replacement) -> None:
        own = vars(owner).get(attr, _MISSING) if hasattr(owner, "__dict__") else _MISSING
        self._saved.append((owner, attr, own))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


class Tracer(Patches):
    """Records spans around patched callables."""

    def __init__(self):
        super().__init__()
        self.spans: list[list] = []
        self._open: list[int] = []

    def begin(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._open[-1] if self._open else -1]
        self._open.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        return span

    def end(self, span: list) -> None:
        span[2] = perf_counter()
        self._open.pop()

    def call(self, name: str, fn, *args, **kwargs):
        span = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(span)

    def timed(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def wrap(self, owner, attr: str, name: str) -> None:
        self.patch(owner, attr, self.timed(name, getattr(owner, attr)))


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def summarize(spans) -> dict[str, tuple[int, float, float]]:
    """name -> (calls, total seconds, self seconds)."""
    out: dict[str, list] = {}
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        entry = out.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += end - start
        entry[2] += own
    return {name: tuple(v) for name, v in out.items()}


def under(spans, ancestor: str) -> list[bool]:
    """For each span, whether a span named ``ancestor`` encloses it."""
    flags = [False] * len(spans)
    for i, (_, _, _, parent) in enumerate(spans):
        flags[i] = parent >= 0 and (flags[parent] or spans[parent][0] == ancestor)
    return flags
