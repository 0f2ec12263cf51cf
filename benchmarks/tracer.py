"""In-memory span recorder that wraps functions from outside the package.

`Tracer.wrap(owner, attr, name)` replaces `owner.attr` with a wrapper that
records one span per call: name, start, end, parent span and an id that
child spans inherit (a trial index or a (delta, objective) pair).  Patch a
name where the caller looks it up: a module that did `from x import f`
holds its own reference to `f`.  Leaving the tracer's `with` block puts
every original attribute back.
"""

from __future__ import annotations

import functools
import json
import time

# span record fields, in the order they are written out
FIELDS = ("name", "start", "end", "parent", "id", "n", "key", "error")


class Span:
    __slots__ = FIELDS

    def __init__(self, name, start, parent, ident):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.id = ident
        self.n = None
        self.key = None
        self.error = False

    def as_list(self) -> list:
        return [getattr(self, f) for f in FIELDS]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def wrap(self, owner, attr: str, name: str, ident=None, observe=None) -> None:
        """Record a span around every call of `owner.attr`.

        ident(args, kwargs) gives the span's own id (else it inherits the
        parent's); observe(span, args, kwargs, result) may fill `n` and `key`.
        """
        original = getattr(owner, attr)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            own = ident(args, kwargs) if ident is not None else None
            span = Span(name, 0.0, parent,
                        own if own is not None or parent is None else spans[parent].id)
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span.start = clock()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                span.end = clock()
                span.error = True
                raise
            finally:
                stack.pop()
            span.end = clock()
            if observe is not None:
                observe(span, args, kwargs, result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def write(self, path) -> None:
        """Write the spans out, one JSON array per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.as_list()) + "\n")


def read_spans(path) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [dict(zip(FIELDS, json.loads(line))) for line in handle]


def covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[dict], names=None, child_names=None) -> list[float]:
    """Self time of every span (or of those named): duration minus the part
    covered by its child spans (only children named in `child_names`, if
    given)."""
    children: dict[int, list] = {}
    for span in spans:
        if span["parent"] is not None and (child_names is None or span["name"] in child_names):
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    out = []
    for index, span in enumerate(spans):
        if names is None or span["name"] in names:
            kids = children.get(index, ())
            out.append(span["end"] - span["start"]
                       - covered(kids, span["start"], span["end"]))
    return out
