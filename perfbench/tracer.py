"""Spans around polysim's public functions, recorded from outside the program.

``Tracer.wrap`` replaces a name in the module (or class) that calls it, so
``wrap(batch, "select_backend")`` times exactly the calls that ``batch``
makes through its own imported name.  Spans nest: each one records its
inclusive time and, per child label, the time and calls of the spans opened
directly inside it.  Spans are aggregated in memory per label and handed to
hooks as they close; nothing is written until the benchmark ends.
"""
from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    label: str
    args: tuple
    start: float
    seconds: float = 0.0
    result: object = None
    child_seconds: dict = field(default_factory=lambda: defaultdict(float))
    child_calls: dict = field(default_factory=lambda: defaultdict(int))


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.hooks: dict[str, list] = defaultdict(list)
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.calls.clear()
        self.seconds.clear()

    def on_close(self, label: str, hook) -> None:
        """Call ``hook(span)`` whenever a span with this label closes."""
        self.hooks[label].append(hook)

    def _timed(self, label: str, fn):
        def traced(*args, **kwargs):
            span = Span(label, args, time.perf_counter())
            self._stack.append(span)
            try:
                span.result = fn(*args, **kwargs)
                return span.result
            finally:
                span.seconds = time.perf_counter() - span.start
                self._stack.pop()
                self.calls[label] += 1
                self.seconds[label] += span.seconds
                if self._stack:
                    parent = self._stack[-1]
                    parent.child_seconds[label] += span.seconds
                    parent.child_calls[label] += 1
                for hook in self.hooks.get(label, ()):
                    hook(span)
        return traced

    def wrap(self, owner, attr: str, label: str) -> None:
        """Replace ``owner.attr`` (module function, method or classmethod)."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, classmethod):
            inner = self._timed(label, original.__func__)
            replacement = classmethod(inner)
        else:
            replacement = self._timed(label, original)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def unwrap_all(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
