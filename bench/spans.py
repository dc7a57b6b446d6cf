"""Span tracing installed from the benchmark side.

A hook replaces one name that a caller looks up at call time (a module
global, a class attribute or an entry of a dispatch table) with a wrapper
that records a span around the original.  Spans are aggregated in memory
per name: calls, total time and self time, where self time is the span's
duration minus the time covered by its child spans.  Hooks whose target no
longer exists are reported as absent instead of failing the run.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

__all__ = ["Tracer"]


def _resolve(path: str):
    """Return (owner, key) for ``"package.module:Attr.attr"`` or ``None`` if absent."""
    module_name, _, attr_path = path.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, key = attr_path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    return (owner, key) if hasattr(owner, key) else None


class Tracer:
    """Aggregated spans plus the work counters recorded at the same boundaries."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self.now = time.perf_counter  # the clock spans read; see run.Ticker.now
        self._open: list[float] = []  # child time accumulated by each open span
        self._hooks: list[tuple[object, object, object]] = []  # (owner, key, wrapper)
        self._saved: list[tuple[object, object, object]] = []

    def span(self, name: str, fn, after=None):
        """Wrap ``fn`` so each call records a span; ``after(args, result)`` counts work."""
        open_spans = self._open

        def traced(*args, **kwargs):
            open_spans.append(0.0)
            t0 = self.now()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = self.now() - t0
                children = open_spans.pop()
                self.calls[name] += 1
                self.total_s[name] += duration
                self.self_s[name] += duration - children
                if open_spans:
                    open_spans[-1] += duration
            if after is not None:
                after(args, result)
            return result

        return traced

    def hook(self, path: str, name: str, after=None) -> None:
        """Prepare a wrapper for the name at ``path``; :meth:`install` swaps it in."""
        target = _resolve(path)
        if target is None:
            self.absent.append(path)
            return
        owner, key = target
        self._hooks.append((owner, key, self.span(name, getattr(owner, key), after)))

    def hook_table(self, path: str, name: str, after=None) -> None:
        """Prepare wrappers for every entry of the dispatch dict at ``path``."""
        target = _resolve(path)
        table = getattr(*target) if target is not None else None
        if not isinstance(table, dict):
            self.absent.append(path)
            return
        for key, fn in table.items():
            wrapped_after = None if after is None else (lambda args, result, k=key: after(k, args))
            self._hooks.append((table, key, self.span(name, fn, wrapped_after)))

    def install(self) -> None:
        for owner, key, wrapper in self._hooks:
            if isinstance(owner, dict):
                self._saved.append((owner, key, owner[key]))
                owner[key] = wrapper
            else:
                self._saved.append((owner, key, getattr(owner, key)))
                setattr(owner, key, wrapper)

    def remove(self) -> None:
        while self._saved:
            owner, key, original = self._saved.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
