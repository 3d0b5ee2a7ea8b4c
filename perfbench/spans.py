"""Span tracing from outside the package.

Each traced layer function gets a wrapper that is installed, for the
traced blocks of a run, under the name its caller looks up: a module
global such as ``predict_dd.convolve_fft_nd`` or a class attribute such
as ``LatticeGrid.__init__``.  Between traced blocks the originals are
restored.  Wrappers record spans (name, start, end, parent) only while
the tracer is active, which the benchmark turns on around the timed step
alone, so prior generation and checks are not counted.  Spans stay in
memory in flat arrays and are written out once, at the end of the run.

A name that no longer exists is reported as absent and is not wrapped;
its metrics then read 0.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import defaultdict
from typing import Any, Callable

import numpy as np

Observer = Callable[[tuple, dict, Any], float]


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.observed: dict[str, list[float]] = defaultdict(list)
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._wrapped: list[tuple[Any, str, Any, Any]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, owner: Any, attr: str, name: str, *,
             observe: dict[str, Observer] | None = None) -> None:
        """Make a wrapper of ``owner.attr`` whose every active call records
        a span ``name``; :meth:`install` puts it in place.

        ``observe`` maps a key to a cheap function of (args, kwargs,
        result) whose value is appended to ``observed[key]`` per call.
        """
        original = getattr(owner, "__dict__", {}).get(attr)
        if original is None:
            self.absent.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        nid = self._name_id(name)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            idx = len(tracer.span_start)
            tracer.span_name.append(nid)
            tracer.span_parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.span_start.append(0.0)
            tracer.span_end.append(0.0)
            tracer._stack.append(idx)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.span_start[idx] = start
                tracer.span_end[idx] = end
            for key, fn in (observe or {}).items():
                tracer.observed[key].append(fn(args, kwargs, result))
            return result

        self._wrapped.append((owner, attr, original, wrapper))

    def install(self) -> None:
        for owner, attr, _, wrapper in self._wrapped:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._wrapped):
            setattr(owner, attr, original)

    # -- aggregation ----------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total seconds and self seconds."""
        names = np.asarray(self.span_name)
        parents = np.asarray(self.span_parent)
        dur = np.asarray(self.span_end) - np.asarray(self.span_start)
        child = np.zeros_like(dur)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        out = {}
        for nid, name in enumerate(self.names):
            sel = names == nid
            out[name] = {
                "calls": float(sel.sum()),
                "s": float(dur[sel].sum()),
                "self_s": float((dur[sel] - child[sel]).sum()),
            }
        return out

    def save(self, path: str) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.asarray(self.span_name),
            parent=np.asarray(self.span_parent),
            start=np.asarray(self.span_start),
            end=np.asarray(self.span_end),
        )
