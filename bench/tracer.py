"""Outside-in tracing: spans recorded around the program's functions.

The tracer replaces functions of the program by wrappers that record one
span per call -- name, start, end, parent span and request id -- and let an
optional *observer* add exact work counts from the call's arguments and
result.  Nothing in the program is edited: wrappers are installed on module
namespaces and classes and removed again after the traced run.

A function imported by name into other modules lives in several namespaces
at once (``cli`` imports ``decide_root`` from ``bernstein``, for example), so
every module of the package that holds the same function object is patched,
the defining module included so that calls inside that module are caught as
well.  A target that no longer exists is reported as absent instead of
stopping the run.
"""
from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Target:
    """A function to wrap: ``module`` and a dotted ``attr`` such as
    ``reduce_step`` or ``TruncatedPoly.__add__``; ``name`` is its span name."""

    name: str
    module: str
    attr: str
    observe: Callable | None = None


class Tracer:
    """Spans kept in memory in flat arrays: one entry per call."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("i")
        self.stack: list[int] = []
        self.current_request = -1
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self.absent: list[str] = []
        self._undo: list[tuple] = []

    # -- spans -----------------------------------------------------------

    def name_id(self, name: str) -> int:
        got = self._name_ids.get(name)
        if got is None:
            got = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return got

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_of.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.request.append(self.current_request)
        self.start.append(self.clock())
        self.end.append(0.0)
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self.stack.pop()

    def parent_name(self) -> str | None:
        """Name of the span enclosing the code that runs now."""
        return self.names[self.name_of[self.stack[-1]]] if self.stack else None

    def note_max(self, key: str, value: float) -> None:
        if value > self.maxima.get(key, float("-inf")):
            self.maxima[key] = value

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for idx, parent in enumerate(self.parent):
            if parent >= 0:
                own[parent] -= self.end[idx] - self.start[idx]
        return own

    def write(self, path) -> None:
        """Write every span, one tab-separated line each, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("name\tstart\tend\tparent\trequest\n")
            for i in range(len(self.start)):
                fh.write(f"{self.names[self.name_of[i]]}\t{self.start[i]!r}\t"
                         f"{self.end[i]!r}\t{self.parent[i]}\t{self.request[i]}\n")

    # -- wrapping --------------------------------------------------------

    def wrap(self, name: str, fn: Callable, observe: Callable | None = None) -> Callable:
        name_id = self.name_id(name)
        counts = self.counts
        calls_key = f"{name}.calls"

        def traced(*args, **kwargs):
            idx = self.open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            counts[calls_key] += 1
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return functools.wraps(fn)(traced)

    def install(self, targets) -> None:
        """Wrap every target that exists; record the others as absent."""
        for target in targets:
            module = sys.modules.get(target.module)
            owner_path, _, attr = target.attr.rpartition(".")
            owner = module
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part, None)
            original = None if owner is None else owner.__dict__.get(attr)
            if original is None or not callable(original):
                self.absent.append(target.name)
                continue
            wrapper = self.wrap(target.name, original, target.observe)
            self._set(owner, attr, original, wrapper)
            if owner is module:
                self._patch_aliases(target.module, original, wrapper)

    def _patch_aliases(self, defining: str, original, wrapper) -> None:
        package = defining.partition(".")[0]
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or mod_name == defining:
                continue
            if mod_name != package and not mod_name.startswith(package + "."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, original, wrapper)

    def _set(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def remove(self) -> None:
        """Put every original back, newest patch first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
