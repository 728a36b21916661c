"""In-memory span recorder and the wrappers that feed it.

A span is (name, start, end, parent, invocation).  Spans live in flat arrays
while a traced invocation runs and are written out once the run ends.  The
wrappers replace a library function under every name that a loaded module
binds it to: ``from .core import xcothx_m1`` copies the function object into
``qbrown.coefficients``, so wrapping only the defining module would miss
every call made through the copy.

A wrapper's own work around a call (the call into the wrapper, opening and
closing the span, running its hook) happens outside the span it records, so
it would land in the parent span's self time.  ``calibrate`` measures that
cost for an empty call; together with each hook's measured run time it is
the span's ``charge``, which ``self_times`` takes off the parent.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from array import array
from collections import defaultdict
from typing import Callable, Iterable, Optional


class Tracer:
    """Flat span store; parents are open spans, so nesting follows the call stack."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.invocation = array("i")
        self.hook_s = array("d")      # run time of the span's hook, after its end
        self.span_cost = 0.0          # a hook-less wrapper's cost to its caller, from calibrate()
        self.current_invocation = -1
        self._first = 0
        self._stack: list[int] = []
        # counters filled by wrapper hooks, keyed by invocation
        self.counters: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.invocation.append(self.current_invocation)
        self.end.append(math.nan)
        self.hook_s.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, value: float = 1.0) -> None:
        self.counters[self.current_invocation][key] += value

    def maximum(self, key: str, value: float) -> None:
        c = self.counters[self.current_invocation]
        c[key] = max(c.get(key, 0.0), value)

    def begin(self, invocation: int) -> None:
        """Attribute the spans and counters that follow to ``invocation``."""
        self.current_invocation = invocation
        self._first = len(self.start)

    def finish(self) -> range:
        """Close the current invocation; returns the indices of its spans."""
        self.current_invocation = -1
        return range(self._first, len(self.start))

    def charges(self, indices: Iterable[int]) -> dict[int, float]:
        """Wrapper time each span adds to its parent's self time."""
        return {i: self.span_cost + self.hook_s[i] for i in indices}

    def write(self, path) -> None:
        """Save the spans as one .npz of parallel arrays plus the name table."""
        import numpy as np

        np.savez(path, names=np.array(self.names), name_id=np.array(self.name_id),
                 start=np.array(self.start), end=np.array(self.end),
                 parent=np.array(self.parent), invocation=np.array(self.invocation),
                 hook_s=np.array(self.hook_s), span_cost=self.span_cost)


def self_times(start, end, parent, indices: Iterable[int],
               charge: Optional[dict[int, float]] = None) -> dict[int, float]:
    """Self time of each span: its duration minus the part of its interval
    that the union of its children's intervals covers, minus each child's
    ``charge`` (the wrapper time around the child, outside its interval).

    ``indices`` must list every span of the set in start order (children
    after their parent), as a Tracer records them.
    """
    covered: dict[int, float] = defaultdict(float)
    reach: dict[int, float] = {}
    order = list(indices)
    for i in order:
        p = parent[i]
        if p < 0:
            continue
        if charge is not None:
            covered[p] += charge[i]
        lo = max(start[i], start[p], reach.get(p, -math.inf))
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return {i: end[i] - start[i] - covered[i] for i in order}


Hook = Callable[[Tracer, tuple, dict, object], None]


def _wrapper(tracer: Tracer, name: str, fn: Callable, hook: Optional[Hook]) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if hook is not None:
            t0 = time.perf_counter()
            hook(tracer, args, kwargs, result)
            tracer.hook_s[idx] = time.perf_counter() - t0
        return result

    return traced


def calibrate(calls: int = 20000, repeats: int = 5) -> float:
    """Median seconds a hook-less wrapper adds to its caller, per call.

    A parent span calls a wrapped empty function ``calls`` times; its self
    time, less the time of the same loop calling the bare function, is the
    wrappers' cost outside their own spans.
    """
    def leaf():
        pass

    tracer = Tracer()
    traced = _wrapper(tracer, "leaf", leaf, None)
    loop = range(calls)
    costs = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in loop:
            leaf()
        bare = time.perf_counter() - t0
        first = len(tracer.start)
        outer = tracer.open("outer")
        for _ in loop:
            traced()
        tracer.close(outer)
        own = self_times(tracer.start, tracer.end, tracer.parent,
                         range(first, len(tracer.start)))[outer]
        costs.append((own - bare) / calls)
    costs.sort()
    return costs[len(costs) // 2]


class Installed:
    """Wrappers bound in place of library functions; ``remove`` restores them."""

    def __init__(self, tracer: Tracer, targets: Iterable[tuple[str, str, str, Optional[Hook]]],
                 package: str = "qbrown") -> None:
        self._undo: list[tuple[object, str, Callable]] = []
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for module_name, attr, span_name, hook in targets:
            original = getattr(sys.modules[module_name], attr)
            wrapped = _wrapper(tracer, span_name, original, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def bindings(self) -> list[str]:
        return [f"{mod.__name__}.{key}" for mod, key, _ in self._undo]

    def remove(self) -> None:
        for mod, key, original in reversed(self._undo):
            setattr(mod, key, original)
        self._undo.clear()

    def __enter__(self) -> "Installed":
        return self

    def __exit__(self, *exc) -> None:
        self.remove()
