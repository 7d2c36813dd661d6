"""Per-function spans for the f2spec modules, recorded from outside the library.

`Tracer.install()` replaces every public function of the layer modules, and
every public method of the classes they define, with a wrapper that records
a span per call: calls, self time (span minus the child spans inside it),
inclusive time, and inclusive time per direct caller.  Generator functions
get one span per resumption and also count the items they yield.

`from .x import y` binds a second reference to `y` in the importing module,
so patching `x.y` alone would miss calls made through that copy (for
example `structure.wht`, `harness.butterfly` or `cli.decompose`).  The
tracer therefore rewrites every name in every `f2spec` module that refers
to a wrapped function.  Methods are patched on their class, which all
importers share.

Watches count, per call of an outer function, how much work an inner one
did inside it: the difference of the inner counter between entry and exit,
and how many outer calls saw any.  They give ratios such as transforms per
`decompose` call without attributing work by hand.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass, field

LAYER_MODULES = ("harness", "cli", "jsonio", "structure", "fourier", "boolfunc", "gf2", "families")


@dataclass
class Stat:
    name: str
    calls: int = 0
    yields: int = 0
    self_ns: int = 0
    total_ns: int = 0
    # direct caller name -> [calls, inclusive ns]
    callers: dict[str, list[int]] = field(default_factory=dict)


@dataclass
class Watch:
    """Work of `inner` (its `calls` or `yields`) done inside calls of `outer`."""

    outer: str
    inner: str
    counter: str
    total: int = 0
    hits: int = 0


class Tracer:
    def __init__(self, watches: tuple[tuple[str, str, str], ...] = ()) -> None:
        self.stats: dict[str, Stat] = {}
        self.watches = [Watch(*w) for w in watches]
        self._stack: list[list] = []  # frames: [stat, start_ns, child_ns]
        self._undo: list[tuple[object, str, object]] = []

    def stat(self, name: str) -> Stat:
        if name not in self.stats:
            self.stats[name] = Stat(name)
        return self.stats[name]

    def watch(self, outer: str, inner: str) -> Watch:
        return next(w for w in self.watches if w.outer == outer and w.inner == inner)

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Wrap every public function and method of the layer modules."""
        wrapped: dict[int, object] = {}
        for short in LAYER_MODULES:
            module = sys.modules[f"f2spec.{short}"]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = self._wrap(f"{short}.{attr}", obj)
                elif inspect.isclass(obj):
                    self._wrap_methods(f"{short}.{attr}", obj)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "f2spec" and not mod_name.startswith("f2spec."):
                continue
            for attr, obj in list(vars(module).items()):
                replacement = wrapped.get(id(obj))
                if replacement is not None:
                    self._set(module, attr, replacement)

    def _wrap_methods(self, prefix: str, cls: type) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{prefix}.{attr}"
            if isinstance(raw, (staticmethod, classmethod)):
                self._set(cls, attr, type(raw)(self._wrap(name, raw.__func__)))
            elif inspect.isfunction(raw):
                self._set(cls, attr, self._wrap(name, raw))

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- spans ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        stat = self.stat(name)
        stack = self._stack
        clock = time.perf_counter_ns
        watches = [w for w in self.watches if w.outer == name]

        def close(frame: list) -> None:
            dur = clock() - frame[1]
            stack.pop()
            stat.total_ns += dur
            stat.self_ns += dur - frame[2]
            if stack:
                parent = stack[-1]
                parent[2] += dur
                edge = stat.callers.get(parent[0].name)
                if edge is None:
                    stat.callers[parent[0].name] = [1, dur]
                else:
                    edge[0] += 1
                    edge[1] += dur

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                stat.calls += 1
                inner = fn(*args, **kwargs)
                while True:
                    frame = [stat, clock(), 0]
                    stack.append(frame)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        close(frame)
                    stat.yields += 1
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat.calls += 1
            frame = [stat, clock(), 0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                close(frame)

        if not watches:
            return wrapper

        @functools.wraps(fn)
        def watched(*args, **kwargs):
            before = [getattr(self.stat(w.inner), w.counter) for w in watches]
            try:
                return wrapper(*args, **kwargs)
            finally:
                for w, b in zip(watches, before):
                    delta = getattr(self.stat(w.inner), w.counter) - b
                    w.total += delta
                    w.hits += delta > 0

        return watched
