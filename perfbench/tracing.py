"""In-memory span tracer that wraps the program's entry points by name.

Each wrapped call pushes a frame on a stack; when it returns, its duration
is added to its parent's child time, so a layer's self time is its
duration minus the part its wrapped children cover. Generators are timed
per ``next()``: the time spent producing an item is charged to the
generator's own entry, not to the consumer that iterates it.

Hot entry points (called per sample, per candidate or per visit) are
aggregated per name: call count, self time, inclusive time. Coarse ones
(stages, reports, scans) also keep one span each, ``(name, start, end,
parent)``, in memory until the run ends. Keeping millions of individual
spans would cost more memory than the program under test.

An entry point that no longer exists is recorded as absent and skipped;
the run goes on. The tracer assumes one thread, which holds for the
virtual-clock transport and ``run_crawl`` with one worker.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Callable

PACKAGE = "fleetscope"


@dataclass
class Entry:
    """One entry point: ``module:Qual.name``, its layer, and optional hooks.

    ``on_return(tracer, args, result)`` and ``on_raise(tracer, args, exc)``
    count outcomes; their own cost is booked as tracer overhead.
    """

    target: str
    layer: str
    hot: bool = False
    on_return: Callable | None = None
    on_raise: Callable | None = None


@dataclass
class Tracer:
    clock: Callable[[], float] = time.perf_counter
    stack: list = field(default_factory=list)
    spans: list = field(default_factory=list)
    calls: Counter = field(default_factory=Counter)
    self_s: defaultdict = field(default_factory=lambda: defaultdict(float))
    inclusive_s: defaultdict = field(default_factory=lambda: defaultdict(float))
    counts: Counter = field(default_factory=Counter)
    layers: dict = field(default_factory=dict)
    absent: list = field(default_factory=list)
    overhead_s: float = 0.0

    def __post_init__(self) -> None:
        self.stack.append([self.clock(), 0.0, None])  # root frame

    # -- recording -------------------------------------------------------

    def _enter(self, name: str) -> list:
        frame = [self.clock(), 0.0, name]
        self.stack.append(frame)
        return frame

    def _leave(self, frame: list, keep_span: bool) -> float:
        end = self.clock()
        self.stack.pop()
        duration = end - frame[0]
        self.stack[-1][1] += duration
        name = frame[2]
        self.self_s[name] += duration - frame[1]
        self.inclusive_s[name] += duration
        if keep_span:
            self.spans.append((name, frame[0], end, self.stack[-1][2]))
        return end

    def _hook(self, hook: Callable | None, args: tuple, value) -> None:
        if hook is None:
            return
        start = self.clock()
        hook(self, args, value)
        spent = self.clock() - start
        self.overhead_s += spent
        self.stack[-1][1] += spent  # not the caller's own work

    def wrap(self, name: str, entry: Entry, func: Callable) -> Callable:
        if inspect.isgeneratorfunction(func):
            return self._wrap_generator(name, entry, func)
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer._enter(name)
            tracer.calls[name] += 1
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                tracer._leave(frame, not entry.hot)
                tracer._hook(entry.on_raise, args, exc)
                raise
            tracer._leave(frame, not entry.hot)
            tracer._hook(entry.on_return, args, result)
            return result

        traced.__wrapped__ = func
        return traced

    def _wrap_generator(self, name: str, entry: Entry, func: Callable) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            tracer.calls[name] += 1
            inner = func(*args, **kwargs)
            first = None
            last = None
            try:
                while True:
                    frame = tracer._enter(name)
                    first = frame[0] if first is None else first
                    try:
                        item = next(inner)
                    except StopIteration:
                        last = tracer._leave(frame, keep_span=False)
                        return
                    except BaseException:
                        last = tracer._leave(frame, keep_span=False)
                        raise
                    last = tracer._leave(frame, keep_span=False)
                    tracer.counts[name + ".items"] += 1
                    yield item
            finally:
                inner.close()
                if not entry.hot and first is not None:
                    tracer.spans.append((name, first, last, tracer.stack[-1][2]))

        traced.__wrapped__ = func
        return traced

    # -- installation ----------------------------------------------------

    def install(self, entries: list[Entry]) -> None:
        """Wrap every entry point that exists; record the missing ones."""
        modules = {name: mod for name, mod in list(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")}
        for entry in entries:
            module_name, _, qualname = entry.target.partition(":")
            try:
                owner = importlib.import_module(module_name)
                *path, attr = qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = inspect.getattr_static(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(entry.target)
                continue
            self.layers[entry.target] = entry.layer
            if isinstance(original, (staticmethod, classmethod)):
                wrapped = type(original)(self.wrap(entry.target, entry, original.__func__))
            else:
                wrapped = self.wrap(entry.target, entry, original)
            setattr(owner, attr, wrapped)
            if not path:  # a module-level function: rebind every imported alias
                for mod in modules.values():
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)

    # -- results ---------------------------------------------------------

    def layer_self_s(self) -> dict[str, float]:
        totals: dict[str, float] = defaultdict(float)
        for name, seconds in self.self_s.items():
            totals[self.layers[name]] += seconds
        return dict(totals)
