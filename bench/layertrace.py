"""In-memory layer tracing by wrapping entry points where callers look them up.

A ``Target`` names a layer and the attribute its caller resolves at call
time, e.g. ``Target("reweight.compute_tpm", "dflsim.reweight", "compute_tpm")``
for the module-global lookup inside ``dflsim.reweight``. While a ``Tracer`` is
installed, each such attribute is replaced by a wrapper that records the call
count, the inclusive seconds and the seconds spent inside wrapped children
(charged to the enclosing span, its parent), so a layer's self time is its
inclusive time minus its children's. Aggregates stay in memory per layer; the
caller writes them out when it is done.

A target whose module or attribute no longer exists is recorded as absent and
reports zero calls, so the instrument keeps working when a later change
removes or renames an entry point. Every replaced attribute is restored when
the ``installed`` block exits, normally or not. The tracer is single-threaded.
"""
from __future__ import annotations

import importlib
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional

HOOKS = "trace.hooks"


@dataclass(frozen=True)
class Target:
    """One lookup site. ``owner`` is ``"module"`` or ``"module:Class"``."""

    layer: str
    owner: str
    attr: str
    timed: bool = True
    # Called as after(result, args) once the span has closed; its time is
    # charged to HOOKS and excluded from every layer's self time.
    after: Optional[Callable] = None


def _resolve(owner: str):
    module_name, _, qualname = owner.partition(":")
    try:
        obj = importlib.import_module(module_name)
    except ImportError:
        return None
    for part in filter(None, qualname.split(".")):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj


class Tracer:
    """Per-layer call counts, inclusive seconds and seconds in wrapped children."""

    def __init__(self):
        # layer -> [calls, inclusive seconds, seconds in wrapped children]
        self.stats: dict = {HOOKS: [0, 0.0, 0.0]}
        self.absent: set = set()
        # One frame per open span, holding the seconds its children took.
        self._stack = [[0.0]]

    def calls(self, layer: str) -> int:
        return self.stats.get(layer, (0, 0.0, 0.0))[0]

    def seconds(self, layer: str) -> float:
        return self.stats.get(layer, (0, 0.0, 0.0))[1]

    def self_seconds(self, layer: str) -> float:
        _, total, child = self.stats.get(layer, (0, 0.0, 0.0))
        return total - child

    def to_json_dict(self) -> dict:
        return {
            "layers": {
                layer: {"calls": calls, "s": total, "self_s": total - child}
                for layer, (calls, total, child) in sorted(self.stats.items())
            },
            "absent": sorted(self.absent),
        }

    def _timed(self, stat: list, fn: Callable, after: Optional[Callable]) -> Callable:
        stack, hooks, clock = self._stack, self.stats[HOOKS], perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stack[-1][0] += elapsed
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += frame[0]
            if after is not None:
                start = clock()
                after(result, args)
                elapsed = clock() - start
                stack[-1][0] += elapsed
                hooks[1] += elapsed
            return result

        return wrapper

    @staticmethod
    def _counted(stat: list, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            stat[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self, targets):
        """Wrap every resolvable target for the duration of the block."""
        saved = []
        wrapped_layers = set()
        try:
            for target in targets:
                stat = self.stats.setdefault(target.layer, [0, 0.0, 0.0])
                owner = _resolve(target.owner)
                fn = getattr(owner, target.attr, None) if owner is not None else None
                if not callable(fn):
                    continue
                if target.timed:
                    wrapper = self._timed(stat, fn, target.after)
                else:
                    wrapper = self._counted(stat, fn)
                saved.append((owner, target.attr, fn))
                setattr(owner, target.attr, wrapper)
                wrapped_layers.add(target.layer)
            self.absent = {t.layer for t in targets} - wrapped_layers
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)
