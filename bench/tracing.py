"""Spans and call counters recorded from outside the package.

`Tracer.install()` replaces the public functions named in SPANNED and
COUNTED with wrappers, in every loaded `spindle.*` module that binds them
(the package imports functions by name, so patching only the defining
module would miss most calls).  `uninstall()` puts the originals back.

Spanned functions get a span per call: name, geometry, start, end, the
span that called it and the call's arguments, kept in memory.  Geometry primitives run thousands of
times per op, so they only count calls, per geometry; for the primitives
whose ns/call is replayed they also count the calls made from outside
another replayed primitive.  A wrapper records nothing
while `tracer.on` is false, so checks can run between traced ops.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

SPANNED = {
    "regions": ("ball_hull", "cap_domain"),
    "measure": ("thickness", "incircle", "area", "sample_in_disk", "area_monte_carlo"),
    "extremal": ("triangle_inradius", "regular_disk_triangle"),
    "harness": ("run_trial", "check_extremal_bounds", "inscribed_cap_domain"),
}
COUNTED = (
    "distance",
    "log_dir",
    "exp_map",
    "rotate_tangent",
    "circle_circle_intersection",
    "circumcenter",
    "smallest_enclosing_disk",
)
# primitives whose arguments are kept for the ns/call replay
REPLAYED = ("distance", "log_dir", "exp_map", "circle_circle_intersection")
REPLAY_KEEP = 256  # argument tuples kept per (function, geometry)


class TraceError(RuntimeError):
    """The traced program no longer matches what the tracer wraps."""


@dataclass
class Span:
    name: str  # "<layer>.<function>"
    geometry: Optional[str]
    parent: int  # index into Tracer.spans, -1 at top level
    start_ns: int
    end_ns: int = 0
    args: tuple = ()
    result: object = None
    child_ns: int = 0

    @property
    def ns(self) -> int:
        return self.end_ns - self.start_ns

    @property
    def self_ns(self) -> int:
        return self.ns - self.child_ns


def _geometry_of(args) -> Optional[str]:
    # every spanned function takes a Geometry or a region carrying one
    for a in args:
        name = getattr(a, "name", None)
        if isinstance(name, str) and hasattr(a, "kappa"):
            return name
        g = getattr(a, "geometry", None)
        if g is not None and hasattr(g, "kappa"):
            return g.name
    return None


@dataclass
class Tracer:
    on: bool = False
    capture: bool = False  # keep primitive arguments for replay
    keep_result: frozenset = frozenset()  # span names that keep their result
    spans: list = field(default_factory=list)
    calls: Counter = field(default_factory=Counter)  # (fn, geometry) -> calls
    outer: Counter = field(default_factory=Counter)  # replayed calls not nested in another
    replay: dict = field(default_factory=dict)  # (fn, geometry) -> [args]
    _stack: list = field(default_factory=list)
    _depth: int = 0
    _patches: list = field(default_factory=list)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [
            m for name, m in sys.modules.items()
            if m is not None and (name == "spindle" or name.startswith("spindle."))
        ]
        wanted = [(f"spindle.{layer}", fn, self._spanned(f"{layer}.{fn}"))
                  for layer, fns in SPANNED.items() for fn in fns]
        wanted += [("spindle.geometry", fn, self._counted(fn)) for fn in COUNTED]
        originals = []
        for home, fn, make in wanted:
            try:
                original = getattr(importlib.import_module(home), fn, None)
            except ImportError as e:
                raise TraceError(f"{home} is missing: the trace table needs updating") from e
            if not callable(original):
                raise TraceError(f"{home}.{fn} is missing: the trace table needs updating")
            originals.append((fn, original, make))
        for fn, original, make in originals:
            wrapper = make(original)
            for m in modules:
                if getattr(m, fn, None) is original:
                    self._patches.append((m, fn, original))
                    setattr(m, fn, wrapper)

    def uninstall(self) -> None:
        for m, fn, original in reversed(self._patches):
            setattr(m, fn, original)
        self._patches.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.calls.clear()
        self.outer.clear()
        self.replay.clear()

    # -- wrappers ------------------------------------------------------------

    def _spanned(self, name: str):
        tracer = self

        def make(fn):
            def wrapper(*args, **kwargs):
                if not tracer.on:
                    return fn(*args, **kwargs)
                stack = tracer._stack
                span = Span(name, _geometry_of(args), stack[-1] if stack else -1,
                            time.perf_counter_ns(), args=args)
                index = len(tracer.spans)
                tracer.spans.append(span)
                stack.append(index)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    stack.pop()
                    span.end_ns = time.perf_counter_ns()
                    if span.parent >= 0:
                        tracer.spans[span.parent].child_ns += span.ns
                if name in tracer.keep_result:
                    span.result = result
                return result

            wrapper.__wrapped__ = fn
            return wrapper

        return make

    def _counted(self, name: str):
        tracer = self
        replayed = name in REPLAYED

        def make(fn):
            def wrapper(*args, **kwargs):
                if not tracer.on:
                    return fn(*args, **kwargs)
                g = kwargs.get("g", args[-1])
                key = (name, g.name)
                tracer.calls[key] += 1
                if not replayed:
                    return fn(*args, **kwargs)
                # calls made inside another replayed primitive are already
                # inside its replayed ns/call
                if tracer._depth == 0:
                    tracer.outer[key] += 1
                tracer._depth += 1
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._depth -= 1
                if tracer.capture and not kwargs:
                    kept = tracer.replay.setdefault(key, [])
                    if len(kept) < REPLAY_KEEP:
                        kept.append(args)
                return result

            wrapper.__wrapped__ = fn
            return wrapper

        return make
