"""Outside-in spans around the program's public functions, for traced runs.

The tracer rebinds each spanned function in every scheme_forge module
namespace that holds it (groups and fission import validate, phi_psi and
point_fission by name), so calls between modules are seen too.  Nothing
under src/ is changed.  Spans live in memory: name, parent, thread, start
and end.  A span's self time is its duration minus the part of it that
its child spans cover.  A span opened on a report worker thread with no
open span of its own takes the op thread's innermost span (build_report)
as its parent, so concurrent checks overlap there and the sum of self
times can exceed wall time by up to the thread count.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
import tracemalloc
from collections import Counter, defaultdict
from dataclasses import dataclass, field

SPANNED = {
    "cli": ("run", "build_report"),
    "fission": ("wl_stabilize", "point_fission", "find_base", "is_semiregular_off"),
    "groups": ("automorphism_group", "frobenius_witness", "sigma_alpha",
               "two_point_rigidity", "orbital_scheme"),
    "scheme_core": ("validate", "read_asc", "write_asc"),
    "products": ("phi_psi", "verify_structure_lemmas"),
    "planes": ("build_plane", "valid_bases", "check_rotation_invariance"),
    "designs": ("scheme_to_design", "verify_design"),
}
# tracemalloc runs only while one of these is open; it slows everything else
MEMORY_SPANS = ("fission.wl_stabilize", "scheme_core.validate")

# counter name -> (unit, better)
COUNTERS = {
    "fission.wl_stabilize.cells": ("count", "lower"),
    "fission.wl_stabilize.peak_mb": ("MB", "lower"),
    "fission.find_base.attempts": ("count", "lower"),
    "fission.find_base.useful_ratio": ("ratio", "higher"),
    "fission.point_fission.repeat_ratio": ("ratio", "lower"),
    "groups.automorphism_group.order": ("count", "lower"),
    "scheme_core.validate.flops": ("flop", "lower"),
    "scheme_core.validate.peak_mb": ("MB", "lower"),
    "trace_overhead_ratio": ("ratio", "lower"),
    "traced_wall_s": ("s", "lower"),
    "untraced_wall_s": ("s", "lower"),
}


def per_layer_metrics() -> dict[str, tuple[str, str]]:
    """Every metric a traced run reports: name -> (unit, better)."""
    out = {}
    for module, funcs in SPANNED.items():
        out[module + ".self_s"] = ("s", "lower")
        for func in funcs:
            out["%s.%s.self_s" % (module, func)] = ("s", "lower")
            out["%s.%s.calls" % (module, func)] = ("count", "lower")
    out.update(COUNTERS)
    return out


@dataclass(eq=False)
class Span:
    name: str
    parent: Span | None
    thread: int
    start: float = 0.0
    end: float = 0.0
    peak_mb: float = 0.0
    mem_base: int = 0
    children: list[Span] = field(default_factory=list)

    def self_seconds(self) -> float:
        covered, reach = 0.0, self.start
        for c in sorted(self.children, key=lambda s: s.start):
            lo, hi = max(c.start, reach), min(c.end, self.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        return (self.end - self.start) - covered


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Collects spans and counters while installed; see the module docstring."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._op_stack: list[Span] = []
        self._mem_open = 0
        self._fissioned: dict = {}
        self._patched: list = []
        self._groups = None

    # --- installing ---

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "scheme_forge" or name.startswith("scheme_forge.")]
        self._groups = importlib.import_module("scheme_forge.groups")
        for module_name, funcs in SPANNED.items():
            module = importlib.import_module("scheme_forge." + module_name)
            for func in funcs:
                original = getattr(module, func)
                wrapper = self._wrap("%s.%s" % (module_name, func), original)
                for m in modules:
                    for attr in [a for a, v in vars(m).items() if v is original]:
                        setattr(m, attr, wrapper)
                        self._patched.append((m, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def begin_op(self) -> None:
        """Mark the calling thread as the op thread and forget the op's fissions."""
        self._op_stack = self._stack()
        self._fissioned = {}

    # --- spans ---

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, func):
        tracer = self

        @functools.wraps(func)
        def spanned(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._close(span)
            tracer._count(span, args, kwargs, result)
            return result

        return spanned

    def _open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif stack is not self._op_stack and self._op_stack:
            parent = self._op_stack[-1]
        else:
            parent = None
        span = Span(name, parent, threading.get_ident())
        with self._lock:
            if parent is not None:
                parent.children.append(span)
            self.spans.append(span)
            if name in MEMORY_SPANS:
                if self._mem_open == 0:
                    tracemalloc.start()
                self._mem_open += 1
                span.mem_base = tracemalloc.get_traced_memory()[0]
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        if span.name in MEMORY_SPANS:
            with self._lock:
                # an upper bound when another thread allocates meanwhile
                span.peak_mb = (tracemalloc.get_traced_memory()[1] - span.mem_base) / 2**20
                self._mem_open -= 1
                if self._mem_open == 0:
                    tracemalloc.stop()

    def _count(self, span: Span, args, kwargs, result) -> None:
        name = span.name
        with self._lock:
            if name == "fission.wl_stabilize":
                n = len(_arg(args, kwargs, 0, "matrix"))
                self.counts[name + ".cells"] += n**3
            elif name == "scheme_core.validate":
                n, r = _arg(args, kwargs, 0, "n"), _arg(args, kwargs, 1, "r")
                self.counts[name + ".flops"] += 2 * r * r * n**3
            elif name == "fission.point_fission":
                scheme = _arg(args, kwargs, 0, "scheme")
                points = tuple(sorted(set(int(p) for p in _arg(args, kwargs, 1, "points"))))
                key = (id(scheme), points)
                if key in self._fissioned:
                    self.counts[name + ".repeats"] += 1
                self._fissioned[key] = scheme  # holding it keeps id() unique
                if span.parent is not None and span.parent.name == "fission.find_base":
                    self.counts["fission.find_base.attempts"] += 1
                    self.counts["fission.find_base.complete"] += int(result.is_complete)
            elif name == "groups.automorphism_group":
                self.counts[name + ".order"] += self._groups.group_order(result)

    # --- results ---

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()

    def summary(self) -> dict[str, float]:
        """Per-layer self time, calls and counters of the spans recorded so far."""
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        peaks: dict[str, float] = defaultdict(float)
        for span in self.spans:
            self_s[span.name] += span.self_seconds()
            calls[span.name] += 1
            peaks[span.name] = max(peaks[span.name], span.peak_mb)
        out = {}
        for module, funcs in SPANNED.items():
            out[module + ".self_s"] = sum(self_s["%s.%s" % (module, f)] for f in funcs)
            for func in funcs:
                name = "%s.%s" % (module, func)
                out[name + ".self_s"] = self_s[name]
                out[name + ".calls"] = calls[name]
        c = self.counts
        out["fission.wl_stabilize.cells"] = c["fission.wl_stabilize.cells"]
        out["fission.wl_stabilize.peak_mb"] = peaks["fission.wl_stabilize"]
        out["fission.find_base.attempts"] = c["fission.find_base.attempts"]
        out["fission.find_base.useful_ratio"] = (
            c["fission.find_base.complete"] / c["fission.find_base.attempts"]
            if c["fission.find_base.attempts"] else 0.0)
        out["fission.point_fission.repeat_ratio"] = (
            c["fission.point_fission.repeats"] / calls["fission.point_fission"]
            if calls["fission.point_fission"] else 0.0)
        out["groups.automorphism_group.order"] = c["groups.automorphism_group.order"]
        out["scheme_core.validate.flops"] = c["scheme_core.validate.flops"]
        out["scheme_core.validate.peak_mb"] = peaks["scheme_core.validate"]
        return out

    def span_records(self) -> list[dict]:
        index = {id(s): i for i, s in enumerate(self.spans)}
        return [
            {
                "id": i,
                "parent": index.get(id(s.parent)) if s.parent is not None else None,
                "name": s.name,
                "thread": s.thread,
                "start": s.start,
                "end": s.end,
                "self_s": s.self_seconds(),
            }
            for i, s in enumerate(self.spans)
        ]
