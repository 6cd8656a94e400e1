"""Span tracer that wraps the library's public functions from outside.

Nothing in ``src/`` knows about tracing.  :class:`Tracer` replaces the
module attributes that callers look up at call time (for example
``sparta.driver.build_lb_lp``, which ``run_iterations`` resolves through its
own module globals) with thin wrappers that record one span per call, and
puts the originals back on exit.

A span holds its name, start, end, parent, instance id and a few numeric
attributes.  Spans stay in memory until the run ends.  The parent of a span
comes from a per-thread stack.  ``ThreadPoolExecutor`` workers start with an
empty stack, so a span opened in a pool thread is an orphan at first; after
the instance finishes it is given as parent the innermost non-orphan span of
the same instance whose interval contains it.
"""

from __future__ import annotations

import importlib
import threading
import time
from dataclasses import dataclass, field

#: (module, attribute) pairs patched with a span wrapper.  The span is named
#: after the module that defines the function, so ``sparta.decompose``'s and
#: ``sparta.pipeline``'s bindings of ``build_full_lp`` both record
#: ``full_model.build_full_lp``.
SPAN_TARGETS = (
    ("sparta.simplex", "solve"),
    ("sparta.driver", "build_lb_lp"),
    ("sparta.driver", "build_ub_lp"),
    ("sparta.driver", "extract_aggregated_solution"),
    ("sparta.driver", "cluster_nodes"),
    ("sparta.driver", "split_disconnected"),
    ("sparta.decompose", "build_full_lp"),
    ("sparta.decompose", "extract_solution"),
    ("sparta.decompose", "build_cluster_subproblem"),
    ("sparta.pipeline", "build_full_lp"),
    ("sparta.pipeline", "extract_solution"),
    ("sparta.pipeline", "run_iterations"),
    ("sparta.pipeline", "redesign_all"),
    ("sparta.pipeline", "operational_check"),
    ("sparta.pipeline", "network_optimization"),
    ("sparta.pipeline", "solve_full"),
)

#: LinearProgram methods whose calls are counted, not spanned (tens of
#: thousands per full-size build)
COUNTED_METHODS = ("add_constraint", "add_variable")


@dataclass
class Span:
    name: str
    instance: int | None
    start: float
    end: float = 0.0
    parent: int | None = None   # index into Tracer.spans
    orphan: bool = False
    thread: int = 0
    attrs: dict[str, float | str] = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans while installed; ``instance`` tags every new span."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {m: 0 for m in COUNTED_METHODS}
        self.instance: int | None = None
        self._lock = threading.Lock()  # pool threads open spans concurrently
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    # -- installing wrappers ---------------------------------------------------
    def __enter__(self) -> "Tracer":
        from sparta.lp import LinearProgram

        for module_name, attr in SPAN_TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            layer = original.__module__.rsplit(".", 1)[-1]
            self._patch(module, attr, self._span_wrapper(f"{layer}.{attr}", original))
        for method in COUNTED_METHODS:
            self._patch(LinearProgram, method,
                        self._count_wrapper(method, getattr(LinearProgram, method)))
        self._patch(LinearProgram, "matrix",
                    self._matrix_wrapper(LinearProgram.matrix))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _patch(self, owner: object, attr: str, wrapper: object) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    # -- span bookkeeping --------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, root: bool = False) -> int:
        stack = self._stack()
        span = Span(name=name, instance=self.instance, start=time.perf_counter(),
                    parent=stack[-1] if stack else None, orphan=not (stack or root),
                    thread=threading.get_ident())
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def close(self, index: int) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack().pop()
        return span

    def _span_wrapper(self, name, original):
        def wrapper(*args, **kwargs):
            if self.instance is None:
                return original(*args, **kwargs)
            index = self.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                span = self.close(index)
            if name == "simplex.solve":
                span.attrs["lp"] = args[0].name
                span.attrs["iterations"] = result.iterations
            elif name == "full_model.build_full_lp":
                span.attrs["lp"] = kwargs.get("name", "full")
            return result
        return wrapper

    def _count_wrapper(self, method, original):
        counts = self.counts

        def wrapper(lp, *args, **kwargs):
            if self.instance is not None:
                with self._lock:
                    counts[method] += 1
            return original(lp, *args, **kwargs)
        return wrapper

    def _matrix_wrapper(self, original):
        def wrapper(lp):
            if self.instance is None:
                return original(lp)
            index = self.open("lp.matrix")
            try:
                matrix = original(lp)
            finally:
                span = self.close(index)
            span.attrs["lp"] = lp.name
            span.attrs["nnz"] = matrix.nnz
            return matrix
        return wrapper

    # -- analysis ----------------------------------------------------------------
    def adopt_orphans(self) -> None:
        """Give each pool-thread span a parent by instance and containment.

        Candidates are the spans recorded on the thread that opened the
        instance's root span; the innermost one containing the orphan wins.
        """
        roots = {s.instance: s.thread for s in self.spans
                 if s.parent is None and not s.orphan}
        anchored: dict[int, list[int]] = {}
        for i, span in enumerate(self.spans):
            if span.thread == roots.get(span.instance):
                anchored.setdefault(span.instance, []).append(i)
        for span in self.spans:
            if not span.orphan or span.parent is not None:
                continue
            best = None
            for j in anchored.get(span.instance, ()):
                cand = self.spans[j]
                if (cand.start <= span.start and span.end <= cand.end
                        and (best is None or cand.start >= self.spans[best].start)):
                    best = j
            span.parent = best

    def child_intervals(self) -> dict[int, list[tuple[float, float]]]:
        """Span index -> (start, end) of each of its children."""
        children: dict[int, list[tuple[float, float]]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append((span.start, span.end))
        return children

    def self_times(self) -> list[float]:
        """Each span's wall minus the union of its children's intervals."""
        children = self.child_intervals()
        return [span.wall - union_length(children.get(i, []), span.start, span.end)
                for i, span in enumerate(self.spans)]


def union_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total
