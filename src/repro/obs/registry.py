"""Mergeable metrics registry and span tracing for the engine.

The engine's subsystems each grew private, ad-hoc introspection —
``WindowManager.rows_sketched``, ``FleetMatrix.n_pruned``, bench-local
scan accounting. This module replaces them with one substrate:

* :class:`MetricsRegistry` holds **counters** (monotonic ints),
  **gauges** (last-written floats), **histograms** over *fixed* bucket
  edges, and **span** timing statistics. Registries are *mergeable*
  with ``+`` — the same algebra as the stream sketches — so metrics
  collected inside ``ThreadExecutor``/``ProcessExecutor`` workers
  travel back with their results and combine into one view. Counter,
  bucket, and count merges are integer sums, and histogram value sums
  accumulate through exact Shewchuk expansions (the ``math.fsum``
  algorithm), so a merged snapshot is bit-stable: per-shard collection
  merged in ANY grouping equals serial collection exactly.
* :func:`metrics` returns the *active* registry. The default is a
  module-level :data:`NULL_REGISTRY` whose methods are no-ops, so hot
  paths call ``metrics().inc(...)`` unconditionally — no branches in
  hot loops, and no measurable overhead while instrumentation is off
  (``benchmarks/bench_streaming.py``'s floor is asserted with the null
  registry active).
* :func:`use_registry` installs a registry for a ``with`` scope via a
  :class:`contextvars.ContextVar`; worker threads and processes do NOT
  inherit it, which is deliberate — the one fan primitive runs each
  worker under a fresh registry and merges them back in shard order
  (``repro.stream.executor.fan``), keeping merges deterministic.
* ``span(name)`` contexts time a block with :func:`time.perf_counter`
  and nest: entering a span inside another records under the dotted
  path (``"fleet.scan.count"``). Spans must be used as ``with``
  contexts — reprolint rule RL007 rejects manual enter/exit pairs,
  which can leak the nesting stack on exceptions.

``registry.snapshot()`` returns a stable, JSON-able dict (sorted keys,
builtin types only); :func:`report` renders the same data as a
human-readable table for the ``--profile`` CLI flag.
"""

from __future__ import annotations

import json
import math
import time
from bisect import bisect_left
from collections.abc import Iterator, Sequence
from contextlib import contextmanager
from contextvars import ContextVar
from types import TracebackType
from typing import Any, Union

__all__ = [
    "DEFAULT_EDGES",
    "LATENCY_EDGES",
    "NULL_REGISTRY",
    "MetricsRegistry",
    "NullRegistry",
    "enabled",
    "metrics",
    "report",
    "use_registry",
]

# Power-of-ten edges for size-like observations (rows, bytes, counts).
DEFAULT_EDGES: tuple[float, ...] = (1.0, 10.0, 100.0, 1e3, 1e4, 1e5)
# Edges for second-valued latency observations (100us .. 10s).
LATENCY_EDGES: tuple[float, ...] = (1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0)


def _accumulate_exact(partials: list[float], value: float) -> None:
    """One Shewchuk accumulation step (the ``math.fsum`` algorithm).

    Afterwards ``partials`` is a non-overlapping expansion representing
    ``value + sum(old partials)`` *exactly*. Because the expansion
    tracks the exact real sum, accumulation is associative and
    commutative — the property naive float ``+=`` lacks — which is what
    keeps merged histogram sums bit-identical to serial collection
    regardless of how observations were sharded.
    """
    x = value
    i = 0
    for y in partials:
        if abs(x) < abs(y):
            x, y = y, x
        hi = x + y
        lo = y - (hi - x)
        if lo:
            partials[i] = lo
            i += 1
        x = hi
    partials[i:] = [x]


class _Histogram:
    """Fixed-edge histogram: ``counts[i]`` holds values in
    ``(edges[i-1], edges[i]]``; the trailing bucket is overflow.

    A value exactly equal to an edge lands in that edge's bucket
    (upper-bound inclusive), so bucket assignment is deterministic —
    the merge-equality property tests pin this.
    """

    __slots__ = ("_partials", "count", "counts", "edges")

    def __init__(self, edges: tuple[float, ...]) -> None:
        self.edges = edges
        self.counts = [0] * (len(edges) + 1)
        self._partials: list[float] = []
        self.count = 0

    @property
    def total(self) -> float:
        return math.fsum(self._partials)

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.edges, value)] += 1
        _accumulate_exact(self._partials, value)
        self.count += 1

    def merge(self, other: _Histogram) -> None:
        self.counts = [a + b for a, b in zip(self.counts, other.counts)]
        for p in other._partials:
            _accumulate_exact(self._partials, p)
        self.count += other.count

    def __getstate__(self) -> dict[str, Any]:
        return {
            "edges": self.edges,
            "counts": self.counts,
            "_partials": self._partials,
            "count": self.count,
        }

    def __setstate__(self, state: dict[str, Any]) -> None:
        for slot, value in state.items():
            setattr(self, slot, value)


class _SpanStats:
    """Aggregated wall-clock statistics for one span name."""

    __slots__ = ("count", "max_s", "min_s", "total_s")

    def __init__(self) -> None:
        self.count = 0
        self.total_s = 0.0
        self.min_s = float("inf")
        self.max_s = 0.0

    def record(self, elapsed: float) -> None:
        self.count += 1
        self.total_s += elapsed
        self.min_s = min(self.min_s, elapsed)
        self.max_s = max(self.max_s, elapsed)

    def merge(self, other: _SpanStats) -> None:
        self.count += other.count
        self.total_s += other.total_s
        self.min_s = min(self.min_s, other.min_s)
        self.max_s = max(self.max_s, other.max_s)

    def __getstate__(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "total_s": self.total_s,
            "min_s": self.min_s,
            "max_s": self.max_s,
        }

    def __setstate__(self, state: dict[str, Any]) -> None:
        for slot, value in state.items():
            setattr(self, slot, value)


class _Span:
    """A live timing context; created by :meth:`MetricsRegistry.span`."""

    __slots__ = ("_name", "_qualified", "_registry", "_start")

    def __init__(self, registry: MetricsRegistry, name: str) -> None:
        self._registry = registry
        self._name = name
        self._qualified = name
        self._start = 0.0

    def __enter__(self) -> None:
        stack = self._registry._span_stack
        stack.append(self._name)
        self._qualified = ".".join(stack)
        self._start = time.perf_counter()

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        elapsed = time.perf_counter() - self._start
        self._registry._record_span(self._qualified, elapsed)
        self._registry._span_stack.pop()


class _NullSpan:
    """Shared no-op context returned by :meth:`NullRegistry.span`."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullRegistry:
    """The disabled-mode sink: every method is a no-op.

    Hot paths call ``metrics().inc(...)`` / ``with metrics().span(...)``
    unconditionally; when instrumentation is off those calls land here
    and do nothing. One shared instance, :data:`NULL_REGISTRY`, is the
    context-var default.
    """

    __slots__ = ()

    def inc(self, name: str, n: int = 1) -> None:
        return None

    def counter(self, name: str) -> int:
        return 0

    def gauge(self, name: str, value: float) -> None:
        return None

    def observe(
        self, name: str, value: float, edges: Sequence[float] | None = None
    ) -> None:
        return None

    def span(self, name: str) -> _NullSpan:
        return _NULL_SPAN

    def absorb(self, other: AnyRegistry) -> None:
        return None

    def snapshot(self) -> dict[str, Any]:
        return {"counters": {}, "gauges": {}, "histograms": {}, "spans": {}}

    def report(self) -> str:
        return "(metrics disabled: no active registry)"


NULL_REGISTRY = NullRegistry()


class MetricsRegistry:
    """Counters, gauges, fixed-edge histograms, and span timings.

    Mergeable with ``+`` (and in place with :meth:`absorb`); ``sum``
    over per-shard registries works because ``0 + registry`` is the
    registry. Merging follows the sketch algebra: a
    :meth:`_check_mergeable` guard rejects histogram bucket-edge
    mismatches before any state combines.
    """

    __slots__ = ("_counters", "_gauges", "_histograms", "_span_stack", "_spans")

    def __init__(self) -> None:
        self._counters: dict[str, int] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, _Histogram] = {}
        self._spans: dict[str, _SpanStats] = {}
        self._span_stack: list[str] = []

    # -- recording ---------------------------------------------------- #

    def inc(self, name: str, n: int = 1) -> None:
        """Add ``n`` to counter ``name`` (created at 0)."""
        self._counters[name] = self._counters.get(name, 0) + n

    def counter(self, name: str) -> int:
        """Current value of counter ``name`` (0 if never incremented)."""
        return self._counters.get(name, 0)

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` (last write wins)."""
        self._gauges[name] = float(value)

    def observe(
        self, name: str, value: float, edges: Sequence[float] | None = None
    ) -> None:
        """Record ``value`` into histogram ``name``.

        Bucket edges are fixed at the histogram's first observation
        (``edges`` or :data:`DEFAULT_EDGES`); passing different edges
        later raises ``ValueError`` rather than silently re-bucketing.
        """
        hist = self._histograms.get(name)
        if hist is None:
            hist = _Histogram(tuple(edges) if edges is not None else DEFAULT_EDGES)
            self._histograms[name] = hist
        elif edges is not None and tuple(edges) != hist.edges:
            raise ValueError(
                f"histogram {name!r} has fixed edges {hist.edges}; "
                f"got conflicting edges {tuple(edges)}"
            )
        hist.observe(value)

    def span(self, name: str) -> _Span:
        """A ``with`` context timing a block under ``name``.

        Spans nest: entering ``span("b")`` inside ``span("a")`` records
        under ``"a.b"``. Use only as a ``with`` context (reprolint
        RL007) — manual ``__enter__``/``__exit__`` pairs can leak the
        nesting stack on exceptions.
        """
        return _Span(self, name)

    def _record_span(self, qualified: str, elapsed: float) -> None:
        stats = self._spans.get(qualified)
        if stats is None:
            stats = _SpanStats()
            self._spans[qualified] = stats
        stats.record(elapsed)

    # -- merge algebra ------------------------------------------------ #

    def _check_mergeable(self, other: MetricsRegistry) -> None:
        for name, hist in self._histograms.items():
            theirs = other._histograms.get(name)
            if theirs is not None and theirs.edges != hist.edges:
                raise ValueError(
                    f"cannot merge registries: histogram {name!r} bucket "
                    f"edges differ ({hist.edges} vs {theirs.edges})"
                )

    def absorb(self, other: AnyRegistry) -> None:
        """Merge ``other`` into this registry in place.

        Counters, histogram buckets, and span counts add; span min/max
        combine; gauges are right-biased (``other`` wins). Absorbing a
        :class:`NullRegistry` is a no-op, so merge loops need no
        isinstance branches. ``other``'s spans merge under this
        registry's open span path, as if they had run inside it -- so a
        fan's worker spans nest under the span that dispatched it.
        """
        if isinstance(other, NullRegistry):
            return
        self._check_mergeable(other)
        for name, n in other._counters.items():
            self._counters[name] = self._counters.get(name, 0) + n
        self._gauges.update(other._gauges)
        for name, hist in other._histograms.items():
            mine = self._histograms.get(name)
            if mine is None:
                mine = _Histogram(hist.edges)
                self._histograms[name] = mine
            mine.merge(hist)
        prefix = "".join(f"{name}." for name in self._span_stack)
        for name, stats in other._spans.items():
            ours = self._spans.get(prefix + name)
            if ours is None:
                ours = _SpanStats()
                self._spans[prefix + name] = ours
            ours.merge(stats)

    def __add__(self, other: AnyRegistry | int) -> MetricsRegistry:
        if isinstance(other, int):
            if other == 0:
                return self
            return NotImplemented
        merged = MetricsRegistry()
        merged.absorb(self)
        merged.absorb(other)
        return merged

    def __radd__(self, other: AnyRegistry | int) -> MetricsRegistry:
        return self.__add__(other)

    # -- output ------------------------------------------------------- #

    def snapshot(self) -> dict[str, Any]:
        """A stable JSON-able view: sorted keys, builtin types only."""
        return {
            "counters": {k: self._counters[k] for k in sorted(self._counters)},
            "gauges": {k: self._gauges[k] for k in sorted(self._gauges)},
            "histograms": {
                k: {
                    "edges": list(h.edges),
                    "counts": list(h.counts),
                    "sum": h.total,
                    "count": h.count,
                }
                for k, h in sorted(self._histograms.items())
            },
            "spans": {
                k: {
                    "count": s.count,
                    "total_s": s.total_s,
                    "min_s": s.min_s,
                    "max_s": s.max_s,
                }
                for k, s in sorted(self._spans.items())
            },
        }

    def snapshot_json(self) -> str:
        """The snapshot serialised as deterministic, sorted-key JSON."""
        return json.dumps(self.snapshot(), indent=2, sort_keys=True)

    def report(self) -> str:
        """Render the snapshot as an aligned human-readable table."""
        snap = self.snapshot()
        lines: list[str] = []
        if snap["counters"]:
            lines.append("counters")
            width = max(len(k) for k in snap["counters"])
            for name, value in snap["counters"].items():
                lines.append(f"  {name:<{width}}  {value:>12}")
        if snap["gauges"]:
            lines.append("gauges")
            width = max(len(k) for k in snap["gauges"])
            for name, value in snap["gauges"].items():
                lines.append(f"  {name:<{width}}  {value:>12.6g}")
        if snap["histograms"]:
            lines.append("histograms")
            for name, h in snap["histograms"].items():
                buckets = " ".join(str(c) for c in h["counts"])
                lines.append(
                    f"  {name}  n={h['count']}  sum={h['sum']:.6g}"
                    f"  buckets=[{buckets}]"
                )
        if snap["spans"]:
            lines.append("spans")
            for name, s in snap["spans"].items():
                lines.append(
                    f"  {name}  n={s['count']}  total={s['total_s']:.4f}s"
                    f"  min={s['min_s']:.4f}s  max={s['max_s']:.4f}s"
                )
        return "\n".join(lines) if lines else "(no metrics recorded)"


AnyRegistry = Union[MetricsRegistry, NullRegistry]

_ACTIVE: ContextVar[AnyRegistry] = ContextVar(
    "repro_obs_registry", default=NULL_REGISTRY
)


def metrics() -> AnyRegistry:
    """The active registry (the shared null registry when disabled)."""
    return _ACTIVE.get()


def enabled() -> bool:
    """Is a real registry active in the current context?"""
    return _ACTIVE.get() is not NULL_REGISTRY


@contextmanager
def use_registry(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Install ``registry`` as the active sink for the ``with`` scope.

    Scoping is per :mod:`contextvars` context: executor worker threads
    and processes do **not** see the parent's registry — the fan
    primitive collects per-shard registries explicitly and merges them
    back (``repro.stream.executor.fan``), which is what keeps merged
    snapshots deterministic.
    """
    token = _ACTIVE.set(registry)
    try:
        yield registry
    finally:
        _ACTIVE.reset(token)


def report(registry: AnyRegistry | None = None) -> str:
    """Human-readable table for ``registry`` (default: the active one)."""
    return (registry if registry is not None else metrics()).report()
