"""Pluggable execution backends and the one fan primitive.

Because :class:`~repro.stream.sketch.SupportSketch` is additive across
disjoint transaction shards, counting a large dataset is a pure
map-merge: split the transactions, sketch every shard independently,
and sum. The *executor* decides where the map runs:

* ``"serial"`` -- in-process loop (deterministic, zero overhead);
* ``"thread"`` -- a thread pool; numpy's bitwise kernels release the
  GIL, so stripe reductions overlap on multi-core machines;
* ``"process"`` -- a process pool; full parallelism at the cost of
  pickling each shard, the distributed-style deployment shape (each
  worker could as well be a different machine).

All three produce bit-identical merged sketches; the Hypothesis
property suite pins ``sum(shard sketches) == single-scan counts`` for
arbitrary partitions, including empty shards.

Every fan in the engine -- shard sketches here, fleet store scans,
bootstrap replicate blocks, supervised partial sketches -- goes through
:func:`fan`, and every function-scoped runner through :func:`owned`:

* :func:`owned` resolves a backend *name* to a runner the ``with``
  block owns and releases; an executor *instance* passes through
  untouched for its owner to keep reusing;
* :func:`fan` maps one top-level worker over its payloads and returns a
  :class:`FanReport` (``map_report`` on a supervised runner, ``map`` on
  a plain one), tallying ``storage.bytes_shipped`` when the runner is
  process-backed.

When a :mod:`repro.obs` registry is active in the *caller's* context,
:func:`fan` runs each worker under a fresh per-shard registry (worker
threads and processes never see the caller's context variable), ships
it back with the result, and merges the registries in shard order, the
workers' spans nested under the dispatching span. Counters and
histogram buckets are integer sums, so the merged snapshot is
identical on every backend — the obs property suite pins serial ==
thread == process, counter for counter.
"""

from __future__ import annotations

from concurrent.futures import (
    BrokenExecutor,
    Executor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Any, Callable, ClassVar, Iterable, Iterator, Sequence

from repro._typing import DatasetLike, ExecutorLike, StructureOrPlan

from repro.data.transactions import BitmapIndex
from repro.errors import ExecutorError, InvalidParameterError, ShardFailedError
from repro.obs import MetricsRegistry, enabled, metrics, use_registry
from repro.stream.sketch import (
    PartitionSketch,
    SupportSketch,
    as_partition_plan,
    canonical_itemsets,
)


class SerialExecutor:
    """Run the map step in the calling thread."""

    name = "serial"

    def __init__(self) -> None:
        self._closed = False

    def map(self, fn: Callable[[Any], Any], items: Iterable[Any]) -> list[Any]:
        self._check_open()
        return [fn(item) for item in items]

    def submit(self, fn: Callable[[Any], Any], item: Any) -> Future[Any]:
        """Run ``fn(item)`` eagerly, returning an already-settled future.

        Gives the serial backend the same submit/harvest surface the
        pooled backends have, so a supervisor can drive all three rungs
        of its degradation ladder through one code path.
        """
        self._check_open()
        future: Future[Any] = Future()
        future.set_running_or_notify_cancel()
        try:
            future.set_result(fn(item))
        except Exception as exc:  # reprolint: disable=RL010(failure is captured on the future and re-raised by its result, matching the pooled backends)
            future.set_exception(exc)
        return future

    def close(self) -> None:
        """Permanently retire the executor; later map/submit calls raise."""
        self._closed = True

    def _check_open(self) -> None:
        if self._closed:
            raise ExecutorError(
                "serial executor is closed; close() is permanent -- "
                "construct a new executor to keep mapping"
            )


class _PooledExecutor:
    """Shared lifecycle for the pooled backends.

    The pool is created lazily on first use and **reused across map
    calls**: a streaming workload maps once per chunk, and paying a
    pool spawn/teardown (workers, and for processes an interpreter
    start) per chunk would dwarf the counting itself. Workers are
    released by :meth:`shutdown` (also at interpreter exit).
    """

    #: concrete pool constructor; set by subclasses
    _pool_factory: ClassVar[Callable[..., Executor] | None] = None

    name: ClassVar[str] = "pooled"

    def __init__(self, max_workers: int | None = None) -> None:
        self.max_workers = max_workers
        self._pool: Executor | None = None
        self._closed = False

    def map(self, fn: Callable[[Any], Any], items: Iterable[Any]) -> list[Any]:
        pool = self._ensure_pool()
        try:
            return list(pool.map(fn, items))
        except BrokenExecutor as exc:
            # Never leak the raw concurrent.futures failure: release the
            # carcass (a later map respawns workers) and raise the typed
            # error. Shard-level retry/re-execution lives one layer up,
            # in repro.resilience.SupervisedExecutor.
            self.shutdown(wait=False)
            raise ExecutorError(
                f"{self.name} pool broke mid-map ({exc!r}); the pool was "
                "released and a later map respawns workers. Wrap the fan "
                "in repro.resilience.SupervisedExecutor to retry the "
                "unfinished shards instead of failing the whole map."
            ) from exc

    def submit(self, fn: Callable[[Any], Any], item: Any) -> Future[Any]:
        """Submit one task, returning its future.

        Unlike :meth:`map`, a :class:`BrokenExecutor` propagates raw
        here: submit/harvest is the supervisor seam, and the supervisor
        needs the backend-specific signal to decide pool rebuilds.
        """
        return self._ensure_pool().submit(fn, item)

    def shutdown(self, wait: bool = True) -> None:
        """Release the worker pool (a later map lazily recreates it)."""
        if self._pool is not None:
            self._pool.shutdown(wait=wait)
            self._pool = None

    def close(self) -> None:
        """Permanently retire the executor; later map/submit calls raise."""
        self.shutdown(wait=False)
        self._closed = True

    def _ensure_pool(self) -> Executor:
        if self._closed:
            raise ExecutorError(
                f"{self.name} executor is closed; close() is permanent -- "
                "construct a new executor (or use shutdown(), which a "
                "later map recovers from) to keep mapping"
            )
        if self._pool is None:
            factory = self._pool_factory
            if factory is None:  # pragma: no cover - abstract-base misuse
                raise NotImplementedError(
                    "pooled executor subclasses must set _pool_factory"
                )
            self._pool = factory(max_workers=self.max_workers)
        return self._pool


class ThreadExecutor(_PooledExecutor):
    """Run the map step on a thread pool (numpy releases the GIL)."""

    name = "thread"
    _pool_factory = ThreadPoolExecutor


class ProcessExecutor(_PooledExecutor):
    """Run the map step on a process pool (shards are pickled over)."""

    name = "process"
    _pool_factory = ProcessPoolExecutor


_EXECUTORS = {
    "serial": SerialExecutor,
    "thread": ThreadExecutor,
    "process": ProcessExecutor,
}


def get_executor(executor: ExecutorLike) -> ExecutorLike:
    """Resolve an executor name or pass an executor instance through."""
    if isinstance(executor, str):
        if executor == "supervised":
            # Lazy import: repro.resilience sits above this module and
            # wraps the plain backends defined here.
            from repro.resilience import SupervisedExecutor

            return SupervisedExecutor()  # reprolint: disable=RL003(factory hands ownership to the caller, the same contract as every get_executor resolution)
        try:
            return _EXECUTORS[executor]()
        except KeyError:
            raise InvalidParameterError(
                f"unknown executor {executor!r}; expected one of "
                f"{tuple(_EXECUTORS) + ('supervised',)}"
            ) from None
    if hasattr(executor, "map"):
        return executor
    raise InvalidParameterError(
        f"executor must be a name or expose .map(fn, items), got {executor!r}"
    )


def process_backed(executor: ExecutorLike) -> bool:
    """True when the executor's map step runs in worker *processes*.

    The fan call sites use this to decide pickling-cost accounting
    (``storage.bytes_shipped``) and closure-shipping guards. Plain
    executors answer by type; wrappers such as
    :class:`repro.resilience.SupervisedExecutor` answer for their
    *current* rung via a ``process_backed`` attribute.
    """
    if isinstance(executor, ProcessExecutor):
        return True
    return bool(getattr(executor, "process_backed", False))


@contextmanager
def owned(executor: ExecutorLike) -> Iterator[Any]:
    """Resolve ``executor`` to a runner for the ``with`` block.

    A backend *name* resolves to a fresh runner that the block owns and
    releases on exit; an executor *instance* passes through untouched,
    and its owner keeps reusing it.
    """
    runner = get_executor(executor)
    if not isinstance(executor, str):
        yield runner
        return
    try:
        yield runner
    finally:
        shutdown = getattr(runner, "shutdown", None)
        if shutdown is not None:
            shutdown()


@dataclass(frozen=True)
class ShardFailure:
    """One failed attempt: which shard, which try, on which rung, why."""

    shard: int
    attempt: int
    backend: str
    error: str


@dataclass(frozen=True)
class FanReport:
    """The full outcome of one fan.

    ``results`` is in shard order with ``None`` at quarantined slots;
    ``failed``/``errors`` are aligned (shard index, last rendered
    cause). ``failures`` is the complete attempt-level log, in the
    order failures were observed. Only a supervised runner can fill the
    failure fields; a plain runner's fan either completes or raises.
    """

    results: tuple[Any, ...]
    failed: tuple[int, ...] = ()
    errors: tuple[str, ...] = ()
    failures: tuple[ShardFailure, ...] = ()
    retries: int = 0
    pool_rebuilds: int = 0
    degraded: bool = False
    backend: str = "custom"

    @property
    def ok(self) -> bool:
        return not self.failed

    def raise_if_failed(self) -> FanReport:
        if self.failed:
            raise ShardFailedError(
                f"{len(self.failed)} shard(s) quarantined after exhausting "
                f"their retry budget (final backend {self.backend!r}): "
                f"shards {list(self.failed)}; last causes: {list(self.errors)}",
                shards=self.failed,
                errors=self.errors,
            )
        return self


def _observed(
    call: tuple[Callable[[Any], Any], Any],
) -> tuple[Any, MetricsRegistry]:
    """Run one worker under a fresh registry that travels back with it.

    Top-level so the process backend can pickle it; worker threads and
    processes never see the caller's registry, so instrumentation
    inside the worker lands here instead of the null default.
    """
    worker, payload = call
    local = MetricsRegistry()
    with use_registry(local):
        result = worker(payload)
    return result, local


def fan(
    worker: Callable[[Any], Any],
    payloads: Iterable[Any],
    executor: ExecutorLike,
    *,
    ships: Callable[[Any], int] | None = None,
) -> FanReport:
    """Map a top-level ``worker`` over ``payloads`` on ``executor``.

    The runner comes from :func:`owned`, so a backend name is released
    before returning and an instance stays open. ``ships`` says how
    many bytes one payload costs to pickle; on a process-backed runner
    their sum is tallied in ``storage.bytes_shipped``. A supervised
    runner (one with ``map_report``) may return quarantined slots, so
    strict callers read ``fan(...).raise_if_failed().results``.
    """
    payloads = list(payloads)
    collect = enabled()
    task: Callable[[Any], Any] = _observed if collect else worker
    items: list[Any] = [(worker, p) for p in payloads] if collect else payloads
    with owned(executor) as runner:
        if ships is not None and process_backed(runner):
            metrics().inc("storage.bytes_shipped", sum(map(ships, payloads)))
        if hasattr(runner, "map_report"):
            report: FanReport = runner.map_report(task, items)
        else:
            report = FanReport(
                tuple(runner.map(task, items)),
                backend=str(getattr(runner, "name", "custom")),
            )
    if not collect:
        return report
    sink = metrics()
    failed = set(report.failed)
    results: list[Any] = []
    for shard, outcome in enumerate(report.results):
        if shard in failed:
            results.append(None)
            continue
        result, local = outcome
        sink.absorb(local)
        results.append(result)
    return replace(report, results=tuple(results))


# --------------------------------------------------------------------- #
# Shard workers and splitters
# --------------------------------------------------------------------- #


@contextmanager
def _shard_span(rows: int) -> Iterator[None]:
    """Time one shard sketch and count it and its rows."""
    sink = metrics()
    with sink.span("stream.shard.sketch"):
        yield
    sink.inc("stream.shards.sketched")
    sink.observe("stream.shard.rows", float(rows))


def _sketch_shard(payload: tuple[Any, ...]) -> SupportSketch:
    """Top-level map worker (must be picklable for the process backend)."""
    transactions, itemsets, n_items = payload
    with _shard_span(len(transactions)):
        return SupportSketch.from_transactions(transactions, itemsets, n_items)


def shipped_row_bytes(shard: Sequence[Any]) -> int:
    """Approximate pickled payload bytes of a row shard (8 bytes/item+row).

    Feeds the ``storage.bytes_shipped`` counter when a *process* fan has
    to ship the rows themselves; the handle-based fans over a
    shared-medium store ship none, which is the zero the out-of-core
    invariants pin.
    """
    return 8 * (len(shard) + sum(len(t) for t in shard))


def shipped_index_bytes(index: BitmapIndex) -> int:
    """Pickled payload bytes of one bitmap index sent to a worker process.

    A shared-medium (mmap) index pickles as a stripe handle and ships
    no row bytes; a RAM index ships its whole packed buffer.
    """
    return 0 if index.handle() is not None else int(index._buf.nbytes)


def shard_ranges(n_rows: int, n_shards: int) -> list[tuple[int, int]]:
    """Contiguous, near-even ``[start, stop)`` row ranges covering ``n_rows``."""
    if n_shards < 1:
        raise InvalidParameterError("n_shards must be >= 1")
    base, extra = divmod(n_rows, n_shards)
    ranges: list[tuple[int, int]] = []
    start = 0
    for i in range(n_shards):
        size = base + (1 if i < extra else 0)
        ranges.append((start, start + size))
        start += size
    return ranges


def shard_transactions(
    transactions: Sequence[Any], n_shards: int
) -> list[list[Any]]:
    """Split transactions into ``n_shards`` contiguous, near-even shards.

    With fewer transactions than shards some shards are empty; the merge
    identity makes that harmless.
    """
    transactions = list(transactions)
    return [
        transactions[a:b] for a, b in shard_ranges(len(transactions), n_shards)
    ]


def sketch_shards(
    shards: Sequence[Sequence[Any]],
    itemsets: Iterable[Iterable[int]],
    n_items: int,
    executor: ExecutorLike = "serial",
) -> list[SupportSketch]:
    """Sketch every transaction shard on the chosen backend.

    A backend *name* resolves to a runner this call owns and releases;
    an executor *instance* stays open for its owner to reuse.
    """
    canon = canonical_itemsets(itemsets)
    payloads = [(list(shard), canon, n_items) for shard in shards]
    report = fan(
        _sketch_shard,
        payloads,
        executor,
        ships=lambda p: shipped_row_bytes(p[0]),
    )
    return list(report.raise_if_failed().results)


def sharded_support_sketch(
    transactions: Sequence[Any],
    itemsets: Iterable[Iterable[int]],
    n_items: int,
    n_shards: int = 1,
    executor: ExecutorLike = "serial",
) -> SupportSketch:
    """Map-merge support counting: shard, sketch in parallel, sum.

    Equivalent to a single-scan :meth:`SupportSketch.from_transactions`
    over the whole bag (the property suite enforces this), but the map
    step fans out over the executor's workers.
    """
    shards = shard_transactions(transactions, n_shards)
    sketches = sketch_shards(shards, itemsets, n_items, executor=executor)
    merged = sum(sketches, SupportSketch.empty(itemsets, n_items))
    return merged


# --------------------------------------------------------------------- #
# Shared-index (zero-copy) map-merge
# --------------------------------------------------------------------- #


def _sketch_index_shard(payload: tuple[Any, ...]) -> SupportSketch:
    """Top-level map worker counting one row range of a shared index.

    Serial/thread backends receive the index by reference; the process
    backend receives it through pickle, which for a store with a shared
    medium is a byte-cheap :class:`~repro.data.storage.StripeHandle`
    the worker re-maps zero-copy (``BitmapIndex.__reduce_ex__``) -- the
    attach happens during payload deserialisation, the counting under
    the worker's registry.
    """
    index, start, stop, canon = payload
    with _shard_span(stop - start):
        counts = canon.plan().count(index, start=start, stop=stop)
        return SupportSketch._from_canonical(
            canon, counts, stop - start, index.n_items
        )


def sketch_index_shards(
    index: BitmapIndex,
    itemsets: Iterable[Iterable[int]],
    n_shards: int = 1,
    executor: ExecutorLike = "serial",
) -> list[SupportSketch]:
    """Sketch contiguous row ranges of one *shared* index, no row copies.

    The ranged counting seam (:meth:`SupportCountingPlan.count` with
    ``start``/``stop``) lets every shard scan its slice of the same
    stripes. On the serial/thread backends the workers share the index
    by reference. On the process backend the shipping cost depends on
    the index's store: a shared-medium (mmap) store pickles as a stripe
    handle -- ``storage.bytes_shipped`` stays 0 and workers attach
    zero-copy -- while a RAM store must ship the packed buffer to every
    worker, tallied in the same counter (the out-of-core bench measures
    exactly this gap).
    """
    canon = canonical_itemsets(itemsets)
    ranges = shard_ranges(index.n_transactions, n_shards)
    payloads = [(index, a, b, canon) for a, b in ranges]
    report = fan(
        _sketch_index_shard,
        payloads,
        executor,
        ships=lambda p: shipped_index_bytes(p[0]),
    )
    return list(report.raise_if_failed().results)


def sharded_index_sketch(
    index: BitmapIndex,
    itemsets: Iterable[Iterable[int]],
    n_shards: int = 1,
    executor: ExecutorLike = "serial",
) -> SupportSketch:
    """Map-merge counting over a shared index: range-split, sketch, sum.

    Equivalent to one full-scan sketch of the index (the
    backend-parametrized property suite enforces bit-identity across
    backends and executors), but no shard ever holds a row copy.
    """
    sketches = sketch_index_shards(
        index, itemsets, n_shards=n_shards, executor=executor
    )
    return sum(sketches, SupportSketch.empty(itemsets, index.n_items))


# --------------------------------------------------------------------- #
# Partition (tabular) map-merge
# --------------------------------------------------------------------- #


def _sketch_partition_shard(payload: tuple[Any, ...]) -> PartitionSketch:
    """Top-level map worker for tabular shards.

    Picklable for the process backend as long as the plan's assigner is
    (tree and grid assigners are; composed GCR-overlay assigners are
    closures and need the serial or thread backend).
    """
    dataset, plan = payload
    with _shard_span(len(dataset)):
        return PartitionSketch.from_dataset(dataset, plan)


def shard_dataset(dataset: DatasetLike, n_shards: int) -> list[Any]:
    """Split a tabular dataset into contiguous, near-even row slices.

    Slices are numpy views (:meth:`TabularDataset.slice_rows`), so
    sharding is O(shards), not O(rows). With fewer rows than shards some
    shards are empty; the merge identity makes that harmless.
    """
    return [
        dataset.slice_rows(a, b) for a, b in shard_ranges(len(dataset), n_shards)
    ]


def sketch_partition_shards(
    shards: Sequence[Any],
    structure_or_plan: StructureOrPlan,
    executor: ExecutorLike = "serial",
) -> list[PartitionSketch]:
    """Sketch every tabular shard on the chosen backend.

    A backend *name* resolves to a runner this call owns and releases;
    an executor *instance* stays open for its owner to reuse.
    """
    plan = as_partition_plan(structure_or_plan)
    payloads = [(shard, plan) for shard in shards]
    report = fan(_sketch_partition_shard, payloads, executor)
    return list(report.raise_if_failed().results)


def sharded_partition_sketch(
    dataset: DatasetLike,
    structure_or_plan: StructureOrPlan,
    n_shards: int = 1,
    executor: ExecutorLike = "serial",
) -> PartitionSketch:
    """Map-merge partition counting: shard rows, sketch in parallel, sum.

    Equivalent to a single-scan :meth:`PartitionSketch.from_dataset`
    over the whole dataset (the property suite enforces this), but the
    map step fans out over the executor's workers.
    """
    plan = as_partition_plan(structure_or_plan)
    if n_shards == 1:
        # Single-shard fast path: skip the slice/merge round trip (the
        # streaming hot path sketches every chunk through here).
        return PartitionSketch.from_dataset(dataset, plan)
    shards = shard_dataset(dataset, n_shards)
    sketches = sketch_partition_shards(shards, plan, executor=executor)
    return sum(sketches, PartitionSketch.empty(plan))
