"""The one fan primitive: lifetime, obs transparency, span nesting.

Every fan entry point resolves its runner through
:func:`repro.stream.executor.owned`: a backend *name* yields a runner
the call owns and must release before returning, an executor
*instance* belongs to its caller and must stay open. The same entry
points must return bit-identical results whether or not a
:mod:`repro.obs` registry is collecting, and worker-side spans must
merge under the span that dispatched the fan on every backend.
"""

from __future__ import annotations

import functools
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import repro.resilience
from repro.core.dtree_model import DtModel
from repro.core.partition_plan import cell_assignments
from repro.data.quest_classify import generate_classification
from repro.data.transactions import TransactionDataset
from repro.fleet.counting import (
    LitsStoreCounter,
    prime_lits_counters,
    prime_partition_passes,
)
from repro.mining.tree.builder import TreeParams
from repro.obs import MetricsRegistry, use_registry
from repro.resilience import (
    SupervisedExecutor,
    partial_partition_sketch,
    partial_support_sketch,
)
from repro.stats.resample_plan import _fan_blocks, _partition_block_counts
from repro.stream.executor import (
    ThreadExecutor,
    shard_dataset,
    shard_transactions,
    sharded_support_sketch,
    sketch_index_shards,
    sketch_partition_shards,
    sketch_shards,
)

TXNS = [
    (0, 1), (1, 2), (0, 2, 3), (3,), (0, 1, 2, 3), (2,), (1,), (0, 3),
] * 4
ITEMSETS = [(0,), (1, 2), (0, 3)]
N_ITEMS = 4


@pytest.fixture(scope="module")
def tabular():
    dataset = generate_classification(120, function=1, seed=4)
    model = DtModel.fit(dataset, TreeParams(max_depth=3, min_leaf=15))
    return model, dataset


def _sketch_shards(executor, tabular):
    return sketch_shards(
        shard_transactions(TXNS, 3), ITEMSETS, N_ITEMS, executor=executor
    )


def _sketch_index_shards(executor, tabular):
    index = TransactionDataset(TXNS, N_ITEMS).index
    return sketch_index_shards(index, ITEMSETS, n_shards=3, executor=executor)


def _sketch_partition_shards(executor, tabular):
    model, dataset = tabular
    return sketch_partition_shards(
        shard_dataset(dataset, 3), model.structure, executor=executor
    )


def _prime_lits_counters(executor, tabular):
    counters = [
        LitsStoreCounter(TransactionDataset(TXNS[:k], N_ITEMS))
        for k in (8, 16)
    ]
    needed = {0: [frozenset({0}), frozenset({1, 2})], 1: [frozenset({3})]}
    prime_lits_counters(counters, needed, executor=executor)
    return [
        counters[i].vector(list(needed[i])).tolist() for i in sorted(needed)
    ]


def _prime_partition_passes(executor, tabular):
    model, _ = tabular
    datasets = [generate_classification(60, function=1, seed=s) for s in (1, 2)]
    prime_partition_passes([model, model], datasets, [0, 1], executor=executor)
    assigner = model.structure.assigner
    return [cell_assignments(assigner, d).tolist() for d in datasets]


def _fan_blocks_many(executor, tabular):
    assignments = np.array([0, 1, 2, 1, 0, 3], dtype=np.int64)
    w = np.arange(24, dtype=np.int64).reshape(4, 6) % 3
    return _fan_blocks(
        _partition_block_counts,
        lambda block: (assignments, 3, block),
        w,
        executor,
        2,
    ).tolist()


def _partial_support_sketch(executor, tabular):
    report = partial_support_sketch(
        shard_transactions(TXNS, 3), ITEMSETS, N_ITEMS, executor=executor
    )
    assert report.complete
    return report.sketch


def _partial_partition_sketch(executor, tabular):
    model, dataset = tabular
    report = partial_partition_sketch(
        shard_dataset(dataset, 3), model.structure, executor=executor
    )
    assert report.complete
    return report.sketch


ENTRY_POINTS = [
    _sketch_shards,
    _sketch_index_shards,
    _sketch_partition_shards,
    _prime_lits_counters,
    _prime_partition_passes,
    _fan_blocks_many,
    _partial_support_sketch,
    _partial_partition_sketch,
]


class _TrackedPool(ThreadPoolExecutor):
    """A thread pool that remembers whether it was released."""

    created: list[_TrackedPool] = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.released = False
        _TrackedPool.created.append(self)

    def shutdown(self, *args, **kwargs):
        self.released = True
        super().shutdown(*args, **kwargs)


@pytest.fixture
def tracked_pools(monkeypatch):
    """Track every thread pool; resolve ``"supervised"`` thread-first.

    The default supervised ladder starts at the process rung, which the
    partition fans cannot use, so the name resolves to a thread-topped
    supervisor here; ownership is the same either way.
    """
    _TrackedPool.created = []
    monkeypatch.setattr(ThreadExecutor, "_pool_factory", _TrackedPool)
    monkeypatch.setattr(
        repro.resilience,
        "SupervisedExecutor",
        functools.partial(SupervisedExecutor, "thread", max_workers=2),
    )
    return _TrackedPool.created


def _instance(backend):
    if backend == "thread":
        return ThreadExecutor(max_workers=2)
    return SupervisedExecutor("thread", max_workers=2)


def _pool_of(runner):
    if isinstance(runner, SupervisedExecutor):
        runner = runner._rungs[0]
    return runner._pool


@pytest.mark.parametrize("backend", ["thread", "supervised"])
@pytest.mark.parametrize("entry", ENTRY_POINTS, ids=lambda f: f.__name__[1:])
class TestFanLifetime:
    def test_name_resolved_pool_is_released(
        self, entry, backend, tabular, tracked_pools
    ):
        entry(backend, tabular)
        assert tracked_pools, "the fan never reached a pool"
        assert all(pool.released for pool in tracked_pools)

    def test_instance_pool_survives(self, entry, backend, tabular):
        runner = _instance(backend)
        try:
            entry(runner, tabular)
            pool = _pool_of(runner)
            assert pool is not None, "the fan shut down its caller's pool"
            assert pool.submit(len, (1, 2)).result(timeout=10) == 2
        finally:
            runner.close()

    def test_results_identical_with_obs_on_and_off(
        self, entry, backend, tabular
    ):
        runner = _instance(backend)
        try:
            plain = entry(runner, tabular)
            with use_registry(MetricsRegistry()):
                observed = entry(runner, tabular)
        finally:
            runner.close()
        assert observed == plain


class TestSpanNesting:
    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_worker_spans_nest_under_the_dispatching_span(self, backend):
        registry = MetricsRegistry()
        with use_registry(registry):
            with registry.span("dispatch"):
                sharded_support_sketch(
                    TXNS, ITEMSETS, N_ITEMS, n_shards=2, executor=backend
                )
        spans = registry.snapshot()["spans"]
        assert spans["dispatch.stream.shard.sketch"]["count"] == 2
        assert "stream.shard.sketch" not in spans
        assert registry.counter("stream.shards.sketched") == 2


class TestPartitionPriming:
    def test_degradable_process_fan_fills_the_in_process_memo(self, tabular):
        # the assignment memo lives in this process, so a degradable
        # supervised process fan must prime here, not in worker processes
        model, _ = tabular
        datasets = [generate_classification(60, function=1, seed=s) for s in (5, 6)]
        runner = SupervisedExecutor("process", on_failure="degrade", max_workers=2)
        try:
            prime_partition_passes([model, model], datasets, [0, 1], executor=runner)
        finally:
            runner.close()
        registry = MetricsRegistry()
        with use_registry(registry):
            for dataset in datasets:
                cell_assignments(model.structure.assigner, dataset)
        assert registry.counter("partition.assign.memo_hits") == 2
        assert registry.counter("partition.assign.computed") == 0
