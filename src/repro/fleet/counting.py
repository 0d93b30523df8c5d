"""Per-store counting state for all-pairs fleet measurement.

The all-pairs workload has a wasteful naive shape: computing
``deviation(M_i, M_j, D_i, D_j)`` pair by pair scans every dataset once
per *pair*, i.e. ``N - 1`` times each. But for lits-models the GCR of a
pair is just the union of the two itemset collections, so the counts a
store contributes to **all** of its pairings are supports of itemsets
drawn from one fleet-wide family. :class:`LitsStoreCounter` exploits
that: it memoises ``itemset -> absolute count`` per store and answers
:meth:`prime` requests for whatever is still missing with **one**
batched :meth:`~repro.data.transactions.BitmapIndex.support_counts`
pass -- so an N-store matrix scans each dataset once per GCR family,
not once per pair (``n_scans`` proves it).

Partition (dt-/cluster-) fleets get the same property for free from the
memoised assigner passes of :mod:`repro.core.partition_plan`: every GCR
overlay re-uses each store's base ``row -> cell`` pass, so
:func:`prime_partition_passes` only has to force those base passes --
optionally in parallel -- before the per-pair overlay lookups run.

Both priming steps fan out over the :mod:`repro.stream.executor`
backends. Support-counting payloads (a bitmap index plus an itemset
list) pickle cleanly, so lits fleets can use the process pool; GCR
overlay assigners are closures, so partition fleets are limited to the
serial and thread backends.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from repro._typing import DatasetLike, ExecutorLike
from repro.core.partition_plan import cell_assignments
from repro.errors import InvalidParameterError
from repro.obs import metrics
from repro.stream.executor import fan, owned, process_backed, shipped_index_bytes


class LitsStoreCounter:
    """Memoised ``itemset -> absolute count`` for one store's dataset.

    The memo survives across matrix computations (exhaustive after
    pruned, incremental updates), so a pair is never the reason a store
    is re-scanned: only genuinely new itemsets trigger another batched
    pass. If the underlying dataset grew (an appendable
    :class:`~repro.stream.chunks.TransactionLog`), the memo self-heals:
    the next :meth:`prime` notices the length change and recounts.
    """

    __slots__ = ("dataset", "n_scans", "_counts", "_n_rows")

    def __init__(self, dataset: DatasetLike) -> None:
        self.dataset = dataset
        self.n_scans = 0
        self._counts: dict[frozenset[int], int] = {}
        self._n_rows = len(dataset)

    @property
    def n_rows(self) -> int:
        """Row count the memoised counts refer to."""
        return self._n_rows

    def reset(self) -> None:
        """Drop the memo (the store's data or model changed)."""
        self._counts.clear()
        self._n_rows = len(self.dataset)

    def missing(self, itemsets: Iterable[frozenset[int]]) -> list[frozenset[int]]:
        """The itemsets not yet memoised, in first-seen order."""
        if len(self.dataset) != self._n_rows:
            self.reset()
            return list(dict.fromkeys(itemsets))
        counts = self._counts
        return list(dict.fromkeys(s for s in itemsets if s not in counts))

    def prime(self, itemsets: Iterable[frozenset[int]]) -> None:
        """Memoise every missing itemset with one batched scan."""
        missing = self.missing(itemsets)
        if missing:
            self.absorb(missing, self.dataset.index.support_counts(missing))

    def absorb(
        self, itemsets: Sequence[frozenset[int]], counts: np.ndarray
    ) -> None:
        """Record the result of a (possibly remote) batched scan."""
        self.n_scans += 1
        metrics().inc("fleet.store.scans")
        self._counts.update(zip(itemsets, (int(c) for c in counts)))

    def vector(self, itemsets: Sequence[frozenset[int]]) -> np.ndarray:
        """The memoised counts of ``itemsets`` as an aligned vector."""
        counts = self._counts
        return np.array([counts[s] for s in itemsets], dtype=np.int64)


def _count_support_payload(payload: tuple[Any, ...]) -> np.ndarray:
    """Top-level map worker (picklable for the process backend)."""
    index, itemsets = payload
    with metrics().span("fleet.store.scan"):
        return index.support_counts(itemsets)


def prime_lits_counters(
    counters: Sequence[LitsStoreCounter],
    needed: Mapping[int, Sequence[frozenset[int]]],
    executor: ExecutorLike = "serial",
) -> None:
    """Fill every counter's missing itemsets, one batched scan per store.

    ``needed`` maps a store index to the itemsets its pairings require;
    the scans (one per store with anything missing) fan out across the
    executor and the results are absorbed into the counters in-process.
    """
    missing = {
        i: counters[i].missing(itemsets) for i, itemsets in needed.items()
    }
    todo = [i for i, m in missing.items() if m]
    if not todo:
        return
    payloads = [(counters[i].dataset.index, missing[i]) for i in todo]
    report = fan(
        _count_support_payload,
        payloads,
        executor,
        ships=lambda p: shipped_index_bytes(p[0]),
    )
    for i, counts in zip(todo, report.raise_if_failed().results):
        counters[i].absorb(missing[i], counts)


def _assign_cells(payload: tuple[Any, ...]) -> None:
    """Top-level map worker forcing one store's base assigner pass."""
    assigner, dataset = payload
    with metrics().span("fleet.store.assign"):
        cell_assignments(assigner, dataset)


def prime_partition_passes(
    models: Sequence[Any],
    datasets: Sequence[Any],
    indices: Iterable[int],
    executor: ExecutorLike = "serial",
) -> None:
    """Force each store's base ``row -> cell`` assigner pass, memoised.

    Every GCR overlay a store participates in composes its *base*
    assigner, and :func:`repro.core.partition_plan.cell_assignments`
    memoises that pass per dataset -- so forcing the base passes up
    front (in parallel, when the executor allows) leaves the per-pair
    overlay measurement as pure table lookups plus ``bincount``.
    """
    with owned(executor) as runner:
        if process_backed(runner):
            if not getattr(runner, "degradable", False):
                raise InvalidParameterError(
                    "the process executor cannot fan out partition fleets "
                    "(GCR overlay assigners are closures and the assignment "
                    "memo lives in-process); use the serial or thread executor"
                )
            # a pass run in a worker process never reaches this process's
            # memo, so a degradable supervised fan goes straight to the
            # thread rung its ladder would land on
            runner = "thread"
        payloads = [
            (models[i].structure.assigner, datasets[i])
            for i in dict.fromkeys(indices)
        ]
        fan(_assign_cells, payloads, runner).raise_if_failed()
