"""The four workloads, one per end-to-end pipeline of the library.

Each workload

* materialises its inputs from the seed alone (:meth:`materialise`):
  store, stream or basket files written with the library's own writers,
  so the program receives only generated files;
* fixes, untimed, what an operator would fix before running the job and
  what the oracle compares against (:meth:`prepare`);
* runs one job through the same public calls its CLI command makes, in
  one process, with the ``serial`` executor (:meth:`job`), from input
  files to the final result;
* checks a job's result (:meth:`check`, run outside the timed region)
  and can :meth:`corrupt` a good result, so every run proves the oracle
  rejects a wrong answer.

Spans are opened around each call into a layer; the runner supplies the
null tracer for untimed-overhead-free end-to-end runs.
"""

from __future__ import annotations

import dataclasses
import time
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.deviation import deviation
from repro.core.lits import LitsModel
from repro.core.upper_bound import upper_bound_deviation
from repro.data.io import load_transactions, save_transactions
from repro.data.quest_basket import build_pattern_pool, generate_basket
from repro.fleet import FleetDeviationMatrix, probe_itemsets
from repro.stats.bootstrap import deviation_significance
from repro.stream import OnlineChangeMonitor, stream_transaction_chunks
from repro.stream.sketch import SupportSketch
from repro.wire import pack, unpack_model

N_ITEMS = 100
#: Fixes the pattern pools -- the buying processes a workload samples
#: from -- so the work a job does barely moves with the seed argument,
#: which draws the transactions. Pools drawn from the seed changed the
#: reference model's size by up to 15% between seeds.
PROCESS_SEED = 1999


def _seeded(seed: int, tag: int) -> tuple[np.random.Generator, np.random.Generator]:
    """(process generator, sample generator) of one workload.

    The seed argument alone fixes the inputs: the same seed writes the
    same files.
    """
    return (
        np.random.default_rng([PROCESS_SEED, tag]),
        np.random.default_rng([seed, tag]),
    )


class Workload:
    name = ""
    #: why this workload exists: which layer it stresses, which it bypasses
    why = ""

    def __init__(self, workdir: Path, seed: int) -> None:
        self.workdir = workdir
        self.seed = seed

    def materialise(self) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed: operator settings and oracle references."""

    def job(self, tracer: Any) -> Any:
        raise NotImplementedError

    def check(self, result: Any) -> list[str]:
        raise NotImplementedError

    def corrupt(self, result: Any) -> Any:
        raise NotImplementedError

    def latencies_ms(self, result: Any, job_s: float) -> list[float]:
        """The latencies a user waits on in one rep.

        A batch job answers one request, so its one latency is the job.
        """
        return [job_s * 1e3]

    def expected_counters(self, result: Any) -> dict[str, int]:
        """Program counters the traced run must read as these values."""
        return {}


# ---------------------------------------------------------------------- #
# Fleets
# ---------------------------------------------------------------------- #


class _Fleet(Workload):
    """A healthy majority from one pattern pool plus drifted outliers."""

    N_HEALTHY = 12
    N_DRIFTED = 4
    ROWS = 1_200
    MIN_SUPPORT = 0.02
    MAX_LEN = 2
    TAG = 1

    @property
    def paths(self) -> list[Path]:
        n = self.N_HEALTHY + self.N_DRIFTED
        return [self.workdir / f"store-{k:02d}.txt" for k in range(n)]

    def materialise(self) -> None:
        process, rng = _seeded(self.seed, self.TAG)
        healthy = build_pattern_pool(
            process, n_items=N_ITEMS, n_patterns=80, avg_pattern_len=4
        )
        for k, path in enumerate(self.paths):
            pool = healthy
            if k >= self.N_HEALTHY:
                pool = build_pattern_pool(
                    process, n_items=N_ITEMS, n_patterns=80,
                    avg_pattern_len=6 + k % 2,
                )
            dataset = generate_basket(
                self.ROWS, n_items=N_ITEMS, avg_transaction_len=8,
                rng=rng, pool=pool,
            )
            save_transactions(dataset, path)

    def _mine(self, dataset: Any) -> LitsModel:
        return LitsModel.mine(dataset, self.MIN_SUPPORT, max_len=self.MAX_LEN)

    def _load_and_mine(self, tracer: Any) -> tuple[list[Any], list[LitsModel]]:
        datasets, models = [], []
        for path in self.paths:
            with tracer.span("data.load"):
                dataset = load_transactions(path)
            tracer.count("data.rows", len(dataset))
            with tracer.span("mining.mine"):
                model = self._mine(dataset)
            tracer.count("mining.models")
            tracer.count("mining.itemsets", len(model))
            datasets.append(dataset)
            models.append(model)
        return datasets, models

    def prepare(self) -> FleetDeviationMatrix:
        """Fix the threshold between the regimes; compute the oracles."""
        datasets = [load_transactions(p) for p in self.paths]
        engine = FleetDeviationMatrix(
            [self._mine(d) for d in datasets], datasets
        )
        bounds = engine.bound_matrix()
        nh = self.N_HEALTHY
        within = bounds[:nh, :nh][np.triu_indices(nh, k=1)]
        involving = bounds[nh:, :][bounds[nh:, :] > 0]
        self.threshold = float((within.max() + involving.min()) / 2.0)
        self.certified = bounds <= self.threshold
        np.fill_diagonal(self.certified, False)
        self.exhaustive = engine.exhaustive()
        return engine

    def _check_matrix(self, result: Any) -> list[str]:
        """Decisions equal the exhaustive oracle's; exact entries bit-equal.

        Pruning is also held to its contract: exactly the pairs whose
        delta* bound is at most the threshold are certified, and each
        reports a value at most the threshold.
        """
        ref = self.exhaustive
        errors = []
        if not np.array_equal(~result.exact_mask, self.certified):
            errors.append("certified pairs are not those with delta* <= threshold")
        if (result.values[~result.exact_mask] > self.threshold).any():
            errors.append("a certified pair reports a value above the threshold")
        same = (result.values <= self.threshold) == (
            ref.values <= self.threshold
        )
        if not same.all():
            errors.append(
                f"{int((~same).sum()) // 2} pair decisions differ from "
                "exhaustive()"
            )
        exact = result.exact_mask
        if not np.array_equal(result.values[exact], ref.values[exact]):
            errors.append("exact entries are not bit-equal to the oracle")
        if result.n_pruned == 0:
            errors.append("nothing was pruned at the fixed threshold")
        return errors

    def corrupt(self, result: Any) -> Any:
        """Flip one certified pair's decision."""
        values = result.values.copy()
        i, j = np.argwhere(~result.exact_mask)[0]
        values[i, j] = values[j, i] = self.threshold * 2 + 1
        return dataclasses.replace(result, values=values)


class FleetRows(_Fleet):
    name = "fleet_rows"
    why = (
        "delta*-pruned fleet over store files then to_report(): GCR/Region "
        "construction and the per-pair bound lead; the columnar fleet "
        "engine's target; no bootstrap"
    )

    def job(self, tracer: Any) -> Any:
        datasets, models = self._load_and_mine(tracer)
        with tracer.span("fleet.engine"):
            engine = FleetDeviationMatrix(
                models, datasets, names=[p.stem for p in self.paths]
            )
            result = engine.pruned(self.threshold)
        tracer.count("fleet.store_scans", sum(engine.scan_counts()))
        with tracer.span("fleet.report"):
            report = result.to_report()
        tracer.count("fleet.pairs_scanned", result.n_scanned)
        tracer.count("fleet.pairs_pruned", result.n_pruned)
        return result, report

    def check(self, outcome: Any) -> list[str]:
        result, report = outcome
        errors = self._check_matrix(result)
        if len(report["names"]) != len(self.paths):
            errors.append("report does not name every store")
        return errors

    def corrupt(self, outcome: Any) -> Any:
        result, report = outcome
        return super().corrupt(result), report

    def expected_counters(self, outcome: Any) -> dict[str, int]:
        return {"fleet.pairs.pruned": outcome[0].n_pruned}


class FleetSketch(_Fleet):
    name = "fleet_sketch"
    why = (
        "the same fleet run as sketch pack then compare from payloads "
        "alone: fleet layers fed from wire sketches, the only workload "
        "where wire pack/unpack does real work"
    )
    TAG = 2

    def prepare(self) -> FleetDeviationMatrix:
        engine = super().prepare()
        self.row_pruned = engine.pruned(self.threshold)
        return engine

    def job(self, tracer: Any) -> Any:
        # leg 1, at every site: mine the store and ship its model
        datasets, models = self._load_and_mine(tracer)
        model_payloads = []
        for model in models:
            with tracer.span("wire.pack"):
                model_payloads.append(pack(model))
        # leg 2: the fleet's models travelled; every site sketches the
        # union of their itemsets so any pair is exactly comparable
        with tracer.span("wire.unpack"):
            fleet_models = [unpack_model(p) for p in model_payloads]
        with tracer.span("fleet.engine"):
            probes = probe_itemsets(fleet_models)
        sketch_payloads = []
        for dataset in datasets:
            with tracer.span("stream.sketch"):
                sketch = SupportSketch.from_dataset(dataset, probes)
            tracer.count("stream.rows_sketched", len(dataset))
            with tracer.span("wire.pack"):
                sketch_payloads.append(pack(sketch))
        tracer.count(
            "wire.bytes",
            sum(map(len, model_payloads)) + sum(map(len, sketch_payloads)),
        )
        # the comparer holds the payloads only
        with tracer.span("fleet.engine"):
            fleet = FleetDeviationMatrix.from_sketches(
                list(zip(model_payloads, sketch_payloads)),
                names=[p.stem for p in self.paths],
            )
            result = fleet.pruned(self.threshold)
        with tracer.span("fleet.report"):
            report = result.to_report()
            report["payload_bytes"] = list(fleet.payload_bytes)
        tracer.count("fleet.pairs_scanned", result.n_sketch_exact)
        tracer.count("fleet.pairs_pruned", result.n_pruned)
        return result, report

    def check(self, outcome: Any) -> list[str]:
        """Bit-equal to the row engine where sketch-exact; same decisions."""
        result, report = outcome
        errors = self._check_matrix(result)
        if not np.array_equal(result.exact_mask, self.row_pruned.exact_mask):
            errors.append("sketch-exact pairs differ from the row engine's")
        elif not np.array_equal(result.values, self.row_pruned.values):
            errors.append("matrix is not bit-equal to the row engine's")
        if len(report["payload_bytes"]) != len(self.paths):
            errors.append("report lacks per-store payload bytes")
        return errors

    def corrupt(self, outcome: Any) -> Any:
        result, report = outcome
        return super().corrupt(result), report

    def expected_counters(self, outcome: Any) -> dict[str, int]:
        return {"fleet.pairs.pruned": outcome[0].n_pruned}


# ---------------------------------------------------------------------- #
# Stream
# ---------------------------------------------------------------------- #


class MonitorStream(Workload):
    name = "monitor_stream"
    why = (
        "sliding-window drift monitor with bootstrap on every window: the "
        "only latency distribution; bootstrap-bound, never touches GCR, "
        "delta*, fleet or wire"
    )
    WINDOW = 2_000
    STEP = 500  # a window is four steps wide
    N_WINDOWS = 30
    CHANGE_AT_STEP = 20  # the second pool starts two thirds of the way in
    MIN_SUPPORT = 0.02
    MAX_LEN = 2
    N_BOOT = 20
    THRESHOLD = 95.0
    TAG = 3

    @property
    def path(self) -> Path:
        return self.workdir / "stream.txt"

    @property
    def n_rows(self) -> int:
        return self.WINDOW + self.N_WINDOWS * self.STEP

    def materialise(self) -> None:
        process, rng = _seeded(self.seed, self.TAG)
        before = build_pattern_pool(
            process, n_items=N_ITEMS, n_patterns=80, avg_pattern_len=4
        )
        after = build_pattern_pool(
            process, n_items=N_ITEMS, n_patterns=80, avg_pattern_len=5
        )
        change = self.WINDOW + self.CHANGE_AT_STEP * self.STEP
        reference = generate_basket(
            self.WINDOW, n_items=N_ITEMS, avg_transaction_len=8, rng=rng,
            pool=before,
        )
        # the first post-reference window replays the reference rows in
        # another order: its deviation is exactly 0, so a flag there is a
        # defect, where a fresh same-process window would be flagged at
        # the threshold's false-alarm rate (1 seed in 20 at 95%)
        replay = reference.take(rng.permutation(self.WINDOW))
        head = generate_basket(
            change - 2 * self.WINDOW, n_items=N_ITEMS, avg_transaction_len=8,
            rng=rng, pool=before,
        )
        tail = generate_basket(
            self.n_rows - change, n_items=N_ITEMS, avg_transaction_len=8,
            rng=rng, pool=after,
        )
        stream = reference.concat(replay).concat(head).concat(tail)
        save_transactions(stream, self.path)

    def job(self, tracer: Any) -> Any:
        def builder(dataset: Any) -> LitsModel:
            with tracer.span("mining.mine"):
                model = LitsModel.mine(
                    dataset, self.MIN_SUPPORT, max_len=self.MAX_LEN
                )
            tracer.count("mining.models")
            tracer.count("mining.itemsets", len(model))
            return model

        n_items, chunks = stream_transaction_chunks(self.path, self.STEP)
        monitor = OnlineChangeMonitor(
            builder, n_items, window_size=self.WINDOW, step=self.STEP,
            n_boot=self.N_BOOT, threshold=self.THRESHOLD,
            rng=np.random.default_rng(self.seed), executor="serial",
        )
        observations, latencies = [], []
        pushed = 0
        try:
            while True:
                # closed loop: the next chunk is read and pushed only
                # after the previous push returned
                with tracer.span("data.load"):
                    chunk = next(chunks, None)
                if chunk is None:
                    break
                pushed += len(chunk)
                started = time.perf_counter()
                with tracer.span("stream.push"):
                    emitted = monitor.push(chunk)
                if emitted:
                    latencies.append((time.perf_counter() - started) * 1e3)
                    observations.extend(emitted)
            with tracer.span("stream.push"):
                observations.extend(monitor.flush())
        finally:
            monitor.close()
        tracer.count("data.rows", pushed)
        tracer.count("stream.rows_sketched", pushed - self.WINDOW)
        return tuple(
            (o.index, o.deviation, o.significance, o.drifted)
            for o in observations
        ), latencies, pushed

    def latencies_ms(self, outcome: Any, job_s: float) -> list[float]:
        return outcome[1]

    def prepare(self) -> None:
        self.first_observations: tuple[Any, ...] | None = None

    def check(self, outcome: Any) -> list[str]:
        """Identical across reps; the change is flagged, the start is not."""
        observations, _, pushed = outcome
        errors = []
        if self.first_observations is None:
            self.first_observations = observations
        elif observations != self.first_observations:
            errors.append("observations differ from the first rep's")
        if len(observations) != self.N_WINDOWS - self.WINDOW // self.STEP + 1:
            errors.append(f"{len(observations)} windows observed")
        if observations and (observations[0][1] != 0.0 or observations[0][3]):
            errors.append(
                "the first post-reference window, a replay of the "
                "reference rows, has a deviation or is flagged"
            )
        # window k (1-based) holds rows up to WINDOW + (k + 3) * STEP
        first_changed = self.CHANGE_AT_STEP - self.WINDOW // self.STEP + 2
        if not any(o[3] for o in observations if o[0] >= first_changed):
            errors.append("no window after the injected change is flagged")
        if pushed != self.n_rows:
            errors.append(f"{pushed} rows pushed of {self.n_rows}")
        return errors

    def corrupt(self, outcome: Any) -> Any:
        """Flag the first post-reference window."""
        observations, latencies, pushed = outcome
        first = observations[0][:3] + (not observations[0][3],)
        return (first,) + observations[1:], latencies, pushed

    def expected_counters(self, outcome: Any) -> dict[str, int]:
        return {"stream.windows.rows_sketched": outcome[2] - self.WINDOW}


# ---------------------------------------------------------------------- #
# Pairwise comparison with bootstrap
# ---------------------------------------------------------------------- #


class CompareBoot(Workload):
    name = "compare_boot"
    why = (
        "compare-lits --boot on two large basket files: the only path "
        "through compile_resample_plan on one large pooled-row plan, whose "
        "dense membership leads time and memory"
    )
    ROWS = 10_000
    MIN_SUPPORT = 0.02
    MAX_LEN = 3
    N_BOOT = 100
    TAG = 4

    @property
    def paths(self) -> tuple[Path, Path]:
        return self.workdir / "a.txt", self.workdir / "b.txt"

    def materialise(self) -> None:
        process, rng = _seeded(self.seed, self.TAG)
        pool = build_pattern_pool(
            process, n_items=N_ITEMS, n_patterns=80, avg_pattern_len=4
        )
        # one buying process, a shifted basket length: a modest change
        for path, avg_len in zip(self.paths, (8, 9)):
            dataset = generate_basket(
                self.ROWS, n_items=N_ITEMS, avg_transaction_len=avg_len,
                rng=rng, pool=pool,
            )
            save_transactions(dataset, path)

    def _mine(self, dataset: Any) -> LitsModel:
        return LitsModel.mine(dataset, self.MIN_SUPPORT, max_len=self.MAX_LEN)

    def prepare(self) -> None:
        d1, d2 = (load_transactions(p) for p in self.paths)
        self.delta = deviation(self._mine(d1), self._mine(d2), d1, d2).value
        self.first_p: float | None = None

    def job(self, tracer: Any) -> Any:
        datasets, models = [], []
        for path in self.paths:
            with tracer.span("data.load"):
                dataset = load_transactions(path)
            tracer.count("data.rows", len(dataset))
            with tracer.span("mining.mine"):
                model = self._mine(dataset)
            tracer.count("mining.models")
            tracer.count("mining.itemsets", len(model))
            datasets.append(dataset)
            models.append(model)
        (d1, d2), (m1, m2) = datasets, models
        with tracer.span("core.deviation"):
            result = deviation(m1, m2, d1, d2)
        tracer.count("core.deviation_calls")
        with tracer.span("core.bound"):
            bound = upper_bound_deviation(m1, m2)
        tracer.count("core.bound_pairs")
        sig = deviation_significance(
            d1, d2, self._mine, n_boot=self.N_BOOT,
            rng=np.random.default_rng(self.seed), models=(m1, m2),
            executor="serial",
        )
        return result.value, bound.value, sig.p_value

    def check(self, outcome: Any) -> list[str]:
        """delta equals a fresh deviation(); p is identical across reps."""
        delta, bound, p_value = outcome
        errors = []
        if delta != self.delta:
            errors.append(f"delta {delta!r} != fresh deviation {self.delta!r}")
        if not delta <= bound:
            errors.append(f"delta {delta} exceeds delta* {bound}")
        if self.first_p is None:
            self.first_p = p_value
        elif p_value != self.first_p:
            errors.append(f"p-value {p_value} != first rep's {self.first_p}")
        return errors

    def corrupt(self, outcome: Any) -> Any:
        delta, bound, p_value = outcome
        return np.nextafter(delta, np.inf), bound, p_value


WORKLOADS = {
    cls.name: cls for cls in (MonitorStream, FleetRows, FleetSketch, CompareBoot)
}
