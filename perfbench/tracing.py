"""Spans and counters recorded from the benchmark's own files.

A :class:`Tracer` keeps every span in memory -- name, start, end, the
span that caused it and the rep it belongs to -- and writes them out
only when the run ends. Workload code opens spans around the calls it
makes into each layer; :func:`instrument` additionally wraps the public
entry points of layers that are reachable only through another layer
(the monitor's windows and bootstrap run inside ``push``, the fleet's
bound and GCR calls inside ``pruned``), and restores them on exit.
Nothing inside ``src/`` is edited.

Untraced runs use :data:`NULL_TRACER`, whose spans and counts do nothing.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Iterator

#: The span every rep's job runs under; its self time is ``unattributed``.
ROOT = "job"


class Tracer:
    """In-memory span and counter recorder for one traced run."""

    def __init__(self) -> None:
        #: [span id, parent id, rep, name, start, end]
        self.spans: list[list[Any]] = []
        self.counts: dict[int, Counter[str]] = defaultdict(Counter)
        self.rep = 0
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        record = [
            len(self.spans),
            self._stack[-1] if self._stack else None,
            self.rep,
            name,
            time.perf_counter(),
            None,
        ]
        self.spans.append(record)
        self._stack.append(record[0])
        try:
            yield
        finally:
            record[5] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, n: float = 1) -> None:
        self.counts[self.rep][name] += n

    def rep_layers(self, rep: int) -> tuple[dict[str, float], dict[str, float]]:
        """One rep's (self time, inclusive time) per span name.

        Self time is a span's duration minus the part its child spans
        cover, so the self times of all spans in a rep sum to the root
        span's duration. Inclusive time counts only the outermost span
        of each name, so a layer re-entering itself is not counted twice.
        """
        spans = [s for s in self.spans if s[2] == rep]
        by_id = {s[0]: s for s in spans}
        child_time: Counter[int] = Counter()
        for s in spans:
            if s[1] is not None:
                child_time[s[1]] += s[5] - s[4]
        self_time: Counter[str] = Counter()
        inclusive: Counter[str] = Counter()
        for s in spans:
            self_time[s[3]] += (s[5] - s[4]) - child_time[s[0]]
            parent = s[1]
            while parent is not None and by_id[parent][3] != s[3]:
                parent = by_id[parent][1]
            if parent is None:
                inclusive[s[3]] += s[5] - s[4]
        return dict(self_time), dict(inclusive)

    def to_json(self) -> dict[str, Any]:
        return {
            "spans": [
                {"id": i, "parent": p, "rep": r, "name": n, "start": a, "end": b}
                for i, p, r, n, a, b in self.spans
            ],
            "counts": {str(r): dict(c) for r, c in self.counts.items()},
        }


class _NullTracer:
    """The untraced stand-in: spans and counts cost one call each."""

    def span(self, name: str) -> contextlib.nullcontext[None]:
        return contextlib.nullcontext()

    def count(self, name: str, n: float = 1) -> None:
        pass


NULL_TRACER = _NullTracer()


def _wrapped(
    tracer: Tracer,
    name: str,
    fn: Callable[..., Any],
    on_result: Callable[[Tracer, Any], None] | None,
) -> Callable[..., Any]:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if on_result is not None:
            on_result(tracer, result)
        return result

    return wrapper


def _counting(counter: str) -> Callable[[Tracer, Any], None]:
    return lambda tracer, result: tracer.count(counter)


def _gcr_result(tracer: Tracer, structure: Any) -> None:
    tracer.count("core.gcr_calls")
    tracer.count("core.regions_built", len(structure.regions))


def _window_result(tracer: Tracer, window: Any) -> None:
    if window is not None:
        tracer.count("stream.windows")


def _replicates_result(tracer: Tracer, null: Any) -> None:
    tracer.count("stats.replicates", len(null))


@contextlib.contextmanager
def instrument(tracer: Tracer) -> Iterator[None]:
    """Wrap the layer entry points reached only through another layer.

    Each name is patched where its caller looks it up (a module global
    bound by ``from ... import``, or a class attribute), so a call made
    from inside the same layer is not double-counted. Every patch is
    undone on exit, even when the traced rep raises.
    """
    # import_module, not attribute access: a package may re-export a
    # function under its submodule's name (repro.core.gcr is one)
    module = importlib.import_module
    fleet_matrix = module("repro.fleet.matrix")
    federated = module("repro.fleet.federated")
    plans = module("repro.stats.resample_plan")
    stream_monitor = module("repro.stream.monitor")
    deviation_calls = _counting("core.deviation_calls")
    bound_pairs = _counting("core.bound_pairs")
    targets: list[tuple[Any, str, str, Any]] = [
        (fleet_matrix, "upper_bound_deviation", "core.bound", bound_pairs),
        (fleet_matrix, "gcr", "core.gcr", _gcr_result),
        (fleet_matrix, "prime_lits_counters", "fleet.count", None),
        (fleet_matrix, "deviation_from_counts", "core.deviation", deviation_calls),
        (federated, "upper_bound_deviation", "core.bound", bound_pairs),
        (federated, "gcr", "core.gcr", _gcr_result),
        (federated, "deviation_from_counts", "core.deviation", deviation_calls),
        (federated.SketchFleet, "_unpack_lits", "wire.unpack", None),
        (stream_monitor, "deviation_from_counts", "core.deviation",
         deviation_calls),
        (stream_monitor, "lits_membership", "stats.compile", None),
        (plans.LitsResamplePlan, "__init__", "stats.compile", None),
        (module("repro.stream.windows").WindowManager, "push",
         "stream.sketch", _window_result),
        (module("repro.core.monitor").ChangeMonitor, "observe_precomputed",
         "stream.qualify", None),
        (plans.ResamplePlan, "null_deviations", "stats.replicates",
         _replicates_result),
        (module("repro.stats.bootstrap"), "compile_resample_plan",
         "stats.compile", None),
        # deviation_significance imports gcr at call time from its module
        (module("repro.core.gcr"), "gcr", "core.gcr", _gcr_result),
    ]
    saved: list[tuple[Any, str, Any]] = []
    try:
        for owner, attr, name, on_result in targets:
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            if isinstance(original, staticmethod):
                patched: Any = staticmethod(
                    _wrapped(tracer, name, original.__func__, on_result)
                )
            else:
                patched = _wrapped(tracer, name, original, on_result)
            setattr(owner, attr, patched)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_table(
    tracer: Tracer, reps: list[int]
) -> tuple[list[tuple[str, float, float]], float]:
    """Per-layer mean self and inclusive seconds per rep, plus unattributed.

    Returns the rows sorted by self time (the root's self time is the
    ``unattributed`` row) and the mean traced job time they sum to.
    """
    self_total: Counter[str] = Counter()
    incl_total: Counter[str] = Counter()
    for rep in reps:
        self_time, inclusive = tracer.rep_layers(rep)
        self_total.update(self_time)
        incl_total.update(inclusive)
    n = len(reps)
    rows = [
        (name, self_total[name] / n, incl_total[name] / n)
        for name in self_total
        if name != ROOT
    ]
    rows.sort(key=lambda row: -row[1])
    rows.append(("unattributed", self_total[ROOT] / n, self_total[ROOT] / n))
    return rows, incl_total[ROOT] / n
