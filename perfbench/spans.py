"""Span recording around calls into dins, from outside the package.

A :class:`Tracer` keeps spans in memory: name, start, end, parent span
and operation id. :func:`install` replaces module attributes that dins
code looks up at call time (``dins.runner.make_split`` and the like)
with timing wrappers and returns an undo function, so the wrapped names
exist only inside the benchmark process and only while a traced
operation runs. :func:`layer_metrics` folds the spans into the
per-layer metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import bisect
import importlib
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

SETUP = "setup"     # operation id of spans recorded during the traced set-up


class Tracer:
    """In-memory span recorder for one benchmark process."""

    def __init__(self):
        # one record per span: [name, start, end, parent id, op id]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op: object = None
        self.missing: list[str] = []        # wrapped names that do not exist
        self.index_bytes: list[int] = []    # nbytes of every HistoryIndex built
        self.counts: Counter = Counter()    # per-layer work counts, all ops
        self.sampled: list[tuple] = []      # (graph, strategy, config, batch index, tallies)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        sid = len(self.spans)
        rec = [name, time.perf_counter(), None,
               self._stack[-1] if self._stack else None, self.op]
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()


# -- self time ----------------------------------------------------------------


def covered(lo: float, hi: float, intervals: Iterable[tuple[float, float]]) -> float:
    """Length of the part of ``[lo, hi]`` that the union of ``intervals`` covers."""
    total = 0.0
    reach = lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[list], exclude: list[tuple[float, float]] = ()) -> list[float]:
    """Each span's duration minus the part of it that its children, or
    any of the time-sorted ``exclude`` intervals, cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, op in spans:
        if parent is not None:
            children[parent].append((start, end))
    starts = [a for a, b in exclude]
    out = []
    for i, (name, start, end, parent, op) in enumerate(spans):
        inside = exclude[bisect.bisect_left(starts, start):bisect.bisect_right(starts, end)]
        out.append(end - start - covered(start, end, children.get(i, []) + list(inside)))
    return out


# -- wrapping -------------------------------------------------------------------


def _wrap_call(tracer: Tracer, fn: Callable, name: str,
               after: Optional[Callable]) -> Callable:
    def traced(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if after is not None:
            after(tracer, args, kwargs, result)
        return result
    return traced


def _wrap_context(tracer: Tracer, fn: Callable, name: str) -> Callable:
    @contextmanager
    def traced(*args, **kwargs):
        with tracer.span(name):
            with fn(*args, **kwargs) as handle:
                yield handle
    return traced


def traced_stream(tracer: Tracer, stream: Iterator, name: str,
                  after: Optional[Callable] = None) -> Iterator:
    """Re-yield ``stream`` with one span around every ``next()``."""
    while True:
        with tracer.span(name):
            try:
                item = next(stream)
            except StopIteration:
                return
        if after is not None:
            after(tracer, item)
        yield item


def _wrap_generator(tracer: Tracer, fn: Callable, name: str,
                    after: Optional[Callable]) -> Callable:
    def traced(*args, **kwargs):
        with tracer.span(name):
            stream = fn(*args, **kwargs)
        return traced_stream(tracer, stream, "sampling.next",
                             None if after is None
                             else lambda tr, item: after(tr, args, kwargs, item))
    return traced


def _wrap_class(tracer: Tracer, cls: type, name: str) -> type:
    class Traced(cls):
        def __init__(self, *args, **kwargs):
            with tracer.span(name):
                super().__init__(*args, **kwargs)
            tracer.index_bytes.append(sum(v.nbytes for v in vars(self).values()
                                          if isinstance(v, np.ndarray)))
    Traced.__name__ = cls.__name__
    Traced.__qualname__ = cls.__qualname__
    return Traced


def install(tracer: Tracer, targets: Iterable[tuple]) -> Callable[[], None]:
    """Wrap each ``(module, attribute, span name, kind[, after])`` target.

    ``kind`` is ``call``, ``context``, ``generator`` or ``class``. A
    target whose attribute does not exist is noted in
    ``tracer.missing`` and skipped. Returns a function that restores
    every original attribute.
    """
    saved = []
    for module_name, attr, name, kind, *rest in targets:
        after = rest[0] if rest else None
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if original is None:
            tracer.missing.append(f"{module_name}.{attr}")
            continue
        if kind == "call":
            wrapped = _wrap_call(tracer, original, name, after)
        elif kind == "context":
            wrapped = _wrap_context(tracer, original, name)
        elif kind == "generator":
            wrapped = _wrap_generator(tracer, original, name, after)
        elif kind == "class":
            wrapped = _wrap_class(tracer, original, name)
        else:
            raise ValueError(f"unknown wrapper kind {kind!r}")
        saved.append((module, attr, original))
        setattr(module, attr, wrapped)

    def restore() -> None:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
    return restore


# -- per-layer metrics ------------------------------------------------------------

# Span name -> the per-layer time metric its self time counts towards.
LAYER_OF_SPAN = {
    "graph.HistoryIndex": "graph.index_s",
    "evaluation.combined_index": "graph.index_s",
    "sample_io.load_dataset": "sample_io.load_s",
    "sample_io.write_samples_jsonl": "sample_io.samples_write_s",
    "sample_io.atomic_open": "sample_io.eval_export_s",
    "sample_io.write_split_dir": "sample_io.split_write_s",
    "sample_io.read_split_dir": "sample_io.read_split_s",
    "sample_io.read_scores_jsonl": "sample_io.read_scores_s",
    "split.monthly_schedule": "split.make_s",
    "split.window_pairs": "split.make_s",
    "split.make_split": "split.make_s",
    "sampling.sample_batches": "sampling.busy_s",
    "sampling.next": "sampling.busy_s",
    "evaluation.build_eval_sets": "evaluation.eval_sets_s",
    "evaluation.eval_records": "evaluation.eval_records_s",
    "scorers.make_scorer": "evaluation.score_s",
    "evaluation.evaluate_sets": "evaluation.score_s",
    "evaluation.auc": "evaluation.auc_s",
    "runner.run_experiment": "runner.self_s",
    "runner.process_split": "runner.self_s",
    "runner.average_ranks": "runner.self_s",
    "sample_io.write_json": "runner.self_s",
    "cli.main": "cli.self_s",
}

TIME_LAYERS = sorted(set(LAYER_OF_SPAN.values()))

# Metrics that only exist when a given layer fired.
DEPENDS_ON = {
    "graph.index_mb": "graph.index_s",
    "sampling.batches": "sampling.busy_s",
    "sampling.samples": "sampling.busy_s",
    "sampling.shortfall_rate": "sampling.busy_s",
    "sample_io.records_written": "sample_io.samples_write_s",
    "sample_io.bytes_written": "sample_io.samples_write_s",
    "runner.split_s.p50": "runner.self_s",
    "runner.split_s.max": "runner.self_s",
}


def layer_metrics(tracer: Tracer, op_times: dict, expected: Iterable[str],
                  extra: dict, exclude=()) -> tuple[dict, list[str]]:
    """Per-layer metric values and the expected layers that never fired.

    ``op_times`` maps each traced operation id to its wall time, and
    ``exclude`` lists the speed probe's intervals, which count towards no
    span's self time. Time
    metrics are seconds per traced operation plus the traced set-up's
    share, since set-up runs once per operation sequence. ``extra``
    carries counts the caller measured itself (bytes written, shortfall).
    Metrics of layers the workload does not call are 0; metrics of
    layers it should call but which recorded no span are left out and
    returned as absent.
    """
    n_ops = max(len(op_times), 1)
    selfs = self_times(tracer.spans, exclude)
    per_layer: Counter = Counter()
    fired: set[str] = set()
    split_durations = []
    attributed = 0.0
    for (name, start, end, parent, op), own in zip(tracer.spans, selfs):
        layer = LAYER_OF_SPAN.get(name)
        if layer is None:
            continue
        fired.add(layer)
        if op == SETUP:
            per_layer[layer] += own
        elif op in op_times:
            per_layer[layer] += own / n_ops
            attributed += own
        if name == "runner.process_split" and op in op_times:
            probed = [(a, b) for a, b in exclude if start <= a <= end]
            split_durations.append(end - start - covered(start, end, probed))

    values: dict[str, float] = {layer: per_layer[layer] for layer in TIME_LAYERS}
    values["graph.index_mb"] = max(tracer.index_bytes, default=0) / 2 ** 20
    values["sampling.batches"] = tracer.counts["sampling.batches"] / n_ops
    values["sampling.samples"] = tracer.counts["sampling.samples"] / n_ops
    values["sample_io.records_written"] = tracer.counts["sample_io.records"] / n_ops
    values["sample_io.bytes_written"] = extra.get("bytes_written", 0) / n_ops
    values["sampling.shortfall_rate"] = extra.get("shortfall_rate", 0.0)
    values["runner.split_s.p50"] = (statistics.median(split_durations)
                                    if split_durations else 0.0)
    values["runner.split_s.max"] = max(split_durations, default=0.0)
    values["trace.coverage"] = (attributed / sum(op_times.values())
                                if op_times else 0.0)
    values["trace.spans"] = float(len(tracer.spans))

    expected = set(expected)
    absent = []
    for metric in list(values):
        layer = DEPENDS_ON.get(metric, metric)
        if layer not in TIME_LAYERS:        # trace.* metrics always exist
            continue
        if layer not in expected:
            values[metric] = 0.0
        elif layer not in fired:
            del values[metric]
            absent.append(metric)
    return values, sorted(absent)
