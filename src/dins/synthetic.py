"""Synthetic interaction generators for tests, demos, and benchmarks.

Everything here is seed-deterministic. Generators return either raw
``(src_name, dst_name, timestamp)`` records ready for
:func:`dins.graph.build_graph`, or prebuilt graphs when the fastest
path matters (the million-edge benchmark skips record parsing).
"""

from __future__ import annotations

import numpy as np

from .config import DEFAULT_BIN_WIDTH_SECONDS, derive_rng
from .graph import DynamicGraph, NodeRegistry, binned

__all__ = ["random_records", "graph_from_arrays", "random_graph",
           "recurrence_records", "gap_pattern_records", "multi_month_records"]


def random_records(n_nodes: int, n_edges: int, seed: int, *,
                   t_span_bins: int = 288, loop_fraction: float = 0.0,
                   bin_width_seconds: int = DEFAULT_BIN_WIDTH_SECONDS,
                   start: int = 0) -> list[tuple[str, str, int]]:
    """Uniform random directed interactions among ``user###`` nodes."""
    if n_nodes < 2:
        raise ValueError("need at least two nodes")
    rng = derive_rng(seed, 101)
    src = rng.integers(0, n_nodes, size=n_edges)
    dst = rng.integers(0, n_nodes, size=n_edges)
    if loop_fraction > 0:
        loops = rng.random(n_edges) < loop_fraction
        dst = np.where(loops, src, dst)
    else:
        # nudge accidental loops off the diagonal
        dst = np.where(dst == src, (dst + 1) % n_nodes, dst)
    raw = start + rng.integers(0, t_span_bins * bin_width_seconds, size=n_edges)
    return [(f"user{int(s)}", f"user{int(d)}", int(r))
            for s, d, r in zip(src, dst, raw)]


def graph_from_arrays(src: np.ndarray, dst: np.ndarray, t: np.ndarray,
                      n_nodes: int, *,
                      bin_width_seconds: int = DEFAULT_BIN_WIDTH_SECONDS,
                      raw_anchor: int = 0) -> DynamicGraph:
    """Wrap pre-binned integer-id arrays as a graph, sorting by time.

    Bypasses name interning and record validation; node ids must
    already lie in ``[0, n_nodes)`` and ``t`` holds bin indices.
    """
    registry = NodeRegistry(f"user{i}" for i in range(n_nodes))
    src, dst, t = (np.asarray(c, dtype=np.int64) for c in (src, dst, t))
    return DynamicGraph(registry, *binned(src, dst, raw_anchor + t * bin_width_seconds,
                                          raw_anchor, bin_width_seconds),
                        bin_width_seconds, raw_anchor)


def random_graph(n_nodes: int, n_edges: int, seed: int, *,
                 t_span_bins: int = 288) -> DynamicGraph:
    """Large uniform random graph built directly from arrays (fast)."""
    rng = derive_rng(seed, 103)
    src = rng.integers(0, n_nodes, size=n_edges)
    dst = rng.integers(0, n_nodes, size=n_edges)
    dst = np.where(dst == src, (dst + 1) % n_nodes, dst)
    t = rng.integers(0, t_span_bins, size=n_edges)
    return graph_from_arrays(src, dst, t, n_nodes)


def recurrence_records(n_pairs: int, n_epochs: int, seed: int, *,
                       period_bins: int = 72, jitter_bins: int = 0,
                       n_background: int = 0,
                       bin_width_seconds: int = DEFAULT_BIN_WIDTH_SECONDS,
                       start: int = 0) -> list[tuple[str, str, int]]:
    """Pairs that re-fire every ``period_bins`` bins across epochs.

    With a 72-bin period (6 hours at 5-minute bins), a pair seen at
    bin ``t`` is seen again at exactly ``t + 72``, which makes the
    6-hour re-probe negatives collide with genuine future interactions
    — the workload where pure-memory scorers fall apart. Optional
    uniform background edges among the same nodes dilute the structure.
    """
    rng = derive_rng(seed, 107)
    n_nodes = max(2 * n_pairs, 2)
    pairs = [(2 * i, 2 * i + 1) for i in range(n_pairs)]
    records: list[tuple[str, str, int]] = []
    for epoch in range(n_epochs):
        base_bin = epoch * period_bins
        for u, v in pairs:
            offset = int(rng.integers(0, jitter_bins + 1)) if jitter_bins else 0
            raw = start + (base_bin + offset) * bin_width_seconds
            records.append((f"user{u}", f"user{v}", raw))
    if n_background:
        span = n_epochs * period_bins * bin_width_seconds
        bs = rng.integers(0, n_nodes, size=n_background)
        bd = rng.integers(0, n_nodes, size=n_background)
        bd = np.where(bd == bs, (bd + 1) % n_nodes, bd)
        braw = start + rng.integers(0, span, size=n_background)
        records.extend((f"user{int(s)}", f"user{int(d)}", int(r))
                       for s, d, r in zip(bs, bd, braw))
    records.sort(key=lambda r: r[2])
    return records


def _month_starts(first: tuple[int, int], n: int) -> list[int]:
    """Epoch seconds of ``n`` consecutive UTC month starts from ``(year, month)``."""
    month = (first[0] - 1970) * 12 + first[1] - 1     # months since 1970-01
    months = np.arange(month, month + n).astype("datetime64[M]")
    return months.astype("datetime64[s]").astype(np.int64).tolist()


def gap_pattern_records(n_pairs: int = 100, recur_fraction: float = 0.3, *,
                        seed: int = 0,
                        bin_width_seconds: int = DEFAULT_BIN_WIDTH_SECONDS
                        ) -> list[tuple[str, str, int]]:
    """Two months of disjoint-pair traffic where a fixed fraction of
    pairs deterministically re-fire exactly 72 bins after their
    second-month interaction.

    Every pair is active in both months, so a pure-memory scorer knows
    them all; the recurring fraction makes 6-hour re-probes of those
    pairs collide with genuine edges while the rest survive as
    negatives the scorer cannot distinguish from positives. The node
    pairs are disjoint (2i, 2i+1), so a replaced receiver never forms a
    known pair.
    """
    if not 0.0 <= recur_fraction <= 1.0:
        raise ValueError("recur_fraction must be in [0, 1]")
    month1, month2 = _month_starts((2021, 1), 2)
    n_recur = int(round(recur_fraction * n_pairs))
    records: list[tuple[str, str, int]] = []
    for i in range(n_pairs):
        u, v = f"user{2 * i}", f"user{2 * i + 1}"
        for b in (10, 100, 200):                      # first-month activity
            records.append((u, v, month1 + b * bin_width_seconds))
        records.append((u, v, month2 + 100 * bin_width_seconds))
        if i < n_recur:                               # +72-bin recurrence
            records.append((u, v, month2 + 172 * bin_width_seconds))
    records.sort(key=lambda r: r[2])
    return records


def multi_month_records(n_nodes: int, edges_per_month: int, n_months: int,
                        seed: int, *, start_month: tuple[int, int] = (2021, 1),
                        loop_fraction: float = 0.01) -> list[tuple[str, str, int]]:
    """Uniform interactions spread over consecutive calendar months (UTC).

    Produces a stream suitable for the monthly-window pipeline: each
    month contributes ``edges_per_month`` edges at uniform times within
    the month. Sized like a year of a mid-size community when called
    with the defaults of the pipeline benchmark.
    """
    rng = derive_rng(seed, 109)
    boundaries = _month_starts(start_month, n_months + 1)
    records: list[tuple[str, str, int]] = []
    for i in range(n_months):
        lo, hi = boundaries[i], boundaries[i + 1]
        src = rng.integers(0, n_nodes, size=edges_per_month)
        dst = rng.integers(0, n_nodes, size=edges_per_month)
        loops = rng.random(edges_per_month) < loop_fraction
        dst = np.where(loops, src,
                       np.where(dst == src, (dst + 1) % n_nodes, dst))
        raw = rng.integers(lo, hi, size=edges_per_month)
        records.extend((f"user{int(s)}", f"user{int(d)}", int(r))
                       for s, d, r in zip(src, dst, raw))
    records.sort(key=lambda r: r[2])
    return records
