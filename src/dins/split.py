"""Chronological train/eval splitting on calendar windows.

The default schedule is UTC calendar months covering the data span;
consecutive windows pair up as (train month i, eval month i+1). Custom
window files replace the whole schedule, which allows sub-month splits
for bursty periods. Splits are transductive: eval edges touching a node
unseen in the train window are dropped (and counted), and survivors are
divided chronologically into validation and test.

Months come from :func:`dins.graph.utc`, raw seconds as ``datetime64``
months, for the schedule and the sparse-month filter alike. Raw times
must lie in the years 1 to 9999 (and a schedule must end by the close of
November 9999, since its last window ends a month later); others raise
``ValueError``.

Within a split, bins are recomputed from the train window's own
earliest raw time with :func:`dins.graph.binned`, so a bin offset of 288
spans the same time in every split wherever the split sits in the dataset:
288 times ``bin_width_seconds``, 24 hours at the default 300-second bins.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Iterable, Optional, Sequence

import numpy as np

from .graph import DynamicGraph, EdgeBlock, binned, subgraph, utc

__all__ = ["WindowSpec", "MonthlySplit", "monthly_schedule", "window_pairs",
           "make_split", "load_windows_file", "sparse_month_mask"]

_LAST_MONTH = np.datetime64("9999-12")


@dataclass(frozen=True)
class WindowSpec:
    """Half-open raw-time window [start, end) in epoch seconds."""

    label: str
    start: int
    end: int

    def __post_init__(self):
        if self.end <= self.start:
            raise ValueError(f"window {self.label!r}: end must exceed start")

    def to_dict(self) -> dict:
        return {"label": self.label, "start": self.start, "end": self.end}


def monthly_schedule(graph: DynamicGraph,
                     custom_windows: Optional[Sequence[WindowSpec]] = None) -> list[WindowSpec]:
    """UTC calendar-month windows covering the graph's raw-time span.

    When ``custom_windows`` is given it replaces the monthly schedule
    entirely; windows must be chronological and non-overlapping, and
    their labels distinct names of one directory each, since a split
    writes to ``splits/<label>/``.
    """
    if custom_windows is not None:
        ws = list(custom_windows)
        if not ws:
            raise ValueError("custom window list is empty")
        seen: set[str] = set()
        for w in ws:
            if w.label in ("", ".", "..") or any(c in w.label for c in "/\\\0"):
                raise ValueError(f"window {w.label!r}: a label must name one directory: "
                                 "not empty, '.' or '..', and without a path separator")
            if w.label in seen:
                raise ValueError(f"window {w.label!r}: labels must not repeat")
            seen.add(w.label)
        for a, b in zip(ws, ws[1:]):
            if b.start < a.end:
                raise ValueError(f"windows overlap or are out of order: "
                                 f"{a.label!r} and {b.label!r}")
        return ws
    if graph.m == 0:
        raise ValueError("cannot schedule windows for an empty graph")
    first, last = utc([graph.raw.min(), graph.raw.max()], "M")
    if last == _LAST_MONTH:
        raise ValueError("the window of 9999-12 would end in the year 10000")
    months = np.arange(first, last + 2)    # each window's month and the one after
    bounds = months.astype("datetime64[s]").astype(np.int64).tolist()
    return [WindowSpec(label=label, start=start, end=end) for label, start, end
            in zip(np.datetime_as_string(months[:-1]).tolist(), bounds, bounds[1:])]


def window_pairs(windows: Sequence[WindowSpec]) -> list[tuple[WindowSpec, WindowSpec]]:
    """Consecutive (train, eval) pairs of a schedule."""
    return list(zip(windows[:-1], windows[1:]))


@dataclass
class MonthlySplit:
    """One transductive train/eval split.

    ``val`` and ``test`` use the node ids and bin anchor of ``train``;
    every raw time in ``train`` precedes every raw time in ``val`` and
    ``test`` because the windows do not overlap.
    """

    train_window: WindowSpec
    eval_window: WindowSpec
    train: DynamicGraph
    val: EdgeBlock
    test: EdgeBlock
    dropped_count: int
    val_fraction: float

    @property
    def label(self) -> str:
        return self.train_window.label


def make_split(graph: DynamicGraph, train_window: WindowSpec,
               eval_window: WindowSpec, val_fraction: float = 0.5) -> MonthlySplit:
    """Carve one transductive split out of ``graph``.

    The train graph is re-interned and re-anchored on its own window.
    Eval-window edges keep only those whose endpoints both appear in the
    train graph (the rest are counted in ``dropped_count``); survivors
    are sorted by bin and divided chronologically, the first
    ``val_fraction`` into validation and the remainder into test.
    """
    if not 0.0 <= val_fraction <= 1.0:
        raise ValueError("val_fraction must be in [0, 1]")
    if train_window.end > eval_window.start:
        raise ValueError(f"train window {train_window.label!r} must precede "
                         f"eval window {eval_window.label!r}")
    tr_idx = np.flatnonzero((graph.raw >= train_window.start)
                            & (graph.raw < train_window.end))
    if tr_idx.size == 0:
        raise ValueError(f"train window {train_window.label!r} selects no edges")
    train, new_of_old = subgraph(graph, tr_idx)

    ev_idx = np.flatnonzero((graph.raw >= eval_window.start)
                            & (graph.raw < eval_window.end))
    s = new_of_old[graph.src[ev_idx]]
    d = new_of_old[graph.dst[ev_idx]]
    keep = (s >= 0) & (d >= 0)
    dropped = int(ev_idx.size - keep.sum())
    s, d, bins, raw = binned(s[keep], d[keep], graph.raw[ev_idx][keep],
                             train.raw_anchor, graph.bin_width_seconds)

    n_val = int(s.size * val_fraction)
    val = EdgeBlock(s[:n_val], d[:n_val], bins[:n_val], raw[:n_val])
    test = EdgeBlock(s[n_val:], d[n_val:], bins[n_val:], raw[n_val:])
    return MonthlySplit(train_window=train_window, eval_window=eval_window,
                        train=train, val=val, test=test, dropped_count=dropped,
                        val_fraction=val_fraction)


def _parse_boundary(value) -> int:
    """Window boundary: epoch seconds, or an ISO date taken as UTC midnight."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, str):
        try:
            d = datetime.strptime(value, "%Y-%m-%d")
        except ValueError:
            raise ValueError(f"bad window boundary {value!r}: "
                             "use epoch seconds or YYYY-MM-DD") from None
        return int(d.replace(tzinfo=timezone.utc).timestamp())
    raise ValueError(f"bad window boundary {value!r}")


def load_windows_file(path) -> list[WindowSpec]:
    """Read a custom window schedule from JSON.

    Accepts either a bare list or ``{"windows": [...]}``; each entry is
    ``{"label", "start", "end"}`` with a string label and boundaries in
    epoch seconds or ``YYYY-MM-DD`` (UTC midnight, end exclusive). An
    entry of any other shape raises ``ValueError`` naming its index.
    """
    from .sample_io import read_json    # sample_io imports this module
    payload = read_json(path)
    if isinstance(payload, dict):
        payload = payload.get("windows")
    if not isinstance(payload, list) or not payload:
        raise ValueError(f"{path}: expected a non-empty list of windows")
    out = []
    for i, w in enumerate(payload):
        where = f"{path}: window {i}"
        if not isinstance(w, dict):
            raise ValueError(f"{where} is not an object")
        try:
            label, start, end = w["label"], _parse_boundary(w["start"]), _parse_boundary(w["end"])
        except KeyError as exc:
            raise ValueError(f"{where} is missing {exc}") from None
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
        if not isinstance(label, str):
            raise ValueError(f"{where}: label must be a string, not {label!r}")
        out.append(WindowSpec(label, start, end))
    return out


def sparse_month_mask(raw_seconds: np.ndarray, min_edges: int) -> np.ndarray:
    """Keep-mask dropping edges in UTC months with fewer than ``min_edges``."""
    raw_seconds = np.asarray(raw_seconds, dtype=np.int64)
    if min_edges <= 1:
        return np.ones(raw_seconds.size, dtype=bool)
    _, month, counts = np.unique(utc(raw_seconds, "M"), return_inverse=True,
                                 return_counts=True)
    return counts[month] >= min_edges
