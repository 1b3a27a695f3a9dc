"""Continuous-time dynamic graph storage and history queries.

A graph is a directed temporal edge multiset over densely interned node
ids. Raw epoch timestamps are coarsened to integer bins of
``bin_width_seconds`` anchored at the earliest raw time seen, and the
edge arrays are kept stably sorted by bin (ties keep ingestion order).
Both time rules live here once: :func:`binned` turns raw seconds into
sorted bins for graphs and split blocks alike, and :func:`utc` turns
them into UTC months or days for the calendar splits and the stats.
:class:`HistoryIndex` layers the occurrence lookups that samplers and
scorers need (pair-at-time membership, prior-pair enumeration, loop
history) on top of sorted columnar arrays. Both are safe to share across
threads; neither changes its answers once built.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional

import numpy as np

__all__ = [
    "IngestError",
    "NodeRegistry",
    "EdgeBlock",
    "DynamicGraph",
    "Batch",
    "HistoryIndex",
    "GraphStats",
    "build_graph",
    "subgraph",
    "batches",
    "stats",
]

_EMPTY_I64 = np.empty(0, dtype=np.int64)
_EMPTY_I64.setflags(write=False)


class IngestError(ValueError):
    """An edge record could not be ingested."""


class NodeRegistry:
    """Bijection between external node names and dense ids ``0..n-1``."""

    __slots__ = ("_names", "_ids")

    def __init__(self, names: Iterable[str] = ()):
        # as interning each name in turn: a repeat keeps its first id
        self._names: list[str] = list(dict.fromkeys(names))
        self._ids: dict[str, int] = {name: i for i, name in enumerate(self._names)}

    def intern(self, name: str) -> int:
        """Return the id for ``name``, assigning the next free id if new."""
        nid = self._ids.get(name)
        if nid is None:
            nid = len(self._names)
            self._ids[name] = nid
            self._names.append(name)
        return nid

    def id_of(self, name: str) -> int:
        return self._ids[name]

    def get(self, name: str, default: Optional[int] = None) -> Optional[int]:
        return self._ids.get(name, default)

    def name_of(self, nid: int) -> str:
        return self._names[nid]

    def names(self) -> list[str]:
        return list(self._names)

    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, name: str) -> bool:
        return name in self._ids

    def __repr__(self) -> str:
        return f"NodeRegistry(n={len(self)})"


@dataclass(frozen=True)
class EdgeBlock:
    """Parallel edge arrays without their own registry, kept as given.

    Used for validation/test partitions of a split, as read-only slices of
    :func:`binned` output; ids refer to the registry of the training graph
    they were carved from.
    """

    src: np.ndarray
    dst: np.ndarray
    t: np.ndarray
    raw: np.ndarray

    def __len__(self) -> int:
        return int(self.src.size)

    @classmethod
    def empty(cls) -> "EdgeBlock":
        return cls(_EMPTY_I64, _EMPTY_I64, _EMPTY_I64, _EMPTY_I64)


def _freeze(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """Mark arrays that no one else holds read-only, with the arrays they view."""
    for a in arrays:
        while type(a) is np.ndarray:
            a.setflags(write=False)
            a = a.base
    return arrays


def _readonly(a) -> np.ndarray:
    """``a`` if C-contiguous int64 and read-only down its ``.base`` chain, else a read-only copy."""
    base = a
    while type(base) is np.ndarray and not base.flags.writeable:
        base = base.base
    if base is None and a.dtype == np.int64 and a.flags.c_contiguous:
        return a
    return _freeze(np.array(a, dtype=np.int64))[0]


class DynamicGraph:
    """Immutable directed temporal edge multiset.

    ``src``, ``dst``, ``t`` (bin) and ``raw`` (epoch seconds) are
    parallel read-only int64 arrays, stably sorted by bin; an argument
    that is C-contiguous int64 and read-only down its ``.base`` chain is
    kept as it is, any other copied once. Duplicate records are kept;
    they are distinct members of the multiset.
    """

    def __init__(self, registry: NodeRegistry, src, dst, t, raw,
                 bin_width_seconds: int, raw_anchor: int):
        self.registry = registry
        self.src, self.dst, self.t, self.raw = map(_readonly, (src, dst, t, raw))
        self.bin_width_seconds = int(bin_width_seconds)
        self.raw_anchor = int(raw_anchor)
        m = self.src.size
        if not (self.dst.size == self.t.size == self.raw.size == m):
            raise ValueError("edge arrays must have equal length")
        if m and not (np.diff(self.t) >= 0).all():
            raise ValueError("edges must be sorted by bin")

    @property
    def n(self) -> int:
        return len(self.registry)

    @property
    def m(self) -> int:
        return int(self.src.size)

    @property
    def t_max(self) -> int:
        return int(self.t[-1]) if self.m else 0

    @cached_property
    def history(self) -> "HistoryIndex":
        return HistoryIndex(self.src, self.dst, self.t, self.n)

    def __repr__(self) -> str:
        return (f"DynamicGraph(n={self.n}, m={self.m}, t_max={self.t_max}, "
                f"bin_width={self.bin_width_seconds}s)")


_UTC_SECONDS = (-62135596800, 253402300800)    # datetime's range: [0001-01-01, 10000-01-01)


def utc(raw, unit: str) -> np.ndarray:
    """Epoch seconds as UTC ``datetime64[unit]`` (``"M"`` months, ``"D"`` days);
    ``ValueError`` outside the years 1 to 9999, where ``datetime`` ends."""
    raw = np.asarray(raw, dtype=np.int64)
    if raw.size and not (_UTC_SECONDS[0] <= raw.min() and raw.max() < _UTC_SECONDS[1]):
        raise ValueError(f"raw times must lie in the years 1 to 9999 UTC, {_UTC_SECONDS}")
    return raw.astype("datetime64[s]").astype(f"datetime64[{unit}]")


def binned(src: np.ndarray, dst: np.ndarray, raw: np.ndarray, anchor: int,
           width: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(src, dst, bin, raw)`` with ``bin = (raw - anchor) // width``, all four
    new, read-only and stably sorted by bin (edges in one bin keep their order)."""
    bins = (raw - anchor) // width
    order = np.argsort(bins, kind="stable")
    return _freeze(src[order], dst[order], bins[order], raw[order])


def build_graph(records: Iterable[tuple], bin_width_seconds: int = 300) -> DynamicGraph:
    """Build a graph from ``(src_name, dst_name, raw_epoch_seconds)`` records.

    Names are interned to dense ids in first-appearance order (source
    before destination within a record). Each raw time is mapped to
    ``(raw - min(raw)) // bin_width_seconds`` and edges are stably
    sorted by the resulting bin.
    """
    if bin_width_seconds <= 0:
        raise ValueError("bin_width_seconds must be positive")
    registry = NodeRegistry()
    srcs: list[int] = []
    dsts: list[int] = []
    raws: list[int] = []
    for i, rec in enumerate(records, start=1):
        try:
            s, d, raw = rec
        except (TypeError, ValueError):
            raise IngestError(f"record {i}: expected (src, dst, timestamp)") from None
        if s is None or d is None or s == "" or d == "":
            raise IngestError(f"record {i}: missing node name")
        try:
            raw = int(raw)
        except (TypeError, ValueError):
            raise IngestError(f"record {i}: timestamp {raw!r} is not an integer") from None
        if raw < 0:
            raise IngestError(f"record {i}: negative timestamp {raw}")
        srcs.append(registry.intern(str(s)))
        dsts.append(registry.intern(str(d)))
        raws.append(raw)
    src, dst, raw_arr = (np.asarray(c, dtype=np.int64) for c in (srcs, dsts, raws))
    anchor = int(raw_arr.min()) if raw_arr.size else 0
    return DynamicGraph(registry, *binned(src, dst, raw_arr, anchor, bin_width_seconds),
                        bin_width_seconds, anchor)


def subgraph(parent: DynamicGraph, indices: np.ndarray) -> tuple[DynamicGraph, np.ndarray]:
    """Restriction of ``parent`` to the given edge indices.

    Node ids are re-interned densely in first-appearance order over the
    selected records, and bins are recomputed from the selection's own
    earliest raw time. Returns the new graph together with a
    parent-id -> new-id map (-1 for nodes outside the selection).
    """
    indices = np.asarray(indices, dtype=np.int64)
    new_of_old = np.full(parent.n, -1, dtype=np.int64)
    s = parent.src[indices]
    d = parent.dst[indices]
    raw = parent.raw[indices]
    seq = np.empty(2 * indices.size, dtype=np.int64)
    seq[0::2] = s
    seq[1::2] = d
    uniq, first_pos = np.unique(seq, return_index=True)
    old_of_new = uniq[np.argsort(first_pos, kind="stable")]
    new_of_old[old_of_new] = np.arange(old_of_new.size, dtype=np.int64)
    names = parent.registry.names()
    registry = NodeRegistry([names[o] for o in old_of_new.tolist()])
    width = parent.bin_width_seconds
    anchor = int(raw.min()) if raw.size else 0
    g = DynamicGraph(registry, *binned(new_of_old[s], new_of_old[d], raw, anchor, width),
                     width, anchor)
    return g, new_of_old


@dataclass
class Batch:
    """Contiguous slice of a graph's sorted edge list."""

    index: int
    start: int
    src: np.ndarray
    dst: np.ndarray
    t: np.ndarray

    def __len__(self) -> int:
        return int(self.src.size)

    @property
    def t_min(self) -> int:
        return int(self.t[0])

    @property
    def t_max(self) -> int:
        return int(self.t[-1])

    @cached_property
    def timestamps(self) -> np.ndarray:
        """Distinct bins occurring in this batch, ascending."""
        return np.unique(self.t)


def batches(graph: DynamicGraph, k: int) -> list[Batch]:
    """Split the sorted edge list into contiguous batches of size ``k``.

    Batch ``b`` covers edge positions ``[b*k, min((b+1)*k, m))``; the
    last batch may be short. Batches never realign to bin boundaries.
    """
    if k < 1:
        raise ValueError("batch size must be >= 1")
    out = []
    for b in range(0, (graph.m + k - 1) // k):
        lo = b * k
        hi = min(lo + k, graph.m)
        out.append(Batch(index=b, start=lo, src=graph.src[lo:hi],
                         dst=graph.dst[lo:hi], t=graph.t[lo:hi]))
    return out


def _pair_major(key: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(order, key[order])`` with ``order`` exactly ``np.lexsort((t, key))``.

    An unstable argsort ranks the keys; the values ``rank * m + position``
    are distinct (and below m**2), so one in-place sort of them is the
    stable order. Bins out of step with position are first ranked by
    (bin, position), and that rank stands in for the position.
    """
    m = key.size
    by_bin = None
    if m and (t[1:] < t[:-1]).any():
        by_bin = np.argsort(t, kind="stable")
        key = key[by_bin]
    o = np.argsort(key)
    key = key[o]
    c = np.zeros(m, dtype=np.int64)
    np.cumsum(key[1:] != key[:-1], out=c[1:])
    c *= m
    c += o
    del o
    c.sort()
    c %= m
    return (c if by_bin is None else by_bin[c]), key


class HistoryIndex:
    """Occurrence lookups over a fixed edge multiset.

    Edges are regrouped pair-major, in (pair, bin, position) order.
    ``_pair_keys`` holds the distinct directed pairs, encoded
    ``src * n + dst`` and sorted; a pair's row is its position there.
    Row ``r`` owns the block ``_offsets[r]:_offsets[r + 1]`` of
    ``_ts_by_pair`` (its occurrence bins, ascending) and of
    ``edge_by_pair`` (their edge positions, ascending within a bin, and
    within the block wherever bins ascend with position, as they do for
    every graph and split index).
    A lookup resolves each probe's pair to its row once, searching the
    probes in ascending key order, and answers every bin question with
    a binary search inside that row's block; there is no joint
    (pair, bin) key, so any int64 bin is answered exactly. Callers that
    ask several questions about the same pairs resolve the rows once
    with :meth:`pair_rows` and pass them in. Loop history is kept ordered
    by first loop, and the pairs' first-occurrence order is built on its
    first query (concurrent first queries may both build it, alike), so
    "strictly before t" queries reduce to a binary search plus a prefix
    length. Every query takes arrays and answers them all at once.
    """

    def __init__(self, src, dst, t, n_nodes: int):
        src, dst, t = (np.asarray(c, dtype=np.int64) for c in (src, dst, t))
        self.n_nodes = int(n_nodes)
        self.n_edges = int(src.size)
        n = max(self.n_nodes, 1)
        if n * n > 2 ** 63:
            raise ValueError(f"{n} nodes: pair keys src * n + dst overflow int64")
        self._enc_n = n

        # only the helper holds the unsorted keys, so they go once sorted
        order, key = _pair_major(src * n + dst, t)
        self._ts_by_pair = t[order]
        # a pair's block starts wherever the sorted key changes
        cut = np.ones(key.size + 1, dtype=bool)
        np.not_equal(key[1:], key[:-1], out=cut[1:-1])
        self._offsets = np.flatnonzero(cut)
        self._pair_keys = key[self._offsets[:-1]]
        del key, cut            # freed before the loop history makes its temporaries
        # edge positions in the same (pair, bin, position) order as _ts_by_pair
        self._edge_by_pair = order
        self._prior = None      # see _prior_order

        # Loop history: key == u*(n+1) exactly when src == dst == u.
        if self.n_nodes:
            loop_rows = np.flatnonzero(self._pair_keys % (n + 1) == 0)
            loop_nodes = self._pair_keys[loop_rows] // (n + 1)
            loop_first = self._ts_by_pair[self._offsets[loop_rows]]
            lord = np.argsort(loop_first, kind="stable")
            self._loop_first_t = loop_first[lord]
            self._loop_nodes_by_first = loop_nodes[lord]
            never = np.ones(self.n_nodes, dtype=bool)
            never[loop_nodes] = False
            self._never_looped = np.flatnonzero(never).astype(np.int64)
        else:
            self._loop_first_t = _EMPTY_I64
            self._loop_nodes_by_first = _EMPTY_I64
            self._never_looped = _EMPTY_I64

    # -- pair occurrence ------------------------------------------------

    def pair_rows(self, us, vs) -> np.ndarray:
        """Row of each directed pair (us[i], vs[i]); -1 where it never occurs
        (ids outside ``[0, n_nodes)`` included)."""
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        rows = np.full(us.size, -1, dtype=np.int64)
        keys = self._pair_keys
        if us.size == 0 or keys.size == 0:
            return rows
        n = self.n_nodes
        q = us * n + vs
        # ascending probes walk the key array once instead of at random
        order = np.argsort(q)
        q = q[order]
        pos = keys.searchsorted(q)
        np.minimum(pos, keys.size - 1, out=pos)
        hit = (keys[pos] == q) & ((us >= 0) & (us < n) & (vs >= 0) & (vs < n))[order]
        rows[order[hit]] = pos[hit]
        return rows

    def _search(self, lo: np.ndarray, hi: np.ndarray, vals: np.ndarray,
                right: bool = False) -> np.ndarray:
        """Per i, the first position in ``[lo[i], hi[i])`` of ``_ts_by_pair``
        whose bin is >= ``vals[i]`` (> with ``right``); ``hi[i]`` if none.

        One vectorized binary search; each round keeps only the probes
        whose range is still open, so a long block costs only its own.
        """
        ts = self._ts_by_pair
        out = lo.copy()
        live = np.flatnonzero(lo < hi)
        a, b, v = lo[live], hi[live], vals[live]
        while live.size:
            mid = (a + b) >> 1
            up = ts[mid] <= v if right else ts[mid] < v
            a = np.where(up, mid + 1, a)
            b = np.where(up, b, mid)
            done = a == b
            out[live[done]] = a[done]
            more = ~done
            live, a, b, v = live[more], a[more], b[more], v[more]
        return out

    @property
    def edge_by_pair(self) -> np.ndarray:
        """Edge positions aligned with the bounds of :meth:`window_bounds`, in
        (pair, bin, position) order: ascending within a pair wherever bins
        ascend with position, as in every graph and split index."""
        return self._edge_by_pair

    @property
    def bins_by_pair(self) -> np.ndarray:
        """Occurrence bins aligned with the bounds of :meth:`window_bounds`."""
        return self._ts_by_pair

    def window_bounds(self, us, vs, los, his, rows=None) -> tuple[np.ndarray, np.ndarray]:
        """Where the occurrences of each (u_i, v_i) within [lo_i, hi_i] are kept.

        Returns parallel ``starts, stops``: the occurrence bins of row i are
        ``bins_by_pair[starts[i]:stops[i]]`` and their edge positions are
        ``edge_by_pair[starts[i]:stops[i]]``, ordered by (bin, position). Rows whose
        pair never occurs, or whose window is empty, get ``starts == stops``.
        ``his=None`` leaves every window open to the pair's last bin; with
        ``rows`` from :meth:`pair_rows` given, ``us`` and ``vs`` are not read.
        """
        if rows is None:
            rows = self.pair_rows(us, vs)
        starts = np.zeros(rows.size, dtype=np.int64)
        stops = np.zeros(rows.size, dtype=np.int64)
        sel = np.flatnonzero(rows >= 0)
        r = rows[sel]
        end = self._offsets[r + 1]
        first = self._search(self._offsets[r], end, np.asarray(los, dtype=np.int64)[sel])
        starts[sel] = first
        if his is None:
            stops[sel] = end
        else:
            # searched from the window's start, so lo > hi comes back empty
            stops[sel] = self._search(first, end, np.asarray(his, dtype=np.int64)[sel], True)
        return starts, stops

    def occurred(self, us, vs, ts, rows=None) -> np.ndarray:
        """True where the directed edge (us[i], vs[i], ts[i]) is in the multiset.

        Exact for any int64 bin. With ``rows`` from :meth:`pair_rows`
        given, ``us`` and ``vs`` are not read.
        """
        if rows is None:
            rows = self.pair_rows(us, vs)
        ts = np.asarray(ts, dtype=np.int64)
        out = np.zeros(rows.size, dtype=bool)
        known = np.flatnonzero(rows >= 0)
        r, t = rows[known], ts[known]
        end = self._offsets[r + 1]
        pos = self._search(self._offsets[r], end, t)
        inside = pos < end
        out[known[inside]] = self._ts_by_pair[pos[inside]] == t[inside]
        return out

    # -- prior pairs (for the historical baseline) ----------------------

    def _prior_order(self) -> tuple[np.ndarray, np.ndarray]:
        """The distinct pairs' ``(first bins, keys)`` by first occurrence, built
        on the first call. Not a cached_property: on CPython 3.11 its write
        through ``__dict__`` slows every later attribute load on the index."""
        if self._prior is None:
            first_t = self._ts_by_pair[self._offsets[:-1]]
            ford = np.argsort(first_t, kind="stable")
            self._prior = first_t[ford], self._pair_keys[ford]
        return self._prior

    def prior_pair_counts(self, ts) -> np.ndarray:
        """Number of distinct directed pairs first seen strictly before each ``ts[i]``."""
        return np.searchsorted(self._prior_order()[0], np.asarray(ts, dtype=np.int64),
                               side="left")

    def prior_pairs(self, ranks) -> tuple[np.ndarray, np.ndarray]:
        """``(src, dst)`` of the ``ranks[i]``-th distinct pair in order of first occurrence."""
        return np.divmod(self._prior_order()[1][ranks], self._enc_n)

    # -- loop history ----------------------------------------------------

    def loopless_counts(self, before_ts) -> np.ndarray:
        """Size of the pool of nodes with no self-loop strictly before each ``before_ts[i]``."""
        j = np.searchsorted(self._loop_first_t, np.asarray(before_ts, dtype=np.int64),
                            side="left")
        return self._never_looped.size + (self._loop_first_t.size - j)

    def loopless_picks(self, before_ts, ranks) -> np.ndarray:
        """The ``ranks[i]``-th node of the loopless pool before ``before_ts[i]``.

        Ranks must lie in ``[0, loopless_counts(before_ts)[i])``; the pool
        lists never-looped nodes first, then later loopers by first loop.
        """
        ranks = np.asarray(ranks, dtype=np.int64)
        j = np.searchsorted(self._loop_first_t, np.asarray(before_ts, dtype=np.int64),
                            side="left")
        n0 = self._never_looped.size
        out = np.empty(ranks.size, dtype=np.int64)
        lo = ranks < n0
        out[lo] = self._never_looped[ranks[lo]]
        hi = ~lo
        out[hi] = self._loop_nodes_by_first[j[hi] + ranks[hi] - n0]
        return out


@dataclass(frozen=True)
class GraphStats:
    """Summary statistics of a graph, JSON-serializable via ``asdict``."""

    n_nodes: int
    n_edges: int
    unique_directed_pairs: int
    distinct_nonloop_pairs: int
    loop_count: int
    unique_pair_fraction: float
    loop_fraction: float
    start_date: Optional[str]
    end_date: Optional[str]


def stats(graph: DynamicGraph) -> GraphStats:
    """Node/edge/pair/loop counts plus the UTC date span of the raw times.

    ``unique_directed_pairs`` counts distinct ordered pairs including
    self-loop pairs; ``distinct_nonloop_pairs`` excludes them, so either
    reading of "unique pairs" is available. Fractions are relative to
    the edge count and reported as 0 for an empty graph.
    """
    m = graph.m
    if m == 0:
        return GraphStats(graph.n, 0, 0, 0, 0, 0.0, 0.0, None, None)
    key = graph.src * np.int64(graph.n) + graph.dst
    unique_pairs = int(np.unique(key).size)
    nonloop = graph.src != graph.dst
    loop_count = int(m - nonloop.sum())
    nonloop_pairs = int(np.unique(key[nonloop]).size)
    return GraphStats(
        n_nodes=graph.n,
        n_edges=m,
        unique_directed_pairs=unique_pairs,
        distinct_nonloop_pairs=nonloop_pairs,
        loop_count=loop_count,
        unique_pair_fraction=unique_pairs / m,
        loop_fraction=loop_count / m,
        start_date=str(utc(graph.raw.min(), "D")),
        end_date=str(utc(graph.raw.max(), "D")),
    )
