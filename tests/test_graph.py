"""Graph construction, binning, batching, and the history index."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dins import (DynamicGraph, IngestError, NodeRegistry, SamplerConfig, batches,
                  build_graph, load_graph, make_split, monthly_schedule, sample_batches,
                  save_graph, stats, subgraph)
from dins import graph as graph_module
from dins import sample_io, split
from dins.config import derive_rng
from dins.graph import HistoryIndex
from dins.synthetic import multi_month_records, random_graph, random_records

from conftest import (first_seen_map, graphs, loop_first_map, pair_times_map,
                      record_lists, triple_set)


# -- construction ---------------------------------------------------------------


def test_build_graph_bins_and_sorts():
    # raw seconds 600, 0, 950 at 300s bins -> bins 2, 0, 3 after sorting
    g = build_graph([("alice", "bob", 600), ("bob", "carol", 0),
                     ("alice", "bob", 950)])
    assert g.t.tolist() == [0, 2, 3]
    assert g.raw.tolist() == [0, 600, 950]
    # ids follow first appearance in ingestion order: alice=0, bob=1, carol=2
    assert g.registry.names() == ["alice", "bob", "carol"]
    assert g.src.tolist() == [1, 0, 0]
    assert g.dst.tolist() == [2, 1, 1]
    assert g.raw_anchor == 0 and g.bin_width_seconds == 300
    assert g.n == 3 and g.m == 3 and g.t_max == 3


def test_build_graph_anchors_at_min_raw():
    g = build_graph([("a", "b", 1_000_000), ("b", "a", 1_000_299),
                     ("a", "b", 1_000_300)])
    assert g.raw_anchor == 1_000_000
    assert g.t.tolist() == [0, 0, 1]


def test_build_graph_stable_tie_order():
    # same bin: ingestion order must be preserved
    g = build_graph([("a", "b", 100), ("c", "d", 50), ("e", "f", 120)])
    # all three in bin 0; order of appearance kept
    assert g.t.tolist() == [0, 0, 0]
    names = [(g.registry.name_of(int(s)), g.registry.name_of(int(d)))
             for s, d in zip(g.src, g.dst)]
    assert names == [("a", "b"), ("c", "d"), ("e", "f")]


def test_build_graph_custom_bin_width():
    g = build_graph([("a", "b", 0), ("a", "b", 3599), ("a", "b", 3600)],
                    bin_width_seconds=3600)
    assert g.t.tolist() == [0, 0, 1]


@pytest.mark.parametrize("records,fragment", [
    ([("a", "", 5)], "record 1"),
    ([("a", "b", 5), ("", "b", 5)], "record 2"),
    ([("a", "b", "soon")], "timestamp"),
    ([("a", "b", -3)], "negative"),
    ([("a",)], "record 1"),
])
def test_build_graph_rejects_bad_records(records, fragment):
    with pytest.raises(IngestError, match=fragment):
        build_graph(records)


def test_build_graph_rejects_bad_bin_width():
    with pytest.raises(ValueError):
        build_graph([("a", "b", 0)], bin_width_seconds=0)


def test_empty_graph_allowed():
    g = build_graph([])
    assert g.m == 0 and g.n == 0
    s = stats(g)
    assert s.n_edges == 0 and s.start_date is None


def test_arrays_are_immutable(tiny_graph):
    for arr in (tiny_graph.src, tiny_graph.dst, tiny_graph.t, tiny_graph.raw):
        with pytest.raises(ValueError):
            arr[0] = 99


def _columns(g):
    return g.src, g.dst, g.t, g.raw


def _rewrap(g, *arrays):
    return DynamicGraph(g.registry, *(arrays or _columns(g)), g.bin_width_seconds, g.raw_anchor)


def test_read_only_int64_arrays_are_taken_without_a_copy(tiny_graph):
    for again in (_rewrap(tiny_graph), _rewrap(_rewrap(tiny_graph))):
        assert all(a is b for a, b in zip(_columns(again), _columns(tiny_graph)))
    # a slice of a graph's arrays is read-only all the way down too
    head = _rewrap(tiny_graph, *(c[:4] for c in _columns(tiny_graph)))
    assert head.m == 4
    assert all(np.shares_memory(a, b) for a, b in zip(_columns(head), _columns(tiny_graph)))


def test_graphs_and_split_blocks_keep_what_binned_returned(monkeypatch):
    made, binned = [], graph_module.binned

    def spy(*args):
        made.append(binned(*args))
        return made[-1]

    monkeypatch.setattr(graph_module, "binned", spy)
    monkeypatch.setattr(split, "binned", spy)
    g = build_graph(multi_month_records(40, 200, 2, seed=1))
    assert all(a is b for a, b in zip(_columns(g), made[0]))
    sub, _ = subgraph(g, np.arange(0, g.m, 3))
    assert all(np.shares_memory(a, b) for a, b in zip(_columns(sub), made[1]))
    s = make_split(g, *monthly_schedule(g))
    assert all(np.shares_memory(a, b) for a, b in zip(_columns(s.train), made[2]))
    for block in (s.val, s.test):
        assert len(block) and all(np.shares_memory(a, b)
                                  for a, b in zip(_columns(block), made[3]))
    assert not any(a.flags.writeable for out in made for a in out)


def test_load_graph_keeps_the_arrays_it_reads(tiny_graph, tmp_path, monkeypatch):
    given_arrays = []

    class Spy(DynamicGraph):
        def __init__(self, registry, *rest):
            given_arrays.extend(rest[:4])
            super().__init__(registry, *rest)

    monkeypatch.setattr(sample_io, "DynamicGraph", Spy)
    save_graph(tmp_path / "g.npz", tiny_graph)
    g = load_graph(tmp_path / "g.npz")
    assert all(a is b for a, b in zip(_columns(g), given_arrays))
    assert all(np.array_equal(a, b) for a, b in zip(_columns(g), _columns(tiny_graph)))


def test_arrays_that_could_change_are_copied(tiny_graph):
    cols = [c.copy() for c in _columns(tiny_graph)]           # writable
    views = []                                                 # read-only views of them
    for c in cols:
        views.append(c.view())
        views[-1].setflags(write=False)
    for g in (_rewrap(tiny_graph, *cols), _rewrap(tiny_graph, *views)):
        assert not any(np.shares_memory(a, c) for a, c in zip(_columns(g), cols))
        assert not any(a.flags.writeable for a in _columns(g))
    kept = _rewrap(tiny_graph, *views)
    for c in cols:
        c[:] = 99
    assert all(np.array_equal(a, b) for a, b in zip(_columns(kept), _columns(tiny_graph)))


def test_other_dtypes_and_strides_are_copied(tiny_graph):
    narrow = [c.astype(np.int32) for c in _columns(tiny_graph)]
    doubled = [np.repeat(c, 2) for c in _columns(tiny_graph)]
    for a in narrow + doubled:
        a.setflags(write=False)
    for arrays in (narrow, [d[::2] for d in doubled]):
        g = _rewrap(tiny_graph, *arrays)
        for a, given, want in zip(_columns(g), arrays, _columns(tiny_graph)):
            assert a.dtype == np.int64 and a.flags.c_contiguous and not a.flags.writeable
            assert not np.shares_memory(a, given) and np.array_equal(a, want)


def test_rewrapping_and_indexing_a_graph_hold_their_memory_down():
    # tracemalloc sees every NumPy buffer, so these byte counts are exact
    g = random_graph(10_000, 200_000, seed=0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        again = _rewrap(g)
        kept = tracemalloc.get_traced_memory()[0] - before
        tracemalloc.reset_peak()
        HistoryIndex(g.src, g.dst, g.t, g.n)
        peak = tracemalloc.get_traced_memory()[1] - before - kept
    finally:
        tracemalloc.stop()
    assert again.m == g.m
    assert kept / g.m < 1           # a copy of the four arrays keeps 32 B per edge
    assert peak / g.m <= 52         # the index build peaked at 57.9 B per edge


@pytest.mark.parametrize("bins_sorted", [True, False])
def test_indexing_dense_edges_holds_its_memory_down(bins_sorted):
    # six nodes, so the pair keys tie in long runs; bins out of order take
    # the index build's (bin, position) ranking as well
    rng = np.random.default_rng(0)
    m = 200_000
    src, dst = rng.integers(0, 6, (2, m))
    t = rng.integers(0, 5_000, m)
    if bins_sorted:
        t.sort()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        HistoryIndex(src, dst, t, 6)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak / m <= 52


def test_registry_roundtrip():
    reg = NodeRegistry()
    assert reg.intern("x") == 0
    assert reg.intern("y") == 1
    assert reg.intern("x") == 0
    assert reg.id_of("y") == 1
    assert reg.name_of(0) == "x"
    assert "y" in reg and "z" not in reg
    assert reg.get("z") is None
    assert len(reg) == 2
    with pytest.raises(KeyError):
        reg.id_of("z")


@pytest.mark.parametrize("names", [[], ["b", "a", "b", "c", "a", "d", "c"]])
@pytest.mark.parametrize("given_as", [list, lambda names: (name for name in names)])
def test_registry_from_names_equals_interning_them_in_turn(names, given_as):
    # a repeated name keeps its first id, and names keep first-appearance order
    interned = NodeRegistry()
    ids = [interned.intern(name) for name in names]
    reg = NodeRegistry(given_as(names))
    assert reg.names() == interned.names()
    assert [reg.id_of(name) for name in names] == ids
    assert [reg.name_of(i) for i in range(len(reg))] == interned.names()
    assert len(reg) == len(interned)
    assert reg.intern("new") == len(interned)


@given(record_lists())
@settings(max_examples=60, deadline=None)
def test_build_graph_is_sorted_and_lossless(records):
    g = build_graph(records)
    assert g.m == len(records)
    t = g.t
    assert bool(np.all(t[1:] >= t[:-1]))
    # multiset of (src name, dst name, raw) survives exactly
    got = sorted((g.registry.name_of(int(s)), g.registry.name_of(int(d)), int(r))
                 for s, d, r in zip(g.src, g.dst, g.raw))
    assert got == sorted((a, b, int(r)) for a, b, r in records)
    # bins recompute from raw
    assert np.array_equal(g.t, (g.raw - g.raw.min()) // g.bin_width_seconds)


# -- stats ---------------------------------------------------------------------


def test_stats_frozen_values(tiny_graph):
    s = stats(tiny_graph)
    assert s.n_nodes == 3 and s.n_edges == 6
    # pairs: (a,b)x2, (b,c), (c,c), (b,a), (a,c) -> 5 unique of 6
    assert s.unique_directed_pairs == 5
    assert s.distinct_nonloop_pairs == 4
    assert s.loop_count == 1
    assert s.unique_pair_fraction == pytest.approx(5 / 6)
    assert s.loop_fraction == pytest.approx(1 / 6)
    assert s.start_date == "1970-01-01" and s.end_date == "1970-01-01"


def test_stats_dates_are_utc():
    g = build_graph([("a", "b", 1609459199), ("a", "b", 1609459200)])
    s = stats(g)
    assert s.start_date == "2020-12-31"
    assert s.end_date == "2021-01-01"


# -- subgraph -------------------------------------------------------------------


def test_subgraph_reinterns_and_reanchors(tiny_graph):
    # keep edges at bins 3..5: (c,c), (b,a), (a,c)
    sub, new_of_old = subgraph(tiny_graph, np.array([3, 4, 5]))
    assert sub.m == 3
    assert sub.raw_anchor == 3 * 300
    assert sub.t.tolist() == [0, 1, 2]
    # first appearance order: c (src of (c,c)), then b, then a
    assert sub.registry.names() == ["c", "b", "a"]
    # mapping: old a=0 -> 2, b=1 -> 1, c=2 -> 0
    assert new_of_old.tolist() == [2, 1, 0]


def test_subgraph_registry_names_nodes_as_first_seen_in_its_edges():
    g = build_graph(random_records(60, 400, seed=4))
    indices = np.arange(1, g.m, 3)
    sub, new_of_old = subgraph(g, indices)
    interned = NodeRegistry()
    for s, d in zip(g.src[indices].tolist(), g.dst[indices].tolist()):
        interned.intern(g.registry.name_of(s))
        interned.intern(g.registry.name_of(d))
    assert sub.registry.names() == interned.names()
    assert [sub.registry.get(name, -1) for name in g.registry.names()] == new_of_old.tolist()


def test_subgraph_marks_absent_nodes(tiny_graph):
    sub, new_of_old = subgraph(tiny_graph, np.array([0]))  # just (a,b)
    assert sub.n == 2
    assert new_of_old.tolist() == [0, 1, -1]


# -- batches --------------------------------------------------------------------


def test_batches_slice_contiguously(tiny_graph):
    bs = batches(tiny_graph, 4)
    assert [len(b) for b in bs] == [4, 2]
    assert [b.index for b in bs] == [0, 1]
    assert bs[0].start == 0 and bs[1].start == 4
    assert bs[1].t_min == 4 and bs[1].t_max == 5
    assert bs[0].timestamps.tolist() == [0, 1, 2, 3]


def test_batches_reject_bad_k(tiny_graph):
    with pytest.raises(ValueError):
        batches(tiny_graph, 0)


# -- history index (checked against plain-scan oracles) --------------------------


@given(graphs())
@settings(max_examples=60, deadline=None)
def test_history_index_matches_oracles(g):
    idx = g.history
    times = pair_times_map(g)
    triples = triple_set(g)
    firsts = first_seen_map(g)
    loops = loop_first_map(g)
    t_probe = list(range(-1, int(g.t_max) + 3))

    for (u, v), ts in times.items():
        start, stop = idx.window_bounds([u], [v], [t_probe[0]], None)
        assert idx.bins_by_pair[start[0]:stop[0]].tolist() == ts
        assert g.t[idx.edge_by_pair[start[0]:stop[0]]].tolist() == ts
        assert idx.pair_rows([u], [v])[0] >= 0
    assert (idx.pair_rows([g.n - 1], [g.n - 1])[0] < 0) or (g.n - 1, g.n - 1) in times

    for u, v in list(times)[:10]:
        for t in t_probe:
            start, stop = idx.window_bounds([u], [v], [t_probe[0]], [t - 1])
            assert (stop[0] > start[0]) == any(x < t for x in times[(u, v)])
            expect_last = max((x for x in times[(u, v)] if x <= t), default=None)
            start, stop = idx.window_bounds([u], [v], [t_probe[0]], [t])
            last = idx.bins_by_pair[stop[0] - 1] if stop[0] > start[0] else None
            assert last == expect_last

    # vectorized membership agrees with the scalar scan on a grid
    us, vs, tq = [], [], []
    for (u, v) in times:
        for t in t_probe:
            us.append(u); vs.append(v); tq.append(t)
    got = idx.occurred(np.array(us), np.array(vs), np.array(tq))
    want = np.array([(u, v, t) in triples for u, v, t in zip(us, vs, tq)])
    assert np.array_equal(got, want)
    # and so it does with the pair rows resolved beforehand
    rows = idx.pair_rows(np.array(us), np.array(vs))
    assert np.array_equal(idx.occurred(None, None, np.array(tq), rows=rows), want)

    # per-row window slices agree with slicing the oracle's time lists
    pairs = list(times)
    w_us = np.array([p[0] for p in pairs], dtype=np.int64)
    w_vs = np.array([p[1] for p in pairs], dtype=np.int64)
    w_lo = np.array([tp % 4 for tp in range(len(pairs))], dtype=np.int64)
    w_hi = w_lo + np.array([tp % 7 for tp in range(len(pairs))], dtype=np.int64)
    starts, stops = idx.window_bounds(w_us, w_vs, w_lo, w_hi)
    for i, (u, v) in enumerate(pairs):
        expect = [x for x in times[(u, v)] if w_lo[i] <= x <= w_hi[i]]
        assert idx._ts_by_pair[starts[i]:stops[i]].tolist() == expect

    # prior distinct pairs strictly before t
    for t in t_probe:
        want_pairs = {p for p, f in firsts.items() if f < t}
        assert idx.prior_pair_counts([t])[0] == len(want_pairs)
        us, vs = idx.prior_pairs(np.arange(len(want_pairs)))
        assert set(zip(us.tolist(), vs.tolist())) == want_pairs

    # loopless pool strictly before t
    for t in t_probe:
        want_nodes = {u for u in range(g.n)
                      if u not in loops or loops[u] >= t}
        count = int(idx.loopless_counts([t])[0])
        assert count == len(want_nodes)
        pool = idx.loopless_picks(np.full(count, t), np.arange(count)).tolist()
        assert len(pool) == count and set(pool) == want_nodes
        if want_nodes:
            draws = derive_rng(1, t + 1).integers(0, count, size=64)
            picks = idx.loopless_picks(np.full(64, t), draws)
            assert set(picks.tolist()) <= want_nodes


def test_history_index_prior_counts_vectorized(tiny_graph):
    idx = tiny_graph.history
    ts = np.array([0, 1, 2, 3, 4, 5, 6])
    got = idx.prior_pair_counts(ts)
    want = np.array([idx.prior_pair_counts([t])[0] for t in ts])
    assert np.array_equal(got, want)


def test_history_index_builds_the_prior_pair_order_only_when_asked():
    g = build_graph(random_records(80, 3000, seed=5, t_span_bins=40, loop_fraction=0.02))
    idx = g.history
    for _ in sample_batches(g, "dins", SamplerConfig(k=100, seed=0)):
        pass

    def index_bytes():    # the arrays held directly or in a cached tuple
        held = [a for v in vars(idx).values() for a in (v if isinstance(v, tuple) else (v,))]
        return sum(a.nbytes for a in held if isinstance(a, np.ndarray))

    firsts = first_seen_map(g)
    n_pairs, n_loopers = len(firsts), len(loop_first_map(g))
    assert 0 < n_loopers < g.n and n_pairs < g.m
    # pair keys, block offsets, bins and edge positions; loop first bins and
    # nodes, and the never-looped nodes
    lean = 8 * ((n_pairs + n_pairs + 1 + g.m + g.m) + (2 * n_loopers + g.n - n_loopers))
    assert index_bytes() == lean
    ts = np.arange(-1, g.t_max + 3)
    assert idx.prior_pair_counts(ts).tolist() == [
        sum(f < t for f in firsts.values()) for t in ts.tolist()]
    assert index_bytes() == lean + 16 * n_pairs
    by_first = sorted(firsts, key=lambda p: (firsts[p], p))
    us, vs = idx.prior_pairs(np.arange(n_pairs))
    assert list(zip(us.tolist(), vs.tolist())) == by_first


def test_history_index_huge_ids_and_bins():
    # pair keys near n**2 and bins past 2**31 answer like any others
    n = 2**20
    src = np.array([5, n - 2], dtype=np.int64)
    dst = np.array([7, n - 3], dtype=np.int64)
    t = np.array([0, 2**31], dtype=np.int64)
    idx = HistoryIndex(src, dst, t, n)
    got = idx.occurred(src, dst, np.array([0, 2**31]))
    assert got.tolist() == [True, True]
    assert not idx.occurred(src, dst, np.array([1, 1])).any()
    assert not idx.occurred([5, n - 2], [7, n - 3], [2**31, 0]).any()
    assert [a.tolist() for a in idx.prior_pairs(np.array([0, 1]))] == [[5, n - 2], [7, n - 3]]
    assert idx.prior_pair_counts([0, 1, 2**31, 2**31 + 1]).tolist() == [0, 1, 1, 2]


_I64 = np.iinfo(np.int64)
_EMPTY = np.zeros(0, dtype=np.int64)


@st.composite
def dense_histories(draw):
    """2-6 nodes with long pair blocks, optionally at ids near 2**20 and
    bins past 2**31, and edges sorted by bin or not; one edge always
    repeats at its own bin. Probes reach one id past either end and bins
    far outside the span."""
    k = draw(st.integers(2, 6))
    id0 = draw(st.sampled_from([0, 2**20 - 6]))
    t0 = draw(st.sampled_from([0, 2**31 + 5, 2**40]))
    edges = draw(st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1),
                                    st.integers(0, 12)), min_size=1, max_size=40))
    edges.append(edges[0])
    if draw(st.booleans()):
        edges.sort(key=lambda e: e[2])            # as every graph's edges are
    src, dst, t = (np.array(c, dtype=np.int64) for c in zip(*edges))
    near = st.integers(-3, 15).map(lambda x: t0 + x)
    bins = st.one_of(near, st.sampled_from([_I64.min, -1, 0, _I64.max]))
    node = st.integers(-1, k).map(lambda x: id0 + x)      # one past each end too
    probes = draw(st.lists(st.tuples(node, node, bins, bins), min_size=1, max_size=30))
    return id0 + k, id0 + src, id0 + dst, t0 + t, probes


@given(dense_histories())
@settings(max_examples=150, deadline=None)
def test_pair_row_lookups_match_brute_force(case):
    n, src, dst, t, probes = case
    idx = HistoryIndex(src, dst, t, n)
    edges = list(zip(src.tolist(), dst.tolist(), t.tolist()))
    us, vs, los, his = (np.array(c, dtype=np.int64) for c in zip(*probes))
    rows = idx.pair_rows(us, vs)

    def by_bin(e):                  # a pair's occurrences go by (bin, position)
        return edges[e][2], e

    want = [(u, v, b) in edges for u, v, b, _ in probes]
    assert idx.occurred(us, vs, los).tolist() == want
    assert idx.occurred(None, None, los, rows=rows).tolist() == want

    for given_rows in (None, rows):
        starts, stops = idx.window_bounds(us, vs, los, his, rows=given_rows)
        open_starts, ends = idx.window_bounds(us, vs, los, None, rows=given_rows)
        for i, (u, v, lo, hi) in enumerate(probes):
            inside = sorted((e for e, (a, b, x) in enumerate(edges)
                             if (a, b) == (u, v) and lo <= x <= hi), key=by_bin)
            assert stops[i] - starts[i] == len(inside)            # never negative
            assert idx.edge_by_pair[starts[i]:stops[i]].tolist() == inside
            later = sorted((e for e, (a, b, x) in enumerate(edges)
                            if (a, b) == (u, v) and x >= lo), key=by_bin)
            assert idx.edge_by_pair[open_starts[i]:ends[i]].tolist() == later
            assert idx._ts_by_pair[open_starts[i]:ends[i]].tolist() == [t[e] for e in later]


_N_MAX = 3_037_000_499      # the most nodes whose pair keys fit in int64


@st.composite
def pair_sorts(draw):
    """Pair keys of ``n`` nodes with long runs of ties, at ids near 0 and
    near ``n``, and bins that repeat, reach the int64 ends and come sorted
    or not."""
    n = draw(st.sampled_from([1, 2, 5, 2**20, _N_MAX]))
    ids = st.integers(0, n - 1) if n <= 5 else st.sampled_from([0, 1, n - 2, n - 1])
    m = draw(st.integers(0, 200))
    src, dst = (np.array(draw(st.lists(ids, min_size=m, max_size=m)), dtype=np.int64)
                for _ in range(2))
    bin_ = st.one_of(st.integers(-2, 6), st.sampled_from([_I64.min, _I64.max]))
    t = np.array(draw(st.lists(bin_, min_size=m, max_size=m)), dtype=np.int64)
    if draw(st.booleans()):
        t.sort()
    return n, src, dst, t


def _lexsort_pair_major(key, t):
    order = np.lexsort((t, key))
    return order, key[order]


@given(pair_sorts())
@example((1, _EMPTY, _EMPTY, _EMPTY))
@example((2, np.array([1]), np.array([0]), np.array([_I64.max])))
@settings(max_examples=200, deadline=None)
def test_pair_major_order_is_lexsorts(case):
    n, src, dst, t = case
    key = src * n + dst
    want, want_keys = _lexsort_pair_major(key, t)
    order, keys = graph_module._pair_major(key, t)
    assert np.array_equal(order, want) and order.dtype == want.dtype
    assert np.array_equal(keys, want_keys)
    if n > 2**20:
        return                      # an index keeps a flag per node: 3 GB here
    idx = HistoryIndex(src, dst, t, n)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph_module, "_pair_major", _lexsort_pair_major)
        ref = HistoryIndex(src, dst, t, n)
    assert vars(idx).keys() == vars(ref).keys()
    for name, a in vars(ref).items():
        if isinstance(a, np.ndarray):
            assert np.array_equal(vars(idx)[name], a), name


def test_history_index_rejects_overflowing_pair_keys():
    with pytest.raises(ValueError, match="overflow"):
        HistoryIndex(np.zeros(0), np.zeros(0), np.zeros(0), 2**32)
