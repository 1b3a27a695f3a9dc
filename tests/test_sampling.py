"""Negative-sampling strategies: frozen cases, contracts, and properties."""

from __future__ import annotations

import hashlib
import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dins import (SamplerConfig, batch_rng, batches, build_graph, evaluation,
                  sample_batches, sampling)
from dins.config import derive_rng, derive_rngs
from dins.evaluation import EVAL_NEGATIVE_CATEGORIES, build_eval_set
from dins.sampling import (HISTORICAL, LOOP, NEG, NEGATIVE_LOOP, OBSERVED, POS,
                           POSITIVE_ENHANCEMENT, RANDOM_RECEIVER,
                           RANDOM_SENDER, STRATEGIES, TEMPORAL, VOCABULARY, Sample,
                           _Replay, _Run, _sample_run, _sample_sets,
                           positive_enhancement, sample_dins,
                           sample_historical_baseline, sample_negative_loops,
                           sample_random_baseline, sample_sender_receiver,
                           sample_temporal)
from dins.synthetic import graph_from_arrays, multi_month_records, random_records

from conftest import first_seen_map, graphs, loop_first_map, triple_set

W = 300  # default bin width in seconds


# -- the oracle: draws as calls on each batch's Generator -------------------------


def _ints(rng: np.random.Generator, lo: int, hi: int, size: int) -> list[int]:
    """``rng.integers(lo, hi, size=size).tolist()``, as scalar calls when few.

    NumPy yields the same values one call at a time as in one sized call
    (``test_scalar_draws_equal_sized_draws`` pins this), and a scalar call
    costs about a quarter of a sized one.
    """
    if size < 4:
        return [int(rng.integers(lo, hi)) for _ in range(size)]
    return rng.integers(lo, hi, size=size).tolist()


class _Calls:
    """The draws of a run's batches, as calls on each batch's Generator.

    ``ints`` draws, per batch ``b`` and in segment order, ``counts[b, s]``
    integers from ``[0, highs[b, s])``; ``uniforms`` draws ``counts[b]``
    floats from [0, 1) per batch; both return the values in batch order.
    ``integers`` makes ``size`` draws from [lo, hi) for batch ``b``.
    With ``check``, ``ints`` draws ``counts[b, 0]`` slots per batch, one
    after another: slot ``i`` makes ``tries[p]`` attempts in phase ``p``,
    for ``p = 0, 1, ...``, until one stands, each drawing one integer from
    ``[0, highs[i, p])`` (none when that is 1, which gives 0, and none when
    it is below 1, which fails the attempt); a value stands once
    ``check(i, p, value)`` accepts it. It returns the values, -1 where no
    attempt stood, and the attempt each slot ended on.
    """

    def __init__(self, rngs: list):
        self.rngs = rngs

    def ints(self, counts: np.ndarray, highs: np.ndarray, check=None, tries=(1,)):
        if check is None:
            vals: list[int] = []
            for rng, cs, hs in zip(self.rngs, counts.tolist(), highs.tolist()):
                for c, h in zip(cs, hs):
                    if c:
                        vals += _ints(rng, 0, h, c)
            return np.array(vals, dtype=np.int64)
        batch = np.repeat(np.arange(len(self.rngs)), counts[:, 0])
        vals = np.full(batch.size, -1, dtype=np.int64)
        tried = np.zeros(batch.size, dtype=np.int64)
        for i, b in enumerate(batch.tolist()):
            for p, n in enumerate(tries):
                high = int(highs[i, p])
                for _ in range(n):
                    if high >= 1:
                        x = _ints(self.rngs[b], 0, high, 1)
                        if check(np.array([i]), np.array([p]), np.array(x))[0]:
                            vals[i] = x[0]
                            break
                    tried[i] += 1
                if vals[i] >= 0:
                    break
        return vals, tried

    def uniforms(self, counts: np.ndarray) -> np.ndarray:
        return np.concatenate([rng.random(c) for rng, c in zip(self.rngs, counts.tolist())])

    def integers(self, b: int, lo: int, hi: int, size: int) -> list[int]:
        return _ints(self.rngs[b], lo, hi, size)


class _SettledCalls(_Calls):
    """Calls in the place of ``_Replay.of``: they leave nothing to settle."""

    @classmethod
    def of(cls, rng):
        return cls([rng])

    def settle(self):
        pass


def oracle_sample(strategy, batch, graph, config, rng, pool_mode="batch"):
    """One batch sampled through ``_Run`` with the draws made as calls on ``rng``."""
    run = _Run(graph, _Calls([rng]), batch.src, batch.dst, batch.t, [len(batch)],
               [batch.index])
    (ss,) = _sample_sets(run.indices, *_sample_run(run, config, strategy, pool_mode))
    return ss


def bgraph(edges):
    """Build a graph from (src, dst, bin) triples at the default width."""
    return build_graph([(u, v, t * W) for u, v, t in edges])


def one_batch(graph, **cfg_kwargs):
    cfg = SamplerConfig(**{"k": 1000, "seed": 0, **cfg_kwargs})
    bs = batches(graph, cfg.k)
    assert len(bs) == 1
    return bs[0], cfg


# -- temporal: deterministic exhaustive fill -------------------------------------


def test_temporal_emits_whole_window_when_scarce():
    # three positives; window [t, t+5] capped at the batch max bin 15
    g = bgraph([("x", "y", 0), ("a", "b", 10), ("c", "d", 15)])
    batch, cfg = one_batch(g, q=5, t_f=5)
    ss = sample_temporal(batch, g, cfg, batch_rng(0, 0))
    by_pair = {}
    for s in ss.samples:
        assert s.category == TEMPORAL and s.label == NEG
        by_pair.setdefault((s.src, s.dst), []).append(s.t)
    xy = (g.registry.id_of("x"), g.registry.id_of("y"))
    ab = (g.registry.id_of("a"), g.registry.id_of("b"))
    # exactly five admissible bins each -> all emitted, ascending
    assert by_pair[xy] == [1, 2, 3, 4, 5]
    assert by_pair[ab] == [11, 12, 13, 14, 15]
    # the positive at the batch max has an empty window -> full shortfall
    assert (g.registry.id_of("c"), g.registry.id_of("d")) not in by_pair
    assert ss.tallies["temporal_shortfall"] == 5
    assert len(ss.samples) + ss.tallies["temporal_shortfall"] == cfg.q * len(batch)


def test_temporal_skips_occupied_bins():
    # pair occurs at bins 0,2,4; window [0,5] -> admissible {1,3,5}
    g = bgraph([("a", "b", 0), ("a", "b", 2), ("a", "b", 4), ("c", "d", 5)])
    batch, cfg = one_batch(g, q=3, t_f=5)
    ss = sample_temporal(batch, g, cfg, batch_rng(0, 0))
    a, b = g.registry.id_of("a"), g.registry.id_of("b")
    ab_times = [s.t for s in ss.samples if (s.src, s.dst) == (a, b)]
    # each of the three positives for (a,b) gets the same 3-bin complement
    assert ab_times[:3] == [1, 3, 5]
    for s in ss.samples:
        assert not (s.src, s.dst, s.t) in triple_set(g)


def test_temporal_draws_are_distinct_within_positive():
    rng_graph = bgraph([("a", "b", 0)] + [("u", "w", t) for t in range(1, 400)])
    batch, cfg = one_batch(rng_graph, q=5, t_f=288)
    ss = sample_temporal(batch, rng_graph, cfg, batch_rng(3, 0))
    a, b = rng_graph.registry.id_of("a"), rng_graph.registry.id_of("b")
    ab_times = [s.t for s in ss.samples if (s.src, s.dst) == (a, b)]
    assert len(ab_times) == 5
    assert len(set(ab_times)) == 5
    assert all(0 < t <= 288 for t in ab_times)


# -- sender / receiver ------------------------------------------------------------


def test_sender_receiver_shape_and_direction(tiny_graph):
    batch, cfg = one_batch(tiny_graph)
    ss = sample_sender_receiver(batch, tiny_graph, cfg, batch_rng(0, 0))
    assert len(ss.samples) == 2 * len(batch)
    triples = triple_set(tiny_graph)
    for i in range(len(batch)):
        snd, rcv = ss.samples[2 * i], ss.samples[2 * i + 1]
        u, v, t = int(batch.src[i]), int(batch.dst[i]), int(batch.t[i])
        assert snd.category == RANDOM_SENDER
        assert (snd.dst, snd.t) == (v, t) and snd.src not in (u, v)
        assert rcv.category == RANDOM_RECEIVER
        assert (rcv.src, rcv.t) == (u, t) and rcv.dst not in (u, v)
        assert (snd.src, snd.dst, snd.t) not in triples
        assert (rcv.src, rcv.dst, rcv.t) not in triples


def test_random_baseline_is_one_receiver_per_positive(tiny_graph):
    batch, cfg = one_batch(tiny_graph)
    ss = sample_random_baseline(batch, tiny_graph, cfg, batch_rng(0, 0))
    assert len(ss.samples) == len(batch)
    assert all(s.category == RANDOM_RECEIVER for s in ss.samples)
    assert [s.src for s in ss.samples] == batch.src.tolist()
    assert [s.t for s in ss.samples] == batch.t.tolist()


def test_replacement_impossible_in_two_node_graph():
    g = bgraph([("a", "b", 0), ("a", "b", 1)])
    batch, cfg = one_batch(g)
    ss = sample_random_baseline(batch, g, cfg, batch_rng(0, 0))
    assert len(ss.samples) == 0
    assert ss.tallies["skipped"] == 2


def test_replacement_pool_includes_partner_on_loops():
    # positive (a, a): receiver pool is V minus {a} = {b}, so (a, b) is forced
    g = bgraph([("b", "c", 0), ("a", "a", 1)])
    batch, cfg = one_batch(g)
    ss = sample_random_baseline(batch, g, cfg, batch_rng(0, 0))
    a = g.registry.id_of("a")
    loop_neg = [s for s in ss.samples if s.src == a]
    assert len(loop_neg) == 1
    assert loop_neg[0].dst != a


# -- historical -------------------------------------------------------------------


def test_historical_frozen_case():
    g = bgraph([("a", "b", 0), ("c", "d", 1), ("a", "b", 2), ("e", "f", 3)])
    ids = {nm: g.registry.id_of(nm) for nm in "abcdef"}
    batch, cfg = one_batch(g)
    ss = sample_historical_baseline(batch, g, cfg, batch_rng(0, 0))
    # positive 1 at t=0: no prior pair -> random fallback
    assert ss.tallies["historical_fallback"] == 1
    fallback = ss.samples[0]
    assert fallback.category == RANDOM_RECEIVER and fallback.t == 0
    # positive 2 at t=1: the only prior pair is (a,b) -> forced
    assert ss.samples[1] == Sample(ids["a"], ids["b"], 1, NEG, HISTORICAL)
    # positive 3 at t=2: priors {(a,b),(c,d)}; (a,b,2) is an edge -> forced (c,d)
    assert ss.samples[2] == Sample(ids["c"], ids["d"], 2, NEG, HISTORICAL)
    # positive 4 at t=3: either prior works; must be one of them
    assert ss.samples[3] in (Sample(ids["a"], ids["b"], 3, NEG, HISTORICAL),
                             Sample(ids["c"], ids["d"], 3, NEG, HISTORICAL))


@given(graphs(max_nodes=8, max_edges=30))
@settings(max_examples=40, deadline=None)
def test_historical_negatives_reuse_earlier_pairs(g):
    cfg = SamplerConfig(k=7, seed=2)
    firsts = first_seen_map(g)
    triples = triple_set(g)
    for ss in sample_batches(g, "historical", cfg):
        for s in ss.samples:
            assert s.label == NEG
            assert (s.src, s.dst, s.t) not in triples
            if s.category == HISTORICAL:
                assert firsts[(s.src, s.dst)] < s.t


# -- negative loops ---------------------------------------------------------------


def test_loop_pool_modes_frozen_case():
    g = bgraph([("a", "a", 0), ("b", "b", 1), ("c", "c", 2),
                ("a", "b", 5), ("x", "x", 6), ("b", "a", 7)])
    x = g.registry.id_of("x")
    cfg = SamplerConfig(k=3, seed=0)
    batch = batches(g, 3)[1]            # edges at bins 5, 6, 7
    assert batch.timestamps.tolist() == [5, 6, 7]

    # batch pool: only x is loopless strictly before bin 5; (x,x,6) is an
    # actual edge so that slot is unfillable
    ss = sample_negative_loops(batch, g, cfg, batch_rng(0, 1), pool_mode="batch")
    assert [(s.src, s.dst, s.t) for s in ss.samples] == [(x, x, 5), (x, x, 7)]
    assert ss.tallies["loop_shortfall"] == 1

    # per-t pool: at t=7 even x has looped already -> two unfillable slots
    ss = sample_negative_loops(batch, g, cfg, batch_rng(0, 1), pool_mode="per-t")
    assert [(s.src, s.dst, s.t) for s in ss.samples] == [(x, x, 5)]
    assert ss.tallies["loop_shortfall"] == 2


def test_loops_cover_distinct_timestamps(tiny_graph):
    batch, cfg = one_batch(tiny_graph)
    ss = sample_negative_loops(batch, tiny_graph, cfg, batch_rng(0, 0))
    emitted_t = [s.t for s in ss.samples]
    assert len(emitted_t) == len(set(emitted_t))
    n_slots = len(ss.samples) + ss.tallies.get("loop_shortfall", 0)
    assert n_slots == batch.timestamps.size


@given(graphs(max_nodes=10, max_edges=40))
@settings(max_examples=40, deadline=None)
def test_loop_negatives_satisfy_definitions(g):
    cfg = SamplerConfig(k=6, seed=5)
    triples = triple_set(g)
    loop_firsts = loop_first_map(g)
    for mode in ("batch", "per-t"):
        for batch, ss in zip(batches(g, cfg.k),
                             sample_batches(g, "loops", cfg, pool_mode=mode)):
            slots = len(ss.samples) + ss.tallies.get("loop_shortfall", 0)
            assert slots == batch.timestamps.size
            for s in ss.samples:
                assert s.src == s.dst
                assert (s.src, s.dst, s.t) not in triples
                boundary = batch.t_min if mode == "batch" else s.t
                first = loop_firsts.get(s.src)
                assert first is None or first >= boundary


# -- positive enhancement ---------------------------------------------------------


def test_enhancement_frozen_case():
    g = bgraph([("a", "b", 0), ("c", "d", 1),          # the batch
                ("a", "b", 2), ("e", "f", 2), ("c", "d", 3), ("a", "b", 4)])
    ids = {nm: g.registry.id_of(nm) for nm in "abcdef"}
    batch = batches(g, 2)[0]
    ss = positive_enhancement(batch, g, k=2)
    assert [(s.src, s.dst, s.t) for s in ss.samples] == \
        [(ids["a"], ids["b"], 2), (ids["c"], ids["d"], 3)]
    assert all(s.label == POS and s.category == POSITIVE_ENHANCEMENT
               for s in ss.samples)
    # higher cap picks up the third recurrence; never the non-batch pair
    ss10 = positive_enhancement(batch, g, k=10)
    assert [(s.src, s.dst, s.t) for s in ss10.samples] == \
        [(ids["a"], ids["b"], 2), (ids["c"], ids["d"], 3), (ids["a"], ids["b"], 4)]


def test_enhancement_ignores_same_bin_recurrences():
    # recurrence inside the batch's last bin is not "future"
    g = bgraph([("a", "b", 0), ("a", "b", 1), ("c", "c", 1), ("a", "b", 1)])
    batch = batches(g, 4)[0]
    assert positive_enhancement(batch, g, k=5).samples == []


# -- combined DINS ----------------------------------------------------------------


def test_dins_frozen_small_graph_structure(tiny_graph):
    batch, cfg = one_batch(tiny_graph, q=2, t_f=10)
    ss = sample_dins(batch, tiny_graph, cfg, batch_rng(0, 0))
    cats = [s.category for s in ss.samples]
    # per-edge block: sender, receiver, then temporal; loops after all
    # edge blocks; enhancement last
    first_loop = cats.index(NEGATIVE_LOOP)
    assert all(c in (RANDOM_SENDER, RANDOM_RECEIVER, TEMPORAL)
               for c in cats[:first_loop])
    tail = cats[first_loop:]
    n_loops = tail.count(NEGATIVE_LOOP)
    assert tail[:n_loops] == [NEGATIVE_LOOP] * n_loops
    assert all(c == POSITIVE_ENHANCEMENT for c in tail[n_loops:])
    # cardinality ledger
    counts = Counter(cats)
    kp = len(batch)
    assert counts[RANDOM_SENDER] + ss.tallies.get("sender_skipped", 0) == kp
    assert counts[RANDOM_RECEIVER] + ss.tallies.get("receiver_skipped", 0) == kp
    assert counts[TEMPORAL] + ss.tallies.get("temporal_shortfall", 0) == cfg.q * kp
    assert (counts[NEGATIVE_LOOP] + ss.tallies.get("loop_shortfall", 0)
            == batch.timestamps.size)
    assert counts[POSITIVE_ENHANCEMENT] <= cfg.k


def test_dins_interleaves_per_edge_when_nothing_skips():
    # plenty of nodes and free bins: no skips, exact pattern checkable
    src = np.arange(0, 40, dtype=np.int64)
    dst = src + 40
    t = np.arange(40, dtype=np.int64)
    g = graph_from_arrays(src, dst, t, 100)
    batch = batches(g, 20)[0]
    cfg = SamplerConfig(q=2, t_f=10, k=20, seed=1)
    ss = sample_dins(batch, g, cfg, batch_rng(1, 0))
    assert not any(k.endswith("skipped") for k in ss.tallies)
    i = 0
    expected_shortfall = 0
    for j in range(len(batch)):
        u, v, t0 = int(batch.src[j]), int(batch.dst[j]), int(batch.t[j])
        # each pair occurs exactly once, at t0, so the admissible window
        # [t0, min(t0 + t_f, batch max)] minus {t0} sizes the block
        avail = min(t0 + cfg.t_f, batch.t_max) - t0
        n_temporal = min(cfg.q, avail)
        expected_shortfall += cfg.q - n_temporal
        snd, rcv = ss.samples[i], ss.samples[i + 1]
        assert snd.category == RANDOM_SENDER and (snd.dst, snd.t) == (v, t0)
        assert rcv.category == RANDOM_RECEIVER and (rcv.src, rcv.t) == (u, t0)
        for tm in ss.samples[i + 2:i + 2 + n_temporal]:
            assert tm.category == TEMPORAL and (tm.src, tm.dst) == (u, v)
            assert t0 < tm.t <= min(t0 + cfg.t_f, batch.t_max)
        i += 2 + n_temporal
    assert ss.tallies.get("temporal_shortfall", 0) == expected_shortfall
    # remainder: one loop per distinct timestamp, then enhancement
    loops = ss.samples[i:i + batch.timestamps.size]
    assert all(s.category == NEGATIVE_LOOP for s in loops)
    assert all(s.category == POSITIVE_ENHANCEMENT
               for s in ss.samples[i + len(loops):])


def contract_sums(strategy, batch, ss, q):
    """(emitted + tallied, what it must equal) for each identity of ``strategy``."""
    c, tl, kp = ss.by_category(), ss.tallies, len(batch)
    sender = (c[RANDOM_SENDER] + tl["sender_skipped"], kp)
    receiver = (c[RANDOM_RECEIVER] + tl["receiver_skipped"], kp)
    temporal = (c[TEMPORAL] + tl["temporal_shortfall"], q * kp)
    loops = (c[NEGATIVE_LOOP] + tl["loop_shortfall"], batch.timestamps.size)
    return {"random": [(c[RANDOM_RECEIVER] + tl["skipped"], kp)],
            "sender_receiver": [sender, receiver],
            "historical": [(c[HISTORICAL] + c[RANDOM_RECEIVER] + tl["skipped"], kp)],
            "temporal": [temporal],
            "loops": [loops],
            "dins": [sender, receiver, temporal, loops]}[strategy]


EMITS = {"random": {RANDOM_RECEIVER}, "historical": {HISTORICAL, RANDOM_RECEIVER},
         "sender_receiver": {RANDOM_SENDER, RANDOM_RECEIVER}, "temporal": {TEMPORAL},
         "loops": {NEGATIVE_LOOP},
         "dins": {RANDOM_SENDER, RANDOM_RECEIVER, TEMPORAL, NEGATIVE_LOOP,
                  POSITIVE_ENHANCEMENT}}


@given(graphs(max_nodes=12, max_edges=50), st.sampled_from(["batch", "per-t"]))
@settings(max_examples=40, deadline=None)
def test_dins_contracts_hold_on_random_graphs(g, pool_mode):
    # every strategy, dins included, keeps its per-batch identities
    cfg = SamplerConfig(q=3, t_f=20, k=9, seed=4)
    triples = triple_set(g)
    for strategy in sorted(STRATEGIES):
        kw = {"pool_mode": pool_mode} if strategy in ("dins", "loops") else {}
        for batch, ss in zip(batches(g, cfg.k), sample_batches(g, strategy, cfg, **kw)):
            for emitted, want in contract_sums(strategy, batch, ss, cfg.q):
                assert emitted == want, strategy
            counts = ss.by_category()
            assert set(counts) <= EMITS[strategy], strategy
            assert counts[POSITIVE_ENHANCEMENT] <= cfg.k
            if strategy == "historical":
                assert counts[RANDOM_RECEIVER] <= ss.tallies["historical_fallback"]
            # sections: edge blocks, then loops, then enhancement
            section = [{NEGATIVE_LOOP: 1, POSITIVE_ENHANCEMENT: 2}.get(s.category, 0)
                       for s in ss.samples]
            assert section == sorted(section), strategy
            for s in ss.samples:
                if s.label == NEG:
                    assert (s.src, s.dst, s.t) not in triples, strategy
                else:
                    assert s.category == POSITIVE_ENHANCEMENT
                    assert (s.src, s.dst, s.t) in triples
                    assert s.t > batch.t_max


# -- stream plumbing --------------------------------------------------------------


def test_sample_batches_substreams_are_order_free(tiny_graph):
    cfg = SamplerConfig(k=2, seed=11)
    stream = list(sample_batches(tiny_graph, "dins", cfg))
    # re-sampling any single batch standalone reproduces its samples
    for batch in batches(tiny_graph, cfg.k):
        solo = sample_dins(batch, tiny_graph, cfg,
                           batch_rng(cfg.seed, batch.index))
        assert solo.samples == stream[batch.index].samples


@given(graphs(max_nodes=12, max_edges=80), st.sampled_from([1, 2, 3, 7, 25]),
       st.integers(0, 2**16), st.sampled_from(["batch", "per-t"]))
@settings(max_examples=40, deadline=None)
def test_standalone_batches_equal_their_stream_batches(g, k, seed, pool_mode):
    # sample_batches samples runs of batches together; each batch must
    # still equal the one-batch call on its own substream
    cfg = SamplerConfig(q=3, t_f=12, k=k, seed=seed)
    blocks = batches(g, k)
    for name, fn in (("dins", sample_dins), ("temporal", sample_temporal),
                     ("loops", sample_negative_loops),
                     ("sender_receiver", sample_sender_receiver),
                     ("historical", sample_historical_baseline),
                     ("random", sample_random_baseline)):
        kw = {"pool_mode": pool_mode} if name in ("dins", "loops") else {}
        stream = list(sample_batches(g, name, cfg, **kw))
        assert [ss.origin_batch for ss in stream] == list(range(len(blocks)))
        for batch in blocks:
            solo = fn(batch, g, cfg, batch_rng(seed, batch.index), **kw)
            oracle = oracle_sample(name, batch, g, cfg, batch_rng(seed, batch.index),
                                   pool_mode)
            for ss in (solo, oracle):
                assert ss.samples == stream[batch.index].samples
                assert ss.tallies == stream[batch.index].tallies


def test_scalar_draws_equal_sized_draws():
    # The pinned streams drew each retry round in one sized call; the
    # samplers draw it one value per call, so NumPy must give the same
    # values and leave the generator in the same state either way. Widths
    # cover every temporal window up to the default t_f + 1 and a few node
    # pools, with nonzero offsets.
    widths = list(range(1, SamplerConfig().t_f + 2)) + [500, 50_000, 2**31 + 7, 2**32]
    for w in widths:
        for size in (1, 2, 3, 5):
            sized, scalar = derive_rng(w, size), derive_rng(w, size)
            lo = w % 97
            assert (sized.integers(lo, lo + w, size=size).tolist()
                    == [int(scalar.integers(lo, lo + w)) for _ in range(size)])
            assert sized.bit_generator.state == scalar.bit_generator.state


def _draw_script(seed):
    """A random sequence of the calls the samplers make on one batch."""
    r = np.random.default_rng(seed)
    script = []
    for _ in range(int(r.integers(1, 12))):
        kind = r.choice(["ints", "uniforms", "integers", "checked"])
        # 3 * 2**30 and 3 * 2**61 reject about a quarter of their draws;
        # 1 takes none; only scalar draws get ranges wider than 2**32
        highs = [1, 2, 7, 289, 50_000, 3 * 2**30, 2**32]
        high = int(r.choice(highs + [2**40 + 7, 3 * 2**61] * (kind == "integers")))
        script.append((kind, high, int(r.integers(0, 9)), int(r.integers(2**32))))
    return script


def _checked_draw(high, n_slots, seed):
    """``(highs, check, tries)`` of a checked draw: one or two phases of 1,
    3 or 8 attempts, each slot's high in each 0 (an empty pool), 1, 7 or
    ``high``. The check refuses a value by a random table of slot, phase
    and value, for none, half, most or all values, so slots run out too."""
    r = np.random.default_rng(seed)
    tries = tuple(int(n) for n in r.choice([1, 3, 8], size=int(r.integers(1, 3))))
    highs = r.choice([0, 1, 7, high], size=(n_slots, len(tries)))
    refuse = r.random((n_slots, len(tries), 16)) < r.choice([0.0, 0.5, 0.9, 1.0])

    def check(i, p, x):
        return ~refuse[i, p, x % 16]

    return highs, check, tries


@pytest.mark.parametrize("n_batches", [1, 3])
def test_replayed_draws_equal_generator_calls(n_batches):
    # _Replay answers every draw from the raw PCG64 output; _Calls makes
    # them by calling each Generator. Both must agree, across rejections,
    # ranges of one value and past 2**32, uniforms between halves of an
    # output, generators that start on a waiting half, batches that
    # outrun the outputs read up front, and checked draws whose slots are
    # refused, run out, or meet ranges of one value and empty pools; and
    # settling must leave each generator as the calls left it.
    seen = set()
    for seed in range(60):
        keys = list(range(seed, seed + n_batches))
        rngs, twins = derive_rngs(seed, keys), derive_rngs(seed, keys)
        if seed % 2:
            for g in rngs + twins:
                g.integers(0, 7)
        calls = _Calls(rngs)
        replay = _Replay([g.bit_generator for g in twins], np.full(n_batches, seed % 3))
        states = [g.bit_generator.state for g in twins]
        replay.has = [st["has_uint32"] for st in states]
        replay.half = [st["uinteger"] for st in states]
        for kind, high, size, key in _draw_script(seed):
            seen.add((str(kind), high if kind != "uniforms" else 0, seed % 2))
            counts = np.arange(size, size + n_batches)
            if kind == "checked":        # up to 30 slots a batch, past what one round maps
                draw = (3 * counts[:, None], *_checked_draw(high, 3 * int(counts.sum()), key))
                got, want = replay.ints(*draw), calls.ints(*draw)
                assert [a.tolist() for a in got] == [a.tolist() for a in want]
            elif kind == "ints":
                c = np.stack([counts, counts[::-1]], axis=1)
                h = np.tile([high, max(high // 3, 1)], (n_batches, 1))
                assert replay.ints(c, h).tolist() == calls.ints(c, h).tolist()
            elif kind == "uniforms":
                assert replay.uniforms(counts).tolist() == calls.uniforms(counts).tolist()
            else:
                for b in range(n_batches):
                    lo = size * 11
                    assert (replay.integers(b, lo, lo + high, size)
                            == calls.integers(b, lo, lo + high, size))
        replay.settle()
        assert [g.bit_generator.state for g in twins] == [g.bit_generator.state for g in rngs]
    # from a waiting half: frequent rejections, 32-bit and wider ranges, uniforms
    assert {("ints", 3 * 2**30, 1), ("ints", 2**32, 1), ("checked", 3 * 2**30, 1),
            ("integers", 2**40 + 7, 1), ("integers", 3 * 2**61, 1), ("uniforms", 0, 1)} <= seen


def _waiting(seed):
    """A generator that holds back the high half of its last output."""
    rng = np.random.default_rng(seed)
    rng.integers(0, 7)
    assert rng.bit_generator.state["has_uint32"] == 1
    return rng


def _six_nodes(bins=40):
    """300 edges among six nodes: many repeats make every retry path draw."""
    r = np.random.default_rng(5)
    src, dst = r.integers(0, 6, size=(2, 300))
    return graph_from_arrays(src, dst, np.sort(r.integers(0, bins, size=300)), 6)


def test_one_batch_calls_leave_the_generator_as_calls_would(monkeypatch):
    # A one-batch function replays the caller's generator and hands it
    # back in the state that real calls leave, waiting half included.
    g = _six_nodes()
    cfg = SamplerConfig(k=100, q=3, t_f=12, seed=0)
    blocks = batches(g, cfg.k)
    for batch in blocks:
        for name, fn in sampling.STRATEGIES.items():
            for mode in ("batch", "per-t") if name in ("dins", "loops") else ("batch",):
                kw = {"pool_mode": mode} if name in ("dins", "loops") else {}
                rng, oracle_rng = _waiting(batch.index), _waiting(batch.index)
                solo = fn(batch, g, cfg, rng, **kw)
                oracle = oracle_sample(name, batch, g, cfg, oracle_rng, mode)
                assert solo.samples == oracle.samples
                assert rng.bit_generator.state == oracle_rng.bit_generator.state
    # build_eval_set, against itself with its draws made as calls; every
    # node is loopless before the first batch, so loop picks draw and retry
    sides = {}
    monkeypatch.setattr(sampling, "RETRY_CAP", 4)
    for side in ("replay", "calls"):
        if side == "calls":
            monkeypatch.setattr(evaluation, "_Replay", _SettledCalls)
        rngs = [_waiting(seed) for seed in range(len(EVAL_NEGATIVE_CATEGORIES))]
        sets = [build_eval_set(blocks[0], g, g.history, cat, rng)
                for cat, rng in zip(EVAL_NEGATIVE_CATEGORIES, rngs)]
        sides[side] = ([ss.samples for ss in sets], [rng.bit_generator.state for rng in rngs])
    assert sides["replay"] == sides["calls"]


def test_retries_draw_only_through_checked_ints(monkeypatch):
    # Every retry is a checked draw in _Replay.ints; only the temporal
    # rounds draw value by value, so no other path may call integers.
    g = _six_nodes()
    checked = Counter()
    ints = _Replay.ints

    def spy(self, counts, highs, check=None, tries=(1,)):
        if check is not None:
            checked[current] += int(counts.sum())
        return ints(self, counts, highs, check, tries)

    def refuse(*args):
        raise AssertionError("a retry drew through _Replay.integers")

    monkeypatch.setattr(_Replay, "ints", spy)
    monkeypatch.setattr(_Replay, "integers", refuse)
    cfg = SamplerConfig(k=100, q=3, t_f=12, seed=0)
    runs = [("random", "batch"), ("historical", "batch"), ("sender_receiver", "batch"),
            ("loops", "batch"), ("loops", "per-t")]
    for current in runs:
        for _ in sample_batches(g, current[0], cfg, pool_mode=current[1]):
            pass
    block = batches(g, cfg.k)[0]
    for current in EVAL_NEGATIVE_CATEGORIES:
        build_eval_set(block, g, g.history, current, _waiting(0))
    assert all(checked[name] for name in runs + [RANDOM_SENDER, RANDOM_RECEIVER, LOOP])


def test_non_pcg64_generators_are_rejected(tiny_graph):
    batch, cfg = one_batch(tiny_graph)
    with pytest.raises(TypeError, match="default_rng.*batch_rng"):
        sample_dins(batch, tiny_graph, cfg, np.random.Generator(np.random.MT19937(0)))


# seed: (first raw outputs, ints from 7 / 3 * 2**30 / 2**32, integers from
# 2**40 + 7 and 3 * 2**61, uniforms, two more ints from 7, outputs consumed,
# the waiting half left in the state)
_RAW_PINS = {
    0: ([11749869230777074271, 4976686463289251617, 755828109848996024],
        [5, 4, 3, 131984958, 242365461, 53239240, 564575468, 2091914554, 2940191514,
         1622296031, 1954110612, 4169308741, 3133163871, 2715582399],
        [1028123002773, 897040469324, 3011012779],
        [232329192085575659, 5047412730855550797, 1215102854386511582,
         5971065251403288485, 3745573708415053169],
        [0.2997118905373848, 0.42268722119765845, 0.028319671145462966],
        [3, 0], 22, 533792608),
    2**32 + 5: ([14281546376153053393, 8683300866460616067, 12836726618003871680],
                [0, 5, 5, 1516303896, 2732868568, 2626713187, 1732816137, 1836839216,
                 1666327769, 1904600048, 677169707, 3835358842, 304074557, 1183277502],
                [1091362961680, 962544155297, 1068406938251],
                [408873820540343751, 2955952258940912259, 1421281303025302264,
                 2231345187568915473, 2257180671830155010],
                [0.7022562422875324, 0.4811853954398059, 0.034698697065821515],
                [3, 0], 23, 3029264434),
}


@pytest.mark.parametrize("seed", sorted(_RAW_PINS))
def test_draws_are_pinned_to_pcg64_raw_output(seed):
    # dins' draws are defined on PCG64's raw output, which NumPy keeps
    # stable, and not on Generator's mapping, which it may change; no
    # Generator is made here. 3 * 2**30 and 3 * 2**61 reject a quarter of
    # their values, the last two ints start on a waiting half, and the
    # state keeps the half that is still waiting.
    raw, ints, wide, wider, uniforms, last, used, half = _RAW_PINS[seed]
    assert np.random.PCG64(seed).random_raw(3).tolist() == raw
    # Lemire maps the low half of the first output first, then its high half
    assert [(raw[0] & 0xFFFFFFFF) * 7 >> 32, (raw[0] >> 32) * 7 >> 32] == ints[:2]
    bg = np.random.PCG64(seed)
    draws = _Replay([bg], np.zeros(1, dtype=np.int64))
    assert draws.ints(np.array([[3, 8, 3]]),
                      np.array([[7, 3 * 2**30, 2**32]])).tolist() == ints
    assert draws.integers(0, 0, 2**40 + 7, 3) == wide
    assert draws.integers(0, 0, 3 * 2**61, 5) == wider
    assert draws.uniforms(np.array([3])).tolist() == uniforms
    assert draws.ints(np.array([[2]]), np.array([[7]])).tolist() == last
    draws.settle()
    state = bg.state
    assert state["state"] == np.random.PCG64(seed).advance(used).state["state"]
    assert (state["has_uint32"], state["uinteger"]) == (1, half)


class _RawOnly(np.random.Generator):
    """A PCG64 Generator whose own draws fail: only its raw output may be read."""

    def integers(self, *args, **kwargs):
        raise AssertionError("dins drew through Generator.integers")

    def random(self, *args, **kwargs):
        raise AssertionError("dins drew through Generator.random")


def test_sampling_never_calls_generator_draws(monkeypatch):
    # Every strategy, one batch at a time and over a whole graph, and every
    # evaluation category sample from raw output alone, as they do from a
    # plain Generator on the same stream.
    g = _six_nodes(bins=400)     # long enough for every h probe to land
    cfg = SamplerConfig(k=100, q=3, t_f=12, seed=0)
    blocks = batches(g, cfg.k)
    runs = [(name, mode) for name in STRATEGIES
            for mode in (("batch", "per-t") if name in ("dins", "loops") else ("batch",))]
    for name, mode in runs:
        kw = {"pool_mode": mode} if name in ("dins", "loops") else {}
        for batch in blocks:
            rng = _RawOnly(batch_rng(0, batch.index).bit_generator)
            got = STRATEGIES[name](batch, g, cfg, rng, **kw)
            assert got.samples == STRATEGIES[name](batch, g, cfg, batch_rng(0, batch.index),
                                                   **kw).samples
    plain = {run: [ss.samples for ss in sample_batches(g, run[0], cfg, pool_mode=run[1])]
             for run in runs}
    monkeypatch.setattr(sampling, "derive_rngs", lambda seed, keys: [
        _RawOnly(rng.bit_generator) for rng in derive_rngs(seed, keys)])
    for run, want in plain.items():
        got = [ss.samples for ss in sample_batches(g, run[0], cfg, pool_mode=run[1])]
        assert got == want and sum(map(len, got)) > 0
    (everything,) = batches(g, g.m)
    for i, category in enumerate(EVAL_NEGATIVE_CATEGORIES):
        got = build_eval_set(everything, g, g.history, category,
                             _RawOnly(derive_rng(0, i).bit_generator))
        want = build_eval_set(everything, g, g.history, category, derive_rng(0, i))
        assert got.samples == want.samples and len(got) > 0


def test_derive_rngs_equal_derive_rng():
    keys = [0, 1, 2, 999, 2**32 - 1]
    for seed in (0, 1, 7, 2**32 - 1, 2**32):
        for key_list in (keys, keys + [2**32]):
            for k, fast in zip(key_list, derive_rngs(seed, key_list)):
                slow = derive_rng(seed, k)
                assert fast.bit_generator.state == slow.bit_generator.state
                assert fast.random(3).tolist() == slow.random(3).tolist()


def test_sampling_with_bins_past_2_31():
    # Lookups search bins inside each pair's block, so bins past 2**31 are
    # answered like any others, and draws replay past 2**32: the same
    # graph with its bins shifted up must give the same streams, shifted.
    n = 2**16
    r = np.random.default_rng(3)
    src, dst = r.integers(n - 6, n, size=(2, 600))      # few pairs, many repeats
    t = r.integers(0, 60, size=600)
    low = graph_from_arrays(src, dst, t, n)
    for shift in (2**31, 2**40):
        high = graph_from_arrays(src, dst, t + shift, n)
        for mode in ("batch", "per-t"):
            cfg = SamplerConfig(q=3, t_f=20, k=70, seed=7)
            for a, b in zip(sample_batches(low, "dins", cfg, pool_mode=mode),
                            sample_batches(high, "dins", cfg, pool_mode=mode)):
                assert b.samples == [s._replace(t=s.t + shift) for s in a.samples]
                assert b.tallies == a.tallies


def test_sample_batches_observed_prefix():
    # several batches in one run: each is its edges as observed, then
    # exactly the negatives-only set, for every strategy and pool mode
    g = build_graph(random_records(15, 80, seed=3, t_span_bins=30, loop_fraction=0.2))
    cfg = SamplerConfig(q=3, t_f=12, k=7, seed=5)
    blocks = batches(g, cfg.k)
    assert len(blocks) > 1 and sampling.RUN_EDGES >= g.m
    for strategy in sorted(STRATEGIES):
        for pool_mode in ("batch", "per-t") if strategy in ("dins", "loops") else ("batch",):
            kw = {"pool_mode": pool_mode}
            plain = list(sample_batches(g, strategy, cfg, **kw))
            full = list(sample_batches(g, strategy, cfg, include_positives=True, **kw))
            assert len(plain) == len(full) == len(blocks)
            for batch, neg, ss in zip(blocks, plain, full):
                kp = len(batch)
                head = ss.samples[:kp]
                assert all(s.label == POS and s.category == OBSERVED for s in head)
                assert [(s.src, s.dst, s.t) for s in head] == \
                    list(zip(batch.src.tolist(), batch.dst.tolist(), batch.t.tolist()))
                for col in ("src", "dst", "t", "code"):
                    assert np.array_equal(getattr(ss, col)[kp:], getattr(neg, col)), strategy
                assert ss.tallies == neg.tallies
                assert ss.origin_batch == neg.origin_batch == batch.index


def test_sample_set_columns_and_view(tiny_graph):
    # the columns are the samples; the view is built once and agrees
    cfg = SamplerConfig(k=3, seed=4, q=2, t_f=6)
    for ss in sample_batches(tiny_graph, "dins", cfg, include_positives=True):
        assert ss.src.dtype == ss.dst.dtype == ss.t.dtype == np.int64
        assert ss.code.dtype == np.uint8 and len(ss) == ss.code.size
        view = ss.samples
        assert ss.samples is view
        assert [(s.src, s.dst, s.t) for s in view] == \
            list(zip(ss.src.tolist(), ss.dst.tolist(), ss.t.tolist()))
        assert [s.category for s in view] == [VOCABULARY[c] for c in ss.code.tolist()]
        assert all(s.label == (POS if s.category in (OBSERVED, POSITIVE_ENHANCEMENT)
                               else NEG) for s in view)
        assert ss.by_category() == Counter(s.category for s in view)


def test_a_huge_t_f_caps_the_window_at_the_batch_end():
    # t + t_f used to wrap around in int64 and empty the window: every t_f
    # past the batch's last bin must give the stream of a window that ends
    # there, up to the largest that SamplerConfig takes
    g = build_graph(multi_month_records(40, 200, 2, seed=1))
    streams = [[(ss.samples, ss.tallies) for ss in sample_batches(
        g, "temporal", SamplerConfig(t_f=t_f, seed=0))] for t_f in (10**9, 2**62, 2**63 - 1)]
    assert streams[0] == streams[1] == streams[2]
    assert sum(len(s) for s, _ in streams[0]) == 5 * g.m - 5     # a shortfall of 5


@pytest.mark.parametrize("name", ["q", "t_f", "k"])
def test_sampler_settings_past_int64_are_rejected(name):
    # they raised OverflowError from inside sampling instead
    with pytest.raises(ValueError, match=rf"^{name} must be >= 1 and below 2\*\*63$"):
        SamplerConfig(**{name: 2**63})
    # q and k are bounded further by a batch's draw count (q + 2) * k + 16, at
    # the defaults q=5 and k=1000
    largest = {"q": (2**63 - 17) // 1000 - 2, "t_f": 2**63 - 1, "k": (2**63 - 17) // 7}[name]
    assert getattr(SamplerConfig(**{name: largest}), name) == largest


def test_a_q_that_wraps_a_batch_draw_count_is_rejected():
    # q * k used to wrap around in int64: this graph's temporal tally read -6
    g = build_graph([("a", "b", 0), ("b", "c", 300), ("c", "d", 600), ("d", "a", 900)])
    (ss,) = sample_batches(g, "temporal", SamplerConfig(q=5, k=4, t_f=10))
    assert ss.tallies == Counter(temporal_shortfall=14)
    largest = (2**63 - 17) // 4 - 2
    assert SamplerConfig(q=largest, k=4).q == largest
    for q in (largest + 1, 2**62):
        with pytest.raises(ValueError,
                           match=r"^q and k must keep \(q \+ 2\) \* k \+ 16 below 2\*\*63$"):
            SamplerConfig(q=q, k=4, t_f=10)


def test_read_ahead_counts_q_only_where_temporal_sampling_draws_it():
    # random draws no temporal uniforms; reading q per edge ahead anyway
    # asked for 2**52 outputs (32 PiB) here before the first draw
    g = build_graph([("a", "b", 0), ("b", "c", 300), ("c", "d", 600), ("d", "a", 900)])
    streams = [[(ss.src.tolist(), ss.dst.tolist(), ss.t.tolist(), ss.code.tolist(), ss.tallies)
                for ss in sample_batches(g, "random", SamplerConfig(q=q, k=4))]
               for q in (5, 2**50)]
    assert streams[0] == streams[1]
    assert sum(len(src) for src, *_ in streams[0]) == 4


def test_unknown_strategy_rejected(tiny_graph):
    with pytest.raises(ValueError, match="unknown strategy"):
        list(sample_batches(tiny_graph, "nope", SamplerConfig()))


def test_unknown_pool_mode_rejected_before_any_draw(tiny_graph):
    batch, cfg = one_batch(tiny_graph)
    for fn in (sample_dins, sample_negative_loops):
        rng = batch_rng(0, 0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="unknown pool_mode 'bogus'"):
            fn(batch, tiny_graph, cfg, rng, pool_mode="bogus")
        assert rng.bit_generator.state == state
    for strategy in sorted(STRATEGIES):
        with pytest.raises(ValueError, match="unknown pool_mode 'bogus'"):
            list(sample_batches(tiny_graph, strategy, SamplerConfig(k=3), pool_mode="bogus"))


def test_identical_seeds_reproduce_exactly(tiny_graph):
    cfg = SamplerConfig(k=3, seed=9, q=2, t_f=6)
    a = [json.dumps(ss.samples) for ss in sample_batches(tiny_graph, "dins", cfg)]
    b = [json.dumps(ss.samples) for ss in sample_batches(tiny_graph, "dins", cfg)]
    assert a == b
    other = SamplerConfig(k=3, seed=10, q=2, t_f=6)
    c = [json.dumps(ss.samples) for ss in sample_batches(tiny_graph, "dins", other)]
    assert a != c


def test_receiver_replacement_is_uniform_over_pool():
    # one hub pair repeated 2000 times; pool = the other 48 nodes
    m, n = 2000, 50
    g = graph_from_arrays(np.zeros(m, dtype=np.int64),
                          np.ones(m, dtype=np.int64),
                          np.arange(m, dtype=np.int64), n)
    cfg = SamplerConfig(k=m, seed=13)
    (ss,) = list(sample_batches(g, "random", cfg))
    draws = [s.dst for s in ss.samples]
    assert len(draws) == m
    counts = Counter(draws)
    assert set(counts) <= set(range(2, n))
    mean = m / (n - 2)
    sigma = (m * (1 / (n - 2)) * (1 - 1 / (n - 2))) ** 0.5
    worst = max(abs(counts.get(r, 0) - mean) for r in range(2, n))
    assert worst < 5 * sigma


# -- pinned streams ---------------------------------------------------------------

# make_synth_suite(50, seed=0) graphs: 1 (small, no loops), 5 (4-bin span,
# 30% loops), 9 (loops, 42 nodes), 11 (6 nodes: heavy pairs, many
# collisions), 24 (26 nodes, 499 bins), 46 (148 edges over 514 bins).
PIN_GRAPHS = (1, 5, 9, 11, 24, 46)


@pytest.fixture(scope="module")
def pin_suite():
    from conftest import make_synth_suite
    suite = make_synth_suite(50, seed=0)
    return [suite[i] for i in PIN_GRAPHS]


def stream_digest(graphs, strategy, cfg, pool_mode="batch"):
    """sha256 over the columns and tallies of every batch of every graph."""
    h = hashlib.sha256()
    for g in graphs:
        for ss in sample_batches(g, strategy, cfg, pool_mode=pool_mode):
            h.update(b"batch %d\0" % ss.origin_batch)
            if ss.samples:
                src, dst, t, label, cat = zip(*ss.samples)
                h.update(np.array((src, dst, t), dtype=np.int64).tobytes())
                h.update("\n".join(label + cat).encode())
            h.update(json.dumps(sorted(ss.tallies.items())).encode())
    return h.hexdigest()


# Taken from the per-edge sampler before it was vectorized; any change to
# the order of draws on a batch's generator changes these.
PINNED_DINS = {
    (10, "batch"): "091683e7135a66d8594367cfa63ebe4134d8a59bc7663a332b85b0ca8d9dd6e2",
    (10, "per-t"): "56392bdba400f6b22f06ee8a10c46ae86041bd71eac3e7ebb8690698e2317d78",
    (100, "batch"): "8b41873383e69e5e4bbbc2829cb96ba52ffb50bf3427e9955a9fb1ad16cee19f",
    (100, "per-t"): "4c94eaa3cc842753da35c77ab3b29628e2f4939acd1aca7230a847d3e43cea50",
    (1000, "batch"): "851366e7faff14fb33a6a071bd042f6adb02bcd4d4204a6c0db8fefcf6b144a6",
    (1000, "per-t"): "79567463a87533784c5ce991cdd3cfcab67ff753ba08da1b9239fe4df0da9628",
}


@pytest.mark.parametrize("k,pool_mode", sorted(PINNED_DINS))
def test_dins_stream_is_pinned(pin_suite, k, pool_mode):
    cfg = SamplerConfig(k=k, q=5, seed=1)
    assert stream_digest(pin_suite, "dins", cfg, pool_mode) == PINNED_DINS[(k, pool_mode)]


def test_budgeted_passes_keep_the_stream(pin_suite, monkeypatch):
    # a tiny budget makes window listing and enhancement go piece by piece
    monkeypatch.setattr(sampling, "_BUDGET", 7)
    cfg = SamplerConfig(k=100, q=5, seed=1)
    assert stream_digest(pin_suite, "dins", cfg) == PINNED_DINS[(100, "batch")]


@pytest.mark.parametrize("run_edges", [1, 37])
def test_run_size_keeps_the_stream(pin_suite, monkeypatch, run_edges):
    # every pinned graph fits one run of RUN_EDGES; smaller runs cut them
    # into runs of one batch and, at k=10 and 37 edges, of three batches
    monkeypatch.setattr(sampling, "RUN_EDGES", run_edges)
    for k in (10, 100):
        cfg = SamplerConfig(k=k, q=5, seed=1)
        assert stream_digest(pin_suite, "dins", cfg) == PINNED_DINS[(k, "batch")]
    cfg = SamplerConfig(k=100, q=5, seed=2)
    assert stream_digest(pin_suite, "dins", cfg) == PINNED_STRATEGIES["dins"]


PINNED_STRATEGIES = {
    "dins": "ee6a0eca9c9ea0a50d26628dd58cf7d4159774f060ec74504bc357d273bf9dbb",
    "historical": "8aa26c6fcae4c01dd4f81c9bcd57bd68edf1940839d4922bb6ddbf9a6f1167e6",
    "loops": "2f6891387ed14bf335bfe4160b419315d124d5324b31cd3e3a776c3d48c3fa00",
    "random": "8227bc582a8be7a426eb6470ff67a0fe625d66d4ec40815ea2428e3aec65007c",
    "sender_receiver": "33c6945bbe7012ed59dbc38c21767f935f9f816120c0b927e59112361d389e00",
    "temporal": "47b32947c9609ae0248c7c0133b8c970a83e17a87ea17d6dab632d25b67ff9c3",
}


@pytest.mark.parametrize("strategy", sorted(PINNED_STRATEGIES))
def test_strategy_streams_are_pinned(pin_suite, strategy):
    cfg = SamplerConfig(k=100, q=5, seed=2)
    assert stream_digest(pin_suite, strategy, cfg) == PINNED_STRATEGIES[strategy]
