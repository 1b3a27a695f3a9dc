"""Evaluation categories and the tie-aware AUC, against naive oracles."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dins import (EVAL_NEGATIVE_CATEGORIES, H_OFFSETS, EvalReport,
                  MissingScoresError, UndefinedMetricError, auc,
                  build_eval_set, build_eval_sets, build_graph, combined_index,
                  derive_rng, evaluate_sets, make_split, monthly_schedule,
                  sample_key)
from dins.config import SamplerConfig
from dins.evaluation import eval_records, positives_of
from dins.graph import EdgeBlock, batches
from dins.sample_io import eval_lines
from dins.sampling import NEG, POS, sample_negative_loops
from dins.split import window_pairs
from dins.synthetic import multi_month_records

from conftest import brute_auc, graphs, triple_set

W = 300


def scored(pairs):
    """[(label, score)] -> (labels, scores), the arguments of auc."""
    return [lab == POS for lab, _ in pairs], [sc for _, sc in pairs]


# -- AUC ------------------------------------------------------------------------


def test_auc_textbook_case():
    got = auc(*scored([(POS, 0.9), (POS, 0.8), (NEG, 0.7), (NEG, 0.85)]))
    assert got == pytest.approx(0.75, abs=1e-15)


def test_auc_perfect_and_inverted():
    assert auc(*scored([(POS, 1.0), (NEG, 0.0)])) == 1.0
    assert auc(*scored([(POS, 0.0), (NEG, 1.0)])) == 0.0


def test_auc_all_tied_is_half():
    got = auc(*scored([(POS, 0.5)] * 7 + [(NEG, 0.5)] * 13))
    assert got == 0.5


def test_auc_requires_both_classes():
    with pytest.raises(UndefinedMetricError):
        auc(*scored([(POS, 0.3), (POS, 0.6)]))
    with pytest.raises(UndefinedMetricError):
        auc(*scored([(NEG, 0.3)]))


def test_auc_matches_brute_force_on_random_sets():
    rng = np.random.default_rng(42)
    for trial in range(300):
        n_pos = int(rng.integers(1, 60))
        n_neg = int(rng.integers(1, 60))
        # coarse grid -> plenty of deliberate ties
        pos = rng.integers(0, 6, size=n_pos) / 5.0
        neg = rng.integers(0, 6, size=n_neg) / 5.0
        labels = np.r_[np.ones(n_pos, bool), np.zeros(n_neg, bool)]
        scores = np.r_[pos, neg]
        assert auc(labels, scores) == pytest.approx(
            brute_auc(pos.tolist(), neg.tolist()), abs=1e-12)


def test_auc_invariant_under_monotone_transform():
    rng = np.random.default_rng(7)
    labels = rng.random(200) < 0.4
    labels[:1] = True
    labels[-1:] = False
    scores = rng.integers(0, 50, size=200).astype(float)
    base = auc(labels, scores)
    assert auc(labels, 3.0 * scores + 11.0) == pytest.approx(base, abs=1e-12)
    assert auc(labels, np.exp(scores / 10.0)) == pytest.approx(base, abs=1e-12)


def test_auc_label_flip_complements():
    rng = np.random.default_rng(8)
    labels = rng.random(150) < 0.5
    labels[0], labels[1] = True, False
    scores = rng.random(150)  # continuous -> no ties
    assert auc(~labels, scores) == pytest.approx(
        1.0 - auc(labels, scores), abs=1e-12)


# -- category construction --------------------------------------------------------


def eval_fixture(extra=(), test_edges=None):
    """A split-like setup: train graph + test block + combined index."""
    records = [("a", "b", 0), ("b", "c", W), ("c", "a", 2 * W),
               ("a", "a", 3 * W), ("b", "a", 4 * W)] + list(extra)
    g = build_graph(records)
    if test_edges is None:
        # the far anchor at bin 398 keeps 6h/12h/24h probes of the first
        # three positives inside the window
        test_edges = [("a", "b", 100), ("b", "c", 102), ("c", "a", 110),
                      ("b", "a", 398)]
    ids = g.registry
    src = np.array([ids.id_of(u) for u, _, _ in test_edges])
    dst = np.array([ids.id_of(v) for _, v, _ in test_edges])
    t = np.array([tt for _, _, tt in test_edges])
    test = EdgeBlock(src, dst, t, g.raw_anchor + t * W)
    index = combined_index(g, EdgeBlock.empty(), test)
    return g, test, index


def test_eval_sets_satisfy_category_predicates():
    g, test, index = eval_fixture()
    triples = triple_set(g) | triple_set((test.src, test.dst, test.t))
    sets = build_eval_sets(test, g, index, seed=0)
    assert set(sets) == set(EVAL_NEGATIVE_CATEGORIES)
    t_cap = int(test.t.max())
    positives = list(zip(test.src.tolist(), test.dst.tolist(), test.t.tolist()))

    for cat, ss in sets.items():
        emitted = len(ss.samples) + ss.tallies.get("shortfall", 0)
        assert emitted == len(test)
        for s in ss.samples:
            assert s.label == NEG and s.category == cat
            assert (s.src, s.dst, s.t) not in triples
    for i, s in enumerate(sets["random_sender"].samples):
        u, v, t = positives[i]
        assert (s.dst, s.t) == (v, t) and s.src not in (u, v)
    for i, s in enumerate(sets["random_receiver"].samples):
        u, v, t = positives[i]
        assert (s.src, s.t) == (u, t) and s.dst not in (u, v)
    for s in sets["loop"].samples:
        assert s.src == s.dst
    for cat, off in H_OFFSETS.items():
        kept = [p for p in positives
                if p[2] + off <= t_cap and (p[0], p[1], p[2] + off) not in triples]
        assert [(s.src, s.dst, s.t) for s in sets[cat].samples] == \
            [(u, v, t + off) for u, v, t in kept]
        for s in sets[cat].samples:
            assert s.t <= t_cap


def test_h_probe_collision_and_window_shortfalls():
    # test positives at bins 100, 102, 110, 172, 174; window max = 174
    g2, test2, index2 = eval_fixture(
        test_edges=[("a", "b", 100), ("b", "c", 102), ("c", "a", 110),
                    ("a", "b", 172), ("c", "b", 174)])
    h6 = build_eval_set(test2, g2, index2, "h6", derive_rng(0, 4))
    got = [(s.src, s.dst, s.t) for s in h6.samples]
    ids = g2.registry
    # probe for (a,b,100) collides with the real (a,b,172); probes from
    # t in {110, 172, 174} land past the window max; only (b,c,102)->174
    # survives ((c,b,174) is a different direction, so no collision)
    assert got == [(ids.id_of("b"), ids.id_of("c"), 174)]
    assert h6.tallies["shortfall"] == 4


def test_loop_eval_modes():
    g, test, index = eval_fixture(
        test_edges=[("a", "b", 100), ("b", "c", 100), ("c", "a", 110)])
    per_pos = build_eval_set(test, g, index, "loop", derive_rng(0, 3),
                             loop_eval="per-positive")
    per_ts = build_eval_set(test, g, index, "loop", derive_rng(0, 3),
                            loop_eval="per-timestamp")
    assert len(per_pos.samples) + per_pos.tallies.get("shortfall", 0) == 3
    assert len(per_ts.samples) + per_ts.tallies.get("shortfall", 0) == 2
    # node "a" looped in train (bin 3 < 100): excluded from every pool
    a = g.registry.id_of("a")
    for ss in (per_pos, per_ts):
        assert all(s.src != a for s in ss.samples)


@given(graphs(max_nodes=8, max_edges=40, max_bins=12), st.integers(1, 40),
       st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_per_timestamp_eval_loops_are_the_samplers_batch_pool_loops(graph, k, seed):
    # both draw through _Run.loop_picks: over the graph's own history and on
    # one seed, a batch's eval loops are its batch-pool training loops
    assume((graph.src == graph.dst).any())
    for batch in batches(graph, k):
        ev_rng, loop_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        ev = build_eval_set(EdgeBlock(batch.src, batch.dst, batch.t, batch.t), graph,
                            graph.history, "loop", ev_rng, loop_eval="per-timestamp")
        ss = sample_negative_loops(batch, graph, SamplerConfig(k=k, seed=seed), loop_rng,
                                   pool_mode="batch")
        for col in ("src", "dst", "t"):
            assert getattr(ev, col).tolist() == getattr(ss, col).tolist()
        assert ev.tallies.get("shortfall", 0) == ss.tallies.get("loop_shortfall", 0)
        assert ev_rng.bit_generator.state == loop_rng.bit_generator.state


def test_eval_sets_are_seed_deterministic():
    g, test, index = eval_fixture()
    a = build_eval_sets(test, g, index, seed=3)
    b = build_eval_sets(test, g, index, seed=3)
    for cat in a:
        assert a[cat].samples == b[cat].samples


def test_two_communities_give_perfect_replacement_auc():
    # two complete 4-cliques, each fully active at both test bins, so any
    # same-community replacement collides and only cross-community
    # negatives survive; a same-community scorer then ranks perfectly
    comm = {i: 0 for i in range(4)} | {i: 1 for i in range(4, 8)}
    train = []
    for grp in (range(4), range(4, 8)):
        for u in grp:
            for v in grp:
                if u != v:
                    train.append((f"u{u}", f"u{v}", 0))
    g = build_graph(train)
    test_rows = []
    for tb in (10, 11):
        for grp in (range(4), range(4, 8)):
            for u in grp:
                for v in grp:
                    if u != v:
                        test_rows.append((f"u{u}", f"u{v}", tb))
    ids = g.registry
    src = np.array([ids.id_of(u) for u, _, _ in test_rows])
    dst = np.array([ids.id_of(v) for _, v, _ in test_rows])
    t = np.array([tt for _, _, tt in test_rows])
    test = EdgeBlock(src, dst, t, g.raw_anchor + t * W)
    index = combined_index(g, EdgeBlock.empty(), test)

    def same_community(sample) -> float:
        return 1.0 if comm[sample.src] == comm[sample.dst] else 0.0

    sets = build_eval_sets(test, g, index, seed=1)
    for cat in ("random_sender", "random_receiver"):
        assert sets[cat].tallies.get("shortfall", 0) == 0
        pos = [same_community(s) for s in positives_of(test).samples]
        neg = [same_community(s) for s in sets[cat].samples]
        assert auc([True] * len(pos) + [False] * len(neg), pos + neg) == 1.0


# -- scoring & reports -------------------------------------------------------------


def test_evaluate_sets_overall_pools_all_negatives():
    g, test, index = eval_fixture()
    sets = build_eval_sets(test, g, index, seed=0)
    rng = np.random.default_rng(0)
    report = evaluate_sets(test, sets, lambda src, dst, t, cat: rng.random(src.size),
                           seed=0, split_label="x", strategy="y")
    cats = report.categories
    n_neg_sum = sum(cats[c].n_neg for c in EVAL_NEGATIVE_CATEGORIES)
    short_sum = sum(cats[c].shortfall for c in EVAL_NEGATIVE_CATEGORIES)
    assert cats["overall"].n_neg == n_neg_sum
    assert cats["overall"].shortfall == short_sum
    assert cats["overall"].n_pos == len(test)
    assert all(cats[c].n_pos == len(test) for c in EVAL_NEGATIVE_CATEGORIES)


def test_evaluate_sets_constant_scorer_gives_half():
    g, test, index = eval_fixture()
    sets = build_eval_sets(test, g, index, seed=0)
    report = evaluate_sets(test, sets, lambda src, dst, t, cat: np.full(src.size, 0.5),
                           seed=0)
    for cat, res in report.categories.items():
        assert res.auc == 0.5, cat


def test_report_roundtrips_and_is_deterministic():
    g, test, index = eval_fixture()
    sets = build_eval_sets(test, g, index, seed=5)
    rep1 = evaluate_sets(test, sets, lambda src, dst, t, cat: src.astype(float), seed=5,
                         split_label="2021-01", strategy="dins")
    rep2 = evaluate_sets(test, build_eval_sets(test, g, index, seed=5),
                         lambda src, dst, t, cat: src.astype(float), seed=5,
                         split_label="2021-01", strategy="dins")
    assert json.dumps(rep1.to_dict(), sort_keys=True) == \
        json.dumps(rep2.to_dict(), sort_keys=True)
    back = EvalReport.from_dict(json.loads(json.dumps(rep1.to_dict())))
    assert back == rep1


def test_callable_scorer_sees_every_sample_once_as_columns():
    g, test, index = eval_fixture()
    sets = build_eval_sets(test, g, index, seed=0)
    calls = []

    def scorer(src, dst, t, category):
        calls.append((src, dst, t, category))
        return np.zeros(src.size)

    evaluate_sets(test, sets, scorer, seed=0)
    assert len(calls) == 1
    src, dst, t, category = calls[0]
    assert all(a.dtype == np.int64 for a in (src, dst, t))
    rows = [r for ss in [positives_of(test)] + [sets[c] for c in EVAL_NEGATIVE_CATEGORIES]
            for r in ss.rows()]
    assert list(zip(src.tolist(), dst.tolist(), t.tolist(), category.tolist())) == \
        [(u, v, b, cat) for u, v, b, _, cat in rows]


@pytest.mark.parametrize("case", ["short", "2d", "nan", "inf"])
def test_callable_scorer_output_is_checked(case):
    # a NaN would otherwise rank as a group of its own and give a number
    g, test, index = eval_fixture()
    sets = build_eval_sets(test, g, index, seed=0)
    n = len(test) + sum(len(ss) for ss in sets.values())
    bad, returned, not_finite = {
        "short": (lambda src, *_: np.zeros(src.size - 1), n - 1, 0),
        "2d": (lambda src, *_: np.zeros((src.size, 2)), 2 * n, 0),
        "nan": (lambda src, *_: np.where(np.arange(src.size) == 3, np.nan, 0.5), n, 1),
        "inf": (lambda src, *_: np.where(np.arange(src.size) == n - 1, -np.inf, 0.5), n, 1),
    }[case]
    with pytest.raises(ValueError, match=f"must return {n} finite scores; "
                                         f"it returned {returned}, {not_finite} not finite"):
        evaluate_sets(test, sets, bad, seed=0)


def test_mapping_scorer_and_missing_keys():
    g, test, index = eval_fixture()
    sets = build_eval_sets(test, g, index, seed=0)
    full = {}
    for s in positives_of(test).samples:
        full[sample_key(s.src, s.dst, s.t, s.category)] = 0.9
    for ss in sets.values():
        for s in ss.samples:
            full[sample_key(s.src, s.dst, s.t, s.category)] = 0.1
    report = evaluate_sets(test, sets, full, seed=0)
    for cat, res in report.categories.items():
        assert res.auc == 1.0, cat

    some_key = next(iter(full))
    partial = {k: v for k, v in full.items() if k != some_key}
    with pytest.raises(MissingScoresError) as exc:
        evaluate_sets(test, sets, partial, seed=0)
    err = exc.value
    assert err.total >= 1 and some_key in err.missing
    assert some_key in str(err)


@pytest.mark.parametrize("case", ["nan-positives", "inf-negative"])
def test_mapping_scores_must_be_finite(case):
    # NaN positives against 0.5 negatives would read as AUC 1.0 in every row
    g = build_graph(multi_month_records(60, 300, 2, seed=2))
    split = make_split(g, *window_pairs(monthly_schedule(g))[0])
    index = combined_index(split.train, split.val, split.test)
    sets = build_eval_sets(split.test, split.train, index, seed=0)
    records = eval_records(split.test, sets)
    bad = {"nan-positives": lambda rec: math.nan if rec["label"] == POS else 0.5,
           "inf-negative": lambda rec: math.inf if rec is records[-1] else 0.5}[case]
    mapping = {rec["key"]: bad(rec) for rec in records}
    n = len(records)
    not_finite = len(split.test) if case == "nan-positives" else 1
    with pytest.raises(ValueError, match=f"must return {n} finite scores; "
                                         f"it returned {n}, {not_finite} not finite"):
        evaluate_sets(split.test, sets, mapping, seed=0)


def test_eval_records_are_dicts_whose_sorted_json_is_the_export():
    """perfbench's score-interchange set-up iterates ``eval_records`` and
    writes each record with ``json.dumps(rec, sort_keys=True)``, and its
    pinned seed-0 digest holds only while those lines are the export's."""
    g = build_graph(multi_month_records(60, 300, 2, seed=2))
    split = make_split(g, *window_pairs(monthly_schedule(g))[0])
    index = combined_index(split.train, split.val, split.test)
    records = eval_records(split.test, build_eval_sets(split.test, split.train, index, seed=0))
    assert type(records) is list and all(type(rec) is dict for rec in records)
    assert records and eval_lines(records) == "".join(
        json.dumps(rec, sort_keys=True) + "\n" for rec in records)


def test_eval_lines_of_a_split_with_an_empty_category():
    g, test, index = eval_fixture(test_edges=[("a", "b", 100), ("a", "b", 172)])
    sets = build_eval_sets(test, g, index, seed=0)
    assert len(sets["h6"]) == 0 and len(sets["loop"]) > 0
    records = eval_records(test, sets)
    assert "h6" not in {rec["category"] for rec in records} >= {"observed", "loop"}
    assert eval_lines(records) == "".join(json.dumps(rec, sort_keys=True) + "\n"
                                          for rec in records)
    assert eval_lines([]) == ""


def test_single_class_category_raises_with_context():
    # every h6 probe collides or exits the window -> no h6 negatives
    g, test, index = eval_fixture(
        test_edges=[("a", "b", 100), ("a", "b", 172)])
    sets = build_eval_sets(test, g, index, seed=0)
    assert len(sets["h6"].samples) == 0
    with pytest.raises(UndefinedMetricError, match="h6"):
        evaluate_sets(test, sets, lambda src, dst, t, cat: np.full(src.size, 0.5), seed=0)


def test_split_pipeline_eval_has_no_leakage():
    # run the real split machinery and bound every negative's time
    FEBRUARY = 1612137600
    JANUARY = 1609459200
    recs = []
    rng = np.random.default_rng(3)
    for i in range(300):
        u, v = int(rng.integers(0, 20)), int(rng.integers(0, 20))
        if u == v:
            v = (v + 1) % 20
        recs.append((f"n{u}", f"n{v}", JANUARY + int(rng.integers(0, 28 * 86400))))
    for i in range(300):
        u, v = int(rng.integers(0, 20)), int(rng.integers(0, 20))
        if u == v:
            v = (v + 1) % 20
        recs.append((f"n{u}", f"n{v}", FEBRUARY + int(rng.integers(0, 28 * 86400))))
    g = build_graph(recs)
    jan, feb = monthly_schedule(g)
    split = make_split(g, jan, feb, val_fraction=0.5)
    index = combined_index(split.train, split.val, split.test)
    sets = build_eval_sets(split.test, split.train, index, seed=0)
    t_cap = int(split.test.t.max())
    all_triples = set()
    for blk in ((split.train.src, split.train.dst, split.train.t),
                (split.val.src, split.val.dst, split.val.t),
                (split.test.src, split.test.dst, split.test.t)):
        all_triples |= set(zip(*(a.tolist() for a in blk)))
    for cat, ss in sets.items():
        for s in ss.samples:
            assert (s.src, s.dst, s.t) not in all_triples, cat
            assert s.t <= t_cap, cat
    for cat, off in H_OFFSETS.items():
        probes = dict.fromkeys(
            (int(u), int(v), int(t) + off)
            for u, v, t in zip(split.test.src, split.test.dst, split.test.t))
        for s in sets[cat].samples:
            assert (s.src, s.dst, s.t) in probes
