"""Heuristic scorers: directionality, decay arithmetic, purity, AUC anchors."""

from __future__ import annotations

import math

import numpy as np
import pytest

from dins import auc, build_graph, make_scorer
from dins.sampling import NEG, POS, Sample
from dins.scorers import (ScorerSpec, score_constant, score_memory,
                          score_random, score_recency)


@pytest.fixture
def train_index():
    g = build_graph([("a", "b", 300), ("a", "b", 3000), ("b", "c", 600),
                     ("d", "d", 900)])
    return g, g.history


def s(u, v, t, cat="observed", label=POS):
    return Sample(u, v, t, label, cat)


# -- memory -----------------------------------------------------------------------


def test_memory_is_directed(train_index):
    g, idx = train_index
    a, b, c = (g.registry.id_of(x) for x in "abc")
    assert score_memory(idx, a, b) == 1.0
    assert score_memory(idx, b, a) == 0.0   # reverse direction unseen
    assert score_memory(idx, c, c) == 0.0   # never-seen loop
    d = g.registry.id_of("d")
    assert score_memory(idx, d, d) == 1.0   # seen loop


def test_memory_gives_perfect_auc_on_seen_vs_unseen(train_index):
    g, idx = train_index
    scorer = make_scorer(ScorerSpec(kind="memory"), index=idx)
    a, b, c = (g.registry.id_of(x) for x in "abc")
    pool = [s(a, b, 50), s(b, c, 60), s(c, a, 50, label=NEG), s(b, a, 60, label=NEG)]
    assert auc([x.label == POS for x in pool], [scorer(x) for x in pool]) == 1.0


# -- recency ----------------------------------------------------------------------


def test_recency_halves_every_72_bins(train_index):
    g, idx = train_index
    a, b = g.registry.id_of("a"), g.registry.id_of("b")
    lam = math.log(2.0) / 72.0
    # last occurrence of (a,b) at bin 9 (raw 3000, anchor 300, width 300)
    assert score_recency(idx, a, b, 9, lam) == 1.0
    assert score_recency(idx, a, b, 81, lam) == pytest.approx(0.5, abs=1e-12)
    assert score_recency(idx, a, b, 153, lam) == pytest.approx(0.25, abs=1e-12)


def test_recency_uses_latest_occurrence_at_or_before(train_index):
    g, idx = train_index
    a, b = g.registry.id_of("a"), g.registry.id_of("b")
    lam = math.log(2.0) / 72.0
    # between the two occurrences (bins 0 and 9): gap measured from bin 0
    assert score_recency(idx, a, b, 5, lam) == pytest.approx(
        math.exp(-lam * 5), abs=1e-15)
    # before any occurrence -> no history
    assert score_recency(idx, a, b, -1, lam) == 0.0


def test_recency_no_history_is_zero(train_index):
    g, idx = train_index
    c, a = g.registry.id_of("c"), g.registry.id_of("a")
    assert score_recency(idx, c, a, 100, 0.01) == 0.0


def test_recency_monotone_in_gap(train_index):
    g, idx = train_index
    a, b = g.registry.id_of("a"), g.registry.id_of("b")
    vals = [score_recency(idx, a, b, t, 0.03) for t in range(10, 400, 7)]
    assert all(x >= y for x, y in zip(vals, vals[1:]))


# -- constant / random --------------------------------------------------------------


def test_constant_anchors_auc_at_half():
    assert score_constant() == 0.5
    rng = np.random.default_rng(0)
    pool = [s(int(rng.integers(9)), 1, i, label=POS if i % 3 else NEG)
            for i in range(60)]
    assert auc([x.label == POS for x in pool], [0.5] * len(pool)) == 0.5


def test_random_scorer_is_pure_and_seeded():
    one = score_random(7, 1, 2, 3, "temporal")
    assert one == score_random(7, 1, 2, 3, "temporal")
    assert 0.0 <= one < 1.0
    assert one != score_random(8, 1, 2, 3, "temporal")
    assert one != score_random(7, 2, 1, 3, "temporal")
    assert one != score_random(7, 1, 2, 3, "negative_loop")


def test_random_scorer_near_half_on_balanced_set():
    spec = ScorerSpec(kind="random", seed=3)
    scorer = make_scorer(spec)
    n = 4000
    pool = [s(i, i + 1, i, label=POS if i % 2 else NEG) for i in range(n)]
    # binomial concentration: 3 / sqrt(N) around 0.5
    assert abs(auc([x.label == POS for x in pool], [scorer(x) for x in pool]) - 0.5) \
        < 3.0 / math.sqrt(n)


# -- spec / factory ------------------------------------------------------------------


def test_scorer_spec_validation():
    with pytest.raises(ValueError):
        ScorerSpec(kind="nope")
    with pytest.raises(ValueError):
        ScorerSpec(kind="recency", lam=0.0)
    with pytest.raises(ValueError):
        ScorerSpec(kind="recency", lam=-1.0)


def test_make_scorer_requires_index_for_history_kinds(train_index):
    _, idx = train_index
    for kind in ("memory", "recency"):
        with pytest.raises(ValueError, match="index"):
            make_scorer(ScorerSpec(kind=kind))
        assert callable(make_scorer(ScorerSpec(kind=kind), index=idx))
    assert make_scorer(ScorerSpec(kind="constant"))(s(0, 1, 2)) == 0.5


def test_scorers_are_pure(train_index):
    g, idx = train_index
    a, b = g.registry.id_of("a"), g.registry.id_of("b")
    for spec in (ScorerSpec(kind="memory"), ScorerSpec(kind="recency", lam=0.02),
                 ScorerSpec(kind="random", seed=5), ScorerSpec(kind="constant")):
        f = make_scorer(spec, index=idx)
        probe = s(a, b, 40, "temporal", NEG)
        assert f(probe) == f(probe)
