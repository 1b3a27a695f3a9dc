"""Heuristic scorers: directionality, decay arithmetic, purity, AUC anchors,
and bit-for-bit agreement with the per-sample formulas they replace."""

from __future__ import annotations

import hashlib
import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dins import DEFAULT_RECENCY_DECAY, VOCABULARY, auc, build_graph, make_scorer
from dins.sampling import NEG, POS
from dins.scorers import ScorerSpec

from conftest import graphs, pair_times_map

I64 = (int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max))


@pytest.fixture
def train_index():
    g = build_graph([("a", "b", 300), ("a", "b", 3000), ("b", "c", 600),
                     ("d", "d", 900)])
    return g, g.history


def cols(rows):
    """[(src, dst, t, category)] -> the columns a scorer takes."""
    src, dst, t, cat = zip(*rows) if rows else ((), (), (), ())
    return (np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64),
            np.array(t, dtype=np.int64), np.array(cat, dtype=object))


def score(spec, idx, rows) -> list[float]:
    out = make_scorer(spec, index=idx)(*cols(rows))
    assert out.dtype == np.float64 and out.shape == (len(rows),)
    return out.tolist()


def recency(idx, lam, rows) -> list[float]:
    return score(ScorerSpec(kind="recency", lam=lam), idx, rows)


# -- scalar oracle ------------------------------------------------------------------
# The per-sample formulas the column scorers replaced, over a plain scan of
# the training edges (``times``: directed pair -> sorted bins).


def score_memory(times, src: int, dst: int) -> float:
    """1.0 iff the directed pair (src, dst) occurs anywhere in training."""
    return 1.0 if (src, dst) in times else 0.0


def score_recency(times, src: int, dst: int, t: int,
                  lam: float = DEFAULT_RECENCY_DECAY) -> float:
    """exp(-lam * gap) from the pair's latest training occurrence at or
    before ``t``; 0.0 when there is none."""
    last = max((x for x in times.get((src, dst), ()) if x <= t), default=None)
    if last is None:
        return 0.0
    return math.exp(-lam * (t - last))


def score_constant() -> float:
    return 0.5


def score_random(seed: int, src: int, dst: int, t: int, category: str) -> float:
    """Seeded uniform draw in [0, 1), a pure function of the sample."""
    h = hashlib.blake2b(f"{seed}|{src}|{dst}|{t}|{category}".encode(),
                        digest_size=8).digest()
    return int.from_bytes(h, "big") / 2.0 ** 64


ids_and_bins = st.one_of(st.integers(-3, 50), st.sampled_from(I64))


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_builtin_scorers_match_the_scalar_oracle_bit_for_bit(data):
    g = data.draw(graphs(max_bins=20))
    times = pair_times_map(g)
    # known pairs probed around their bins (before the first included),
    # and arbitrary ids (outside [0, n) and the int64 extremes included)
    pair = st.one_of(st.sampled_from(sorted(times)), st.tuples(ids_and_bins, ids_and_bins))
    rows = data.draw(st.lists(
        st.tuples(pair, ids_and_bins, st.sampled_from(VOCABULARY)).map(
            lambda r: (*r[0], r[1], r[2])), max_size=30))
    lam = data.draw(st.one_of(st.just(DEFAULT_RECENCY_DECAY),
                              st.floats(1e-9, 10.0, allow_subnormal=False)))
    seed = data.draw(st.integers(0, 2 ** 40))
    oracles = {
        ScorerSpec(kind="memory"): lambda u, v, t, c: score_memory(times, u, v),
        ScorerSpec(kind="recency", lam=lam): lambda u, v, t, c: score_recency(times, u, v, t, lam),
        ScorerSpec(kind="random", seed=seed): partial(score_random, seed),
        ScorerSpec(kind="constant"): lambda u, v, t, c: score_constant(),
    }
    for spec, oracle in oracles.items():
        got = make_scorer(spec, index=g.history)(*cols(rows))
        want = np.array([oracle(*r) for r in rows], dtype=np.float64)
        assert got.tobytes() == want.tobytes(), spec


# -- memory -----------------------------------------------------------------------


def test_memory_is_directed(train_index):
    g, idx = train_index
    a, b, c, d = (g.registry.id_of(x) for x in "abcd")
    rows = [(a, b, 0, "observed"),
            (b, a, 0, "observed"),    # reverse direction unseen
            (c, c, 0, "loop"),        # never-seen loop
            (d, d, 0, "loop")]        # seen loop
    assert score(ScorerSpec(kind="memory"), idx, rows) == [1.0, 0.0, 0.0, 1.0]


def test_memory_gives_perfect_auc_on_seen_vs_unseen(train_index):
    g, idx = train_index
    a, b, c = (g.registry.id_of(x) for x in "abc")
    pool = [(a, b, 50, POS), (b, c, 60, POS), (c, a, 50, NEG), (b, a, 60, NEG)]
    scores = score(ScorerSpec(kind="memory"), idx, [(u, v, t, "x") for u, v, t, _ in pool])
    assert auc([lab == POS for *_, lab in pool], scores) == 1.0


# -- recency ----------------------------------------------------------------------


def test_recency_halves_every_72_bins(train_index):
    g, idx = train_index
    a, b = g.registry.id_of("a"), g.registry.id_of("b")
    lam = math.log(2.0) / 72.0
    # last occurrence of (a,b) at bin 9 (raw 3000, anchor 300, width 300)
    at9, at81, at153 = recency(idx, lam, [(a, b, t, "h6") for t in (9, 81, 153)])
    assert at9 == 1.0
    assert at81 == pytest.approx(0.5, abs=1e-12)
    assert at153 == pytest.approx(0.25, abs=1e-12)


def test_recency_uses_latest_occurrence_at_or_before(train_index):
    g, idx = train_index
    a, b = g.registry.id_of("a"), g.registry.id_of("b")
    lam = math.log(2.0) / 72.0
    between, before = recency(idx, lam, [(a, b, 5, "h6"), (a, b, -1, "h6")])
    # between the two occurrences (bins 0 and 9): gap measured from bin 0
    assert between == pytest.approx(math.exp(-lam * 5), abs=1e-15)
    # before any occurrence -> no history
    assert before == 0.0


def test_recency_no_history_is_zero(train_index):
    g, idx = train_index
    c, a = g.registry.id_of("c"), g.registry.id_of("a")
    assert recency(idx, 0.01, [(c, a, 100, "h6")]) == [0.0]


def test_recency_monotone_in_gap(train_index):
    g, idx = train_index
    a, b = g.registry.id_of("a"), g.registry.id_of("b")
    vals = recency(idx, 0.03, [(a, b, t, "h6") for t in range(10, 400, 7)])
    assert all(x >= y for x, y in zip(vals, vals[1:]))


# -- constant / random --------------------------------------------------------------


def test_constant_anchors_auc_at_half():
    rng = np.random.default_rng(0)
    rows = [(int(rng.integers(9)), 1, i, "observed") for i in range(60)]
    scores = score(ScorerSpec(kind="constant"), None, rows)
    assert scores == [0.5] * 60
    assert auc([i % 3 > 0 for i in range(60)], scores) == 0.5


def test_random_scorer_is_pure_and_seeded():
    seven = ScorerSpec(kind="random", seed=7)
    one, same, swapped, other_cat = score(seven, None, [
        (1, 2, 3, "temporal"), (1, 2, 3, "temporal"), (2, 1, 3, "temporal"),
        (1, 2, 3, "negative_loop")])
    assert one == same
    assert 0.0 <= one < 1.0
    assert one != score(ScorerSpec(kind="random", seed=8), None, [(1, 2, 3, "temporal")])[0]
    assert one != swapped
    assert one != other_cat


def test_random_scorer_near_half_on_balanced_set():
    n = 4000
    scores = score(ScorerSpec(kind="random", seed=3), None,
                   [(i, i + 1, i, "observed") for i in range(n)])
    # binomial concentration: 3 / sqrt(N) around 0.5
    assert abs(auc([i % 2 == 1 for i in range(n)], scores) - 0.5) < 3.0 / math.sqrt(n)


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
    assert score(ScorerSpec(kind="constant"), None, [(0, 1, 2, "observed")]) == [0.5]


def test_scorers_are_pure(train_index):
    # a sample's score depends on neither the call nor the rest of its set
    g, idx = train_index
    a, b, c = (g.registry.id_of(x) for x in "abc")
    rows = [(a, b, 40, "temporal"), (b, c, 2, "h6"), (c, a, 9, "loop"), (a, b, 3, "h12")]
    for spec in (ScorerSpec(kind="memory"), ScorerSpec(kind="recency", lam=0.02),
                 ScorerSpec(kind="random", seed=5), ScorerSpec(kind="constant")):
        whole = score(spec, idx, rows)
        assert whole == score(spec, idx, rows)
        assert whole == [score(spec, idx, [r])[0] for r in rows]
        assert whole[::-1] == score(spec, idx, rows[::-1])
        assert score(spec, idx, []) == []
