"""Category-wise evaluation of dynamic link predictions.

Test positives are scored against six kinds of structured negatives,
each probing a different easy win: replaced sender, replaced receiver,
negative self-loop, and the same pair re-probed 6h / 12h / 24h later
(offsets of 72 / 144 / 288 bins at the default 5-minute bin). A seventh
"overall" row pools all six. Ranking quality per category is the
tie-aware area under the ROC curve computed by midrank aggregation,
which matches the brute-force pairwise definition (wins + half-ties)
exactly.

Negatives are always checked against the full edge set of the split
(train + validation + test) so nothing labeled negative ever occurred;
the probe-time negatives additionally stay within the test window, so
no sample peeks past it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Union

import numpy as np

from .config import derive_rng
from .graph import DynamicGraph, EdgeBlock, HistoryIndex
from .sample_io import sample_key
from .sampling import (NEG, OBSERVED, POS, Sample, SampleSet,
                       _Calls, _replacement_column, _retry_loop_pick)

__all__ = [
    "EVAL_CATEGORIES", "EVAL_NEGATIVE_CATEGORIES", "H_OFFSETS",
    "UndefinedMetricError", "MissingScoresError", "ScoredSample",
    "CategoryResult", "EvalReport", "build_eval_set", "build_eval_sets",
    "auc", "evaluate", "evaluate_sets", "combined_index", "eval_records",
]

RANDOM_SENDER = "random_sender"
RANDOM_RECEIVER = "random_receiver"
LOOP = "loop"
H6 = "h6"
H12 = "h12"
H24 = "h24"
OVERALL = "overall"

H_OFFSETS = {H6: 72, H12: 144, H24: 288}
EVAL_NEGATIVE_CATEGORIES = (RANDOM_SENDER, RANDOM_RECEIVER, LOOP, H6, H12, H24)
EVAL_CATEGORIES = EVAL_NEGATIVE_CATEGORIES + (OVERALL,)

# fixed salts so each category consumes an independent substream
_CATEGORY_SALT = {c: i + 1 for i, c in enumerate(EVAL_NEGATIVE_CATEGORIES)}


class UndefinedMetricError(ValueError):
    """AUC was requested for a single-class sample collection."""


class MissingScoresError(ValueError):
    """An imported score file does not cover every evaluation sample."""

    def __init__(self, missing: list[str], total: int):
        preview = ", ".join(missing[:10])
        super().__init__(f"score file is missing {total} sample keys "
                         f"(first {min(10, total)}: {preview})")
        self.missing = missing[:10]
        self.total = total


@dataclass(frozen=True)
class ScoredSample:
    sample: Sample
    score: float


@dataclass(frozen=True)
class CategoryResult:
    auc: float
    n_pos: int
    n_neg: int
    shortfall: int

    def to_dict(self) -> dict:
        return {"auc": self.auc, "n_pos": self.n_pos, "n_neg": self.n_neg,
                "shortfall": self.shortfall}


@dataclass
class EvalReport:
    """Per-category AUC and counts for one split/strategy evaluation."""

    split_label: str
    strategy: str
    seed: int
    categories: dict[str, CategoryResult]

    def to_dict(self) -> dict:
        return {
            "metadata": {"split": self.split_label, "strategy": self.strategy,
                         "seed": self.seed},
            "categories": {k: v.to_dict() for k, v in self.categories.items()},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "EvalReport":
        md = d["metadata"]
        cats = {k: CategoryResult(**v) for k, v in d["categories"].items()}
        return cls(split_label=md["split"], strategy=md["strategy"],
                   seed=int(md["seed"]), categories=cats)


def combined_index(split_train: DynamicGraph, val: EdgeBlock,
                   test: EdgeBlock) -> HistoryIndex:
    """Membership index over every edge of a split (train + val + test)."""
    src = np.concatenate([split_train.src, val.src, test.src])
    dst = np.concatenate([split_train.dst, val.dst, test.dst])
    t = np.concatenate([split_train.t, val.t, test.t])
    return HistoryIndex(src, dst, t, split_train.n)


def build_eval_set(test_positives: EdgeBlock, graph: DynamicGraph,
                   index: HistoryIndex, category: str,
                   rng: np.random.Generator, *, retry_cap: int = 32,
                   loop_eval: str = "per-positive") -> SampleSet:
    """Negatives of one category for the given test positives.

    ``graph`` supplies the transductive node pool (train nodes);
    ``index`` must cover the whole split so negatives are checked
    against everything known. Undrawable slots are tallied under
    ``shortfall``.
    """
    if len(test_positives) == 0:
        raise ValueError("no test positives to evaluate")
    out: list[Sample] = []
    tallies: Counter = Counter()
    src, dst, ts = test_positives.src, test_positives.dst, test_positives.t

    if category in (RANDOM_SENDER, RANDOM_RECEIVER):
        replace_dst = category == RANDOM_RECEIVER
        r = _replacement_column(_Calls([rng]), np.zeros(src.size, dtype=np.int64), index,
                                graph.n, src, dst, ts, replace_dst, retry_cap)
        for i in range(len(test_positives)):
            if r[i] < 0:
                tallies["shortfall"] += 1
            elif replace_dst:
                out.append(Sample(int(src[i]), int(r[i]), int(ts[i]), NEG, category))
            else:
                out.append(Sample(int(r[i]), int(dst[i]), int(ts[i]), NEG, category))

    elif category == LOOP:
        before = int(ts.min())
        if loop_eval == "per-timestamp":
            anchor_ts = np.unique(ts)
        elif loop_eval == "per-positive":
            anchor_ts = ts
        else:
            raise ValueError(f"unknown loop_eval {loop_eval!r}")
        total = index.loopless_count(before)
        if total == 0:
            tallies["shortfall"] += int(anchor_ts.size)
        else:
            picks = index.loopless_picks(np.full(anchor_ts.size, before),
                                         rng.integers(0, total, size=anchor_ts.size))
            exists = index.occurred(picks, picks, anchor_ts)
            for i in range(anchor_ts.size):
                rl, t = int(picks[i]), int(anchor_ts[i])
                if exists[i]:
                    rl = _retry_loop_pick(index, _Calls([rng]).draw(0), before, t,
                                          retry_cap)
                if rl < 0:
                    tallies["shortfall"] += 1
                else:
                    out.append(Sample(rl, rl, t, NEG, LOOP))

    elif category in H_OFFSETS:
        offset = H_OFFSETS[category]
        t_cap = int(ts.max())
        probe = ts + offset
        in_window = probe <= t_cap
        exists = np.zeros(len(test_positives), dtype=bool)
        if in_window.any():
            exists[in_window] = index.occurred(src[in_window], dst[in_window],
                                               probe[in_window])
        for i in range(len(test_positives)):
            if not in_window[i] or exists[i]:
                tallies["shortfall"] += 1
            else:
                out.append(Sample(int(src[i]), int(dst[i]), int(probe[i]),
                                  NEG, category))

    else:
        raise ValueError(f"unknown evaluation category {category!r}")
    return SampleSet(out, 0, tallies)


def build_eval_sets(test_positives: EdgeBlock, graph: DynamicGraph,
                    index: HistoryIndex, seed: int, *, retry_cap: int = 32,
                    loop_eval: str = "per-positive") -> dict[str, SampleSet]:
    """All six negative categories, each from its own seed substream."""
    return {
        cat: build_eval_set(test_positives, graph, index, cat,
                            derive_rng(seed, _CATEGORY_SALT[cat]),
                            retry_cap=retry_cap, loop_eval=loop_eval)
        for cat in EVAL_NEGATIVE_CATEGORIES
    }


def positives_of(test_positives: EdgeBlock) -> list[Sample]:
    return [Sample(int(test_positives.src[i]), int(test_positives.dst[i]),
                   int(test_positives.t[i]), POS, OBSERVED)
            for i in range(len(test_positives))]


# -- AUC ----------------------------------------------------------------------


def _auc_arrays(labels: np.ndarray, scores: np.ndarray) -> float:
    """Tie-aware Mann-Whitney AUC via midranks; identical to the pairwise
    wins-plus-half-ties count divided by n_pos * n_neg."""
    n_pos = int(labels.sum())
    n_neg = int(labels.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError(
            "AUC needs at least one positive and one negative")
    order = np.argsort(scores, kind="mergesort")
    sorted_scores = scores[order]
    boundary = np.empty(scores.size, dtype=bool)
    boundary[0] = True
    boundary[1:] = sorted_scores[1:] != sorted_scores[:-1]
    group = np.cumsum(boundary) - 1
    counts = np.bincount(group)
    starts = np.cumsum(counts) - counts
    midrank = starts + (counts + 1) / 2.0       # 1-based midrank per tie group
    ranks = np.empty(scores.size)
    ranks[order] = midrank[group]
    pos_rank_sum = float(ranks[labels].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def auc(scored: list[ScoredSample]) -> float:
    """Tie-aware AUC of positive-labeled over negative-labeled samples."""
    labels = np.array([s.sample.label == POS for s in scored], dtype=bool)
    scores = np.array([s.score for s in scored], dtype=float)
    return _auc_arrays(labels, scores)


# -- evaluation ---------------------------------------------------------------

Scorer = Union[Callable[[Sample], float], Mapping[str, float]]


def _score_samples(samples: list[Sample], scorer: Scorer,
                   missing: list[str]) -> list[ScoredSample]:
    if callable(scorer):
        return [ScoredSample(s, float(scorer(s))) for s in samples]
    out = []
    for s in samples:
        key = sample_key(s.src, s.dst, s.t, s.category)
        val = scorer.get(key)
        if val is None:
            missing.append(key)
        else:
            out.append(ScoredSample(s, float(val)))
    return out


def evaluate_sets(test_positives: EdgeBlock, eval_sets: dict[str, SampleSet],
                  scorer: Scorer, seed: int, *, split_label: str = "",
                  strategy: str = "") -> EvalReport:
    """Score prebuilt negatives and report per-category tie-aware AUC.

    ``scorer`` is either a callable ``sample -> score`` or a mapping
    from sample keys to externally computed scores; with a mapping,
    every positive and negative must be covered or
    :class:`MissingScoresError` lists the first missing keys. The
    ``overall`` row pools every category's negatives, with the positives
    counted once.
    """
    missing: list[str] = []
    pos = _score_samples(positives_of(test_positives), scorer, missing)
    scored_by_cat: dict[str, list[ScoredSample]] = {}
    for cat in EVAL_NEGATIVE_CATEGORIES:
        scored_by_cat[cat] = _score_samples(eval_sets[cat].samples, scorer, missing)
    if missing:
        raise MissingScoresError(missing, len(missing))

    categories: dict[str, CategoryResult] = {}
    pooled: list[ScoredSample] = list(pos)
    total_shortfall = 0
    for cat in EVAL_NEGATIVE_CATEGORIES:
        negs = scored_by_cat[cat]
        shortfall = int(eval_sets[cat].tallies.get("shortfall", 0))
        total_shortfall += shortfall
        try:
            value = auc(pos + negs)
        except UndefinedMetricError:
            raise UndefinedMetricError(
                f"category {cat!r} has no scoreable negatives "
                f"(shortfall {shortfall}); AUC is undefined") from None
        categories[cat] = CategoryResult(auc=value, n_pos=len(pos),
                                         n_neg=len(negs), shortfall=shortfall)
        pooled.extend(negs)
    categories[OVERALL] = CategoryResult(
        auc=auc(pooled), n_pos=len(pos),
        n_neg=len(pooled) - len(pos), shortfall=total_shortfall)
    return EvalReport(split_label=split_label, strategy=strategy, seed=seed,
                      categories=categories)


def eval_records(test_positives: EdgeBlock,
                 eval_sets: dict[str, SampleSet]) -> list[dict]:
    """Keyed JSON records of all eval samples, for external scoring."""
    from .sample_io import sample_record
    recs = [sample_record(s, 0, with_key=True)
            for s in positives_of(test_positives)]
    for cat in EVAL_NEGATIVE_CATEGORIES:
        recs.extend(sample_record(s, 0, with_key=True)
                    for s in eval_sets[cat].samples)
    return recs
