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

Each category's negatives are a :class:`SampleSet` of columns, built
with array masks; a scorer takes the columns of all of them at once and
returns one array, and :func:`auc` takes labels and scores.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Mapping, Union

import numpy as np

from .config import derive_rng
from .graph import DynamicGraph, EdgeBlock, HistoryIndex
from .sample_io import sample_keys
from .sampling import (_CATEGORY_OF, H6, H12, H24, LOOP, OBSERVED, RANDOM_RECEIVER,
                       RANDOM_SENDER, SampleSet, _Replay, _Run)

__all__ = [
    "EVAL_CATEGORIES", "EVAL_NEGATIVE_CATEGORIES", "H_OFFSETS",
    "UndefinedMetricError", "MissingScoresError", "CategoryResult",
    "EvalReport", "build_eval_set", "build_eval_sets", "midranks", "auc",
    "evaluate_sets", "combined_index", "eval_records",
]

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
                   rng: np.random.Generator, *, loop_eval: str = "per-positive") -> SampleSet:
    """Negatives of one category for the given test positives.

    ``graph`` supplies the transductive node pool (train nodes);
    ``index`` must cover the whole split so negatives are checked
    against everything known. Undrawable slots are tallied under
    ``shortfall``.
    """
    if len(test_positives) == 0:
        raise ValueError("no test positives to evaluate")
    draws = _Replay.of(rng)
    run = _Run(graph, draws, test_positives.src, test_positives.dst, test_positives.t,
               [len(test_positives)], [0], index=index)
    src, dst, ts = run.src, run.dst, run.t

    if category in (RANDOM_SENDER, RANDOM_RECEIVER):
        replace_dst = category == RANDOM_RECEIVER
        r = run.replacements(replace_dst)
        ok = r >= 0
        src, dst = (src, r) if replace_dst else (r, dst)

    elif category == LOOP:
        if loop_eval == "per-timestamp":
            ts = np.unique(ts)
        elif loop_eval != "per-positive":
            raise ValueError(f"unknown loop_eval {loop_eval!r}")
        # one pool before the earliest positive; the positives need not be sorted
        src = dst = run.loop_picks(np.zeros(ts.size, dtype=np.int64), ts.min(keepdims=True), ts)
        ok = src >= 0

    elif category in H_OFFSETS:
        ts = ts + H_OFFSETS[category]
        ok = ts <= int(test_positives.t.max())
        ok[ok] = ~index.occurred(src[ok], dst[ok], ts[ok])

    else:
        raise ValueError(f"unknown evaluation category {category!r}")
    draws.settle()
    shortfall = int(ok.size - ok.sum())
    return SampleSet.of(src[ok], dst[ok], ts[ok], category,
                        tallies=Counter(shortfall=shortfall) if shortfall else None)


def build_eval_sets(test_positives: EdgeBlock, graph: DynamicGraph, index: HistoryIndex,
                    seed: int, *, loop_eval: str = "per-positive") -> dict[str, SampleSet]:
    """All six negative categories, each from its own seed substream."""
    return {
        cat: build_eval_set(test_positives, graph, index, cat,
                            derive_rng(seed, _CATEGORY_SALT[cat]),
                            loop_eval=loop_eval)
        for cat in EVAL_NEGATIVE_CATEGORIES
    }


def positives_of(test_positives: EdgeBlock) -> SampleSet:
    """The test positives as observed samples."""
    return SampleSet.of(test_positives.src, test_positives.dst, test_positives.t, OBSERVED)


# -- AUC ----------------------------------------------------------------------


def midranks(values) -> np.ndarray:
    """1-based ascending ranks of ``values``; tied values share their mean rank."""
    values = np.asarray(values, dtype=float)
    order = np.argsort(values, kind="mergesort")
    sorted_values = values[order]
    boundary = np.empty(values.size, dtype=bool)
    boundary[:1] = True
    boundary[1:] = sorted_values[1:] != sorted_values[:-1]
    group = np.cumsum(boundary) - 1
    counts = np.bincount(group)
    starts = np.cumsum(counts) - counts
    ranks = np.empty(values.size)
    ranks[order] = (starts + (counts + 1) / 2.0)[group]
    return ranks


def auc(labels, scores) -> float:
    """Tie-aware AUC of the scores labeled True over those labeled False.

    Mann-Whitney via midranks; identical to the pairwise wins-plus-half-ties
    count divided by n_pos * n_neg.
    """
    labels = np.asarray(labels, dtype=bool)
    n_pos = int(labels.sum())
    n_neg = int(labels.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError(
            "AUC needs at least one positive and one negative")
    pos_rank_sum = float(midranks(scores)[labels].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


# -- evaluation ---------------------------------------------------------------

Scorer = Union[Callable[..., np.ndarray], Mapping[str, float]]


def _scores(sets: list[SampleSet], scorer: Scorer) -> np.ndarray:
    """One score per sample of ``sets``, in order."""
    n = sum(len(ss) for ss in sets)
    if callable(scorer):
        src, dst, t, code = (np.concatenate([getattr(ss, c) for ss in sets])
                             for c in ("src", "dst", "t", "code"))
        scores = np.asarray(scorer(src, dst, t, _CATEGORY_OF[code]), dtype=np.float64)
    else:
        keys = [key for ss in sets for key in sample_keys(ss.src, ss.dst, ss.t, ss.code)]
        values = [scorer.get(key) for key in keys]
        missing = [key for key, value in zip(keys, values) if value is None]
        if missing:
            raise MissingScoresError(missing, len(missing))
        scores = np.array(values, dtype=np.float64)
    if scores.shape != (n,) or not np.isfinite(scores).all():
        raise ValueError(f"a scorer must return {n} finite scores; it returned "
                         f"{scores.size}, {np.sum(~np.isfinite(scores))} not finite")
    return scores


def evaluate_sets(test_positives: EdgeBlock, eval_sets: dict[str, SampleSet],
                  scorer: Scorer, seed: int, *, split_label: str = "",
                  strategy: str = "") -> EvalReport:
    """Score prebuilt negatives and report per-category tie-aware AUC.

    ``scorer`` is either a callable ``(src, dst, t, category) -> scores``,
    called once on the columns of the positives and all six sets, or a
    mapping from sample keys to externally computed scores; with a mapping,
    every positive and negative must be covered or
    :class:`MissingScoresError` lists the first missing keys. The
    ``overall`` row pools every category's negatives, with the positives
    counted once.
    """
    negatives = [eval_sets[cat] for cat in EVAL_NEGATIVE_CATEGORIES]
    scores = _scores([positives_of(test_positives)] + negatives, scorer)
    n_pos = len(test_positives)
    ends = np.cumsum([n_pos] + [len(ss) for ss in negatives]).tolist()
    categories: dict[str, CategoryResult] = {}
    for cat, ss, lo, hi in zip(EVAL_NEGATIVE_CATEGORIES, negatives, ends, ends[1:]):
        shortfall = int(ss.tallies.get("shortfall", 0))
        try:
            value = auc(np.arange(n_pos + hi - lo) < n_pos,
                        np.concatenate([scores[:n_pos], scores[lo:hi]]))
        except UndefinedMetricError:
            raise UndefinedMetricError(
                f"category {cat!r} has no scoreable negatives "
                f"(shortfall {shortfall}); AUC is undefined") from None
        categories[cat] = CategoryResult(auc=value, n_pos=n_pos, n_neg=hi - lo,
                                         shortfall=shortfall)
    categories[OVERALL] = CategoryResult(
        auc=auc(np.arange(scores.size) < n_pos, scores), n_pos=n_pos,
        n_neg=scores.size - n_pos,
        shortfall=sum(r.shortfall for r in categories.values()))
    return EvalReport(split_label=split_label, strategy=strategy, seed=seed,
                      categories=categories)


def eval_records(test_positives: EdgeBlock,
                 eval_sets: dict[str, SampleSet]) -> list[dict]:
    """Keyed JSON records of all eval samples, for external scoring."""
    sets = [positives_of(test_positives)] + [eval_sets[c] for c in EVAL_NEGATIVE_CATEGORIES]
    # the keys come first, so that their int lists are gone before rows() makes its own
    return [{"src": src, "dst": dst, "t": t, "label": label, "category": cat, "batch": 0,
             "key": key}
            for ss in sets
            for key, (src, dst, t, label, cat) in zip(
                sample_keys(ss.src, ss.dst, ss.t, ss.code), ss.rows())]
