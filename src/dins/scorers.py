"""Built-in heuristic link scorers.

These provide reference predictions for the evaluation harness without
training a model: ``memory`` recalls directed pairs seen in training,
``recency`` decays that recall exponentially with the gap since the
pair's last training occurrence, and ``constant`` / ``random`` anchor
the chance level. A scorer maps the columns of a set of samples,
``(src, dst, t, category)``: int64 arrays and an array of category
names, to one float64 score per sample. Each score is a pure function
of ``(training index, sample, spec)``; ``random`` hashes the sample
rather than consuming a stream, so neither order nor grouping matters.
"""

from __future__ import annotations

import math
from functools import partial
from hashlib import blake2b
from typing import Callable, Optional

import numpy as np

# SCORER_KINDS and ScorerSpec live in config, which checks them up front
from .config import SCORER_KINDS, ScorerSpec  # noqa: F401
from .graph import HistoryIndex


def _recency(index: HistoryIndex, lam: float, src, dst, t, category) -> np.ndarray:
    """exp(-lam * gap) from the pair's latest training occurrence at or
    before ``t``; 0.0 where there is none."""
    starts, stops = index.window_bounds(src, dst, np.full(t.size, np.iinfo(np.int64).min), t)
    found = np.flatnonzero(stops > starts)
    last = index.bins_by_pair[stops[found] - 1].tolist()
    out = np.zeros(t.size)
    # math.exp per value: np.exp differs from it in the last bit for some
    # gaps, and Python ints keep gaps between int64 extremes exact
    out[found] = [math.exp(-lam * (u - v)) for u, v in zip(t[found].tolist(), last)]
    return out


def _random(seed: int, src, dst, t, category) -> np.ndarray:
    """Seeded uniform draw in [0, 1), a pure function of each sample."""
    rows = zip(src.tolist(), dst.tolist(), t.tolist(), category)
    return np.array([int.from_bytes(blake2b(f"{seed}|{u}|{v}|{b}|{c}".encode(), digest_size=8)
                                    .digest(), "big") / 2.0 ** 64 for u, v, b, c in rows])


def make_scorer(spec: ScorerSpec,
                index: Optional[HistoryIndex] = None) -> Callable[..., np.ndarray]:
    """Bind a spec (and training index where needed) into a column scorer."""
    if spec.kind == "constant":
        return lambda src, dst, t, category: np.full(len(src), 0.5)
    if spec.kind == "random":
        return partial(_random, spec.seed)
    if index is None:
        raise ValueError(f"scorer {spec.kind!r} needs a training index")
    if spec.kind == "memory":
        return lambda src, dst, t, category: (index.pair_rows(src, dst) >= 0).astype(float)
    return partial(_recency, index, spec.lam)
