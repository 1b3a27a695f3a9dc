"""Built-in heuristic link scorers.

These provide reference predictions for the evaluation harness without
training a model: ``memory`` recalls directed pairs seen in training,
``recency`` decays that recall exponentially with the gap since the
pair's last training occurrence, and ``constant`` / ``random`` anchor
the chance level. Every scorer is a pure function of
``(training index, sample, spec)``; in particular ``random`` hashes the
sample rather than consuming a stream, so scoring order never matters.
"""

from __future__ import annotations

import hashlib
import math
from typing import Callable, Optional

# SCORER_KINDS and ScorerSpec live in config, which checks them up front
from .config import DEFAULT_RECENCY_DECAY, SCORER_KINDS, ScorerSpec  # noqa: F401
from .graph import HistoryIndex
from .sampling import Sample


def score_memory(index: HistoryIndex, src: int, dst: int) -> float:
    """1.0 iff the directed pair (src, dst) occurs anywhere in training."""
    return 1.0 if index.has_pair(src, dst) else 0.0


def score_recency(index: HistoryIndex, src: int, dst: int, t: int,
                  lam: float = DEFAULT_RECENCY_DECAY) -> float:
    """exp(-lam * gap) from the pair's latest training occurrence at or
    before ``t``; 0.0 when there is none."""
    last = index.last_occurrence_at_or_before(src, dst, t)
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


def make_scorer(spec: ScorerSpec,
                index: Optional[HistoryIndex] = None) -> Callable[[Sample], float]:
    """Bind a spec (and training index where needed) into ``sample -> score``."""
    if spec.kind == "constant":
        return lambda s: 0.5
    if spec.kind == "random":
        seed = spec.seed
        return lambda s: score_random(seed, s.src, s.dst, s.t, s.category)
    if index is None:
        raise ValueError(f"scorer {spec.kind!r} needs a training index")
    if spec.kind == "memory":
        return lambda s: score_memory(index, s.src, s.dst)
    lam = spec.lam
    return lambda s: score_recency(index, s.src, s.dst, s.t, lam)
