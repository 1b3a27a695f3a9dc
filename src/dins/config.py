"""Configuration dataclasses and seed-derived random streams."""

from __future__ import annotations

import math
import numbers
from dataclasses import MISSING, asdict, dataclass, fields
from typing import Optional

import numpy as np
from numpy.random.bit_generator import ISeedSequence

DEFAULT_BIN_WIDTH_SECONDS = 300
DEFAULT_RECENCY_DECAY = math.log(2.0) / 72.0  # score halves every 72 bins


def derive_rng(seed: int, *key: int) -> np.random.Generator:
    """Independent, reproducible substream for ``(seed, *key)``.

    The same tuple always yields the same stream, and distinct tuples
    yield statistically independent streams, so per-batch and
    per-category draws can run in any order (or concurrently) without
    changing results.
    """
    if seed < 0:
        raise ValueError("seed must be non-negative")
    return np.random.default_rng(tuple(int(x) for x in (seed, *key)))


# SeedSequence's hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_M32 = 0xFFFFFFFF


class _SeedWords(ISeedSequence):
    """Hands PCG64 the seed words a SeedSequence would have generated."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _seed_words(entropy: list[np.ndarray]) -> np.ndarray:
    """``SeedSequence(e).generate_state(4, np.uint64)`` for every column of
    ``entropy`` (at most four uint32 words per row), one row per column."""
    hc = _INIT_A

    def hashmix(value):
        nonlocal hc
        value = value ^ np.uint32(hc)
        hc = (hc * _MULT_A) & _M32
        value = value * np.uint32(hc)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        r = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
        return r ^ (r >> np.uint32(16))

    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(4)]
    for i_src in range(4):
        for i_dst in range(4):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    hc = _INIT_B
    out = np.empty((zero.size, 8), dtype=np.uint32)
    for i in range(8):
        d = pool[i % 4] ^ np.uint32(hc)
        hc = (hc * _MULT_B) & _M32
        d = d * np.uint32(hc)
        out[:, i] = d ^ (d >> np.uint32(16))
    return out.astype("<u4").view("<u8").astype(np.uint64)


def derive_rngs(seed: int, keys: list[int]) -> list[np.random.Generator]:
    """``[derive_rng(seed, key) for key in keys]``, at a fraction of the cost.

    Seeding is mostly SeedSequence's hashing, which is done here for all
    keys at once with array operations; keys of 2**32 or more (whose
    entropy takes more words) go through :func:`derive_rng`.
    """
    if seed < 0:
        raise ValueError("seed must be non-negative")
    if seed > _M32 or any(k < 0 or k > _M32 for k in keys):
        return [derive_rng(seed, k) for k in keys]
    words = _seed_words([np.full(len(keys), seed, dtype=np.uint32),
                         np.array(keys, dtype=np.uint32)])
    return [np.random.Generator(np.random.PCG64(_SeedWords(w))) for w in words]


@dataclass(frozen=True)
class SamplerConfig:
    """Knobs for the negative samplers.

    ``q`` future-time negatives per positive, drawn within ``t_f`` bins;
    batches of ``k`` positives.
    """

    q: int = 5
    t_f: int = 288
    k: int = 1000
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.q < 2**63:
            raise ValueError("q must be >= 1 and below 2**63")
        if not 1 <= self.t_f < 2**63:
            raise ValueError("t_f must be >= 1 and below 2**63")
        if not 1 <= self.k < 2**63:
            raise ValueError("k must be >= 1 and below 2**63")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


SCORER_KINDS = ("constant", "random", "memory", "recency")


@dataclass(frozen=True)
class ScorerSpec:
    """Which built-in scorer to use and its parameters."""

    kind: str
    lam: float = DEFAULT_RECENCY_DECAY   # recency decay per bin
    seed: int = 0

    def __post_init__(self):
        if self.kind not in SCORER_KINDS:
            raise ValueError(f"unknown scorer {self.kind!r}; "
                             f"choose from {SCORER_KINDS}")
        if not 0 < self.lam < math.inf:     # NaN fails both comparisons
            raise ValueError("lam must be positive" if self.lam <= 0 else
                             f"lam must be finite, got {self.lam}")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


VALID_LOOP_POOL = ("batch", "per-t")
VALID_LOOP_EVAL = ("per-positive", "per-timestamp")


@dataclass
class PipelineConfig:
    """Resolved settings for a full experiment run."""

    dataset: str
    bin_width_seconds: int = DEFAULT_BIN_WIDTH_SECONDS
    batch_size: int = 1000
    q: int = 5
    t_f: int = 288
    seed: int = 0
    windows: str = "monthly"          # "monthly" or path to a windows JSON file
    val_fraction: float = 0.5
    loop_pool: str = "batch"
    loop_eval: str = "per-positive"
    strategies: tuple[str, ...] = ("dins",)
    scorer: str = "memory"
    scorer_lambda: float = DEFAULT_RECENCY_DECAY
    scorer_seed: int = 0
    scores_dir: Optional[str] = None
    columns: tuple[str, str, str] = ("src", "dst", "timestamp")
    drop_users: Optional[str] = None
    min_month_edges: int = 0

    def __post_init__(self):
        self._check_types()
        self.strategies = tuple(self.strategies)
        self.columns = tuple(self.columns)
        if self.bin_width_seconds <= 0:
            raise ValueError("bin_width_seconds must be positive")
        # a split with val_fraction 1 has no test edges to evaluate
        if not 0.0 <= self.val_fraction < 1.0:
            raise ValueError("val_fraction must be in [0, 1)")
        repeated = sorted({s for s in self.strategies if self.strategies.count(s) > 1})
        if repeated:
            raise ValueError(f"strategies must not repeat: {', '.join(repeated)}")
        if self.loop_pool not in VALID_LOOP_POOL:
            raise ValueError(f"loop_pool must be one of {VALID_LOOP_POOL}")
        if self.loop_eval not in VALID_LOOP_EVAL:
            raise ValueError(f"loop_eval must be one of {VALID_LOOP_EVAL}")
        if len(set(self.columns)) != 3 or len(self.columns) != 3:
            raise ValueError("columns must name three distinct columns: (src, dst, timestamp)")
        if self.min_month_edges < 0:
            raise ValueError("min_month_edges must be non-negative")
        # delegate numeric checks
        self.sampler()
        self.scorer_spec()

    def _check_types(self) -> None:
        """Each setting has its default's type; a bool is not an integer,
        an integer is a number, and ``dataset`` may be null."""
        for f in fields(self):
            value, default = getattr(self, f.name), f.default
            if isinstance(default, tuple):
                want, ok = "a list of strings", (isinstance(value, (list, tuple))
                                                 and all(isinstance(v, str) for v in value))
            elif isinstance(default, str):
                want, ok = "a string", isinstance(value, str)
            elif default is None or default is MISSING:
                want, ok = "a string or null", value is None or isinstance(value, str)
            else:
                number = isinstance(default, float)
                want = "a number" if number else "an integer"
                ok = (isinstance(value, numbers.Real if number else numbers.Integral)
                      and not isinstance(value, bool))
            if not ok:
                raise TypeError(f"{f.name} must be {want}, got {value!r}")

    def sampler(self) -> SamplerConfig:
        return SamplerConfig(q=self.q, t_f=self.t_f, k=self.batch_size, seed=self.seed)

    def scorer_spec(self) -> ScorerSpec:
        return ScorerSpec(kind=self.scorer, lam=self.scorer_lambda, seed=self.scorer_seed)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["strategies"] = list(self.strategies)
        d["columns"] = list(self.columns)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "PipelineConfig":
        """The config of ``d``'s settings; a key that names no field is an error."""
        if not isinstance(d, dict):
            raise TypeError(f"a config must be a JSON object, got {type(d).__name__}")
        unknown = sorted(set(d) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown config key(s): {', '.join(unknown)}")
        return cls(**d)
