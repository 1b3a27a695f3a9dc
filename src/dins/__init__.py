"""Domain-informed negative sampling for continuous-time dynamic graphs.

The package builds time-binned interaction graphs, draws structured
negative samples (replaced senders/receivers, future-time probes,
negative self-loops, plus recurrence-aware positive enhancement),
splits data into monthly transductive train/eval windows, and scores
link predictions with a tie-aware, category-wise AUC protocol.
"""

from .config import (DEFAULT_BIN_WIDTH_SECONDS, DEFAULT_RECENCY_DECAY,
                     PipelineConfig, SamplerConfig, derive_rng)
from .evaluation import (EVAL_CATEGORIES, EVAL_NEGATIVE_CATEGORIES, H_OFFSETS,
                         CategoryResult, EvalReport, MissingScoresError,
                         UndefinedMetricError, auc, build_eval_set,
                         build_eval_sets, combined_index, evaluate_sets)
from .graph import (Batch, DynamicGraph, EdgeBlock, GraphStats,
                    HistoryIndex, IngestError, NodeRegistry, batches,
                    build_graph, stats, subgraph)
from .runner import average_ranks, process_split, run_experiment
from .sample_io import (load_dataset, load_graph, read_samples_jsonl,
                        read_scores_jsonl, read_split_dir, sample_key,
                        sample_keys, save_graph, write_samples_jsonl, write_scores_jsonl,
                        write_split_dir)
from .sampling import (CATEGORIES, NEG, POS, STRATEGIES, VOCABULARY, Sample,
                       SampleSet, batch_rng, positive_enhancement, sample_batches,
                       sample_dins, sample_historical_baseline,
                       sample_negative_loops, sample_random_baseline,
                       sample_sender_receiver, sample_temporal)
from .scorers import SCORER_KINDS, ScorerSpec, make_scorer
from .split import (MonthlySplit, WindowSpec, load_windows_file, make_split,
                    monthly_schedule, window_pairs)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # config
    "DEFAULT_BIN_WIDTH_SECONDS", "DEFAULT_RECENCY_DECAY", "PipelineConfig",
    "SamplerConfig", "derive_rng",
    # graph
    "Batch", "DynamicGraph", "EdgeBlock", "GraphStats", "HistoryIndex",
    "IngestError", "NodeRegistry", "batches", "build_graph", "stats", "subgraph",
    # sampling
    "CATEGORIES", "NEG", "POS", "STRATEGIES", "VOCABULARY", "Sample", "SampleSet",
    "batch_rng", "positive_enhancement", "sample_batches", "sample_dins",
    "sample_historical_baseline", "sample_negative_loops",
    "sample_random_baseline", "sample_sender_receiver", "sample_temporal",
    # split
    "MonthlySplit", "WindowSpec", "load_windows_file", "make_split",
    "monthly_schedule", "window_pairs",
    # evaluation
    "EVAL_CATEGORIES", "EVAL_NEGATIVE_CATEGORIES", "H_OFFSETS",
    "CategoryResult", "EvalReport", "MissingScoresError", "UndefinedMetricError", "auc", "build_eval_set", "build_eval_sets",
    "combined_index", "evaluate_sets",
    # scorers
    "SCORER_KINDS", "ScorerSpec", "make_scorer",
    # io
    "load_dataset", "load_graph", "read_samples_jsonl", "read_scores_jsonl",
    "read_split_dir", "sample_key", "sample_keys", "save_graph", "write_samples_jsonl",
    "write_scores_jsonl", "write_split_dir",
    # runner
    "average_ranks", "process_split", "run_experiment",
]
