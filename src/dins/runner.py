"""End-to-end experiment pipeline over monthly transductive splits.

For every consecutive (train month, eval month) pair the runner writes
one directory containing the split's edge files, the training samples
of each requested negative-sampling strategy, the shared evaluation
samples, and a per-strategy report of category-wise AUCs. A final
``summary.json`` aggregates the per-split Overall AUCs into average
ranks across strategies (rank 1 = best, ties share the mean rank).

Sampling and evaluation both use the configured seed directly, so a
standalone ``dins sample`` / ``dins evaluate`` invocation with the same
seed on a split's files reproduces the runner's outputs byte for byte.

Splits are independent, so ``jobs > 1`` fans them out to worker
processes; each worker takes the parent's graph and writes its own split
directories, with the same bytes as the serial run.
"""

from __future__ import annotations

import traceback
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Optional

import numpy as np

from .config import PipelineConfig
from .evaluation import (build_eval_sets, combined_index, eval_records,
                         evaluate_sets, midranks)
from .graph import DynamicGraph
from .sample_io import (atomic_open, eval_lines, load_dataset, read_name_list,
                        read_scores_jsonl, write_json, write_samples_jsonl,
                        write_split_dir)
from .sampling import sample_batches
from .scorers import make_scorer
from .split import load_windows_file, make_split, monthly_schedule, window_pairs

__all__ = ["run_experiment", "process_split", "average_ranks", "load_configured",
           "window_schedule"]


def load_configured(config: PipelineConfig) -> DynamicGraph:
    """Load ``config.dataset`` with the configured ingest settings."""
    drop = read_name_list(config.drop_users) if config.drop_users else ()
    return load_dataset(config.dataset,
                        bin_width_seconds=config.bin_width_seconds,
                        columns=config.columns, drop_names=drop,
                        min_month_edges=config.min_month_edges)


def window_schedule(graph: DynamicGraph, windows: str):
    """The schedule named by ``windows`` and its (train, eval) pairs."""
    custom = None if windows == "monthly" else load_windows_file(windows)
    schedule = monthly_schedule(graph, custom_windows=custom)
    pairs = window_pairs(schedule)
    if not pairs:
        raise ValueError("need at least two windows to form a "
                         "(train, evaluate) pair")
    return schedule, pairs


def _external_scores(scores_dir: str, label: str, strategy: str) -> dict[str, float]:
    base = Path(scores_dir)
    for candidate in (base / label / f"{strategy}.jsonl",
                      base / f"{label}_{strategy}.jsonl",
                      base / f"{label}.jsonl"):
        if candidate.is_file():
            return read_scores_jsonl(candidate)
    raise FileNotFoundError(
        f"no score file for split {label!r} / strategy {strategy!r} under "
        f"{scores_dir} (looked for {label}/{strategy}.jsonl, "
        f"{label}_{strategy}.jsonl, {label}.jsonl)")


def process_split(graph: DynamicGraph, config: PipelineConfig,
                  train_window, eval_window, split_dir: Path) -> dict:
    """Run one (train, eval) window pair and write all of its files."""
    label = train_window.label
    outcome: dict = {"label": label, "train_window": train_window.to_dict(),
                     "eval_window": eval_window.to_dict(), "status": "ok",
                     "strategies": {}, "reports": {}}
    try:
        split = make_split(graph, train_window, eval_window,
                           val_fraction=config.val_fraction)
        split_dir.mkdir(parents=True, exist_ok=True)
        write_split_dir(split_dir, split)
        outcome["counts"] = {"train": split.train.m, "validation": len(split.val),
                             "test": len(split.test), "dropped": split.dropped_count}
        if len(split.test) == 0:
            raise ValueError("evaluation window yields no test positives")

        index = combined_index(split.train, split.val, split.test)
        sets = build_eval_sets(split.test, split.train, index, config.seed,
                               loop_eval=config.loop_eval)
        with atomic_open(split_dir / "eval_samples.jsonl", "w") as fh:
            fh.write(eval_lines(eval_records(split.test, sets)))
    except Exception as exc:  # split-level failure: report and move on
        outcome["status"] = "error"
        outcome["error"] = f"{type(exc).__name__}: {exc}"
        outcome["trace"] = traceback.format_exc(limit=5)
        return outcome

    sampler_cfg = config.sampler()
    for strategy in config.strategies:
        try:
            stream = sample_batches(split.train, strategy, sampler_cfg,
                                    pool_mode=config.loop_pool,
                                    include_positives=True)
            stats = write_samples_jsonl(split_dir / f"samples_{strategy}.jsonl",
                                        stream, with_keys=False)
            outcome["strategies"][strategy] = stats

            if config.scores_dir:
                scorer = _external_scores(config.scores_dir, label, strategy)
            else:
                scorer = make_scorer(config.scorer_spec(), index=split.train.history)
            report = evaluate_sets(split.test, sets, scorer, config.seed,
                                   split_label=label, strategy=strategy)
            write_json(split_dir / f"report_{strategy}.json", report.to_dict())
            outcome["reports"][strategy] = report.to_dict()
        except Exception as exc:
            outcome["strategies"][strategy] = {
                "error": f"{type(exc).__name__}: {exc}"}
            outcome["status"] = "partial"
    return outcome


def average_ranks(outcomes: list[dict], strategies: tuple[str, ...]) -> dict:
    """Mean rank per strategy over splits where every strategy reported.

    Ranks within a split order strategies by Overall AUC (highest =
    rank 1) with ties sharing the mean rank; the mean is then taken
    across qualifying splits.
    """
    usable = [o for o in outcomes
              if all(s in o.get("reports", {}) for s in strategies)]
    if not usable or not strategies:
        return {"ranks": {s: None for s in strategies}, "n_splits": 0}
    totals = np.zeros(len(strategies))
    for o in usable:
        aucs = np.array([o["reports"][s]["categories"]["overall"]["auc"]
                         for s in strategies])
        totals += midranks(-aucs)     # rank 1 is the highest AUC
    means = totals / len(usable)
    return {"ranks": {s: float(r) for s, r in zip(strategies, means)},
            "n_splits": len(usable)}


# -- worker-process plumbing --------------------------------------------------

_WORKER: dict = {}


def _worker_init(graph: DynamicGraph, config: PipelineConfig, out_dir: Path) -> None:
    _WORKER.update(graph=graph, config=config, out_dir=out_dir)


def _worker_run(train_window, eval_window) -> dict:
    config, out_dir = _WORKER["config"], _WORKER["out_dir"]
    return process_split(_WORKER["graph"], config, train_window, eval_window,
                         out_dir / "splits" / train_window.label)


def run_experiment(config: PipelineConfig, out_dir: str | Path, *,
                   jobs: int = 1,
                   graph: Optional[DynamicGraph] = None) -> dict:
    """Execute the full pipeline; returns the written summary dict."""
    if graph is None:
        graph = load_configured(config)
    schedule, pairs = window_schedule(graph, config.windows)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "config.json", config.to_dict())

    if jobs > 1 and len(pairs) > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(pairs)),
                                 initializer=_worker_init,
                                 initargs=(graph, config, out)) as pool:
            outcomes = list(pool.map(_worker_run,
                                     [p[0] for p in pairs],
                                     [p[1] for p in pairs]))
    else:
        outcomes = [process_split(graph, config, tw, ew,
                                  out / "splits" / tw.label)
                    for tw, ew in pairs]

    summary = {
        "config": config.to_dict(),
        "n_windows": len(schedule),
        "splits": outcomes,
        "rank_summary": average_ranks(outcomes, config.strategies),
    }
    write_json(out / "summary.json", summary)
    return summary
