"""Command-line interface.

Eight subcommands cover the pipeline end to end::

    ingest    CSV/TSV -> sorted, binned .npz graph cache
    stats     dataset statistics as JSON on stdout
    split     calendar-window train/val/test directories
    sample    negative-sampling strategies -> JSON-lines samples
    score     built-in heuristic scorers -> JSON-lines scores
    evaluate  category-wise AUC report for one split
    run       the full multi-split experiment pipeline
    report    reshape a run's outputs (json / csv / plotdata)

Every command exits 0 on success; failures print one JSON object
(``{"error", "message"}``) to stderr and exit nonzero. All randomness
derives from ``--seed``; reruns with identical inputs and flags produce
byte-identical outputs. The graph cache directory for ``ingest``
defaults to ``$DINS_CACHE_DIR`` (falling back to ``.dins_cache``).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from contextlib import nullcontext
from dataclasses import asdict
from pathlib import Path
from typing import Optional, Sequence

from . import __version__
from .config import (DEFAULT_BIN_WIDTH_SECONDS, DEFAULT_RECENCY_DECAY,
                     PipelineConfig, SamplerConfig)
from .evaluation import build_eval_sets, combined_index, eval_records, evaluate_sets
from .graph import DynamicGraph, stats as graph_stats
from .runner import run_experiment
from .sample_io import (atomic_open, cache_dir, load_dataset, read_json,
                        read_name_list, read_samples_jsonl, read_scores_jsonl,
                        read_split_dir, sample_key, save_graph, write_json,
                        write_registry_json, write_samples_jsonl, write_scores_jsonl,
                        write_split_dir)
from .sampling import STRATEGIES, Sample, sample_batches
from .scorers import SCORER_KINDS, ScorerSpec, make_scorer
from .split import load_windows_file, make_split, monthly_schedule, window_pairs

PROG = "dins"


def _columns(text: str) -> tuple[str, str, str]:
    parts = tuple(p.strip() for p in text.split(","))
    if len(parts) != 3 or not all(parts):
        raise argparse.ArgumentTypeError(
            "expected three comma-separated column names: src,dst,timestamp")
    return parts


def _strategies(text: str) -> tuple[str, ...]:
    parts = tuple(p.strip() for p in text.split(",") if p.strip())
    for p in parts:
        if p not in STRATEGIES:
            raise argparse.ArgumentTypeError(
                f"unknown strategy {p!r}; choose from {sorted(STRATEGIES)}")
    if not parts:
        raise argparse.ArgumentTypeError("empty strategy list")
    return parts


def _load_graph(path: str, args) -> DynamicGraph:
    drop = read_name_list(args.drop_users) if getattr(args, "drop_users", None) else ()
    return load_dataset(path,
                        bin_width_seconds=getattr(args, "bin_width",
                                                  DEFAULT_BIN_WIDTH_SECONDS),
                        columns=getattr(args, "columns", ("src", "dst", "timestamp")),
                        drop_names=drop,
                        min_month_edges=getattr(args, "min_month_edges", 0))


def _emit(obj) -> None:
    json.dump(obj, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


# -- subcommands --------------------------------------------------------------


def cmd_ingest(args) -> int:
    graph = _load_graph(args.dataset, args)
    out = Path(args.out) if args.out else cache_dir() / (Path(args.dataset).stem + ".npz")
    save_graph(out, graph)
    _emit({"path": str(out), "n_nodes": graph.n, "n_edges": graph.m,
           "bin_width_seconds": graph.bin_width_seconds})
    return 0


def cmd_stats(args) -> int:
    graph = _load_graph(args.dataset, args)
    _emit(asdict(graph_stats(graph)))
    return 0


def cmd_split(args) -> int:
    graph = _load_graph(args.dataset, args)
    if args.windows == "monthly":
        schedule = monthly_schedule(graph)
    else:
        schedule = monthly_schedule(graph, custom_windows=load_windows_file(args.windows))
    pairs = window_pairs(schedule)
    if not pairs:
        raise ValueError("need at least two windows to form a (train, eval) pair")
    out_dir = Path(args.out_dir)
    written = []
    for train_w, eval_w in pairs:
        try:
            split = make_split(graph, train_w, eval_w, val_fraction=args.val_fraction)
        except ValueError as exc:
            written.append({"label": train_w.label, "skipped": str(exc)})
            continue
        d = out_dir / train_w.label
        write_split_dir(d, split)
        written.append({"label": train_w.label, "dir": str(d),
                        "train": split.train.m, "validation": len(split.val),
                        "test": len(split.test), "dropped": split.dropped_count})
    _emit({"out_dir": str(out_dir), "splits": written})
    return 0


def cmd_sample(args) -> int:
    graph = _load_graph(args.dataset, args)
    config = SamplerConfig(q=args.q, t_f=args.tf, k=args.batch_size,
                           seed=args.seed)
    stream = sample_batches(graph, args.strategy, config,
                            pool_mode=args.loop_pool,
                            include_positives=not args.negatives_only)
    out = Path(args.out)
    result = write_samples_jsonl(out, stream, with_keys=args.with_keys)
    sidecar_base = out.parent / out.stem
    write_registry_json(Path(f"{sidecar_base}.nodes.json"), graph.registry)
    meta = {"dataset": args.dataset, "strategy": args.strategy,
            "loop_pool": args.loop_pool,
            "config": {"q": config.q, "t_f": config.t_f, "k": config.k,
                       "seed": config.seed}, **result}
    write_json(Path(f"{sidecar_base}.meta.json"), meta)
    _emit({"path": str(out), **result})
    return 0


def cmd_score(args) -> int:
    spec = ScorerSpec(kind=args.scorer, lam=args.decay, seed=args.seed)
    index = None
    if spec.kind in ("memory", "recency"):
        if not args.train:
            raise ValueError(f"scorer {spec.kind!r} needs --train "
                             "(training edges define its history)")
        index = _load_graph(args.train, args).history
    scorer = make_scorer(spec, index=index)
    records = read_samples_jsonl(args.samples)
    scores: dict[str, float] = {}
    for rec in records:
        s = Sample(int(rec["src"]), int(rec["dst"]), int(rec["t"]),
                   str(rec["label"]), str(rec["category"]))
        key = rec.get("key") or sample_key(s.src, s.dst, s.t, s.category)
        scores[str(key)] = scorer(s)
    write_scores_jsonl(args.out, scores)
    _emit({"path": args.out, "n_scores": len(scores), "scorer": spec.kind})
    return 0


def cmd_evaluate(args) -> int:
    split = read_split_dir(args.split_dir)
    if len(split.test) == 0:
        raise ValueError(f"{args.split_dir}: split has no test edges")
    index = combined_index(split.train, split.val, split.test)
    sets = build_eval_sets(split.test, split.train, index, args.seed,
                           loop_eval=args.loop_eval)
    if args.export:
        with atomic_open(args.export) as fh:
            for rec in eval_records(split.test, sets):
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
    if args.scores:
        scorer = read_scores_jsonl(args.scores)
        strategy = args.strategy_label or "external"
    else:
        spec = ScorerSpec(kind=args.scorer, lam=args.decay, seed=args.scorer_seed)
        index_train = split.train.history if spec.kind in ("memory", "recency") else None
        scorer = make_scorer(spec, index=index_train)
        strategy = args.strategy_label or args.scorer
    report = evaluate_sets(split.test, sets, scorer, args.seed,
                           split_label=split.label, strategy=strategy)
    payload = report.to_dict()
    if args.out:
        write_json(args.out, payload)
    _emit(payload)
    return 0


def _pipeline_config(args) -> PipelineConfig:
    if args.config:
        if args.dataset:
            raise ValueError("give either a dataset argument or --config, not both")
        return PipelineConfig.from_dict(read_json(args.config))
    if not args.dataset:
        raise ValueError("a dataset path (or --config) is required")
    return PipelineConfig(
        dataset=args.dataset, bin_width_seconds=args.bin_width,
        batch_size=args.batch_size, q=args.q, t_f=args.tf, seed=args.seed,
        windows=args.windows, val_fraction=args.val_fraction,
        loop_pool=args.loop_pool, loop_eval=args.loop_eval,
        strategies=args.strategies, scorer=args.scorer,
        scorer_lambda=args.decay, scorer_seed=args.scorer_seed,
        scores_dir=args.scores_dir, columns=args.columns,
        drop_users=args.drop_users, min_month_edges=args.min_month_edges)


def cmd_run(args) -> int:
    config = _pipeline_config(args)
    summary = run_experiment(config, args.out_dir, jobs=args.jobs)
    statuses = {o["label"]: o["status"] for o in summary["splits"]}
    _emit({"out_dir": args.out_dir, "n_splits": len(summary["splits"]),
           "statuses": statuses, "rank_summary": summary["rank_summary"]})
    return 0


def _report_rows(summary: dict):
    for outcome in summary["splits"]:
        for strategy, report in outcome.get("reports", {}).items():
            for category, res in report["categories"].items():
                yield (outcome["label"], strategy, category, res["auc"],
                       res["n_pos"], res["n_neg"], res["shortfall"])


def cmd_report(args) -> int:
    summary = read_json(Path(args.run_dir) / "summary.json")
    with atomic_open(args.out) if args.out else nullcontext(sys.stdout) as sink:
        if args.format == "json":
            json.dump(summary, sink, indent=2, sort_keys=True)
            sink.write("\n")
        elif args.format == "csv":
            w = csv.writer(sink, lineterminator="\n")
            w.writerow(["split", "strategy", "category", "auc",
                        "n_pos", "n_neg", "shortfall"])
            for row in _report_rows(summary):
                w.writerow(row)
        else:  # plotdata: long-form rows for grouped-bar charts
            w = csv.writer(sink, lineterminator="\n")
            w.writerow(["month", "category", "strategy", "auc"])
            for label, strategy, category, auc_val, *_ in _report_rows(summary):
                w.writerow([label, category, strategy, auc_val])
    return 0


# -- parser -------------------------------------------------------------------


def _add_csv_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument("--bin-width", type=int, default=DEFAULT_BIN_WIDTH_SECONDS,
                   metavar="SECONDS", help="time-bin width (default 300 = 5 min)")
    p.add_argument("--columns", type=_columns, default=("src", "dst", "timestamp"),
                   metavar="SRC,DST,TS", help="CSV header names to read")
    p.add_argument("--drop-users", metavar="FILE",
                   help="file of node names to drop (one per line)")
    p.add_argument("--min-month-edges", type=int, default=0, metavar="N",
                   help="drop UTC months with fewer than N edges")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog=PROG, description="Domain-informed negative sampling for "
                               "continuous-time dynamic graphs.")
    ap.add_argument("--version", action="version", version=f"{PROG} {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse, bin, sort and cache a dataset")
    p.add_argument("dataset", help="edge CSV/TSV (or .npz to re-cache)")
    p.add_argument("--out", metavar="FILE.npz",
                   help="cache path (default: $DINS_CACHE_DIR/<stem>.npz)")
    _add_csv_opts(p)
    p.set_defaults(fn=cmd_ingest)

    p = sub.add_parser("stats", help="dataset statistics as JSON")
    p.add_argument("dataset", help="edge CSV/TSV or .npz cache")
    _add_csv_opts(p)
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser("split", help="write chronological train/val/test splits")
    p.add_argument("dataset", help="edge CSV/TSV or .npz cache")
    p.add_argument("--windows", default="monthly", metavar="monthly|FILE.json",
                   help="window schedule (default: UTC calendar months)")
    p.add_argument("--val-fraction", type=float, default=0.5, metavar="F",
                   help="leading fraction of each eval window used for validation")
    p.add_argument("--out-dir", required=True, metavar="DIR")
    _add_csv_opts(p)
    p.set_defaults(fn=cmd_split)

    p = sub.add_parser("sample", help="draw negative samples for training")
    p.add_argument("dataset", help="edge CSV/TSV or .npz cache (training edges)")
    p.add_argument("--strategy", required=True, choices=sorted(STRATEGIES))
    p.add_argument("--q", type=int, default=5, help="future-time negatives per positive")
    p.add_argument("--tf", type=int, default=288, metavar="BINS",
                   help="future horizon in bins (default 288 = 24h)")
    p.add_argument("--batch-size", type=int, default=1000, metavar="K")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--loop-pool", choices=("batch", "per-t"), default="batch",
                   help="candidate pool for negative loops")
    p.add_argument("--with-keys", action="store_true",
                   help="add a stable 'key' field to every sample")
    p.add_argument("--negatives-only", action="store_true",
                   help="omit the observed positive edges from the output")
    p.add_argument("--out", required=True, metavar="FILE.jsonl")
    _add_csv_opts(p)
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("score", help="score a samples file with a heuristic scorer")
    p.add_argument("--scorer", required=True, choices=SCORER_KINDS)
    p.add_argument("--lambda", dest="decay", type=float,
                   default=DEFAULT_RECENCY_DECAY, metavar="RATE",
                   help="recency decay per bin (default ln2/72)")
    p.add_argument("--seed", type=int, default=0, help="seed for the random scorer")
    p.add_argument("--samples", required=True, metavar="IN.jsonl")
    p.add_argument("--train", metavar="DATASET",
                   help="training edges (required for memory/recency)")
    p.add_argument("--out", required=True, metavar="OUT.jsonl")
    _add_csv_opts(p)
    p.set_defaults(fn=cmd_score)

    p = sub.add_parser("evaluate", help="category-wise AUC report for one split")
    p.add_argument("--split-dir", required=True, metavar="DIR",
                   help="directory written by 'split' (train/val/test)")
    p.add_argument("--scorer", choices=SCORER_KINDS, default="memory")
    p.add_argument("--scores", metavar="FILE.jsonl",
                   help="externally computed scores (overrides --scorer)")
    p.add_argument("--lambda", dest="decay", type=float,
                   default=DEFAULT_RECENCY_DECAY, metavar="RATE")
    p.add_argument("--scorer-seed", type=int, default=0)
    p.add_argument("--seed", type=int, default=0, help="negative-draw seed")
    p.add_argument("--loop-eval", choices=("per-positive", "per-timestamp"),
                   default="per-positive")
    p.add_argument("--strategy-label", metavar="NAME",
                   help="strategy name recorded in the report")
    p.add_argument("--export", metavar="FILE.jsonl",
                   help="also write the keyed evaluation samples")
    p.add_argument("--out", metavar="REPORT.json")
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("run", help="full pipeline over all monthly splits")
    p.add_argument("dataset", nargs="?", help="edge CSV/TSV or .npz cache")
    p.add_argument("--config", metavar="FILE.json",
                   help="load a full pipeline config instead of flags")
    p.add_argument("--out-dir", required=True, metavar="DIR")
    p.add_argument("--strategies", type=_strategies, default=("dins",),
                   metavar="A,B,...", help="comma-separated strategy list")
    p.add_argument("--windows", default="monthly", metavar="monthly|FILE.json")
    p.add_argument("--val-fraction", type=float, default=0.5, metavar="F")
    p.add_argument("--q", type=int, default=5)
    p.add_argument("--tf", type=int, default=288, metavar="BINS")
    p.add_argument("--batch-size", type=int, default=1000, metavar="K")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--loop-pool", choices=("batch", "per-t"), default="batch")
    p.add_argument("--loop-eval", choices=("per-positive", "per-timestamp"),
                   default="per-positive")
    p.add_argument("--scorer", choices=SCORER_KINDS, default="memory")
    p.add_argument("--lambda", dest="decay", type=float,
                   default=DEFAULT_RECENCY_DECAY, metavar="RATE")
    p.add_argument("--scorer-seed", type=int, default=0)
    p.add_argument("--scores-dir", metavar="DIR",
                   help="directory of externally computed score files")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="process splits with N parallel workers")
    _add_csv_opts(p)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("report", help="reshape a run directory's results")
    p.add_argument("--run-dir", required=True, metavar="DIR")
    p.add_argument("--format", choices=("json", "csv", "plotdata"),
                   default="json")
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(fn=cmd_report)
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        return 0
    except Exception as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc)},
                  sys.stderr, sort_keys=True)
        sys.stderr.write("\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
