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
from dataclasses import asdict, fields
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .config import SCORER_KINDS, VALID_LOOP_EVAL, VALID_LOOP_POOL, PipelineConfig
from .evaluation import build_eval_sets, combined_index, eval_records, evaluate_sets
from .graph import stats as graph_stats
from .runner import load_configured, run_experiment, window_schedule
from .sample_io import (atomic_open, cache_dir, eval_lines, read_json,
                        read_samples_jsonl, read_scores_jsonl, read_split_dir,
                        sample_keys, save_graph, write_json, write_registry_json,
                        write_samples_jsonl, write_scores_jsonl, write_split_dir)
from .sampling import STRATEGIES, sample_batches
from .scorers import make_scorer
from .split import make_split

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


def _config(args) -> PipelineConfig:
    """The checked config of the parsed flags that set its fields."""
    return PipelineConfig.from_dict({k: v for k, v in vars(args).items() if k in _DEFAULTS})


def _emit(obj) -> None:
    json.dump(obj, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


# -- subcommands --------------------------------------------------------------


def cmd_ingest(args) -> int:
    graph = load_configured(_config(args))
    out = Path(args.out) if args.out else cache_dir() / (Path(args.dataset).stem + ".npz")
    save_graph(out, graph)
    _emit({"path": str(out), "n_nodes": graph.n, "n_edges": graph.m,
           "bin_width_seconds": graph.bin_width_seconds})
    return 0


def cmd_stats(args) -> int:
    graph = load_configured(_config(args))
    _emit(asdict(graph_stats(graph)))
    return 0


def cmd_split(args) -> int:
    config = _config(args)
    graph = load_configured(config)
    _, pairs = window_schedule(graph, config.windows)
    out_dir = Path(args.out_dir)
    written = []
    for train_w, eval_w in pairs:
        try:
            split = make_split(graph, train_w, eval_w, val_fraction=config.val_fraction)
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
    config = _config(args)
    graph = load_configured(config)
    sampler = config.sampler()
    stream = sample_batches(graph, args.strategy, sampler,
                            pool_mode=config.loop_pool,
                            include_positives=not args.negatives_only)
    out = Path(args.out)
    result = write_samples_jsonl(out, stream, with_keys=args.with_keys)
    sidecar_base = out.parent / out.stem
    write_registry_json(Path(f"{sidecar_base}.nodes.json"), graph.registry)
    meta = {"dataset": args.dataset, "strategy": args.strategy,
            "loop_pool": config.loop_pool,
            "config": {"q": sampler.q, "t_f": sampler.t_f, "k": sampler.k,
                       "seed": sampler.seed}, **result}
    write_json(Path(f"{sidecar_base}.meta.json"), meta)
    _emit({"path": str(out), **result})
    return 0


def cmd_score(args) -> int:
    config = _config(args)
    spec = config.scorer_spec()
    index = None
    if spec.kind in ("memory", "recency"):
        if not config.dataset:
            raise ValueError(f"scorer {spec.kind!r} needs --train "
                             "(training edges define its history)")
        index = load_configured(config).history
    scorer = make_scorer(spec, index=index)
    records = read_samples_jsonl(args.samples_file)
    src, dst, t = (np.array([rec[f] for rec in records], dtype=np.int64)
                   for f in ("src", "dst", "t"))
    category = np.array([str(rec["category"]) for rec in records], dtype=object)
    names, code = np.unique(category, return_inverse=True)
    keys = sample_keys(src, dst, t, code, names.tolist())
    scores: dict[str, float] = {}
    for rec, key, score in zip(records, keys, scorer(src, dst, t, category).tolist()):
        scores[str(rec.get("key") or key)] = score
    write_scores_jsonl(args.out, scores)
    _emit({"path": args.out, "n_scores": len(scores), "scorer": spec.kind})
    return 0


def cmd_evaluate(args) -> int:
    config = _config(args)
    spec = config.scorer_spec()
    split = read_split_dir(args.split_dir)
    if len(split.test) == 0:
        raise ValueError(f"{args.split_dir}: split has no test edges")
    index = combined_index(split.train, split.val, split.test)
    sets = build_eval_sets(split.test, split.train, index, config.seed,
                           loop_eval=config.loop_eval)
    if args.export:
        with atomic_open(args.export) as fh:
            fh.write(eval_lines(eval_records(split.test, sets)))
    if args.scores:
        scorer = read_scores_jsonl(args.scores)
        strategy = args.strategy_label or "external"
    else:
        index_train = split.train.history if spec.kind in ("memory", "recency") else None
        scorer = make_scorer(spec, index=index_train)
        strategy = args.strategy_label or spec.kind
    report = evaluate_sets(split.test, sets, scorer, config.seed,
                           split_label=split.label, strategy=strategy)
    payload = report.to_dict()
    if args.out:
        write_json(args.out, payload)
    _emit(payload)
    return 0


def cmd_run(args) -> int:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    if args.config and args.dataset:
        raise ValueError("give either a dataset argument or --config, not both")
    if not (args.config or args.dataset):
        raise ValueError("a dataset path (or --config) is required")
    config = PipelineConfig.from_dict(read_json(args.config)) if args.config else _config(args)
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


_DEFAULTS = {f.name: f.default for f in fields(PipelineConfig)}

# Flags that set a PipelineConfig field: each dest is the field's name
# (the flag's own name unless given) and each default the field's default.
_OPTIONS = {
    "--bin-width": dict(dest="bin_width_seconds", type=int, metavar="SECONDS",
                        help="time-bin width in seconds (default %(default)s)"),
    "--columns": dict(type=_columns, metavar="SRC,DST,TS",
                      help="CSV header names to read"),
    "--drop-users": dict(metavar="FILE", help="file of node names to drop (one per line)"),
    "--min-month-edges": dict(type=int, metavar="N",
                              help="drop UTC months with fewer than N edges"),
    "--windows": dict(metavar="monthly|FILE.json",
                      help="window schedule (default: UTC calendar months)"),
    "--val-fraction": dict(type=float, metavar="F", help="leading fraction of each "
                           "eval window used for validation"),
    "--strategies": dict(type=_strategies, metavar="A,B,...",
                         help="comma-separated strategy list"),
    "--q": dict(type=int, help="future-time negatives per positive"),
    "--tf": dict(dest="t_f", type=int, metavar="BINS",
                 help="future horizon in bins (default %(default)s)"),
    "--batch-size": dict(type=int, metavar="K"),
    "--seed": dict(type=int, help="seed of the negative draws"),
    "--loop-pool": dict(choices=VALID_LOOP_POOL, help="candidate pool for negative loops"),
    "--loop-eval": dict(choices=VALID_LOOP_EVAL),
    "--scorer": dict(choices=SCORER_KINDS),
    "--lambda": dict(dest="scorer_lambda", type=float, metavar="RATE",
                     help="recency decay per bin (default %(default).4g)"),
    "--scorer-seed": dict(type=int, help="seed for the random scorer"),
    "--scores-dir": dict(metavar="DIR", help="directory of externally computed score files"),
}
_CSV = ("--bin-width", "--columns", "--drop-users", "--min-month-edges")
_SPLIT = ("--windows", "--val-fraction")
_SAMPLER = ("--q", "--tf", "--batch-size", "--seed", "--loop-pool")
_SCORER = ("--scorer", "--lambda", "--scorer-seed")


def _add_options(p: argparse.ArgumentParser, *flags: str) -> None:
    for flag in flags:
        kw = {"dest": flag[2:].replace("-", "_"), **_OPTIONS[flag]}
        p.add_argument(flag, default=_DEFAULTS[kw["dest"]], **kw)


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
    _add_options(p, *_CSV)
    p.set_defaults(fn=cmd_ingest)

    p = sub.add_parser("stats", help="dataset statistics as JSON")
    p.add_argument("dataset", help="edge CSV/TSV or .npz cache")
    _add_options(p, *_CSV)
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser("split", help="write chronological train/val/test splits")
    p.add_argument("dataset", help="edge CSV/TSV or .npz cache")
    p.add_argument("--out-dir", required=True, metavar="DIR")
    _add_options(p, *_SPLIT, *_CSV)
    p.set_defaults(fn=cmd_split)

    p = sub.add_parser("sample", help="draw negative samples for training")
    p.add_argument("dataset", help="edge CSV/TSV or .npz cache (training edges)")
    p.add_argument("--strategy", required=True, choices=sorted(STRATEGIES))
    p.add_argument("--with-keys", action="store_true",
                   help="add a stable 'key' field to every sample")
    p.add_argument("--negatives-only", action="store_true",
                   help="omit the observed positive edges from the output")
    p.add_argument("--out", required=True, metavar="FILE.jsonl")
    _add_options(p, *_SAMPLER, *_CSV)
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("score", help="score a samples file with a heuristic scorer")
    p.add_argument("--scorer", required=True, choices=SCORER_KINDS)
    p.add_argument("--seed", dest="scorer_seed", type=int, default=_DEFAULTS["scorer_seed"],
                   metavar="SEED", help="seed for the random scorer")
    p.add_argument("--samples", dest="samples_file", required=True, metavar="IN.jsonl")
    p.add_argument("--train", dest="dataset", metavar="DATASET",
                   help="training edges (required for memory/recency)")
    p.add_argument("--out", required=True, metavar="OUT.jsonl")
    _add_options(p, "--lambda", *_CSV)
    p.set_defaults(fn=cmd_score)

    p = sub.add_parser("evaluate", help="category-wise AUC report for one split")
    p.add_argument("--split-dir", required=True, metavar="DIR",
                   help="directory written by 'split' (train/val/test)")
    p.add_argument("--scores", metavar="FILE.jsonl",
                   help="externally computed scores (overrides --scorer)")
    p.add_argument("--strategy-label", metavar="NAME",
                   help="strategy name recorded in the report")
    p.add_argument("--export", metavar="FILE.jsonl",
                   help="also write the keyed evaluation samples")
    p.add_argument("--out", metavar="REPORT.json")
    _add_options(p, *_SCORER, "--seed", "--loop-eval")
    p.set_defaults(fn=cmd_evaluate, dataset=None)      # it reads a split directory

    p = sub.add_parser("run", help="full pipeline over all monthly splits")
    p.add_argument("dataset", nargs="?", help="edge CSV/TSV or .npz cache")
    p.add_argument("--config", metavar="FILE.json",
                   help="load a full pipeline config instead of flags")
    p.add_argument("--out-dir", required=True, metavar="DIR")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="process splits with N parallel workers")
    _add_options(p, "--strategies", *_SPLIT, *_SAMPLER, "--loop-eval", *_SCORER,
                 "--scores-dir", *_CSV)
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
