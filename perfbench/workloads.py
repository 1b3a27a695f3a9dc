"""The four benchmark workloads.

Each workload makes its inputs from the seed with ``dins.synthetic``,
sets up the way a user would (ingest, graph build, index warm-up), runs
one closed-loop operation at a time, and checks every output. dins
receives only the generated files or arrays.

Interface of a workload object:

* ``generate(seed)`` makes the inputs; not part of ``setup_s``.
* ``setup(inputs)`` is timed as ``setup_s`` and repeated ``setup_reps``
  times; the state of the last repetition is used.
* ``prepare(state, seed)`` does untimed work that needs the set-up and
  lists what is wrong with it: the external score file and reference
  report, or, for the sampling workloads, a reference pass over the
  stream that checks the per-batch cardinality identities, digests the
  emitted columns into ``stream_digest`` and keeps a fingerprint of
  every batch.
* ``operation(state, i, tracer, probe)`` is one timed operation; it
  returns a dict with at least ``samples``.
* ``check(state, result)`` lists what is wrong with one operation's
  output; for the sampling workloads, where its batches differ from the
  reference pass's. ``digest(state, result)`` is the sha256 of its
  artifacts, and removes any the operation wrote.
* ``targets()`` names the dins attributes a traced operation wraps, and
  ``layers`` the per-layer time metrics the workload should fire.

All paths are relative: the caller runs a workload inside its own work
directory, so digests do not depend on where the checkout lives.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import shutil
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

import dins.cli
import dins.runner
import dins.sample_io
from dins import (PipelineConfig, SamplerConfig, build_eval_sets, build_graph,
                  combined_index, make_split, monthly_schedule, sample_batches,
                  window_pairs)
from dins.evaluation import eval_records, evaluate_sets
from dins.graph import DynamicGraph, batches
from dins.sample_io import atomic_open, save_graph, write_split_dir
from dins.sampling import (NEGATIVE_LOOP, OBSERVED, POS, POSITIVE_ENHANCEMENT,
                           RANDOM_RECEIVER, RANDOM_SENDER, TEMPORAL)
from dins.synthetic import multi_month_records, random_graph, random_records

from spans import Tracer, traced_stream

Q = 5

# -- shared checks ------------------------------------------------------------


def tree_digest(paths) -> str:
    """sha256 over (path, bytes) of every file under ``paths``; a file
    inside a directory argument is named relative to that directory."""
    h = hashlib.sha256()
    for p in map(Path, paths):
        files = sorted(f for f in p.rglob("*") if f.is_file()) if p.is_dir() else [p]
        for f in files:
            name = f.relative_to(p) if p.is_dir() else f
            h.update(name.as_posix().encode() + b"\0")
            h.update(f.read_bytes())
    return h.hexdigest()


def update_stream_digest(h, ss) -> None:
    """Fold one SampleSet's (src, dst, t, category) columns into ``h``."""
    h.update(b"batch %d\0" % ss.origin_batch)
    if ss.samples:
        src, dst, t, _label, cat = zip(*ss.samples)
        h.update(np.array((src, dst, t), dtype=np.int64).tobytes())
        h.update("\n".join(cat).encode())


def contract(strategy: str, batch, q: int, tallies) -> tuple[int, int]:
    """(contractual slots, tallied shortfall) of one batch's negatives."""
    if strategy == "dins":
        slots = (2 + q) * len(batch) + len(batch.timestamps)
        short = sum(int(tallies.get(k, 0)) for k in
                    ("sender_skipped", "receiver_skipped", "temporal_shortfall",
                     "loop_shortfall"))
        return slots, short
    if strategy == "random":
        return len(batch), int(tallies.get("skipped", 0))
    raise ValueError(f"no sampling contract recorded for {strategy!r}")


def batch_violations(ss, batch, q: int, k: int) -> int:
    """How many of acceptance 1's per-batch identities ``ss`` breaks."""
    c = Counter(s.category for s in ss.samples)
    t = ss.tallies
    kp = len(batch)
    checks = (
        c[RANDOM_SENDER] + t.get("sender_skipped", 0) == kp,
        c[RANDOM_RECEIVER] + t.get("receiver_skipped", 0) == kp,
        c[TEMPORAL] + t.get("temporal_shortfall", 0) == q * kp,
        c[NEGATIVE_LOOP] + t.get("loop_shortfall", 0) == len(batch.timestamps),
        c[POSITIVE_ENHANCEMENT] <= k,
    )
    return sum(not ok for ok in checks)


def fingerprint(ss) -> tuple:
    """A cheap identity of one emitted batch: its origin, size and first
    and last samples."""
    s = ss.samples
    return (ss.origin_batch, len(s), s[0] if s else None, s[-1] if s else None)


def pull(stream, batch_times: list, prints: list, probe) -> int:
    """Consume a sample stream, timing each ``next()`` without the speed
    probe's slices and keeping each batch's fingerprint; returns the
    number of samples."""
    n = 0
    while True:
        k = probe.mark() if probe is not None else 0
        t0 = perf_counter()
        ss = next(stream, None)
        dt = perf_counter() - t0
        if ss is None:
            return n
        batch_times.append(dt - (probe.taken(k) if probe is not None else 0.0))
        prints.append(fingerprint(ss))
        n += len(ss.samples)


def _count_batch(tracer: Tracer, ss) -> None:
    tracer.counts["sampling.batches"] += 1
    tracer.counts["sampling.samples"] += len(ss.samples)


def verify_streams(runs) -> tuple[list[str], str, float, list]:
    """Pull the ``(graph, config)`` dins streams once, untimed; returns
    the broken identities, the column digest, the shortfall rate and the
    batch fingerprints."""
    h = hashlib.sha256()
    violations = slots = short = n_batches = 0
    prints = []
    for graph, cfg in runs:
        blocks = batches(graph, cfg.k)
        for ss in sample_batches(graph, "dins", cfg):
            batch = blocks[ss.origin_batch]
            violations += batch_violations(ss, batch, cfg.q, cfg.k)
            s, f = contract("dins", batch, cfg.q, ss.tallies)
            slots += s
            short += f
            n_batches += 1
            update_stream_digest(h, ss)
            prints.append(fingerprint(ss))
    problems = ([f"{violations} cardinality identities broken over "
                 f"{n_batches} batches"] if violations else [])
    return problems, h.hexdigest(), short / max(slots, 1), prints


# -- workloads ---------------------------------------------------------------------


class Workload:
    name = ""
    setup_reps = 5
    min_ops = 1                 # operations a run makes however long they take
    stream_digest = None        # set by prepare() where the digest is the stream's
    layers: tuple[str, ...] = ()
    op_metric = "op_s"          # the printed name of this workload's op time
    per_batch = False           # whether batch_ms percentiles are reported

    def prepare(self, state, seed: int) -> list[str]:
        return []

    def check(self, state, result) -> list[str]:
        return []

    def digest(self, state, result):
        return None

    def targets(self) -> list[tuple]:
        return []

    def trace_extra(self, tracer: Tracer) -> dict:
        return {}


class SamplingWorkload(Workload):
    """Pulls dins sample streams batch by batch, as a training loop does."""

    layers = ("graph.index_s", "sampling.busy_s")
    per_batch = True

    def streams(self, state):
        """The ``(graph, SamplerConfig)`` pairs one operation samples, in order."""
        raise NotImplementedError

    def prepare(self, state, seed):
        problems, self.stream_digest, self.shortfall_rate, self.prints = \
            verify_streams(self.streams(state))
        return problems

    def operation(self, state, i, tracer, probe):
        times: list[float] = []
        prints: list[tuple] = []
        n = 0
        for g, cfg in self.streams(state):
            stream = sample_batches(g, "dins", cfg)
            if tracer is not None:
                stream = traced_stream(tracer, stream, "sampling.next", _count_batch)
            n += pull(stream, times, prints, probe)
        return {"samples": n, "batch_times": times, "prints": prints}

    def check(self, state, result):
        prints = result.pop("prints")
        if prints == self.prints:
            return []
        first = next((i for i, (a, b) in enumerate(zip(prints, self.prints)) if a != b),
                     min(len(prints), len(self.prints)))
        return [f"timed stream differs from the reference pass at batch {first} "
                f"({len(prints)} batches timed, {len(self.prints)} in the reference)"]

    def trace_extra(self, tracer):
        return {"shortfall_rate": self.shortfall_rate}


class SamplingSuite(SamplingWorkload):
    """Acceptance 1's 50-graph suite; one operation samples all of it."""

    name = "sampling-suite"
    setup_reps = 21
    op_metric = "suite_s"
    KS = (10, 100, 1000)
    SAMPLER_SEED = 1            # acceptance 1's sampler seed
    N_GRAPHS = 50
    SHAPE_SEED = 0              # acceptance 1's draws of the graph shapes

    def __init__(self):
        # Graph shapes are acceptance 1's draws, so every seed does the
        # same amount of work; the benchmark seed draws the edges.
        rng = np.random.default_rng(self.SHAPE_SEED)
        self.shapes = []
        for _ in range(self.N_GRAPHS):
            n = int(rng.integers(2, 501))
            m = int(rng.integers(1, 10_001))
            loops = float(rng.choice([0.0, 0.05, 0.3]))
            span = int(rng.integers(4, 600))
            self.shapes.append((n, m, loops, span))

    def generate(self, seed: int):
        return [random_records(n, m, seed=seed * 1000 + i, t_span_bins=span,
                               loop_fraction=loops)
                for i, (n, m, loops, span) in enumerate(self.shapes)]

    def setup(self, records):
        graphs = [build_graph(r) for r in records]
        for g in graphs:
            g.history
        return graphs

    def streams(self, graphs):
        for k in self.KS:
            cfg = SamplerConfig(k=k, q=Q, seed=self.SAMPLER_SEED)
            for g in graphs:
                yield g, cfg


class Stream1M(SamplingWorkload):
    """1000 dins batches of k=1000 pulled in order from a million-edge graph."""

    name = "stream-1m"
    setup_reps = 15
    op_metric = "stream_s"

    def __init__(self, n_nodes: int = 50_000, n_edges: int = 1_000_000):
        self.n_nodes, self.n_edges = n_nodes, n_edges
        self.config = SamplerConfig(k=1000, q=Q, seed=0)

    def generate(self, seed: int):
        return random_graph(self.n_nodes, self.n_edges, seed=seed)

    def setup(self, g):
        graph = DynamicGraph(g.registry, g.src, g.dst, g.t, g.raw,
                             g.bin_width_seconds, g.raw_anchor)
        graph.history
        return graph

    def streams(self, graph):
        return [(graph, self.config)]


def _count_records(tracer, args, kwargs, result) -> None:
    tracer.counts["sample_io.records"] += (result["n_samples"] if isinstance(result, dict)
                                           else len(result))


def _note_sampled(tracer, args, kwargs, ss) -> None:
    named = dict(zip(("graph", "strategy", "config"), args), **kwargs)
    graph, strategy, config = named["graph"], named["strategy"], named["config"]
    tracer.counts["sampling.batches"] += 1
    tracer.counts["sampling.samples"] += len(ss.samples)
    tracer.sampled.append((graph, strategy, config, ss.origin_batch, ss.tallies))


class YearPipeline(Workload):
    """The whole protocol: ``run_experiment`` over a 12-month CSV ingested to .npz."""

    name = "year-pipeline"
    setup_reps = 15
    min_ops = 2                 # so the artifact digest is compared within a run
    layers = ("graph.index_s", "sample_io.load_s", "sample_io.samples_write_s",
              "sample_io.eval_export_s", "sample_io.split_write_s", "split.make_s",
              "sampling.busy_s", "evaluation.eval_sets_s", "evaluation.eval_records_s",
              "evaluation.score_s", "evaluation.auc_s", "runner.self_s")
    op_metric = "run_s"
    STRATEGIES = ("dins", "random")
    N_NODES = 5000
    EDGES_PER_MONTH = 4000
    N_MONTHS = 12
    CONFIG = PipelineConfig(dataset="year.npz", scorer="memory", strategies=STRATEGIES)

    def generate(self, seed: int):
        records = multi_month_records(self.N_NODES, self.EDGES_PER_MONTH,
                                      self.N_MONTHS, seed=seed)
        with open("year.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["src", "dst", "timestamp"])
            w.writerows(records)
        return "year.csv"

    def setup(self, csv_path):
        save_graph(self.CONFIG.dataset, dins.sample_io.load_dataset(csv_path))
        return self.CONFIG

    def operation(self, config, i, tracer, probe):
        out = Path(f"run{i}")
        summary = dins.runner.run_experiment(config, out, jobs=1)
        samples = sum(s.get("n_samples", 0) for o in summary["splits"]
                      for s in o["strategies"].values())
        return {"samples": samples, "summary": summary, "dir": out}

    def check(self, config, result):
        problems = []
        splits = result["summary"]["splits"]
        if len(splits) != self.N_MONTHS - 1:
            problems.append(f"{len(splits)} splits, expected {self.N_MONTHS - 1}")
        for o in splits:
            if o["status"] != "ok":
                problems.append(f"split {o['label']}: status {o['status']}")
            for strategy in self.STRATEGIES:
                report = o["reports"].get(strategy)
                if report is None:
                    problems.append(f"split {o['label']}: no {strategy} report")
                    continue
                for cat, res in report["categories"].items():
                    if not 0.0 <= res["auc"] <= 1.0:
                        problems.append(f"split {o['label']} {strategy} {cat}: "
                                        f"AUC {res['auc']}")
        return problems

    def digest(self, config, result):
        out = result["dir"]
        result["bytes"] = sum(f.stat().st_size for f in out.rglob("*") if f.is_file())
        digest = tree_digest([out])
        shutil.rmtree(out)
        return digest

    def targets(self):
        return [
            ("dins.runner", "run_experiment", "runner.run_experiment", "call"),
            ("dins.runner", "process_split", "runner.process_split", "call"),
            ("dins.runner", "average_ranks", "runner.average_ranks", "call"),
            ("dins.runner", "load_dataset", "sample_io.load_dataset", "call"),
            ("dins.runner", "monthly_schedule", "split.monthly_schedule", "call"),
            ("dins.runner", "window_pairs", "split.window_pairs", "call"),
            ("dins.runner", "make_split", "split.make_split", "call"),
            ("dins.runner", "write_split_dir", "sample_io.write_split_dir", "call"),
            ("dins.runner", "combined_index", "evaluation.combined_index", "call"),
            ("dins.runner", "build_eval_sets", "evaluation.build_eval_sets", "call"),
            ("dins.runner", "atomic_open", "sample_io.atomic_open", "context"),
            ("dins.runner", "eval_records", "evaluation.eval_records", "call",
             _count_records),
            ("dins.runner", "sample_batches", "sampling.sample_batches", "generator",
             _note_sampled),
            ("dins.runner", "write_samples_jsonl", "sample_io.write_samples_jsonl",
             "call", _count_records),
            ("dins.runner", "make_scorer", "scorers.make_scorer", "call"),
            ("dins.runner", "evaluate_sets", "evaluation.evaluate_sets", "call"),
            ("dins.runner", "write_json", "sample_io.write_json", "call"),
            ("dins.evaluation", "auc", "evaluation.auc", "call"),
        ] + INDEX_TARGETS

    def trace_extra(self, tracer):
        slots = short = 0
        blocks: dict = {}
        for graph, strategy, config, origin, tallies in tracer.sampled:
            key = (id(graph), config.k)
            if key not in blocks:
                blocks[key] = batches(graph, config.k)
            s, f = contract(strategy, blocks[key][origin], config.q, tallies)
            slots += s
            short += f
        tracer.sampled.clear()
        return {"shortfall_rate": short / max(slots, 1)}


class ScoreInterchange(Workload):
    """``dins evaluate --scores`` on one split with a seeded external score file."""

    name = "score-interchange"
    setup_reps = 7
    layers = ("graph.index_s", "sample_io.read_split_s", "sample_io.read_scores_s",
              "evaluation.eval_sets_s", "evaluation.score_s", "evaluation.auc_s",
              "cli.self_s")
    op_metric = "evaluate_s"
    ARGV = ["evaluate", "--split-dir", "split", "--scores", "scores.jsonl"]

    def __init__(self, n_nodes: int = 5000, edges_per_month: int = 34_000):
        self.n_nodes, self.edges_per_month = n_nodes, edges_per_month

    def generate(self, seed: int):
        return multi_month_records(self.n_nodes, self.edges_per_month, 2, seed=seed)

    def setup(self, records):
        g = build_graph(records)
        train_w, eval_w = window_pairs(monthly_schedule(g))[0]
        split = make_split(g, train_w, eval_w)
        write_split_dir("split", split)
        index = combined_index(split.train, split.val, split.test)
        sets = build_eval_sets(split.test, split.train, index, 0)
        with atomic_open("eval_samples.jsonl", "w") as fh:
            for rec in eval_records(split.test, sets):
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
        return {"split": split, "sets": sets}

    def prepare(self, state, seed):
        """Write the external model's scores and compute the reference report."""
        with open("eval_samples.jsonl", encoding="utf-8") as fh:
            recs = [json.loads(line) for line in fh]
        # One score per key: a key names (src, dst, t, category), so a
        # sample drawn twice is one sample to the model.
        first = {r["key"]: r for r in reversed(recs)}
        keys = sorted(first)
        rng = np.random.default_rng((seed, 17))
        # two decimals so the tie-aware path of the AUC is exercised
        values = np.round(rng.random(len(keys)) * 0.8
                          + 0.2 * np.array([first[k]["label"] == POS for k in keys]), 2)
        mapping = dict(zip(keys, values.tolist()))
        with open("scores.jsonl", "w", encoding="utf-8") as fh:
            for key, score in mapping.items():
                fh.write(json.dumps({"key": key, "score": score}) + "\n")
        scores = [mapping[r["key"]] for r in recs]
        split = state["split"]
        reference = evaluate_sets(split.test, state["sets"], mapping, 0,
                                  split_label=split.label,
                                  strategy="external").to_dict()
        state["reference"] = reference
        state["inputs_digest"] = tree_digest(["split", "eval_samples.jsonl",
                                              "scores.jsonl"])
        return independent_auc_problems(recs, scores, reference)

    def operation(self, state, i, tracer, probe):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = dins.cli.main(self.ARGV)
        if rc != 0:
            raise RuntimeError(f"dins evaluate exited {rc}: {err.getvalue().strip()}")
        overall = state["reference"]["categories"]["overall"]
        return {"samples": overall["n_pos"] + overall["n_neg"],
                "stdout": out.getvalue()}

    def check(self, state, result):
        if json.loads(result["stdout"]) != state["reference"]:
            return ["report differs from the reference computed in set-up"]
        return []

    def digest(self, state, result):
        h = hashlib.sha256(state["inputs_digest"].encode())
        h.update(result["stdout"].encode())
        return h.hexdigest()

    def targets(self):
        return [
            ("dins.cli", "main", "cli.main", "call"),
            ("dins.cli", "read_split_dir", "sample_io.read_split_dir", "call"),
            ("dins.cli", "combined_index", "evaluation.combined_index", "call"),
            ("dins.cli", "build_eval_sets", "evaluation.build_eval_sets", "call"),
            ("dins.cli", "read_scores_jsonl", "sample_io.read_scores_jsonl", "call"),
            ("dins.cli", "evaluate_sets", "evaluation.evaluate_sets", "call"),
            ("dins.evaluation", "auc", "evaluation.auc", "call"),
        ] + INDEX_TARGETS


def independent_auc_problems(recs, scores, reference) -> list[str]:
    """Check the reference AUCs by counting wins and ties directly."""
    scores = np.asarray(scores, dtype=float)
    cats = np.array([r["category"] for r in recs])
    pos = scores[np.array([r["label"] == POS for r in recs])]
    problems = []
    for cat, res in reference["categories"].items():
        neg = scores[(cats != OBSERVED) if cat == "overall" else (cats == cat)]
        neg = np.sort(neg)
        below = np.searchsorted(neg, pos, side="left")
        tied = np.searchsorted(neg, pos, side="right") - below
        twice_wins = int((2 * below + tied).sum())
        expected = twice_wins / (2 * pos.size * neg.size)
        if abs(expected - res["auc"]) > 1e-12 or neg.size != res["n_neg"]:
            problems.append(f"reference {cat}: AUC {res['auc']} n_neg {res['n_neg']}, "
                            f"direct count gives {expected} n_neg {neg.size}")
    return problems


# HistoryIndex is looked up in dins.graph by DynamicGraph.history and in
# dins.evaluation by combined_index.
INDEX_TARGETS = [
    ("dins.graph", "HistoryIndex", "graph.HistoryIndex", "class"),
    ("dins.evaluation", "HistoryIndex", "graph.HistoryIndex", "class"),
]

# Traced during the last set-up repetition: the layers set-up time covers.
SETUP_TARGETS = INDEX_TARGETS + [
    ("dins.sample_io", "load_dataset", "sample_io.load_dataset", "call"),
]

WORKLOADS = {w.name: w for w in (YearPipeline, SamplingSuite, Stream1M,
                                  ScoreInterchange)}
