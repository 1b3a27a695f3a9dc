"""Acceptance gate: one test per shipped guarantee, one printed verdict each.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines.
Criteria 5 and 6 need the real interaction datasets; point DINS_DATA_DIR
at a directory containing them to activate those checks, otherwise the
two tests report WAIVED and skip.
"""

from __future__ import annotations

import csv
import os
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np
import pytest

from conftest import make_synth_suite, triple_set
from dins import (SamplerConfig, build_eval_sets, build_graph, combined_index,
                  make_scorer, make_split, monthly_schedule, sample_batches,
                  sample_dins, window_pairs)
from dins.config import derive_rng
from dins.evaluation import H_OFFSETS, auc, positives_of
from dins.graph import batches, stats as graph_stats
from dins.sampling import (NEG, NEGATIVE_LOOP, POSITIVE_ENHANCEMENT,
                           RANDOM_RECEIVER, RANDOM_SENDER, STRATEGIES,
                           TEMPORAL, VOCABULARY)
from dins.sample_io import load_dataset
from dins.scorers import ScorerSpec
from dins.synthetic import gap_pattern_records, multi_month_records, random_graph

DATA_DIR_ENV = "DINS_DATA_DIR"


def _report(num: int, slug: str, ok: bool, detail: str = "") -> None:
    tail = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {num} {slug}: {'PASS' if ok else 'FAIL'}{tail}", flush=True)
    assert ok, f"acceptance {num} {slug} failed {tail}"


def _waive(num: int, slug: str, why: str) -> None:
    print(f"\nACCEPTANCE {num} {slug}: WAIVED ({why})", flush=True)
    pytest.skip(f"acceptance {num} {slug} waived: {why}")


@pytest.fixture(scope="module")
def suite():
    return make_synth_suite(50, seed=0)


def test_acceptance_1_algorithm_cardinality(suite):
    """Per-batch count identities of the combined procedure, under 10 s."""
    for g in suite:
        g.history                       # index prebuilt, as in the pipeline

    # timed pass: pure sampling throughput, nothing retained
    n_samples = 0
    t0 = time.perf_counter()
    for k in (10, 100, 1000):
        for g in suite:
            cfg = SamplerConfig(k=k, q=5, seed=1)
            for ss in sample_batches(g, "dins", cfg):
                n_samples += len(ss.samples)
    elapsed = time.perf_counter() - t0

    # verification pass: the stream is deterministic, so regenerating
    # yields the exact sets whose timing was just measured
    violations = 0
    n_batches = 0
    for k in (10, 100, 1000):
        for g in suite:
            cfg = SamplerConfig(k=k, q=5, seed=1)
            blocks = batches(g, cfg.k)
            for ss in sample_batches(g, "dins", cfg):
                n_batches += 1
                batch = blocks[ss.origin_batch]
                kp = len(batch)
                c = ss.by_category()
                t = ss.tallies
                checks = (
                    c[RANDOM_SENDER] + t.get("sender_skipped", 0) == kp,
                    c[RANDOM_RECEIVER] + t.get("receiver_skipped", 0) == kp,
                    c[TEMPORAL] + t.get("temporal_shortfall", 0) == cfg.q * kp,
                    c[NEGATIVE_LOOP] + t.get("loop_shortfall", 0)
                    == len(batch.timestamps),
                    c[POSITIVE_ENHANCEMENT] <= cfg.k,
                )
                violations += sum(not ok for ok in checks)
    _report(1, "algorithm-cardinality", violations == 0 and elapsed < 10.0,
            f"{n_batches} batches, {n_samples} samples, "
            f"{violations} violations, sampling {elapsed:.2f}s")


def test_acceptance_2_negativity_oracle(suite):
    """No emitted negative, by any strategy, is an observed edge."""
    bad = 0
    checked = 0
    for g in suite:
        triples = triple_set(g)         # one O(m) scan per graph
        for strategy in sorted(STRATEGIES):
            cfg = SamplerConfig(k=100, q=5, seed=2)
            for ss in sample_batches(g, strategy, cfg):
                for s in ss.samples:
                    if s.label != NEG:
                        continue
                    checked += 1
                    bad += (s.src, s.dst, s.t) in triples
    _report(2, "negativity-oracle", bad == 0,
            f"{checked} negatives across {len(STRATEGIES)} strategies, {bad} hits")


def test_acceptance_3_leakage_bound(suite):
    """Future-time negatives stay inside [t, window max]; never beyond."""
    bad = 0
    checked = 0
    # training-side: every future-time negative fits some positive's window
    for g in suite[:20]:
        cfg = SamplerConfig(k=100, q=5, seed=3)
        blocks = batches(g, cfg.k)
        for ss in sample_batches(g, "temporal", cfg):
            batch = blocks[ss.origin_batch]
            windows = defaultdict(list)
            for u, v, t in zip(batch.src.tolist(), batch.dst.tolist(),
                               batch.t.tolist()):
                windows[(u, v)].append(t)
            for s in ss.samples:
                checked += 1
                ok = any(t0 <= s.t <= min(t0 + cfg.t_f, batch.t_max)
                         for t0 in windows[(s.src, s.dst)])
                bad += not ok

    # evaluation-side: horizon probes equal positive + offset, capped at
    # the last test bin, and never collide with a real edge
    g = build_graph(multi_month_records(40, 900, 2, seed=5))
    train_w, eval_w = window_pairs(monthly_schedule(g))[0]
    split = make_split(g, train_w, eval_w)
    index = combined_index(split.train, split.val, split.test)
    sets = build_eval_sets(split.test, split.train, index, seed=0)

    def block_triples(block):
        return set(zip(block.src.tolist(), block.dst.tolist(), block.t.tolist()))

    all_triples = (triple_set(split.train)
                   | block_triples(split.val) | block_triples(split.test))
    t_cap = int(split.test.t.max())
    for cat, offset in H_OFFSETS.items():
        expected = Counter()
        for u, v, t in zip(split.test.src.tolist(), split.test.dst.tolist(),
                           split.test.t.tolist()):
            probe = (u, v, t + offset)
            if probe[2] <= t_cap and probe not in all_triples:
                expected[probe] += 1
        got = Counter((s.src, s.dst, s.t) for s in sets[cat].samples)
        checked += sum(got.values())
        if got != expected:
            bad += 1
    _report(3, "leakage-bound", bad == 0,
            f"{checked} future-time samples within bounds")


def test_acceptance_4_auc_correctness():
    """Rank AUC == brute-force pairwise AUC to 1e-12, plus exact anchors."""
    rng = np.random.default_rng(4)

    def rank_auc(pos, neg):
        labels = np.concatenate([np.ones(pos.size, dtype=bool),
                                 np.zeros(neg.size, dtype=bool)])
        return auc(labels, np.concatenate([pos, neg]))

    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 2001))
        n_pos = int(rng.integers(1, n))
        # coarse grid forces plenty of ties
        scores = rng.integers(0, 12, size=n).astype(float) / 11.0
        pos, neg = scores[:n_pos], scores[n_pos:]
        fast = rank_auc(pos, neg)
        wins = (pos[:, None] > neg[None, :]).sum()
        ties = (pos[:, None] == neg[None, :]).sum()
        brute = (wins + 0.5 * ties) / (pos.size * neg.size)
        worst = max(worst, abs(fast - brute))
    constant_exact = rank_auc(np.full(7, 0.5), np.full(11, 0.5)) == 0.5
    textbook = rank_auc(np.array([0.9, 0.8]), np.array([0.7, 0.85])) == 0.75
    _report(4, "auc-correctness",
            worst <= 1e-12 and constant_exact and textbook,
            f"max |Δ| = {worst:.2e} over 1000 sets")


def _find_dataset(root: Path, stem: str) -> Path | None:
    for p in sorted(root.rglob("*")):
        if p.is_file() and stem in p.name.lower() and p.suffix in (".csv", ".tsv"):
            return p
    return None


def test_acceptance_5_dataset_statistics():
    """Known per-dataset totals, when the real CSVs are on disk."""
    root = os.environ.get(DATA_DIR_ENV)
    if not root or not Path(root).is_dir():
        _waive(5, "dataset-statistics", f"{DATA_DIR_ENV} not set; real CSVs absent")
    paths = {s: _find_dataset(Path(root), s) for s in ("gme", "amc", "bb")}
    missing = [s for s, p in paths.items() if p is None]
    if missing:
        _waive(5, "dataset-statistics", f"datasets not found: {missing}")
    stats = {s: graph_stats(load_dataset(p)) for s, p in paths.items()}
    checks = (
        stats["gme"].n_edges == 3_976_267,
        round(100 * stats["gme"].unique_pair_fraction, 2) == 67.71,
        round(100 * stats["gme"].loop_fraction, 2) == 3.37,
        round(100 * stats["amc"].loop_fraction, 2) == 8.73,
        round(100 * stats["bb"].unique_pair_fraction, 2) == 75.03,
    )
    _report(5, "dataset-statistics", all(checks),
            f"{sum(checks)}/{len(checks)} totals match")


def test_acceptance_6_monthly_split_counts():
    """Known per-month split sizes, when the real CSVs are on disk."""
    root = os.environ.get(DATA_DIR_ENV)
    if not root or not Path(root).is_dir():
        _waive(6, "monthly-split-counts", f"{DATA_DIR_ENV} not set; real CSVs absent")
    bb = _find_dataset(Path(root), "bb")
    if bb is None:
        _waive(6, "monthly-split-counts", "bb dataset not found")
    g = load_dataset(bb)
    train_w, eval_w = window_pairs(monthly_schedule(g))[0]
    split = make_split(g, train_w, eval_w)
    n_eval = len(split.val) + len(split.test) + split.dropped_count
    share = 100 * split.train.m / (split.train.m + n_eval)
    checks = (split.train.m == 127_634, n_eval == 22_041,
              round(share, 2) == 85.27)
    _report(6, "monthly-split-counts", all(checks),
            f"train={split.train.m}, eval={n_eval}, {share:.2f}% train")


def test_acceptance_7_gap_pattern_detects_memory_collapse():
    """A pure-recall scorer must lose its edge on fixed-lag recurrences."""
    g = build_graph(gap_pattern_records(100, 0.3))
    train_w, eval_w = window_pairs(monthly_schedule(g))[0]
    split = make_split(g, train_w, eval_w, val_fraction=0.0)
    index = combined_index(split.train, split.val, split.test)
    sets = build_eval_sets(split.test, split.train, index, seed=0)
    scorer = make_scorer(ScorerSpec(kind="memory"), index=split.train.history)
    # the recurrence gap leaves no room for the 12h/24h probes here, so
    # compare just the two categories the guarantee names
    categories = np.array(VOCABULARY, dtype=object)
    pos = positives_of(split.test)
    pos_scores = scorer(pos.src, pos.dst, pos.t, categories[pos.code])

    def cat_auc(cat: str) -> float:
        ss = sets[cat]
        neg = scorer(ss.src, ss.dst, ss.t, categories[ss.code])
        labels = np.concatenate([np.ones(pos_scores.size, dtype=bool),
                                 np.zeros(neg.size, dtype=bool)])
        return auc(labels, np.concatenate([pos_scores, neg]))

    h6 = cat_auc("h6")
    rr = cat_auc("random_receiver")
    _report(7, "gap-pattern-memory-collapse", h6 <= rr - 0.2,
            f"h6 AUC {h6:.4f} vs random-receiver AUC {rr:.4f}")


def test_acceptance_8_throughput(tmp_path):
    """One large batch under a second; a year-scale pipeline under 10 min."""
    g = random_graph(50_000, 1_000_000, seed=7)
    g.history                           # index prebuilt, as in the pipeline
    cfg = SamplerConfig(k=1000, q=5, seed=0)
    blocks = batches(g, cfg.k)
    mid = blocks[len(blocks) // 2]
    t0 = time.perf_counter()
    sample_dins(mid, g, cfg, derive_rng(cfg.seed, mid.index))
    batch_s = time.perf_counter() - t0

    from dins.config import PipelineConfig
    from dins.runner import run_experiment

    data = tmp_path / "year.csv"
    with open(data, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["src", "dst", "timestamp"])
        w.writerows(multi_month_records(5000, 34000, 12, seed=3))
    config = PipelineConfig(dataset=str(data), scorer="memory",
                            strategies=("dins",))
    t0 = time.perf_counter()
    summary = run_experiment(config, tmp_path / "run")
    pipeline_s = time.perf_counter() - t0
    statuses = {o["status"] for o in summary["splits"]}
    ok = (batch_s < 1.0 and pipeline_s < 600.0
          and len(summary["splits"]) == 11 and statuses == {"ok"})
    _report(8, "throughput", ok,
            f"batch {batch_s * 1000:.0f}ms, 11-split pipeline {pipeline_s:.0f}s")
