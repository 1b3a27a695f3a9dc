"""Self-tests of the benchmark harness: ``python -m pytest perfbench``.

They run tiny versions of the workloads, so they take seconds.
"""

from __future__ import annotations

import sys
import types
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
from spans import SETUP, Tracer, install, layer_metrics, self_times  # noqa: E402
from workloads import (ScoreInterchange, Stream1M, batch_violations,  # noqa: E402
                       tree_digest)

from dins import SamplerConfig, sample_batches  # noqa: E402
from dins.graph import batches  # noqa: E402
from dins.sampling import Sample, SampleSet, TEMPORAL  # noqa: E402
from dins.synthetic import random_graph  # noqa: E402


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ["root", 0.0, 10.0, None, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 3.0, 6.0, 0, 0],       # overlaps a: the union [1, 6] counts once
        ["a.child", 2.0, 3.0, 1, 0],
        ["late", 9.0, 12.0, 0, 0],   # runs past its parent: clipped to [9, 10]
    ]
    assert self_times(spans) == pytest.approx([10 - 5 - 1, 3 - 1, 3, 1, 3])
    # a speed-probe slice counts towards no span, wherever it lands
    probes = [(2.2, 2.4), (7.0, 7.5)]
    assert self_times(spans, probes) == pytest.approx([4 - 0.5, 2, 3, 1 - 0.2, 3])


def test_install_nests_spans_and_restores(monkeypatch):
    mod = types.ModuleType("fake_layer")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    mod.inner, mod.outer = inner, outer
    monkeypatch.setitem(sys.modules, "fake_layer", mod)
    tracer = Tracer()
    tracer.op = 0
    restore = install(tracer, [("fake_layer", "outer", "outer", "call"),
                               ("fake_layer", "inner", "inner", "call"),
                               ("fake_layer", "renamed", "gone", "call")])
    assert mod.outer(1) == 4
    restore()
    assert mod.outer is outer and mod.inner is inner
    assert tracer.missing == ["fake_layer.renamed"]
    (n0, s0, e0, p0, op0), (n1, s1, e1, p1, op1) = tracer.spans
    assert (n0, p0, n1, p1, op1) == ("outer", None, "inner", 0, 0)
    assert s0 <= s1 <= e1 <= e0


def test_layer_metrics_average_ops_add_setup_and_flag_absent_layers():
    tracer = Tracer()
    tracer.spans = [
        ["graph.HistoryIndex", 0.0, 0.5, None, SETUP],
        ["bench.op", 1.0, 3.0, None, 0],
        ["sampling.next", 1.0, 2.0, 1, 0],
        ["bench.op", 4.0, 7.0, None, 2],
        ["sampling.next", 4.0, 6.0, 3, 2],
    ]
    values, absent = layer_metrics(
        tracer, {0: 2.0, 2: 3.0}, expected=("graph.index_s", "sampling.busy_s",
                                             "evaluation.auc_s"), extra={})
    assert values["sampling.busy_s"] == pytest.approx(1.5)       # (1 + 2) / 2 ops
    assert values["graph.index_s"] == pytest.approx(0.5)         # the set-up's build
    assert values["cli.self_s"] == 0.0                           # not called: 0
    assert "evaluation.auc_s" not in values                      # expected, never fired
    assert absent == ["evaluation.auc_s"]
    assert values["trace.coverage"] == pytest.approx(3.0 / 5.0)


def test_digest_must_repeat_and_match_the_pin_for_the_default_seed():
    assert run.digest_problems(["a", "a"], "a", seed=0, pinned="a") == []
    assert run.digest_problems(["a", "a"], "a", seed=5, pinned="b") == []
    assert len(run.digest_problems(["a", "b"], "a", seed=5, pinned=None)) == 1
    assert len(run.digest_problems(["a"], "a", seed=0, pinned="b")) == 1
    # an earlier run of the same seed recorded another digest
    assert len(run.digest_problems(["a"], "a", seed=5, pinned=None, previous="b")) == 1
    assert run.digest_problems(["a"], "a", seed=5, pinned=None, previous="a") == []


def test_tree_digest_names_files_relative_to_the_directory(tmp_path):
    for name in ("run0", "run1"):
        (tmp_path / name / "sub").mkdir(parents=True)
        (tmp_path / name / "sub" / "f.txt").write_text("x")
    assert tree_digest([tmp_path / "run0"]) == tree_digest([tmp_path / "run1"])
    (tmp_path / "run1" / "sub" / "f.txt").write_text("y")
    assert tree_digest([tmp_path / "run0"]) != tree_digest([tmp_path / "run1"])


def test_batch_violations_catch_a_missing_temporal_negative():
    g = random_graph(50, 400, seed=3)
    cfg = SamplerConfig(k=100, q=5, seed=0)
    blocks = batches(g, cfg.k)
    ss = next(sample_batches(g, "dins", cfg))
    assert batch_violations(ss, blocks[0], cfg.q, cfg.k) == 0
    samples = list(ss.samples)
    samples.remove(next(s for s in samples if s.category == TEMPORAL))
    broken = SampleSet(samples, ss.origin_batch, Counter(ss.tallies))
    assert batch_violations(broken, blocks[0], cfg.q, cfg.k) == 1


def test_stream_workload_is_correct_and_deterministic(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    wl = Stream1M(n_nodes=200, n_edges=5000)
    first = run.measure(wl, seed=3, seconds=1, trace=False)
    second = run.measure(wl, seed=3, seconds=1, trace=True)
    assert first["failed"] == 0 and first["problems"] == []
    assert first["digest"] == second["digest"]
    assert second["metrics"]["sampling.batches"] == 5
    assert "trace.overhead_s" in second["metrics"]
    assert second["absent"] == []


class DriftingStream(Stream1M):
    """A stream whose timed pass no longer matches its reference pass."""

    def prepare(self, state, seed):
        problems = super().prepare(state, seed)
        self.prints[2] = self.prints[2][:1] + (self.prints[2][1] + 1,) + self.prints[2][2:]
        return problems


def test_a_timed_stream_unlike_the_reference_pass_fails(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    record = run.measure(DriftingStream(n_nodes=200, n_edges=5000), seed=3, seconds=1,
                         trace=False)
    assert record["failed"] == record["attempted"] >= 1
    assert any("differs from the reference pass at batch 2" in p
               for p in record["problems"])


class CorruptScores(ScoreInterchange):
    def prepare(self, state, seed):
        problems = super().prepare(state, seed)
        with open("scores.jsonl", "a", encoding="utf-8") as fh:
            fh.write("{not json\n")
        return problems


def test_corrupted_score_file_counts_every_operation_as_failed(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    healthy = run.measure(ScoreInterchange(n_nodes=60, edges_per_month=800),
                          seed=2, seconds=1, trace=False)
    assert healthy["failed"] == 0 and healthy["problems"] == []
    record = run.measure(CorruptScores(n_nodes=60, edges_per_month=800),
                         seed=2, seconds=1, trace=False)
    assert record["attempted"] >= 1
    assert record["failed"] == record["attempted"]
    assert any("IngestError" in p for p in record["problems"])
    assert '"correct": false' in run.result_line(record)


def test_a_wrong_report_is_a_failed_operation(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    wl = ScoreInterchange(n_nodes=60, edges_per_month=800)
    original = wl.prepare

    def skewed(state, seed):
        problems = original(state, seed)
        state["reference"]["categories"]["overall"]["auc"] += 0.125
        return problems

    wl.prepare = skewed
    record = run.measure(wl, seed=2, seconds=1, trace=False)
    assert record["failed"] == record["attempted"] >= 1
    assert any("reference" in p for p in record["problems"])


def test_sample_tuple_layout_matches_the_digest():
    # update_stream_digest unpacks samples as (src, dst, t, label, category)
    assert Sample._fields == ("src", "dst", "t", "label", "category")
