"""Every dins name that perfbench's ``--trace 1`` wraps still fires.

perfbench times each layer by wrapping module attributes (such as
``dins.runner.make_scorer``) for the length of an operation. A wrapped
name that is renamed, inlined or no longer called drops its layer's
metric from the result line, so a small year-pipeline run and a
score-interchange evaluation run here under those same wrappers, and
every expected layer must fire.
"""

from __future__ import annotations

import csv
import importlib
import io
import json
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import dins.cli
import dins.runner
from dins.config import PipelineConfig
from dins.synthetic import multi_month_records

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("spans"), importlib.import_module("workloads")


def traced(spans, workload, operation):
    """Run ``operation`` under the workload's wrappers; the layers that
    should have fired and did not, and the targets that do not exist."""
    tracer = spans.Tracer()
    tracer.op = 0
    restore = spans.install(tracer, workload.targets())
    try:
        start = time.perf_counter()
        operation()
        wall = time.perf_counter() - start
    finally:
        restore()
    _, absent = spans.layer_metrics(tracer, {0: wall}, workload.layers,
                                    workload.trace_extra(tracer))
    return absent, tracer.missing


def test_perfbench_trace_targets_fire(perfbench, tmp_path, monkeypatch):
    spans, workloads = perfbench
    monkeypatch.chdir(tmp_path)
    with open("year.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["src", "dst", "timestamp"])
        w.writerows(multi_month_records(60, 300, 3, seed=2))
    config = PipelineConfig(dataset="year.csv", scorer="memory", strategies=("dins", "random"))
    assert traced(spans, workloads.WORKLOADS["year-pipeline"](),
                  lambda: dins.runner.run_experiment(config, "run", jobs=1)) == ([], [])

    # an external score for every key of one split's exported eval samples
    split_dir = sorted(Path("run/splits").iterdir())[0]
    with open(split_dir / "eval_samples.jsonl", encoding="utf-8") as fh:
        keys = {json.loads(line)["key"] for line in fh}
    with open("scores.jsonl", "w", encoding="utf-8") as fh:
        for i, key in enumerate(sorted(keys)):
            fh.write(json.dumps({"key": key, "score": i % 7 / 7}) + "\n")

    def evaluate():
        with redirect_stdout(io.StringIO()):
            assert dins.cli.main(["evaluate", "--split-dir", str(split_dir),
                                  "--scores", "scores.jsonl"]) == 0
    assert traced(spans, workloads.WORKLOADS["score-interchange"](), evaluate) == ([], [])
