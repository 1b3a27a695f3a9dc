"""Golden digest of a small ``dins run``: every artifact, byte for byte.

A run over 120 nodes and three calendar months with all six strategies
touches every sampler, the scalar and vectorized index lookups, the
evaluation sets, scoring and every writer. The pinned sha256 values
were taken before the history index was rewritten around pair rows; a
change that must alter an artifact updates its digest and says why.
``dins sample`` on the same data pins the keyed and negatives-only
sample files, which a run never writes; those digests were taken
before samples became columns. ``dins score`` output over the plain
dins sample file is pinned for all four built-in scorers; those digests
were taken while scorers still scored one sample at a time. ``dins
evaluate --export`` on the golden data's first split is pinned too; its
digest was taken while the export still went through ``json.dumps``, and
equals the run's ``eval_samples.jsonl`` for that split.
"""

from __future__ import annotations

import csv
import hashlib
import io
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from dins.cli import main
from dins.config import PipelineConfig
from dins.graph import build_graph
from dins.runner import run_experiment
from dins.sampling import STRATEGIES
from dins.synthetic import multi_month_records

GOLDEN = {
    "config.json":
        "acef4120fbb498424a0a76fd4bb2e2339c779d22a3034f1e0fdde8d99021a4de",
    "splits/2021-01/eval_samples.jsonl":
        "d28065bb704134df2b7cd651b60c7ea8d3f58b26cf95009bb5ef5927ace75203",
    "splits/2021-01/report_dins.json":
        "60e187ccbe7df85c9aa1022cda13ced2c05a70f4194b866a61572371f12e2730",
    "splits/2021-01/report_historical.json":
        "fc0cd3c13e54237ee93335ba932405c514c81ffd59ac331316ef048af113e393",
    "splits/2021-01/report_loops.json":
        "cb745b72b8de1935a6447d2eeb665fd5363548b4e87aa72b60d09ac4440a78ce",
    "splits/2021-01/report_random.json":
        "62168e0f7f6eab1d79c005d7caebf485f7b456e5b6320e21f680864b503b49fd",
    "splits/2021-01/report_sender_receiver.json":
        "d6705d1a9fbbf2afe428c935977bea4d00b9be16bbd3e00788cb4ecf1fd7c3f7",
    "splits/2021-01/report_temporal.json":
        "d42b0f9e71b5b5c79e96671a08fab3bd7b70e4f976f5e6b23d24a7b80fc1fabc",
    "splits/2021-01/samples_dins.jsonl":
        "88db124316b67097f96e86432b7ed53829869f33fb770ba26d5486ca3001e9e1",
    "splits/2021-01/samples_historical.jsonl":
        "6bce9c84320c3aead8a233b0700cb33fe62fc6602d9ecaa0e2fe8201e58df3d2",
    "splits/2021-01/samples_loops.jsonl":
        "7141abb089489ecec7805e1fc6d2fd6fb6425b063cd3f345793e5aaa8fbcd5ca",
    "splits/2021-01/samples_random.jsonl":
        "859f1c25e9adb9621f68ac3633ea6d8ccbc88eb6dd517a19c11d8cd969c6e7d1",
    "splits/2021-01/samples_sender_receiver.jsonl":
        "c488677acbb5464f1b9f49a9f7cef849d1b8c44b1363cd0fc9c037113be57d24",
    "splits/2021-01/samples_temporal.jsonl":
        "d6ae1ac298ce33d8a144d50cc6b0b4cf6c70e759b6102efc21cad8cbebb5d9a2",
    "splits/2021-01/split_meta.json":
        "4fea2ebc3954a2a97420b2a65c6a84a47ac39bb83c782a2368fd6b52de25ee04",
    "splits/2021-01/test.csv":
        "dcd416e9477f7e69edf34ff2a82af7d681eb7a5f050d44a30f75a3f358869c7e",
    "splits/2021-01/train.csv":
        "8cfc38c125d4c6fb9b91417f3a39493367abc03d2fcc7ea29eba621c9a566117",
    "splits/2021-01/val.csv":
        "086fe02833e75ea3e934de7eb2e4df1158ac2898a57b006835fe0634c8cdfdd8",
    "splits/2021-02/eval_samples.jsonl":
        "864e5dcfdacae46e41b6d28237ec52c51d27066bc5f263677db1991df217f9a2",
    "splits/2021-02/report_dins.json":
        "e57402d1df746c54304c53a6937614b9b3c77beab493935f34cbf12e269cdaac",
    "splits/2021-02/report_historical.json":
        "7cd80702b23fcdae7ba41238062c2b141a1f1bf8a377aff556d647078c6e35a7",
    "splits/2021-02/report_loops.json":
        "f9065961fee37ddc28907e39ab0b1906204d6e34c5284b9d4954a27fcb91bae8",
    "splits/2021-02/report_random.json":
        "99e3c87a367c16d0a448d93d5db57d8196f2df1d3ac0429b2c98932a3f2504f2",
    "splits/2021-02/report_sender_receiver.json":
        "e7a3da091afe057d3af05c3ade308888f006b351f7414b070a958b756b2469cb",
    "splits/2021-02/report_temporal.json":
        "608a629a71bdac8f633961c069961e6ea33d8b0eff4d55228ee265d48031e0eb",
    "splits/2021-02/samples_dins.jsonl":
        "1168b1e39fbb815b87889c2bd7777edf9d1f138f194576375995bb2ba2f8f61a",
    "splits/2021-02/samples_historical.jsonl":
        "38fad3d387daff1c47104597c7e6bdfe843078590c525d15592d7f4881fd8a61",
    "splits/2021-02/samples_loops.jsonl":
        "c2bac0484cb4f8d3859530a8e6f43545af659902a7827bad8fc00690005696f2",
    "splits/2021-02/samples_random.jsonl":
        "28a4ee2285ce9ffedf406e665c0fa8c36317d0449749e4d8e79f4549a73e8aaa",
    "splits/2021-02/samples_sender_receiver.jsonl":
        "2204d1ea57e3f72fac3b66e9dbf5f58adc9a5f3184c7460b648ad7282739e4b4",
    "splits/2021-02/samples_temporal.jsonl":
        "6cc7be3c07e45f1a6a0cd6c62c84fbbe42a81a7916538d29366c8a6ff8d85218",
    "splits/2021-02/split_meta.json":
        "39fb1f0326020a584c6adfebfeb68bb4b9ec1c9bf38297a05e781b03743a079c",
    "splits/2021-02/test.csv":
        "1e811223f8733288a304f68802e889542fe64a28979f422ca43e12771894028e",
    "splits/2021-02/train.csv":
        "0a439b1dc021258554af7902250d85e49dc3966de146337359d900d716dfd72e",
    "splits/2021-02/val.csv":
        "59d3fe441e07c0d3ccefd4fec8d20fd1ac188c1fb3f92dcd0ae705e36dc97eb8",
    "summary.json":
        "563b1928f2c4abc980cbdbd4602946a5c14050c2b92ee0990950fc3e8b6ddccd",
}


SAMPLE_GOLDEN = {
    ("dins", False):
        "8331109329705a39fea24ab0fc8cbdb881fdf62f1facab20c8580f1195ecd5e4",
    ("dins", True):
        "fbeda729be91c03da7d2fe1025db9a66d94bc7ada3e750905ec1b5159fc2076c",
    ("historical", False):
        "69d1aacef4697b966109034fdaa6050bfd6f9f1a2f698f2742a04b37091c96ed",
    ("historical", True):
        "82625534b1cd840ffcfa03e8c3ea861ee53c4eda0e63d5bd2bab18769e91908d",
}


def write_golden_csv(path: Path) -> list:
    records = multi_month_records(120, 1500, 3, seed=11)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["src", "dst", "timestamp"])
        w.writerows(records)
    return records


def run_digests(workdir: Path, jobs: int = 1, in_memory: bool = False) -> dict[str, str]:
    """sha256 of every file a run over the golden dataset writes. With
    ``in_memory`` the run is handed the graph and no dataset file exists."""
    if in_memory:
        records = multi_month_records(120, 1500, 3, seed=11)
    else:
        records = write_golden_csv(workdir / "golden.csv")
    config = PipelineConfig(dataset="golden.csv", batch_size=250, q=3, t_f=144,
                            seed=5, strategies=tuple(sorted(STRATEGIES)),
                            scorer="recency")
    out = workdir / "run"
    run_experiment(config, out, jobs=jobs,
                   graph=build_graph(records) if in_memory else None)
    return {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


def test_golden_run_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)         # config.json records the relative dataset path
    assert run_digests(tmp_path) == GOLDEN


def test_parallel_run_digests(tmp_path, monkeypatch):
    # serial == parallel: two workers write the pinned bytes
    monkeypatch.chdir(tmp_path)
    assert run_digests(tmp_path, jobs=2) == GOLDEN


def test_parallel_run_uses_the_given_graph(tmp_path, monkeypatch):
    # config.dataset names no file, so a worker that reloaded it would fail
    monkeypatch.chdir(tmp_path)
    assert run_digests(tmp_path, jobs=2, in_memory=True) == GOLDEN
    assert not (tmp_path / "golden.csv").exists()


@pytest.mark.parametrize("strategy,keyed", sorted(SAMPLE_GOLDEN))
def test_sample_command_digests(tmp_path, strategy, keyed):
    write_golden_csv(tmp_path / "golden.csv")
    out = tmp_path / "samples.jsonl"
    extra = ["--with-keys", "--negatives-only"] if keyed else []
    with redirect_stdout(io.StringIO()):
        code = main(["sample", str(tmp_path / "golden.csv"), "--strategy", strategy,
                     "--out", str(out), "--batch-size", "250", "--q", "3",
                     "--tf", "144", "--seed", "5", *extra])
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SAMPLE_GOLDEN[(strategy, keyed)]


SCORE_GOLDEN = {
    "constant":
        "832a70c9c32a02b3ba66df5c613b3a6de3d3f7d0404d4076aeb9eb5064e23251",
    "memory":
        "0f13ef4625c0fc88bd113c37cf59fd6798fe954283ba3731e7a0538541ecbd3e",
    "random":
        "403f7611b5e657cc8d4e88398746f9d7dd5fc6cf547ebed049e0fc73c8061887",
    "recency":
        "d3a47781ababed10072a73318f5b6afe17cddb542a569ca69d4f6fcf9e216aa5",
}


@pytest.fixture(scope="module")
def golden_samples(tmp_path_factory) -> Path:
    """``dins sample``'s plain dins file over the golden dataset."""
    workdir = tmp_path_factory.mktemp("score")
    write_golden_csv(workdir / "golden.csv")
    with redirect_stdout(io.StringIO()):
        code = main(["sample", str(workdir / "golden.csv"), "--strategy", "dins",
                     "--out", str(workdir / "samples.jsonl"), "--batch-size", "250",
                     "--q", "3", "--tf", "144", "--seed", "5"])
    assert code == 0
    return workdir


@pytest.mark.parametrize("scorer", sorted(SCORE_GOLDEN))
def test_score_command_digests(golden_samples, tmp_path, scorer):
    out = tmp_path / "scores.jsonl"
    with redirect_stdout(io.StringIO()):
        code = main(["score", "--scorer", scorer, "--samples",
                     str(golden_samples / "samples.jsonl"),
                     "--train", str(golden_samples / "golden.csv"), "--out", str(out)])
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SCORE_GOLDEN[scorer]


EXPORT_GOLDEN = "d28065bb704134df2b7cd651b60c7ea8d3f58b26cf95009bb5ef5927ace75203"


def test_evaluate_export_digest(tmp_path):
    write_golden_csv(tmp_path / "golden.csv")
    out = tmp_path / "eval.jsonl"
    with redirect_stdout(io.StringIO()):
        assert main(["split", str(tmp_path / "golden.csv"),
                     "--out-dir", str(tmp_path / "splits")]) == 0
        assert main(["evaluate", "--split-dir", str(tmp_path / "splits" / "2021-01"),
                     "--seed", "5", "--export", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == EXPORT_GOLDEN
