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
equals the run's ``eval_samples.jsonl`` for that split. A second, smaller
``dins run`` pins the paths off every default: per-t loop pools,
per-timestamp evaluation loops, a custom windows file, dropped users and
a dropped sparse month, and 10-minute bins.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
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


# A run off every default path: per-t loop pools, per-timestamp eval loops, a
# custom windows file, a dropped sparse month and dropped users, 10-minute bins.
# The digests were taken before evaluation drew its loops through the sampler.
OPTIONS_GOLDEN = {
    "config.json":
        "6d283966fbcab508c0683bdf185c14817f2ac7cd5ab8ced420253c8c3b03a7f8",
    "splits/jan-a/eval_samples.jsonl":
        "d7a5e880f610285583b21b579b3f62ca63cf87be7b8b7607f235960ae0f06b23",
    "splits/jan-a/report_dins.json":
        "fdd6b526705444d52f00661bcdc3368c0e2853251ec81502fa6f0f903762df57",
    "splits/jan-a/report_loops.json":
        "90032483541fb7b733a1e77901cf31a0df5a4b906d9b655daf995dba5cc9390c",
    "splits/jan-a/report_random.json":
        "c233a9ebebae062386c33864982840f597eadce3735cc1c748f2c2f5d3e15611",
    "splits/jan-a/samples_dins.jsonl":
        "eb605274b38175d64ce0a3a64fcf5e0c4bfb828ad8219bdc452a3b4e44432766",
    "splits/jan-a/samples_loops.jsonl":
        "c09071d8bbeb1b9ae4f1960037f162e3d9e93d47c627df1be99e5321f5dd8a66",
    "splits/jan-a/samples_random.jsonl":
        "73aa282f707eab623c6be4daacab93de1101bc6d2a44985a567aaf6bcda8dfe9",
    "splits/jan-a/split_meta.json":
        "009b1bebf7f63a44245a3620a62c41e9ed39ac1bfdb8788362bacb6400fe4e9d",
    "splits/jan-a/test.csv":
        "532a74b6b5ae5a78f6cd891633feab607779cf5583e454d5039f5dceb8c6ee94",
    "splits/jan-a/train.csv":
        "be29ae8ed08a409dda74177f9f8f4fbfe2a209b03b2a1d31e76fc5827609f9c6",
    "splits/jan-a/val.csv":
        "581bfcfd6b87a83dfe310c9bdd114ef906d07d41220b830882ac959ad96ea473",
    "splits/jan-b/eval_samples.jsonl":
        "47a6ef993e708d0078b70d044d49f7e177476a14ed60b7cb09e6e22a176d672e",
    "splits/jan-b/report_dins.json":
        "7f50d0cf87d6d2d6b496acdac5e89f492cec217f9bab19a6d016da0c2acda103",
    "splits/jan-b/report_loops.json":
        "81f9252f6e7dd8211730b532464d5aec7383f16efc7fa3cfd10387514e036dbd",
    "splits/jan-b/report_random.json":
        "a9c45640863df85ccf65767a6bf892b68edd524b1114f7ca43c1aec10313b4c6",
    "splits/jan-b/samples_dins.jsonl":
        "b405f50b811f06d97cac56b14c99f14b0d930d5798f44c03090e8b0e4262af95",
    "splits/jan-b/samples_loops.jsonl":
        "87e63bcaab419a33e6f1da14c23b97ede7972eb0e9e53d31e89246dff1563eb7",
    "splits/jan-b/samples_random.jsonl":
        "fdd6c7eae4b365afa74acf75b3b5f0daeeb251456f50ce7d95fc3c2cd6f3a398",
    "splits/jan-b/split_meta.json":
        "93c68e022b5ba5957ea1f2114b6c0c9bcca8f4bb70a38b19e76409196ea2bf75",
    "splits/jan-b/test.csv":
        "291e32a3c1e253ed9d3febfe12edf7720ed17fe8f52e97b06890656ba149659a",
    "splits/jan-b/train.csv":
        "aca11817f7de868f8b9f2956c18b9d823b996ce5a6153bb38489ab6fb57727bb",
    "splits/jan-b/val.csv":
        "44b3614eba834258ff36ac4bafa5b6c474c38ed4bbae7d3603774e59f875e589",
    "summary.json":
        "98448a3e89128c9af99367b648a3781abc26938851d6e20a64c37bbf13c13054",
}

APRIL_2021 = 1617235200


def options_run_digests(workdir: Path) -> dict[str, str]:
    """sha256 of every file a ``dins run`` with non-default options writes."""
    records = multi_month_records(80, 600, 2, seed=3)
    records += [("user1", "user2", APRIL_2021 + 3600 * i) for i in range(5)]
    with open(workdir / "options.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["src", "dst", "timestamp"])
        w.writerows(records)
    (workdir / "drop.txt").write_text("user7\nuser8\n")
    (workdir / "windows.json").write_text(json.dumps({"windows": [
        {"label": "jan-a", "start": "2021-01-01", "end": "2021-01-16"},
        {"label": "jan-b", "start": "2021-01-16", "end": 1612137600},
        {"label": "feb", "start": "2021-02-01", "end": "2021-05-01"}]}))
    with redirect_stdout(io.StringIO()):
        code = main(["run", "options.csv", "--out-dir", "run", "--strategies",
                     "dins,loops,random", "--batch-size", "100", "--q", "2", "--tf", "72",
                     "--seed", "9", "--loop-pool", "per-t", "--loop-eval", "per-timestamp",
                     "--windows", "windows.json", "--min-month-edges", "20",
                     "--drop-users", "drop.txt", "--bin-width", "600", "--scorer", "recency"])
    assert code == 0
    out = workdir / "run"
    return {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


def test_options_run_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)         # config.json records the relative paths
    assert options_run_digests(tmp_path) == OPTIONS_GOLDEN


def test_evaluate_export_digest(tmp_path):
    write_golden_csv(tmp_path / "golden.csv")
    out = tmp_path / "eval.jsonl"
    with redirect_stdout(io.StringIO()):
        assert main(["split", str(tmp_path / "golden.csv"),
                     "--out-dir", str(tmp_path / "splits")]) == 0
        assert main(["evaluate", "--split-dir", str(tmp_path / "splits" / "2021-01"),
                     "--seed", "5", "--export", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == EXPORT_GOLDEN
