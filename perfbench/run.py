#!/usr/bin/env python3
"""dins benchmark: one workload per process, closed loop, checked outputs.

Run from the root of a checkout::

    python3 perfbench/run.py --workload year-pipeline --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one process each

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` with
no wrappers installed. Its times are host-speed-adjusted by the probe in
``speed.py``; the wall times are printed beside them and kept in the
result file. ``--trace 1`` alternates traced and untraced operations and
reports the per-layer metrics in wall seconds, with the probe's slices
taken out of every span, plus the tracing overhead in speed-adjusted
seconds.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
host record and every metric by name and unit, including the
workload-specific names listed in ``perfbench/manifest.json``.

Each run keeps its full record (host, metrics, digests, problems) under
``.perfbench/results/`` and, when traced, its spans under
``.perfbench/traces/``; scratch files live in ``.perfbench/work/`` and
are removed on exit. ``.perfbench/digests.json`` remembers the artifact
digest of every correct (workload, seed) run, and a later run of the
same workload and seed in the same checkout must reproduce it.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE_DIR = ROOT / ".perfbench"
MANIFEST = HERE / "manifest.json"
DEFAULT_SEED = 0            # the seed whose artifact digests are pinned
WORKLOAD_NAMES = ("year-pipeline", "sampling-suite", "stream-1m", "score-interchange")


def host_record() -> dict:
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "loadavg_1m": os.getloadavg()[0]}


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def top_percentile(n: int):
    """Highest of p99.9 / p99 / p90 with at least ten samples beyond it."""
    for p in (99.9, 99.0, 90.0):
        if n * (100 - p) / 100 >= 10:
            return p
    return None


def digest_problems(op_digests: list, run_digest, seed: int, pinned,
                    previous=None) -> list[str]:
    """The artifact digest must repeat across operations, equal the
    digest an earlier run of the same seed recorded, and for the default
    seed equal the pinned value."""
    problems = []
    if len(set(op_digests)) > 1:
        problems.append(f"artifact digest differs between operations: {sorted(set(op_digests))}")
    if previous is not None and run_digest != previous:
        problems.append(f"artifact digest {run_digest} != {previous} of an earlier "
                        "run with this seed")
    if seed == DEFAULT_SEED and run_digest != pinned:
        problems.append(f"artifact digest {run_digest} != pinned {pinned}")
    return problems


def measure(wl, seed: int, seconds: float, trace: bool, pinned=None,
            previous=None) -> dict:
    """Generate, set up, run the closed loop and check; returns the record.

    Runs in the current directory, which the caller makes a scratch
    directory. An operation that raises or whose output fails a check
    counts as failed; a check that fails on shared state (the reference
    pass, the run's digest) fails every operation. The speed probe runs
    during set-up and operations, traced or not; in traced runs its
    slices are taken out of every span's self time.
    """
    from spans import SETUP, Tracer, install, layer_metrics
    from speed import NOMINAL_SLICE_S, SpeedProbe
    from workloads import SETUP_TARGETS

    record = {"workload": wl.name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "host_start": host_record()}
    inputs = wl.generate(seed)
    gc.collect()
    tracer = Tracer() if trace else None
    probe = SpeedProbe()

    with probe:
        setup_walls, setup_adjusted = [], []
        state = None
        for rep in range(wl.setup_reps):
            # Only one set-up's state is alive at a time, as for a user, so
            # ru_maxrss does not depend on where the allocator happened to
            # place two of them side by side.
            state = None
            gc.collect()
            restore = None
            if tracer is not None and rep == wl.setup_reps - 1:
                tracer.op = SETUP
                restore = install(tracer, SETUP_TARGETS)
            try:
                k = probe.mark()
                t0 = time.perf_counter()
                state = wl.setup(inputs)
                wall = time.perf_counter() - t0 - probe.taken(k)
                # A set-up may be shorter than the probe's interval, and the
                # host's speed may change between repetitions: scale each
                # one by the speed of its moment.
                setup_walls.append(wall)
                setup_adjusted.append(wall * probe.recent_scale())
            finally:
                if restore is not None:
                    restore()
        del inputs
        problems = wl.prepare(state, seed)
        gc.collect()
        ops = run_ops(wl, state, seconds, tracer, probe)

    op_digests = [o["digest"] for o in ops if o.get("digest") is not None]
    run_digest = wl.stream_digest if wl.stream_digest is not None else (
        op_digests[0] if op_digests else None)
    shared = problems + digest_problems(op_digests, run_digest, seed, pinned, previous)
    attempted = len(ops)
    failed = attempted if shared else sum(not o["ok"] for o in ops)
    record.update(attempted=attempted, failed=failed, digest=run_digest,
                  problems=shared + [f"op {o['i']}: {p}" for o in ops
                                     for p in o.get("problems", [])])

    good = [o for o in ops if o["ok"]] or ops
    if trace:
        traced_ops = [o for o in good if o["traced"]]
        extra = wl.trace_extra(tracer)
        extra["bytes_written"] = sum(o["bytes"] for o in traced_ops)
        metrics, absent = layer_metrics(
            tracer, {o["i"]: o["wall"] for o in traced_ops}, wl.layers, extra,
            probe.intervals)
        untraced = [o["adjusted"] for o in good if not o["traced"]]
        metrics["trace.overhead_s"] = (
            statistics.median(o["adjusted"] for o in traced_ops) - statistics.median(untraced)
            if traced_ops and untraced else 0.0)
        record["absent"] = absent + tracer.missing
        record["spans"] = tracer.spans
        record["traced_op_s"] = statistics.median([o["wall"] for o in traced_ops] or [0.0])
    else:
        adjusted = [o["adjusted"] for o in good]
        metrics = {
            "setup_s": statistics.median(setup_adjusted),
            "op_s.p50": statistics.median(adjusted),
            "samples_per_s": sum(o["samples"] for o in good) / sum(adjusted),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        record["wall"] = {"setup_s": statistics.median(setup_walls),
                          "op_s.p50": statistics.median(o["wall"] for o in good)}
    record["metrics"] = metrics
    record["probe"] = {"slices": len(probe.slices),
                       "mean_slice_s": statistics.fmean(probe.slices or [0.0]),
                       "nominal_slice_s": NOMINAL_SLICE_S}
    record["ops"] = [{k: o[k] for k in ("i", "traced", "wall", "adjusted", "ok", "traceback")
                      if k in o} for o in ops]
    record["setup_walls"] = setup_walls
    record["named"] = named_metrics(wl, record, good) if not trace else {}
    record["host_end"] = host_record()
    return record


def run_ops(wl, state, seconds: float, tracer, probe) -> list[dict]:
    """The closed loop: one operation at a time until the next would end
    past ``seconds``; at least ``wl.min_ops``, and with a tracer at least
    one traced and one untraced, alternating."""
    from spans import install

    ops = []
    start = time.perf_counter()
    i = 0
    while True:
        traced = tracer is not None and i % 2 == 0
        restore = None
        if traced:
            tracer.op = i
            restore = install(tracer, wl.targets())
        op = {"i": i, "traced": traced, "ok": True, "samples": 0, "bytes": 0,
              "batch_times": None}
        mark = probe.mark()
        t0 = time.perf_counter()
        try:
            with tracer.span("bench.op") if traced else nullcontext():
                result = wl.operation(state, i, tracer if traced else None, probe)
        except Exception as exc:  # the operation failed: count it, keep going
            op["ok"] = False
            op["problems"] = [f"{type(exc).__name__}: {exc}"]
            op["traceback"] = traceback.format_exc()
            result = None
        finally:
            op["wall"], op["adjusted"] = probe.adjust(time.perf_counter() - t0, mark)
            if restore is not None:
                restore()
        if result is not None:
            op["problems"] = wl.check(state, result)
            op["digest"] = wl.digest(state, result)
            op["ok"] = not op["problems"]
            op["samples"] = result["samples"]
            op["batch_times"] = result.get("batch_times")
            op["bytes"] = result.get("bytes", 0)
        ops.append(op)
        i += 1
        elapsed = time.perf_counter() - start
        typical = statistics.median(o["wall"] for o in ops)
        if i >= max(wl.min_ops, 2 if tracer is not None else 1) and \
                elapsed + typical > seconds:
            return ops


def named_metrics(wl, record: dict, good: list) -> dict:
    """The per-workload metric names printed beside the gated ones, with sample counts."""
    m, wall = record["metrics"], record["wall"]
    ops = f"median of {len(good)} operations" if len(good) > 1 else "one operation"
    out = {"setup_s": (m["setup_s"], "s",
                       f"median of {len(record['setup_walls'])} set-ups, speed-adjusted; "
                       f"wall {wall['setup_s']:.4g} s"),
           f"{wl.op_metric}.p50": (m["op_s.p50"], "s",
                                   f"{ops}, speed-adjusted; wall {wall['op_s.p50']:.4g} s")}
    if wl.per_batch:
        times = [t for o in good for t in (o["batch_times"] or [])]
        out["batch_ms.p50"] = (1000 * statistics.median(times), "ms",
                               f"{len(times)} batches, wall")
        p = top_percentile(len(times))
        if p is not None:
            out[f"batch_ms.p{p:g}"] = (1000 * percentile(times, p), "ms",
                                       f"{len(times)} batches, wall")
    out["samples_per_s"] = (m["samples_per_s"], "1/s",
                            f"{sum(o['samples'] for o in good)} samples, speed-adjusted")
    out["peak_rss_mb"] = (m["peak_rss_mb"], "MiB", "ru_maxrss")
    return out


def metric_units() -> dict:
    """Metric name -> unit, from BENCHMARK.json."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}


def print_record(record: dict) -> None:
    for key in ("host_start", "host_end"):
        h = record[key]
        print(f"# {key}: nproc={h['nproc']} python={h['python']} numpy={h['numpy']} "
              f"loadavg_1m={h['loadavg_1m']:.2f}")
    print(f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"attempted={record['attempted']} failed={record['failed']} "
          f"error_rate={record['failed'] / record['attempted']:.4f} "
          f"digest={record['digest']}")
    for name, (value, unit, basis) in record["named"].items():
        print(f"{name} = {value:.6g} {unit}  ({basis})")
    if record["trace"]:
        units = metric_units()
        for name, value in sorted(record["metrics"].items()):
            print(f"{name} = {value:.6g} {units[name]}")
        if record["absent"]:
            print(f"# absent (expected but never fired): {', '.join(record['absent'])}")
        op = record["traced_op_s"]
        shares = sorted(((v, k) for k, v in record["metrics"].items()
                         if units[k] == "s" and not k.startswith(("trace.", "runner.split_s"))
                         and v > 0), reverse=True)
        if op > 0:
            print("# share of the traced operation (" + f"{op:.4g} s): " + ", ".join(
                f"{k} {100 * v / op:.1f}%" for v, k in shares))
    for p in record["problems"]:
        print(f"# problem: {p}")


def result_line(record: dict) -> str:
    units = metric_units()
    metrics = {name: {"value": value, "unit": units[name]}
               for name, value in record["metrics"].items()}
    return json.dumps({"correct": record["failed"] == 0 and not record["problems"],
                       "attempted": record["attempted"], "failed": record["failed"],
                       "metrics": metrics})


def save(record: dict) -> Path:
    stem = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}"
    results = STATE_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    spans = record.pop("spans", None)
    if spans is not None:
        traces = STATE_DIR / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        origin = spans[0][1] if spans else 0.0
        with open(traces / f"{stem}.jsonl", "w", encoding="utf-8") as fh:
            for sid, (name, start, end, parent, op) in enumerate(spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": start - origin,
                                     "end": end - origin, "parent": parent,
                                     "op": op}) + "\n")
    path = results / f"{stem}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return path


def run_one(name: str, seed: int, seconds: int, trace: bool) -> int:
    from workloads import WORKLOADS
    pinned = json.loads(MANIFEST.read_text())["pinned_digests"].get(name)
    ledger_path = STATE_DIR / "digests.json"
    ledger = json.loads(ledger_path.read_text()) if ledger_path.is_file() else {}
    seen = ledger.setdefault(name, {})
    work = STATE_DIR / "work" / f"{name}-{os.getpid()}"
    work.mkdir(parents=True)
    cwd = os.getcwd()
    try:
        os.chdir(work)
        record = measure(WORKLOADS[name](), seed, seconds, trace, pinned,
                         seen.get(str(seed)))
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)
    if record["failed"] == 0 and not record["problems"] and str(seed) not in seen:
        seen[str(seed)] = record["digest"]
        ledger_path.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")
    save(record)
    print_record(record)
    print(result_line(record), flush=True)
    return 0


def run_all(seed: int, seconds: int, trace: bool) -> int:
    """Every workload in its own fresh process, one at a time."""
    code = 0
    for name in WORKLOAD_NAMES:
        print(f"## {name}", flush=True)
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", name, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", str(int(trace))],
                              stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            code = proc.returncode or 1
            continue
        result = json.loads(lines[-1])
        error_rate = result["failed"] / result["attempted"]
        print(f"error_rate = {error_rate:g} failed/attempted  "
              f"({result['failed']} of {result['attempted']})", flush=True)
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "dins" / "__init__.py").is_file():
        print(f"perfbench: no dins sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
