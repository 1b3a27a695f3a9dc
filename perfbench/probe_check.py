#!/usr/bin/env python3
"""Does the speed-adjusted time follow a known slowdown the way wall time does?

Pulls short runs of stream-1m batches in one process, in pairs: one run
as is and one that pays a fixed extra cost after every batch, in
alternating order (plain first, then injected first). A pair takes a
second or two, so the host's speed drift, which moves on a scale of tens
of seconds, is nearly the same for both halves, and the median of the
per-pair ratios is the slowdown in wall time. The same ratio in
speed-adjusted time shows how much of that slowdown the adjusted figures
keep. If the probe shared the injected cost (say, because that work
evicts the probe's caches or grows the heap it allocates from), its
slices would lengthen during injected runs and the adjusted slowdown
would fall short of the wall one. Run from the root of a checkout::

    python3 perfbench/probe_check.py --cost mem

``--cost`` is ``cpu`` (interpreter arithmetic), ``mem`` (random reads
over a 64 MB array) or ``heap`` (3000 tuples kept alive per batch, so the
program's garbage collector does more work).
"""

from __future__ import annotations

import argparse
import itertools
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402
from speed import SpeedProbe  # noqa: E402

PAIRS = 20
BATCHES = 150       # per run: about a second, so both halves of a pair see one speed
SEED = 5


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--cost", choices=("cpu", "mem", "heap"), required=True)
    args = ap.parse_args()

    big = np.random.default_rng(0).random(8_000_000)
    picks = np.random.default_rng(1).integers(0, big.size, 60_000)
    kept: list = []
    cost = {
        "cpu": lambda: sum(i * i for i in range(40_000)),
        "mem": lambda: big[picks].sum() + big[::16].sum(),
        "heap": lambda: kept.append([(i, i + 1) for i in range(3000)]),
    }[args.cost]

    wl = workloads.Stream1M()
    work = HERE.parent / ".perfbench" / "work" / f"probe-check-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        os.chdir(work)
        graph = wl.setup(wl.generate(SEED))
        ratios: dict[str, list] = {"wall": [], "adjusted": [], "slice": []}
        with SpeedProbe() as probe:

            def one_run(injecting: bool) -> tuple[float, float, float]:
                kept.clear()
                stream = workloads.sample_batches(graph, "dins", wl.config)
                mark = probe.mark()
                t0 = time.perf_counter()
                for _ in itertools.islice(stream, BATCHES):
                    if injecting:
                        cost()
                wall, adjusted = probe.adjust(time.perf_counter() - t0, mark)
                return wall, adjusted, statistics.fmean(probe.slices[mark:] or [np.nan])

            one_run(False)                                  # warm-up
            for p in range(PAIRS):
                order = (False, True) if p % 2 == 0 else (True, False)
                got = {inj: one_run(inj) for inj in order}
                for key, (a, b) in zip(ratios, zip(got[False], got[True])):
                    ratios[key].append(b / a)
                print(f"pair {p}: wall x{ratios['wall'][-1]:.3f} "
                      f"adjusted x{ratios['adjusted'][-1]:.3f} "
                      f"slice x{ratios['slice'][-1]:.3f}", flush=True)
    finally:
        os.chdir(HERE.parent)
        shutil.rmtree(work, ignore_errors=True)

    wall, adjusted = (statistics.median(ratios[k]) for k in ("wall", "adjusted"))
    slices = statistics.median(r for r in ratios["slice"] if r == r)
    print(f"{args.cost}: median slowdown wall x{wall:.3f}, adjusted x{adjusted:.3f}; "
          f"the adjusted time keeps {(adjusted - 1) / (wall - 1):.0%} of the wall "
          f"slowdown; slices x{slices:.3f} in injected runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
