"""One benchmark batch in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --batch K --trace 0|1

Set-up (imports, catalog load, input generation) runs first; the moment the
first item starts is printed as a CLOCK_MONOTONIC stamp, so the parent can
measure set-up from the moment it started this interpreter.  The batch then
runs each item once, timing it and checking its output, and the result is
printed as one JSON line.  The inputs depend on the run's seed and on the
batch index K, so the batches of one run are different samples of the
workload.  A short calibration loop, timed before the batch, between items
every PROBE_EVERY_S and after the batch, gives the host's speed while the
batch ran, and every reported time is scaled to the reference speed; the
unscaled batch time and the scale factor are reported as well.  With
--trace 1 the package's entry points are wrapped after set-up and the line
also carries the per-layer metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402  (needs the package path above)
from tracing import Tracer  # noqa: E402

EXPECTED_REQUESTS = HERE / "requests_expected.json"
OUT = HERE / "out"


def setup(workload: str, seed: int, batch: int):
    """Inputs and context for one batch; returns (items, ctx, cleanup)."""
    make_inputs = workloads.WORKLOADS[workload][0]
    catalog = workloads.load_catalog()
    items = make_inputs(f"{seed}/{batch}", catalog)
    ctx: dict = {}
    workdir = None
    if workload == "requests":
        workdir = OUT / f"work-{os.getpid()}"
        ctx["argv"] = workloads.requests_prepare(items, workdir)
        ctx["expected"] = json.loads(EXPECTED_REQUESTS.read_text())

    def cleanup():
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)

    return items, ctx, cleanup


# The calibration loop's time at the reference host speed.  A scaled time
# reads as the time the host would have taken had it run at that speed
# throughout.  The value is of the order of the loop's time on the 2-vCPU
# Xeon (2.1 GHz) VM the baseline was taken on; what matters is that it is
# fixed, so that it scales both sides of any comparison alike.
REFERENCE_S = 0.035
PROBE_EVERY_S = 0.5  # batch time between two calibration probes


def reference_loop() -> float:
    """Time a fixed pure-Python loop that uses no package code.

    It composes degree-12 permutations as tuples and interns them in a dict,
    the kind of work the package does most, so its time tracks how fast the
    host runs this interpreter at the moment.  The collector is paused so
    that the loop's time does not depend on how much the batch allocated.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        a = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 0)
        b = (1, 0, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11)
        seen = {}
        p = a
        for i in range(25000):
            p = tuple(p[j] for j in (b if i % 3 else a))
            seen.setdefault(p, i)
        return time.perf_counter() - started
    finally:
        if was_enabled:
            gc.enable()


def run_batch(workload: str, items, ctx, tracer=None) -> dict:
    _, run_item, check = workloads.WORKLOADS[workload]
    clock = time.perf_counter
    latencies, summaries, errors = [], [], []
    item_probe = []  # per latency, the index of the last probe before it
    failed = wrong = 0
    ready = time.monotonic()
    probes = [reference_loop()]
    probing = 0.0
    started = clock()
    next_probe = started + PROBE_EVERY_S
    for index, item in enumerate(items):
        if clock() >= next_probe:
            probes.append(reference_loop())
            probing += probes[-1]
            next_probe = clock() + PROBE_EVERY_S
        ctx["index"] = index
        t0 = clock()
        try:
            summary = run_item(item, ctx)
        except Exception as exc:  # an item that crashes counts as failed
            failed += 1
            summaries.append(["raised", type(exc).__name__])
            errors.append([index, type(exc).__name__, str(exc)[:120]])
            continue
        latencies.append((clock() - t0) * 1000.0)
        item_probe.append(len(probes) - 1)
        summaries.append(summary)
        if not check(item, summary, ctx):
            failed += 1
            wrong += 1
            errors.append([index, "wrong output", repr(summary)[:120]])
    wall = clock() - started - probing
    probes.append(reference_loop())
    scale = REFERENCE_S * len(probes) / sum(probes)
    # an item is scaled by the two probes around it, since the host's speed
    # can change within a batch
    local = [2 * REFERENCE_S / (probes[k] + probes[k + 1])
             for k in range(len(probes) - 1)]
    digest = hashlib.sha256(
        json.dumps(summaries, sort_keys=True, default=repr).encode()
    ).hexdigest()
    result = {
        "ready": ready,
        "wall_s": wall * scale,
        "latencies_ms": [x * local[k]
                         for x, k in zip(latencies, item_probe)],
        "unscaled_wall_s": wall,
        "scale": scale,
        "attempted": len(items),
        # requests that crash today instead of raising a DomainError
        "known_crashes": sum(1 for item in items
                             if "code" in item and item["code"] is None),
        "failed": failed,
        "wrong": wrong,
        "errors": errors[:10],
        "digest": digest,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        perms = sys.modules["pi1curves.perms"]
        layers = tracer.layer_metrics(len(perms._INTERNED))
        result["layers"] = {k: v * scale if k.endswith(".self_s") else v
                            for k, v in layers.items()}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--batch", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="write the traced spans to this file")
    args = parser.parse_args(argv)

    items, ctx, cleanup = setup(args.workload, args.seed, args.batch)
    try:
        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install({name.split(".")[-1]: module
                            for name, module in sys.modules.items()
                            if name.startswith("pi1curves.")})
        result = run_batch(args.workload, items, ctx, tracer)
    finally:
        cleanup()
    if tracer is not None and args.spans:
        Path(args.spans).write_text(json.dumps(tracer.dump_rows()))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
