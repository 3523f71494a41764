"""pi1curves benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  The workloads are described in
BENCHMARK.json and built in perfbench/workloads.py.  The benchmark is a
closed loop with one client: a single process, no threads, each item
starting when the previous one has finished.  A run starts fresh worker
interpreters one after another, each of which sets up and runs one batch,
until --seconds have passed and at least MIN_CHILDREN batches have run.
Every batch has the workload's fixed composition; batch K of a run draws
its inputs from (seed, K), so a run averages over several samples of the
workload while the same seed always yields the same inputs.  A fresh
interpreter per batch matters because the package keeps process-global
caches (the interned permutation table, the loaded catalog), which a
repeated in-process batch would inherit.

All times are scaled to the reference host speed (see worker.py): a
shared host, such as the VM of baseline.json, can run the same batch up to
twice as slowly in some stretches as in others, in process CPU time as
much as in wall time, and scaling by a calibration loop timed in the same
interpreter, before, during and after the batch, removes most of that.

--trace 0 prints the end-to-end metrics of the batches.  --trace 1 runs
each batch twice, untraced and then traced, and prints the per-layer
metrics of the traced runs: counts of batch 0, which repeat exactly for a
seed, and the median self times.  The median traced batch time minus the
median untraced batch time is the tracing overhead.  Every batch checks
every output, and the traced and untraced runs of a batch must produce the
same output digest.

Before the result, one line `{"record": ...}` gives the provenance (git
sha when the checkout is a git repository, a digest of the package
source, Python version, nproc, seed, items per batch) and the details
behind the metrics; it is also appended to perfbench/out/results.jsonl.
The last line of stdout is the result object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import METRICS, unit

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "pi1curves"
OUT = HERE / "out"

WORKLOADS = ("glue-sweep", "census-descent", "requests", "chain")
MIN_CHILDREN = 3          # untraced batches per run, at least
MIN_TRACED = 2            # of each kind when tracing
CHILD_TIMEOUT_S = 120
PERCENTILES = (50, 75, 90, 95, 99, 99.9)


def run_child(workload: str, seed: int, batch: int, trace: bool,
              spans: Path | None):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--batch", str(batch),
           "--trace", "1" if trace else "0"]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    started = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = (result["ready"] - started) * result["scale"]
    return result


def tail_percentile(samples_guaranteed: int) -> float:
    """Highest listed percentile with at least ten samples beyond it."""
    best = PERCENTILES[0]
    for p in PERCENTILES:
        if samples_guaranteed * (1 - p / 100.0) >= 10:
            best = p
    return best


def percentile(sorted_values, p: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def provenance(workload: str, seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*")):
        if path.suffix in (".py", ".json"):
            digest.update(path.relative_to(PACKAGE).as_posix().encode())
            digest.update(path.read_bytes())
    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        git_sha = proc.stdout.strip() or None
    return {"workload": workload, "seed": seed, "git_sha": git_sha,
            "src_sha256": digest.hexdigest(),
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="pi1curves benchmark (see BENCHMARK.json)")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: package source not found at {PACKAGE}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-{args.seed}.json"

    plain, traced = [], []
    deadline = time.monotonic() + args.seconds
    while True:
        if args.trace:
            enough = len(traced) == len(plain) >= MIN_TRACED
        else:
            enough = len(plain) >= MIN_CHILDREN
        if enough and time.monotonic() >= deadline:
            break
        traced_now = bool(args.trace) and len(traced) < len(plain)
        batch = len(traced) if traced_now else len(plain)
        result = run_child(args.workload, args.seed, batch, traced_now,
                           spans_path if traced_now else None)
        (traced if traced_now else plain).append(result)

    children = plain + traced
    same_outputs = all(p["digest"] == t["digest"]
                       for p, t in zip(plain, traced))
    wrong = sum(c["wrong"] for c in children)
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    items_per_batch = plain[0]["attempted"]
    latencies = sorted(x for c in plain for x in c["latencies_ms"])
    tail_p = tail_percentile(items_per_batch * MIN_CHILDREN)
    wall = statistics.median(c["wall_s"] for c in plain)

    record = provenance(args.workload, args.seed)
    record.update({
        "seconds": args.seconds, "trace": args.trace,
        "items_per_batch": items_per_batch,
        "batches": {"untraced": len(plain), "traced": len(traced)},
        "latency_samples": len(latencies),
        "unscaled_wall_s": statistics.median(c["unscaled_wall_s"]
                                             for c in plain),
        "scale": statistics.median(c["scale"] for c in plain),
        "tail_percentile": tail_p,
        "failed_frac": failed / attempted,
        "output_digests": [c["digest"] for c in plain],
        "known_crash_frac": plain[0]["known_crashes"] / items_per_batch,
        "errors": plain[0]["errors"],
    })

    correct = wrong == 0 and same_outputs
    if args.trace:
        layers = {k: v for k, v in traced[0]["layers"].items()
                  if not k.endswith(".self_s")}
        for name in METRICS:
            if name.endswith(".self_s"):
                layers[name] = statistics.median(
                    c["layers"][name] for c in traced)
        layers["trace.overhead_s"] = statistics.median(
            c["wall_s"] for c in traced) - wall
        metrics = {name: {"value": layers[name], "unit": unit(name)}
                   for name in METRICS}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(
                c["setup_s"] for c in plain), "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "item_p50_ms": {"value": percentile(latencies, 50), "unit": "ms"},
            "item_tail_ms": {"value": percentile(latencies, tail_p),
                             "unit": "ms"},
            "peak_rss_mb": {"value": statistics.median(
                c["rss_mb"] for c in plain), "unit": "MB"},
        }
    record["metrics"] = {k: v["value"] for k, v in metrics.items()}
    line = json.dumps({"record": record})
    with open(OUT / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(line + "\n")
    print(line)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
