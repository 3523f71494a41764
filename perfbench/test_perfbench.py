"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def catalog():
    return workloads.load_catalog()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_follow_the_seed(name, catalog):
    make_inputs = workloads.WORKLOADS[name][0]
    first = json.dumps(make_inputs(3, catalog))
    assert json.dumps(make_inputs(3, catalog)) == first
    assert json.dumps(make_inputs(4, catalog)) != first


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_batch_composition_is_fixed(name, catalog):
    """Only the seed's choices vary; the kinds and sizes of items do not."""
    make_inputs = workloads.WORKLOADS[name][0]

    def shape(items):
        keys = ("kind", "curve", "op")
        return sorted(tuple(str(item.get(k)) for k in keys)
                      + (str(item.get("argv", [""])[0]),)
                      for item in items)

    assert shape(make_inputs(5, catalog)) == shape(make_inputs(6, catalog))


def _worker(name, trace):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name,
           "--seed", "9", "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          env=dict(os.environ, PYTHONHASHSEED="0"),
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_batch_matches_untraced(name):
    plain = _worker(name, 0)
    traced = _worker(name, 1)
    again = _worker(name, 1)
    assert plain["wrong"] == traced["wrong"] == 0
    assert plain["digest"] == traced["digest"] == again["digest"]
    counts = {k: v for k, v in traced["layers"].items()
              if not k.endswith(".self_s")}
    assert counts == {k: v for k, v in again["layers"].items()
                      if not k.endswith(".self_s")}
    assert set(traced["layers"]) == set(tracing.METRICS) - {"trace.overhead_s"}


def test_benchmark_file_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert sorted(run.WORKLOADS) == sorted(workloads.WORKLOADS)
    per_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert per_layer == {m: tracing.unit(m) for m in tracing.METRICS}
    targets = json.loads((HERE / "layers.json").read_text())["targets"]
    assert set(targets) == set(per_layer)
    workload_names = set(run.WORKLOADS)
    for target in targets.values():
        assert set(target["on"]) <= workload_names


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(93) == 75
    assert run.tail_percentile(192) == 90
    assert run.tail_percentile(520) == 95
    assert run.tail_percentile(1000) == 99
    values = list(range(1, 101))
    assert run.percentile(values, 50) == 50
    assert run.percentile(values, 95) == 95


def test_known_crashes_are_counted_not_hidden(catalog):
    items = workloads.requests_inputs(1, catalog)
    crashing = [i for i in items if "code" in i and i["code"] is None]
    known = [entry for entry in workloads.MALFORMED if entry[3] is None]
    assert len(crashing) == len(known) == 4


def test_refuses_to_run_without_the_package():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in HERE.iterdir():
            if path.is_file():
                shutil.copy(path, bare / "perfbench")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "chain",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=bare, timeout=60)
        assert proc.returncode != 0
        assert proc.stdout == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)
