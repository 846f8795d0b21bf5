"""The benchmark's own tests, on tiny workloads.

Run from the repository root::

    python3 -m pytest perfbench/selftest.py -q

Each workload runs once untraced and once traced in ``--smoke`` mode.  The
tests assert that every metric named in BENCHMARK.json is printed with
its unit, that the correctness checks pass, and that each workload's
dominant layer is the one it was built to isolate.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: The layers each workload isolates (README.md, "Layer map"): on the
#: hot serve path the time goes to the serve layer and the store reads
#: behind it, never to compute.
DOMINANT = {
    "kpp-complete": {"rng"},
    "ring-rounds": {"engine"},
    "claims-mix": {"walk"},
    "serve-mixed": {"serve", "store"},
}


def _run(workload: str, trace: int) -> tuple[int, dict, dict]:
    done = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload", workload,
            "--seed", "5",
            "--seconds", "4",
            "--trace", str(trace),
            "--smoke",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    lines = done.stdout.strip().splitlines()
    record = json.loads(lines[-2].removeprefix("record "))
    return done.returncode, json.loads(lines[-1]), record


def _layer_seconds(metrics: dict) -> dict:
    value = lambda name: metrics[name]["value"]  # noqa: E731
    return {
        "rng": value("rng.spawn_s"),
        "topology": value("topology.build_s"),
        "engine": value("engine.run_s"),
        "walk": value("walk.endpoint_s"),
        "quantum": value("quantum.sample_s"),
        "ledger": value("ledger.charge_s"),
        "driver": value("driver.self_s"),
        "store": value("store.load_s") + value("store.save_s"),
        "serve": value("serve.lookup_s") + value("serve.payload_s"),
    }


@pytest.mark.parametrize("workload", sorted(DOMINANT))
def test_end_to_end_metrics(workload):
    code, result, record = _run(workload, trace=0)
    assert code == 0, record["problems"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert record["host"]["nproc"] >= 1 and record["host"]["kernel_tier"]


@pytest.mark.parametrize("workload", sorted(DOMINANT))
def test_traced_layers(workload):
    code, result, record = _run(workload, trace=1)
    assert code == 0, record["problems"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == expected
    seconds = _layer_seconds(metrics)
    assert max(seconds, key=seconds.get) in DOMINANT[workload], seconds
    assert 0.0 < metrics["trace.coverage"]["value"] <= 1.0
    if workload == "serve-mixed":
        assert metrics["serve.tier_memory_ratio"]["value"] > 0
        assert metrics["serve.tier_store_ratio"]["value"] > 0


def test_refuses_without_the_package(tmp_path):
    """Outside a full checkout it fails fast and prints no result."""
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kpp-complete",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
