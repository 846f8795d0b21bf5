"""Batch-dispatch microbenchmark: rounds/sec, array-native vs scalar.

Runs the three array-native protocol ports end-to-end — ring LCR on
C_4096, [KPP+15b] LE and the engine-driven [AMP18] agreement on K_1024 —
in three modes:

* ``batch``            — the array-native port on the batch dispatch core
  (one ``step_batch`` call per round, no per-node dispatch, no Message
  objects);
* ``scalar-fast``      — the scalar ``Node`` implementation under the
  ``fast`` backend, i.e. the node list run on the same batch core through
  :class:`~repro.network.batch.ScalarAdapter` (per-node ``step`` calls,
  ``Message`` payloads);
* ``scalar-reference`` — the scalar implementation on the
  one-message-at-a-time oracle loop.

Every mode runs the *same* seeded trial, and the bench asserts the
results are bit-identical before it reports a single number — the
speedup column is never comparing different computations.

Results land in ``BENCH_batch.json`` at the repo root.  The acceptance
bar: batch ≥ 2× scalar-fast rounds/sec for at least one K_1024 protocol.
CI runs ``--smoke`` (small sizes, no file write) so batch-path
regressions show up in PR logs.

Usage::

    PYTHONPATH=src python benchmarks/bench_batch.py          # full grid
    PYTHONPATH=src python benchmarks/bench_batch.py --smoke  # CI-sized
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import sys
import time

from repro.classical.agreement.amp18_engine import classical_agreement_engine
from repro.classical.leader_election.complete_kpp import classical_le_complete
from repro.classical.leader_election.ring import lcr_ring
from repro.util.rng import RandomSource

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_batch.json"

#: The acceptance bar: batch ≥ 2× scalar-fast rounds/sec on a K_1024 port.
TARGET_SPEEDUP = 2.0

MODES = ("batch", "scalar-fast", "scalar-reference")


def _trial_lcr(n: int, node_api: str):
    result = lcr_ring(n, RandomSource(7), node_api=node_api)
    return result, (result.messages, result.rounds, result.leader)


def _trial_kpp(n: int, node_api: str):
    result = classical_le_complete(n, RandomSource(7), node_api=node_api)
    return result, (result.messages, result.rounds, result.leader)


def _trial_amp18(n: int, node_api: str):
    inputs = [1 if v % 10 < 3 else 0 for v in range(n)]
    result = classical_agreement_engine(inputs, RandomSource(7), node_api=node_api)
    return result, (result.messages, result.rounds, result.agreed_value)


WORKLOADS = [
    ("le-ring/lcr", "cycle", _trial_lcr),
    ("le-complete/classical", "complete", _trial_kpp),
    ("agreement/amp18-engine", "complete", _trial_amp18),
]


def _time_mode(trial, n: int, mode: str, repeats: int):
    node_api = "batch" if mode == "batch" else "scalar"
    backend = "reference" if mode == "scalar-reference" else "fast"
    previous = os.environ.get("REPRO_ENGINE")
    os.environ["REPRO_ENGINE"] = backend
    try:
        best = float("inf")
        fingerprint = None
        for _ in range(repeats):
            start = time.perf_counter()
            result, fingerprint = trial(n, node_api)
            best = min(best, time.perf_counter() - start)
        rounds = fingerprint[1]
        return {
            "rounds": rounds,
            "seconds": round(best, 6),
            "rounds_per_sec": round(rounds / best, 2),
            "messages": fingerprint[0],
            "messages_per_sec": round(fingerprint[0] / best, 1),
        }, fingerprint
    finally:
        if previous is None:
            del os.environ["REPRO_ENGINE"]
        else:
            os.environ["REPRO_ENGINE"] = previous


def run_bench(smoke: bool) -> dict:
    repeats = 1 if smoke else 3
    results = []
    for protocol, family, trial in WORKLOADS:
        if family == "cycle":
            n = 256 if smoke else 4096
        else:
            n = 128 if smoke else 1024
        entry = {"protocol": protocol, "topology": family, "n": n, "modes": {}}
        fingerprints = {}
        for mode in MODES:
            entry["modes"][mode], fingerprints[mode] = _time_mode(
                trial, n, mode, repeats
            )
        if len(set(fingerprints.values())) != 1:
            raise AssertionError(
                f"{protocol} diverged across dispatch paths: {fingerprints}"
            )
        entry["speedup_batch_vs_scalar_fast"] = round(
            entry["modes"]["batch"]["rounds_per_sec"]
            / entry["modes"]["scalar-fast"]["rounds_per_sec"],
            2,
        )
        entry["speedup_batch_vs_reference"] = round(
            entry["modes"]["batch"]["rounds_per_sec"]
            / entry["modes"]["scalar-reference"]["rounds_per_sec"],
            2,
        )
        results.append(entry)
        print(
            f"{protocol:<24} n={n:<5} "
            f"batch {entry['modes']['batch']['rounds_per_sec']:>10,.0f} r/s | "
            f"scalar-fast {entry['modes']['scalar-fast']['rounds_per_sec']:>10,.0f} r/s | "
            f"reference {entry['modes']['scalar-reference']['rounds_per_sec']:>10,.0f} r/s | "
            f"batch/fast {entry['speedup_batch_vs_scalar_fast']:.2f}x"
        )
    return {
        "benchmark": "batch-dispatch",
        "smoke": smoke,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "target": {
            "claim": "batch >= 2x scalar-fast rounds/sec on a K_1024 port",
            "speedup": TARGET_SPEEDUP,
        },
        "results": results,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="CI-sized run")
    parser.add_argument(
        "--output", action="store_true",
        help="write BENCH_batch.json even in smoke mode",
    )
    args = parser.parse_args(argv)
    payload = run_bench(args.smoke)
    k_speedups = [
        entry["speedup_batch_vs_scalar_fast"]
        for entry in payload["results"]
        if entry["topology"] == "complete"
    ]
    best = max(k_speedups)
    print(
        f"best K_n batch/scalar-fast speedup: {best:.2f}x "
        f"(target >= {TARGET_SPEEDUP}x)"
    )
    if not args.smoke or args.output:
        OUTPUT.write_text(json.dumps(payload, indent=1) + "\n")
        print(f"wrote {OUTPUT}")
    if not args.smoke and best < TARGET_SPEEDUP:
        print("SPEEDUP TARGET MISSED", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
