"""Batch-dispatch microbenchmark: rounds/sec, array-native vs scalar.

Two stages.

**Dispatch paths.**  The six array-native protocol ports run end to end —
ring LCR on C_4096, [KPP+15b] LE and the engine-driven [AMP18] agreement
on K_1024, Hirschberg–Sinclair on C_1024, the CPR diameter-2 baseline on
K_1024 and engine-driven Borůvka on C_48 — in three modes:

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

**Million-node rounds.**  n = 10⁶ throughput on the families whose ports
resolve arithmetically, so no edge is ever materialized: LCR and HS on
C_n with a capped round budget (a full election is Θ(n) rounds), and a
full KPP trial on K_n with directly seeded candidates.

Two speed floors, each on batch vs scalar-fast rounds/sec: batch ≥ 2× on
at least one of the HS/CPR/Borůvka ports (checked under ``--smoke`` too),
and batch ≥ 2× on at least one of the KPP/AMP18 K_1024 ports (full grid
only).  Results land in ``BENCH_batch.json`` at the repo root.  CI runs
``--smoke`` (small sizes, million stage at n = 4096, no file write) so
batch-path regressions show up in PR logs.

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

import numpy as np

from repro.classical.agreement.amp18_engine import classical_agreement_engine
from repro.classical.leader_election.complete_kpp import (
    _KPPBatch,
    classical_le_complete,
    default_referees_complete,
)
from repro.classical.leader_election.diameter2_cpr import classical_le_diameter2
from repro.classical.leader_election.ring import (
    _HSBatch,
    _LCRBatch,
    hirschberg_sinclair_ring,
    lcr_ring,
)
from repro.classical.mst_boruvka import boruvka_mst_engine
from repro.core.candidates import CandidateDraw
from repro.network import graphs
from repro.network.engine import SynchronousEngine
from repro.network.metrics import MetricsRecorder
from repro.network.topology import CompleteTopology
from repro.util.rng import RandomSource

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_batch.json"

#: Each floor asks batch ≥ this × scalar-fast rounds/sec on one of its ports.
TARGET_SPEEDUP = 2.0

#: (claim, protocols, checked under --smoke).
FLOORS = (
    (
        "batch >= 2x scalar-fast rounds/sec on a K_1024 port",
        ("le-complete/classical", "agreement/amp18-engine"),
        False,
    ),
    (
        "batch >= 2x scalar-fast rounds/sec on an HS, CPR or Boruvka port",
        ("le-ring/hs", "le-diameter2/classical", "mst/boruvka-engine"),
        True,
    ),
)

MODES = ("batch", "scalar-fast", "scalar-reference")

MILLION = 1_000_000

#: Smoke-mode size of the million-node stage.
MILLION_SMOKE = 4096


# -- seeded trials (fingerprint = everything observable) ----------------------


def _le_fingerprint(result):
    return (
        result.messages,
        result.rounds,
        result.leader,
        tuple(sorted((v, s.name) for v, s in result.statuses.items())),
    )


def _le_trial(driver, build=None):
    """Trial factory for an LE driver called as ``driver(n or topology,
    rng, node_api=...)``; ``build`` makes the topology once, untimed."""

    def make(n):
        first = n if build is None else build(n)
        return lambda node_api: _le_fingerprint(
            driver(first, RandomSource(7), node_api=node_api)
        )

    return make


def _trial_amp18(n):
    inputs = [1 if v % 10 < 3 else 0 for v in range(n)]

    def trial(node_api):
        result = classical_agreement_engine(
            inputs, RandomSource(7), node_api=node_api
        )
        return (result.messages, result.rounds, result.agreed_value)

    return trial


def _trial_boruvka(n):
    topology = graphs.cycle(n)
    weight_rng = RandomSource(99)
    weights = {}
    for u, v in topology.edges():
        a, b = (u, v) if u < v else (v, u)
        weights[(a, b)] = weight_rng.uniform()

    def trial(node_api):
        result = boruvka_mst_engine(
            topology, weights, RandomSource(7), node_api=node_api
        )
        return (
            result.messages,
            result.rounds,
            tuple(result.edges),
            round(result.total_weight, 12),
        )

    return trial


#: (protocol, topology, trial factory, full n, smoke n).
WORKLOADS = [
    ("le-ring/lcr", "cycle", _le_trial(lcr_ring), 4096, 256),
    ("le-complete/classical", "complete", _le_trial(classical_le_complete), 1024, 128),
    ("agreement/amp18-engine", "complete", _trial_amp18, 1024, 128),
    ("le-ring/hs", "cycle", _le_trial(hirschberg_sinclair_ring), 1024, 128),
    (
        "le-diameter2/classical",
        "complete",
        _le_trial(classical_le_diameter2, graphs.complete),
        1024,
        128,
    ),
    ("mst/boruvka-engine", "cycle", _trial_boruvka, 48, 16),
]


# -- stage 1: the three dispatch paths ----------------------------------------


def _time_mode(trial, mode: str, repeats: int):
    node_api = "batch" if mode == "batch" else "scalar"
    backend = "reference" if mode == "scalar-reference" else "fast"
    previous = os.environ.get("REPRO_ENGINE")
    os.environ["REPRO_ENGINE"] = backend
    try:
        best = float("inf")
        fingerprint = None
        for _ in range(repeats):
            start = time.perf_counter()
            fingerprint = trial(node_api)
            best = min(best, time.perf_counter() - start)
        messages, rounds = fingerprint[0], fingerprint[1]
        return {
            "rounds": rounds,
            "seconds": round(best, 6),
            "rounds_per_sec": round(rounds / best, 2),
            "messages": messages,
            "messages_per_sec": round(messages / best, 1),
        }, fingerprint
    finally:
        if previous is None:
            del os.environ["REPRO_ENGINE"]
        else:
            os.environ["REPRO_ENGINE"] = previous


def run_dispatch(smoke: bool) -> list[dict]:
    repeats = 1 if smoke else 3
    results = []
    for protocol, family, make_trial, n_full, n_smoke in WORKLOADS:
        n = n_smoke if smoke else n_full
        trial = make_trial(n)
        entry = {"protocol": protocol, "topology": family, "n": n, "modes": {}}
        fingerprints = {}
        for mode in MODES:
            entry["modes"][mode], fingerprints[mode] = _time_mode(
                trial, mode, repeats
            )
        if len(set(fingerprints.values())) != 1:
            raise AssertionError(
                f"{protocol} (n={n}) diverged across dispatch paths: "
                f"{fingerprints}"
            )
        modes = entry["modes"]
        entry["speedup_batch_vs_scalar_fast"] = round(
            modes["batch"]["rounds_per_sec"]
            / modes["scalar-fast"]["rounds_per_sec"],
            2,
        )
        entry["speedup_batch_vs_reference"] = round(
            modes["batch"]["rounds_per_sec"]
            / modes["scalar-reference"]["rounds_per_sec"],
            2,
        )
        results.append(entry)
        print(
            f"{protocol:<24} n={n:<5} "
            f"batch {modes['batch']['rounds_per_sec']:>10,.0f} r/s | "
            f"scalar-fast {modes['scalar-fast']['rounds_per_sec']:>10,.0f} r/s | "
            f"reference {modes['scalar-reference']['rounds_per_sec']:>10,.0f} r/s | "
            f"batch/fast {entry['speedup_batch_vs_scalar_fast']:.2f}x"
        )
    return results


# -- stage 2: million-node rounds ---------------------------------------------


def _million_lcr(n: int, max_rounds: int = 64):
    """C_n Chang–Roberts, round budget capped (full election is Θ(n))."""
    topology = graphs.cycle(n)
    ids = (np.random.default_rng(5).permutation(n) + 1).astype(np.int64)
    return topology, _LCRBatch(topology, ids), max_rounds


def _million_hs(n: int, max_rounds: int = 48):
    """C_n Hirschberg–Sinclair, capped mid-election."""
    topology = graphs.cycle(n)
    ids = (np.random.default_rng(6).permutation(n) + 1).astype(np.int64)
    return topology, _HSBatch(topology, ids), max_rounds


def _million_kpp(n: int, candidates: int = 16):
    """K_n KPP, full four-round trial with directly seeded candidates.

    The driver's candidate lottery is one column draw and would run at
    n = 10⁶; what blocks the driver there is its rank space {1, …, n⁴},
    which overflows the port's int64 rank column past n = 55,108.  So
    the bench seeds ``candidates`` candidates with ranks below 2⁴⁰ (and
    real per-candidate streams for their referee draws) and runs the
    engine end to end.
    """
    referees = default_referees_complete(n)
    picker = np.random.default_rng(8)
    chosen = np.sort(picker.choice(n, size=candidates, replace=False)).tolist()
    ranks = picker.integers(1, 2**40, size=candidates).tolist()
    draw = CandidateDraw(n=n, candidates=chosen, ranks=dict(zip(chosen, ranks)))
    streams = dict(zip(chosen, RandomSource(31).spawn_many(candidates)))
    program = _KPPBatch(n, draw, streams, referees)
    return CompleteTopology(n), program, 4


#: (protocol, topology, set-up, note).
MILLION_GRID = [
    ("le-ring/lcr", "cycle", _million_lcr, "64-round cap (full run is Θ(n) rounds)"),
    ("le-ring/hs", "cycle", _million_hs, "48-round cap (full run is Θ(n) rounds)"),
    ("le-complete/classical", "complete", _million_kpp, "full 4-round trial"),
]


def run_million(n: int) -> list[dict]:
    rows = []
    for protocol, family, setup, note in MILLION_GRID:
        topology, program, max_rounds = setup(n)
        metrics = MetricsRecorder()
        engine = SynchronousEngine(topology, program, metrics, label="bench")
        start = time.perf_counter()
        engine.run(max_rounds=max_rounds)
        seconds = time.perf_counter() - start
        row = {
            "protocol": protocol,
            "topology": family,
            "n": n,
            "note": note,
            "edges_materialized": False,
            "rounds": metrics.rounds,
            "messages": metrics.messages,
            "seconds": round(seconds, 3),
            "rounds_per_sec": round(metrics.rounds / seconds, 3),
            "messages_per_sec": round(metrics.messages / seconds, 1),
        }
        rows.append(row)
        print(
            f"million {protocol:<24} {family:<9} n={n:<7} "
            f"{row['rounds']} rounds, {row['messages']:,} msgs in "
            f"{row['seconds']}s  ({row['messages_per_sec']:,.0f} msg/s)"
        )
    return rows


def check_floors(results: list[dict], smoke: bool) -> list[dict]:
    speedups = {
        entry["protocol"]: entry["speedup_batch_vs_scalar_fast"]
        for entry in results
    }
    floors = []
    for claim, protocols, in_smoke in FLOORS:
        best = max(speedups[name] for name in protocols)
        floor = {
            "claim": claim,
            "protocols": list(protocols),
            "speedup": TARGET_SPEEDUP,
            "best": best,
            "checked": in_smoke or not smoke,
        }
        floors.append(floor)
        print(
            f"{claim}: best {best:.2f}x"
            + ("" if floor["checked"] else " (not checked under --smoke)")
        )
    return floors


def run_bench(smoke: bool) -> dict:
    results = run_dispatch(smoke)
    return {
        "benchmark": "batch-dispatch",
        "smoke": smoke,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "floors": check_floors(results, smoke),
        "results": results,
        "million_node": run_million(MILLION_SMOKE if smoke else MILLION),
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
    if not args.smoke or args.output:
        OUTPUT.write_text(json.dumps(payload, indent=1) + "\n")
        print(f"wrote {OUTPUT}")
    missed = [
        floor["claim"]
        for floor in payload["floors"]
        if floor["checked"] and floor["best"] < TARGET_SPEEDUP
    ]
    if missed:
        print(f"SPEEDUP TARGET MISSED: {'; '.join(missed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
