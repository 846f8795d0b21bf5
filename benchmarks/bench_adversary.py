"""Adversary-overhead microbenchmark: faulty vs fault-free rounds/sec.

Drives the same deterministic gossip workload as ``bench_engine.py`` over
K_n and the 2-D torus — fault-free, under a mixed static message-fault
adversary (5% drop, 2% delay, 1% duplicate), and under an adaptive
adversary (targeted-leader suppression plus a 5% eavesdrop tap rate) —
on both engine backends.  The interesting numbers:

* **overhead** — faulty vs fault-free rounds/sec on the fast backend:
  the price of drawing fault masks and re-indexing the batched delivery
  arrays each round (the masks are vectorized, so this should stay a
  modest constant factor);
* **adaptive overhead** — adaptive vs static-faulty rounds/sec on the
  fast backend: the *extra* price of the per-round traffic observation
  callback, strategy staging, and the eavesdropping ledger (budget: at
  most 2x the static-mask adversary);
* **speedup under faults** — fast vs reference rounds/sec with the
  adversary armed: the vectorized fault path must keep its edge over the
  per-message oracle loop.

Before any timing, the run's trace fingerprint is asserted bit-identical
across both dispatch paths (the fast backend's batch core, which runs the
scalar nodes through ``ScalarAdapter``, and the reference oracle) — a
benchmark of two paths that disagree would be meaningless.

Results land in ``BENCH_adversary.json``; CI runs ``--smoke``.

Usage::

    PYTHONPATH=src python benchmarks/bench_adversary.py          # full grid
    PYTHONPATH=src python benchmarks/bench_adversary.py --smoke  # CI-sized
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import time

from repro.adversary import AdversarySpec
from repro.network import graphs
from repro.network.engine import BACKENDS, SynchronousEngine
from repro.network.message import Message, congest_capacity_bits
from repro.network.metrics import MetricsRecorder
from repro.network.node import Node
from repro.util.rng import RandomSource

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_adversary.json"

FANOUT = 32

#: The benchmarked static adversary: every message-fault class armed at once.
SPEC = AdversarySpec(drop_rate=0.05, delay_rate=0.02, duplicate_rate=0.01, seed=99)

#: The benchmarked adaptive adversary: traffic-conditioned suppression of
#: the dominant sender plus a per-edge eavesdrop tap (ledger maintained
#: every round) — the observation callback's worst reasonable case.
ADAPTIVE_SPEC = AdversarySpec(
    adaptive="target-leader", adaptive_rate=0.5, eavesdrop_rate=0.05, seed=99
)


class GossipNode(Node):
    """Re-sends one pre-built outbox every round (see bench_engine.py)."""

    def __init__(self, uid, degree, rng, bits):
        super().__init__(uid, degree, rng)
        fanout = FANOUT if FANOUT < degree else degree
        self.outbox = [
            ((uid + j) % degree, Message("gossip", payload=j, bits=bits))
            for j in range(fanout)
        ]

    def step(self, round_index, inbox):
        return self.outbox


def _build(family: str, n: int):
    if family == "complete":
        return graphs.complete(n)
    import math

    side = math.isqrt(n)
    return graphs.torus(side, side)


def _time(topology, backend: str, spec, rounds: int, repeats: int) -> dict:
    bits = 2 * congest_capacity_bits(topology.n)
    best = float("inf")
    stats = None
    for _ in range(repeats):
        rng = RandomSource(0)
        armed = spec.arm(spec.derive_rng(rng), topology.n) if spec else None
        nodes = [
            GossipNode(v, topology.degree(v), rng, bits)
            for v in range(topology.n)
        ]
        metrics = MetricsRecorder()
        engine = SynchronousEngine(
            topology, nodes, metrics, backend=backend, adversary=armed
        )
        start = time.perf_counter()
        executed = engine.run(max_rounds=rounds)
        elapsed = time.perf_counter() - start
        assert executed == rounds
        best = min(best, elapsed)
        stats = engine.fault_stats()
    entry = {
        "rounds": rounds,
        "seconds": round(best, 6),
        "rounds_per_sec": round(rounds / best, 2),
    }
    if stats is not None:
        entry["faults"] = {
            key: value
            for key, value in stats.items()
            if key != "fault_rounds_to_recovery"
        }
    return entry


def _fingerprint(topology, backend: str, spec, rounds: int):
    """One run's trace fingerprint on the named engine backend."""
    bits = 2 * congest_capacity_bits(topology.n)
    rng = RandomSource(0)
    armed = spec.arm(spec.derive_rng(rng), topology.n)
    nodes = [
        GossipNode(v, topology.degree(v), rng, bits) for v in range(topology.n)
    ]
    metrics = MetricsRecorder()
    engine = SynchronousEngine(
        topology, nodes, metrics, backend=backend, adversary=armed
    )
    engine.run(max_rounds=rounds)
    return (
        metrics.messages,
        metrics.rounds,
        engine.undelivered_detail(),
        engine.fault_stats(),
        armed.security_ledger() if armed.observes else None,
    )


def _assert_parity(topology, spec, rounds: int) -> None:
    """Refuse to time an adversary whose two paths disagree."""
    fast = _fingerprint(topology, "fast", spec, rounds)
    reference = _fingerprint(topology, "reference", spec, rounds)
    assert fast == reference, "fast/reference fingerprints diverge"


def run_bench(smoke: bool) -> dict:
    sizes = [64, 256] if smoke else [256, 1024, 4096]
    repeats = 2 if smoke else 5
    results = []
    for family in ("complete", "torus"):
        for n in sizes:
            topology = _build(family, n)
            topology.port_table()
            per_round = topology.n * min(FANOUT, topology.degree(0))
            rounds = 5 if smoke else max(4, min(40, 400_000 // per_round))
            for spec in (SPEC, ADAPTIVE_SPEC):
                _assert_parity(topology, spec, min(rounds, 4))
            entry = {"topology": family, "n": n, "modes": {}}
            for backend in BACKENDS:
                for label, spec in (
                    ("clean", None),
                    ("faulty", SPEC),
                    ("adaptive", ADAPTIVE_SPEC),
                ):
                    timing = _time(topology, backend, spec, rounds, repeats)
                    entry["modes"][f"{backend}/{label}"] = timing
                    print(
                        f"{family:>9} n={n:<5} {backend:>9}/{label:<8}: "
                        f"{timing['rounds_per_sec']:>10.1f} rounds/s",
                        flush=True,
                    )
            modes = entry["modes"]
            entry["fast_fault_overhead"] = round(
                modes["fast/clean"]["rounds_per_sec"]
                / modes["fast/faulty"]["rounds_per_sec"],
                2,
            )
            entry["adaptive_overhead"] = round(
                modes["fast/faulty"]["rounds_per_sec"]
                / modes["fast/adaptive"]["rounds_per_sec"],
                2,
            )
            entry["faulty_speedup"] = round(
                modes["fast/faulty"]["rounds_per_sec"]
                / modes["reference/faulty"]["rounds_per_sec"],
                2,
            )
            print(
                f"{'':>9} fault overhead (fast): "
                f"{entry['fast_fault_overhead']:.2f}x, adaptive overhead: "
                f"{entry['adaptive_overhead']:.2f}x, speedup under faults: "
                f"{entry['faulty_speedup']:.2f}x"
            )
            results.append(entry)
    return {
        "benchmark": "adversary-overhead",
        "mode": "smoke" if smoke else "full",
        "adversary": SPEC.describe(),
        "adaptive_adversary": ADAPTIVE_SPEC.describe(),
        "workload": f"prebuilt gossip, fanout=min(degree, {FANOUT})",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "results": results,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI mode: small sizes, few rounds, no BENCH_adversary.json",
    )
    parser.add_argument(
        "--output",
        type=pathlib.Path,
        default=None,
        help=f"write the JSON report here (default: {OUTPUT}, skipped in --smoke)",
    )
    args = parser.parse_args(argv)
    report = run_bench(smoke=args.smoke)
    output = args.output
    if output is None and not args.smoke:
        output = OUTPUT
    if output is not None:
        output.write_text(json.dumps(report, indent=1) + "\n")
        print(f"\nwrote {output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
