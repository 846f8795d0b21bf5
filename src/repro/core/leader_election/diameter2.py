"""QuantumQWLE — Algorithm 3: leader election in diameter-2 networks.

The paper's most intricate protocol.  Candidates repeatedly and randomly
split into *active* and *passive* roles; every active candidate v tests its
leadership with a **search via quantum walk** (Theorem 4.4) on the Johnson
graph J(deg(v), k) whose vertices are k-subsets W of v's neighbours
("referees"):

* ``Setup(W)``   — send rank r_v to all w ∈ W                (M_S = k, T_S = 1);
* ``Update``     — swap one referee                          (M_U = 2, T_U = 2);
* ``Checking(W)``— two nested Grover searches:
    - *decentralized*: every **passive** candidate v′ runs
      GroverSearch(1/deg(v′), α_inner) over its own neighbourhood for a
      referee holding a smaller rank, and forwards its rank there.  Passive
      candidates run this at the *prescribed synchronized slots without being
      notified* — one decentralized execution serves every simultaneously
      active candidate, and it runs (and costs messages) whether or not any
      candidate is active.  This sharing is exactly why the inner search is
      decentralized (Section 1.2).
    - *centralized*: the active candidate runs GroverSearch(1/k, α_inner)
      over W for a referee that received a higher rank.

A walk vertex W is *marked* when some w ∈ W is a good referee — adjacent to
(or equal to) a passive candidate with a higher rank; diameter ≤ 2 guarantees
at least one good referee exists whenever such a candidate exists, so the
marked measure is ≥ k/deg(v) = ε (Johnson hitting fraction with g = 1).  The
simulation uses that guaranteed floor — a documented conservative choice;
message costs are schedule-determined and unaffected.

Theorem 5.6: Õ(k + n/√k) messages; k = Θ(n^{2/3}) gives Corollary 5.7's
Õ(n^{2/3}), beating the classical Θ(n) bound of [CPR20].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.candidates import draw_candidates
from repro.core.results import LeaderElectionResult
from repro.core.walk_search import WalkSearchResult, WalkSearchSpec, walk_search
from repro.network.batch import STATUS_ELECTED, STATUS_NON_ELECTED
from repro.network.metrics import MetricsRecorder
from repro.network.topology import Topology
from repro.quantum.amplitude import attempts_for_confidence, worst_case_iterations
from repro.quantum.johnson import JohnsonGraph
from repro.util.fault import FaultInjector
from repro.util.rng import RandomSource

__all__ = ["QWLEParameters", "default_k_diameter2", "quantum_qwle"]


def default_k_diameter2(n: int) -> int:
    """Message-optimal k = Θ(n^{2/3}) from Corollary 5.7."""
    return max(1, round(n ** (2.0 / 3.0)))


@dataclass
class QWLEParameters:
    """Schedule knobs with the paper's defaults.

    ``outer_iterations`` defaults to Θ(log³ n) and ``activation`` to
    Θ(1/log² n) (Algorithm 3, lines 1–2); benchmarks may pass lighter values
    — the asymptotic message shape is unchanged, only polylog factors.
    """

    k: int | None = None
    alpha: float | None = None  # WalkSearch failure budget (paper: 1/n²)
    inner_alpha: float | None = None  # nested Grover budget (paper: 1/n³)
    outer_iterations: int | None = None
    activation: float | None = None
    #: Section 1.2's intermediate design point: drop the quantum-walk layer
    #: and pay a fresh referee Setup on every amplification iteration (two
    #: nested Grover searches only).  Optimal k becomes √n and the message
    #: envelope degrades from Õ(n^{2/3}) to Õ(n^{3/4}) — the E12 ablation.
    ablate_walk: bool = False

    def resolve(self, n: int) -> "QWLEParameters":
        log_n = math.log(max(n, 3))
        default_k = (
            max(1, round(math.sqrt(n))) if self.ablate_walk else default_k_diameter2(n)
        )
        return QWLEParameters(
            k=self.k if self.k is not None else default_k,
            ablate_walk=self.ablate_walk,
            alpha=self.alpha if self.alpha is not None else 1.0 / n**2,
            inner_alpha=(
                self.inner_alpha if self.inner_alpha is not None else 1.0 / n**3
            ),
            outer_iterations=(
                self.outer_iterations
                if self.outer_iterations is not None
                # Θ(log³ n) with the constant sized so that a non-top candidate
                # survives all iterations w.p. ≤ 1/n²: per iteration it is
                # eliminated w.p. ≈ activation, so 3·log²n·ln n iterations give
                # (1 − 1/log²n)^{3 log²n ln n} ≤ n^{-3}.
                else max(8, math.ceil(3.0 * log_n**3))
            ),
            activation=(
                self.activation
                if self.activation is not None
                else min(0.5, 1.0 / log_n**2)
            ),
        )


def _grover_schedule(
    epsilon: float, alpha: float, checking_messages: int = 2, checking_rounds: int = 2
) -> tuple[int, int]:
    """(messages, rounds) of one synchronized GroverSearch schedule.

    Mirrors :func:`repro.core.grover.distributed_grover_search`'s charging:
    attempts × (2·⌈1/√ε⌉ + 1) Checking calls.
    """
    cap = worst_case_iterations(epsilon)
    attempts = attempts_for_confidence(alpha)
    calls = attempts * (2 * cap + 1)
    return calls * checking_messages, calls * checking_rounds


def quantum_qwle(
    topology: Topology,
    rng: RandomSource,
    params: QWLEParameters | None = None,
    faults: FaultInjector | None = None,
) -> LeaderElectionResult:
    """Run QuantumQWLE on a network of diameter ≤ 2."""
    n = topology.n
    if n < 3:
        raise ValueError(f"need n >= 3 nodes, got {n}")
    p = (params or QWLEParameters()).resolve(n)

    metrics = MetricsRecorder()
    status = np.full(n, STATUS_NON_ELECTED, dtype=np.int8)

    draw = draw_candidates(n, rng, faults=faults)
    metrics.advance_rounds("qwle.candidate-selection", 1)
    if not draw.candidates:
        return LeaderElectionResult(
            n=n, status_codes=status, metrics=metrics, meta={"candidates": 0}
        )

    ranks = draw.ranks
    alive = set(draw.candidates)  # candidates not yet NON_ELECTED
    walk_searches = 0

    # -- synchronized per-iteration schedule (Definition 4.1) -------------------
    # Every iteration reserves the worst-case WalkSearch duration over the
    # candidate set, and the decentralized Checking slots fire on schedule
    # whether or not any candidate is active.
    attempts = attempts_for_confidence(p.alpha)
    degrees = {v: topology.degree(v) for v in draw.candidates}
    schedule_specs = {}
    worst_iteration_rounds = 1
    worst_slots = 1
    for v, degree in degrees.items():
        k_v = min(p.k, degree - 1) if degree >= 2 else 0
        if k_v < 1:
            schedule_specs[v] = None
            continue
        johnson = JohnsonGraph(degree, k_v)
        epsilon = k_v / degree
        # J(n, k) with k close to n has gap n/(k(n−k)) > 1 (a negative second
        # eigenvalue); as a WalkSearch parameter the gap saturates at 1.
        delta = min(1.0, johnson.spectral_gap())
        t1 = worst_case_iterations(epsilon)
        t2 = worst_case_iterations(delta)
        central_messages, central_rounds = _grover_schedule(1.0 / k_v, p.inner_alpha)
        slots = attempts * t1 * 2 + 1  # S_f compute+uncompute per iteration + final test
        rounds = attempts * (1 + t1 * (2 * t2 + 2 * central_rounds)) + central_rounds
        schedule_specs[v] = {
            "k": k_v,
            "johnson": johnson,
            "epsilon": epsilon,
            "delta": delta,
            "central_messages": central_messages,
            "central_rounds": central_rounds,
            "slots": slots,
        }
        worst_iteration_rounds = max(worst_iteration_rounds, rounds)
        worst_slots = max(worst_slots, slots)

    def decentralized_cost_per_slot(passive: set[int]) -> int:
        total = 0
        for v2 in passive:
            degree = degrees[v2]
            if degree >= 1:
                messages, _ = _grover_schedule(1.0 / degree, p.inner_alpha)
                total += messages
        return total

    for _ in range(p.outer_iterations):
        # The synchronized schedule always elapses (idle or not).
        metrics.advance_rounds("qwle.iteration", worst_iteration_rounds)

        active = {v for v in alive if rng.bernoulli(p.activation)}
        passive = alive - active

        # Decentralized Checking fires at every prescribed slot, notified or
        # not — its cost accrues every iteration.
        metrics.charge_messages(
            "qwle.walk.checking.decentralized",
            decentralized_cost_per_slot(passive) * worst_slots,
        )

        for v in sorted(active):
            spec_data = schedule_specs[v]
            if spec_data is None:
                continue  # too few neighbours to referee; stays a candidate
            johnson: JohnsonGraph = spec_data["johnson"]
            k_v = spec_data["k"]

            higher_passive = any(ranks[v2] > ranks[v] for v2 in passive)
            # Conservative marked measure: the guaranteed single good referee
            # (diameter ≤ 2) when a higher passive candidate exists.
            marked_fraction = johnson.hitting_fraction(1) if higher_passive else 0.0

            def charge_setup(m: MetricsRecorder, calls: int, *, _k=k_v) -> None:
                m.charge("qwle.walk.setup", messages=_k * calls)

            if p.ablate_walk:
                # No walk memory: each of the t1·t2 update slots amortizes a
                # full fresh Setup across its t2 steps, i.e. k messages per
                # amplification iteration instead of 2/step.
                t2_steps = worst_case_iterations(spec_data["delta"])

                def charge_update(
                    m: MetricsRecorder, calls: int, *, _k=k_v, _t2=t2_steps
                ) -> None:
                    m.charge(
                        "qwle.walk.setup-ablated",
                        messages=math.ceil(calls * _k / _t2),
                    )

            else:

                def charge_update(m: MetricsRecorder, calls: int) -> None:
                    m.charge("qwle.walk.update", messages=2 * calls)

            def charge_checking(
                m: MetricsRecorder, calls: int, *, _cm=spec_data["central_messages"]
            ) -> None:
                m.charge("qwle.walk.checking.centralized", messages=_cm * calls)

            def sample_marked(r: RandomSource, *, _j=johnson):
                return _j.sample_hitting_subset({0}, r)

            spec = WalkSearchSpec(
                marked_fraction=marked_fraction,
                epsilon=spec_data["epsilon"],
                delta=spec_data["delta"],
                charge_setup=charge_setup,
                charge_update=charge_update,
                charge_checking=charge_checking,
                sample_marked_state=sample_marked,
            )
            # Rounds were charged once for the whole iteration above, so the
            # per-candidate searches charge messages only (parallel actives).
            result = walk_search(spec, p.alpha, metrics, rng, faults=faults)
            charge_checking(metrics, 1)  # Algorithm 3 line 11: final test of W
            walk_searches += 1
            if result.succeeded:
                alive.discard(v)

    # Ending: every remaining candidate enters ELECTED.
    for v in alive:
        status[v] = STATUS_ELECTED

    return LeaderElectionResult(
        n=n,
        status_codes=status,
        metrics=metrics,
        meta={
            "candidates": draw.count,
            "k": p.k,
            "outer_iterations": p.outer_iterations,
            "activation": p.activation,
            "alpha": p.alpha,
            "remaining": len(alive),
            "highest_ranked": draw.highest_ranked(),
            "walk_searches": walk_searches,
        },
    )
