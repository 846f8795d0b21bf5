"""Protocol registry: dispatch-by-name for every protocol in the library.

Before this module existed, every layer wired protocols by hand — the CLI
dispatched through an if/elif chain, each benchmark re-implemented its own
runner plumbing, and new scenario families needed edits in three places.
A :class:`ProtocolRegistry` replaces all of that with one lookup table:
each protocol registers a :class:`ProtocolSpec` (name, side, family,
builder, defaults) and every consumer — CLI, scenario runtime, benchmarks —
resolves it by name.

Builders share one calling convention::

    builder(topology, rng, **params) -> TrialOutcome

Protocols that take ``n`` instead of a topology (complete-graph LE,
agreement, the ring baselines) are adapted here; subroutine protocols
(Grover star search, star counting) construct their oracle from the
topology size.  The uniform :class:`TrialOutcome` record is what the
scenario runtime aggregates into :class:`~repro.runtime.runner.TrialSet`
statistics.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

from repro.network.topology import Topology
from repro.util.rng import RandomSource

__all__ = [
    "ProtocolRegistry",
    "ProtocolSpec",
    "TrialOutcome",
    "default_registry",
    "register_builtin_protocols",
]


@dataclass(frozen=True)
class TrialOutcome:
    """Uniform record one protocol trial reduces to.

    ``extra`` holds numeric metadata that is averaged across trials
    (candidate counts, phases, ...); ``detail`` holds per-run facts that
    must *not* be averaged (the elected leader, the agreed value).
    """

    messages: float
    rounds: float
    success: bool
    extra: dict = field(default_factory=dict)
    detail: dict = field(default_factory=dict)


#: Uniform builder signature: (topology, rng, **params) -> TrialOutcome.
Builder = Callable[..., TrialOutcome]


@dataclass(frozen=True)
class ProtocolSpec:
    """One registered protocol: identity, classification, and entry point."""

    name: str
    side: str  # "quantum" | "classical"
    family: str  # "leader-election" | "agreement" | "mst" | "search" | "counting"
    topologies: tuple[str, ...]  # families the protocol is proven/meaningful on
    builder: Builder
    defaults: tuple[tuple[str, object], ...] = ()
    description: str = ""
    #: Capability tags the builder honours: "faults" (engine-level
    #: message/crash injection via an ``adversary=`` kwarg), "inputs"
    #: (adversarial initial-value schedules), "adaptive" (the protocol
    #: runs on a :class:`~repro.network.engine.SynchronousEngine` path
    #: that feeds traffic-conditioned adversaries the per-round
    #: observation callback), and "batch" (an array-native
    #: :class:`~repro.network.batch.BatchProtocol` port, which runs under
    #: the ``fast`` engine backend while ``reference`` runs its scalar
    #: twin on the oracle loop; the two send the same messages, so the
    #: tag never changes a result).  A scenario whose
    #: :class:`~repro.adversary.AdversarySpec` needs capabilities outside
    #: this set is rejected before the trial runs (:meth:`check_adversary`).
    supports: tuple[str, ...] = ()

    def run(self, topology: Topology, rng: RandomSource, **params) -> TrialOutcome:
        """Run one trial with registered defaults overridden by ``params``."""
        merged = dict(self.defaults)
        merged.update(params)
        return self.builder(topology, rng, **merged)

    def check_adversary(self, adversary) -> None:
        """Raise ValueError when ``adversary`` needs a capability this
        protocol lacks; None (no adversary) always passes."""
        if adversary is None:
            return
        missing = adversary.required_capabilities() - set(self.supports)
        if missing:
            raise ValueError(
                f"protocol {self.name!r} does not support adversary "
                f"capabilities {sorted(missing)} "
                f"(supports: {sorted(self.supports) or 'none'})"
            )

    def describe_dict(self) -> dict:
        """JSON-ready description for ``repro protocols --json``."""
        return {
            "name": self.name,
            "side": self.side,
            "family": self.family,
            "topologies": list(self.topologies),
            "defaults": {key: value for key, value in self.defaults},
            "supports": sorted(self.supports),
            "batch": "batch" in self.supports,
            "description": self.description,
        }


class ProtocolRegistry:
    """Name → :class:`ProtocolSpec` table with side/family filtering."""

    def __init__(self) -> None:
        self._specs: dict[str, ProtocolSpec] = {}

    def register(self, spec: ProtocolSpec) -> ProtocolSpec:
        if spec.name in self._specs:
            raise ValueError(f"protocol {spec.name!r} is already registered")
        if spec.side not in ("quantum", "classical"):
            raise ValueError(
                f"side must be 'quantum' or 'classical', got {spec.side!r}"
            )
        self._specs[spec.name] = spec
        return spec

    def get(self, name: str) -> ProtocolSpec:
        try:
            return self._specs[name]
        except KeyError:
            raise KeyError(
                f"unknown protocol {name!r}; registered: {sorted(self._specs)}"
            ) from None

    def names(self) -> list[str]:
        return sorted(self._specs)

    def select(
        self, side: str | None = None, family: str | None = None
    ) -> list[ProtocolSpec]:
        """All specs matching the given side and/or family."""
        return [
            spec
            for name, spec in sorted(self._specs.items())
            if (side is None or spec.side == side)
            and (family is None or spec.family == family)
        ]

    def __contains__(self, name: str) -> bool:
        return name in self._specs

    def __iter__(self) -> Iterator[ProtocolSpec]:
        return iter(self._specs[name] for name in sorted(self._specs))

    def __len__(self) -> int:
        return len(self._specs)


# -- result adapters ----------------------------------------------------------


def _numeric_meta(meta: dict) -> dict:
    return {
        key: value
        for key, value in meta.items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    }


def _from_le(result) -> TrialOutcome:
    return TrialOutcome(
        messages=result.messages,
        rounds=result.rounds,
        success=result.success,
        extra=_numeric_meta(result.meta),
        detail={"leader": result.leader},
    )


def _from_agreement(result) -> TrialOutcome:
    return TrialOutcome(
        messages=result.messages,
        rounds=result.rounds,
        success=result.success,
        extra=_numeric_meta(result.meta),
        detail={"value": result.agreed_value},
    )


def _from_mst(result) -> TrialOutcome:
    return TrialOutcome(
        messages=result.messages,
        rounds=result.rounds,
        success=result.is_spanning,
        extra=_numeric_meta(result.meta),
        detail={"total_weight": result.total_weight},
    )


# -- shared input generators --------------------------------------------------


def _agreement_inputs(
    n: int, fraction: float, adversary, rng, *, engine_capable: bool = False
) -> list[int]:
    """Benign inputs, or the adversary's schedule when one is armed.

    The benign convention itself lives in
    :func:`repro.adversary.inputs.benign_inputs` (one definition, so the
    faulty and fault-free paths cannot diverge); ``adversarial_inputs``
    falls back to it for a None/null spec.  ``engine_capable`` marks the
    caller as an engine-driven builder that arms the same spec on its
    engine, so message-fault/adaptive capabilities pass through instead of
    being rejected as meaningless.
    """
    from repro.adversary.inputs import adversarial_inputs

    return adversarial_inputs(
        n, fraction, adversary, rng, engine_capable=engine_capable
    )


def _random_weights(topology: Topology, rng: RandomSource) -> dict:
    weights = {}
    for u, v in topology.edges():
        a, b = (u, v) if u < v else (v, u)
        weights[(a, b)] = rng.uniform()
    return weights


def lean_qwle_params(n: int, alpha: float):
    """The benchmarks' lightened QWLE schedule (bench E4): constant failure
    budgets and an 8·ln n outer loop — same asymptotic shape, laptop scale."""
    from repro.core.leader_election import QWLEParameters

    return QWLEParameters(
        alpha=alpha,
        inner_alpha=alpha,
        outer_iterations=max(8, math.ceil(8.0 * math.log(n))),
        activation=0.25,
    )


# -- builders (module-level so parallel workers can resolve them by name) -----


def _run_quantum_le_complete(topology, rng, **params) -> TrialOutcome:
    from repro.core.leader_election.complete import quantum_le_complete

    return _from_le(quantum_le_complete(topology.n, rng, **params))


def _run_classical_le_complete(topology, rng, **params) -> TrialOutcome:
    from repro.classical.leader_election.complete_kpp import classical_le_complete

    return _from_le(classical_le_complete(topology.n, rng, **params))


def _run_quantum_rwle(topology, rng, **params) -> TrialOutcome:
    from repro.core.leader_election.mixing import quantum_rwle

    return _from_le(quantum_rwle(topology, rng, **params))


def _run_classical_le_mixing(topology, rng, **params) -> TrialOutcome:
    from repro.classical.leader_election.mixing_rw import classical_le_mixing

    return _from_le(classical_le_mixing(topology, rng, **params))


def _run_quantum_qwle(
    topology,
    rng,
    schedule: str = "paper",
    k: int | None = None,
    alpha: float | None = None,
    inner_alpha: float | None = None,
    outer_iterations: int | None = None,
    activation: float | None = None,
    ablate_walk: bool = False,
) -> TrialOutcome:
    from repro.core.leader_election import QWLEParameters
    from repro.core.leader_election.diameter2 import quantum_qwle

    if schedule == "lean":
        params = lean_qwle_params(topology.n, alpha if alpha is not None else 1 / 8)
        if ablate_walk:
            params = QWLEParameters(
                alpha=params.alpha,
                inner_alpha=params.inner_alpha,
                outer_iterations=params.outer_iterations,
                activation=params.activation,
                ablate_walk=True,
            )
    elif schedule == "paper":
        params = QWLEParameters(
            k=k,
            alpha=alpha,
            inner_alpha=inner_alpha,
            outer_iterations=outer_iterations,
            activation=activation,
            ablate_walk=ablate_walk,
        )
    else:
        raise ValueError(f"schedule must be 'paper' or 'lean', got {schedule!r}")
    return _from_le(quantum_qwle(topology, rng, params))


def _run_classical_le_diameter2(topology, rng, **params) -> TrialOutcome:
    from repro.classical.leader_election.diameter2_cpr import classical_le_diameter2

    return _from_le(classical_le_diameter2(topology, rng, **params))


def _run_quantum_general_le(topology, rng, **params) -> TrialOutcome:
    from repro.core.leader_election.general import quantum_general_le

    return _from_le(quantum_general_le(topology, rng, **params))


def _run_classical_le_general(topology, rng, **params) -> TrialOutcome:
    from repro.classical.leader_election.general_ghs import classical_le_general

    return _from_le(classical_le_general(topology, rng, **params))


def _run_lcr_ring(topology, rng, adversary=None) -> TrialOutcome:
    from repro.classical.leader_election.ring import lcr_ring

    return _from_le(lcr_ring(topology.n, rng, adversary=adversary))


def _run_hs_ring(topology, rng, adversary=None) -> TrialOutcome:
    from repro.classical.leader_election.ring import hirschberg_sinclair_ring

    return _from_le(hirschberg_sinclair_ring(topology.n, rng, adversary=adversary))


def _run_quantum_agreement(
    topology, rng, fraction: float = 0.3, adversary=None, **params
) -> TrialOutcome:
    from repro.core.agreement import quantum_agreement

    inputs = _agreement_inputs(topology.n, fraction, adversary, rng)
    return _from_agreement(quantum_agreement(inputs, rng, **params))


def _run_classical_agreement_shared(
    topology, rng, fraction: float = 0.3, adversary=None, **params
) -> TrialOutcome:
    from repro.classical.agreement.amp18 import classical_agreement_shared

    inputs = _agreement_inputs(topology.n, fraction, adversary, rng)
    return _from_agreement(classical_agreement_shared(inputs, rng, **params))


def _run_classical_agreement_engine(
    topology, rng, fraction: float = 0.3, adversary=None, **params
) -> TrialOutcome:
    from repro.classical.agreement.amp18_engine import classical_agreement_engine

    inputs = _agreement_inputs(
        topology.n, fraction, adversary, rng, engine_capable=True
    )
    return _from_agreement(
        classical_agreement_engine(inputs, rng, adversary=adversary, **params)
    )


def _run_classical_agreement_private(
    topology, rng, fraction: float = 0.3, adversary=None
) -> TrialOutcome:
    from repro.classical.agreement.amp18 import classical_agreement_private

    inputs = _agreement_inputs(topology.n, fraction, adversary, rng)
    return _from_agreement(classical_agreement_private(inputs, rng))


def _run_quantum_mst(topology, rng, **params) -> TrialOutcome:
    from repro.core.leader_election.mst import quantum_mst

    weights = _random_weights(topology, rng.spawn())
    return _from_mst(quantum_mst(topology, weights, rng.spawn(), **params))


def _run_classical_mst(topology, rng) -> TrialOutcome:
    from repro.classical.mst_boruvka import classical_mst

    weights = _random_weights(topology, rng.spawn())
    return _from_mst(classical_mst(topology, weights, rng.spawn()))


def _run_boruvka_engine(topology, rng, adversary=None) -> TrialOutcome:
    from repro.classical.mst_boruvka import boruvka_mst_engine

    weights = _random_weights(topology, rng.spawn())
    return _from_mst(
        boruvka_mst_engine(topology, weights, rng.spawn(), adversary=adversary)
    )


def _run_grover_star_search(
    topology, rng, alpha: float = 0.01, marked: int = 1
) -> TrialOutcome:
    from repro.core.grover import distributed_grover_search
    from repro.core.procedures import SetOracle, uniform_charge
    from repro.network.metrics import MetricsRecorder

    n = topology.n
    oracle = SetOracle(
        domain=range(n),
        marked=set(range(marked)),
        charge_checking=uniform_charge(2, 2, "star.checking"),
    )
    metrics = MetricsRecorder()
    result = distributed_grover_search(oracle, marked / n, alpha, metrics, rng)
    return TrialOutcome(
        messages=metrics.messages,
        rounds=metrics.rounds,
        success=result.succeeded,
        extra={},
        detail={"found": result.found},
    )


def _run_classical_star_flood(topology, rng) -> TrialOutcome:
    # Classical lower bound on the star: probe every leaf (query + reply).
    n = topology.n
    return TrialOutcome(messages=2 * (n - 1), rounds=2, success=True)


def _run_quantum_count_star(
    topology, rng, accuracy: float = 0.05, alpha: float = 1 / 8, fraction: float = 0.3
) -> TrialOutcome:
    from repro.core.counting import approx_count
    from repro.core.procedures import SetOracle, uniform_charge
    from repro.network.metrics import MetricsRecorder

    n = topology.n
    marked = set(range(max(1, int(fraction * n))))
    oracle = SetOracle(
        domain=range(n),
        marked=marked,
        charge_checking=uniform_charge(2, 2, "star.counting"),
    )
    metrics = MetricsRecorder()
    result = approx_count(oracle, accuracy, alpha, metrics, rng)
    error = abs(result.estimate - len(marked))
    return TrialOutcome(
        messages=metrics.messages,
        rounds=metrics.rounds,
        success=error <= accuracy * n,
        extra={"estimate_error": error},
        detail={"estimate": result.estimate},
    )


def _run_classical_count_star(
    topology, rng, accuracy: float = 0.05, fraction: float = 0.3
) -> TrialOutcome:
    # Classical sampling needs Θ(1/ε²) probes for a ±εn estimate.
    n = topology.n
    samples = min(n, math.ceil(1.0 / accuracy**2))
    hits = sum(rng.bernoulli(fraction) for _ in range(samples))
    estimate = n * hits / samples
    error = abs(estimate - int(fraction * n))
    return TrialOutcome(
        messages=2 * samples,
        rounds=2,
        success=error <= 2.0 * accuracy * n,
        extra={"estimate_error": error},
        detail={"estimate": estimate},
    )


# -- the default registry -----------------------------------------------------


def register_builtin_protocols(registry: ProtocolRegistry) -> ProtocolRegistry:
    """Register every protocol the paper reproduction ships with."""
    for spec in (
        ProtocolSpec(
            name="le-complete/quantum",
            side="quantum",
            family="leader-election",
            topologies=("complete",),
            builder=_run_quantum_le_complete,
            description="QuantumLE on K_n: Õ(n^1/3) messages (Theorem 5.2).",
        ),
        ProtocolSpec(
            name="le-complete/classical",
            side="classical",
            family="leader-election",
            topologies=("complete",),
            builder=_run_classical_le_complete,
            description="[KPP+15b]-style classical LE on K_n: Θ̃(√n) messages.",
            supports=("batch", "faults", "adaptive"),
        ),
        ProtocolSpec(
            name="le-mixing/quantum",
            side="quantum",
            family="leader-election",
            topologies=("hypercube", "torus", "random-regular", "barbell", "lollipop"),
            builder=_run_quantum_rwle,
            description="QuantumRWLE with mixing time τ: Õ(τ^5/3·n^1/3) (Thm 5.4).",
        ),
        ProtocolSpec(
            name="le-mixing/classical",
            side="classical",
            family="leader-election",
            topologies=("hypercube", "torus", "random-regular", "barbell", "lollipop"),
            builder=_run_classical_le_mixing,
            description="Classical random-walk LE baseline: Õ(τ√n) messages.",
        ),
        ProtocolSpec(
            name="le-diameter2/quantum",
            side="quantum",
            family="leader-election",
            topologies=("diameter2-gnp", "erdos-renyi", "star", "wheel"),
            builder=_run_quantum_qwle,
            description="QuantumQWLE on diameter-≤2 graphs: Õ(n^2/3) (Thm 5.6).",
        ),
        ProtocolSpec(
            name="le-diameter2/classical",
            side="classical",
            family="leader-election",
            topologies=("diameter2-gnp", "erdos-renyi", "star", "wheel"),
            builder=_run_classical_le_diameter2,
            description="[CPR20]-style classical LE on diameter-2 graphs: Θ(n).",
            supports=("batch", "faults", "adaptive"),
        ),
        ProtocolSpec(
            name="le-general/quantum",
            side="quantum",
            family="leader-election",
            topologies=("erdos-renyi", "random-regular", "torus"),
            builder=_run_quantum_general_le,
            description="QuantumGeneralLE (explicit): Õ(√(mn)) (Theorem 5.10).",
        ),
        ProtocolSpec(
            name="le-general/classical",
            side="classical",
            family="leader-election",
            topologies=("erdos-renyi", "random-regular", "torus"),
            builder=_run_classical_le_general,
            description="Classical tree-merging LE (explicit): Θ(m·log n).",
        ),
        ProtocolSpec(
            name="le-ring/lcr",
            side="classical",
            family="leader-election",
            topologies=("cycle",),
            builder=_run_lcr_ring,
            description="LCR ring baseline: O(n²) messages.",
            supports=("batch", "faults", "adaptive"),
        ),
        ProtocolSpec(
            name="le-ring/hs",
            side="classical",
            family="leader-election",
            topologies=("cycle",),
            builder=_run_hs_ring,
            description="Hirschberg–Sinclair ring baseline: O(n log n) messages.",
            supports=("batch", "faults", "adaptive"),
        ),
        ProtocolSpec(
            name="agreement/quantum",
            side="quantum",
            family="agreement",
            topologies=("complete",),
            builder=_run_quantum_agreement,
            defaults=(("fraction", 0.3),),
            description="QuantumAgreement with shared coin: Õ(n^1/5) (Thm 6.7).",
            supports=("inputs",),
        ),
        ProtocolSpec(
            name="agreement/classical-shared",
            side="classical",
            family="agreement",
            topologies=("complete",),
            builder=_run_classical_agreement_shared,
            defaults=(("fraction", 0.3),),
            description="[AMP18] shared-coin agreement: Õ(n^2/5) messages.",
            supports=("inputs",),
        ),
        ProtocolSpec(
            name="agreement/amp18-engine",
            side="classical",
            family="agreement",
            topologies=("complete",),
            builder=_run_classical_agreement_engine,
            defaults=(("fraction", 0.3),),
            description="Engine-driven [AMP18] agreement: real CONGEST "
            "messages, fault-injectable, array-native.",
            supports=("batch", "faults", "inputs", "adaptive"),
        ),
        ProtocolSpec(
            name="agreement/classical-private",
            side="classical",
            family="agreement",
            topologies=("complete",),
            builder=_run_classical_agreement_private,
            defaults=(("fraction", 0.3),),
            description="Private-coin agreement via leader election: Θ̃(√n).",
            supports=("inputs",),
        ),
        ProtocolSpec(
            name="mst/quantum",
            side="quantum",
            family="mst",
            topologies=("random-regular", "erdos-renyi", "torus"),
            builder=_run_quantum_mst,
            description="Quantum Borůvka MST: Õ(√(mn)) message envelope (§5.4).",
        ),
        ProtocolSpec(
            name="mst/classical",
            side="classical",
            family="mst",
            topologies=("random-regular", "erdos-renyi", "torus"),
            builder=_run_classical_mst,
            description="Classical probe-all-ports Borůvka MST: Θ(m·log n).",
        ),
        ProtocolSpec(
            name="mst/boruvka-engine",
            side="classical",
            family="mst",
            topologies=("random-regular", "erdos-renyi", "torus", "cycle"),
            builder=_run_boruvka_engine,
            description="Engine-driven Borůvka/GHS MST: real CONGEST "
            "messages, fault-injectable, array-native.",
            supports=("batch", "faults", "adaptive"),
        ),
        ProtocolSpec(
            name="search-star/quantum",
            side="quantum",
            family="search",
            topologies=("star",),
            builder=_run_grover_star_search,
            defaults=(("alpha", 0.01), ("marked", 1)),
            description="Distributed Grover search on a star: O(√n) messages (B.2).",
        ),
        ProtocolSpec(
            name="search-star/classical",
            side="classical",
            family="search",
            topologies=("star",),
            builder=_run_classical_star_flood,
            description="Classical star search lower bound: probe all n−1 leaves.",
        ),
        ProtocolSpec(
            name="count-star/quantum",
            side="quantum",
            family="counting",
            topologies=("star",),
            builder=_run_quantum_count_star,
            defaults=(("accuracy", 0.05), ("fraction", 0.3)),
            description="ApproxCount to ±εn: O(1/ε) messages (Corollary 4.3).",
        ),
        ProtocolSpec(
            name="count-star/classical",
            side="classical",
            family="counting",
            topologies=("star",),
            builder=_run_classical_count_star,
            defaults=(("accuracy", 0.05), ("fraction", 0.3)),
            description="Classical sampling estimate: Θ(1/ε²) probes.",
        ),
    ):
        registry.register(spec)
    return registry


_DEFAULT: ProtocolRegistry | None = None


def default_registry() -> ProtocolRegistry:
    """The process-wide registry pre-populated with the builtin protocols."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = register_builtin_protocols(ProtocolRegistry())
    return _DEFAULT
