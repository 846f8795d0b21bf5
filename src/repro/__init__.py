"""repro — reproduction of "Quantum Communication Advantage for Leader Election
and Agreement" (Dufoulon, Magniez, Pandurangan; PODC 2025, arXiv:2502.07416).

The package implements the paper's distributed quantum subroutines (Grover
search, quantum counting, search via quantum walk), its five protocols
(QuantumLE, QuantumRWLE, QuantumQWLE, QuantumGeneralLE, QuantumAgreement),
the classical baselines they are measured against, and the CONGEST network
substrate underneath.  README.md's Architecture section maps the layers, its
Experiments section tabulates the reproduced claims E1–E12, and
EXPERIMENTS.md records the measured results.

Quickstart::

    from repro import RandomSource, quantum_le_complete

    result = quantum_le_complete(n=1024, rng=RandomSource(0))
    assert result.success
    print(result.leader, result.messages, result.rounds)
"""

from repro.adversary import AdversarySpec
from repro.classical import (
    classical_agreement_private,
    classical_agreement_shared,
    classical_le_complete,
    classical_le_diameter2,
    classical_le_general,
    classical_le_mixing,
    classical_mst,
    hirschberg_sinclair_ring,
    lcr_ring,
)
from repro.core import (
    AgreementResult,
    LeaderElectionResult,
    approx_count,
    distributed_grover_search,
    quantum_count,
    quantum_minimum,
    walk_search,
)
from repro.core.agreement import quantum_agreement
from repro.core.leader_election import (
    MSTResult,
    QWLEParameters,
    make_explicit,
    quantum_general_le,
    quantum_le_complete,
    quantum_mst,
    quantum_qwle,
    quantum_rwle,
)
from repro.quantum import exact_star_grover
from repro.network import MetricsRecorder, Status
from repro.runtime import (
    ProtocolRegistry,
    ProtocolSpec,
    Scenario,
    ScenarioRun,
    TopologySpec,
    TrialOutcome,
    TrialSet,
    default_registry,
    get_scenario,
    run_scenario,
)
from repro.util import FaultInjector, RandomSource, SharedCoin

__version__ = "1.2.0"

__all__ = [
    "AdversarySpec",
    "AgreementResult",
    "FaultInjector",
    "LeaderElectionResult",
    "MSTResult",
    "MetricsRecorder",
    "ProtocolRegistry",
    "ProtocolSpec",
    "QWLEParameters",
    "RandomSource",
    "Scenario",
    "ScenarioRun",
    "SharedCoin",
    "Status",
    "TopologySpec",
    "TrialOutcome",
    "TrialSet",
    "approx_count",
    "classical_agreement_private",
    "classical_agreement_shared",
    "classical_le_complete",
    "classical_le_diameter2",
    "classical_le_general",
    "classical_le_mixing",
    "classical_mst",
    "default_registry",
    "distributed_grover_search",
    "exact_star_grover",
    "get_scenario",
    "hirschberg_sinclair_ring",
    "lcr_ring",
    "make_explicit",
    "quantum_agreement",
    "quantum_count",
    "quantum_general_le",
    "quantum_le_complete",
    "quantum_minimum",
    "quantum_mst",
    "quantum_qwle",
    "quantum_rwle",
    "run_scenario",
    "walk_search",
]
