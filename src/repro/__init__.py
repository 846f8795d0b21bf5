"""repro — reproduction of "Quantum Communication Advantage for Leader Election
and Agreement" (Dufoulon, Magniez, Pandurangan; PODC 2025, arXiv:2502.07416).

The package implements the paper's distributed quantum subroutines (Grover
search, quantum counting, search via quantum walk), its five protocols
(QuantumLE, QuantumRWLE, QuantumQWLE, QuantumGeneralLE, QuantumAgreement),
the classical baselines they are measured against, and the CONGEST network
substrate underneath.  README.md's Architecture section maps the layers, its
Experiments section tabulates the reproduced claims E1–E12, and
EXPERIMENTS.md records the measured results.  Every package's public names
import their defining module on first access (:mod:`repro._lazy`), so a
run loads only the protocols it uses.

Quickstart::

    from repro import RandomSource, quantum_le_complete

    result = quantum_le_complete(n=1024, rng=RandomSource(0))
    assert result.success
    print(result.leader, result.messages, result.rounds)
"""

from repro._lazy import lazy_exports

__version__ = "1.2.0"

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.adversary.spec": ("AdversarySpec",),
        "repro.classical.agreement.amp18": (
            "classical_agreement_private",
            "classical_agreement_shared",
        ),
        "repro.classical.leader_election.complete_kpp": ("classical_le_complete",),
        "repro.classical.leader_election.diameter2_cpr": ("classical_le_diameter2",),
        "repro.classical.leader_election.general_ghs": ("classical_le_general",),
        "repro.classical.leader_election.mixing_rw": ("classical_le_mixing",),
        "repro.classical.leader_election.ring": ("hirschberg_sinclair_ring", "lcr_ring"),
        "repro.classical.mst_boruvka": ("classical_mst",),
        "repro.core.counting": ("approx_count", "quantum_count"),
        "repro.core.grover": ("distributed_grover_search",),
        "repro.core.minimum": ("quantum_minimum",),
        "repro.core.results": ("AgreementResult", "LeaderElectionResult"),
        "repro.core.walk_search": ("walk_search",),
        "repro.core.agreement.quantum_agreement": ("quantum_agreement",),
        "repro.core.leader_election.complete": ("quantum_le_complete",),
        "repro.core.leader_election.diameter2": ("QWLEParameters", "quantum_qwle"),
        "repro.core.leader_election.explicit": ("make_explicit",),
        "repro.core.leader_election.general": ("quantum_general_le",),
        "repro.core.leader_election.mixing": ("quantum_rwle",),
        "repro.core.leader_election.mst": ("MSTResult", "quantum_mst"),
        "repro.quantum.exact_grover": ("exact_star_grover",),
        "repro.network.metrics": ("MetricsRecorder",),
        "repro.network.node": ("Status",),
        "repro.runtime.catalog": ("get_scenario",),
        "repro.runtime.registry": (
            "ProtocolRegistry",
            "ProtocolSpec",
            "TrialOutcome",
            "default_registry",
        ),
        "repro.runtime.runner": ("ScenarioRun", "TrialSet", "run_scenario"),
        "repro.runtime.scenario": ("Scenario", "TopologySpec"),
        "repro.util.fault": ("FaultInjector",),
        "repro.util.rng": ("RandomSource", "SharedCoin"),
    },
)
