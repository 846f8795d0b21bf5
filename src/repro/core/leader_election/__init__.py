"""Quantum leader-election protocols (Sections 5.1–5.4)."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.core.leader_election.complete": (
            "default_k_complete",
            "quantum_le_complete",
        ),
        "repro.core.leader_election.diameter2": (
            "QWLEParameters",
            "default_k_diameter2",
            "quantum_qwle",
        ),
        "repro.core.leader_election.explicit": ("make_explicit",),
        "repro.core.leader_election.general": ("quantum_general_le",),
        "repro.core.leader_election.mixing": (
            "CHECKING_MODES",
            "default_k_mixing",
            "quantum_rwle",
        ),
        "repro.core.leader_election.mst": ("MSTResult", "quantum_mst"),
    },
)
