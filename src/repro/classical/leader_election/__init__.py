"""Classical leader-election baselines."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.classical.leader_election.complete_kpp": (
            "classical_le_complete",
            "default_referees_complete",
        ),
        "repro.classical.leader_election.diameter2_cpr": ("classical_le_diameter2",),
        "repro.classical.leader_election.general_ghs": ("classical_le_general",),
        "repro.classical.leader_election.mixing_rw": (
            "classical_le_mixing",
            "default_walks_mixing",
        ),
        "repro.classical.leader_election.ring": ("hirschberg_sinclair_ring", "lcr_ring"),
    },
)
