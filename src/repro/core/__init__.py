"""The paper's contribution: distributed quantum subroutines and protocols."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.core.candidates": (
            "CandidateDraw",
            "candidate_probability",
            "draw_candidates",
            "rank_space",
        ),
        "repro.core.counting": (
            "ApproxCountResult",
            "CountResult",
            "approx_count",
            "approx_count_stage",
            "quantum_count",
        ),
        "repro.core.grover": (
            "GroverSearchResult",
            "distributed_grover_search",
            "grover_stage",
        ),
        "repro.core.minimum": (
            "MinimumOracle",
            "MinimumResult",
            "minimum_stage",
            "quantum_minimum",
        ),
        "repro.core.parallel": ("charge_stage",),
        "repro.core.procedures": (
            "CountOracle",
            "SearchOracle",
            "SetOracle",
            "uniform_charge",
        ),
        "repro.core.results": ("AgreementResult", "LeaderElectionResult"),
        "repro.core.walk_search": ("WalkSearchResult", "WalkSearchSpec", "walk_search"),
    },
)
