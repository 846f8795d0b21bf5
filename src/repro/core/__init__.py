"""The paper's contribution: distributed quantum subroutines and protocols."""

from repro.core.candidates import (
    CandidateDraw,
    candidate_probability,
    draw_candidates,
    rank_space,
)
from repro.core.counting import (
    ApproxCountResult,
    CountResult,
    approx_count,
    approx_count_stage,
    quantum_count,
)
from repro.core.grover import GroverSearchResult, distributed_grover_search, grover_stage
from repro.core.minimum import (
    MinimumOracle,
    MinimumResult,
    minimum_stage,
    quantum_minimum,
)
from repro.core.parallel import charge_stage
from repro.core.procedures import CountOracle, SearchOracle, SetOracle, uniform_charge
from repro.core.results import AgreementResult, LeaderElectionResult
from repro.core.walk_search import WalkSearchResult, WalkSearchSpec, walk_search

__all__ = [
    "AgreementResult",
    "ApproxCountResult",
    "CandidateDraw",
    "CountOracle",
    "CountResult",
    "GroverSearchResult",
    "LeaderElectionResult",
    "MinimumOracle",
    "MinimumResult",
    "SearchOracle",
    "SetOracle",
    "WalkSearchResult",
    "WalkSearchSpec",
    "approx_count",
    "approx_count_stage",
    "candidate_probability",
    "charge_stage",
    "distributed_grover_search",
    "draw_candidates",
    "grover_stage",
    "minimum_stage",
    "quantum_count",
    "quantum_minimum",
    "rank_space",
    "uniform_charge",
    "walk_search",
]
