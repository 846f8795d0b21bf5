"""Quantum substrate: exact subroutine dynamics + dense routing-model simulator."""

from repro.quantum.amplitude import (
    attempts_for_confidence,
    bbht_average_success,
    grover_angle,
    grover_success_probability,
    optimal_iterations,
    worst_case_iterations,
)
from repro.quantum.exact_grover import ExactGroverRun, exact_star_grover
from repro.quantum.grover_dynamics import AttemptOutcome, sample_attempt
from repro.quantum.johnson import JohnsonGraph
from repro.quantum.phase_estimation import (
    counting_error_bound,
    counting_estimate_from_outcome,
    eigenphase_turns,
    qpe_distribution,
    sample_counting_estimate,
    sample_counting_estimates,
)
from repro.quantum.routing import VACUUM, QuantumRoutingNetwork
from repro.quantum.statevector import DenseState
from repro.quantum.walk_model import (
    sample_walk_attempt,
    walk_attempt_success_probability,
)

__all__ = [
    "AttemptOutcome",
    "DenseState",
    "ExactGroverRun",
    "exact_star_grover",
    "JohnsonGraph",
    "QuantumRoutingNetwork",
    "VACUUM",
    "attempts_for_confidence",
    "bbht_average_success",
    "counting_error_bound",
    "counting_estimate_from_outcome",
    "eigenphase_turns",
    "grover_angle",
    "grover_success_probability",
    "optimal_iterations",
    "qpe_distribution",
    "sample_attempt",
    "sample_counting_estimate",
    "sample_counting_estimates",
    "sample_walk_attempt",
    "walk_attempt_success_probability",
    "worst_case_iterations",
]
