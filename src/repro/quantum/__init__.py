"""Quantum substrate: exact subroutine dynamics + dense routing-model simulator."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.quantum.amplitude": (
            "attempts_for_confidence",
            "bbht_average_success",
            "grover_angle",
            "grover_success_probability",
            "optimal_iterations",
            "worst_case_iterations",
        ),
        "repro.quantum.exact_grover": ("ExactGroverRun", "exact_star_grover"),
        "repro.quantum.grover_dynamics": ("AttemptOutcome", "sample_attempt"),
        "repro.quantum.johnson": ("JohnsonGraph",),
        "repro.quantum.phase_estimation": (
            "counting_error_bound",
            "counting_estimate_from_outcome",
            "eigenphase_turns",
            "qpe_distribution",
            "sample_counting_estimate",
            "sample_counting_estimates",
        ),
        "repro.quantum.routing": ("VACUUM", "QuantumRoutingNetwork"),
        "repro.quantum.statevector": ("DenseState",),
        "repro.quantum.walk_model": (
            "sample_walk_attempt",
            "walk_attempt_success_probability",
        ),
    },
)
