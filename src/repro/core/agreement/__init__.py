"""Quantum implicit agreement (Section 6)."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.core.agreement.quantum_agreement": (
            "default_epsilon",
            "default_gamma",
            "quantum_agreement",
        ),
    },
)
