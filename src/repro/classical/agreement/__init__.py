"""Classical agreement baselines ([AMP18]) — analytical and engine-driven."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.classical.agreement.amp18": (
            "classical_agreement_private",
            "classical_agreement_shared",
            "default_epsilon_classical",
            "default_inform_width_classical",
        ),
        "repro.classical.agreement.amp18_engine": (
            "classical_agreement_engine",
            "default_epsilon_engine",
            "default_inform_width_engine",
        ),
    },
)
