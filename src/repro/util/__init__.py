"""Shared utilities: seeded randomness, math helpers, cost ledger, fault injection."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.util.fault": ("FaultInjector",),
        "repro.util.ledger": ("CostLedger", "LedgerEntry"),
        "repro.util.mathx": (
            "binomial",
            "ceil_div",
            "ceil_log2",
            "ceil_sqrt",
            "is_power_of_two",
            "log_ceil",
            "polylog",
        ),
        "repro.util.rng": ("RandomSource", "SharedCoin"),
    },
)
