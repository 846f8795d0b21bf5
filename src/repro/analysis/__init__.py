"""Measurement harness: scaling runs, power-law fits, tables, experiment registry."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.analysis.experiments": ("EXPERIMENTS", "Experiment", "get_experiment"),
        "repro.analysis.fitting": (
            "PowerLawFit",
            "crossover_estimate",
            "fit_power_law",
        ),
        "repro.analysis.scaling": ("ScalingPoint", "ScalingSeries", "measure_scaling"),
        "repro.analysis.tables": ("comparison_table", "render_table"),
    },
)
