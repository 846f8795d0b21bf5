"""Shared benchmark harness.

Every bench module in this directory regenerates one experiment of the
E1–E12 table in README.md's Experiments section (the paper has no numbered
tables/figures; its evaluation is its theorems; EXPERIMENTS.md records the
results).  A bench:

1. sweeps the relevant parameter grid with repeated trials,
2. prints a paper-style comparison table plus fitted exponents,
3. writes the table to ``benchmarks/results/EXX.txt`` (EXPERIMENTS.md quotes
   these files),
4. asserts the reproduced *shape* (who wins, fitted exponents within
   tolerance) so ``pytest benchmarks/ --benchmark-only`` doubles as a
   verification harness,
5. registers a representative single run with pytest-benchmark for wall time.

Schedules use constant failure budgets (α = 1/8-ish) rather than the paper's
1/poly(n): this drops only log(n) boosting factors — identical asymptotic
shape, measurable at laptop scale — and is applied to both the quantum and
the classical side of each comparison.
"""

from __future__ import annotations

import os
import pathlib

from repro.analysis.fitting import PowerLawFit
from repro.analysis.scaling import ScalingSeries
from repro.analysis.tables import comparison_table, render_table
from repro.runtime import get_scenario, run_scenario

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Constant failure budget used across benches (quantum and classical alike).
LEAN_ALPHA = 1.0 / 8.0

#: Worker processes for scenario sweeps: all cores by default, serial with
#: ``REPRO_BENCH_JOBS=1``.  Aggregates are identical either way — per-trial
#: seeds are derived up front by the runtime.
BENCH_JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "0")) or None


def scenario_sweep(
    name: str,
    label: str,
    sizes: list[int] | None = None,
    trials: int | None = None,
    seed: int | None = None,
    params: dict | None = None,
    jobs: int | None = BENCH_JOBS,
) -> ScalingSeries:
    """Run a catalogue scenario (with bench overrides) and return its series."""
    scenario = get_scenario(name).with_overrides(
        sizes=sizes, trials=trials, seed=seed, params=params
    )
    return run_scenario(scenario, jobs=jobs).to_series(label)


def emit(experiment_id: str, text: str) -> None:
    """Print a result block and persist it under benchmarks/results/."""
    banner = f"=== {experiment_id} ==="
    print(f"\n{banner}\n{text}\n")
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{experiment_id}.txt").write_text(text + "\n")


def fit_line(label: str, fit: PowerLawFit, paper_exponent: float | None) -> str:
    paper = f" (paper: {paper_exponent:.3f})" if paper_exponent is not None else ""
    return f"{label}: measured {fit}{paper}"


def series_block(
    experiment_id: str,
    title: str,
    quantum: ScalingSeries,
    classical: ScalingSeries,
    quantum_fit: PowerLawFit,
    classical_fit: PowerLawFit,
    quantum_paper: float | None,
    classical_paper: float | None,
    notes: str = "",
) -> str:
    """The standard two-series result block."""
    parts = [
        comparison_table(quantum, classical, title=title),
        fit_line("quantum  ", quantum_fit, quantum_paper),
        fit_line("classical", classical_fit, classical_paper),
    ]
    if notes:
        parts.append(notes)
    return "\n".join(parts)


def single_table(title: str, headers: list[str], rows: list[list[str]]) -> str:
    return render_table(headers, rows, title=title)
