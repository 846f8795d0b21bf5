"""Trial runner: fan trials out over processes, aggregate into TrialSets.

Trials of a scenario are embarrassingly parallel: every (size, trial) pair
gets its own pre-derived :class:`RandomSource` child, so results are
bit-identical whether they run serially or across a
:class:`~concurrent.futures.ProcessPoolExecutor` — the parent derives all
seeds up front in grid order and aggregation consumes results in that same
order.  ``jobs=None`` uses every core.

The aggregation (:func:`aggregate_trials`) reproduces the legacy
``measure_scaling`` statistics exactly (same means, same population std,
same numeric-extra merging) and adds order statistics (median, p90, max).
"""

from __future__ import annotations

import math
import multiprocessing
import os
import statistics
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from time import perf_counter

from repro.network import load_deferred_modules
from repro.runtime.registry import TrialOutcome
from repro.runtime.scenario import Scenario
from repro.telemetry import current_profiler, current_tracer, metrics_registry
from repro.util.rng import RandomSource

__all__ = [
    "ScenarioRun",
    "TrialSet",
    "aggregate_trials",
    "fan_out",
    "resolve_jobs",
    "run_scenario",
]


@dataclass(frozen=True)
class TrialSet:
    """Aggregate statistics over every trial of a scenario at one size."""

    n: int
    trials: int
    success_rate: float
    messages_mean: float
    messages_std: float
    messages_p50: float
    messages_p90: float
    messages_max: float
    rounds_mean: float
    extra: dict = field(default_factory=dict)

    def as_scaling_point(self):
        """The legacy :class:`~repro.analysis.scaling.ScalingPoint` view."""
        from repro.analysis.scaling import ScalingPoint

        return ScalingPoint(
            n=self.n,
            messages_mean=self.messages_mean,
            messages_std=self.messages_std,
            rounds_mean=self.rounds_mean,
            success_rate=self.success_rate,
            trials=self.trials,
            extra=dict(self.extra),
        )


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation)."""
    rank = math.ceil(q * len(sorted_values))
    return sorted_values[max(0, min(len(sorted_values) - 1, rank - 1))]


def aggregate_trials(n: int, outcomes: list[TrialOutcome]) -> TrialSet:
    """Fold per-trial outcomes at one size into a :class:`TrialSet`."""
    if not outcomes:
        raise ValueError(f"no trial outcomes to aggregate at n={n}")
    messages = [float(o.messages) for o in outcomes]
    rounds = [float(o.rounds) for o in outcomes]
    successes = sum(bool(o.success) for o in outcomes)
    extras = [o.extra for o in outcomes]
    merged_extra: dict = {}
    for key in extras[0] if extras else ():
        numeric = [e[key] for e in extras if isinstance(e.get(key), (int, float))]
        if len(numeric) == len(extras):
            merged_extra[key] = statistics.fmean(numeric)
    ordered = sorted(messages)
    return TrialSet(
        n=n,
        trials=len(outcomes),
        success_rate=successes / len(outcomes),
        messages_mean=statistics.fmean(messages),
        messages_std=statistics.pstdev(messages) if len(messages) > 1 else 0.0,
        messages_p50=_percentile(ordered, 0.5),
        messages_p90=_percentile(ordered, 0.9),
        messages_max=ordered[-1],
        rounds_mean=statistics.fmean(rounds),
        extra=merged_extra,
    )


@dataclass(frozen=True)
class ScenarioRun:
    """One scenario's aggregated measurements over its whole size grid.

    ``meta`` records *how* the run executed — the executor ("pool" or
    "fabric"), the requested and resolved job counts, the host's CPU
    count — without ever affecting the aggregates themselves.  It exists
    because :func:`resolve_jobs` used to clamp silently on 1-CPU hosts:
    ``jobs=None`` would quietly run serially with no way to detect it.
    """

    scenario: Scenario
    trial_sets: tuple[TrialSet, ...]
    meta: dict = field(default_factory=dict)

    @property
    def sizes(self) -> list[int]:
        return [ts.n for ts in self.trial_sets]

    @property
    def messages(self) -> list[float]:
        return [ts.messages_mean for ts in self.trial_sets]

    def overall_success_rate(self) -> float:
        total = sum(ts.trials for ts in self.trial_sets)
        good = sum(ts.success_rate * ts.trials for ts in self.trial_sets)
        return good / total if total else 0.0

    def to_series(self, label: str | None = None):
        """Feed the unchanged fitting pipeline (ScalingSeries/PowerLawFit)."""
        from repro.analysis.scaling import ScalingSeries

        return ScalingSeries(
            label=label if label is not None else self.scenario.name,
            points=[ts.as_scaling_point() for ts in self.trial_sets],
        )


def resolve_jobs(jobs: int | None) -> int:
    """None → all cores; explicit values must be >= 1.

    On a 1-CPU host (or when ``os.cpu_count()`` is unknowable) ``None``
    resolves to 1 — an effectively serial run.  Callers cannot see that
    from the aggregates, so :func:`run_scenario` surfaces the resolved
    value in ``ScenarioRun.meta["jobs_resolved"]``.
    """
    if jobs is None:
        return os.cpu_count() or 1
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return jobs


def fan_out(fn, tasks: list, jobs: int | None = 1) -> list:
    """Map ``fn`` over ``tasks``, preserving order, optionally in processes.

    ``fn`` and every task must be picklable (module-level functions and
    frozen dataclasses are).  With ``jobs=1`` (or a single task) everything
    runs in-process — same results, by construction.
    """
    tasks = list(tasks)
    if not tasks:
        return []
    jobs = min(resolve_jobs(jobs), len(tasks))
    if jobs <= 1:
        return [fn(task) for task in tasks]
    # Prefer fork on Linux (fast, inherits sys.path and loaded modules, so
    # the deferred ones are loaded here once, not in every job); elsewhere
    # the platform default — forking is unsafe on macOS once
    # numpy/Accelerate is loaded.
    context = None
    if sys.platform == "linux":
        context = multiprocessing.get_context("fork")
        load_deferred_modules()
    chunksize = max(1, len(tasks) // (jobs * 4))
    with ProcessPoolExecutor(max_workers=jobs, mp_context=context) as pool:
        return list(pool.map(fn, tasks, chunksize=chunksize))


def _scenario_trial(task) -> TrialOutcome:
    scenario, n, rng = task
    return scenario.run_trial(n, rng)


def _scenario_trial_telemetry(task):
    """Pool-worker trial with telemetry: outcome plus registry/profiler deltas.

    Forked workers each own a process-local registry and profiler, so
    their increments would be lost when the pool exits; returning deltas
    lets the parent fold them in at aggregate time.  Trial spans are
    emitted here — inside the worker — so concurrent trials interleave
    whole records in the shared trace file.  None of this touches the
    trial RNG: outcomes are bit-identical to :func:`_scenario_trial`.
    """
    scenario, n, rng, position, trial = task
    registry = metrics_registry()
    prof = current_profiler()
    reg_before = registry.snapshot()
    prof_before = prof.snapshot() if prof is not None else None
    tracer = current_tracer()
    if tracer.enabled:
        tracer.emit(
            "trial_start",
            scenario=scenario.name,
            protocol=scenario.protocol,
            n=n,
            position=position,
            trial=trial,
        )
    start = perf_counter()
    outcome = scenario.run_trial(n, rng)
    elapsed = perf_counter() - start
    registry.histogram("repro_trial_seconds").observe(elapsed)
    if tracer.enabled:
        tracer.emit(
            "trial_end",
            scenario=scenario.name,
            protocol=scenario.protocol,
            n=n,
            position=position,
            trial=trial,
            rounds=outcome.rounds,
            messages=outcome.messages,
            success=bool(outcome.success),
            seconds=elapsed,
        )
    return (
        outcome,
        registry.delta(reg_before),
        prof.delta(prof_before) if prof is not None else None,
    )


def run_scenario(
    scenario: Scenario,
    jobs: int | None = 1,
    sizes: list[int] | None = None,
    trials: int | None = None,
    seed: int | None = None,
    store=None,
    executor: str = "pool",
    fabric_dir=None,
    fabric_options: dict | None = None,
) -> ScenarioRun:
    """Run every (size, trial) point of ``scenario`` and aggregate.

    Seeds for all trials are derived up front, in grid order, from the
    scenario seed — so the aggregates are identical for any ``jobs``.

    With a :class:`~repro.runtime.store.ResultStore`, sizes whose trial set
    is already cached are loaded instead of recomputed and fresh sizes are
    written back — *appending* sizes to a grid only pays for the new ones.
    Seeds are derived for every grid point in order and cache keys include
    the grid position, so a partially-cached run is bit-identical to a
    cold one (reordered or prepended grids recompute rather than reuse
    entries from a different seed stream).

    ``executor`` selects how trials are distributed: ``"pool"`` (the
    in-process path above, optionally over a local process pool) or
    ``"fabric"`` — the multi-host work-queue executor of
    :mod:`repro.fabric`, which lays the grid out as shards under
    ``fabric_dir``, drives ``jobs`` local worker processes against it
    (remote workers may join with ``repro worker``), and collects
    bit-identical aggregates from the content-addressed store.
    ``fabric_options`` passes through to
    :func:`repro.fabric.run_fabric_sweep` (``lease_ttl``,
    ``fault_plans``, ``poll``, ``timeout``).

    The returned run's ``meta`` records the executor and the resolved
    job count — on a 1-CPU host ``jobs=None`` resolves to 1, which used
    to happen silently.
    """
    if executor not in ("pool", "fabric"):
        raise ValueError(
            f"executor must be 'pool' or 'fabric', got {executor!r}"
        )
    if sizes is not None or trials is not None or seed is not None:
        scenario = scenario.with_overrides(sizes=sizes, trials=trials, seed=seed)
    resolved_jobs = resolve_jobs(jobs)
    meta = {
        "executor": executor,
        "jobs_requested": jobs,
        "jobs_resolved": resolved_jobs,
        "cpu_count": os.cpu_count(),
    }
    tracer = current_tracer()
    prof = current_profiler()
    prof_before = prof.snapshot() if prof is not None else None
    if tracer.enabled:
        tracer.emit(
            "run_start",
            scenario=scenario.name,
            protocol=scenario.protocol,
            sizes=list(scenario.sizes),
            trials=scenario.trials,
            seed=scenario.seed,
            executor=executor,
        )
    if executor == "fabric":
        if fabric_dir is None:
            raise ValueError("executor='fabric' needs a fabric_dir")
        from repro.fabric import run_fabric_sweep

        run = run_fabric_sweep(
            scenario,
            fabric_dir,
            workers=resolved_jobs,
            store=store,
            meta=meta,
            **(fabric_options or {}),
        )
        if prof is not None:
            run.meta["profile"] = prof.delta(prof_before)
        if tracer.enabled:
            tracer.emit(
                "run_end",
                scenario=scenario.name,
                protocol=scenario.protocol,
                positions=len(run.trial_sets),
                from_cache=0,
            )
        return run
    cached: dict[int, TrialSet] = {}  # grid position → cached trial set
    if store is not None:
        for position, n in enumerate(scenario.sizes):
            hit = store.load(scenario, n, position)
            if hit is not None:
                cached[position] = hit
    pending = [p for p in range(len(scenario.sizes)) if p not in cached]
    tasks = []
    if pending:
        # Per-trial seeds are spawned for the whole grid, in grid order,
        # so a pending position gets the same stream whatever is cached.
        root = RandomSource(scenario.seed)
        grid_rngs = [
            [root.spawn() for _ in range(scenario.trials)] for _ in scenario.sizes
        ]
        tasks = [
            (scenario, scenario.sizes[p], rng, p, trial)
            for p in pending
            for trial, rng in enumerate(grid_rngs[p])
        ]
    results = fan_out(_scenario_trial_telemetry, tasks, jobs)
    # With a real pool, every trial ran in a forked worker whose registry
    # and profiler die with it — fold the returned deltas in here.  In
    # the in-process case (fan_out's jobs<=1 path) the trial already
    # charged this process directly, so merging would double-count.
    pooled = bool(tasks) and min(resolved_jobs, len(tasks)) > 1
    outcomes = []
    registry = metrics_registry()
    for outcome, reg_delta, prof_delta in results:
        outcomes.append(outcome)
        if pooled:
            if reg_delta:
                registry.merge(reg_delta)
            if prof is not None and prof_delta:
                prof.merge(prof_delta)
    trial_sets = []
    for position, n in enumerate(scenario.sizes):
        if position in cached:
            trial_sets.append(cached[position])
            continue
        index = pending.index(position)
        chunk = outcomes[index * scenario.trials : (index + 1) * scenario.trials]
        trial_set = aggregate_trials(n, chunk)
        if store is not None:
            store.save(scenario, n, position, trial_set)
        trial_sets.append(trial_set)
    # Wall-time breakdown for `repro profile` — attached only when
    # profiling is on, after aggregates and store writes are final, so
    # profiled runs stay bit-identical to bare ones where it counts.
    if prof is not None:
        meta["profile"] = prof.delta(prof_before)
    if tracer.enabled:
        tracer.emit(
            "run_end",
            scenario=scenario.name,
            protocol=scenario.protocol,
            positions=len(scenario.sizes),
            from_cache=len(cached),
        )
    return ScenarioRun(
        scenario=scenario, trial_sets=tuple(trial_sets), meta=meta
    )
