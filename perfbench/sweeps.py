"""The three sweep workloads: passes of ``run_scenario`` calls, then hot re-reads.

A *pass* is one fixed list of catalogue scenario sweeps, each run with
``jobs=1`` through :func:`repro.runtime.run_scenario` and written through
the run's :class:`~repro.runtime.store.ResultStore`.  Every pass draws
fresh scenario seeds from the workload seed, so passes repeat the same
amount of work on different inputs.  Between calls, *hot* calls ask
``run_scenario`` again for sweeps already computed: those answers come
from the store, as a user re-running a finished sweep would get.

Every call is timed with :class:`clock.Timed`, in reference seconds.
"""

from __future__ import annotations

import dataclasses
import math
import statistics
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from clock import Timed


@dataclass(frozen=True)
class Sweep:
    """One catalogue scenario of a pass: its grid, trials per size, checks."""

    scenario: str  # catalogue name
    sizes: tuple[int, ...]
    trials: int
    raw_counts: bool = False  # drop the catalogue's normalize_by
    fault_free: bool = True  # every trial must elect exactly one leader


_CLAIM_PAIRS = {
    # experiment: (quantum scenario, classical scenario, sizes or None)
    "E1": ("complete-le/quantum", "complete-le/classical", None),
    "E3": ("mixing-le/quantum", "mixing-le/classical", (32, 64, 128)),
    "E4": ("diameter2-le/quantum", "diameter2-le/classical", None),
    "E5": ("general-le/quantum", "general-le/classical", None),
    "E6": ("agreement/quantum", "agreement/classical", None),
    "E7": ("star-search/quantum", "star-search/classical", None),
    "E8": ("star-count/quantum", "star-count/classical", None),
    "E10": ("mst/quantum", "mst/classical", None),
}


def _claims(sizes_for) -> tuple[Sweep, ...]:
    from repro.runtime import get_scenario

    sweeps = []
    for experiment, (quantum, classical, sizes) in _CLAIM_PAIRS.items():
        for name in (classical, quantum):
            grid = sizes_for(experiment, sizes or get_scenario(name).sizes)
            sweeps.append(Sweep(name, tuple(grid), 1, fault_free=False))
    return tuple(sweeps)


def passes(workload: str, smoke: bool) -> tuple[Sweep, ...]:
    """The sweeps of one pass of ``workload`` (tiny grids under ``smoke``)."""
    if workload == "kpp-complete":
        sizes = (512, 1024) if smoke else (4096, 16384, 32768)
        return (Sweep("complete-le/classical", sizes, 1 if smoke else 3, raw_counts=True),)
    if workload == "ring-rounds":
        return (
            Sweep("ring-le/hs", (64, 128) if smoke else (1024, 2048), 1 if smoke else 2),
            Sweep(
                "ring-le-lossy/lcr",
                (32, 64) if smoke else (512, 1024),
                1 if smoke else 2,
                fault_free=False,
            ),
        )
    if workload == "claims-mix":
        if not smoke:
            return _claims(lambda experiment, grid: grid)
        # Smoke: the two smallest catalogue sizes, E3 kept walk-heavy.
        return _claims(
            lambda experiment, grid: (32, 64) if experiment == "E3" else sorted(grid)[:2]
        )
    raise KeyError(workload)


def calls(plan: tuple[Sweep, ...]) -> list[tuple[Sweep, int]]:
    """The ``(sweep, n)`` of each ``run_scenario`` call in a pass.

    One single-trial call per (size, trial), largest size first, so no
    timed call is longer than about a second and the probes around it
    track the host.
    """
    return [
        (sweep, n)
        for sweep in plan
        for n in sorted(sweep.sizes, reverse=True)
        for _ in range(sweep.trials)
    ]


def scenario_for(sweep: Sweep, seed: int, n: int | None = None):
    """The sweep's scenario, or one single-trial call of it at size ``n``."""
    from repro.runtime import get_scenario

    scenario = get_scenario(sweep.scenario).with_overrides(
        sizes=(n,) if n else sweep.sizes, trials=1 if n else sweep.trials, seed=seed
    )
    if sweep.raw_counts:
        scenario = dataclasses.replace(scenario, normalize_by=None)
    return scenario


def derive_seed(*parts: int) -> int:
    """A scenario seed fixed by the workload seed and the call's position."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0]) % (2**31)


# -- correctness ---------------------------------------------------------------


def trial_sets_json(run) -> list[dict]:
    """A run's trial sets as the JSON the store and the serve API carry."""
    import json

    return json.loads(
        json.dumps([dataclasses.asdict(ts) for ts in run.trial_sets], default=str)
    )


def sweep_problems(sweep: Sweep, run) -> list[str]:
    """Checks every single-trial sweep call must pass, whatever its workload."""
    problems = []
    for ts in run.trial_sets:
        if ts.trials != 1:
            problems.append(f"{sweep.scenario} n={ts.n}: {ts.trials} trials")
        if not ts.messages_mean > 0:
            problems.append(f"{sweep.scenario} n={ts.n}: no messages")
        if sweep.fault_free and ts.success_rate != 1.0:
            problems.append(
                f"{sweep.scenario} n={ts.n}: success {ts.success_rate:.3f} "
                f"(every fault-free trial must elect exactly one leader)"
            )
    return problems


def _fit(run, polylog_power: float = 0.0) -> float:
    from repro.analysis.fitting import fit_power_law

    return fit_power_law(run.sizes, run.messages, polylog_power).exponent


def _top(run) -> float:
    return run.messages[-1]


def _success_floor(side: int):
    """At most one failed trial in three, on one side of a pair."""
    return lambda q, c: (q, c)[side].overall_success_rate() >= 0.6


#: Candidate claim checks: name → (experiment, test on (quantum, classical)).
#: Success floors are per side; exponents use the bench polylog divisors.
CLAIM_CHECKS = {
    **{
        f"{e}.success.{name}": (e, _success_floor(side))
        for e in _CLAIM_PAIRS
        for side, name in enumerate(("quantum", "classical"))
    },
    "E1.winner": ("E1", lambda q, c: _top(q) < _top(c)),
    "E1.exponent_order": ("E1", lambda q, c: _fit(q) < _fit(c, 0.5)),
    "E1.quantum_exponent": ("E1", lambda q, c: abs(_fit(q) - 1 / 3) <= 0.15),
    "E1.classical_exponent": ("E1", lambda q, c: abs(_fit(c, 0.5) - 1 / 2) <= 0.15),
    "E3.exponent_order": ("E3", lambda q, c: _fit(q, 5 / 3) < _fit(c, 1.5)),
    "E3.quantum_exponent": ("E3", lambda q, c: abs(_fit(q, 5 / 3) - 1 / 3) <= 0.25),
    "E3.classical_exponent": ("E3", lambda q, c: abs(_fit(c, 1.5) - 1 / 2) <= 0.25),
    "E4.growth_order": ("E4", lambda q, c: _top(q) / q.messages[0] < _top(c) / c.messages[0]),
    "E4.quantum_exponent": ("E4", lambda q, c: abs(_fit(q) - 2 / 3) <= 0.2),
    "E4.classical_exponent": ("E4", lambda q, c: abs(_fit(c) - 1.0) <= 0.12),
    "E5.winner": ("E5", lambda q, c: _top(q) < _top(c)),
    "E5.exponent_order": ("E5", lambda q, c: _fit(q) < _fit(c)),
    "E6.exponent_order": ("E6", lambda q, c: _fit(q) < _fit(c)),
    "E7.winner": ("E7", lambda q, c: _top(q) < _top(c)),
    "E7.quantum_exponent": ("E7", lambda q, c: abs(_fit(q) - 0.5) <= 0.2),
    "E7.classical_exponent": ("E7", lambda q, c: abs(_fit(c) - 1.0) <= 0.1),
    "E10.winner": ("E10", lambda q, c: _top(q) < _top(c)),
    "E10.exponent_order": ("E10", lambda q, c: _fit(q) < _fit(c)),
}

#: The checks enforced on the committed grid: each held on all of 200
#: exploratory seeds, with its margin never close to the limit on 70 more
#: (see README.md).  The rest are evaluated and reported, never enforced.
KEPT_CHECKS = tuple(
    name for name in CLAIM_CHECKS if ".success." in name
) + (
    "E1.winner",
    "E1.exponent_order",
    "E1.quantum_exponent",
    "E1.classical_exponent",
    "E3.classical_exponent",
    "E4.classical_exponent",
    "E7.winner",
    "E7.classical_exponent",
)


def claim_results(runs: dict) -> dict[str, bool]:
    """Evaluate every candidate claim check on one pass's runs."""
    results = {}
    for name, (experiment, test) in CLAIM_CHECKS.items():
        quantum, classical, _ = _CLAIM_PAIRS[experiment]
        if quantum in runs and classical in runs:
            try:
                results[name] = bool(test(runs[quantum], runs[classical]))
            except ValueError:  # a fit on a degenerate grid
                results[name] = False
    return results


# -- the workload loop ---------------------------------------------------------


#: Hot re-reads get this share of each computed call's time, right after
#: it, so hot latencies are sampled across the whole run.
HOT_SHARE = 0.06
#: Hot calls timed together between two probes.
HOT_BATCH = 20


class _HotCalls:
    """``run_scenario`` re-asked for sweeps already computed and stored."""

    def __init__(self, run_scenario, store, seed: int):
        self.run_scenario = run_scenario
        self.store = store
        self.rng = np.random.default_rng([seed, 7])
        self.computed = []  # (scenario, trial sets json)
        self.samples: list[float] = []  # reference seconds
        self.raw: list[float] = []  # wall seconds
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def _one(self, latencies: list) -> None:
        scenario, expected = self.computed[int(self.rng.integers(len(self.computed)))]
        self.attempted += 1
        start = perf_counter()
        try:
            run = self.run_scenario(scenario, jobs=1, store=self.store)
        except Exception as exc:  # noqa: BLE001 — counted, then reported
            self.failed += 1
            self.problems.append(f"hot {scenario.name}: {type(exc).__name__}: {exc}")
            return
        latencies.append(perf_counter() - start)
        if trial_sets_json(run) != expected:
            self.failed += 1
            self.problems.append(f"hot {scenario.name}: differs from the computed sweep")

    def batch(self) -> float:
        """One probed batch of hot calls; returns its wall time."""
        latencies: list[float] = []
        with Timed() as timed:
            for _ in range(HOT_BATCH):
                self._one(latencies)
        self.raw += latencies
        self.samples += [s * timed.scale for s in latencies]
        return timed.raw_s

    def spend(self, seconds: float) -> None:
        while self.computed and seconds > 0:
            seconds -= self.batch()


def run_sweeps(
    workload: str,
    seed: int,
    seconds: float,
    store_root: str,
    smoke: bool = False,
    tracer=None,
    hot_calls: int = 1000,
) -> dict:
    """Passes for ~``seconds`` with hot re-reads between calls; raw samples.

    A pass's time is the sum of its computed calls.  Cold latencies are
    those of the pass's first call kind (first sweep, largest size), so
    their median does not jump between the modes of a mixed pass.  With a
    ``tracer``, odd passes run traced (and without hot re-reads) and even
    passes untraced, so one run yields the per-layer view and the tracing
    overhead.  At least ``hot_calls`` hot samples are taken.
    """
    from repro.runtime import ResultStore, ScenarioRun, run_scenario

    store = ResultStore(root=store_root, memory_entries=0)
    hot = _HotCalls(run_scenario, store, seed)
    plan = calls(passes(workload, smoke))
    pass_s, pass_raw_s, traced_s, cold_s = [], [], [], []
    call_s: dict[int, list[float]] = {}  # untraced times per pass position
    problems: list[str] = []
    claims: dict[str, list[bool]] = {}
    attempted = failed = 0
    budget = seconds * 0.85
    started = perf_counter()
    index = 0
    min_passes = 2 if tracer is not None else 1
    while index < min_passes or (
        perf_counter() - started + statistics.median(pass_raw_s + traced_s) < budget
    ):
        traced = tracer is not None and index % 2 == 1
        sets: dict[Sweep, list] = {}  # trial sets per sweep, for the checks
        ref_s = raw_s = 0.0
        for position, (sweep, n) in enumerate(plan):
            scenario = scenario_for(sweep, derive_seed(seed, index, position), n)
            attempted += 1
            if traced:
                tracer.install()
            try:
                with Timed() as timed:
                    run = run_scenario(scenario, jobs=1, store=store)
            except Exception as exc:  # noqa: BLE001 — counted, then reported
                failed += 1
                problems.append(f"{sweep.scenario}: {type(exc).__name__}: {exc}")
                continue
            finally:
                if traced:
                    tracer.uninstall()
            ref_s += timed.ref_s
            raw_s += timed.raw_s
            if not traced:
                call_s.setdefault(position, []).append(timed.ref_s)
            if not traced and (sweep, n) == plan[0]:
                cold_s.append(timed.ref_s)
            bad = sweep_problems(sweep, run)
            if bad:
                failed += 1
                problems.extend(bad)
            sets.setdefault(sweep, []).extend(run.trial_sets)
            hot.computed.append((scenario, trial_sets_json(run)))
            if not traced:
                hot.spend(HOT_SHARE * timed.raw_s)
        if traced:
            traced_s.append(raw_s)
        else:
            pass_s.append(ref_s)
            pass_raw_s.append(raw_s)
        runs = {
            sweep.scenario: ScenarioRun(
                scenario_for(sweep, 0), tuple(sorted(found, key=lambda ts: ts.n))
            )
            for sweep, found in sets.items()
        }
        for name, ok in claim_results(runs).items():
            claims.setdefault(name, []).append(ok)
        index += 1
    # Claim checks were chosen on the committed grid; smoke grids only
    # report them.
    for name in () if smoke else KEPT_CHECKS:
        if name in claims and not all(claims[name]):
            problems.append(f"claim check {name} failed on {claims[name].count(False)} pass(es)")
    while hot.computed and len(hot.samples) < hot_calls:
        hot.batch()
    return {
        "pass_s": pass_s,
        "pass_raw_s": pass_raw_s,
        "call_s": [call_s[position] for position in sorted(call_s)],
        "traced_pass_raw_s": traced_s,
        "traced_passes": len(traced_s),
        "cold_s": cold_s,
        "hot_s": hot.samples,
        "hot_raw_s": hot.raw,
        "attempted": attempted + hot.attempted,
        "failed": failed + hot.failed,
        "problems": problems + hot.problems,
        "claims": {name: [int(ok) for ok in oks] for name, oks in claims.items()},
    }


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


#: Consecutive latency samples per window of :func:`windowed_percentile`.
TAIL_WINDOW = 500


def windowed_percentile(values: list[float], q: float) -> float:
    """Median over consecutive ``TAIL_WINDOW``-sample windows of their percentile.

    A burst of host noise raises the tail of the windows it falls in, not
    the median of all windows.  Samples short of a full window form one.
    """
    windows = [
        values[i : i + TAIL_WINDOW]
        for i in range(0, len(values) - TAIL_WINDOW + 1, TAIL_WINDOW)
    ] or [values]
    return statistics.median(percentile(window, q) for window in windows)
