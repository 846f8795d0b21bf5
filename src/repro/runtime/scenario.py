"""Scenario layer: named, reproducible (protocol × topology × size) bindings.

A :class:`Scenario` freezes everything one measurement needs — a topology
family from :mod:`repro.network.graphs`, a size grid, a registered protocol
name, and parameters — so that any point of the paper's experiment space is
a declarable object.  Per-trial randomness derives deterministically from
the scenario seed via :meth:`RandomSource.spawn`, which makes results
independent of how trials are scheduled (serial or process-parallel).

Topology families come in three flavours:

* deterministic (complete, star, hypercube, torus, ...): the trial RNG is
  handed to the protocol untouched — bit-identical to the legacy
  ``measure_scaling`` runners;
* random per-trial (erdos-renyi, random-regular, diameter2-gnp): the trial
  RNG is split once for the topology draw and once for the protocol;
* random but fixed per size (``fixed_seed``): the topology RNG is derived
  from ``fixed_seed + n`` only, so every trial at a size shares one graph
  (the benchmarks' convention for dense diameter-2 sweeps).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, replace

from repro.network import graphs
from repro.network.topology import Topology
from repro.util.rng import RandomSource

__all__ = [
    "Scenario",
    "TOPOLOGY_FAMILIES",
    "TopologyFamily",
    "TopologySpec",
    "clear_topology_memo",
    "topology_family",
]


@dataclass(frozen=True)
class TopologyFamily:
    """One named generator family: how to build it at a requested size."""

    name: str
    builder: Callable[..., Topology]
    needs_rng: bool
    description: str


def _build_hypercube(n: int) -> Topology:
    # Rounds n up to the next power of two (callers that care warn the user).
    return graphs.hypercube(max(2, (n - 1).bit_length()))


def _build_torus(n: int) -> Topology:
    rows = math.isqrt(n)
    if rows * rows != n:
        raise ValueError(f"torus scenarios need a square size, got n={n}")
    return graphs.torus(rows, rows)


def _build_barbell(n: int) -> Topology:
    if n % 2 or n < 6:
        raise ValueError(f"barbell scenarios need even n >= 6, got {n}")
    return graphs.barbell(n // 2)


def _build_lollipop(n: int) -> Topology:
    if n < 5:
        raise ValueError(f"lollipop scenarios need n >= 5, got {n}")
    clique = max(3, (2 * n) // 3)
    return graphs.lollipop(clique, n - clique)


def _build_complete_bipartite(n: int) -> Topology:
    return graphs.complete_bipartite(n // 2, n - n // 2)


def _build_random_regular(n: int, rng: RandomSource, degree: int = 4) -> Topology:
    return graphs.random_regular(n, degree, rng)


def _build_erdos_renyi(n: int, rng: RandomSource, p: float = 0.1) -> Topology:
    return graphs.erdos_renyi(n, p, rng)


TOPOLOGY_FAMILIES: dict[str, TopologyFamily] = {
    family.name: family
    for family in (
        TopologyFamily("complete", graphs.complete, False, "complete graph K_n"),
        TopologyFamily("star", graphs.star, False, "star with centre 0"),
        TopologyFamily("cycle", graphs.cycle, False, "cycle C_n"),
        TopologyFamily("path", graphs.path, False, "path P_n"),
        TopologyFamily("wheel", graphs.wheel, False, "wheel (hub + rim)"),
        TopologyFamily(
            "hypercube",
            _build_hypercube,
            False,
            "hypercube on 2^d nodes (n rounded up to a power of two)",
        ),
        TopologyFamily("torus", _build_torus, False, "2-D square torus (4-regular)"),
        TopologyFamily(
            "barbell", _build_barbell, False, "two n/2-cliques joined by one edge"
        ),
        TopologyFamily(
            "lollipop", _build_lollipop, False, "2n/3-clique with an n/3 tail"
        ),
        TopologyFamily(
            "complete-bipartite",
            _build_complete_bipartite,
            False,
            "complete bipartite K_{n/2,n/2}",
        ),
        TopologyFamily(
            "random-regular",
            _build_random_regular,
            True,
            "random d-regular expander (param: degree, default 4)",
        ),
        TopologyFamily(
            "erdos-renyi",
            _build_erdos_renyi,
            True,
            "connected G(n, p) (param: p, default 0.1)",
        ),
        TopologyFamily(
            "diameter2-gnp",
            graphs.diameter_two_gnp,
            True,
            "G(n, p) retried until diameter exactly 2",
        ),
    )
}

#: Per-family default params applied when the spec does not override them.
_FAMILY_DEFAULTS: dict[str, dict] = {
    "random-regular": {"degree": 4},
    "erdos-renyi": {"p": 0.1},
}


def topology_family(name: str) -> TopologyFamily:
    try:
        return TOPOLOGY_FAMILIES[name]
    except KeyError:
        raise KeyError(
            f"unknown topology family {name!r}; known: {sorted(TOPOLOGY_FAMILIES)}"
        ) from None


# -- per-worker topology memo --------------------------------------------------

#: Deterministically-buildable topologies keyed on
#: ``(family, params, fixed_seed, n)``.  Each worker process keeps its own
#: memo (workers share nothing), so a fixed-seed sweep builds each graph at
#: most once per worker instead of once per trial.  Specs that draw a fresh
#: random graph per trial are never memoized, so caching cannot change any
#: result — it only skips rebuilding identical graphs.
_TOPOLOGY_MEMO: dict[tuple, Topology] = {}
_TOPOLOGY_MEMO_MAX = 64


def clear_topology_memo() -> None:
    """Drop every memoized topology in this process (tests, memory pressure)."""
    _TOPOLOGY_MEMO.clear()


@dataclass(frozen=True)
class TopologySpec:
    """A topology family plus its parameters, buildable at any grid size."""

    family: str
    params: tuple[tuple[str, object], ...] = ()
    #: When set, random families draw from ``RandomSource(fixed_seed + n)``
    #: instead of the trial RNG: one shared graph per size across trials.
    fixed_seed: int | None = None

    @property
    def param_dict(self) -> dict:
        merged = dict(_FAMILY_DEFAULTS.get(self.family, {}))
        merged.update(self.params)
        return merged

    @property
    def consumes_trial_rng(self) -> bool:
        return topology_family(self.family).needs_rng and self.fixed_seed is None

    def build(self, n: int, rng: RandomSource | None = None) -> Topology:
        family = topology_family(self.family)
        if not family.needs_rng:
            return family.builder(n, **self.param_dict)
        if self.fixed_seed is not None:
            rng = RandomSource(self.fixed_seed + n)
        if rng is None:
            raise ValueError(
                f"topology family {self.family!r} needs an rng (or a fixed_seed)"
            )
        return family.builder(n, rng, **self.param_dict)

    def build_cached(self, n: int) -> Topology:
        """Like :meth:`build`, but memoized per worker process.

        Only valid for specs whose build is a pure function of the spec and
        ``n`` — deterministic families and random families pinned by
        ``fixed_seed``.  The memo is keyed on
        ``(family, params, fixed_seed, n)`` and holds the built
        :class:`Topology` (including its lazily-built port table), so every
        trial at a size shares one graph object.
        """
        if self.consumes_trial_rng:
            raise ValueError(
                f"topology family {self.family!r} draws per-trial graphs and "
                f"cannot be memoized (set fixed_seed to share one graph)"
            )
        key = (self.family, self.params, self.fixed_seed, n)
        topology = _TOPOLOGY_MEMO.get(key)
        if topology is None:
            if len(_TOPOLOGY_MEMO) >= _TOPOLOGY_MEMO_MAX:
                _TOPOLOGY_MEMO.clear()
            topology = self.build(n)
            _TOPOLOGY_MEMO[key] = topology
        return topology


#: Sentinel distinguishing "keep the current adversary" from "set None".
_KEEP = object()


@dataclass(frozen=True)
class Scenario:
    """A named, reproducible (protocol × topology × size-grid) binding."""

    name: str
    protocol: str  # registry name, e.g. "le-complete/quantum"
    topology: TopologySpec
    sizes: tuple[int, ...]
    params: tuple[tuple[str, object], ...] = ()
    trials: int = 3
    seed: int = 0
    #: Divide each trial's messages by this ``extra`` key (rounded), e.g.
    #: "candidates" for the benchmarks' per-candidate normalization.
    normalize_by: str | None = None
    #: Optional :class:`~repro.adversary.AdversarySpec` injected into every
    #: trial.  Participates in the result-store cache key; a null spec is
    #: normalized to None so it never perturbs identity or RNG streams.
    adversary: object | None = None
    description: str = ""

    def __post_init__(self) -> None:
        if not self.sizes:
            raise ValueError(f"scenario {self.name!r} has an empty size grid")
        if any(n < 2 for n in self.sizes):
            raise ValueError(f"scenario {self.name!r} has sizes < 2: {self.sizes}")
        if self.trials < 1:
            raise ValueError(f"scenario {self.name!r} needs >= 1 trial")
        if self.seed < 0:
            raise ValueError(
                f"scenario {self.name!r} needs a seed >= 0, got {self.seed}"
            )
        if self.adversary is not None and self.adversary.is_null:
            object.__setattr__(self, "adversary", None)

    @property
    def param_dict(self) -> dict:
        return dict(self.params)

    def with_overrides(
        self,
        sizes: tuple[int, ...] | list[int] | None = None,
        trials: int | None = None,
        seed: int | None = None,
        params: dict | None = None,
        name: str | None = None,
        adversary: object = _KEEP,
    ) -> "Scenario":
        """A copy with grid/seed/params swapped out (bench & CLI overrides).

        ``adversary`` replaces the scenario's adversary spec when given
        (pass None to strip one off); omitted, the existing spec is kept.
        """
        merged_params = self.param_dict
        if params:
            merged_params.update(params)
        return replace(
            self,
            name=name if name is not None else self.name,
            sizes=tuple(sizes) if sizes is not None else self.sizes,
            trials=trials if trials is not None else self.trials,
            seed=seed if seed is not None else self.seed,
            params=tuple(sorted(merged_params.items())),
            adversary=self.adversary if adversary is _KEEP else adversary,
        )

    def run_trial(self, n: int, rng: RandomSource, registry=None):
        """One trial at size ``n`` with the given per-trial random source.

        Deterministic topologies hand ``rng`` to the protocol untouched;
        random per-trial topologies split it once for the draw and once for
        the protocol, so the stream layout is independent of scheduling.
        """
        from repro.runtime.registry import default_registry

        registry = registry if registry is not None else default_registry()
        spec = registry.get(self.protocol)
        run_params = self.param_dict
        if self.adversary is not None:
            spec.check_adversary(self.adversary)
            run_params["adversary"] = self.adversary
        if self.topology.consumes_trial_rng:
            topology = self.topology.build(n, rng.spawn())
            protocol_rng = rng.spawn()
        else:
            topology = self.topology.build_cached(n)
            protocol_rng = rng
        outcome = spec.run(topology, protocol_rng, **run_params)
        if self.normalize_by is not None:
            divisor = outcome.extra.get(self.normalize_by)
            if divisor is None:
                raise KeyError(
                    f"scenario {self.name!r} normalizes by {self.normalize_by!r} "
                    f"but the trial outcome only has {sorted(outcome.extra)}"
                )
            outcome = replace(
                outcome, messages=round(outcome.messages / max(1, divisor))
            )
        return outcome
