"""Named scenario catalogue: every sweep the repo knows how to run.

Each entry binds a registered protocol to a topology family and a default
size grid.  Benchmarks and the CLI pull scenarios from here (overriding
grids/seeds as needed), so a new scenario family — LE on a torus, agreement
under skewed inputs, leader election under message loss — costs exactly
one declaration.  Fault-injected families carry an
:class:`~repro.adversary.AdversarySpec` (message drops, crash-stop
schedules, worst-case agreement inputs) that every trial replays
deterministically.

``EXPERIMENT_SWEEPS`` maps the paper's size-sweep experiments to their
quantum/classical scenario pair; experiments that sweep a parameter other
than n (E2's k trade-off, E8's ε law, E9's sampling tail, E11/E12's
ablations) are driven by their dedicated bench modules instead.
"""

from __future__ import annotations

from repro.adversary import AdversarySpec
from repro.runtime.scenario import Scenario, TopologySpec

__all__ = [
    "EXPERIMENT_SWEEPS",
    "SCENARIOS",
    "experiment_pair",
    "get_scenario",
]


def _catalogue() -> dict[str, Scenario]:
    complete = TopologySpec("complete")
    star = TopologySpec("star")
    scenarios = [
        # -- paper experiment sweeps (seeds match the legacy benches) ---------
        Scenario(
            name="complete-le/quantum",
            protocol="le-complete/quantum",
            topology=complete,
            sizes=(256, 1024, 4096),
            trials=3,
            seed=10,
            normalize_by="candidates",
            description="E1 quantum side: QuantumLE on K_n, msgs per candidate",
        ),
        Scenario(
            name="complete-le/classical",
            protocol="le-complete/classical",
            topology=complete,
            sizes=(256, 1024, 4096),
            trials=3,
            seed=11,
            normalize_by="candidates",
            description="E1 classical side: KPP-style LE on K_n",
        ),
        Scenario(
            name="mixing-le/quantum",
            protocol="le-mixing/quantum",
            topology=TopologySpec("hypercube"),
            sizes=(64, 256, 1024),
            trials=3,
            seed=30,
            normalize_by="candidates",
            description="E3 quantum side: QuantumRWLE on hypercubes",
        ),
        Scenario(
            name="mixing-le/classical",
            protocol="le-mixing/classical",
            topology=TopologySpec("hypercube"),
            sizes=(64, 256, 1024),
            trials=3,
            seed=31,
            normalize_by="candidates",
            description="E3 classical side: random-walk LE on hypercubes",
        ),
        Scenario(
            name="diameter2-le/quantum",
            protocol="le-diameter2/quantum",
            topology=TopologySpec("erdos-renyi", (("p", 0.5),), fixed_seed=1000),
            sizes=(128, 256, 512),
            params=(("schedule", "lean"),),
            trials=3,
            seed=40,
            normalize_by="candidates",
            description="E4 quantum side: QWLE on dense G(n, 1/2), shared graph per size",
        ),
        Scenario(
            name="diameter2-le/classical",
            protocol="le-diameter2/classical",
            topology=TopologySpec("erdos-renyi", (("p", 0.5),), fixed_seed=1000),
            sizes=(128, 256, 512),
            trials=3,
            seed=41,
            normalize_by="candidates",
            description="E4 classical side: CPR-style LE on dense G(n, 1/2)",
        ),
        Scenario(
            name="general-le/quantum",
            protocol="le-general/quantum",
            topology=TopologySpec("erdos-renyi", (("p", 0.1),)),
            sizes=(64, 128, 256),
            trials=3,
            seed=50,
            description="E5 quantum side: explicit LE on sparse G(n, 0.1)",
        ),
        Scenario(
            name="general-le/classical",
            protocol="le-general/classical",
            topology=TopologySpec("erdos-renyi", (("p", 0.1),)),
            sizes=(64, 128, 256),
            trials=3,
            seed=51,
            description="E5 classical side: tree-merging LE on sparse G(n, 0.1)",
        ),
        Scenario(
            name="agreement/quantum",
            protocol="agreement/quantum",
            topology=complete,
            sizes=(256, 1024, 4096),
            params=(("fraction", 0.3),),
            trials=3,
            seed=60,
            description="E6 quantum side: shared-coin agreement, 30% ones",
        ),
        Scenario(
            name="agreement/classical",
            protocol="agreement/classical-shared",
            topology=complete,
            sizes=(256, 1024, 4096),
            params=(("fraction", 0.3),),
            trials=3,
            seed=61,
            description="E6 classical side: AMP18 shared-coin agreement",
        ),
        Scenario(
            name="star-search/quantum",
            protocol="search-star/quantum",
            topology=star,
            sizes=(256, 1024, 4096),
            trials=5,
            seed=70,
            description="E7 quantum side: distributed Grover on a star",
        ),
        Scenario(
            name="star-search/classical",
            protocol="search-star/classical",
            topology=star,
            sizes=(256, 1024, 4096),
            trials=1,
            seed=71,
            description="E7 classical side: probe-every-leaf lower bound",
        ),
        Scenario(
            name="star-count/quantum",
            protocol="count-star/quantum",
            topology=star,
            sizes=(256, 1024),
            trials=3,
            seed=80,
            description="E8 quantum side: ApproxCount to ±εn on a star",
        ),
        Scenario(
            name="star-count/classical",
            protocol="count-star/classical",
            topology=star,
            sizes=(256, 1024),
            trials=3,
            seed=81,
            description="E8 classical side: Θ(1/ε²) sampling estimate",
        ),
        Scenario(
            name="mst/quantum",
            protocol="mst/quantum",
            topology=TopologySpec("random-regular", (("degree", 4),)),
            sizes=(64, 128, 256),
            trials=3,
            seed=90,
            description="E10 quantum side: Borůvka MST with Grover edge search",
        ),
        Scenario(
            name="mst/classical",
            protocol="mst/classical",
            topology=TopologySpec("random-regular", (("degree", 4),)),
            sizes=(64, 128, 256),
            trials=3,
            seed=91,
            description="E10 classical side: probe-all-ports Borůvka MST",
        ),
        Scenario(
            name="mst/boruvka-engine",
            protocol="mst/boruvka-engine",
            topology=TopologySpec(
                "random-regular", (("degree", 4),), fixed_seed=1200
            ),
            sizes=(32, 64, 128),
            trials=3,
            seed=92,
            description="Engine-executed Borůvka/GHS MST (batch-capable), "
            "real CONGEST message accounting",
        ),
        # -- new scenario families the runtime unlocks ------------------------
        Scenario(
            name="torus-le/quantum",
            protocol="le-mixing/quantum",
            topology=TopologySpec("torus"),
            sizes=(36, 64, 100),
            trials=3,
            seed=100,
            normalize_by="candidates",
            description="QuantumRWLE on 2-D tori (τ ~ √n mixing)",
        ),
        Scenario(
            name="torus-le/classical",
            protocol="le-mixing/classical",
            topology=TopologySpec("torus"),
            sizes=(36, 64, 100),
            trials=3,
            seed=101,
            normalize_by="candidates",
            description="Random-walk LE on 2-D tori",
        ),
        Scenario(
            name="lollipop-le/quantum",
            protocol="le-mixing/quantum",
            topology=TopologySpec("lollipop"),
            sizes=(24, 36),
            trials=2,
            seed=110,
            normalize_by="candidates",
            description="QuantumRWLE on lollipop graphs (bad mixing stress)",
        ),
        Scenario(
            name="agreement-skewed/quantum",
            protocol="agreement/quantum",
            topology=complete,
            sizes=(256, 1024),
            params=(("fraction", 0.05),),
            trials=3,
            seed=120,
            description="Agreement under heavily skewed inputs (5% ones)",
        ),
        Scenario(
            name="agreement-skewed/classical",
            protocol="agreement/classical-shared",
            topology=complete,
            sizes=(256, 1024),
            params=(("fraction", 0.05),),
            trials=3,
            seed=121,
            description="AMP18 agreement under skewed inputs (5% ones)",
        ),
        Scenario(
            name="ring-le/lcr",
            protocol="le-ring/lcr",
            topology=TopologySpec("cycle"),
            sizes=(64, 128, 256),
            trials=3,
            seed=130,
            description="LCR on rings (O(n²) message baseline)",
        ),
        Scenario(
            name="ring-le/hs",
            protocol="le-ring/hs",
            topology=TopologySpec("cycle"),
            sizes=(64, 128, 256),
            trials=3,
            seed=131,
            description="Hirschberg–Sinclair on rings (O(n log n) baseline)",
        ),
        # -- engine-driven agreement (array-native + fault-injectable) --------
        Scenario(
            name="agreement-engine/classical",
            protocol="agreement/amp18-engine",
            topology=complete,
            sizes=(64, 256, 1024),
            params=(("fraction", 0.3),),
            trials=3,
            seed=190,
            description="Engine-driven AMP18 agreement on K_n (array-native port)",
        ),
        Scenario(
            name="agreement-engine-lossy/classical",
            protocol="agreement/amp18-engine",
            topology=complete,
            sizes=(64, 256),
            params=(("fraction", 0.3),),
            trials=3,
            seed=191,
            adversary=AdversarySpec(drop_rate=0.05),
            description="Engine-driven AMP18 agreement under 5% transit loss",
        ),
        # -- fault-injected resilience families (repro.adversary) -------------
        Scenario(
            name="complete-le-lossy/classical",
            protocol="le-complete/classical",
            topology=complete,
            sizes=(64, 128, 256),
            trials=3,
            seed=140,
            adversary=AdversarySpec(drop_rate=0.05),
            description="KPP LE on K_n under 5% transit message loss",
        ),
        Scenario(
            name="ring-le-lossy/lcr",
            protocol="le-ring/lcr",
            topology=TopologySpec("cycle"),
            sizes=(32, 64, 128),
            trials=3,
            seed=150,
            adversary=AdversarySpec(drop_rate=0.02),
            description="LCR under 2% loss: does the halt wave survive?",
        ),
        Scenario(
            name="ring-le-crash/hs",
            protocol="le-ring/hs",
            topology=TopologySpec("cycle"),
            sizes=(32, 64),
            trials=3,
            seed=160,
            adversary=AdversarySpec(crash_count=2, crash_by=8),
            description="Hirschberg–Sinclair with 2 crash-stops in rounds 0-7",
        ),
        Scenario(
            name="diameter2-le-lossy/classical",
            protocol="le-diameter2/classical",
            topology=TopologySpec("erdos-renyi", (("p", 0.5),), fixed_seed=1000),
            sizes=(128, 256),
            trials=3,
            seed=170,
            normalize_by="candidates",
            adversary=AdversarySpec(drop_rate=0.05),
            description="CPR-style diameter-2 LE under 5% transit loss",
        ),
        # -- adaptive (traffic-conditioned) adversary families ----------------
        Scenario(
            name="wheel-le-adaptive/classical",
            protocol="le-diameter2/classical",
            topology=TopologySpec("wheel"),
            sizes=(32, 64, 128),
            trials=3,
            seed=200,
            adversary=AdversarySpec(adaptive="target-leader"),
            description="CPR LE on a wheel vs targeted-leader suppression "
            "(the adversary hunts the dominant sender — usually the hub)",
        ),
        Scenario(
            name="bipartite-le-lossy/classical",
            protocol="le-diameter2/classical",
            topology=TopologySpec("complete-bipartite"),
            sizes=(32, 64, 128),
            trials=3,
            seed=201,
            adversary=AdversarySpec(drop_rate=0.05),
            description="CPR LE on K_{a,b} (diameter 2) under 5% transit loss",
        ),
        Scenario(
            name="ring-le-congestion/lcr",
            protocol="le-ring/lcr",
            topology=TopologySpec("cycle"),
            sizes=(32, 64, 128),
            trials=3,
            seed=202,
            adversary=AdversarySpec(adaptive="congestion", adaptive_rate=0.3),
            description="LCR under reactive congestion drops: loss scales "
            "with observed per-edge load",
        ),
        Scenario(
            name="complete-le-eavesdrop/classical",
            protocol="le-complete/classical",
            topology=complete,
            sizes=(64, 128, 256),
            trials=3,
            seed=203,
            adversary=AdversarySpec(eavesdrop_rate=0.2, eavesdrop_drop_rate=0.5),
            description="KPP LE on K_n with 20% of edges tapped and half "
            "the tapped traffic intercepted (security ledger in meta)",
        ),
        Scenario(
            name="agreement-worstcase/quantum",
            protocol="agreement/quantum",
            topology=complete,
            sizes=(256, 1024),
            trials=3,
            seed=180,
            adversary=AdversarySpec(input_schedule="tie"),
            description="Quantum agreement against the worst-case tie input",
        ),
        Scenario(
            name="agreement-worstcase/classical",
            protocol="agreement/classical-shared",
            topology=complete,
            sizes=(256, 1024),
            trials=3,
            seed=181,
            adversary=AdversarySpec(input_schedule="tie"),
            description="AMP18 agreement against the worst-case tie input",
        ),
    ]
    return {scenario.name: scenario for scenario in scenarios}


SCENARIOS: dict[str, Scenario] = _catalogue()

#: Experiment id → (quantum scenario, classical scenario) for n-sweeps.
EXPERIMENT_SWEEPS: dict[str, tuple[str, str]] = {
    "E1": ("complete-le/quantum", "complete-le/classical"),
    "E3": ("mixing-le/quantum", "mixing-le/classical"),
    "E4": ("diameter2-le/quantum", "diameter2-le/classical"),
    "E5": ("general-le/quantum", "general-le/classical"),
    "E6": ("agreement/quantum", "agreement/classical"),
    "E7": ("star-search/quantum", "star-search/classical"),
    "E8": ("star-count/quantum", "star-count/classical"),
    "E10": ("mst/quantum", "mst/classical"),
}


def get_scenario(name: str) -> Scenario:
    try:
        return SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; known: {sorted(SCENARIOS)}"
        ) from None


def experiment_pair(experiment_id: str) -> tuple[Scenario, Scenario]:
    """The (quantum, classical) scenario pair reproducing one experiment."""
    try:
        quantum_name, classical_name = EXPERIMENT_SWEEPS[experiment_id]
    except KeyError:
        raise KeyError(
            f"experiment {experiment_id!r} has no size-sweep scenario pair "
            f"(parameter-sweep experiments run via their bench module); "
            f"sweepable: {sorted(EXPERIMENT_SWEEPS)}"
        ) from None
    return SCENARIOS[quantum_name], SCENARIOS[classical_name]
