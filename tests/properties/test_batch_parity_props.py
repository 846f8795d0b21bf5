"""Property tests: batch dispatch is bit-identical to both scalar backends.

Two layers of parity, each with and without an adversary (drop + crash):

* **adapter parity** — any scalar protocol driven through
  :class:`~repro.network.batch.ScalarAdapter` on the batch path must
  reproduce the fast and reference backends' trials bit-for-bit, across
  ≥5 topology families;
* **native parity** — the six array-native ports (ring LCR,
  Hirschberg–Sinclair, ``complete_kpp``, the CPR diameter-2 baseline,
  the engine-driven AMP18 agreement, and the engine-driven Borůvka MST)
  must reproduce their scalar implementations bit-for-bit under
  identical seeds and adversary specs.
"""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary import AdversarySpec
from repro.classical.agreement.amp18_engine import classical_agreement_engine
from repro.classical.leader_election.complete_kpp import classical_le_complete
from repro.classical.leader_election.diameter2_cpr import classical_le_diameter2
from repro.classical.leader_election.ring import hirschberg_sinclair_ring, lcr_ring
from repro.classical.mst_boruvka import boruvka_mst_engine
from repro.network import graphs
from repro.network.batch import ScalarAdapter
from repro.network.engine import SynchronousEngine
from repro.network.message import Message
from repro.network.metrics import MetricsRecorder
from repro.network.node import Node
from repro.util.rng import RandomSource

#: The ≥5 topology families the adapter parity property sweeps.
FAMILIES = {
    "cycle": graphs.cycle,
    "complete": graphs.complete,
    "star": graphs.star,
    "wheel": graphs.wheel,
    "hypercube": lambda n: graphs.hypercube(max(2, (n - 1).bit_length())),
}

#: Fault mixes every parity property sweeps; delay exercises the batch
#: path's (sender, kind, value, bits) delayed-row repack + queue-order
#: reassembly, duplicate its np.repeat expansion.
ADVERSARIES = [
    None,
    AdversarySpec(drop_rate=0.15),
    AdversarySpec(crash_count=2, crash_by=3),
    AdversarySpec(drop_rate=0.1, crash_count=1, crash_by=2),
    AdversarySpec(delay_rate=0.2, delay_rounds=2),
    AdversarySpec(duplicate_rate=0.15),
    AdversarySpec(drop_rate=0.05, delay_rate=0.1, duplicate_rate=0.1),
]

#: KPP's referees reply once per arrival port, so a duplicated rank makes
#: the scalar protocol itself violate CONGEST (pre-existing) — its parity
#: sweep keeps drop/delay/crash only.
ADVERSARIES_NO_DUPLICATE = [
    spec
    for spec in ADVERSARIES
    if spec is None or spec.duplicate_rate == 0
]


class _GossipNode(Node):
    """Deterministic multi-round chatter: fan out on half the ports, halt
    after a per-node deadline; retains everything it heard."""

    def __init__(self, uid, degree, rng, deadline):
        super().__init__(uid, degree, rng)
        self.deadline = deadline
        self.received = []

    def step(self, round_index, inbox):
        self.received.extend(
            (round_index, port, m.sender, m.payload) for port, m in inbox
        )
        if round_index >= self.deadline:
            self.halt()
            return []
        return [
            (p, Message("g", payload=(self.uid * 31 + round_index + p)))
            for p in range(0, self.degree, 2)
        ]


def _run_gossip(topology, mode, adversary, backend="fast"):
    rng = RandomSource(11)
    armed = (
        adversary.arm(adversary.derive_rng(rng), topology.n)
        if adversary is not None
        else None
    )
    nodes = [
        _GossipNode(v, topology.degree(v), rng.spawn(), 3 + v % 3)
        for v in range(topology.n)
    ]
    metrics = MetricsRecorder()
    program = ScalarAdapter(nodes) if mode == "batch" else nodes
    engine = SynchronousEngine(
        topology, program, metrics, label="g", backend=backend, adversary=armed
    )
    rounds = engine.run(max_rounds=8)
    return (
        rounds,
        metrics.messages,
        metrics.rounds,
        engine.undelivered_detail(),
        engine.crashed_nodes,
        [node.received for node in nodes],
    )


@settings(max_examples=40, deadline=None)
@given(
    family=st.sampled_from(sorted(FAMILIES)),
    n=st.integers(min_value=4, max_value=9),
    adversary=st.sampled_from(ADVERSARIES),
)
def test_adapter_parity_across_families(family, n, adversary):
    topology = FAMILIES[family](n)
    fast = _run_gossip(topology, "scalar", adversary, "fast")
    reference = _run_gossip(topology, "scalar", adversary, "reference")
    batch = _run_gossip(topology, "batch", adversary)
    assert fast == reference
    assert fast == batch


def _le_snapshot(result):
    return (
        result.messages,
        result.rounds,
        result.success,
        result.leader,
        dict(result.statuses),
        dict(result.meta),
        result.crashed,
    )


def _agreement_snapshot(result):
    return (
        result.messages,
        result.rounds,
        result.success,
        result.agreed_value,
        dict(result.decisions),
        dict(result.meta),
    )


def _three_way(run, snapshot):
    """(fast-scalar, reference-scalar, batch) snapshots of one trial."""
    fast = snapshot(run("scalar"))
    os.environ["REPRO_ENGINE"] = "reference"
    try:
        reference = snapshot(run("scalar"))
    finally:
        del os.environ["REPRO_ENGINE"]
    batch = snapshot(run("batch"))
    return fast, reference, batch


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=4, max_value=24),
    adversary=st.sampled_from(ADVERSARIES),
)
def test_lcr_batch_parity(seed, n, adversary):
    def run(api):
        return lcr_ring(
            max(n, 3), RandomSource(seed), adversary=adversary, node_api=api
        )

    fast, reference, batch = _three_way(run, _le_snapshot)
    assert fast == reference
    assert fast == batch


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=4, max_value=32),
    adversary=st.sampled_from(ADVERSARIES_NO_DUPLICATE),
)
def test_kpp_batch_parity(seed, n, adversary):
    def run(api):
        return classical_le_complete(
            n, RandomSource(seed), adversary=adversary, node_api=api
        )

    fast, reference, batch = _three_way(run, _le_snapshot)
    assert fast == reference
    assert fast == batch


#: From n = 55,109 the rank universe {1, …, n⁴} outgrows int64.
PAST_INT64_RANKS = 1 << 16


@pytest.mark.parametrize(
    "run",
    [
        lambda api: classical_le_complete(
            PAST_INT64_RANKS, RandomSource(1), node_api=api
        ),
        lambda api: classical_le_diameter2(
            graphs.star(PAST_INT64_RANKS), RandomSource(1), node_api=api
        ),
    ],
    ids=["kpp-complete", "cpr-star"],
)
def test_batch_parity_past_int64_ranks(run):
    """The ports carry rank levels, so they run where ranks overflow."""
    assert _le_snapshot(run("batch")) == _le_snapshot(run("scalar"))


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=4, max_value=24),
    adversary=st.sampled_from(ADVERSARIES),
)
def test_hs_batch_parity(seed, n, adversary):
    def run(api):
        return hirschberg_sinclair_ring(
            max(n, 3), RandomSource(seed), adversary=adversary, node_api=api
        )

    fast, reference, batch = _three_way(run, _le_snapshot)
    assert fast == reference
    assert fast == batch


#: CPR needs diameter ≤ 2; its referees (like KPP's) reply once per arrival
#: port, so the duplicate adversary is excluded for the same reason.
CPR_FAMILIES = {
    "complete": graphs.complete,
    "star": graphs.star,
    "wheel": graphs.wheel,
}


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    family=st.sampled_from(sorted(CPR_FAMILIES)),
    n=st.integers(min_value=4, max_value=16),
    adversary=st.sampled_from(ADVERSARIES_NO_DUPLICATE),
)
def test_cpr_batch_parity(seed, family, n, adversary):
    topology = CPR_FAMILIES[family](n)

    def run(api):
        return classical_le_diameter2(
            topology, RandomSource(seed), adversary=adversary, node_api=api
        )

    fast, reference, batch = _three_way(run, _le_snapshot)
    assert fast == reference
    assert fast == batch


def _mst_snapshot(result):
    return (
        result.messages,
        result.rounds,
        tuple(result.edges),
        result.total_weight,
        dict(result.meta),
    )


BORUVKA_FAMILIES = {
    "cycle": graphs.cycle,
    "complete": graphs.complete,
    "wheel": graphs.wheel,
}


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    family=st.sampled_from(sorted(BORUVKA_FAMILIES)),
    n=st.integers(min_value=4, max_value=13),
    adversary=st.sampled_from(ADVERSARIES),
)
def test_boruvka_engine_batch_parity(seed, family, n, adversary):
    topology = BORUVKA_FAMILIES[family](n)
    weight_rng = RandomSource(seed ^ 0x5EED)
    weights = {}
    for u, v in topology.edges():
        a, b = (u, v) if u < v else (v, u)
        weights[(a, b)] = weight_rng.uniform()

    def run(api):
        return boruvka_mst_engine(
            topology,
            weights,
            RandomSource(seed),
            adversary=adversary,
            node_api=api,
        )

    fast, reference, batch = _three_way(run, _mst_snapshot)
    assert fast == reference
    assert fast == batch


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=6, max_value=28),
    ones=st.floats(min_value=0.0, max_value=1.0),
    adversary=st.sampled_from(ADVERSARIES),
)
def test_amp18_engine_batch_parity(seed, n, ones, adversary):
    inputs = [1] * int(ones * n) + [0] * (n - int(ones * n))

    def run(api):
        return classical_agreement_engine(
            list(inputs), RandomSource(seed), adversary=adversary, node_api=api
        )

    fast, reference, batch = _three_way(run, _agreement_snapshot)
    assert fast == reference
    assert fast == batch
