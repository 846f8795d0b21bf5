"""Per-node randomness is drawn as columns, not as one generator per node.

Counts :class:`RandomSource` constructions during one trial of each
engine-driven classical driver under both node APIs.  Candidacy coins,
ranks and ring ids come from one trial-level child stream each, and only
the candidates that go on to draw again (KPP referees, AMP18 samples and
probes) get private streams — so the count stays within the candidate
count plus a few trial-level children, never Θ(n).
"""

import pytest

from repro.classical.agreement.amp18_engine import classical_agreement_engine
from repro.classical.leader_election.complete_kpp import classical_le_complete
from repro.classical.leader_election.diameter2_cpr import classical_le_diameter2
from repro.classical.leader_election.ring import hirschberg_sinclair_ring, lcr_ring
from repro.network.topology import CompleteTopology
from repro.util.rng import RandomSource

N_COMPLETE = 4096
N_RING = 1024

#: Trial-level children: the lottery (or id column) and AMP18's shared coin.
TRIAL_CHILDREN = 2

DRIVERS = {
    "kpp": lambda rng, api: classical_le_complete(N_COMPLETE, rng, node_api=api),
    "cpr": lambda rng, api: classical_le_diameter2(
        CompleteTopology(N_COMPLETE), rng, node_api=api
    ),
    "amp18-engine": lambda rng, api: classical_agreement_engine(
        [1] * N_COMPLETE, rng, node_api=api
    ),
    "lcr": lambda rng, api: lcr_ring(N_RING, rng, node_api=api),
    "hs": lambda rng, api: hirschberg_sinclair_ring(N_RING, rng, node_api=api),
}


@pytest.fixture
def constructions(monkeypatch):
    """A list that grows by one entry per RandomSource built."""
    built = []
    original = RandomSource.__init__

    def counting(self, seed=None):
        built.append(seed)
        original(self, seed)

    monkeypatch.setattr(RandomSource, "__init__", counting)
    return built


@pytest.mark.parametrize("api", ["batch", "scalar"])
@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_streams_only_for_nodes_that_draw_again(driver, api, constructions):
    rng = RandomSource(3)
    constructions.clear()
    result = DRIVERS[driver](rng, api)
    candidates = result.meta.get("candidates", 0)
    assert len(constructions) <= candidates + TRIAL_CHILDREN
