"""Classical CONGEST substrate: topologies, messages, metrics, engine, walks."""

from repro.network.batch import (
    STATUS_CODES,
    BatchProtocol,
    MessageBatch,
    ScalarAdapter,
)
from repro.network.deferred import load_deferred_modules
from repro.network.engine import (
    BACKENDS,
    CongestViolation,
    SynchronousEngine,
    default_backend,
)
from repro.network.message import (
    CONGEST_FACTOR,
    Message,
    congest_capacity_bits,
    messages_for_bits,
)
from repro.network.metrics import MetricsRecorder, PhaseMetrics
from repro.network.node import Node, Status
from repro.network.random_walk import (
    RandomWalk,
    estimate_mixing_time,
    lazy_transition_matrix,
    spectral_gap,
    stationary_distribution,
)
from repro.network.spanning import (
    SpanningTree,
    bfs_tree,
    charge_broadcast,
    charge_convergecast,
)
from repro.network.porttable import (
    BipartitePortTable,
    CSRPortTable,
    CompletePortTable,
    HypercubePortTable,
    PortTable,
    StarPortTable,
)
from repro.network.topology import (
    CompleteBipartiteTopology,
    CompleteTopology,
    ExplicitTopology,
    HypercubeTopology,
    StarTopology,
    Topology,
    bfs_distances,
    diameter,
    eccentricity,
    is_connected,
)

__all__ = [
    "BACKENDS",
    "BatchProtocol",
    "BipartitePortTable",
    "CONGEST_FACTOR",
    "CSRPortTable",
    "CompleteBipartiteTopology",
    "CompletePortTable",
    "CompleteTopology",
    "CongestViolation",
    "ExplicitTopology",
    "HypercubePortTable",
    "HypercubeTopology",
    "Message",
    "MessageBatch",
    "MetricsRecorder",
    "Node",
    "PhaseMetrics",
    "PortTable",
    "RandomWalk",
    "STATUS_CODES",
    "ScalarAdapter",
    "SpanningTree",
    "StarPortTable",
    "StarTopology",
    "Status",
    "SynchronousEngine",
    "Topology",
    "bfs_distances",
    "default_backend",
    "bfs_tree",
    "charge_broadcast",
    "charge_convergecast",
    "congest_capacity_bits",
    "diameter",
    "eccentricity",
    "estimate_mixing_time",
    "is_connected",
    "lazy_transition_matrix",
    "load_deferred_modules",
    "messages_for_bits",
    "spectral_gap",
    "stationary_distribution",
]
