"""Classical CONGEST substrate: topologies, messages, metrics, engine, walks."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.network.batch": (
            "STATUS_CODES",
            "BatchProtocol",
            "MessageBatch",
            "ScalarAdapter",
        ),
        "repro.network.deferred": ("load_deferred_modules",),
        "repro.network.engine": (
            "BACKENDS",
            "CongestViolation",
            "SynchronousEngine",
            "default_backend",
        ),
        "repro.network.message": (
            "CONGEST_FACTOR",
            "Message",
            "congest_capacity_bits",
            "messages_for_bits",
        ),
        "repro.network.metrics": ("MetricsRecorder", "PhaseMetrics"),
        "repro.network.node": ("Node", "Status"),
        "repro.network.random_walk": (
            "RandomWalk",
            "estimate_mixing_time",
            "lazy_transition_matrix",
            "spectral_gap",
            "stationary_distribution",
        ),
        "repro.network.spanning": (
            "SpanningTree",
            "bfs_tree",
            "charge_broadcast",
            "charge_convergecast",
        ),
        "repro.network.porttable": (
            "BipartitePortTable",
            "CSRPortTable",
            "CompletePortTable",
            "HypercubePortTable",
            "PortTable",
            "StarPortTable",
        ),
        "repro.network.topology": (
            "CompleteBipartiteTopology",
            "CompleteTopology",
            "ExplicitTopology",
            "HypercubeTopology",
            "StarTopology",
            "Topology",
            "bfs_distances",
            "diameter",
            "eccentricity",
            "is_connected",
        ),
    },
)
