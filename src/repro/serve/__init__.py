"""``repro serve``: a long-running scenario service with tiered caching.

The serving layer turns the reproduction into an always-on query
engine: hot scenario requests are answered synchronously from a
two-tier cache (in-process LRU of assembled runs over the
content-addressed on-disk :class:`~repro.runtime.store.ResultStore`),
cold ones become single-flighted fabric jobs whose worker fleets the
server owns and supervises.  Everything is stdlib —
an ``http.server.HTTPServer`` with reused handler threads over the
existing runtime, fabric, and telemetry layers.

Split by concern:

* :mod:`repro.serve.api` — request validation and JSON payload shapes
  (HTTP-free; shared with the CLI ``--json`` dumps);
* :mod:`repro.serve.cache` — the tiered :class:`RunCache` and the
  canonical scenario digest that doubles as the job id;
* :mod:`repro.serve.jobs` — the single-flight :class:`JobTable` driving
  :func:`~repro.fabric.run_fabric_sweep` per cold scenario;
* :mod:`repro.serve.app` — routes, the threaded server, and the
  SIGTERM drain.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.serve.api": (
            "ApiError",
            "job_payload",
            "parse_run_request",
            "protocols_payload",
            "run_payload",
            "scenario_entry",
            "scenarios_payload",
        ),
        "repro.serve.app": (
            "DEFAULT_HOST",
            "DEFAULT_PORT",
            "ReproServer",
            "ServeApp",
            "build_server",
            "serve_forever",
        ),
        "repro.serve.cache": ("RunCache", "scenario_key"),
        "repro.serve.jobs": ("JobTable", "ServeJob"),
    },
)
