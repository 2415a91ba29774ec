"""Plan-serving subsystem: the planner as a long-lived service.

The paper (and the rest of this repo) plans a workload in one shot.  A
production edge deployment instead sees a *stream* of plan requests —
millions of users running a handful of popular applications — and
replanning each arrival from scratch wastes exactly the work this
package exists to share.  These pieces compose into :class:`PlanService`:

* :mod:`repro.service.fingerprint` — content-addressed identity for
  (call graph, planner config) pairs, stable across object identity,
  insertion order and processes;
* :mod:`repro.service.plan_cache` — an LRU cache of finished
  :class:`~repro.core.results.UserPlan` objects keyed by fingerprint,
  with JSON spill so caches survive restarts;
* :mod:`repro.service.batching` — a bounded request queue that
  coalesces duplicate in-flight requests (single-flight) and drains
  arrivals in batches;
* :mod:`repro.service.server` — the worker threads, load shedding,
  timeout/retry and validation glue;
* :mod:`repro.service.metrics` — counters/gauges/histograms rendered
  as a plain-text report (``python -m repro serve-bench`` prints it).
"""

from repro.service.batching import PlanRequest, QueueFullError, RequestQueue
from repro.service.fingerprint import (
    FingerprintError,
    config_fingerprint,
    graph_fingerprint,
    request_fingerprint,
)
from repro.service.http import (
    HttpFrontend,
    HttpFrontendThread,
    PayloadError,
    graph_to_payload,
    parse_graph_payload,
    response_to_dict,
)
from repro.service.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.service.plan_cache import (
    PlanCache,
    plan_digest,
    plan_from_dict,
    plan_to_dict,
)
from repro.service.server import (
    PlanResponse,
    PlanService,
    PlanTicket,
    ServiceConfig,
    ServiceError,
)

__all__ = [
    "FingerprintError",
    "graph_fingerprint",
    "config_fingerprint",
    "request_fingerprint",
    "PlanCache",
    "plan_to_dict",
    "plan_from_dict",
    "plan_digest",
    "PlanRequest",
    "RequestQueue",
    "QueueFullError",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PlanService",
    "PlanTicket",
    "PlanResponse",
    "ServiceConfig",
    "ServiceError",
    "HttpFrontend",
    "HttpFrontendThread",
    "PayloadError",
    "graph_to_payload",
    "parse_graph_payload",
    "response_to_dict",
]
