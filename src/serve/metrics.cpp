#include "serve/metrics.h"

namespace dosm::serve {

Metrics& Metrics::get() {
  static Metrics metrics = [] {
    auto& reg = obs::MetricsRegistry::global();
    return Metrics{
        reg.counter("serve.connections.accepted",
                    "Client connections accepted by the listener"),
        reg.counter("serve.connections.closed",
                    "Client connections closed by the server"),
        reg.counter("serve.admission.enqueued",
                    "Connections admitted into the worker queue"),
        reg.counter("serve.admission.rejected",
                    "Connections rejected with 429 (accept queue full)"),
        reg.gauge("serve.queue.depth",
                  "Connections waiting for a worker right now"),
        reg.counter("serve.requests", "HTTP requests parsed and dispatched"),
        reg.counter("serve.responses.ok", "2xx responses sent"),
        reg.counter("serve.responses.client_error", "4xx responses sent"),
        reg.counter("serve.responses.server_error", "5xx responses sent"),
        reg.counter("serve.bad_requests",
                    "Requests rejected by the HTTP parser"),
        reg.counter("serve.request_timeouts",
                    "Connections answered 408 because a request did not "
                    "arrive whole within its deadline"),
        reg.counter("serve.budget.rows_rejected",
                    "Requests rejected by the per-query row budget"),
        reg.counter("serve.budget.time_rejected",
                    "Requests rejected by the per-query deadline"),
        reg.counter("serve.cache.hits", "Result-cache hits"),
        reg.counter("serve.cache.misses", "Result-cache misses"),
        reg.counter("serve.cache.evictions",
                    "Result-cache entries evicted by the byte budget"),
        reg.counter("serve.cache.stale_dropped",
                    "Result-cache entries dropped on snapshot publish"),
        reg.gauge("serve.cache.bytes", "Result-cache resident bytes"),
        reg.gauge("serve.cache.entries", "Result-cache resident entries"),
        reg.histogram("serve.request_seconds",
                      "End-to-end request handling latency",
                      obs::latency_buckets()),
    };
  }();
  return metrics;
}

}  // namespace dosm::serve
