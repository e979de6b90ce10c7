// serve.* instrumentation: every counter/gauge/histogram the query server
// reports through the process-wide obs registry, registered once and cached
// as references (the obs contract: registration may lock, updates never
// do). Exposed as a header so the exporter fixtures (tests/obs_test.cpp)
// and the bench can assert the real metric names.
#pragma once

#include "obs/metrics.h"
#include "obs/timer.h"

namespace dosm::serve {

struct Metrics {
  // Connection / admission lifecycle.
  obs::Counter& connections_accepted;
  obs::Counter& connections_closed;
  obs::Counter& admission_enqueued;
  obs::Counter& admission_rejected;  // 429s from a full accept queue
  obs::Gauge& queue_depth;

  // Request outcomes.
  obs::Counter& requests;
  obs::Counter& responses_ok;            // 2xx
  obs::Counter& responses_client_error;  // 4xx
  obs::Counter& responses_server_error;  // 5xx
  obs::Counter& bad_requests;            // parse failures (400/431/413)
  obs::Counter& request_timeouts;        // 408s: request not whole in time
  obs::Counter& budget_rows_rejected;
  obs::Counter& budget_time_rejected;

  // Result cache.
  obs::Counter& cache_hits;
  obs::Counter& cache_misses;
  obs::Counter& cache_evictions;
  obs::Counter& cache_stale_dropped;  // purged on snapshot-version change
  obs::Gauge& cache_bytes;
  obs::Gauge& cache_entries;

  // Latency.
  obs::Histogram& request_seconds;

  static Metrics& get();
};

}  // namespace dosm::serve
