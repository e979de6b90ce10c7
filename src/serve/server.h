// The query server: a fixed thread pool serving the JSON API over the live
// snapshot, with explicit admission control and a snapshot-keyed result
// cache.
//
// Shape (one acceptor, W workers, one bounded queue between them):
//
//   acceptor ──try_push──▶ [bounded fd queue] ──pop──▶ worker × W
//       │ queue full?                                    │
//       └── write canned 429, close ────────             └── parse → cache →
//                                                            execute → respond
//
// Admission control is explicit: the ONLY unbounded thing in the system is
// the listen backlog the kernel already bounds. When the fd queue is full
// the acceptor still accepts (so the client gets an answer, not a timeout),
// writes a canned 429 with Retry-After, closes, and counts the drop in
// serve.admission.rejected. Nothing downstream of the queue can be
// saturated into allocation growth. A request must arrive whole within 5 s
// of its first byte, so a client that drips bytes holds a worker for at
// most that long before it is answered 408 (serve.request_timeouts).
//
// Each request runs against ONE snapshot acquired once (shared_ptr load
// from the QueryEngine); the result cache is keyed by (snapshot version,
// Query::cache_key(), canonical request string), so a publish never serves
// stale bytes — workers also purge stale entries when they observe a new
// version. Responses are byte-identical for the same request + snapshot
// version regardless of worker count, cache state, or arrival order
// (tests/serve_test.cpp holds this pairwise at 1 vs 8 workers).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "query/budget.h"
#include "query/engine.h"
#include "serve/cache.h"
#include "serve/http.h"
#include "serve/router.h"

namespace dosm::serve {

struct ServerConfig {
  std::string bind_address = "127.0.0.1";
  std::uint16_t port = 0;          // 0 = ephemeral; see Server::port()
  std::size_t workers = 4;         // worker threads (>= 1)
  std::size_t queue_capacity = 64; // pending connections before 429s
  std::size_t cache_bytes = 8 << 20;  // result cache budget; 0 disables
  std::uint64_t max_rows = 0;      // per-query row budget; 0 = unlimited
  std::uint64_t max_millis = 0;    // per-query wall budget; 0 = unlimited
  HttpLimits http;
};

/// Bounded MPMC queue of accepted sockets. Push never blocks (admission
/// control wants an immediate verdict); pop blocks until an fd arrives or
/// the queue is closed. Closing drains remaining fds to the caller so they
/// can be shut down cleanly.
class BoundedFdQueue {
 public:
  explicit BoundedFdQueue(std::size_t capacity);

  /// False when full or closed — the caller owns the fd again.
  bool try_push(int fd);
  /// Blocks; returns -1 once closed AND drained.
  int pop();
  void close();
  std::size_t depth() const;

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable ready_;
  std::deque<int> fds_;
  bool closed_ = false;
};

class Server {
 public:
  /// Binds and starts the acceptor + worker threads. Throws
  /// std::runtime_error when the socket cannot be bound. A non-null
  /// dispatcher enables the /subscribe and /watch endpoints; without one
  /// they answer 503 "subscriptions disabled".
  Server(const ServerConfig& config, query::QueryEngine& engine,
         subscribe::Dispatcher* dispatcher = nullptr);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The actual bound port (resolves config.port == 0).
  std::uint16_t port() const { return port_; }

  /// Stops accepting, closes queued connections, joins all threads.
  /// Idempotent.
  void stop();

  ResultCache& cache() { return cache_; }
  const ResultCache& cache() const { return cache_; }

  /// The route table the server dispatches on (for tests/introspection).
  const Router& router() const { return router_; }

 private:
  /// Binds config_.bind_address:config_.port and resolves port_. Throws
  /// std::runtime_error on socket/bind failure.
  void open_listen_socket();
  void accept_loop();
  void worker_loop();
  /// Serves one connection until close / keep-alive exhaustion / error.
  void serve_connection(int fd);
  /// Full request → response bytes (cache consulted for cacheable routes).
  std::string handle(const HttpRequest& request, bool keep_alive);

  ServerConfig config_;
  query::QueryEngine& engine_;
  subscribe::Dispatcher* dispatcher_ = nullptr;
  Router router_;
  ResultCache cache_;
  BoundedFdQueue queue_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> last_seen_version_{0};
  std::thread acceptor_;
  std::vector<std::thread> workers_;
};

}  // namespace dosm::serve
