#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "obs/clock.h"
#include "obs/export.h"
#include "serve/api.h"
#include "serve/metrics.h"
#include "serve/subscribe_api.h"

namespace dosm::serve {
namespace {

/// The canned saturation response the acceptor writes without touching a
/// worker. Fixed bytes: admission control must not allocate per drop.
constexpr std::string_view kRejectResponse =
    "HTTP/1.1 429 Too Many Requests\r\n"
    "Content-Type: application/json\r\n"
    "Content-Length: 21\r\n"
    "Retry-After: 1\r\n"
    "Connection: close\r\n"
    "\r\n"
    "{\"error\":\"saturated\"}";

/// The canned answer to a request that did not arrive whole within
/// kRequestDeadlineNs of its first byte (a slow or dripping client).
constexpr std::string_view kTimeoutResponse =
    "HTTP/1.1 408 Request Timeout\r\n"
    "Content-Type: application/json\r\n"
    "Content-Length: 27\r\n"
    "Connection: close\r\n"
    "\r\n"
    "{\"error\":\"request timeout\"}";

/// Whole-request deadline, counted from the request's first byte: the
/// receive timeout alone re-arms on every byte, so a client dripping one
/// byte a second would hold a worker forever.
constexpr std::uint64_t kRequestDeadlineNs = 5'000'000'000;

/// The receive timeout of an idle keep-alive connection, and the send
/// timeout of every connection.
constexpr std::uint64_t kIdleTimeoutUs = 5'000'000;

void set_timeout(int fd, int which, std::uint64_t micros) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(micros / 1000000);
  tv.tv_usec = static_cast<suseconds_t>(micros % 1000000);
  ::setsockopt(fd, SOL_SOCKET, which, &tv, sizeof(tv));
}

/// Writes all of `data`, tolerating short writes. False on error.
bool send_all(int fd, std::string_view data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

/// Closes a connection that may still hold unread pipelined bytes. A plain
/// close() there makes the kernel answer the unread data with RST, and RST
/// can wipe the peer's receive queue — the response just written (e.g. the
/// canned 429) evaporates before the client reads it. Lingering close
/// instead: stop sending (the peer sees our FIN after the response), drain
/// whatever is in flight, then release the fd only once the peer closed or
/// the bound hit. The drain is bounded tightly — a 100 ms receive timeout
/// and a spin cap — because the acceptor calls this inline on the reject
/// path: a hostile client that never closes must not stall admission.
void close_lingering(int fd) {
  ::shutdown(fd, SHUT_WR);
  timeval tv{};
  tv.tv_usec = 100000;  // 100 ms
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  char sink[1024];
  for (int spins = 0; spins < 64; ++spins) {
    const ssize_t n = ::recv(fd, sink, sizeof(sink), 0);
    if (n == 0) break;  // peer consumed the response and closed cleanly
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // timeout or error: we waited long enough
    }
  }
  ::close(fd);
}

}  // namespace

BoundedFdQueue::BoundedFdQueue(std::size_t capacity) : capacity_(capacity) {}

bool BoundedFdQueue::try_push(int fd) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (closed_ || fds_.size() >= capacity_) return false;
    fds_.push_back(fd);
  }
  ready_.notify_one();
  return true;
}

int BoundedFdQueue::pop() {
  std::unique_lock<std::mutex> lock(mutex_);
  ready_.wait(lock, [this] { return closed_ || !fds_.empty(); });
  if (fds_.empty()) return -1;
  const int fd = fds_.front();
  fds_.pop_front();
  return fd;
}

void BoundedFdQueue::close() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
  }
  ready_.notify_all();
}

std::size_t BoundedFdQueue::depth() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return fds_.size();
}

Server::Server(const ServerConfig& config, query::QueryEngine& engine,
               subscribe::Dispatcher* dispatcher)
    : config_(config),
      engine_(engine),
      dispatcher_(dispatcher),
      cache_(config.cache_bytes),
      queue_(config.queue_capacity) {
  if (config_.workers == 0) config_.workers = 1;
  install_api_routes(router_);
  install_subscribe_routes(router_);
  // /metrics lives here rather than in install_api_routes: it reads the
  // process-wide obs registry, which is the server's dependency, not the
  // query API's.
  router_.add("GET", "/metrics",
              [](const HttpRequest&, const RequestContext&) {
                return ApiCall{};
              },
              [](const ApiCall&, const RequestContext&) {
                return ApiResponse{
                    200, "text/plain; version=0.0.4",
                    obs::to_prometheus(obs::MetricsRegistry::global()
                                           .snapshot())};
              });
  open_listen_socket();
  acceptor_ = std::thread([this] { accept_loop(); });
  workers_.reserve(config_.workers);
  for (std::size_t i = 0; i < config_.workers; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

void Server::open_listen_socket() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw std::runtime_error("socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(listen_fd_);
    throw std::runtime_error("bad bind address: " + config_.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 128) != 0) {
    ::close(listen_fd_);
    throw std::runtime_error("cannot bind " + config_.bind_address + ":" +
                             std::to_string(config_.port));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) !=
      0) {
    ::close(listen_fd_);
    throw std::runtime_error("getsockname() failed");
  }
  port_ = ntohs(bound.sin_port);
}

Server::~Server() { stop(); }

void Server::stop() {
  if (stopping_.exchange(true)) return;
  // shutdown() unblocks the acceptor's accept(); close() alone does not on
  // all platforms.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (acceptor_.joinable()) acceptor_.join();
  ::close(listen_fd_);
  queue_.close();
  for (std::thread& worker : workers_)
    if (worker.joinable()) worker.join();
  // Drain anything still queued after the workers exited.
  for (int fd = queue_.pop(); fd >= 0; fd = queue_.pop()) ::close(fd);
}

void Server::accept_loop() {
  Metrics& metrics = Metrics::get();
  while (!stopping_.load(std::memory_order_relaxed)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listen socket shut down
    }
    metrics.connections_accepted.inc();
    set_timeout(fd, SO_RCVTIMEO, kIdleTimeoutUs);
    set_timeout(fd, SO_SNDTIMEO, kIdleTimeoutUs);
    if (queue_.try_push(fd)) {
      metrics.admission_enqueued.inc();
      metrics.queue_depth.set(static_cast<std::int64_t>(queue_.depth()));
    } else {
      // Saturated: answer immediately so the client backs off instead of
      // timing out. The client may have pipelined requests we never read;
      // the lingering close keeps the kernel from RST-ing the 429 away.
      metrics.admission_rejected.inc();
      send_all(fd, kRejectResponse);
      close_lingering(fd);
      metrics.connections_closed.inc();
    }
  }
}

void Server::worker_loop() {
  Metrics& metrics = Metrics::get();
  for (int fd = queue_.pop(); fd >= 0; fd = queue_.pop()) {
    metrics.queue_depth.set(static_cast<std::int64_t>(queue_.depth()));
    serve_connection(fd);
    // serve_connection can return with pipelined bytes still unread (a
    // Connection: close response, a malformed request) — same RST hazard
    // as the admission reject path.
    close_lingering(fd);
    metrics.connections_closed.inc();
  }
}

void Server::serve_connection(int fd) {
  Metrics& metrics = Metrics::get();
  std::string buffer;
  char chunk[4096];
  // Deadline of the request whose bytes are buffered; 0 while idle. The
  // receive timeout is re-armed only when a partial request is pending, so
  // a request that arrives in one segment costs no extra system call.
  std::uint64_t deadline_ns = 0;
  bool idle_timeout = true;  // SO_RCVTIMEO holds kIdleTimeoutUs
  while (!stopping_.load(std::memory_order_relaxed)) {
    const ParseResult parsed = parse_request(buffer, config_.http);
    if (parsed.status == ParseStatus::kNeedMore) {
      if (!buffer.empty()) {
        const std::uint64_t now = obs::monotonic_now_ns();
        if (deadline_ns == 0) deadline_ns = now + kRequestDeadlineNs;
        if (now >= deadline_ns) {
          metrics.request_timeouts.inc();
          metrics.responses_client_error.inc();
          send_all(fd, kTimeoutResponse);
          return;
        }
        set_timeout(fd, SO_RCVTIMEO, (deadline_ns - now + 999) / 1000);
        idle_timeout = false;
      } else if (!idle_timeout) {
        set_timeout(fd, SO_RCVTIMEO, kIdleTimeoutUs);
        idle_timeout = true;
      }
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n > 0) {
        buffer.append(chunk, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      // A partial request's receive timeout (EAGAIN, which is EWOULDBLOCK
      // on Linux) loops back to the 408 above.
      if (n < 0 && !buffer.empty() && errno == EAGAIN) continue;
      return;  // peer closed, idle timeout, or error
    }
    if (parsed.status != ParseStatus::kOk) {
      metrics.bad_requests.inc();
      metrics.responses_client_error.inc();
      const int status = parsed.status == ParseStatus::kTooLarge ? 431 : 400;
      const ApiResponse body = error_response(status, parsed.error);
      send_all(fd, render_response(body.status, body.content_type, body.body,
                                   /*keep_alive=*/false));
      return;  // malformed framing: the byte stream is unrecoverable
    }
    buffer.erase(0, parsed.consumed);
    deadline_ns = 0;  // a pipelined next request starts its own clock
    metrics.requests.inc();
    const obs::ScopedTimer timer(metrics.request_seconds);
    const std::string response =
        handle(parsed.request, parsed.request.keep_alive);
    if (!send_all(fd, response) || !parsed.request.keep_alive) return;
  }
}

std::string Server::handle(const HttpRequest& request, bool keep_alive) {
  Metrics& metrics = Metrics::get();
  const std::shared_ptr<const query::Snapshot> snapshot = engine_.snapshot();

  // A new snapshot version invalidates every older cache entry. Detection
  // is racy-but-safe: the worst case is a stale entry surviving until the
  // next request observes the version, and get() can never return it anyway
  // because the version is part of the key.
  if (snapshot != nullptr) {
    const std::uint64_t version = snapshot->version();
    std::uint64_t seen = last_seen_version_.load(std::memory_order_relaxed);
    if (version != seen &&
        last_seen_version_.compare_exchange_strong(
            seen, version, std::memory_order_relaxed))
      cache_.purge_stale(version);
  }

  RequestContext context;
  context.snapshot = snapshot;
  context.window = snapshot != nullptr ? snapshot->window() : StudyWindow{};
  context.budget.max_rows = config_.max_rows;
  if (config_.max_millis != 0)
    context.budget.deadline_ns =
        obs::monotonic_now_ns() + config_.max_millis * 1000000ull;
  context.dispatcher = dispatcher_;

  const Router::Prepared prepared = router_.prepare(request, context);
  ApiResponse response;
  bool store = false;
  std::string cache_key;
  if (prepared.route == nullptr) {
    // Routing or parsing already produced the final 404/405/400.
    response = prepared.response;
  } else if (prepared.route->cacheable && snapshot != nullptr &&
             !prepared.call.canonical.empty()) {
    cache_key = ResultCache::make_key(snapshot->version(),
                                      prepared.call.query.cache_key(),
                                      prepared.call.canonical);
    if (const std::shared_ptr<const CachedResponse> hit =
            cache_.get(cache_key)) {
      response = ApiResponse{hit->status, hit->content_type, hit->body};
    } else {
      response = router_.execute(prepared, context);
      store = response.status == 200;
    }
  } else {
    response = router_.execute(prepared, context);
  }

  if (response.status < 400)
    metrics.responses_ok.inc();
  else if (response.status < 500)
    metrics.responses_client_error.inc();
  else
    metrics.responses_server_error.inc();

  if (store && !cache_key.empty() && snapshot != nullptr) {
    auto entry = std::make_shared<CachedResponse>();
    entry->status = response.status;
    entry->content_type = response.content_type;
    entry->body = response.body;
    entry->snapshot_version = snapshot->version();
    cache_.put(cache_key, std::move(entry));
  }

  return render_response(response.status, response.content_type, response.body,
                         keep_alive);
}

}  // namespace dosm::serve
