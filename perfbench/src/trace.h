// In-memory span recorder for the traced run.
//
// Spans are recorded only from the benchmark's own code, around each call
// into a dosmeter layer. A Span covers one call; a SpanSum folds many
// calls of one kind (per-event ingest calls, per-request round trips) into
// a single record carrying the summed busy time and the call count, so a
// per-event loop does not store one record per event; its parent is the
// span open around its first call. Parents come from a
// per-thread stack, so a call made inside another traced call nests under
// it, and a layer's self time is its busy time minus its children's.
//
// When tracing is off every span is a no-op apart from one branch.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t busy_ns = 0;  // end - start for one call; summed for a SpanSum
  std::uint64_t count = 1;
  std::uint32_t run = 0;
};

class Tracer {
 public:
  static Tracer& get();

  bool on() const { return on_.load(std::memory_order_relaxed); }
  void enable(bool on) { on_.store(on, std::memory_order_relaxed); }
  /// Run id stamped on every span recorded from now on (one per pass).
  void set_run(std::uint32_t run) { run_.store(run, std::memory_order_relaxed); }
  std::uint32_t run() const { return run_.load(std::memory_order_relaxed); }

  std::uint64_t next_id();
  void record(SpanRecord record);

  /// Summed busy seconds of spans named `name` in run `run`.
  double busy_s(std::uint32_t run, const std::string& name) const;
  /// Busy seconds minus the busy time of direct children.
  double self_s(std::uint32_t run, const std::string& name) const;
  /// Summed call count of spans named `name` in run `run`.
  std::uint64_t calls(std::uint32_t run, const std::string& name) const;
  /// Share of the busy time of spans named `root` covered by their direct
  /// children, for run `run` (the >= 95 % coverage check).
  double coverage(std::uint32_t run, const std::string& root) const;

  /// Writes every span as one JSON object per line. Returns false when the
  /// file cannot be written.
  bool write_jsonl(const std::string& path) const;
  std::size_t size() const;

 private:
  std::atomic<bool> on_{false};
  std::atomic<std::uint32_t> run_{0};
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;  // guarded by mutex_
  std::uint64_t next_id_ = 1;      // guarded by mutex_
};

/// One traced call: opens on construction, records on destruction.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  std::int64_t start_ns_ = 0;
};

/// Many calls of one kind folded into one record (see file comment).
class SpanSum {
 public:
  explicit SpanSum(const char* name);
  ~SpanSum();  // records the folded span
  SpanSum(const SpanSum&) = delete;
  SpanSum& operator=(const SpanSum&) = delete;

  template <typename Fn>
  decltype(auto) time(Fn&& fn) {
    if (!active_) return fn();
    Scope scope(*this);
    return fn();
  }

  /// Busy nanoseconds of the most recent timed call.
  std::int64_t last_ns() const { return last_ns_; }

 private:
  struct Scope {
    explicit Scope(SpanSum& sum);
    ~Scope();
    SpanSum& sum;
    std::uint64_t saved;
    std::int64_t start;
  };
  const char* name_;
  bool active_;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  std::int64_t first_ns_ = 0;
  std::int64_t last_end_ns_ = 0;
  std::int64_t busy_ns_ = 0;
  std::int64_t last_ns_ = 0;
  std::uint64_t count_ = 0;
};

}  // namespace perfbench
