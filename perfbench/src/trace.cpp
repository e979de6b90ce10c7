#include "trace.h"

#include <fstream>
#include <unordered_map>

namespace perfbench {
namespace {

thread_local std::uint64_t t_current = 0;

}  // namespace

Tracer& Tracer::get() {
  static Tracer tracer;
  return tracer;
}

std::uint64_t Tracer::next_id() {
  const std::lock_guard<std::mutex> lock(mutex_);
  return next_id_++;
}

void Tracer::record(SpanRecord record) {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(record));
}

double Tracer::busy_s(std::uint32_t run, const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::int64_t busy = 0;
  for (const SpanRecord& span : spans_)
    if (span.run == run && span.name == name) busy += span.busy_ns;
  return static_cast<double>(busy) * 1e-9;
}

double Tracer::self_s(std::uint32_t run, const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::unordered_map<std::uint64_t, std::int64_t> self;
  for (const SpanRecord& span : spans_)
    if (span.run == run && span.name == name) self[span.id] += span.busy_ns;
  for (const SpanRecord& span : spans_) {
    const auto it = self.find(span.parent);
    if (span.run == run && it != self.end()) it->second -= span.busy_ns;
  }
  std::int64_t total = 0;
  for (const auto& [id, ns] : self) total += ns;
  return static_cast<double>(total) * 1e-9;
}

std::uint64_t Tracer::calls(std::uint32_t run, const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t calls = 0;
  for (const SpanRecord& span : spans_)
    if (span.run == run && span.name == name) calls += span.count;
  return calls;
}

double Tracer::coverage(std::uint32_t run, const std::string& root) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::unordered_map<std::uint64_t, std::int64_t> covered;
  std::int64_t total = 0;
  for (const SpanRecord& span : spans_) {
    if (span.run == run && span.name == root) {
      covered[span.id] = 0;
      total += span.busy_ns;
    }
  }
  std::int64_t children = 0;
  for (const SpanRecord& span : spans_)
    if (span.run == run && covered.count(span.parent) != 0)
      children += span.busy_ns;
  return total > 0 ? static_cast<double>(children) / static_cast<double>(total)
                   : 0.0;
}

bool Tracer::write_jsonl(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  if (!out) return false;
  for (const SpanRecord& span : spans_) {
    out << "{\"id\":" << span.id << ",\"parent\":" << span.parent
        << ",\"name\":\"" << span.name << "\",\"run\":" << span.run
        << ",\"start_ns\":" << span.start_ns << ",\"end_ns\":" << span.end_ns
        << ",\"busy_ns\":" << span.busy_ns << ",\"count\":" << span.count
        << "}\n";
  }
  return static_cast<bool>(out);
}

std::size_t Tracer::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

Span::Span(const char* name) : name_(name) {
  Tracer& tracer = Tracer::get();
  if (!tracer.on()) return;
  id_ = tracer.next_id();
  parent_ = t_current;
  t_current = id_;
  start_ns_ = now_ns();
}

Span::~Span() {
  if (id_ == 0) return;
  const std::int64_t end = now_ns();
  t_current = parent_;
  Tracer& tracer = Tracer::get();
  tracer.record(SpanRecord{id_, parent_, name_, start_ns_, end,
                           end - start_ns_, 1, tracer.run()});
}

SpanSum::SpanSum(const char* name)
    : name_(name), active_(Tracer::get().on()) {
  if (active_) id_ = Tracer::get().next_id();
}

SpanSum::~SpanSum() {
  if (!active_ || count_ == 0) return;
  Tracer& tracer = Tracer::get();
  tracer.record(SpanRecord{id_, parent_, name_, first_ns_, last_end_ns_,
                           busy_ns_, count_, tracer.run()});
}

SpanSum::Scope::Scope(SpanSum& s) : sum(s), saved(t_current), start(now_ns()) {
  t_current = sum.id_;
  if (sum.count_ == 0) {
    sum.first_ns_ = start;
    sum.parent_ = saved;  // the caller of the first timed call
  }
}

SpanSum::Scope::~Scope() {
  const std::int64_t end = now_ns();
  t_current = saved;
  sum.last_ns_ = end - start;
  sum.busy_ns_ += sum.last_ns_;
  sum.last_end_ns_ = end;
  ++sum.count_;
}

}  // namespace perfbench
