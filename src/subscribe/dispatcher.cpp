#include "subscribe/dispatcher.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "subscribe/metrics.h"

namespace dosm::subscribe {
namespace {

/// Coalescing bucket: one victim's repeated alerts within a tick fold into
/// one delta (same kind + target for event alerts; same kind + day for
/// victimless spikes).
std::uint64_t bucket_of(const core::Alert& alert) {
  const std::uint32_t victim =
      alert.has_event ? alert.event.target.value()
                      : static_cast<std::uint32_t>(alert.day);
  return (std::uint64_t{alert.has_event} << 40) |
         (std::uint64_t{static_cast<std::uint8_t>(alert.kind)} << 32) | victim;
}

}  // namespace

void Dispatcher::Queue::push_back(Entry entry) {
  if (size_ == slots_.size()) {
    std::vector<Entry> grown(std::max<std::size_t>(8, slots_.size() * 2));
    for (std::size_t i = 0; i < size_; ++i)
      grown[i] = std::move(slots_[(head_ + i) & (slots_.size() - 1)]);
    slots_ = std::move(grown);
    head_ = 0;
  }
  slots_[(head_ + size_) & (slots_.size() - 1)] = std::move(entry);
  ++size_;
}

void Dispatcher::Queue::pop_front(std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    slots_[head_].alert.reset();
    head_ = (head_ + 1) & (slots_.size() - 1);
  }
  size_ -= count;
}

void Dispatcher::Queue::clear() {
  slots_ = {};
  head_ = 0;
  size_ = 0;
}

Dispatcher::Dispatcher(DispatcherConfig config) : config_(config) {
  if (config_.max_pending == 0)
    throw std::invalid_argument(
        "Dispatcher: max_pending must be >= 1 (a zero bound would drop "
        "every notification at the first tick)");
}

SubscriptionId Dispatcher::subscribe(const Predicate& predicate) {
  validate(predicate);
  Metrics& metrics = Metrics::get();
  std::uint64_t active = 0;
  SubscriptionId id = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    id = static_cast<SubscriptionId>(subs_.size()) + 1;
    index_.insert(id, predicate);
    Subscription sub;
    sub.predicate = predicate;
    sub.active = true;
    subs_.push_back(std::move(sub));
    ++active_count_;
    active = active_count_;
  }
  metrics.subscriptions_created.inc();
  metrics.subscriptions_active.set(static_cast<std::int64_t>(active));
  return id;
}

bool Dispatcher::unsubscribe(SubscriptionId id) {
  Metrics& metrics = Metrics::get();
  std::uint64_t active = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    Subscription* sub = find_locked(id);
    if (sub == nullptr) return false;
    index_.erase(id, sub->predicate);
    sub->active = false;
    pending_total_ -= sub->queue.size();
    sub->queue.clear();
    sub->staged.clear();
    sub->staged.shrink_to_fit();
    --active_count_;
    active = active_count_;
    metrics.pending.set(static_cast<std::int64_t>(pending_total_));
  }
  metrics.subscriptions_removed.inc();
  metrics.subscriptions_active.set(static_cast<std::int64_t>(active));
  // Long-pollers on this id must observe the removal and return nullopt.
  data_ready_.notify_all();
  return true;
}

void Dispatcher::ingest(const core::AttackEvent& event) {
  const auto t = static_cast<UnixSeconds>(event.start);
  const int day = config_.window.contains(t) ? config_.window.day_of(t) : -1;
  const meta::Asn asn = config_.pfx2as != nullptr
                            ? config_.pfx2as->origin(event.target)
                            : meta::kUnknownAsn;
  const meta::CountryCode country = config_.geo != nullptr
                                        ? config_.geo->locate(event.target)
                                        : meta::CountryCode{};
  const core::Alert alert = core::event_alert(event, day, asn, country);
  const std::lock_guard<std::mutex> lock(mutex_);
  ++events_ingested_;
  Metrics::get().events_ingested.inc();
  dispatch_locked(alert);
}

void Dispatcher::on_alert(const core::Alert& alert) {
  const std::lock_guard<std::mutex> lock(mutex_);
  dispatch_locked(alert);
}

void Dispatcher::dispatch_locked(const core::Alert& alert) {
  Metrics& metrics = Metrics::get();
  ++alerts_dispatched_;  // analyze:allow(shared-state-race): every caller holds mutex_ (dispatch_locked contract)
  metrics.alerts_dispatched.inc();
  match_scratch_.clear();
  index_.match(
      alert,
      [this](SubscriptionId id) -> const Predicate& {
        return subs_[id - 1].predicate;
      },
      match_scratch_);
  metrics.matches.add(static_cast<std::uint64_t>(match_scratch_.size()));
  // Ascending subscription-id order (the index contract) — together with
  // arrival-order dispatch this realizes the (event, subscription_id)
  // total order the determinism contract promises.
  const auto [open, opened] =
      open_buckets_.try_emplace(bucket_of(alert), open_count_);
  if (opened && ++open_count_ > holders_.size()) holders_.emplace_back();
  std::vector<Holder>& holders = holders_[*open];
  if (opened) holders.clear();
  // Merge the matches into the bucket's holders (both ascending): a match
  // that already holds an entry folds into it, any other stages a new one.
  std::shared_ptr<const core::Alert> shared;  // made on the first new entry
  merge_scratch_.clear();
  std::size_t h = 0;
  for (const SubscriptionId id : match_scratch_) {
    for (; h < holders.size() && holders[h].id < id; ++h)
      merge_scratch_.push_back(holders[h]);
    Subscription& sub = subs_[id - 1];
    if (h < holders.size() && holders[h].id == id) {
      ++sub.staged[holders[h].staged_index].coalesced;
      metrics.coalesced.inc();
      merge_scratch_.push_back(holders[h++]);
      continue;
    }
    if (sub.staged.empty()) dirty_.push_back(id);
    if (!shared) shared = std::make_shared<const core::Alert>(alert);
    merge_scratch_.push_back(Holder{id, sub.staged.size()});
    sub.staged.push_back(Entry{sub.next_seq++, 0, shared});
  }
  merge_scratch_.insert(merge_scratch_.end(),
                        holders.begin() + static_cast<std::ptrdiff_t>(h),
                        holders.end());
  holders.swap(merge_scratch_);
}

void Dispatcher::tick() {
  Metrics& metrics = Metrics::get();
  bool flushed = false;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    metrics.ticks.inc();
    // dirty_ accumulates in first-staged order across alerts; sort so the
    // flush (and its metric updates) walk subscriptions deterministically.
    std::sort(dirty_.begin(), dirty_.end());
    for (const SubscriptionId id : dirty_) {
      Subscription& sub = subs_[id - 1];
      if (!sub.active) continue;  // unsubscribed mid-tick; already cleared
      metrics.enqueued.add(static_cast<std::uint64_t>(sub.staged.size()));
      pending_total_ += sub.staged.size();
      // Drop-oldest over queue ++ staged, evicting before appending so the
      // ring never grows past the bound.
      const std::size_t total = sub.queue.size() + sub.staged.size();
      const std::size_t excess =
          total > config_.max_pending ? total - config_.max_pending : 0;
      const std::size_t from_queue = std::min(excess, sub.queue.size());
      sub.queue.pop_front(from_queue);
      for (std::size_t i = excess - from_queue; i < sub.staged.size(); ++i)
        sub.queue.push_back(std::move(sub.staged[i]));
      sub.staged.clear();
      if (excess > 0) {
        sub.dropped += excess;
        pending_total_ -= excess;
        metrics.dropped.add(static_cast<std::uint64_t>(excess));
      }
    }
    flushed = !dirty_.empty();
    dirty_.clear();
    open_buckets_.clear();
    open_count_ = 0;
    metrics.pending.set(static_cast<std::int64_t>(pending_total_));
  }
  if (flushed) data_ready_.notify_all();
}

std::optional<FetchResult> Dispatcher::fetch(SubscriptionId id,
                                             std::uint64_t cursor,
                                             std::size_t max_items,
                                             int wait_ms) {
  Metrics& metrics = Metrics::get();
  metrics.fetches.inc();
  std::unique_lock<std::mutex> lock(mutex_);
  Subscription* sub = find_locked(id);
  if (sub == nullptr) return std::nullopt;
  const auto has_delta = [](const Subscription& s, std::uint64_t after) {
    return !s.queue.empty() && s.queue.at(s.queue.size() - 1).seq > after;
  };
  if (wait_ms > 0 && !has_delta(*sub, cursor)) {
    data_ready_.wait_for(lock, std::chrono::milliseconds(wait_ms),
                         [&, this] {
                           sub = find_locked(id);
                           return sub == nullptr || has_delta(*sub, cursor);
                         });
    sub = find_locked(id);  // waits unlock; subs_ may have reallocated
    if (sub == nullptr) return std::nullopt;
  }
  FetchResult result;
  result.next_cursor = cursor;
  result.dropped = sub->dropped;
  // Seqs are contiguous, so the first entry past the cursor sits at
  // cursor - front.seq + 1, clamped to the queue.
  const Queue& queue = sub->queue;
  std::size_t start = 0;
  if (!queue.empty() && cursor >= queue.at(0).seq)
    start = static_cast<std::size_t>(
        std::min<std::uint64_t>(cursor - queue.at(0).seq + 1, queue.size()));
  const std::size_t available = queue.size() - start;
  const std::size_t take =
      max_items == 0 ? available : std::min(available, max_items);
  result.notifications.reserve(take);
  for (std::size_t i = start; i < start + take; ++i) {
    const Entry& entry = queue.at(i);
    result.notifications.push_back(
        Notification{entry.seq, entry.coalesced, *entry.alert});
  }
  result.pending = available - take;
  if (!result.notifications.empty())
    result.next_cursor = result.notifications.back().seq;
  metrics.delivered.add(
      static_cast<std::uint64_t>(result.notifications.size()));
  return result;
}

Dispatcher::Subscription* Dispatcher::find_locked(SubscriptionId id) {
  if (id == 0 || id > subs_.size()) return nullptr;
  Subscription& sub = subs_[id - 1];
  return sub.active ? &sub : nullptr;
}

std::size_t Dispatcher::active_subscriptions() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return active_count_;
}

std::uint64_t Dispatcher::events_ingested() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return events_ingested_;
}

std::uint64_t Dispatcher::alerts_dispatched() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return alerts_dispatched_;
}

}  // namespace dosm::subscribe
