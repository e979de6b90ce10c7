// SubscriptionIndex: the FrameIndex posting machinery run in reverse.
//
// query::FrameIndex maps an attribute value to the rows that carry it so a
// query touches only matching rows. Here the roles flip: postings map an
// attribute value to the subscriptions that watch for it, so dispatching an
// alert is O(matching watchers), not O(all watchers). Each subscription is
// indexed under exactly ONE primary attribute — the most selective field it
// constrains, in fixed priority order:
//
//   prefix of /24 or longer > ASN > country > shorter prefix > protocol
//   > kind > scan list
//
// Prefixes of every length share one posting family keyed by (length,
// masked network); a bitmask records which lengths hold postings, so an
// alert probes only those. Every family is a FlatMap, so a probe costs one
// cache line. The posting lists are pairwise disjoint and an alert's
// candidate set is the union of its target's posting at each present
// prefix length, its ASN, country, protocol and kind postings, and the
// scan list, which holds only predicates with no indexable field (the
// firehose). Candidates are then verified against the full predicate,
// because the primary attribute is only one conjunct.
//
// Determinism: ids are assigned monotonically and inserted in id order, so
// every posting list is ascending; the probed lists are merged in one
// linear pass, and the candidate set — and therefore the match set — comes
// out in ascending subscription-id order without a sort.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/alert.h"
#include "subscribe/flat_map.h"
#include "subscribe/subscription.h"

namespace dosm::subscribe {

class SubscriptionIndex {
 public:
  /// Adds `id` under its primary attribute. Ids must be inserted in
  /// strictly increasing order (the Dispatcher's monotone assignment);
  /// out-of-order insertion throws std::invalid_argument, as does an
  /// invalid predicate (see validate()).
  void insert(SubscriptionId id, const Predicate& predicate);

  /// Removes `id`; the predicate must be the one it was inserted with.
  /// Returns false if the id is not present.
  bool erase(SubscriptionId id, const Predicate& predicate);

  /// Appends to `out` the ids whose full predicate matches `alert`, in
  /// ascending id order. `lookup` resolves a candidate id to its predicate
  /// (erased ids may linger in postings only transiently — the dispatcher
  /// erases eagerly, so every candidate id resolves).
  template <typename PredicateLookup>
  void match(const core::Alert& alert, const PredicateLookup& lookup,
             std::vector<SubscriptionId>& out) const {
    merge(collect(alert), [&](SubscriptionId id) {
      if (lookup(id).matches(alert)) out.push_back(id);
    });
  }

  /// Candidate collection without verification (for stats/bench): appends
  /// the union of probed postings in ascending id order.
  void collect_candidates(const core::Alert& alert,
                          std::vector<SubscriptionId>& out) const {
    merge(collect(alert), [&](SubscriptionId id) { out.push_back(id); });
  }

  std::size_t size() const { return size_; }
  /// Subscriptions that every alert must scan (unindexable predicates).
  std::size_t scan_list_size() const { return scan_.size(); }

 private:
  // Which posting family a predicate's primary attribute lives in.
  enum class Slot : std::uint8_t {
    kPrefix,
    kAsn,
    kCountry,
    kProto,
    kKind,
    kScan,  // no indexable field at all (the firehose)
  };
  using Postings = std::vector<SubscriptionId>;
  struct KeyHash {
    std::size_t operator()(std::uint64_t key) const {  // murmur3 fmix64
      key ^= key >> 33;
      key *= 0xff51afd7ed558ccdull;
      key ^= key >> 33;
      key *= 0xc4ceb9fe1a85ec53ull;
      key ^= key >> 33;
      return static_cast<std::size_t>(key);
    }
  };
  // Attribute value -> ascending ids of the subscriptions indexed under it.
  using PostingMap = FlatMap<std::uint64_t, Postings, KeyHash>;
  // One probed posting list: ascending, disjoint from every other run.
  struct Run {
    const SubscriptionId* begin;
    const SubscriptionId* end;
  };
  // At most one run per prefix length (0..32), plus ASN, country,
  // protocol, kind and the scan list.
  static constexpr std::size_t kMaxRuns = 33 + 5;
  struct Runs {
    std::array<Run, kMaxRuns> runs;
    std::size_t count = 0;
  };

  static Slot slot_for(const Predicate& predicate);
  static std::uint16_t pack_country(meta::CountryCode country);
  // Posting key for a prefix: its length above its masked network.
  static std::uint64_t prefix_key(int length, std::uint32_t addr);

  // The non-empty posting lists an alert's candidates come from.
  Runs collect(const core::Alert& alert) const;

  // Emits the union of `runs` in ascending id order in one pass: the
  // smallest head of the (few, pairwise disjoint) runs goes next.
  template <typename Emit>
  static void merge(Runs&& runs, const Emit& emit) {
    Run* const first = runs.runs.data();
    Run* last = first + runs.count;
    while (last != first) {
      Run* min = first;
      for (Run* run = first + 1; run != last; ++run)
        if (*run->begin < *min->begin) min = run;
      emit(*min->begin);
      if (++min->begin == min->end) *min = *--last;
    }
  }

  PostingMap by_prefix_;
  // Bit L set iff some posting of prefix length L exists; the count per
  // length says when to clear it again.
  std::uint64_t prefix_lengths_ = 0;
  std::array<std::uint32_t, 33> prefix_count_{};
  PostingMap by_asn_;
  PostingMap by_country_;
  PostingMap by_proto_;
  PostingMap by_kind_;
  Postings scan_;
  SubscriptionId last_id_ = 0;
  std::size_t size_ = 0;
};

}  // namespace dosm::subscribe
