// Joint-attack analysis (§4, last part): targets hit by both randomly
// spoofed and reflection attacks, and the subset attacked by both
// *simultaneously* (events overlapping in time).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/event_store.h"
#include "meta/pfx2as.h"

namespace dosm::core {

/// Ranked ASN row for the joint-target AS breakdown.
struct AsnCount {
  meta::Asn asn = 0;
  std::uint64_t targets = 0;
  double share = 0.0;
};

class JointAttackAnalysis {
 public:
  /// Groups the store's events by target and computes the joint sets once.
  explicit JointAttackAnalysis(const EventStore& store);

  /// Targets appearing in both datasets (282 k in the paper).
  std::uint64_t common_targets() const { return common_targets_; }

  /// Targets hit by overlapping attacks from both datasets (137 k).
  std::uint64_t joint_targets() const { return joint_targets_.size(); }

  std::span<const net::Ipv4Addr> joint_target_list() const {
    return joint_targets_;
  }

  /// Telescope events that co-participated in a joint attack.
  std::span<const AttackEvent> telescope_joint_events() const {
    return telescope_joint_;
  }

  /// Honeypot events that co-participated in a joint attack.
  std::span<const AttackEvent> honeypot_joint_events() const {
    return honeypot_joint_;
  }

  /// True when the store's event `index` took part in a joint attack: an
  /// overlapping event from the other source hit the same target.
  bool joint_event(std::size_t index) const { return joint_event_[index]; }

  /// Joint targets per origin AS, descending.
  std::vector<AsnCount> asn_ranking(const meta::PrefixToAsMap& pfx2as) const;

  /// Joint targets per country, descending.
  std::vector<CountryCount> country_ranking(const meta::GeoDatabase& geo) const;

 private:
  std::uint64_t common_targets_ = 0;
  std::vector<net::Ipv4Addr> joint_targets_;
  std::vector<AttackEvent> telescope_joint_;
  std::vector<AttackEvent> honeypot_joint_;
  std::vector<bool> joint_event_;  // parallel to the store's events
};

}  // namespace dosm::core
