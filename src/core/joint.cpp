#include "core/joint.h"

#include <algorithm>
#include <map>
#include <numeric>

namespace dosm::core {

JointAttackAnalysis::JointAttackAnalysis(const EventStore& store)
    : joint_event_(store.size(), false) {
  const auto events = store.events();
  // Event indices grouped by ascending target, time-ordered within one.
  std::vector<std::uint32_t> by_target(events.size());
  std::iota(by_target.begin(), by_target.end(), 0u);
  std::sort(by_target.begin(), by_target.end(),
            [events](std::uint32_t a, std::uint32_t b) {
              if (events[a].target != events[b].target)
                return events[a].target < events[b].target;
              return a < b;
            });

  for (std::size_t lo = 0, hi = 0; lo < by_target.size(); lo = hi) {
    const net::Ipv4Addr target = events[by_target[lo]].target;
    while (hi < by_target.size() && events[by_target[hi]].target == target)
      ++hi;
    const std::span<const std::uint32_t> indices(by_target.data() + lo,
                                                 hi - lo);
    bool has_telescope = false, has_honeypot = false;
    for (const auto i : indices) {
      if (events[i].is_telescope()) has_telescope = true;
      if (events[i].is_honeypot()) has_honeypot = true;
    }
    if (!has_telescope || !has_honeypot) continue;
    ++common_targets_;

    // Pairwise overlap check; per-target event counts are small.
    bool joint = false;
    for (const auto a : indices) {
      if (!events[a].is_telescope()) continue;
      for (const auto b : indices) {
        if (events[b].is_honeypot() && events[a].overlaps(events[b])) {
          joint = true;
          joint_event_[a] = true;
          joint_event_[b] = true;
        }
      }
    }
    if (!joint) continue;
    joint_targets_.push_back(target);
    for (const auto i : indices)
      if (joint_event_[i] && events[i].is_telescope())
        telescope_joint_.push_back(events[i]);
    for (const auto i : indices)
      if (joint_event_[i] && events[i].is_honeypot())
        honeypot_joint_.push_back(events[i]);
  }
}

std::vector<AsnCount> JointAttackAnalysis::asn_ranking(
    const meta::PrefixToAsMap& pfx2as) const {
  std::map<meta::Asn, std::uint64_t> counts;
  for (const auto& target : joint_targets_) {
    const auto asn = pfx2as.origin(target);
    if (asn != meta::kUnknownAsn) ++counts[asn];
  }
  std::vector<AsnCount> out;
  const auto total = static_cast<double>(joint_targets_.size());
  for (const auto& [asn, count] : counts)
    out.push_back({asn, count, total > 0 ? static_cast<double>(count) / total : 0.0});
  std::sort(out.begin(), out.end(), [](const AsnCount& a, const AsnCount& b) {
    if (a.targets != b.targets) return a.targets > b.targets;
    return a.asn < b.asn;
  });
  return out;
}

std::vector<CountryCount> JointAttackAnalysis::country_ranking(
    const meta::GeoDatabase& geo) const {
  std::map<meta::CountryCode, std::uint64_t> counts;
  for (const auto& target : joint_targets_) ++counts[geo.locate(target)];
  std::vector<CountryCount> out;
  const auto total = static_cast<double>(joint_targets_.size());
  for (const auto& [country, count] : counts)
    out.push_back(
        {country, count, total > 0 ? static_cast<double>(count) / total : 0.0});
  std::sort(out.begin(), out.end(),
            [](const CountryCount& a, const CountryCount& b) {
              if (a.targets != b.targets) return a.targets > b.targets;
              return a.country < b.country;
            });
  return out;
}

}  // namespace dosm::core
