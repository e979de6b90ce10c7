#include "core/attribution.h"

#include <algorithm>
#include <map>
#include <unordered_set>

#include "core/joint.h"

namespace dosm::core {

std::vector<PeakParty> attribute_peak(const EventStore& store,
                                      const dns::SnapshotStore& dns,
                                      const dns::NameTable& names, int day,
                                      const meta::PrefixToAsMap& pfx2as,
                                      const meta::AsRegistry& registry) {
  struct Accumulator {
    std::unordered_set<std::uint32_t> ips;
    std::unordered_set<dns::DomainId> sites;
    std::map<dns::NameId, std::uint64_t> ns_votes;
    bool joint = false;
  };
  std::map<meta::Asn, Accumulator> parties;

  const JointAttackAnalysis joint(store);
  const auto& window = store.window();
  const auto events = store.events();
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto& event = events[i];
    if (day < 0 || window.event_day(event.start) != day) continue;
    const auto sites = dns.sites_on(event.target, day);
    if (sites.empty()) continue;
    const auto asn = pfx2as.origin(event.target);
    auto& party = parties[asn];
    party.ips.insert(event.target.value());
    for (const auto site : sites) {
      party.sites.insert(site);
      const auto record = dns.record_on(site, day);
      if (record && record->ns != dns::kNoName) ++party.ns_votes[record->ns];
    }
    if (joint.joint_event(i)) party.joint = true;
  }

  std::vector<PeakParty> out;
  out.reserve(parties.size());
  for (const auto& [asn, acc] : parties) {
    PeakParty party;
    party.asn = asn;
    party.name = asn == meta::kUnknownAsn ? "(unrouted)" : registry.name(asn);
    party.attacked_ips = acc.ips.size();
    party.affected_sites = acc.sites.size();
    party.joint_attacked = acc.joint;
    // A shared NS across >60% of the party's sites identifies the hoster
    // even when routing points elsewhere (the paper's AWS/CNAME caveat).
    std::uint64_t best = 0, total = 0;
    dns::NameId best_ns = dns::kNoName;
    for (const auto& [ns, votes] : acc.ns_votes) {
      total += votes;
      if (votes > best) {
        best = votes;
        best_ns = ns;
      }
    }
    if (best_ns != dns::kNoName && total > 0 &&
        static_cast<double>(best) > 0.6 * static_cast<double>(total)) {
      party.common_ns = names.name(best_ns);
    }
    out.push_back(std::move(party));
  }
  std::sort(out.begin(), out.end(), [](const PeakParty& a, const PeakParty& b) {
    if (a.affected_sites != b.affected_sites)
      return a.affected_sites > b.affected_sites;
    return a.asn < b.asn;
  });
  return out;
}

}  // namespace dosm::core
