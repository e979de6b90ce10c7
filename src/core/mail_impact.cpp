#include "core/mail_impact.h"

#include <algorithm>
#include <map>
#include <unordered_set>

namespace dosm::core {

MailImpactAnalysis::MailImpactAnalysis(const EventStore& store,
                                       const dns::SnapshotStore& dns)
    : affected_daily_(store.window().num_days()) {
  std::unordered_set<dns::DomainId> day_domains;
  std::unordered_set<dns::DomainId> ever;
  std::unordered_set<std::uint32_t> seen_targets;
  std::map<net::Ipv4Addr, std::uint64_t> involvement_counts;
  DayClock clock(store.window());
  const auto close_day = [&](int day) {
    affected_daily_.set(day, static_cast<double>(day_domains.size()));
    day_domains.clear();
  };

  for (const auto& event : store.events()) {
    const int day = clock.advance(event.start, close_day);
    if (day < 0) continue;
    const auto domains = dns.mail_domains_on(event.target, day);
    if (domains.empty()) continue;
    if (seen_targets.insert(event.target.value()).second)
      ++mail_hosting_targets_;
    involvement_counts[event.target] += domains.size();
    for (const auto domain : domains) {
      day_domains.insert(domain);
      ever.insert(domain);
    }
  }
  clock.finish(close_day);
  affected_domains_ = ever.size();

  dns.for_each_domain([&](dns::DomainId, const dns::DomainEntry& entry) {
    for (const auto& change : entry.changes) {
      if (change.record.mx != dns::kNoName) {
        ++mail_domains_;
        return;
      }
    }
  });

  involvements_.assign(involvement_counts.begin(), involvement_counts.end());
  // std::sort is not stable: count-only ordering scrambles tied addresses
  // once introsort kicks in, so rankings differed run-to-run in the tie
  // region. Tie-break by address for a total order.
  std::sort(involvements_.begin(), involvements_.end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second > b.second;
              return a.first.value() < b.first.value();
            });
}

std::vector<std::pair<net::Ipv4Addr, std::uint64_t>>
MailImpactAnalysis::top_mail_targets(std::size_t n) const {
  auto out = involvements_;
  out.resize(std::min(n, out.size()));
  return out;
}

}  // namespace dosm::core
