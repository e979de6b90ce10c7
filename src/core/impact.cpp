#include "core/impact.h"

#include <algorithm>
#include <unordered_set>

#include "net/headers.h"

namespace dosm::core {

double DomainAttackInfo::max_norm_intensity() const {
  double max = 0.0;
  for (const auto& touch : touches)
    max = std::max(max, static_cast<double>(touch.norm_intensity));
  return max;
}

double DomainAttackInfo::max_honeypot_duration() const {
  double max = 0.0;
  for (const auto& touch : touches)
    if (touch.honeypot) max = std::max(max, static_cast<double>(touch.duration_s));
  return max;
}

int DomainAttackInfo::latest_attack_on_or_before(int day) const {
  int best = -1;
  for (const auto& touch : touches) {
    if (touch.day > day) break;  // touches ascend by day
    best = touch.day;
  }
  return best;
}

int DomainAttackInfo::latest_long_attack_on_or_before(int day, double min_s) const {
  int best = -1;
  for (const auto& touch : touches) {
    if (touch.day > day) break;
    if (touch.honeypot && static_cast<double>(touch.duration_s) >= min_s) best = touch.day;
  }
  return best;
}

ImpactAnalysis::ImpactAnalysis(const EventStore& store,
                               const dns::SnapshotStore& dns)
    : affected_daily_(store.window().num_days()),
      affected_daily_medium_(store.window().num_days()),
      cohosting_(7),
      info_(dns.num_domains()) {
  const IntensityScale scale(store.events());
  // Per-day distinct affected domains. The store's events are time-ordered,
  // so a single sweep keeps only the open day's sets alive.
  std::unordered_set<dns::DomainId> day_sites, day_sites_medium;
  DayClock clock(store.window());
  const auto close_day = [&](int day) {
    affected_daily_.set(day, static_cast<double>(day_sites.size()));
    affected_daily_medium_.set(day,
                               static_cast<double>(day_sites_medium.size()));
    day_sites.clear();
    day_sites_medium.clear();
  };

  // Co-hosting: first-attack snapshot per target IP.
  std::unordered_set<std::uint32_t> seen_targets;

  std::uint64_t telescope_on_web = 0, tcp_on_web = 0;
  std::uint64_t single_tcp_on_web = 0, webport_on_web = 0;
  std::uint64_t honeypot_on_web = 0, ntp_on_web = 0;

  for (const auto& event : store.events()) {
    const int day = clock.advance(event.start, close_day);
    if (day < 0) continue;

    const auto sites = dns.sites_on(event.target, day);
    const bool first_time = seen_targets.insert(event.target.value()).second;
    if (first_time && !sites.empty()) {
      ++web_hosting_targets_;
      cohosting_.add(sites.size());
    }
    if (sites.empty()) continue;

    // Protocol emphasis on Web-hosting targets.
    if (event.is_telescope()) {
      ++telescope_on_web;
      if (event.ip_proto == static_cast<std::uint8_t>(net::IpProto::kTcp)) {
        ++tcp_on_web;
        if (event.single_port()) {
          ++single_tcp_on_web;
          if (is_web_port(event.top_port)) ++webport_on_web;
        }
      }
    } else {
      ++honeypot_on_web;
      if (event.reflection == amppot::ReflectionProtocol::kNtp) ++ntp_on_web;
    }

    const bool medium = scale.medium_or_higher(event);
    const auto norm = static_cast<float>(scale.normalized(event));
    const auto duration = static_cast<float>(event.duration());
    for (const auto domain : sites) {
      day_sites.insert(domain);
      if (medium) day_sites_medium.insert(domain);
      info_[domain].touches.push_back(
          {day, norm, duration, event.is_honeypot()});
    }
  }
  clock.finish(close_day);

  for (dns::DomainId id = 0; id < info_.size(); ++id) {
    auto& touches = info_[id].touches;
    // Touches were appended in event-start order, hence already day-sorted.
    if (!touches.empty()) ++attacked_domains_;
  }

  // Denominator: domains that ever had a Web site.
  dns.for_each_domain([&](dns::DomainId, const dns::DomainEntry& entry) {
    for (const auto& change : entry.changes) {
      if (change.record.has_website()) {
        ++web_domains_;
        return;
      }
    }
  });

  tcp_share_ = telescope_on_web
                   ? static_cast<double>(tcp_on_web) /
                         static_cast<double>(telescope_on_web)
                   : 0.0;
  web_port_share_ = single_tcp_on_web
                        ? static_cast<double>(webport_on_web) /
                              static_cast<double>(single_tcp_on_web)
                        : 0.0;
  ntp_share_ = honeypot_on_web ? static_cast<double>(ntp_on_web) /
                                     static_cast<double>(honeypot_on_web)
                               : 0.0;
}

std::vector<std::pair<int, double>> ImpactAnalysis::top_peaks(std::size_t n) const {
  std::vector<std::pair<int, double>> days;
  for (int d = 0; d < affected_daily_.num_days(); ++d)
    days.emplace_back(d, affected_daily_.at(d));
  std::sort(days.begin(), days.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  days.resize(std::min(n, days.size()));
  return days;
}

}  // namespace dosm::core
