#include "core/event.h"

#include <algorithm>
#include <tuple>

namespace dosm::core {

std::string to_string(EventSource source) {
  switch (source) {
    case EventSource::kTelescope:
      return "Network Telescope";
    case EventSource::kHoneypot:
      return "Amplification Honeypot";
  }
  return "Unknown";
}

AttackEvent from_telescope(const telescope::TelescopeEvent& event) {
  AttackEvent out;
  out.source = EventSource::kTelescope;
  out.target = event.victim;
  out.start = event.start;
  out.end = event.end;
  out.intensity = event.max_pps;
  out.packets = event.packets;
  out.ip_proto = event.attack_proto;
  out.num_ports = event.num_ports;
  out.top_port = event.top_port;
  out.unique_sources = event.unique_sources;
  return out;
}

bool canonical_less(const AttackEvent& a, const AttackEvent& b) {
  return std::tie(a.start, a.target, a.source, a.reflection) <
         std::tie(b.start, b.target, b.source, b.reflection);
}

AttackEvent from_amppot(const amppot::AmpPotEvent& event) {
  AttackEvent out;
  out.source = EventSource::kHoneypot;
  out.target = event.victim;
  out.start = event.start;
  out.end = event.end;
  out.intensity = event.avg_rps();
  out.packets = event.requests;
  out.reflection = event.protocol;
  out.honeypots = event.honeypots;
  return out;
}

std::vector<AttackEvent> fuse(
    std::span<const telescope::TelescopeEvent> telescope_events,
    std::span<const amppot::AmpPotEvent> honeypot_events) {
  std::vector<AttackEvent> events;
  events.reserve(telescope_events.size() + honeypot_events.size());
  for (const auto& event : telescope_events)
    events.push_back(from_telescope(event));
  for (const auto& event : honeypot_events)
    events.push_back(from_amppot(event));
  std::sort(events.begin(), events.end(), canonical_less);
  return events;
}

bool matches(SourceFilter filter, EventSource source) {
  switch (filter) {
    case SourceFilter::kTelescope:
      return source == EventSource::kTelescope;
    case SourceFilter::kHoneypot:
      return source == EventSource::kHoneypot;
    case SourceFilter::kCombined:
      return true;
  }
  return false;
}

std::string to_string(SourceFilter filter) {
  switch (filter) {
    case SourceFilter::kTelescope:
      return "Network Telescope";
    case SourceFilter::kHoneypot:
      return "Amplification Honeypot";
    case SourceFilter::kCombined:
      return "Combined";
  }
  return "Unknown";
}

IntensityScale::IntensityScale(std::span<const AttackEvent> events) {
  double sum[2] = {0.0, 0.0};
  std::uint64_t count[2] = {0, 0};
  for (const auto& event : events) {
    const auto s = static_cast<std::size_t>(event.source);
    max_[s] = std::max(max_[s], event.intensity);
    sum[s] += event.intensity;
    ++count[s];
  }
  for (std::size_t s = 0; s < 2; ++s)
    mean_[s] = count[s] ? sum[s] / static_cast<double>(count[s]) : 0.0;
}

double IntensityScale::normalized(const AttackEvent& event) const {
  const double max = max_[static_cast<std::size_t>(event.source)];
  if (max <= 0.0) return 0.0;
  // Linear against the dataset maximum. Intensities are extremely
  // heavy-tailed, so most events normalize to nearly zero — exactly the
  // shape of Table 9 (95% of attacked Web sites at or below 0.07).
  return event.intensity / max;
}

bool IntensityScale::medium_or_higher(const AttackEvent& event) const {
  return event.intensity >= mean(event.source);
}

}  // namespace dosm::core
