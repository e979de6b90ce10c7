// The unified attack-event model — the fusion layer's common currency.
//
// The paper correlates two independent event datasets: randomly-spoofed
// attacks from the telescope and reflection attacks from the honeypots.
// Both are lifted into AttackEvent, which keeps the source-specific
// attributes needed by the analyses (protocol/ports for the telescope,
// reflection vector for the honeypots) plus the shared ones (target, time
// span, intensity).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "amppot/consolidator.h"
#include "common/time.h"
#include "meta/geo.h"
#include "net/ipv4.h"
#include "telescope/flow_table.h"

namespace dosm::core {

enum class EventSource : std::uint8_t {
  kTelescope,  // randomly-spoofed attacks (backscatter inference)
  kHoneypot,   // reflection & amplification attacks (AmpPot)
};

std::string to_string(EventSource source);

struct AttackEvent {
  EventSource source = EventSource::kTelescope;
  net::Ipv4Addr target;
  double start = 0.0;  // unix seconds
  double end = 0.0;

  /// Telescope: maximum backscatter packets/sec in any minute.
  /// Honeypot: average requests/sec to a single reflector.
  /// The two scales are incomparable; IntensityScale normalizes each
  /// against its own source.
  double intensity = 0.0;

  std::uint64_t packets = 0;  // backscatter packets / reflector requests

  // --- telescope-only attributes ---
  std::uint8_t ip_proto = 0;   // protocol of the attack traffic
  std::uint16_t num_ports = 0; // distinct victim ports (0 = unknown)
  std::uint16_t top_port = 0;  // dominant victim port
  std::uint32_t unique_sources = 0;

  // --- honeypot-only attributes ---
  amppot::ReflectionProtocol reflection = amppot::ReflectionProtocol::kOther;
  std::uint32_t honeypots = 0;

  double duration() const { return end - start; }

  /// True when the two events overlap in time (used for joint attacks and
  /// same-day co-targeting).
  bool overlaps(const AttackEvent& other) const {
    return start <= other.end && other.start <= end;
  }

  bool is_telescope() const { return source == EventSource::kTelescope; }
  bool is_honeypot() const { return source == EventSource::kHoneypot; }
  bool single_port() const { return is_telescope() && num_ports == 1; }
};

/// Lifts a telescope event into the unified model.
AttackEvent from_telescope(const telescope::TelescopeEvent& event);

/// Lifts a honeypot event into the unified model.
AttackEvent from_amppot(const amppot::AmpPotEvent& event);

/// Canonical total order on fused detector output: (start, target, source,
/// reflection). Total because the telescope emits at most one event per
/// (start, target) and the honeypots at most one per (start, target,
/// reflection protocol); used to sort dumps deterministically so equal event
/// sets serialize byte-identically (the CLI --threads determinism check).
bool canonical_less(const AttackEvent& a, const AttackEvent& b);

/// The fusion step: lifts both detectors' events into the unified model and
/// orders them by canonical_less.
std::vector<AttackEvent> fuse(
    std::span<const telescope::TelescopeEvent> telescope_events,
    std::span<const amppot::AmpPotEvent> honeypot_events);

/// Which events an aggregate covers.
enum class SourceFilter : std::uint8_t { kTelescope, kHoneypot, kCombined };

bool matches(SourceFilter filter, EventSource source);
std::string to_string(SourceFilter filter);

/// Table-4 row.
struct CountryCount {
  meta::CountryCode country;
  std::uint64_t targets = 0;
  double share = 0.0;
};

/// Per-source intensity scale (§4, Table 9, Figures 5 and 10). Telescope
/// pps and honeypot rps are incomparable, so each event is measured against
/// the maximum and mean of its own source over one event list.
class IntensityScale {
 public:
  /// Maximum and mean per source; the means sum in span order.
  explicit IntensityScale(std::span<const AttackEvent> events);

  /// Raw intensity divided by its source's maximum (linear, not
  /// log-scaled), in [0, 1]; 0 when that maximum is 0.
  double normalized(const AttackEvent& event) const;

  /// "Medium intensity or higher": raw intensity at least its source's
  /// mean (§4, Fig. 5).
  bool medium_or_higher(const AttackEvent& event) const;

  /// Mean raw intensity of a source (the Figure-5 threshold).
  double mean(EventSource source) const {
    return mean_[static_cast<std::size_t>(source)];
  }

 private:
  double max_[2] = {0.0, 0.0};
  double mean_[2] = {0.0, 0.0};
};

}  // namespace dosm::core
