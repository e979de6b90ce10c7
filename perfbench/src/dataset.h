// The two-year world shared by the `history` and `live` workloads.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/event.h"
#include "meta/geo.h"
#include "meta/pfx2as.h"
#include "query/build_context.h"
#include "sim/scenario.h"

namespace perfbench {

struct Dataset {
  std::unique_ptr<dosm::sim::World> world;
  /// The world's fused events in canonical (start-first) order.
  std::vector<dosm::core::AttackEvent> events;
  dosm::StudyWindow window{};

  // Victim attributes ranked by how many events carry them (descending,
  // ties by value), so queries and watchers picked by rank have similar
  // selectivity under every seed.
  std::vector<std::uint32_t> targets;    // distinct, ranked
  std::vector<std::uint32_t> slash24s;   // distinct /24 bases, ranked
  std::vector<std::uint32_t> slash16s;   // distinct /16 bases, ranked
  std::vector<dosm::meta::Asn> asns;     // known origins, ranked
  std::vector<dosm::meta::CountryCode> countries;  // located, ranked
  std::vector<std::uint16_t> ports;      // telescope top ports, ranked

  const dosm::meta::PrefixToAsMap& pfx2as() const;
  const dosm::meta::GeoDatabase& geo() const;
  dosm::query::BuildContext context() const;
};

/// Builds the paper-scale world (731 days, default scale) for `seed`.
Dataset make_dataset(std::uint64_t seed);

}  // namespace perfbench
