// Scenario orchestration: builds a complete simulated world and runs the
// full measurement/fusion pipeline over it.
//
// Construction order mirrors the paper's data flow:
//   population -> hosting ecosystem (initial DNS state, preexisting DPS)
//   -> attacker ground truth -> DPS migration behaviour (DNS changes)
//   -> detector observation (telescope + honeypot events)
//   -> fused EventStore + reverse DNS index, ready for every analysis.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/event_store.h"
#include "dns/names.h"
#include "dns/snapshot.h"
#include "dps/providers.h"
#include "sim/attacker.h"
#include "sim/hosting.h"
#include "sim/migration_model.h"
#include "sim/observe.h"
#include "sim/population.h"

namespace dosm::sim {

struct ScenarioConfig {
  std::uint64_t seed = 42;
  StudyWindow window{};  // the paper's 731-day window
  PopulationConfig population{};
  HostingConfig hosting{};
  AttackerConfig attacker{};
  MigrationConfig migration{};
  ObservationConfig observation{};

  /// Returns a configuration scaled down for unit tests (short window,
  /// small namespace) that still exercises every code path.
  static ScenarioConfig small();
};

/// A fully-built world. Heap-allocate via build_world(); internal members
/// hold cross-references, so the object is neither copyable nor movable.
class World {
  Rng rng_;  // declared first: seeds every later member's construction

 public:
  explicit World(const ScenarioConfig& config);
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  const ScenarioConfig config;
  StudyWindow window;

  dps::ProviderRegistry providers;
  dns::NameTable names;
  dns::SnapshotStore dns;
  Population population;
  HostingEcosystem hosting;

  std::vector<GroundTruthAttack> truth;
  std::vector<MigrationRecord> migrations;  // ground-truth DNS changes

  /// Both detectors' events, fused in canonical order.
  core::EventStore store;
};

/// Builds the world for a configuration (default: paper-scaled defaults).
std::unique_ptr<World> build_world(const ScenarioConfig& config = {});

}  // namespace dosm::sim
