#include "sim/scenario.h"

namespace dosm::sim {

ScenarioConfig ScenarioConfig::small() {
  ScenarioConfig config;
  config.window.start = {2015, 3, 1};
  config.window.end = {2015, 4, 29};  // 60 days
  config.population.total_slash16 = 400;
  config.hosting.num_domains = 4000;
  config.hosting.num_generic_hosters = 30;
  config.attacker.direct_per_day = 40;
  config.attacker.reflection_per_day = 30;
  config.attacker.num_campaigns = 2;
  return config;
}

World::World(const ScenarioConfig& cfg)
    : rng_(cfg.seed),
      config(cfg),
      window(cfg.window),
      providers(dps::paper_providers()),
      names(),
      dns(cfg.window.num_days()),
      population(rng_, cfg.population),
      hosting(rng_, population, providers, names, dns, cfg.hosting) {
  Attacker attacker(rng_.next_u64(), population, hosting, window,
                    cfg.attacker);
  truth = attacker.generate();

  MigrationModel migration_model(rng_.next_u64(), hosting, dns, window,
                                 cfg.migration);
  migrations = migration_model.apply(truth);

  Rng observe_rng = rng_.fork("observe");
  const auto observed = observe_all(truth, observe_rng, cfg.observation);

  dns.build_reverse_index();
  store = core::EventStore(window,
                           core::fuse(observed.telescope, observed.honeypot));
}

std::unique_ptr<World> build_world(const ScenarioConfig& config) {
  return std::make_unique<World>(config);
}

}  // namespace dosm::sim
