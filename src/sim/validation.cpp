#include "sim/validation.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/stats.h"
#include "dps/migration.h"

namespace dosm::sim {

namespace {

std::vector<RecallBucket> decade_buckets(double lo, int decades) {
  std::vector<RecallBucket> buckets;
  double bound = lo;
  for (int i = 0; i < decades; ++i) {
    buckets.push_back({bound, bound * 10.0, 0, 0});
    bound *= 10.0;
  }
  return buckets;
}

RecallBucket* bucket_for(std::vector<RecallBucket>& buckets, double value) {
  for (auto& bucket : buckets) {
    if (value >= bucket.lo && value < bucket.hi) return &bucket;
  }
  return nullptr;
}

}  // namespace

DetectorValidation validate_detectors(const World& world) {
  DetectorValidation validation;
  validation.telescope_by_intensity = decade_buckets(0.01, 7);
  validation.honeypot_by_intensity = decade_buckets(0.01, 7);

  // Index detected events per source and target for overlap matching.
  std::map<std::uint32_t, std::vector<const core::AttackEvent*>>
      telescope_by_target;
  std::map<std::uint32_t, std::vector<const core::AttackEvent*>>
      honeypot_by_target;
  for (const auto& event : world.store.events()) {
    auto& by_target =
        event.is_telescope() ? telescope_by_target : honeypot_by_target;
    by_target[event.target.value()].push_back(&event);
  }

  EmpiricalDistribution duration_errors;
  EmpiricalDistribution intensity_errors;

  for (const auto& attack : world.truth) {
    const double attack_end = attack.start + attack.duration_s;
    if (attack.kind == AttackKind::kDirect) {
      ++validation.direct_attacks;
      const double scope_rate = attack.victim_pps / 256.0;
      auto* bucket = bucket_for(validation.telescope_by_intensity, scope_rate);
      if (bucket) ++bucket->attacks;

      // Any time-overlapping event on the target counts for recall; for
      // attribute fidelity we additionally require a dominant overlap so
      // repeat attacks on the same target cannot cross-match.
      const auto it = telescope_by_target.find(attack.target.value());
      const core::AttackEvent* best = nullptr;
      double best_overlap = 0.0;
      if (it != telescope_by_target.end()) {
        for (const auto* event : it->second) {
          const double overlap = std::min(attack_end, event->end) -
                                 std::max(attack.start, event->start);
          if (overlap > best_overlap) {
            best_overlap = overlap;
            best = event;
          }
        }
      }
      if (best != nullptr && best_overlap > 0.0) {
        ++validation.direct_detected;
        if (bucket) ++bucket->detected;
        // Attribute fidelity only on unambiguous 1:1 matches: the overlap
        // must dominate BOTH spans, so a short attack inside another
        // attack's long event cannot cross-match.
        const double span = std::max(attack.duration_s, best->duration());
        if (best_overlap >= 0.8 * span && span > 60.0) {
          ++validation.matched_events;
          duration_errors.add(std::fabs(best->duration() - attack.duration_s) /
                              std::max(attack.duration_s, 1.0));
          intensity_errors.add(std::fabs(best->intensity - scope_rate) /
                               std::max(scope_rate, 1e-9));
        }
      }
    } else {
      ++validation.reflection_attacks;
      auto* bucket =
          bucket_for(validation.honeypot_by_intensity, attack.per_reflector_rps);
      if (bucket) ++bucket->attacks;
      const auto it = honeypot_by_target.find(attack.target.value());
      bool detected = false;
      if (it != honeypot_by_target.end()) {
        for (const auto* event : it->second) {
          if (event->start <= attack_end && attack.start <= event->end &&
              event->reflection == attack.reflector) {
            detected = true;
            break;
          }
        }
      }
      if (detected) {
        ++validation.reflection_detected;
        if (bucket) ++bucket->detected;
      }
    }
  }

  if (validation.matched_events > 0) {
    // Median relative error: robust to the occasional cross-match on a
    // heavily repeat-attacked target.
    validation.duration_relative_error = duration_errors.median();
    validation.intensity_relative_error = intensity_errors.median();
  }
  return validation;
}

MigrationValidation validate_migration_detection(const World& world) {
  MigrationValidation validation;
  const dps::Classifier classifier(world.providers, world.names);
  for (const auto& migration : world.migrations) {
    ++validation.ground_truth;
    const auto timeline =
        dps::protection_timeline(world.dns, migration.domain, classifier);
    if (timeline.preexisting) continue;  // misdated to registration: not found
    if (!timeline.first_protected_day) continue;
    ++validation.detected;
    if (*timeline.first_protected_day == migration.migration_day)
      ++validation.date_exact;
  }
  return validation;
}

}  // namespace dosm::sim
