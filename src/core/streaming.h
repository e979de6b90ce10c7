// Near-realtime fusion (§9).
//
// The paper closes on the challenge of "near-realtime data fusion,
// extraction, correlation and visualization". This module is the
// operational counterpart of the batch analyses: events from both detectors
// are ingested in start order as they are produced; each time the DayClock
// (common/time.h) closes a day, gap days included, the fused day summary is
// emitted, and anomaly alerts fire when a day's activity spikes against a
// trailing baseline — the situational-awareness output the paper envisions.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>
#include <unordered_set>

#include "common/time.h"
#include "core/alert.h"
#include "core/event.h"

namespace dosm::core {

/// Fused per-day summary, emitted once the day completes.
struct DaySummary {
  int day = 0;  // offset within the window
  std::uint64_t attacks = 0;
  std::uint64_t telescope_attacks = 0;
  std::uint64_t honeypot_attacks = 0;
  std::uint64_t unique_targets = 0;
  /// Targets hit by both detectors within this day (same-day co-targeting,
  /// the streaming approximation of the joint-attack correlation).
  std::uint64_t co_targeted = 0;
};

class StreamingFusion {
 public:
  struct Config {
    /// Days in the trailing baseline window. Must be > 0.
    int baseline_days = 28;
    /// A day alerts when its value exceeds factor x trailing mean. Must be
    /// > 1.0 — at 1.0 or below every non-quiet day would "spike".
    double spike_factor = 2.5;
    /// Baseline must cover at least this many days before alerting. Must be
    /// in [1, baseline_days].
    int min_baseline_days = 7;
  };

  using SummaryCallback = std::function<void(const DaySummary&)>;

  /// Validates config at construction: each field constraint above is
  /// enforced with a descriptive std::invalid_argument naming the field
  /// and the offending value. Spike alerts (kAttackSpike / kTargetSpike)
  /// go to `alert_sink` if non-null; the sink must outlive the fusion.
  StreamingFusion(StudyWindow window, Config config,
                  SummaryCallback on_summary, AlertSink* alert_sink = nullptr);

  /// Ingests one event. Events must arrive in non-decreasing start order
  /// (each detector emits chronologically and the fusion layer merges);
  /// an out-of-order event throws std::invalid_argument. Days close on the
  /// DayClock, gap days included; events outside the window are ignored.
  void ingest(const AttackEvent& event);

  /// Summarizes the open (possibly partial) day.
  void finish();

  std::uint64_t events_ingested() const { return events_ingested_; }
  std::uint64_t days_emitted() const { return days_emitted_; }
  std::uint64_t alerts_fired() const { return alerts_fired_; }

 private:
  void close_day(int day);
  void check_spike(AlertKind kind, double value, std::deque<double>& history);

  Config config_;
  SummaryCallback on_summary_;
  AlertSink* alert_sink_;

  DayClock clock_;
  DaySummary pending_{};  // the open day's counts
  // Per-day target sets: value = bitmask of sources that hit the target.
  std::unordered_map<std::uint32_t, std::uint8_t> day_targets_;
  std::deque<double> attack_history_;
  std::deque<double> target_history_;

  std::uint64_t events_ingested_ = 0;
  std::uint64_t days_emitted_ = 0;
  std::uint64_t alerts_fired_ = 0;
};

}  // namespace dosm::core
