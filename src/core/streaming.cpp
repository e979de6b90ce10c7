#include "core/streaming.h"

#include <numeric>
#include <stdexcept>
#include <string>

#include "obs/metrics.h"

namespace dosm::core {
namespace {

struct FusionMetrics {
  obs::Counter& events_ingested;
  obs::Counter& out_of_window;
  obs::Counter& days_emitted;
  obs::Counter& gap_days;
  obs::Counter& alerts_attack_spike;
  obs::Counter& alerts_target_spike;

  static FusionMetrics& get() {
    static FusionMetrics metrics = [] {
      auto& reg = obs::MetricsRegistry::global();
      return FusionMetrics{
          reg.counter("fusion.events_ingested",
                      "Events accepted by the streaming fusion layer"),
          reg.counter("fusion.out_of_window",
                      "Events dropped for falling outside the study window"),
          reg.counter("fusion.days_emitted", "Day summaries emitted"),
          reg.counter("fusion.gap_days",
                      "Idle catch-up days excluded from the alert baseline"),
          reg.counter("fusion.alerts.attack_spike",
                      "Attack-count spike alerts fired"),
          reg.counter("fusion.alerts.target_spike",
                      "Unique-target spike alerts fired"),
      };
    }();
    return metrics;
  }
};

}  // namespace

StreamingFusion::StreamingFusion(StudyWindow window, Config config,
                                 SummaryCallback on_summary,
                                 AlertSink* alert_sink)
    : config_(config),
      on_summary_(std::move(on_summary)),
      alert_sink_(alert_sink),
      clock_(window) {
  if (!on_summary_)
    throw std::invalid_argument("StreamingFusion: summary callback required");
  if (config_.baseline_days < 1)
    throw std::invalid_argument(
        "StreamingFusion: baseline_days must be > 0, got " +
        std::to_string(config_.baseline_days));
  if (!(config_.spike_factor > 1.0))
    throw std::invalid_argument(
        "StreamingFusion: spike_factor must be > 1.0 (a spike must exceed "
        "its own baseline), got " + std::to_string(config_.spike_factor));
  if (config_.min_baseline_days < 1 ||
      config_.min_baseline_days > config_.baseline_days)
    throw std::invalid_argument(
        "StreamingFusion: min_baseline_days must be in [1, baseline_days=" +
        std::to_string(config_.baseline_days) + "], got " +
        std::to_string(config_.min_baseline_days));
}

void StreamingFusion::ingest(const AttackEvent& event) {
  if (clock_.advance(event.start, [this](int day) { close_day(day); }) < 0) {
    FusionMetrics::get().out_of_window.inc();
    return;
  }

  ++events_ingested_;
  FusionMetrics::get().events_ingested.inc();
  ++pending_.attacks;
  if (event.is_telescope())
    ++pending_.telescope_attacks;
  else
    ++pending_.honeypot_attacks;
  const auto source_bit =
      static_cast<std::uint8_t>(event.is_telescope() ? 1 : 2);
  day_targets_[event.target.value()] |= source_bit;
}

void StreamingFusion::close_day(int day) {
  pending_.day = day;
  pending_.unique_targets = day_targets_.size();
  for (const auto& [target, mask] : day_targets_) {
    if (mask == 3) ++pending_.co_targeted;
  }
  day_targets_.clear();

  // Spike detection against the trailing baseline (before appending the
  // new value, so a spike does not mask itself). Days with zero attacks can
  // only be gap days closed by the clock (a day with a real event always
  // counts it before closing); folding their zeros into the baseline would
  // drag the trailing mean toward zero during a lull and make the first
  // ordinary day afterwards fire a spurious spike alert, so they are
  // emitted as summaries but kept out of the histories entirely.
  if (pending_.attacks == 0) {
    FusionMetrics::get().gap_days.inc();
  } else {
    check_spike(AlertKind::kAttackSpike, static_cast<double>(pending_.attacks),
                attack_history_);
    check_spike(AlertKind::kTargetSpike,
                static_cast<double>(pending_.unique_targets), target_history_);
  }

  on_summary_(pending_);
  pending_ = DaySummary{};
  ++days_emitted_;
  FusionMetrics::get().days_emitted.inc();
}

void StreamingFusion::check_spike(AlertKind kind, double value,
                                  std::deque<double>& history) {
  if (static_cast<int>(history.size()) >= config_.min_baseline_days &&
      alert_sink_ != nullptr) {
    const double mean =
        std::accumulate(history.begin(), history.end(), 0.0) /
        static_cast<double>(history.size());
    if (mean > 0.0 && value > config_.spike_factor * mean) {
      alert_sink_->on_alert(spike_alert(kind, pending_.day, value, mean));
      ++alerts_fired_;
      if (kind == AlertKind::kAttackSpike)
        FusionMetrics::get().alerts_attack_spike.inc();
      else
        FusionMetrics::get().alerts_target_spike.inc();
    }
  }
  history.push_back(value);
  while (static_cast<int>(history.size()) > config_.baseline_days)
    history.pop_front();
}

void StreamingFusion::finish() {
  clock_.finish([this](int day) { close_day(day); });
}

}  // namespace dosm::core
