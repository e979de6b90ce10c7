// The EventStore: the fused attack-event dataset over a study window.
//
// Holds the events of both sources in canonical_less order and nothing
// derived from them. Each analysis builds what it needs from the event
// list: the per-source intensity scale (IntensityScale, core/event.h), the
// per-target grouping of joint attacks (JointAttackAnalysis), and the
// counting rollups (Table 1, the Figure-1/5 daily series, the Table-4
// country ranking) on the query executor, query::Snapshot.
#pragma once

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "common/time.h"
#include "core/event.h"

namespace dosm::core {

class EventStore {
 public:
  /// Takes the events in any order and sorts them by canonical_less
  /// (fuse() output is already in that order and is not sorted again).
  explicit EventStore(StudyWindow window = {},
                      std::vector<AttackEvent> events = {})
      : window_(window), events_(std::move(events)) {
    if (!std::is_sorted(events_.begin(), events_.end(), canonical_less))
      std::sort(events_.begin(), events_.end(), canonical_less);
  }

  const StudyWindow& window() const { return window_; }
  std::span<const AttackEvent> events() const { return events_; }
  std::size_t size() const { return events_.size(); }

 private:
  StudyWindow window_;
  std::vector<AttackEvent> events_;
};

}  // namespace dosm::core
