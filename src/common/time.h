// Civil-calendar time for the measurement window.
//
// All dosmeter timestamps are UTC seconds since the Unix epoch
// (`UnixSeconds`). Analyses aggregate by civil day; `CivilDate` provides the
// proleptic-Gregorian day arithmetic (Howard Hinnant's algorithms) without
// any dependence on the process clock or timezone database.
#pragma once

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

namespace dosm {

using UnixSeconds = std::int64_t;

constexpr std::int64_t kSecondsPerDay = 86400;

/// A proleptic-Gregorian calendar date.
struct CivilDate {
  int year = 1970;
  unsigned month = 1;  // 1..12
  unsigned day = 1;    // 1..31

  auto operator<=>(const CivilDate&) const = default;
};

/// Days since 1970-01-01 for the given civil date (may be negative).
std::int64_t days_from_civil(CivilDate d);

/// Inverse of days_from_civil.
CivilDate civil_from_days(std::int64_t days);

/// Midnight UTC of the given civil date.
UnixSeconds unix_from_civil(CivilDate d);

/// Civil date containing the given timestamp.
CivilDate civil_from_unix(UnixSeconds t);

/// Day index (days since epoch) containing the timestamp; floor division so
/// negative timestamps land on the correct day.
std::int64_t day_index(UnixSeconds t);

/// "YYYY-MM-DD".
std::string to_string(CivilDate d);

/// Parses "YYYY-MM-DD"; throws std::invalid_argument on malformed input.
CivilDate parse_civil(const std::string& s);

/// The paper's two-year measurement window: 2015-03-01 .. 2017-02-28
/// inclusive (731 days).
struct StudyWindow {
  CivilDate start{2015, 3, 1};
  CivilDate end{2017, 2, 28};  // inclusive

  /// Number of civil days covered (731 for the default window).
  int num_days() const {
    return static_cast<int>(days_from_civil(end) - days_from_civil(start)) + 1;
  }

  UnixSeconds start_time() const { return unix_from_civil(start); }

  /// One past the last covered second.
  UnixSeconds end_time() const {
    return unix_from_civil(end) + kSecondsPerDay;
  }

  bool contains(UnixSeconds t) const {
    return t >= start_time() && t < end_time();
  }

  /// Day offset within the window (0-based); t must be inside the window.
  int day_of(UnixSeconds t) const {
    return static_cast<int>(day_index(t) - days_from_civil(start));
  }

  /// The day an event starting at `event_start` counts on (§5 fn. 15: the
  /// day it starts), or -1 when it starts outside the window. Fractional
  /// seconds truncate before the window test.
  int event_day(double event_start) const {
    const auto t = static_cast<UnixSeconds>(event_start);
    return contains(t) ? day_of(t) : -1;
  }

  /// Midnight of the day at the given 0-based offset.
  UnixSeconds day_start(int day_offset) const {
    return start_time() + static_cast<UnixSeconds>(day_offset) * kSecondsPerDay;
  }

  CivilDate date_of_day(int day_offset) const {
    return civil_from_days(days_from_civil(start) + day_offset);
  }
};

/// The one day-advance rule for a stream in start order (DESIGN.md §16).
/// advance() throws std::invalid_argument when `start` decreases, calls
/// close(d) for every open day before the event's day (gap days included)
/// and returns that day. An event at or after the window end closes the
/// open day; one before the window opens and closes nothing; both return
/// -1. finish() closes the open day, if any. `close` is a template
/// parameter, so the per-event path never goes through a std::function.
class DayClock {
 public:
  explicit DayClock(StudyWindow window) : window_(window) {}

  template <typename Close>
  int advance(double start, Close&& close) {
    if (start < last_start_)
      throw std::invalid_argument("DayClock: start order must not decrease");
    last_start_ = start;
    const int day = window_.event_day(start);
    if (day < 0) {
      if (static_cast<UnixSeconds>(start) >= window_.end_time()) finish(close);
      return -1;
    }
    if (open_day_ < 0) open_day_ = day;
    for (; open_day_ < day; ++open_day_) close(open_day_);
    return day;
  }

  template <typename Close>
  void finish(Close&& close) {
    if (open_day_ >= 0) close(std::exchange(open_day_, -1));
  }

 private:
  StudyWindow window_;
  double last_start_ = std::numeric_limits<double>::lowest();
  int open_day_ = -1;
};

/// Formats a duration in seconds as a compact human string ("4h12m", "255s").
std::string format_duration(double seconds);

}  // namespace dosm
