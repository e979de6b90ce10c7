#include "query/event_frame.h"

#include <algorithm>
#include <functional>
#include <iterator>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "parallel/merge.h"
#include "parallel/work_queue.h"

namespace dosm::query {

PackedCountry pack_country(meta::CountryCode country) {
  const auto s = country.to_string();
  return static_cast<PackedCountry>(
      (static_cast<unsigned char>(s[0]) << 8) |
      static_cast<unsigned char>(s[1]));
}

meta::CountryCode unpack_country(PackedCountry packed) {
  const char chars[2] = {static_cast<char>(packed >> 8),
                         static_cast<char>(packed & 0xff)};
  return meta::CountryCode(std::string_view(chars, 2));
}

EventFrame EventFrame::from_columns(StudyWindow window, FrameColumns columns) {
  const std::size_t n = columns.start.size();
  if (columns.end.size() != n || columns.intensity.size() != n ||
      columns.target.size() != n || columns.source.size() != n ||
      columns.ip_proto.size() != n || columns.top_port.size() != n ||
      columns.asn.size() != n || columns.country.size() != n ||
      columns.day.size() != n)
    throw std::invalid_argument("EventFrame: column lengths disagree");
  if (!std::is_sorted(columns.start.begin(), columns.start.end()))
    throw std::invalid_argument("EventFrame: start column is not sorted");
  EventFrame frame;
  frame.window_ = window;
  frame.start_ = std::move(columns.start);
  frame.end_ = std::move(columns.end);
  frame.intensity_ = std::move(columns.intensity);
  frame.target_ = std::move(columns.target);
  frame.source_ = std::move(columns.source);
  frame.ip_proto_ = std::move(columns.ip_proto);
  frame.top_port_ = std::move(columns.top_port);
  frame.asn_ = std::move(columns.asn);
  frame.country_ = std::move(columns.country);
  frame.day_ = std::move(columns.day);
  return frame;
}

FrameBuilder::FrameBuilder(StudyWindow window,
                           const meta::PrefixToAsMap& pfx2as,
                           const meta::GeoDatabase& geo)
    : window_(window), pfx2as_(&pfx2as), geo_(&geo) {}

void FrameBuilder::add(const core::AttackEvent& event) {
  Row row;
  row.start = event.start;
  row.end = event.end;
  row.intensity = event.intensity;
  row.target = event.target.value();
  row.source = static_cast<std::uint8_t>(event.source);
  row.ip_proto = event.ip_proto;
  row.top_port = event.top_port;
  row.asn = pfx2as_->origin(event.target);
  row.country = pack_country(geo_->locate(event.target));
  row.day = window_.event_day(event.start);
  rows_.push_back(row);
}

void FrameBuilder::add(std::span<const core::AttackEvent> events) {
  rows_.reserve(rows_.size() + events.size());
  for (const auto& event : events) add(event);
}

EventFrame FrameBuilder::build() const { return build(1); }

EventFrame FrameBuilder::build(int threads) const {
  // Total order: the trailing row index breaks (start, target, source) ties
  // (e.g. a telescope and honeypot event fusing to the same key fields), so
  // the permutation is unique and the parallel block-sort + merge lands on
  // exactly the sequential std::sort result.
  const auto less = [this](std::uint32_t a, std::uint32_t b) {
    const Row& ra = rows_[a];
    const Row& rb = rows_[b];
    return std::tie(ra.start, ra.target, ra.source, a) <
           std::tie(rb.start, rb.target, rb.source, b);
  };

  const std::size_t n = rows_.size();
  std::vector<std::uint32_t> order;
  if (threads <= 1 || n < 2) {
    order.resize(n);
    for (std::uint32_t i = 0; i < n; ++i) order[i] = i;
    std::sort(order.begin(), order.end(), less);
  } else {
    const std::size_t blocks =
        std::min<std::size_t>(static_cast<std::size_t>(threads), n);
    std::vector<std::vector<std::uint32_t>> runs(blocks);
    parallel::run_tasks(blocks, threads, [&](std::size_t b) {
      const std::size_t lo = n * b / blocks;
      const std::size_t hi = n * (b + 1) / blocks;
      auto& run = runs[b];
      run.resize(hi - lo);
      for (std::size_t i = lo; i < hi; ++i)
        run[i - lo] = static_cast<std::uint32_t>(i);
      std::sort(run.begin(), run.end(), less);
    });
    order = parallel::kway_merge(std::move(runs), less);
  }

  EventFrame frame;
  frame.window_ = window_;
  frame.start_.resize(n);
  frame.end_.resize(n);
  frame.intensity_.resize(n);
  frame.target_.resize(n);
  frame.source_.resize(n);
  frame.ip_proto_.resize(n);
  frame.top_port_.resize(n);
  frame.asn_.resize(n);
  frame.country_.resize(n);
  frame.day_.resize(n);
  // One task per column; each writes a disjoint vector, so the gather is
  // race-free and trivially deterministic.
  const std::function<void(std::size_t)> gather[] = {
      [&](std::size_t i) { frame.start_[i] = rows_[order[i]].start; },
      [&](std::size_t i) { frame.end_[i] = rows_[order[i]].end; },
      [&](std::size_t i) { frame.intensity_[i] = rows_[order[i]].intensity; },
      [&](std::size_t i) { frame.target_[i] = rows_[order[i]].target; },
      [&](std::size_t i) { frame.source_[i] = rows_[order[i]].source; },
      [&](std::size_t i) { frame.ip_proto_[i] = rows_[order[i]].ip_proto; },
      [&](std::size_t i) { frame.top_port_[i] = rows_[order[i]].top_port; },
      [&](std::size_t i) { frame.asn_[i] = rows_[order[i]].asn; },
      [&](std::size_t i) { frame.country_[i] = rows_[order[i]].country; },
      [&](std::size_t i) { frame.day_[i] = rows_[order[i]].day; },
  };
  parallel::run_tasks(std::size(gather), threads, [&](std::size_t column) {
    for (std::size_t i = 0; i < n; ++i) gather[column](i);
  });
  return frame;
}

}  // namespace dosm::query
