#include "query/event_frame.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace dosm::query {
namespace {

template <typename Fn>
void for_each_column(FrameColumns& columns, Fn&& fn) {
  fn(columns.start);
  fn(columns.end);
  fn(columns.intensity);
  fn(columns.target);
  fn(columns.source);
  fn(columns.ip_proto);
  fn(columns.top_port);
  fn(columns.asn);
  fn(columns.country);
  fn(columns.day);
}

}  // namespace

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
  frame.columns_ = std::move(columns);
  return frame;
}

FrameBuilder::FrameBuilder(StudyWindow window,
                           const meta::PrefixToAsMap& pfx2as,
                           const meta::GeoDatabase& geo)
    : window_(window), pfx2as_(&pfx2as), geo_(&geo) {}

void FrameBuilder::add(const core::AttackEvent& event) {
  columns_.start.push_back(event.start);
  columns_.end.push_back(event.end);
  columns_.intensity.push_back(event.intensity);
  columns_.target.push_back(event.target.value());
  columns_.source.push_back(static_cast<std::uint8_t>(event.source));
  columns_.ip_proto.push_back(event.ip_proto);
  columns_.top_port.push_back(event.top_port);
  columns_.asn.push_back(pfx2as_->origin(event.target));
  columns_.country.push_back(pack_country(geo_->locate(event.target)));
  columns_.day.push_back(window_.event_day(event.start));
}

void FrameBuilder::add(std::span<const core::AttackEvent> events) {
  const std::size_t n = size() + events.size();
  for_each_column(columns_, [n](auto& column) { column.reserve(n); });
  for (const auto& event : events) add(event);
}

EventFrame FrameBuilder::build() {
  // A sealed frame lives as long as its snapshots; drop the push_back
  // growth slack (a no-op for columns reserved to size by add(span)).
  for_each_column(columns_, [](auto& column) { column.shrink_to_fit(); });
  return EventFrame::from_columns(window_, std::exchange(columns_, {}));
}

}  // namespace dosm::query
