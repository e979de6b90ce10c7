#include "query/index.h"

#include <algorithm>
#include <array>
#include <utility>

namespace dosm::query {

namespace {

/// Fills one posting family with the (column[row] & mask, row) pair of
/// every row, ordered by key and, within a key, by row. An LSD radix sort
/// over the four key bytes: rows enter ascending and every pass is stable,
/// so they stay ascending within a key, and a byte that every key shares
/// costs no pass. `tmp_keys` / `tmp_rows` are scratch shared by the five
/// families; all hold exactly one entry per row.
template <typename T>
void sort_postings(std::span<const T> column, std::uint32_t mask,
                   std::vector<std::uint32_t>& keys,
                   std::vector<std::uint32_t>& rows,
                   std::vector<std::uint32_t>& tmp_keys,
                   std::vector<std::uint32_t>& tmp_rows) {
  const std::size_t n = column.size();
  keys.resize(n);
  rows.resize(n);
  std::array<std::array<std::uint32_t, 256>, 4> counts{};
  for (std::uint32_t row = 0; row < n; ++row) {
    const std::uint32_t key = static_cast<std::uint32_t>(column[row]) & mask;
    keys[row] = key;
    rows[row] = row;
    for (std::size_t byte = 0; byte < 4; ++byte)
      ++counts[byte][(key >> (8 * byte)) & 0xffu];
  }
  tmp_keys.resize(n);
  tmp_rows.resize(n);
  for (std::size_t byte = 0; byte < 4; ++byte) {
    auto& offsets = counts[byte];
    const std::size_t shift = 8 * byte;
    if (n == 0 || offsets[(keys[0] >> shift) & 0xffu] == n) continue;
    std::uint32_t offset = 0;
    for (auto& slot : offsets) offset += std::exchange(slot, offset);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t to = offsets[(keys[i] >> shift) & 0xffu]++;
      tmp_keys[to] = keys[i];
      tmp_rows[to] = rows[i];
    }
    keys.swap(tmp_keys);
    rows.swap(tmp_rows);
  }
}

}  // namespace

FrameIndex::FrameIndex(const EventFrame& frame) : frame_(&frame) {
  std::vector<std::uint32_t> tmp_keys;
  std::vector<std::uint32_t> tmp_rows;
  const auto fill = [&](auto column, std::uint32_t mask, Postings& to) {
    sort_postings(column, mask, to.keys, to.rows, tmp_keys, tmp_rows);
  };
  fill(frame.target(), 0xffffffffu, target_);
  fill(frame.target(), 0xffffff00u, slash24_);
  fill(frame.asn(), 0xffffffffu, asn_);
  fill(frame.country(), 0xffffffffu, country_);
  fill(frame.top_port(), 0xffffffffu, port_);
}

RowRange FrameIndex::time_range(double t0, double t1) const {
  const auto start = frame_->start();
  const auto lo = std::lower_bound(start.begin(), start.end(), t0);
  const auto hi = std::lower_bound(lo, start.end(), t1);
  return {static_cast<std::uint32_t>(lo - start.begin()),
          static_cast<std::uint32_t>(hi - start.begin())};
}

std::span<const std::uint32_t> FrameIndex::Postings::find(
    std::uint32_t key) const {
  const auto [lo, hi] = std::equal_range(keys.begin(), keys.end(), key);
  return std::span<const std::uint32_t>(rows).subspan(
      static_cast<std::size_t>(lo - keys.begin()),
      static_cast<std::size_t>(hi - lo));
}

std::span<const std::uint32_t> FrameIndex::by_target(std::uint32_t addr) const {
  return target_.find(addr);
}

std::span<const std::uint32_t> FrameIndex::by_slash24(std::uint32_t network) const {
  return slash24_.find(network & 0xffffff00u);
}

std::span<const std::uint32_t> FrameIndex::by_asn(meta::Asn asn) const {
  return asn_.find(asn);
}

std::span<const std::uint32_t> FrameIndex::by_country(PackedCountry country) const {
  return country_.find(country);
}

std::span<const std::uint32_t> FrameIndex::by_port(std::uint16_t port) const {
  return port_.find(port);
}

}  // namespace dosm::query
