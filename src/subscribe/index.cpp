#include "subscribe/index.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>

namespace dosm::subscribe {
namespace {

template <typename Map>
bool erase_from(Map& map, std::uint64_t key, SubscriptionId id) {
  auto* const list = map.find(key);
  if (list == nullptr) return false;
  const auto pos = std::lower_bound(list->begin(), list->end(), id);
  if (pos == list->end() || *pos != id) return false;
  list->erase(pos);
  if (list->empty()) map.erase(key);
  return true;
}

}  // namespace

SubscriptionIndex::Slot SubscriptionIndex::slot_for(
    const Predicate& predicate) {
  // Most selective indexable field wins. A prefix shorter than /24 covers
  // more victims than an ASN or country but far fewer than a protocol or
  // kind posting; only the firehose has nothing to index and goes to the
  // scan list, which every alert pays for.
  const bool long_prefix = predicate.prefix && predicate.prefix->length() >= 24;
  if (long_prefix) return Slot::kPrefix;
  if (predicate.asn) return Slot::kAsn;
  if (predicate.country) return Slot::kCountry;
  if (predicate.prefix) return Slot::kPrefix;
  if (predicate.ip_proto) return Slot::kProto;
  if (predicate.kind) return Slot::kKind;
  return Slot::kScan;
}

std::uint16_t SubscriptionIndex::pack_country(meta::CountryCode country) {
  const auto s = country.to_string();
  return static_cast<std::uint16_t>(
      (static_cast<std::uint16_t>(static_cast<unsigned char>(s[0])) << 8) |
      static_cast<unsigned char>(s[1]));
}

std::uint64_t SubscriptionIndex::prefix_key(int length, std::uint32_t addr) {
  const std::uint32_t mask =
      length == 0 ? 0u : ~std::uint32_t{0} << (32 - length);
  return (static_cast<std::uint64_t>(length) << 32) | (addr & mask);
}

void SubscriptionIndex::insert(SubscriptionId id, const Predicate& predicate) {
  validate(predicate);
  if (id <= last_id_)
    throw std::invalid_argument(
        "SubscriptionIndex::insert: ids must be strictly increasing; got " +
        std::to_string(id) + " after " + std::to_string(last_id_));
  last_id_ = id;
  switch (slot_for(predicate)) {
    case Slot::kPrefix: {
      const int length = predicate.prefix->length();
      by_prefix_
          .try_emplace(prefix_key(length, predicate.prefix->network().value()))
          .first->push_back(id);
      ++prefix_count_[static_cast<std::size_t>(length)];
      prefix_lengths_ |= std::uint64_t{1} << length;
      break;
    }
    case Slot::kAsn:
      by_asn_.try_emplace(*predicate.asn).first->push_back(id);
      break;
    case Slot::kCountry:
      by_country_.try_emplace(pack_country(*predicate.country))
          .first->push_back(id);
      break;
    case Slot::kProto:
      by_proto_.try_emplace(*predicate.ip_proto).first->push_back(id);
      break;
    case Slot::kKind:
      by_kind_.try_emplace(static_cast<std::uint8_t>(*predicate.kind))
          .first->push_back(id);
      break;
    case Slot::kScan:
      scan_.push_back(id);
      break;
  }
  ++size_;
}

bool SubscriptionIndex::erase(SubscriptionId id, const Predicate& predicate) {
  bool erased = false;
  switch (slot_for(predicate)) {
    case Slot::kPrefix: {
      const int length = predicate.prefix->length();
      erased = erase_from(
          by_prefix_, prefix_key(length, predicate.prefix->network().value()),
          id);
      if (erased && --prefix_count_[static_cast<std::size_t>(length)] == 0)
        prefix_lengths_ &= ~(std::uint64_t{1} << length);
      break;
    }
    case Slot::kAsn:
      erased = erase_from(by_asn_, *predicate.asn, id);
      break;
    case Slot::kCountry:
      erased = erase_from(by_country_, pack_country(*predicate.country), id);
      break;
    case Slot::kProto:
      erased = erase_from(by_proto_, *predicate.ip_proto, id);
      break;
    case Slot::kKind:
      erased = erase_from(by_kind_,
                          static_cast<std::uint8_t>(*predicate.kind), id);
      break;
    case Slot::kScan: {
      const auto pos = std::lower_bound(scan_.begin(), scan_.end(), id);
      erased = pos != scan_.end() && *pos == id;
      if (erased) scan_.erase(pos);
      break;
    }
  }
  if (erased) --size_;
  return erased;
}

SubscriptionIndex::Runs SubscriptionIndex::collect(
    const core::Alert& alert) const {
  Runs runs;
  const auto add = [&runs](const Postings& list) {
    if (!list.empty())
      runs.runs[runs.count++] = {list.data(), list.data() + list.size()};
  };
  const auto probe = [&add](const PostingMap& map, std::uint64_t key) {
    if (const Postings* list = map.find(key)) add(*list);
  };
  if (alert.has_event) {
    const std::uint32_t target = alert.event.target.value();
    for (std::uint64_t lengths = prefix_lengths_; lengths != 0;
         lengths &= lengths - 1)
      probe(by_prefix_, prefix_key(std::countr_zero(lengths), target));
    probe(by_asn_, static_cast<std::uint32_t>(alert.asn));
    probe(by_country_, pack_country(alert.country));
    probe(by_proto_, alert.event.ip_proto);
  }
  probe(by_kind_, static_cast<std::uint8_t>(alert.kind));
  add(scan_);
  return runs;
}

}  // namespace dosm::subscribe
