// FlatMap: the open-addressing hash map behind the subscribe layer's hot
// lookups (posting lists, per-tick coalescing buckets).
//
// Linear probing over a power-of-two slot array kept at most half full.
// Keys and values live inline in the slots, so a probe costs one cache line
// where std::unordered_map pays for its bucket array, a node and the value.
// erase() shifts the rest of the cluster back, so there are no tombstones
// and a miss stops at the first empty slot. clear() is O(1): every slot
// carries the generation it was written in, and clearing starts a new one.
// `Hash` must mix well into the low bits (they pick the home slot).
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace dosm::subscribe {

template <typename Key, typename Value, typename Hash>
class FlatMap {
 public:
  std::size_t size() const { return size_; }

  /// The value under `key`, or nullptr.
  Value* find(const Key& key) { return find_in(*this, key); }
  const Value* find(const Key& key) const { return find_in(*this, key); }

  /// The value under `key`, inserting `value` when absent; the flag says
  /// whether it was inserted.
  std::pair<Value*, bool> try_emplace(const Key& key, Value value = {}) {
    if ((size_ + 1) * 2 > slots_.size()) grow();
    std::size_t i = home(key);
    for (; live(slots_[i]); i = next(i))
      if (slots_[i].key == key) return {&slots_[i].value, false};
    slots_[i] = Slot{key, std::move(value), generation_};
    ++size_;
    return {&slots_[i].value, true};
  }

  /// Removes `key`; false if absent.
  bool erase(const Key& key) {
    if (size_ == 0) return false;
    std::size_t hole = home(key);
    for (;; hole = next(hole)) {
      if (!live(slots_[hole])) return false;
      if (slots_[hole].key == key) break;
    }
    // Backward shift: a later member of the cluster moves into the hole
    // unless its home lies cyclically in (hole, i], where it already sits
    // on its probe path.
    for (std::size_t i = next(hole); live(slots_[i]); i = next(i)) {
      const std::size_t distance_home = (i - home(slots_[i].key)) & mask();
      if (distance_home >= ((i - hole) & mask())) {
        slots_[hole] = std::move(slots_[i]);
        hole = i;
      }
    }
    slots_[hole] = Slot{};
    --size_;
    return true;
  }

  /// Empties the map, keeping the slot array. Stale values stay in their
  /// slots until overwritten.
  void clear() {
    size_ = 0;
    if (++generation_ == 0) {  // wrapped: no stale slot may read as live
      for (Slot& slot : slots_) slot.generation = 0;
      generation_ = 1;
    }
  }

 private:
  struct Slot {
    Key key{};
    Value value{};
    std::uint32_t generation = 0;  // live iff equal to generation_
  };

  template <typename Self>
  static auto find_in(Self& self, const Key& key)
      -> decltype(&self.slots_[0].value) {
    if (self.size_ == 0) return nullptr;
    for (std::size_t i = self.home(key);; i = self.next(i)) {
      auto& slot = self.slots_[i];
      if (!self.live(slot)) return nullptr;
      if (slot.key == key) return &slot.value;
    }
  }

  bool live(const Slot& slot) const { return slot.generation == generation_; }
  std::size_t mask() const { return slots_.size() - 1; }
  std::size_t home(const Key& key) const { return Hash{}(key) & mask(); }
  std::size_t next(std::size_t i) const { return (i + 1) & mask(); }

  void grow() {
    std::vector<Slot> old(slots_.empty() ? 16 : slots_.size() * 2);
    old.swap(slots_);
    const std::uint32_t old_generation = generation_;
    generation_ = 1;
    size_ = 0;
    for (Slot& slot : old)
      if (slot.generation == old_generation)
        try_emplace(slot.key, std::move(slot.value));
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  std::uint32_t generation_ = 1;
};

}  // namespace dosm::subscribe
