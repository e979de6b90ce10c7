// Victim-hash sharding for the telescope detector.
//
// Telescope detector state (a FlowTable flow) is keyed by the victim
// address, so partitioning victims across shards partitions the detector
// state with no cross-shard interaction. The shard function is a fixed
// avalanche mix (not std::hash, whose value is implementation-defined) so
// shard assignment is identical on every platform and in every run.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/sanitize.h"
#include "net/ipv4.h"

namespace dosm::parallel {

/// 32-bit avalanche mix (the splitmix64 finalizer truncated to 32 bits).
/// Consecutive victim addresses land in unrelated shards, so a /24 under
/// attack does not serialize onto one worker.
DOSM_ALLOW_UNSIGNED_WRAP constexpr std::uint32_t mix32(std::uint32_t v) {
  v ^= v >> 16;
  v *= 0x7feb352dU;
  v ^= v >> 15;
  v *= 0x846ca68bU;
  v ^= v >> 16;
  return v;
}

/// The shard owning `victim` when the victim space is split `num_shards`
/// ways. `num_shards` must be >= 1.
inline std::size_t shard_of(net::Ipv4Addr victim, std::size_t num_shards) {
  return static_cast<std::size_t>(mix32(victim.value())) % num_shards;
}

}  // namespace dosm::parallel
