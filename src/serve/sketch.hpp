// Frequency-decayed popularity sketch driving the expiring-popular-name
// prefetcher (DESIGN.md §5h).
//
// A count-min sketch with conservative update, whose cells are halved
// every 64 serving ticks (the decay half-life, in waves): "popular"
// means popular *recently*, so a name that stops being queried stops
// being refreshed after a few decay periods instead of being prefetched
// forever. Fixed memory (rows × cols counters) regardless of how many
// distinct names the stub population queries, which is the point of a
// sketch at hundreds-of-thousands-of-clients scale.
#pragma once

#include <cstdint>
#include <vector>

#include "dnscore/name.hpp"

namespace ede::serve {

class PopularitySketch {
 public:
  PopularitySketch();

  /// Count one query for `name` (conservative update: only the minimal
  /// cells grow, which tightens over-estimates under hash collisions).
  void observe(const dns::Name& name);

  /// Upper-bound estimate of the (decayed) query count for `name`.
  [[nodiscard]] std::uint32_t estimate(const dns::Name& name) const;

  /// One serving tick; every 64th tick all cells halve.
  void tick();

 private:
  std::uint32_t tick_count_ = 0;
  std::vector<std::uint32_t> cells_;  // rows × cols, row-major
};

}  // namespace ede::serve
