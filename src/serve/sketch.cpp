#include "serve/sketch.hpp"

#include <algorithm>

#include "crypto/rng.hpp"

namespace ede::serve {

namespace {

constexpr std::uint32_t kRows = 4;
/// Cells per row; a power of two, so a cell index is a mask away.
constexpr std::uint32_t kCols = 8'192;
static_assert((kCols & (kCols - 1)) == 0);

}  // namespace

PopularitySketch::PopularitySketch() : PopularitySketch(Options{}) {}

PopularitySketch::PopularitySketch(Options options) : options_(options) {
  options_.decay_interval =
      std::max<std::uint32_t>(1, options_.decay_interval);
  cells_.assign(std::size_t{kRows} * kCols, 0);
}

std::size_t PopularitySketch::cell(const dns::Name& name,
                                   std::uint32_t row) const {
  // Name::hash() is case-insensitive FNV over the wire bytes; one
  // splitmix64 round per row turns it into kRows independent indexes.
  const std::uint64_t base = static_cast<std::uint64_t>(name.hash());
  const std::uint64_t mixed =
      crypto::SplitMix64(base ^ (0x9e3779b97f4a7c15ULL * (row + 1))).next();
  return std::size_t{row} * kCols +
         (static_cast<std::uint32_t>(mixed) & (kCols - 1));
}

void PopularitySketch::observe(const dns::Name& name) {
  std::uint32_t current = estimate(name);
  if (current == ~std::uint32_t{0}) return;  // saturated
  ++current;
  for (std::uint32_t row = 0; row < kRows; ++row) {
    auto& c = cells_[cell(name, row)];
    c = std::max(c, current);  // conservative update
  }
}

std::uint32_t PopularitySketch::estimate(const dns::Name& name) const {
  std::uint32_t best = ~std::uint32_t{0};
  for (std::uint32_t row = 0; row < kRows; ++row) {
    best = std::min(best, cells_[cell(name, row)]);
  }
  return best;
}

void PopularitySketch::tick() {
  if (++tick_count_ % options_.decay_interval != 0) return;
  for (auto& c : cells_) c >>= 1;
}

}  // namespace ede::serve
