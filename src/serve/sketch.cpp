#include "serve/sketch.hpp"

#include <algorithm>
#include <array>

#include "crypto/rng.hpp"

namespace ede::serve {

namespace {

constexpr std::uint32_t kRows = 4;
/// Cells per row; a power of two, so a cell index is a mask away.
constexpr std::uint32_t kCols = 8'192;
static_assert((kCols & (kCols - 1)) == 0);
/// Serving ticks between halvings (the decay half-life, in waves).
constexpr std::uint32_t kDecayInterval = 64;

/// The kRows cell indexes of `name`. Name::hash() is case-insensitive FNV
/// over the wire bytes, taken once; one splitmix64 round per row turns it
/// into kRows independent indexes.
std::array<std::size_t, kRows> cells_of(const dns::Name& name) {
  const std::uint64_t base = static_cast<std::uint64_t>(name.hash());
  std::array<std::size_t, kRows> cells{};
  for (std::uint32_t row = 0; row < kRows; ++row) {
    const std::uint64_t mixed =
        crypto::SplitMix64(base ^ (0x9e3779b97f4a7c15ULL * (row + 1))).next();
    cells[row] = std::size_t{row} * kCols +
                 (static_cast<std::uint32_t>(mixed) & (kCols - 1));
  }
  return cells;
}

}  // namespace

PopularitySketch::PopularitySketch() {
  cells_.assign(std::size_t{kRows} * kCols, 0);
}

void PopularitySketch::observe(const dns::Name& name) {
  const auto cells = cells_of(name);
  std::uint32_t current = ~std::uint32_t{0};
  for (const std::size_t cell : cells)
    current = std::min(current, cells_[cell]);
  if (current == ~std::uint32_t{0}) return;  // saturated
  ++current;
  for (const std::size_t cell : cells) {
    auto& c = cells_[cell];
    c = std::max(c, current);  // conservative update
  }
}

std::uint32_t PopularitySketch::estimate(const dns::Name& name) const {
  std::uint32_t best = ~std::uint32_t{0};
  for (const std::size_t cell : cells_of(name))
    best = std::min(best, cells_[cell]);
  return best;
}

void PopularitySketch::tick() {
  if (++tick_count_ % kDecayInterval != 0) return;
  for (auto& c : cells_) c >>= 1;
}

}  // namespace ede::serve
