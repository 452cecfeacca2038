// Counter groups (DESIGN.md §5l). A flat stats struct lists its counters
// once, as `static constexpr std::array<obs::Row<S>, N> kCounters`, and
// merge, delta and JSON rendering walk that table instead of spelling
// every counter out again. `static_assert(obs::covers_every_member<S>())`
// after the struct makes a missing, duplicated or extra row a build error.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string_view>

namespace ede::obs {

/// How merge folds a counter: tallies add up, high-water marks take the max.
enum class Fold : std::uint8_t { Sum, Max };

template <typename S>
struct Row {
  std::string_view key;  // the name reports print it under
  std::uint64_t S::*member = nullptr;
  Fold fold = Fold::Sum;
};

/// Every row names a distinct member under a distinct key, and the rows
/// account for every byte of S — so S has no counter without a row.
template <typename S>
[[nodiscard]] constexpr bool covers_every_member() {
  const auto& rows = S::kCounters;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].member == nullptr || rows[i].key.empty()) return false;
    for (std::size_t j = 0; j < i; ++j)
      if (rows[i].member == rows[j].member || rows[i].key == rows[j].key)
        return false;
  }
  return sizeof(S) == rows.size() * sizeof(std::uint64_t);
}

template <typename S>
void merge(S& into, const S& from) {
  for (const Row<S>& row : S::kCounters) {
    std::uint64_t& mine = into.*row.member;
    const std::uint64_t theirs = from.*row.member;
    mine = row.fold == Fold::Max ? std::max(mine, theirs) : mine + theirs;
  }
}

/// after - before, row by row. Only for groups of monotone tallies: a
/// high-water mark has no meaningful difference.
template <typename S>
[[nodiscard]] S delta(const S& after, const S& before) {
  static_assert(std::ranges::all_of(
                    S::kCounters,
                    [](const Row<S>& row) { return row.fold == Fold::Sum; }),
                "delta needs a group whose every row is a Sum");
  S out = after;
  for (const Row<S>& row : S::kCounters) out.*row.member -= before.*row.member;
  return out;
}

/// `{"key": value, ...}` in table order, on one line.
template <typename S>
void write_json(std::ostream& out, const S& stats) {
  out << '{';
  const char* separator = "";
  for (const Row<S>& row : S::kCounters) {
    out << separator << '"' << row.key << "\": " << stats.*row.member;
    separator = ", ";
  }
  out << '}';
}

}  // namespace ede::obs
