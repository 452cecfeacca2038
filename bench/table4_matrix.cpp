// E3 — regenerates the paper's Table 4: the 63×7 matrix of EDE codes each
// emulated resolver returns for the testbed subdomains, plus the paper's
// headline aggregates: cases consistent across all systems (expect 4/63,
// i.e. 94 % disagreement), number of distinct INFO-CODEs triggered
// (expect 12), and the per-system specificity ranking (Cloudflare first).
// The published matrix is embedded as ground truth and cell fidelity is
// reported at the end.
#include <algorithm>
#include <cstdio>
#include <set>

#include "resolver/resolver.hpp"
#include "testbed/expected.hpp"
#include "testbed/testbed.hpp"

namespace {

using ede::resolver::Outcome;

std::vector<std::uint16_t> sorted_codes(const Outcome& outcome) {
  std::vector<std::uint16_t> codes;
  for (const auto& error : outcome.errors)
    codes.push_back(static_cast<std::uint16_t>(error.code));
  std::sort(codes.begin(), codes.end());
  codes.erase(std::unique(codes.begin(), codes.end()), codes.end());
  return codes;
}

std::string render(const std::vector<std::uint16_t>& codes) {
  if (codes.empty()) return "None";
  std::string out;
  for (const auto code : codes) {
    if (!out.empty()) out += ',';
    out += std::to_string(code);
  }
  return out;
}

}  // namespace

int main() {
  auto clock = std::make_shared<ede::sim::Clock>();
  auto network = std::make_shared<ede::sim::Network>(clock);
  ede::testbed::Testbed testbed(network);

  const auto profiles = ede::resolver::all_profiles();
  std::vector<ede::resolver::RecursiveResolver> resolvers;
  resolvers.reserve(profiles.size());
  for (const auto& profile : profiles)
    resolvers.push_back(testbed.make_resolver(profile));

  std::printf("Table 4 — subdomains and extended error codes returned "
              "(emulated)\n\n");
  std::printf("%-26s", "subdomain");
  for (const auto& profile : profiles) {
    std::printf(" %-10s", profile.name.substr(0, 10).c_str());
  }
  std::printf("\n");

  const auto& expected = ede::testbed::expected_table4();
  int consistent = 0;
  int matched_cells = 0;
  int total_cells = 0;
  std::set<std::uint16_t> unique_codes;
  std::vector<int> specificity(profiles.size(), 0);

  const auto& cases = testbed.cases();
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const auto& spec = cases[i];
    const auto qname = testbed.query_name(spec);

    std::vector<std::vector<std::uint16_t>> rows;
    for (std::size_t p = 0; p < resolvers.size(); ++p) {
      const auto outcome = resolvers[p].resolve(qname, ede::dns::RRType::A);
      rows.push_back(sorted_codes(outcome));
      for (const auto code : rows.back()) unique_codes.insert(code);
      if (!rows.back().empty()) specificity[p] += 1;
    }

    std::printf("%-26s", spec.label.c_str());
    for (std::size_t p = 0; p < rows.size(); ++p) {
      const bool ok = expected[i].codes[p] == rows[p];
      matched_cells += ok ? 1 : 0;
      ++total_cells;
      std::printf(" %-10s", (render(rows[p]) + (ok ? "" : "*")).c_str());
    }
    std::printf("\n");

    const bool all_same = std::all_of(
        rows.begin(), rows.end(),
        [&](const std::vector<std::uint16_t>& r) { return r == rows[0]; });
    if (all_same) ++consistent;
  }

  std::printf("\n('*' marks a cell that differs from the paper's published "
              "Table 4)\n\n");
  std::printf("== Aggregates (paper in parentheses) ==\n");
  std::printf("consistent cases     : %d/63 (paper: 4/63)\n", consistent);
  std::printf("disagreement         : %.1f%% (paper: 94%%)\n",
              100.0 * (63 - consistent) / 63.0);
  std::printf("unique INFO-CODEs    : %zu (paper: 12)\n", unique_codes.size());
  std::printf("cell fidelity        : %d/%d (%.1f%%)\n", matched_cells,
              total_cells, 100.0 * matched_cells / total_cells);
  std::printf("\ncases with an EDE per system (specificity):\n");
  for (std::size_t p = 0; p < profiles.size(); ++p) {
    std::printf("  %-24s %d/63\n", profiles[p].name.c_str(), specificity[p]);
  }
  const auto most = std::distance(
      specificity.begin(),
      std::max_element(specificity.begin(), specificity.end()));
  std::printf("most specific system : %s (paper: Cloudflare DNS)\n",
              profiles[static_cast<std::size_t>(most)].name.c_str());
  return 0;
}
