// ede_lint rule engine: project-specific invariants checked over the token
// streams produced by lexer.hpp.
//
// Rule families (see DESIGN.md §5e, §5j):
//   D1 determinism  — no wall-clock / ambient randomness / address-based
//                     hashing inside src/; report emitters iterate
//                     unordered containers only through util::sorted_items.
//   W1 wire-safety  — raw byte copies and reinterpret_cast over network
//                     buffers live in dnscore/wire.{hpp,cpp} only, and
//                     Result-returning reads are never discarded.
//   E1 EDE registry — EDE INFO-CODEs are spelled as EdeCode enumerators,
//                     never integer literals, and the enum in
//                     src/edns/ede.hpp matches the RFC 8914 registry.
//   H1 hygiene      — include-what-you-spell for key project types, and no
//                     `using namespace` in headers.
//   C1 coroutine-safety — in a coroutine, reference/view parameters and
//                     by-reference lambdas must not be used after a
//                     suspension point; Task values must be awaited,
//                     stored, or handed to the scheduler (flow layer).
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "lexer.hpp"

namespace ede::lint {

struct Finding {
  std::string rule;     // "D1" | "W1" | "E1" | "H1" | "C1"
  std::string file;     // repo-relative path (virtual path for fixtures)
  int line = 0;
  std::string token;    // the offending identifier, for allow-list matching
  std::string message;

  /// Stable ordering for emission and baseline comparison.
  [[nodiscard]] bool operator<(const Finding& o) const {
    if (file != o.file) return file < o.file;
    if (line != o.line) return line < o.line;
    if (rule != o.rule) return rule < o.rule;
    return message < o.message;
  }
};

/// One analyzed translation unit. `rel` is the path rules see — the real
/// repo-relative path, or the virtual path a fixture declares via its
/// `// ede-lint-fixture: <path>` first line.
struct SourceFile {
  std::string rel;
  LexedFile lex;
  std::vector<std::string> project_includes;  // resolved to rel paths
  bool analyze = true;  // false: index-only (preloaded header)
};

/// Allow-list entry from ede_lint.conf: `allow <rule> <file> [token]`.
struct AllowEntry {
  std::string rule;
  std::string file;
  std::string token;  // empty = any finding of that rule in that file
};

struct Config {
  std::vector<AllowEntry> allow;
  std::vector<std::string> ignore_prefixes;

  [[nodiscard]] bool allows(const Finding& finding) const;
  [[nodiscard]] bool ignored(const std::string& rel) const;
};

/// Cross-file facts harvested in a first pass over every lexed file.
struct ProjectIndex {
  /// file rel -> identifiers bound to unordered containers there
  /// (variables, data members, and accessors returning references).
  std::map<std::string, std::set<std::string>> unordered_names;
  /// Function names declared as returning dns::Result<...>.
  std::set<std::string> result_functions;
  /// Function names declared as returning sim::Task<...> — the C1
  /// detached-task check treats a discarded call to one as a leak.
  std::set<std::string> task_functions;
  /// file rel -> resolved direct project includes.
  std::map<std::string, std::vector<std::string>> includes;

  /// Transitive closure of project includes, `rel` excluded.
  [[nodiscard]] std::set<std::string> reachable_includes(
      const std::string& rel) const;
};

[[nodiscard]] ProjectIndex build_index(const std::vector<SourceFile>& files);

/// Run every rule over the analyzable files. Findings are sorted and
/// deduplicated; the allow-list has already been applied. `jobs` > 1
/// fans the per-file passes out over a thread pool; the result is
/// byte-identical for every jobs value (per-file slots, global sort).
[[nodiscard]] std::vector<Finding> run_rules(
    const std::vector<SourceFile>& files, const ProjectIndex& index,
    const Config& config, unsigned jobs = 1);

}  // namespace ede::lint
