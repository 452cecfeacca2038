#include "rules.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <iterator>
#include <thread>

#include "flow.hpp"
#include "token_util.hpp"

namespace ede::lint {

namespace {

using Tokens = std::vector<Token>;

bool starts_with(const std::string& s, const std::string& prefix) {
  return tok_starts_with(s, prefix);
}
bool ends_with(const std::string& s, const std::string& suffix) {
  return tok_ends_with(s, suffix);
}
bool is_keyword(const std::string& t) { return is_cpp_keyword(t); }

/// RFC 8914 + registered additions as of the paper's snapshot (Table 1):
/// the authoritative table the in-tree enum is checked against. Codes 0-24
/// are RFC 8914 itself; 25-29 were registered later.
struct RegistryRow {
  int value;
  const char* enumerator;
};
constexpr std::array<RegistryRow, 30> kEdeRegistry = {{
    {0, "Other"},
    {1, "UnsupportedDnskeyAlgorithm"},
    {2, "UnsupportedDsDigestType"},
    {3, "StaleAnswer"},
    {4, "ForgedAnswer"},
    {5, "DnssecIndeterminate"},
    {6, "DnssecBogus"},
    {7, "SignatureExpired"},
    {8, "SignatureNotYetValid"},
    {9, "DnskeyMissing"},
    {10, "RrsigsMissing"},
    {11, "NoZoneKeyBitSet"},
    {12, "NsecMissing"},
    {13, "CachedError"},
    {14, "NotReady"},
    {15, "Blocked"},
    {16, "Censored"},
    {17, "Filtered"},
    {18, "Prohibited"},
    {19, "StaleNxdomainAnswer"},
    {20, "NotAuthoritative"},
    {21, "NotSupported"},
    {22, "NoReachableAuthority"},
    {23, "NetworkError"},
    {24, "InvalidData"},
    {25, "SignatureExpiredBeforeValid"},
    {26, "TooEarly"},
    {27, "UnsupportedNsec3IterValue"},
    {28, "UnableToConformToPolicy"},
    {29, "Synthesized"},
}};

void emit(std::vector<Finding>& out, const Config& config, std::string rule,
          const std::string& file, int line, std::string token,
          std::string message) {
  Finding f{std::move(rule), file, line, std::move(token),
            std::move(message)};
  if (!config.allows(f)) out.push_back(std::move(f));
}

// --- D1: determinism ----------------------------------------------------

bool is_emitter_file(const std::string& rel) {
  if (rel == "tools/chaos_campaign.cpp") return true;
  if (!starts_with(rel, "src/")) return false;
  // The whole serving engine emits byte-stable reports (client answers,
  // per-wave stats, the qps benchmark's JSON), so every file there is
  // held to the sorted-emission contract, not just the report_* ones.
  if (starts_with(rel, "src/serve/")) return true;
  const std::size_t slash = rel.find_last_of('/');
  const std::string base = rel.substr(slash + 1);
  return base.find("report") != std::string::npos ||
         base.find("export") != std::string::npos;
}

void check_d1(const SourceFile& file, const ProjectIndex& index,
              const Config& config, std::vector<Finding>& out) {
  const Tokens& toks = file.lex.tokens;
  const bool in_src = starts_with(file.rel, "src/");

  if (in_src) {
    // Event-loop hygiene context: a file that spells coroutine_handle is
    // scheduler-adjacent, where address-based ordering is the classic
    // nondeterminism trap (see the (wake_ms, seq) contract in sched.hpp).
    bool spells_coroutine_handle = false;
    for (const Token& t : toks) {
      if (t.kind == Tok::Ident && t.text == "coroutine_handle") {
        spells_coroutine_handle = true;
        break;
      }
    }
    for (std::size_t i = 0; i < toks.size(); ++i) {
      const Token& t = toks[i];
      if (t.kind != Tok::Ident) continue;
      if (t.text == "this_thread") {
        // Any use: sleep_for/sleep_until/yield block the OS thread the
        // event loop multiplexes thousands of resolutions on, and none of
        // them advance the simulated clock.
        emit(out, config, "D1", file.rel, t.line, t.text,
             "'std::this_thread' in src/ — parking belongs on the event "
             "scheduler (sim::EventScheduler::sleep_ms), never the OS "
             "thread");
        continue;
      }
      if (t.text == "random_device" || t.text == "system_clock" ||
          t.text == "steady_clock" || t.text == "high_resolution_clock") {
        emit(out, config, "D1", file.rel, t.line, t.text,
             "nondeterministic source '" + t.text +
                 "' in src/ — use sim::Clock / seeded crypto::Xoshiro256 "
                 "(or whitelist this file in ede_lint.conf)");
        continue;
      }
      const bool called = i + 1 < toks.size() && is_punct(toks[i + 1], "(");
      if (called && (t.text == "sleep_for" || t.text == "sleep_until")) {
        emit(out, config, "D1", file.rel, t.line, t.text,
             "wall-clock '" + t.text +
                 "()' in src/ — co_await the event scheduler instead; OS "
                 "sleeps neither advance sim time nor yield the loop");
        continue;
      }
      // coroutine_handle<>::address() as an ordering/bookkeeping key: the
      // frame address changes run to run under ASLR, so any container or
      // comparison keyed on it replays differently. The scheduler's
      // (wake_ms, seq) pair is the sanctioned ordering.
      if (called && spells_coroutine_handle && t.text == "address" &&
          i >= 1 && is_punct(toks[i - 1], ".")) {
        emit(out, config, "D1", file.rel, t.line, t.text,
             "coroutine_handle::address() is ASLR-nondeterministic — key "
             "scheduler state by (wake_ms, registration seq), not the "
             "frame address");
        continue;
      }
      if (called && (t.text == "rand" || t.text == "srand" ||
                     t.text == "gettimeofday" || t.text == "localtime" ||
                     t.text == "gmtime")) {
        emit(out, config, "D1", file.rel, t.line, t.text,
             "nondeterministic call '" + t.text +
                 "()' in src/ — use sim::Clock / seeded crypto::Xoshiro256");
        continue;
      }
      if (called && t.text == "time") {
        const bool std_qualified =
            i >= 2 && is_punct(toks[i - 1], "::") && is_ident(toks[i - 2], "std");
        const Token& arg = toks[i + 2];
        const bool wallclock_arg =
            is_ident(arg, "nullptr") || is_ident(arg, "NULL") ||
            (arg.kind == Tok::Number && arg.text == "0");
        if (std_qualified || wallclock_arg) {
          emit(out, config, "D1", file.rel, t.line, t.text,
               "wall-clock 'time()' call in src/ — use sim::Clock");
        }
        continue;
      }
      // std::hash over a pointer type: hashes the address, which changes
      // run to run under ASLR and would leak into any emitted ordering.
      if (t.text == "hash" && i >= 2 && is_punct(toks[i - 1], "::") &&
          is_ident(toks[i - 2], "std") && i + 1 < toks.size() &&
          is_punct(toks[i + 1], "<")) {
        const std::size_t close = match_forward(toks, i + 1, "<", ">");
        for (std::size_t j = i + 2; j < close; ++j) {
          if (is_punct(toks[j], "*")) {
            emit(out, config, "D1", file.rel, t.line, "hash",
                 "std::hash over a pointer type hashes the address "
                 "(nondeterministic under ASLR)");
            break;
          }
        }
      }
    }
  }

  // Sorted-emission: report/CSV/JSON emitters may only iterate unordered
  // containers through util::sorted_items, so output ordering can never
  // depend on hash-table layout.
  if (!is_emitter_file(file.rel)) return;
  std::set<std::string> visible;
  const auto own = index.unordered_names.find(file.rel);
  if (own != index.unordered_names.end())
    visible.insert(own->second.begin(), own->second.end());
  for (const auto& inc : index.reachable_includes(file.rel)) {
    const auto it = index.unordered_names.find(inc);
    if (it != index.unordered_names.end())
      visible.insert(it->second.begin(), it->second.end());
  }
  if (visible.empty()) return;

  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!is_ident(toks[i], "for") || !is_punct(toks[i + 1], "(")) continue;
    const std::size_t close = match_forward(toks, i + 1, "(", ")");
    // Locate the range-for ':' at depth 1, after any init-statement ';'.
    std::size_t colon = 0;
    std::size_t depth = 0;
    std::size_t search_from = i + 1;
    for (std::size_t j = i + 1; j <= close; ++j) {
      if (is_punct(toks[j], "(") || is_punct(toks[j], "[")) ++depth;
      else if (is_punct(toks[j], ")") || is_punct(toks[j], "]")) --depth;
      else if (depth == 1 && is_punct(toks[j], ";")) search_from = j + 1;
    }
    depth = 0;
    for (std::size_t j = search_from; j <= close; ++j) {
      if (is_punct(toks[j], "(") || is_punct(toks[j], "[")) ++depth;
      else if (is_punct(toks[j], ")") || is_punct(toks[j], "]")) {
        if (j == close) break;
        --depth;
      } else if (depth == 1 && is_punct(toks[j], ":")) {
        colon = j;
        break;
      }
    }
    if (colon == 0) continue;  // classic for, no range expression

    bool wrapped = false;
    std::string base;
    int base_line = toks[colon].line;
    std::size_t expr_depth = 0;
    for (std::size_t j = colon + 1; j < close; ++j) {
      if (is_punct(toks[j], "(")) ++expr_depth;
      else if (is_punct(toks[j], ")")) --expr_depth;
      else if (toks[j].kind == Tok::Ident) {
        if (toks[j].text == "sorted_items" || toks[j].text == "sorted_keys") {
          wrapped = true;
          break;
        }
        if (expr_depth == 0) {
          base = toks[j].text;
          base_line = toks[j].line;
        }
      }
    }
    if (!wrapped && visible.count(base) != 0) {
      emit(out, config, "D1", file.rel, base_line, base,
           "emitter iterates unordered container '" + base +
               "' directly — wrap it in util::sorted_items() so emission "
               "order is independent of hash layout");
    }
  }
}

// --- W1: wire-safety ----------------------------------------------------

void check_w1(const SourceFile& file, const ProjectIndex& index,
              const Config& config, std::vector<Finding>& out) {
  const Tokens& toks = file.lex.tokens;
  const bool wire_zone = starts_with(file.rel, "src/dnscore/") ||
                         starts_with(file.rel, "src/resolver/");
  const bool is_wire = ends_with(file.rel, "/wire.hpp") ||
                       ends_with(file.rel, "/wire.cpp");

  if (wire_zone && !is_wire) {
    for (const Token& t : toks) {
      if (t.kind != Tok::Ident) continue;
      if (t.text == "memcpy" || t.text == "memmove" || t.text == "memchr") {
        emit(out, config, "W1", file.rel, t.line, t.text,
             "raw '" + t.text +
                 "' outside wire.{hpp,cpp} — network bytes go through the "
                 "bounds-checked WireReader/WireWriter paths");
      } else if (t.text == "reinterpret_cast") {
        emit(out, config, "W1", file.rel, t.line, t.text,
             "reinterpret_cast outside wire.{hpp,cpp} — type-pun network "
             "buffers only inside the bounds-checked wire layer");
      }
    }
  }

  // Discarded Result: an expression-statement that is exactly a call to a
  // Result-returning function throws the error path away.
  if (!starts_with(file.rel, "src/")) return;
  std::size_t start = 0;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    const bool boundary = t.kind == Tok::Punct &&
                          (t.text == ";" || t.text == "{" || t.text == "}");
    if (!boundary && t.kind != Tok::End) continue;
    if (t.kind == Tok::Punct && t.text == ";" && i > start) {
      // Statement tokens are [start, i). Match: ident-chain '(' ... ')' ';'
      std::size_t j = start;
      if (toks[j].kind == Tok::Ident && !is_keyword(toks[j].text)) {
        std::string callee = toks[j].text;
        int call_line = toks[j].line;
        ++j;
        while (j + 1 < i && toks[j].kind == Tok::Punct &&
               (toks[j].text == "." || toks[j].text == "->" ||
                toks[j].text == "::") &&
               toks[j + 1].kind == Tok::Ident) {
          callee = toks[j + 1].text;
          call_line = toks[j + 1].line;
          j += 2;
        }
        if (j < i && is_punct(toks[j], "(") &&
            match_forward(toks, j, "(", ")") == i - 1 &&
            index.result_functions.count(callee) != 0) {
          emit(out, config, "W1", file.rel, call_line, callee,
               "discarded Result from '" + callee +
                   "()' — check ok() or bind the value");
        }
      }
    }
    start = i + 1;
  }
}

// --- E1: EDE registry ---------------------------------------------------

void check_e1(const SourceFile& file, const Config& config,
              std::vector<Finding>& out) {
  const Tokens& toks = file.lex.tokens;

  for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != Tok::Ident) continue;

    if (t.text == "EdeCode" &&
        (is_punct(toks[i + 1], "(") || is_punct(toks[i + 1], "{")) &&
        toks[i + 2].kind == Tok::Number) {
      emit(out, config, "E1", file.rel, toks[i + 2].line, toks[i + 2].text,
           "EDE INFO-CODE from integer literal " + toks[i + 2].text +
               " — name the EdeCode enumerator instead");
    }
    if (t.text == "ExtendedError" && is_punct(toks[i + 1], "{") &&
        toks[i + 2].kind == Tok::Number) {
      emit(out, config, "E1", file.rel, toks[i + 2].line, toks[i + 2].text,
           "ExtendedError built from integer literal " + toks[i + 2].text +
               " — name the EdeCode enumerator instead");
    }
    if (t.text == "static_cast" && is_punct(toks[i + 1], "<")) {
      const std::size_t close = match_forward(toks, i + 1, "<", ">");
      bool to_ede = false;
      for (std::size_t j = i + 2; j < close; ++j)
        if (is_ident(toks[j], "EdeCode")) to_ede = true;
      if (to_ede && close + 2 < toks.size() &&
          is_punct(toks[close + 1], "(") &&
          toks[close + 2].kind == Tok::Number) {
        emit(out, config, "E1", file.rel, toks[close + 2].line,
             toks[close + 2].text,
             "static_cast<EdeCode>(" + toks[close + 2].text +
                 ") — name the EdeCode enumerator instead of a literal");
      }
    }
  }

  // Registry cross-check over the defining header itself.
  if (file.rel != "src/edns/ede.hpp") return;
  for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
    if (!(is_ident(toks[i], "enum") && is_ident(toks[i + 1], "class") &&
          is_ident(toks[i + 2], "EdeCode")))
      continue;
    const int enum_line = toks[i].line;
    std::size_t j = i + 3;
    while (j < toks.size() && !is_punct(toks[j], "{")) ++j;
    const std::size_t close = match_forward(toks, j, "{", "}");
    std::vector<std::pair<int, std::string>> seen;  // value -> enumerator
    int next_value = 0;
    for (std::size_t k = j + 1; k < close; ++k) {
      if (toks[k].kind != Tok::Ident) continue;
      const std::string name = toks[k].text;
      int value = next_value;
      if (k + 2 < close && is_punct(toks[k + 1], "=") &&
          toks[k + 2].kind == Tok::Number) {
        value = std::stoi(toks[k + 2].text);
        k += 2;
      }
      seen.emplace_back(value, name);
      next_value = value + 1;
      while (k < close && !is_punct(toks[k], ",")) ++k;
    }
    for (const RegistryRow& want : kEdeRegistry) {
      const auto it = std::find_if(
          seen.begin(), seen.end(),
          [&](const auto& s) { return s.first == want.value; });
      if (it == seen.end()) {
        emit(out, config, "E1", file.rel, enum_line, want.enumerator,
             std::string("EdeCode registry drift: code ") +
                 std::to_string(want.value) + " (" + want.enumerator +
                 ") missing from the enum");
      } else if (it->second != want.enumerator) {
        emit(out, config, "E1", file.rel, enum_line, it->second,
             std::string("EdeCode registry drift: code ") +
                 std::to_string(want.value) + " is '" + it->second +
                 "' but the IANA registry names it '" + want.enumerator +
                 "'");
      }
    }
    for (const auto& [value, name] : seen) {
      if (std::none_of(
              kEdeRegistry.begin(), kEdeRegistry.end(),
              [value = value](const RegistryRow& w) { return w.value == value; })) {
        emit(out, config, "E1", file.rel, enum_line, name,
             "EdeCode enumerator '" + name + "' = " + std::to_string(value) +
                 " is not in the IANA registry snapshot");
      }
    }
  }
}

// --- H1: hygiene --------------------------------------------------------

/// Identifiers specific enough that spelling one is proof the file depends
/// on its defining header — which must then be included directly, not
/// inherited through whatever another header happens to pull in.
const std::map<std::string, std::string>& spell_map() {
  static const std::map<std::string, std::string> kMap = {
      {"WireReader", "src/dnscore/wire.hpp"},
      {"WireWriter", "src/dnscore/wire.hpp"},
      {"MessageArena", "src/dnscore/arena.hpp"},
      {"ExtendedError", "src/edns/ede.hpp"},
      {"EdeCode", "src/edns/ede.hpp"},
      {"RecursiveResolver", "src/resolver/resolver.hpp"},
      {"InfraCache", "src/resolver/infra_cache.hpp"},
      {"RetryPolicy", "src/resolver/retry.hpp"},
      {"Xoshiro256", "src/crypto/rng.hpp"},
      {"ByzantineBehavior", "src/simnet/byzantine.hpp"},
      {"AuthServer", "src/server/auth_server.hpp"},
      {"ScanWorld", "src/scan/world.hpp"},
      {"sorted_items", "src/dnscore/sorted.hpp"},
  };
  return kMap;
}

void check_h1(const SourceFile& file, const Config& config,
              std::vector<Finding>& out) {
  const Tokens& toks = file.lex.tokens;
  const bool header = ends_with(file.rel, ".hpp") || ends_with(file.rel, ".h");

  if (header) {
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
      if (is_ident(toks[i], "using") && is_ident(toks[i + 1], "namespace")) {
        emit(out, config, "H1", file.rel, toks[i].line, "using-namespace",
             "'using namespace' in a header leaks into every includer");
      }
    }
  }

  // Include-what-you-spell over the curated map. One finding per
  // identifier per file (the first spelling).
  std::set<std::string> direct(file.project_includes.begin(),
                               file.project_includes.end());
  std::set<std::string> reported;
  for (const Token& t : toks) {
    if (t.kind != Tok::Ident) continue;
    const auto it = spell_map().find(t.text);
    if (it == spell_map().end()) continue;
    const std::string& owner = it->second;
    if (file.rel == owner) continue;
    // The header's own implementation file includes it by construction.
    if (ends_with(file.rel, ".cpp") &&
        file.rel.substr(0, file.rel.size() - 4) ==
            owner.substr(0, owner.size() - 4))
      continue;
    if (direct.count(owner) != 0) continue;
    if (!reported.insert(t.text).second) continue;
    emit(out, config, "H1", file.rel, t.line, t.text,
         "spells '" + t.text + "' but does not directly include " + owner);
  }
}

// --- C1: coroutine-safety (flow layer, DESIGN.md §5j) -------------------

/// A plain (non-member-access, non-qualified) use of identifier `nm` at
/// token `u`. `x.nm`, `x->nm`, and `X::nm` name someone else's member.
bool is_plain_use(const Tokens& toks, std::size_t u, const std::string& nm) {
  if (toks[u].kind != Tok::Ident || toks[u].text != nm) return false;
  if (u >= 1 && (is_punct(toks[u - 1], ".") || is_punct(toks[u - 1], "::")))
    return false;
  if (u >= 2 && is_punct(toks[u - 1], ">") && is_punct(toks[u - 2], "-"))
    return false;
  return true;
}

/// Loop extents [keyword, closer] inside `fn` that contain a suspension
/// point. A use inside such a loop runs again after the co_await even when
/// it is textually before it — the whole loop body is post-suspension.
std::vector<std::pair<std::size_t, std::size_t>> suspension_loops(
    const Tokens& toks, const FunctionDef& fn) {
  std::vector<std::pair<std::size_t, std::size_t>> loops;
  for (std::size_t j = fn.body_begin + 1; j < fn.body_end; ++j) {
    if (toks[j].kind != Tok::Ident) continue;
    std::size_t lo = j, hi = 0;
    if ((toks[j].text == "for" || toks[j].text == "while") &&
        j + 1 < fn.body_end && is_punct(toks[j + 1], "(")) {
      const std::size_t cp = match_forward(toks, j + 1, "(", ")");
      std::size_t b = cp + 1;
      if (b < fn.body_end && is_punct(toks[b], "{")) {
        hi = match_forward(toks, b, "{", "}");
      } else {  // single-statement body: runs to the next top-level ';'
        while (b < fn.body_end && !is_punct(toks[b], ";")) {
          if (is_punct(toks[b], "(")) b = match_forward(toks, b, "(", ")");
          else if (is_punct(toks[b], "{")) b = match_forward(toks, b, "{", "}");
          ++b;
        }
        hi = b;
      }
    } else if (toks[j].text == "do" && j + 1 < fn.body_end &&
               is_punct(toks[j + 1], "{")) {
      hi = match_forward(toks, j + 1, "{", "}");
    }
    if (hi == 0) continue;
    for (const std::size_t s : fn.suspends) {
      if (s > lo && s < hi) {
        loops.emplace_back(lo, hi);
        break;
      }
    }
  }
  return loops;
}

/// Detached/leaked Task checks, run over every function body in src/:
/// (a) an expression-statement that is exactly `task_fn(...)` drops the
/// returned Task — the coroutine frame leaks without ever running;
/// (b) a Task-typed local that is never referenced again does the same.
void check_task_leaks(const SourceFile& file, const FunctionDef& fn,
                      const ProjectIndex& index, const Config& config,
                      std::vector<Finding>& out) {
  const Tokens& toks = file.lex.tokens;

  std::size_t start = fn.body_begin + 1;
  for (std::size_t i = fn.body_begin + 1; i <= fn.body_end; ++i) {
    const Token& t = toks[i];
    const bool boundary = t.kind == Tok::Punct &&
                          (t.text == ";" || t.text == "{" || t.text == "}");
    if (!boundary && t.kind != Tok::End) continue;
    if (t.kind == Tok::Punct && t.text == ";" && i > start) {
      std::size_t j = start;
      if (toks[j].kind == Tok::Ident && !is_keyword(toks[j].text)) {
        std::string callee = toks[j].text;
        int call_line = toks[j].line;
        ++j;
        while (j + 1 < i && toks[j].kind == Tok::Punct) {
          if ((toks[j].text == "." || toks[j].text == "::") &&
              toks[j + 1].kind == Tok::Ident) {
            callee = toks[j + 1].text;
            call_line = toks[j + 1].line;
            j += 2;
          } else if (toks[j].text == "-" && j + 2 < i &&
                     is_punct(toks[j + 1], ">") &&
                     toks[j + 2].kind == Tok::Ident) {
            callee = toks[j + 2].text;
            call_line = toks[j + 2].line;
            j += 3;
          } else {
            break;
          }
        }
        if (j < i && is_punct(toks[j], "(") &&
            match_forward(toks, j, "(", ")") == i - 1 &&
            index.task_functions.count(callee) != 0) {
          emit(out, config, "C1", file.rel, call_line, callee,
               "detached task: the sim::Task returned by '" + callee +
                   "()' is dropped — co_await it, store it, or start it on "
                   "the scheduler");
        }
      }
    }
    start = i + 1;
  }

  // (b) Task<T> local (or `auto x = task_fn(...)`) never referenced again.
  for (std::size_t i = fn.body_begin + 1; i + 1 < fn.body_end; ++i) {
    std::string local;
    int line = 0;
    std::size_t decl_end = 0;  // index of the declaration's ';'
    if (is_ident(toks[i], "Task") && is_punct(toks[i + 1], "<")) {
      std::size_t j = match_forward(toks, i + 1, "<", ">") + 1;
      if (j + 1 < fn.body_end && toks[j].kind == Tok::Ident &&
          !is_keyword(toks[j].text) &&
          (is_punct(toks[j + 1], "=") || is_punct(toks[j + 1], ";") ||
           is_punct(toks[j + 1], "{"))) {
        local = toks[j].text;
        line = toks[j].line;
        decl_end = j + 1;
      }
    } else if (is_ident(toks[i], "auto") && i + 2 < fn.body_end &&
               toks[i + 1].kind == Tok::Ident &&
               !is_keyword(toks[i + 1].text) && is_punct(toks[i + 2], "=") &&
               toks[i + 3].kind == Tok::Ident &&
               index.task_functions.count(toks[i + 3].text) != 0 &&
               i + 4 < fn.body_end && is_punct(toks[i + 4], "(")) {
      local = toks[i + 1].text;
      line = toks[i + 1].line;
      decl_end = i + 4;
    }
    if (local.empty()) continue;
    while (decl_end < fn.body_end && !is_punct(toks[decl_end], ";")) {
      if (is_punct(toks[decl_end], "(")) decl_end = match_forward(toks, decl_end, "(", ")");
      else if (is_punct(toks[decl_end], "{")) decl_end = match_forward(toks, decl_end, "{", "}");
      ++decl_end;
    }
    bool used = false;
    for (std::size_t u = decl_end + 1; u < fn.body_end && !used; ++u)
      used = is_plain_use(toks, u, local);
    if (!used) {
      emit(out, config, "C1", file.rel, line, local,
           "Task local '" + local +
               "' is never awaited, started, or stored — the coroutine "
               "frame leaks without running");
    }
  }
}

void check_c1(const SourceFile& file, const std::vector<FunctionDef>& fns,
              const ProjectIndex& index, const Config& config,
              std::vector<Finding>& out) {
  if (!starts_with(file.rel, "src/")) return;
  const Tokens& toks = file.lex.tokens;
  for (const FunctionDef& fn : fns) {
    check_task_leaks(file, fn, index, config, out);
    if (!fn.is_coroutine || fn.suspends.empty()) continue;

    // The post-suspension region: everything after the end of the
    // statement holding the first co_await (its operands evaluate before
    // the suspension), plus every loop extent containing a suspension.
    std::size_t stmt_end = fn.suspends.front();
    while (stmt_end < fn.body_end && !is_punct(toks[stmt_end], ";")) {
      if (is_punct(toks[stmt_end], "(")) stmt_end = match_forward(toks, stmt_end, "(", ")");
      else if (is_punct(toks[stmt_end], "{")) stmt_end = match_forward(toks, stmt_end, "{", "}");
      else if (is_punct(toks[stmt_end], "[")) stmt_end = match_forward(toks, stmt_end, "[", "]");
      ++stmt_end;
    }
    const auto loops = suspension_loops(toks, fn);
    const auto after_suspension = [&](std::size_t u) {
      if (u > stmt_end) return true;
      for (const auto& [lo, hi] : loops)
        if (u > lo && u < hi) return true;
      return false;
    };

    for (const ParamDecl& p : fn.params) {
      if (p.name.empty() || !(p.by_ref || p.is_view)) continue;
      for (std::size_t u = fn.body_begin + 1; u < fn.body_end; ++u) {
        if (!is_plain_use(toks, u, p.name) || !after_suspension(u)) continue;
        emit(out, config, "C1", file.rel, p.line, p.name,
             "coroutine '" + fn.name + "' uses " +
                 (p.by_ref ? "reference" : "view") + " parameter '" + p.name +
                 "' after a suspension point (line " +
                 std::to_string(toks[u].line) +
                 ") — the caller's frame may be gone by then; take it by "
                 "value, or allowlist the structured-concurrency call path");
        break;
      }
    }
    for (const LambdaDef& lam : fn.lambdas) {
      if (!lam.ref_capture || lam.name.empty()) continue;
      for (std::size_t u = lam.body_end + 1; u < fn.body_end; ++u) {
        if (!is_plain_use(toks, u, lam.name) || !after_suspension(u))
          continue;
        emit(out, config, "C1", file.rel, lam.line, lam.name,
             "by-reference lambda '" + lam.name +
                 "' is invoked after a suspension point (line " +
                 std::to_string(toks[u].line) +
                 ") — its captures may dangle across the co_await; "
                 "capture by value or allowlist with justification");
        break;
      }
    }
  }
}

}  // namespace

bool Config::allows(const Finding& finding) const {
  for (const AllowEntry& entry : allow) {
    if (entry.rule != finding.rule) continue;
    if (entry.file != finding.file) continue;
    if (!entry.token.empty() && entry.token != finding.token) continue;
    return true;
  }
  return false;
}

bool Config::ignored(const std::string& rel) const {
  for (const std::string& prefix : ignore_prefixes)
    if (starts_with(rel, prefix)) return true;
  return false;
}

std::set<std::string> ProjectIndex::reachable_includes(
    const std::string& rel) const {
  std::set<std::string> seen;
  std::vector<std::string> frontier{rel};
  while (!frontier.empty()) {
    const std::string current = std::move(frontier.back());
    frontier.pop_back();
    const auto it = includes.find(current);
    if (it == includes.end()) continue;
    for (const std::string& next : it->second)
      if (next != rel && seen.insert(next).second) frontier.push_back(next);
  }
  return seen;
}

ProjectIndex build_index(const std::vector<SourceFile>& files) {
  ProjectIndex index;
  for (const SourceFile& file : files) {
    index.includes[file.rel] = file.project_includes;
    const Tokens& toks = file.lex.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      const Token& t = toks[i];
      if (t.kind != Tok::Ident) continue;

      // unordered_map<...> name;   /   unordered_map<...>& name(...)
      if (t.text == "unordered_map" || t.text == "unordered_set" ||
          t.text == "unordered_multimap" || t.text == "unordered_multiset") {
        std::size_t j = i + 1;
        if (j < toks.size() && is_punct(toks[j], "<")) {
          j = match_forward(toks, j, "<", ">") + 1;
          while (j < toks.size() &&
                 (is_punct(toks[j], "&") || is_punct(toks[j], "*") ||
                  is_ident(toks[j], "const")))
            ++j;
          if (j < toks.size() && toks[j].kind == Tok::Ident)
            index.unordered_names[file.rel].insert(toks[j].text);
        }
        continue;
      }

      // Result<...> name(   — a function declared to return dns::Result.
      // Task<...> name(     — a coroutine declared to return sim::Task.
      if ((t.text == "Result" || t.text == "Task") && i + 1 < toks.size() &&
          is_punct(toks[i + 1], "<")) {
        std::size_t j = match_forward(toks, i + 1, "<", ">") + 1;
        while (j < toks.size() &&
               (is_punct(toks[j], "&") || is_punct(toks[j], "*")))
          ++j;
        // Out-of-line definitions qualify the name: Task<T> Class::name(.
        while (j + 2 < toks.size() && toks[j].kind == Tok::Ident &&
               is_punct(toks[j + 1], "::") && toks[j + 2].kind == Tok::Ident)
          j += 2;
        if (j + 1 < toks.size() && toks[j].kind == Tok::Ident &&
            !is_keyword(toks[j].text) && is_punct(toks[j + 1], "(")) {
          if (t.text == "Result")
            index.result_functions.insert(toks[j].text);
          else
            index.task_functions.insert(toks[j].text);
        }
      }
    }
  }
  return index;
}

std::vector<Finding> run_rules(const std::vector<SourceFile>& files,
                               const ProjectIndex& index,
                               const Config& config, unsigned jobs) {
  const std::size_t n = files.size();
  std::vector<std::vector<Finding>> slots(n);

  // Per-file pass: every rule family. Findings land in the file's own
  // slot, so the final order (global sort below) is identical for every
  // jobs value.
  const auto work_one = [&](std::size_t i) {
    const SourceFile& file = files[i];
    if (!file.analyze || config.ignored(file.rel)) return;
    std::vector<Finding>& out = slots[i];
    check_d1(file, index, config, out);
    check_w1(file, index, config, out);
    check_e1(file, config, out);
    check_h1(file, config, out);
    check_c1(file, extract_functions(file), index, config, out);
  };

  if (jobs <= 1 || n < 2) {
    for (std::size_t i = 0; i < n; ++i) work_one(i);
  } else {
    std::atomic<std::size_t> next{0};
    const auto worker = [&] {
      for (std::size_t i; (i = next.fetch_add(1)) < n;) work_one(i);
    };
    std::vector<std::thread> pool;
    const std::size_t width = std::min<std::size_t>(jobs, n);
    pool.reserve(width);
    for (std::size_t t = 0; t < width; ++t) pool.emplace_back(worker);
    for (std::thread& th : pool) th.join();
  }

  std::vector<Finding> findings;
  for (std::vector<Finding>& slot : slots)
    findings.insert(findings.end(), std::make_move_iterator(slot.begin()),
                    std::make_move_iterator(slot.end()));
  std::sort(findings.begin(), findings.end());
  findings.erase(std::unique(findings.begin(), findings.end(),
                             [](const Finding& a, const Finding& b) {
                               return a.file == b.file && a.line == b.line &&
                                      a.rule == b.rule &&
                                      a.message == b.message;
                             }),
                 findings.end());
  return findings;
}

}  // namespace ede::lint
