#include "lint.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <ostream>
#include <set>
#include <sstream>
#include <thread>

namespace ede::lint {

namespace fs = std::filesystem;

namespace {

bool lintable_extension(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".cc" || ext == ".h";
}

std::string slashes(std::string s) {
  std::replace(s.begin(), s.end(), '\\', '/');
  return s;
}

/// Repo-relative path with '/' separators; falls back to the lexically
/// normalized input when the file lies outside the repo root.
std::string rel_to_root(const fs::path& path, const fs::path& root) {
  std::error_code ec;
  const fs::path abs = fs::weakly_canonical(path, ec);
  const fs::path abs_root = fs::weakly_canonical(root, ec);
  const fs::path rel = abs.lexically_relative(abs_root);
  if (rel.empty() || *rel.begin() == "..")
    return slashes(path.lexically_normal().generic_string());
  return slashes(rel.generic_string());
}

bool read_file(const fs::path& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  out = buf.str();
  return true;
}

/// Fixture identity override: `// ede-lint-fixture: <virtual path>` on the
/// first line makes the rules treat the file as living at that path.
std::string fixture_virtual_path(const std::string& source) {
  static const std::string kMarker = "ede-lint-fixture:";
  const std::size_t eol = source.find('\n');
  const std::string first = source.substr(0, eol);
  const std::size_t at = first.find(kMarker);
  if (at == std::string::npos) return {};
  std::string path = first.substr(at + kMarker.size());
  const std::size_t begin = path.find_first_not_of(" \t");
  if (begin == std::string::npos) return {};
  const std::size_t end = path.find_last_not_of(" \t\r");
  return path.substr(begin, end - begin + 1);
}

/// Resolve one quoted include to the rel path of an analyzed file. The
/// project convention is includes relative to src/ (see
/// target_include_directories in src/CMakeLists.txt); same-directory
/// includes (the lint's own sources) and repo-relative spellings are also
/// accepted. Unresolvable includes map to the src/ convention so fixture
/// files can reference virtual headers.
std::string resolve_include(const std::string& file_rel,
                            const std::string& spelled,
                            const std::set<std::string>& known) {
  const std::string inc = slashes(spelled);
  std::vector<std::string> candidates;
  candidates.push_back("src/" + inc);
  candidates.push_back(inc);
  const std::size_t slash = file_rel.find_last_of('/');
  if (slash != std::string::npos)
    candidates.push_back(file_rel.substr(0, slash + 1) + inc);
  for (const std::string& c : candidates) {
    const std::string norm =
        slashes(fs::path(c).lexically_normal().generic_string());
    if (known.count(norm) != 0) return norm;
  }
  return slashes(fs::path("src/" + inc).lexically_normal().generic_string());
}

struct RawFile {
  std::string rel;      // real repo-relative path
  std::string virt;     // virtual path rules see (== rel outside fixtures)
  std::string source;
  bool analyze = true;
};

/// Load every lintable file under the inputs (sorted, deduplicated by
/// repo-relative path) plus index-only project sources under src/.
bool collect_files(const Options& options, const Config& config,
                   std::vector<RawFile>& out, std::string& error) {
  const fs::path root = options.repo_root;
  std::map<std::string, RawFile> by_rel;

  const auto add = [&](const fs::path& path, bool analyze) -> bool {
    const std::string rel = rel_to_root(path, root);
    if (config.ignored(rel)) return true;
    auto it = by_rel.find(rel);
    if (it != by_rel.end()) {
      it->second.analyze = it->second.analyze || analyze;
      return true;
    }
    RawFile raw;
    raw.rel = rel;
    raw.analyze = analyze;
    if (!read_file(path, raw.source)) {
      error = "cannot read " + path.string();
      return false;
    }
    const std::string virt = fixture_virtual_path(raw.source);
    raw.virt = virt.empty() ? rel : slashes(virt);
    by_rel.emplace(rel, std::move(raw));
    return true;
  };

  const auto add_tree = [&](const fs::path& dir, bool analyze) -> bool {
    std::error_code ec;
    for (fs::recursive_directory_iterator it(dir, ec), end; it != end;
         it.increment(ec)) {
      if (ec) break;
      if (it->is_regular_file() && lintable_extension(it->path()))
        if (!add(it->path(), analyze)) return false;
    }
    return true;
  };

  for (const std::string& input : options.inputs) {
    const fs::path path = input;
    std::error_code ec;
    if (fs::is_directory(path, ec)) {
      if (!add_tree(path, /*analyze=*/true)) return false;
    } else if (fs::is_regular_file(path, ec)) {
      if (!add(path, /*analyze=*/true)) return false;
    } else {
      error = "no such file or directory: " + input;
      return false;
    }
  }

  // Preload the rest of src/, bench/, and tools/ so the cross-file
  // indices (unordered container names, Result/Task-returning functions,
  // include graph) are complete even for a partial lint.
  for (const char* dir : {"src", "bench", "tools"}) {
    std::error_code ec;
    if (fs::is_directory(root / dir, ec))
      if (!add_tree(root / dir, /*analyze=*/false)) return false;
  }

  for (auto& [rel, raw] : by_rel) out.push_back(std::move(raw));
  return true;
}

std::vector<SourceFile> lex_all(const std::vector<RawFile>& raw_files,
                                unsigned jobs) {
  std::set<std::string> known;
  for (const RawFile& raw : raw_files) known.insert(raw.virt);

  const std::size_t n = raw_files.size();
  std::vector<SourceFile> files(n);
  const auto lex_one = [&](std::size_t i) {
    const RawFile& raw = raw_files[i];
    SourceFile& file = files[i];
    file.rel = raw.virt;
    file.analyze = raw.analyze;
    file.lex = lex(raw.source);
    for (const Include& inc : file.lex.includes) {
      if (inc.angled) continue;  // system headers carry no project types
      file.project_includes.push_back(
          resolve_include(file.rel, inc.path, known));
    }
  };
  if (jobs <= 1 || n < 2) {
    for (std::size_t i = 0; i < n; ++i) lex_one(i);
  } else {
    std::atomic<std::size_t> next{0};
    const auto worker = [&] {
      for (std::size_t i; (i = next.fetch_add(1)) < n;) lex_one(i);
    };
    std::vector<std::thread> pool;
    const std::size_t width = std::min<std::size_t>(jobs, n);
    pool.reserve(width);
    for (std::size_t t = 0; t < width; ++t) pool.emplace_back(worker);
    for (std::thread& th : pool) th.join();
  }
  return files;
}

/// Effective worker count: an explicit --jobs wins; 0 means "ask the
/// hardware", clamped to at least 1 so the serial path stays reachable.
unsigned effective_jobs(unsigned requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

std::string json_escape(const std::string& in) {
  std::string out;
  out.reserve(in.size() + 8);
  for (const char c : in) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

void print_finding_json(const Finding& f, bool fresh, std::ostream& out) {
  out << "    {\"rule\": \"" << json_escape(f.rule) << "\", \"file\": \""
      << json_escape(f.file) << "\", \"line\": " << f.line
      << ", \"token\": \"" << json_escape(f.token) << "\", \"new\": "
      << (fresh ? "true" : "false") << ", \"message\": \""
      << json_escape(f.message) << "\"}";
}

/// Baseline key: line numbers drift when unrelated code moves, so carried
/// debt is matched on (rule, file, message) only.
std::string baseline_key(const Finding& f) {
  return f.rule + "\t" + f.file + "\t" + f.message;
}

std::set<std::string> load_baseline(const std::string& path,
                                    std::string& error) {
  std::set<std::string> keys;
  if (path.empty()) return keys;
  std::string text;
  if (!read_file(path, text)) {
    error = "cannot read baseline " + path;
    return keys;
  }
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#') continue;
    keys.insert(line);
  }
  return keys;
}

}  // namespace

Config parse_config(const std::string& text, std::string& error) {
  Config config;
  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream fields(line);
    std::string verb;
    if (!(fields >> verb)) continue;
    if (verb == "allow") {
      AllowEntry entry;
      fields >> entry.rule >> entry.file >> entry.token;
      if (entry.rule.empty() || entry.file.empty()) {
        error = "config line " + std::to_string(line_no) +
                ": 'allow' needs <rule> <file> [token]";
        return {};
      }
      config.allow.push_back(std::move(entry));
    } else if (verb == "ignore") {
      std::string prefix;
      if (!(fields >> prefix)) {
        error = "config line " + std::to_string(line_no) +
                ": 'ignore' needs a path prefix";
        return {};
      }
      config.ignore_prefixes.push_back(std::move(prefix));
    } else {
      // A typo'd verb would silently drop allow entries; that is a parse
      // error (exit 2), not a clean run.
      error = "config line " + std::to_string(line_no) +
              ": unknown verb '" + verb + "'";
      return {};
    }
  }
  return config;
}

Config load_config(const std::string& path, std::string& error) {
  std::string text;
  if (!read_file(path, text)) {
    error = "cannot read config " + path;
    return {};
  }
  Config config = parse_config(text, error);
  if (!error.empty()) error = path + ": " + error;
  return config;
}

LintResult run_lint(const Options& options, std::string& error) {
  Config config;
  std::string config_path = options.config_path;
  if (config_path.empty()) {
    const fs::path fallback =
        fs::path(options.repo_root) / "tools" / "ede_lint.conf";
    std::error_code ec;
    if (fs::is_regular_file(fallback, ec)) config_path = fallback.string();
  }
  if (!config_path.empty()) {
    config = load_config(config_path, error);
    if (!error.empty()) return {};
  }

  const unsigned jobs = effective_jobs(options.jobs);
  std::vector<RawFile> raw;
  if (!collect_files(options, config, raw, error)) return {};
  const std::vector<SourceFile> files = lex_all(raw, jobs);
  const ProjectIndex index = build_index(files);
  std::vector<Finding> findings = run_rules(files, index, config, jobs);

  std::string baseline_path = options.baseline_path;
  if (baseline_path.empty()) {
    const fs::path fallback =
        fs::path(options.repo_root) / "tools" / "ede_lint.baseline";
    std::error_code ec;
    if (fs::is_regular_file(fallback, ec)) baseline_path = fallback.string();
  }
  const std::set<std::string> baseline = load_baseline(baseline_path, error);
  if (!error.empty()) return {};

  LintResult result;
  for (Finding& f : findings) {
    if (baseline.count(baseline_key(f)) != 0)
      result.baselined.push_back(std::move(f));
    else
      result.fresh.push_back(std::move(f));
  }
  return result;
}

void print_text(const LintResult& result, std::ostream& out) {
  for (const Finding& f : result.fresh)
    out << f.file << ":" << f.line << ": [" << f.rule << "] " << f.message
        << "\n";
  for (const Finding& f : result.baselined)
    out << f.file << ":" << f.line << ": [" << f.rule << "] (baselined) "
        << f.message << "\n";
  out << "ede_lint: " << result.fresh.size() << " new finding(s), "
      << result.baselined.size() << " baselined\n";
}

void print_json(const LintResult& result, std::ostream& out) {
  // Per-family counts: every known family is always present (byte-stable
  // shape), families a fixture invents are merged in sorted order.
  std::map<std::string, std::pair<std::size_t, std::size_t>> families{
      {"C1", {0, 0}}, {"D1", {0, 0}}, {"E1", {0, 0}},
      {"H1", {0, 0}}, {"W1", {0, 0}}};
  for (const Finding& f : result.fresh) ++families[f.rule].first;
  for (const Finding& f : result.baselined) ++families[f.rule].second;

  out << "{\n  \"new_findings\": " << result.fresh.size()
      << ",\n  \"baselined_findings\": " << result.baselined.size()
      << ",\n  \"families\": {";
  bool first_family = true;
  for (const auto& [rule, counts] : families) {
    if (!first_family) out << ", ";
    first_family = false;
    out << "\"" << json_escape(rule) << "\": {\"new\": " << counts.first
        << ", \"baselined\": " << counts.second << "}";
  }
  out << "},\n  \"findings\": [\n";
  bool first = true;
  for (const Finding& f : result.fresh) {
    if (!first) out << ",\n";
    first = false;
    print_finding_json(f, /*fresh=*/true, out);
  }
  for (const Finding& f : result.baselined) {
    if (!first) out << ",\n";
    first = false;
    print_finding_json(f, /*fresh=*/false, out);
  }
  out << (first ? "" : "\n") << "  ]\n}\n";
}

std::string to_baseline(const std::vector<Finding>& findings) {
  std::vector<std::string> keys;
  keys.reserve(findings.size());
  for (const Finding& f : findings) keys.push_back(baseline_key(f));
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  std::string out =
      "# ede_lint baseline: carried findings (rule<TAB>file<TAB>message).\n"
      "# Regenerate with: ede_lint --write-baseline <path> <inputs...>\n";
  for (const std::string& key : keys) {
    out += key;
    out += '\n';
  }
  return out;
}

int run_self_test(const std::string& fixtures_dir, std::ostream& out) {
  std::vector<fs::path> paths;
  std::error_code ec;
  for (fs::directory_iterator it(fixtures_dir, ec), end; it != end;
       it.increment(ec)) {
    if (ec) break;
    if (it->is_regular_file() && lintable_extension(it->path()))
      paths.push_back(it->path());
  }
  std::sort(paths.begin(), paths.end());
  if (paths.empty()) {
    out << "ede_lint --self-test: no fixtures under " << fixtures_dir << "\n";
    return 2;
  }

  // Analyze all fixtures as one project so cross-fixture includes work.
  std::vector<RawFile> raw;
  for (const fs::path& path : paths) {
    RawFile r;
    r.rel = slashes(path.filename().generic_string());
    if (!read_file(path, r.source)) {
      out << "cannot read fixture " << path.string() << "\n";
      return 2;
    }
    const std::string virt = fixture_virtual_path(r.source);
    if (virt.empty()) {
      out << "fixture " << r.rel
          << " is missing its '// ede-lint-fixture: <path>' first line\n";
      return 2;
    }
    r.virt = slashes(virt);
    raw.push_back(std::move(r));
  }
  const std::vector<SourceFile> files = lex_all(raw, /*jobs=*/1);
  const ProjectIndex index = build_index(files);
  const std::vector<Finding> findings = run_rules(files, index, Config{});

  bool all_ok = true;
  std::size_t checked = 0;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    // Expected findings: sidecar lines "RULE LINE" (or empty/absent for
    // known-good fixtures).
    std::set<std::pair<std::string, int>> expected;
    std::string expect_text;
    const fs::path sidecar = paths[i].string() + ".expect";
    if (read_file(sidecar, expect_text)) {
      std::istringstream in(expect_text);
      std::string rule;
      int line = 0;
      while (in >> rule >> line) expected.insert({rule, line});
    }
    std::set<std::pair<std::string, int>> actual;
    for (const Finding& f : findings)
      if (f.file == raw[i].virt) actual.insert({f.rule, f.line});

    ++checked;
    if (actual == expected) continue;
    all_ok = false;
    out << "FAIL " << raw[i].rel << " (as " << raw[i].virt << ")\n";
    for (const auto& [rule, line] : expected)
      if (actual.count({rule, line}) == 0)
        out << "  missing expected " << rule << " at line " << line << "\n";
    for (const auto& [rule, line] : actual)
      if (expected.count({rule, line}) == 0)
        out << "  unexpected " << rule << " at line " << line << "\n";
  }
  out << "ede_lint --self-test: " << checked << " fixture(s), "
      << (all_ok ? "all ok" : "FAILURES") << "\n";
  return all_ok ? 0 : 1;
}

}  // namespace ede::lint
