// ede_lint flow layer (DESIGN.md §5j): function definitions with
// brace-matched body extents, parameter shapes, coroutine suspension
// points, and named by-reference lambdas. This is the substrate for the
// C1 coroutine-safety family.
#pragma once

#include <string>
#include <vector>

#include "rules.hpp"

namespace ede::lint {

struct ParamDecl {
  std::string name;       // empty for unnamed parameters
  int line = 0;
  bool by_ref = false;    // declarator carries a top-level '&' or '&&'
  bool is_view = false;   // type spells string_view / span / BytesView
  std::string type_text;  // space-joined identifiers of the declaration
};

/// A named lambda bound inside a function body: `auto f = [&...](...){...}`.
struct LambdaDef {
  std::string name;
  int line = 0;
  std::size_t body_end = 0;   // token index of the lambda's closing '}'
  bool ref_capture = false;   // capture list contains '&'
};

struct FunctionDef {
  std::string name;       // "resolve_flow", "merge", "operator+=", ...
  int line = 0;
  std::vector<ParamDecl> params;
  std::size_t body_begin = 0;  // token index of the body '{'
  std::size_t body_end = 0;    // token index of the matching '}'
  bool is_coroutine = false;   // body contains co_await/co_yield/co_return
  /// Token indices of co_await / co_yield in the body (co_return completes
  /// the coroutine, it is not a mid-body suspension).
  std::vector<std::size_t> suspends;
  std::vector<LambdaDef> lambdas;
};

/// Recover every function definition in the file. Never fails; constructs
/// the extractor cannot classify are skipped, not misparsed into findings.
[[nodiscard]] std::vector<FunctionDef> extract_functions(const SourceFile& file);

}  // namespace ede::lint
