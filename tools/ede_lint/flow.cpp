#include "flow.hpp"

#include "token_util.hpp"

namespace ede::lint {

namespace {

using Tokens = std::vector<Token>;

/// Split the parameter list between `open` ('(') and `close` (')') into
/// ParamDecls. Token-level heuristics: a top-level '&' makes the parameter
/// by-ref, a top-level string_view/span/BytesView makes it a view, and the
/// name is the last top-level identifier that is neither a keyword nor
/// '::'-qualified (so `std::string_view` alone stays unnamed).
void parse_params(const Tokens& toks, std::size_t open, std::size_t close,
                  std::vector<ParamDecl>& out) {
  std::size_t a = open + 1;
  while (a < close) {
    std::size_t b = a;
    while (b < close) {
      if (is_punct(toks[b], "(")) b = match_forward(toks, b, "(", ")") + 1;
      else if (is_punct(toks[b], "[")) b = match_forward(toks, b, "[", "]") + 1;
      else if (is_punct(toks[b], "{")) b = match_forward(toks, b, "{", "}") + 1;
      else if (is_punct(toks[b], "<")) b = skip_angles(toks, b);
      else if (is_punct(toks[b], ",")) break;
      else ++b;
    }
    ParamDecl p;
    bool seen_eq = false;
    bool any = false;
    for (std::size_t m = a; m < b;) {
      const Token& t = toks[m];
      if (is_punct(t, "=")) { seen_eq = true; ++m; continue; }
      if (is_punct(t, "<")) { m = skip_angles(toks, m); continue; }
      if (is_punct(t, "(")) { m = match_forward(toks, m, "(", ")") + 1; continue; }
      if (is_punct(t, "[")) { m = match_forward(toks, m, "[", "]") + 1; continue; }
      if (is_punct(t, "{")) { m = match_forward(toks, m, "{", "}") + 1; continue; }
      if (!seen_eq) {
        if (is_punct(t, "&")) p.by_ref = true;
        if (t.kind == Tok::Ident) {
          any = true;
          if (t.text == "string_view" || t.text == "span" ||
              t.text == "BytesView")
            p.is_view = true;
          if (!p.type_text.empty()) p.type_text += ' ';
          p.type_text += t.text;
          if (!is_cpp_keyword(t.text) &&
              !(m > 0 && is_punct(toks[m - 1], "::"))) {
            p.name = t.text;
            p.line = t.line;
          }
        }
      }
      ++m;
    }
    if (any && p.type_text != "void") out.push_back(std::move(p));
    a = b + 1;
  }
}

/// Scan a function body for named by-reference lambdas:
/// `auto f = [&...](...){...}`.
void scan_lambdas(const Tokens& toks, std::size_t body_begin,
                  std::size_t body_end, std::vector<LambdaDef>& out) {
  for (std::size_t i = body_begin + 1; i < body_end; ++i) {
    if (!is_punct(toks[i], "[")) continue;
    if (i < 2 || !is_punct(toks[i - 1], "=") ||
        toks[i - 2].kind != Tok::Ident || is_cpp_keyword(toks[i - 2].text))
      continue;
    const std::size_t close_br = match_forward(toks, i, "[", "]");
    if (close_br >= body_end) continue;
    bool ref_capture = false;
    for (std::size_t j = i + 1; j < close_br; ++j)
      if (is_punct(toks[j], "&")) ref_capture = true;
    // After the capture list: optional (params), optional specifiers and
    // trailing return, then the lambda body. Anything else (an array
    // subscript on the right-hand side) is not a lambda.
    std::size_t k = close_br + 1;
    if (k < body_end && is_punct(toks[k], "("))
      k = match_forward(toks, k, "(", ")") + 1;
    while (k < body_end &&
           (is_ident(toks[k], "mutable") || is_ident(toks[k], "noexcept") ||
            is_ident(toks[k], "constexpr")))
      ++k;
    if (k + 1 < body_end && is_punct(toks[k], "-") &&
        is_punct(toks[k + 1], ">")) {
      k += 2;
      while (k < body_end && !is_punct(toks[k], "{") &&
             !is_punct(toks[k], ";")) {
        if (is_punct(toks[k], "<")) k = skip_angles(toks, k);
        else ++k;
      }
    }
    if (k >= body_end || !is_punct(toks[k], "{")) continue;
    LambdaDef lambda;
    lambda.name = toks[i - 2].text;
    lambda.line = toks[i - 2].line;
    lambda.body_end = match_forward(toks, k, "{", "}");
    lambda.ref_capture = ref_capture;
    out.push_back(std::move(lambda));
  }
}

}  // namespace

std::vector<FunctionDef> extract_functions(const SourceFile& file) {
  const Tokens& toks = file.lex.tokens;
  std::vector<FunctionDef> out;

  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    std::string name;
    int line = 0;
    std::size_t paren = 0;

    if (is_ident(toks[i], "operator")) {
      // operator<puncts>(…)  /  operator()(…)  /  operator <type-ident>(…)
      std::size_t k2 = i + 1;
      std::string op;
      while (k2 < toks.size() && toks[k2].kind == Tok::Punct &&
             !is_punct(toks[k2], "(")) {
        op += toks[k2].text;
        ++k2;
      }
      if (op.empty() && k2 + 1 < toks.size() && is_punct(toks[k2], "(") &&
          is_punct(toks[k2 + 1], ")")) {
        op = "()";
        k2 += 2;
      }
      if (op.empty() && k2 < toks.size() && toks[k2].kind == Tok::Ident) {
        op = " " + toks[k2].text;  // operator bool / operator co_await
        ++k2;
      }
      if (op.empty() || k2 >= toks.size() || !is_punct(toks[k2], "("))
        continue;
      name = "operator" + op;
      line = toks[i].line;
      paren = k2;
    } else if (toks[i].kind == Tok::Ident && !is_cpp_keyword(toks[i].text) &&
               is_punct(toks[i + 1], "(")) {
      name = toks[i].text;
      line = toks[i].line;
      paren = i + 1;
    } else {
      continue;
    }

    const std::size_t close = match_forward(toks, paren, "(", ")");
    if (close + 1 >= toks.size()) continue;

    // Walk the post-parameter tail: cv/ref qualifiers, noexcept, override,
    // final, trailing return type, then either the body '{' (a definition)
    // or anything else (declaration, call, cast — skipped).
    std::size_t k = close + 1;
    bool rejected = false;
    while (k < toks.size() && !rejected) {
      const Token& t = toks[k];
      if (is_ident(t, "const") || is_ident(t, "override") ||
          is_ident(t, "final") || is_ident(t, "mutable")) {
        ++k;
      } else if (is_ident(t, "noexcept")) {
        ++k;
        if (k < toks.size() && is_punct(toks[k], "("))
          k = match_forward(toks, k, "(", ")") + 1;
      } else if (is_punct(t, "&")) {
        ++k;  // ref-qualifier (&& is two tokens)
      } else if (is_punct(t, "-") && k + 1 < toks.size() &&
                 is_punct(toks[k + 1], ">")) {
        k += 2;  // trailing return type
        while (k < toks.size() && !is_punct(toks[k], "{") &&
               !is_punct(toks[k], ";") && !is_punct(toks[k], "=")) {
          if (is_punct(toks[k], "<")) k = skip_angles(toks, k);
          else if (is_punct(toks[k], "(")) k = match_forward(toks, k, "(", ")") + 1;
          else ++k;
        }
      } else if (is_punct(t, ":")) {
        // Constructor init list: skip `member(init)` / `member{init}`
        // groups until the body brace.
        ++k;
        while (k < toks.size()) {
          if (is_punct(toks[k], "(")) {
            k = match_forward(toks, k, "(", ")") + 1;
          } else if (is_punct(toks[k], "{")) {
            const bool init_brace = toks[k - 1].kind == Tok::Ident &&
                                    !is_cpp_keyword(toks[k - 1].text);
            if (!init_brace) break;
            k = match_forward(toks, k, "{", "}") + 1;
          } else if (is_punct(toks[k], ";") || toks[k].kind == Tok::End) {
            rejected = true;  // `cond ? a : b;` — not an init list
            break;
          } else {
            ++k;
          }
        }
      } else {
        break;
      }
    }
    if (rejected || k >= toks.size() || !is_punct(toks[k], "{")) continue;

    FunctionDef fn;
    fn.name = std::move(name);
    fn.line = line;
    fn.body_begin = k;
    fn.body_end = match_forward(toks, k, "{", "}");
    parse_params(toks, paren, close, fn.params);
    for (std::size_t j = fn.body_begin + 1; j < fn.body_end; ++j) {
      const Token& t = toks[j];
      if (t.kind != Tok::Ident) continue;
      if (t.text == "co_await" || t.text == "co_yield") {
        if (j >= 1 && is_ident(toks[j - 1], "operator")) continue;
        fn.is_coroutine = true;
        fn.suspends.push_back(j);
      } else if (t.text == "co_return") {
        fn.is_coroutine = true;
      }
    }
    scan_lambdas(toks, fn.body_begin, fn.body_end, fn.lambdas);
    out.push_back(std::move(fn));
  }
  return out;
}

}  // namespace ede::lint
