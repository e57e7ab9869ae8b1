// The shared-state indexer: a scope-tracking scanner over the lexer's
// token streams.  See index.hpp for what it recovers.
#include <cctype>
#include <cstddef>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "lint/index.hpp"

namespace ibridge::lint {
namespace {

bool is_ident(const std::vector<Token>& t, std::size_t i) {
  return i < t.size() && t[i].kind == TokKind::kIdent;
}
bool text_is(const std::vector<Token>& t, std::size_t i, const char* s) {
  return i < t.size() && t[i].text == s;
}

/// Index just past the '>' matching the '<' at `open`, or t.size().
std::size_t skip_angles(const std::vector<Token>& t, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < t.size(); ++i) {
    if (t[i].text == "<") ++depth;
    if (t[i].text == ">" && --depth == 0) return i + 1;
    if (t[i].text == ";" || t[i].text == "{") return i;  // not a template
  }
  return t.size();
}

/// Index just past the closer matching the opener at `open` ('(' / '[' /
/// '{'), or t.size() on imbalance.  Bracket kinds are pooled, so mismatched
/// nesting still terminates.
std::size_t skip_balanced(const std::vector<Token>& t, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < t.size(); ++i) {
    if (t[i].text == "(" || t[i].text == "[" || t[i].text == "{") ++depth;
    if (t[i].text == ")" || t[i].text == "]" || t[i].text == "}") {
      if (--depth == 0) return i + 1;
    }
  }
  return t.size();
}

/// Index just past the ';' ending the statement at `i`, skipping balanced
/// parens/brackets/braces (initializer lists, lambdas).
std::size_t skip_statement(const std::vector<Token>& t, std::size_t i) {
  while (i < t.size()) {
    const std::string& s = t[i].text;
    if (s == ";") return i + 1;
    if (s == "(" || s == "[" || s == "{") {
      i = skip_balanced(t, i);
      continue;
    }
    if (s == ")" || s == "]" || s == "}") return i;  // enclosing scope ends
    ++i;
  }
  return i;
}

/// Decl-specifier keywords that never name a declared entity.
const std::set<std::string>& spec_keywords() {
  static const std::set<std::string> kSpecs = {
      "const",    "constexpr", "constinit", "consteval", "static",
      "inline",   "extern",    "mutable",   "volatile",  "register",
      "thread_local", "typename", "unsigned", "signed",  "long",
      "short",    "int",       "char",      "bool",      "float",
      "double",   "void",      "auto",      "virtual",   "explicit",
      "friend",   "typedef",   "struct",    "class",     "enum",
      "union",    "final",     "override",  "noexcept",  "co_return"};
  return kSpecs;
}

/// Identifiers followed by '(' that never name a function being declared.
const std::set<std::string>& non_call_keywords() {
  static const std::set<std::string> kNonCall = {
      "if",        "for",      "while",     "switch",   "return",
      "sizeof",    "alignof",  "alignas",   "decltype", "catch",
      "co_await",  "co_return","co_yield",  "throw",    "assert",
      "static_assert", "noexcept", "requires", "defined", "new",
      "delete",    "typeid",   "__builtin_strlen"};
  return kNonCall;
}

/// Fundamental-type keywords: they count toward "this statement declares
/// something" but never name the declared entity.
const std::set<std::string>& type_keywords() {
  static const std::set<std::string> kTypes = {
      "unsigned", "signed", "long",   "short", "int",  "char",
      "bool",     "float",  "double", "auto",  "void", "wchar_t"};
  return kTypes;
}

/// The lexer strips quotes, so a string literal whose content is ")" or "="
/// would otherwise satisfy punct comparisons and derail bracket matching.
/// Scanning runs over a copy with literal texts replaced by placeholders.
std::vector<Token> neutralize_literals(const std::vector<Token>& in) {
  std::vector<Token> out = in;
  for (Token& t : out) {
    if (t.kind == TokKind::kString) t.text = "<str>";
    if (t.kind == TokKind::kChar) t.text = "<chr>";
  }
  return out;
}

class FileIndexer {
 public:
  FileIndexer(const SourceFile& f, std::vector<VarSym>& out)
      : f_(f), t_(neutralize_literals(f.tokens)), out_(out) {}

  void run() {
    const std::size_t first = out_.size();
    scope_body(0, t_.size(), /*in_class=*/false, "");
    attach_shared_ok(first);
  }

 private:
  std::string join_scope(const std::string& outer,
                         const std::string& name) const {
    if (outer.empty()) return name;
    if (name.empty()) return outer;
    return outer + "::" + name;
  }

  /// Skips a preprocessor directive: every token on the '#' token's line.
  /// (Multi-line macro definitions with backslash continuations are rare in
  /// this codebase and simply fall back to normal scanning.)
  std::size_t skip_directive(std::size_t i) const {
    const int line = t_[i].line;
    while (i < t_.size() && t_[i].line == line) ++i;
    return i;
  }

  // ------------------------------------------------- namespace / class ----

  /// Parses declarations in [i, end) at namespace or class scope.  Returns
  /// the index just past the matching '}' (or `end`).
  std::size_t scope_body(std::size_t i, std::size_t end, bool in_class,
                         const std::string& scope) {
    while (i < end && i < t_.size()) {
      const Token& tok = t_[i];
      if (tok.text == "}") return i + 1;
      if (tok.text == "#") {
        i = skip_directive(i);
        continue;
      }
      if (tok.text == ";" || tok.text == ":") {
        ++i;
        continue;
      }
      if (tok.kind != TokKind::kIdent) {
        // '~' starts a destructor; anything else (stray punct, attribute
        // brackets) is skipped a token at a time.
        if (tok.text == "[") {
          i = skip_balanced(t_, i);
          continue;
        }
        if (tok.text != "~") {
          ++i;
          continue;
        }
      }
      const std::string& s = tok.text;
      if (s == "namespace") {
        i = parse_namespace(i, scope);
        continue;
      }
      if (s == "template") {
        if (text_is(t_, i + 1, "<")) {
          i = skip_angles(t_, i + 1);
        } else {
          ++i;
        }
        continue;
      }
      if (s == "using" || s == "typedef" || s == "friend" ||
          s == "static_assert") {
        i = skip_statement(t_, i);
        continue;
      }
      if (s == "public" || s == "private" || s == "protected") {
        i += text_is(t_, i + 1, ":") ? 2 : 1;
        continue;
      }
      if (s == "enum") {
        i = parse_enum(i);
        continue;
      }
      if ((s == "class" || s == "struct" || s == "union") &&
          !looks_like_type_prefix(i)) {
        i = parse_class(i, scope);
        continue;
      }
      if (s == "extern" && i + 1 < t_.size() &&
          t_[i + 1].kind == TokKind::kString) {
        // extern "C" { ... } reopens the same scope.
        if (text_is(t_, i + 2, "{")) {
          const std::size_t close = skip_balanced(t_, i + 2);
          scope_body(i + 3, close, in_class, scope);
          i = close;
        } else {
          i = skip_statement(t_, i);
        }
        continue;
      }
      i = parse_declaration(i, end, in_class, scope);
    }
    return i;
  }

  /// `class X;` forward decls and elaborated types (`struct Foo f;`) are
  /// handled by parse_declaration; a class *definition* has a '{' before
  /// any ';' or '('.  This checks for the definition shape.
  bool looks_like_type_prefix(std::size_t i) const {
    for (std::size_t j = i + 1; j < t_.size(); ++j) {
      const std::string& s = t_[j].text;
      if (s == "{") return false;  // definition: handle via parse_class
      if (s == ";" || s == "(" || s == "=") return true;
      if (s == ")") return true;  // e.g. a template argument
    }
    return true;
  }

  std::size_t parse_namespace(std::size_t i, const std::string& scope) {
    std::size_t j = i + 1;
    std::string name;
    while (j < t_.size() && t_[j].text != "{" && t_[j].text != ";" &&
           t_[j].text != "=") {
      if (t_[j].kind == TokKind::kIdent) {
        name = name.empty() ? t_[j].text : name + "::" + t_[j].text;
      }
      ++j;
    }
    if (j >= t_.size() || t_[j].text != "{") return skip_statement(t_, i);
    if (name.empty()) name = "(anon)";
    const std::size_t close = skip_balanced(t_, j);
    scope_body(j + 1, close, /*in_class=*/false, join_scope(scope, name));
    return close;
  }

  std::size_t parse_enum(std::size_t i) {
    std::size_t j = i + 1;
    while (j < t_.size() && t_[j].text != "{" && t_[j].text != ";") ++j;
    if (j >= t_.size() || t_[j].text == ";") return j + 1;
    return skip_statement(t_, skip_balanced(t_, j));
  }

  std::size_t parse_class(std::size_t i, const std::string& scope) {
    std::size_t j = i + 1;
    std::string name;
    while (j < t_.size() && t_[j].text != "{" && t_[j].text != ";") {
      if (t_[j].text == ":") break;  // base clause: name is complete
      if (t_[j].text == "<") {       // template-id in a specialization
        j = skip_angles(t_, j);
        continue;
      }
      if (t_[j].kind == TokKind::kIdent && t_[j].text != "final" &&
          t_[j].text != "alignas") {
        name = t_[j].text;
      }
      if (t_[j].text == "(") {  // alignas(...) or attribute
        j = skip_balanced(t_, j);
        continue;
      }
      ++j;
    }
    while (j < t_.size() && t_[j].text != "{" && t_[j].text != ";") {
      if (t_[j].text == "(" || t_[j].text == "[") {
        j = skip_balanced(t_, j);
        continue;
      }
      if (t_[j].text == "<") {
        j = skip_angles(t_, j);
        continue;
      }
      ++j;
    }
    if (j >= t_.size() || t_[j].text == ";") return j + 1;
    if (name.empty()) name = "(anon)";
    const std::size_t close = skip_balanced(t_, j);
    scope_body(j + 1, close, /*in_class=*/true, join_scope(scope, name));
    // `} name;` — an immediate variable of the anonymous/just-defined type.
    return skip_trailing_declarator(close);
  }

  std::size_t skip_trailing_declarator(std::size_t i) const {
    std::size_t j = i;
    while (j < t_.size() && t_[j].text != ";" && t_[j].text != "}" &&
           t_[j].text != "{") {
      ++j;
    }
    return j < t_.size() && t_[j].text == ";" ? j + 1 : i;
  }

  // ------------------------------------------------------ declarations ----

  /// One declaration at namespace/class scope: a function definition (body
  /// scanned for local statics), a function declaration (skipped), or a
  /// variable (recorded when it is shared state).  Returns the index past
  /// the declaration.
  std::size_t parse_declaration(std::size_t i, std::size_t end, bool in_class,
                                const std::string& scope) {
    bool saw_const = false;
    bool saw_static = false;
    bool saw_thread_local = false;
    bool saw_extern = false;
    std::string last_ident;
    int last_ident_line = 0;
    int ident_count = 0;

    std::size_t j = i;
    if (t_[j].text == "~") ++j;  // leading destructor tilde
    for (; j < end && j < t_.size(); ++j) {
      const Token& tok = t_[j];
      const std::string& s = tok.text;
      if (s == "#") {
        j = skip_directive(j) - 1;
        continue;
      }
      if (tok.kind == TokKind::kIdent) {
        if (s == "const" || s == "constexpr" || s == "constinit") {
          saw_const = true;
          continue;
        }
        if (s == "static") {
          saw_static = true;
          continue;
        }
        if (s == "thread_local") {
          saw_thread_local = true;
          continue;
        }
        if (s == "extern") {
          saw_extern = true;
          continue;
        }
        if (s == "alignas" || s == "decltype" || s == "__attribute__") {
          if (text_is(t_, j + 1, "(")) j = skip_balanced(t_, j + 1) - 1;
          continue;
        }
        if (s == "operator") {
          return parse_function(j, function_scope(scope, j, s));
        }
        if (text_is(t_, j + 1, "(") && non_call_keywords().count(s) == 0 &&
            spec_keywords().count(s) == 0) {
          // Candidate function: name '(' params ')' ... '{' | ';' | '='
          return parse_function(j + 1, function_scope(scope, j, s));
        }
        if (text_is(t_, j + 1, "<")) {
          // Type template-id (std::vector<...>); its arguments never name
          // the declared entity.
          const std::size_t after = skip_angles(t_, j + 1);
          if (after > j + 1 && after <= end) {
            j = after - 1;
            continue;
          }
        }
        if (spec_keywords().count(s) == 0) {
          last_ident = s;
          last_ident_line = tok.line;
          ++ident_count;
        } else if (type_keywords().count(s) != 0) {
          ++ident_count;  // `static int x;` still declares something
        }
        continue;
      }
      if (s == "[") {  // array extent or attribute: not a declared name
        j = skip_balanced(t_, j) - 1;
        continue;
      }
      if (s == "=" || s == "{") {
        // Variable with an initializer.
        if (!last_ident.empty() && !saw_extern) {
          record_var(last_ident, last_ident_line, in_class, scope, saw_const,
                     saw_static, saw_thread_local, /*at_function_scope=*/false);
        }
        return skip_statement(t_, j);
      }
      if (s == ";") {
        // `Foo x;` — require type + name so macro invocations and stray
        // idents are not misread as variables.
        if (ident_count >= 2 && !last_ident.empty() && !saw_extern) {
          record_var(last_ident, last_ident_line, in_class, scope, saw_const,
                     saw_static, saw_thread_local, /*at_function_scope=*/false);
        }
        return j + 1;
      }
      if (s == "}") return j;  // enclosing scope closed under us
    }
    return j;
  }

  /// The explicit qualifier chain directly before the name token at `j`:
  /// `A::B::name` -> "A::B" (walks back over ident-"::" pairs).
  std::string current_qual(std::size_t j) const {
    std::size_t k = j;
    if (k >= 1 && t_[k - 1].text == "~") --k;
    std::vector<std::string> parts;
    while (k >= 2 && t_[k - 1].text == "::" && is_ident(t_, k - 2)) {
      parts.push_back(t_[k - 2].text);
      k -= 2;
    }
    std::string qual;
    for (auto it = parts.rbegin(); it != parts.rend(); ++it) {
      qual = qual.empty() ? *it : qual + "::" + *it;
    }
    return qual;
  }

  /// Scope for the local statics of the function named `name` at `j`: the
  /// enclosing scope plus any explicit `A::B::` qualifier and the name.
  std::string function_scope(const std::string& scope, std::size_t j,
                             const std::string& name) const {
    return join_scope(join_scope(scope, current_qual(j)), name);
  }

  /// Parses a candidate function from the token after its name.  `i` points
  /// at (or before) the parameter-list '('.  Either scans a definition's
  /// body for local statics, or skips a mere declaration.
  std::size_t parse_function(std::size_t i, const std::string& fn_scope) {
    std::size_t j = i;
    while (j < t_.size() && t_[j].text != "(") {
      if (t_[j].text == ";" || t_[j].text == "{" || t_[j].text == "}") {
        return j;  // malformed candidate; bail without consuming the brace
      }
      ++j;
    }
    if (j >= t_.size()) return j;
    j = skip_balanced(t_, j);  // past the parameter list

    // Trailing: const, noexcept(...), override, ->, trailing types,
    // requires-clauses, ctor init lists — up to '{', ';', '=' or ','.
    while (j < t_.size()) {
      const std::string& s = t_[j].text;
      if (s == "{") {  // definition
        const std::size_t close = skip_balanced(t_, j);
        scan_function_body(j + 1, close - 1, fn_scope);
        return close;
      }
      if (s == ";") return j + 1;        // declaration only
      if (s == "=") return skip_statement(t_, j);  // = default / delete / 0
      if (s == ",") return skip_statement(t_, j);  // odd multi-declarator
      if (s == ":") {
        // Constructor initializer list: members with (...) or {...}
        // initializers, then the body '{'.
        ++j;
        while (j < t_.size()) {
          while (j < t_.size() && t_[j].text != "(" && t_[j].text != "{" &&
                 t_[j].text != ";") {
            if (t_[j].text == "<") {
              j = skip_angles(t_, j);
              continue;
            }
            ++j;
          }
          if (j >= t_.size() || t_[j].text == ";") return j + 1;
          if (t_[j].text == "{" &&
              (t_[j - 1].text == ")" || t_[j - 1].text == "}")) {
            break;  // this '{' is the body
          }
          const bool was_paren = t_[j].text == "(";
          j = skip_balanced(t_, j);
          if (text_is(t_, j, ",")) {
            ++j;
            continue;
          }
          if (!was_paren && !text_is(t_, j, "{")) continue;
          if (text_is(t_, j, "{")) break;
          // after `member(init)` with no comma the next '{' is the body
        }
        continue;  // loop re-examines t_[j] (now the body '{' or beyond)
      }
      if (s == "(") {  // noexcept(...), requires(...)
        j = skip_balanced(t_, j);
        continue;
      }
      if (s == "[") {
        j = skip_balanced(t_, j);
        continue;
      }
      if (s == "<") {
        j = skip_angles(t_, j);
        continue;
      }
      if (s == "}") return j;  // scope closed: was a declaration after all
      ++j;
    }
    return j;
  }

  // --------------------------------------------------- function bodies ----

  /// Scans [i, end) — the inside of a function body, nested blocks and
  /// lambdas included — for static and thread_local locals.
  void scan_function_body(std::size_t i, std::size_t end,
                          const std::string& fn_scope) {
    for (std::size_t j = i; j < end && j < t_.size(); ++j) {
      const Token& tok = t_[j];
      if (tok.text == "#") {
        j = skip_directive(j) - 1;
        continue;
      }
      if (tok.kind != TokKind::kIdent) continue;
      if ((tok.text == "static" || tok.text == "thread_local") &&
          at_statement_start(j)) {
        j = scan_static_local(j, end, fn_scope, tok.text == "thread_local") -
            1;
      }
    }
  }

  bool at_statement_start(std::size_t j) const {
    if (j == 0) return true;
    const std::string& p = t_[j - 1].text;
    return p == ";" || p == "{" || p == "}" || p == ":" || p == ")";
  }

  /// `static T name ...;` inside a function body.  Returns the index past
  /// the statement.  Mutable (non-const) locals are recorded.
  std::size_t scan_static_local(std::size_t i, std::size_t end,
                                const std::string& fn_scope,
                                bool thread_local_kw) {
    bool saw_const = false;
    bool tl = thread_local_kw;
    std::string last_ident;
    int last_line = 0;
    int ident_count = 0;
    for (std::size_t j = i + 1; j < end && j < t_.size(); ++j) {
      const std::string& s = t_[j].text;
      if (t_[j].kind == TokKind::kIdent) {
        if (s == "const" || s == "constexpr" || s == "constinit") {
          saw_const = true;
          continue;
        }
        if (s == "thread_local") {
          tl = true;
          continue;
        }
        if (s == "static") continue;
        if (text_is(t_, j + 1, "<")) {
          const std::size_t after = skip_angles(t_, j + 1);
          if (after > j + 1) {
            j = after - 1;
            continue;
          }
        }
        if (spec_keywords().count(s) == 0) {
          last_ident = s;
          last_line = t_[j].line;
          ++ident_count;
        } else if (type_keywords().count(s) != 0) {
          ++ident_count;
        }
        continue;
      }
      if (s == "[") {
        j = skip_balanced(t_, j) - 1;
        continue;
      }
      if (s == "=" || s == "{" || s == "(" || s == ";") {
        if (!last_ident.empty() && ident_count >= 2) {
          record_var(last_ident, last_line, /*in_class=*/false, fn_scope,
                     saw_const, /*saw_static=*/!tl, tl,
                     /*at_function_scope=*/true);
        }
        return s == ";" ? j + 1 : skip_statement(t_, j);
      }
    }
    return end;
  }

  // ----------------------------------------------------------- records ----

  void record_var(const std::string& name, int line, bool in_class,
                  const std::string& scope, bool is_const, bool is_static,
                  bool is_tl, bool at_function_scope) {
    // Plain (non-static) data members are instance state, never shared.
    if (in_class && !is_static && !is_tl) return;
    VarSym v;
    v.name = name;
    v.scope = scope;
    v.file = f_.rel;
    v.line = line;
    v.is_const = is_const;
    if (is_tl) {
      v.kind = VarKind::kThreadLocal;
    } else if (at_function_scope) {
      v.kind = VarKind::kFunctionStatic;
    } else if (in_class) {
      v.kind = VarKind::kClassStatic;
    } else {
      v.kind = VarKind::kGlobal;
    }
    out_.push_back(std::move(v));
  }

  /// Marks the variables recorded for this file (from index `first` on)
  /// that carry a shared-ok annotation on their own line or the line
  /// directly above.
  void attach_shared_ok(std::size_t first) {
    for (const Annotation& a : parse_annotations(f_)) {
      if (a.key != "shared-ok") continue;
      for (std::size_t k = first; k < out_.size(); ++k) {
        VarSym& v = out_[k];
        if (v.line == a.line || v.line == a.line + 1) v.shared_ok = true;
      }
    }
  }

  const SourceFile& f_;
  const std::vector<Token> t_;
  std::vector<VarSym>& out_;
};

std::string trim(const std::string& s) {
  const auto b = s.find_first_not_of(" \t");
  if (b == std::string::npos) return "";
  const auto e = s.find_last_not_of(" \t");
  return s.substr(b, e - b + 1);
}

}  // namespace

std::vector<Annotation> parse_annotations(const SourceFile& f) {
  std::vector<Annotation> out;
  for (const Comment& c : f.comments) {
    const auto start = c.text.find_first_not_of(" \t");
    if (start == std::string::npos) continue;
    if (c.text.compare(start, 5, "lint:") != 0) continue;
    std::size_t p = start + 5;
    while (p < c.text.size() && c.text[p] == ' ') ++p;
    Annotation a;
    a.line = c.line;
    while (p < c.text.size() &&
           (std::isalnum(static_cast<unsigned char>(c.text[p])) != 0 ||
            c.text[p] == '-')) {
      a.key += c.text[p++];
    }
    const auto open = c.text.find('(', p);
    const auto close = c.text.rfind(')');
    if (open != std::string::npos && close != std::string::npos &&
        close > open) {
      a.payload = trim(c.text.substr(open + 1, close - open - 1));
    }
    out.push_back(std::move(a));
  }
  return out;
}

std::vector<VarSym> build_index(const std::vector<SourceFile>& files) {
  std::vector<VarSym> vars;
  for (const SourceFile& f : files) FileIndexer(f, vars).run();
  return vars;
}

}  // namespace ibridge::lint
