// The ibridge-lint shared-state index: a lightweight, cross-file view of
// the project's long-lived variables, built on the lexer's token streams.
//
// The indexer is not a C++ front end.  It is a scope-tracking scanner that
// recovers exactly what the shared-global and static-local rules need:
// namespace-scope variables, static data members, function-local `static`s
// and `thread_local`s, with their const-ness and any `// lint: shared-ok
// (reason)` annotation.  Function bodies are scanned only for local
// statics.
#pragma once

#include <string>
#include <vector>

#include "lint/lint.hpp"

namespace ibridge::lint {

/// One parsed `lint:` comment: key plus the parenthesized payload (the
/// mandatory reason of a suppression or a shared-ok marker).
struct Annotation {
  int line = 0;
  std::string key;
  std::string payload;
};

/// All `lint:` comments in a file, in line order.  The one parser for the
/// annotation syntax: suppressions and the shared-ok marker both use it.
std::vector<Annotation> parse_annotations(const SourceFile& f);

enum class VarKind {
  kGlobal,        ///< namespace-scope variable
  kClassStatic,   ///< static data member
  kFunctionStatic,///< function-local static
  kThreadLocal,   ///< thread_local at any scope
};

/// A piece of potentially shared state.
struct VarSym {
  std::string name;    ///< unqualified
  std::string scope;   ///< enclosing scope, e.g. "ibridge::sim::frame_pool"
  std::string file;
  int line = 0;
  VarKind kind = VarKind::kGlobal;
  bool is_const = false;  ///< const/constexpr appeared in the decl-specifiers
  /// A shared-ok (reason) annotation on the declaration line or the line
  /// directly above.
  bool shared_ok = false;

  std::string qualified() const {
    return scope.empty() ? name : scope + "::" + name;
  }
};

/// Indexes the shared state of a lexed corpus.  Deterministic: files are
/// processed in the given order (load_tree sorts them), and variables are
/// emitted in scan order.
std::vector<VarSym> build_index(const std::vector<SourceFile>& files);

}  // namespace ibridge::lint
