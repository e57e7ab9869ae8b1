// The ibridge-lint symbol index: a lightweight, cross-file view of the
// project built on top of the token streams from lexer.cpp.
//
// The indexer is not a C++ front end.  It is a scope-tracking scanner that
// recovers exactly the structure the semantic rules need:
//
//   * namespaces, classes and structs (qualified names);
//   * function definitions with their body token ranges — free functions,
//     methods (inline or out-of-line `Class::method` definitions),
//     constructors/destructors and operators;
//   * shared mutable state: namespace-scope variables, static data members,
//     function-local `static`s and `thread_local`s, with their const-ness
//     and any `// lint: shared-ok (reason)` annotation;
//   * call sites (callee name + access shape, for graph.{hpp,cpp} to
//     resolve) and allocation sites (`new`, `operator new`, make_unique/
//     make_shared, malloc-family, and container-growth member calls) inside
//     each function body;
//   * the resolved project #include edges.
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "lint/lint.hpp"

namespace ibridge::lint {

/// One parsed `lint:` comment: key plus the parenthesized payload (a reason
/// for suppressions and shared-ok, empty for no-alloc).
struct Annotation {
  int line = 0;
  std::string key;
  std::string payload;
};

/// All `lint:` comments in a file, in line order.
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

/// A function definition (one with a body in this corpus).
struct FunctionSym {
  std::string name;   ///< unqualified: "coverage_into", "operator()", "~Foo"
  std::string scope;  ///< "ibridge::core::MappingTable"
  std::string file;
  int line = 0;             ///< line of the name token
  std::size_t body_begin = 0;  ///< token index of the '{' in its file
  std::size_t body_end = 0;    ///< token index one past the matching '}'
  bool in_class = false;    ///< defined at class scope or via Class:: qual
  bool no_alloc = false;    ///< carries a `// lint: no-alloc` annotation

  std::string qualified() const {
    return scope.empty() ? name : scope + "::" + name;
  }
};

/// A call site inside a function body.  `callee` is the unqualified name;
/// resolution against the function table happens in graph.cpp.
struct CallSite {
  int caller = -1;     ///< index into Index::functions
  std::string callee;
  std::string qual;    ///< explicit qualifier ("std", "MappingTable"), if any
  bool member = false; ///< receiver access: `x.f(...)` / `p->f(...)`
  int line = 0;
};

enum class AllocKind {
  kNew,          ///< non-placement `new`
  kOperatorNew,  ///< explicit `operator new(...)` call
  kMakeSmart,    ///< make_unique / make_shared
  kCAlloc,       ///< malloc / calloc / realloc / strdup
  kGrowth,       ///< container growth member call (push_back, resize, ...)
};

/// A direct allocation site inside a function body.
struct AllocSite {
  int caller = -1;
  AllocKind kind = AllocKind::kNew;
  std::string what;  ///< the offending token ("new", "push_back", ...)
  int line = 0;
};

struct Index {
  std::vector<std::string> files;                ///< sorted rel paths
  /// module of each file, parallel to `files`.
  std::vector<std::string> modules;
  /// resolved project include edges: includer rel -> set of included rels.
  std::map<std::string, std::set<std::string>> includes;
  std::vector<std::string> classes;  ///< qualified class/struct names, sorted
  std::vector<FunctionSym> functions;
  std::vector<VarSym> vars;
  std::vector<CallSite> calls;
  std::vector<AllocSite> allocs;
};

/// Builds the index over a lexed corpus.  Deterministic: files are processed
/// in the given order (lint_tree / load_tree sort them), and every list is
/// emitted in scan order.
Index build_index(const std::vector<SourceFile>& files);

}  // namespace ibridge::lint
