// ibridge-lint: project-specific static analysis for the iBridge simulator.
//
// Four rule families, enforced at build time via `ctest -L lint`:
//
//   determinism  — the simulator must be a pure function of its seed, so
//                  wall-clock reads, ambient randomness, const_cast, and
//                  unordered containers are banned.
//   layering     — the module DAG (sim at the bottom, check at the top) is
//                  enforced from #include edges, plus an include-what-you-use
//                  pass for project headers and an include-cycle check.
//   unit safety  — the core/pvfs model headers must speak Bytes/Offset/
//                  ServerId (sim/units.hpp), not raw int64.
//   shared state — mutable globals and statics in src/ must say why sharing
//                  them across exp::Runner threads is safe.
//
// Escape hatch: a suppression comment on the offending line or the line
// directly above, of the form
//
//     // NOLINT-style marker: `lint:` followed by a key and a reason
//     (pointer-key-ok, the one key — see suppression_keys() in rules.cpp)
//
// The reason in parentheses is mandatory; a reasonless, unknown, or unused
// suppression is itself a diagnostic, so the suppression inventory stays
// audited.  (This header spells the marker obliquely so the linter does not
// read its own documentation as a suppression.)
#pragma once

#include <string>
#include <vector>

namespace ibridge::lint {

/// One finding: `file:line: [rule] message`.
struct Diagnostic {
  std::string file;  ///< '/'-separated path relative to the repo root
  int line = 0;      ///< 1-based
  std::string rule;
  std::string message;
};

enum class TokKind { kIdent, kNumber, kPunct, kString, kChar };

struct Token {
  TokKind kind = TokKind::kPunct;
  std::string text;
  int line = 0;
};

struct Comment {
  int line = 0;       ///< line the comment starts on
  std::string text;   ///< body without the // or /* */ fences
};

struct IncludeDirective {
  int line = 0;
  std::string path;     ///< as written between the quotes/brackets
  bool quoted = false;  ///< "..." (project candidate) vs <...> (system)
};

/// A lexed translation unit: enough structure for token-level rules.
struct SourceFile {
  std::string rel;     ///< path relative to the repo root, e.g. "src/core/cache.hpp"
  std::string module;  ///< "sim", "core", ... for src/ files; "tests" etc. otherwise
  std::vector<Token> tokens;
  std::vector<Comment> comments;
  std::vector<IncludeDirective> includes;
};

struct RuleInfo {
  std::string id;
  std::string summary;
};

/// Tokenizes C++ source text.  `rel` must be '/'-separated.
SourceFile lex_source(std::string rel, const std::string& text);

/// Runs every rule over a set of lexed files (the files are also the include
/// universe: an include is a "project include" iff "src/" + path names a file
/// in the set).  Returns diagnostics sorted by file and line, after applying
/// suppressions and auditing the suppressions themselves.
std::vector<Diagnostic> lint_corpus(const std::vector<SourceFile>& files);

/// Walks root/{src,tests,bench,tools,examples} for .hpp/.cpp files (skipping
/// lint fixtures) and lexes them into a corpus, sorted by rel path.
std::vector<SourceFile> load_tree(const std::string& root);

/// load_tree + lint_corpus.
std::vector<Diagnostic> lint_tree(const std::string& root);

/// The rule registry, for --list-rules and the fixture tests.
const std::vector<RuleInfo>& rules();

}  // namespace ibridge::lint
