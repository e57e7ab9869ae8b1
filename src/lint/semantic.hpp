// The project-wide semantic pass: shared-state analysis and
// static no-alloc zones, built on the symbol index (index.hpp) and the
// include/call graphs (graph.hpp).
#pragma once

#include <vector>

#include "lint/index.hpp"
#include "lint/lint.hpp"

namespace ibridge::lint {

/// Appends the cross-file semantic diagnostics for the corpus:
///
///   shared-global — mutable namespace-scope / class-static state in src/
///                   without a shared-ok annotation
///   static-local  — mutable function-local static or thread_local state
///                   in src/ without a shared-ok annotation
///   no-alloc      — allocation sites and may-allocate calls inside
///                   functions annotated `// lint: no-alloc`
///   include-cycle — cycles in the project #include graph
///
/// plus lint-annotation audits for the two marker keys (no-alloc,
/// shared-ok): a marker that attaches to no symbol, or a shared-ok without
/// its mandatory reason, is itself an error.
///
/// `idx` must be build_index(files).  Suppression filtering (alloc-ok) is
/// the caller's job — lint_corpus applies it per file, exactly as for the
/// token-level rules.
void run_semantic_pass(const std::vector<SourceFile>& files, const Index& idx,
                       std::vector<Diagnostic>& out);

}  // namespace ibridge::lint
