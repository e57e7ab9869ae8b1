// The shared-state analyzer and the static no-alloc zones.
// Everything here is cross-file: the per-file token rules live in rules.cpp.
#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "lint/graph.hpp"
#include "lint/semantic.hpp"

namespace ibridge::lint {
namespace {

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

void report(std::vector<Diagnostic>& out, const std::string& file, int line,
            const char* rule, std::string message) {
  out.push_back(Diagnostic{file, line, rule, std::move(message)});
}

bool blank(const std::string& s) {
  return s.find_first_not_of(" \t") == std::string::npos;
}

/// shared-global / static-local: every piece of mutable state that outlives
/// one simulation must say why sharing it is safe, because exp::Runner runs
/// simulations on concurrent threads.  Scoped to src/ — tests, bench and
/// tools are single-process entry points.
void check_shared_state(const Index& idx, std::vector<Diagnostic>& out) {
  for (const VarSym& v : idx.vars) {
    if (v.is_const) continue;
    if (!starts_with(v.file, "src/")) continue;
    if (v.shared_ok) continue;
    const bool local_like =
        v.kind == VarKind::kFunctionStatic || v.kind == VarKind::kThreadLocal;
    if (local_like) {
      const char* what = v.kind == VarKind::kThreadLocal
                             ? "thread_local"
                             : "function-local static";
      report(out, v.file, v.line, "static-local",
             std::string(what) + " '" + v.name +
                 "' is hidden mutable state; hoist it into an owning object, "
                 "or annotate shared-ok (reason)");
    } else {
      const char* what = v.kind == VarKind::kClassStatic
                             ? "static data member"
                             : "namespace-scope variable";
      report(out, v.file, v.line, "shared-global",
             std::string(what) + " '" + v.qualified() +
                 "' is mutable shared state; make it const, move it into an "
                 "owning object, or annotate shared-ok (reason)");
    }
  }
}

/// no-alloc: inside an annotated function, every direct allocation site and
/// every call that may reach an allocation is an error.  alloc-ok (reason)
/// on the offending line is the audited escape (it flows through the same
/// suppression machinery as every other rule).
void check_no_alloc(const Index& idx, const CallGraph& graph,
                    const std::vector<AllocFact>& facts,
                    std::vector<Diagnostic>& out) {
  for (const AllocSite& a : idx.allocs) {
    if (a.caller < 0 ||
        static_cast<std::size_t>(a.caller) >= idx.functions.size()) {
      continue;
    }
    const FunctionSym& fn = idx.functions[a.caller];
    if (!fn.no_alloc) continue;
    const char* verb = a.kind == AllocKind::kGrowth
                           ? "container growth via"
                           : "allocation via";
    report(out, fn.file, a.line, "no-alloc",
           std::string(verb) + " '" + a.what + "' inside no-alloc function '" +
               fn.qualified() +
               "'; use a pooled lease, or annotate alloc-ok (reason)");
  }
  for (std::size_t k = 0; k < idx.calls.size(); ++k) {
    const CallSite& c = idx.calls[k];
    if (c.caller < 0 ||
        static_cast<std::size_t>(c.caller) >= idx.functions.size()) {
      continue;
    }
    const FunctionSym& fn = idx.functions[c.caller];
    if (!fn.no_alloc) continue;
    for (int tgt : graph.targets[k]) {
      const FunctionSym& callee = idx.functions[tgt];
      if (callee.no_alloc || !facts[tgt].may_allocate) continue;
      report(out, fn.file, c.line, "no-alloc",
             "no-alloc function '" + fn.qualified() + "' calls '" +
                 callee.qualified() +
                 "', which may allocate (" + facts[tgt].witness +
                 "); annotate the callee no-alloc or this call alloc-ok "
                 "(reason)");
      break;  // one finding per call site is enough
    }
  }
}

/// include-cycle: the diagnostic lands on the #include line in the cycle's
/// first file that points at the next file along the cycle.
void check_include_cycles(const std::vector<SourceFile>& files,
                          const Index& idx, std::vector<Diagnostic>& out) {
  const auto cycles = include_cycles(idx);
  if (cycles.empty()) return;
  std::map<std::string, const SourceFile*> by_rel;
  for (const SourceFile& f : files) by_rel[f.rel] = &f;
  for (const auto& cycle : cycles) {
    const std::string& head = cycle.front();
    const std::string& next = cycle.size() > 1 ? cycle[1] : cycle.front();
    int line = 1;
    const auto it = by_rel.find(head);
    if (it != by_rel.end()) {
      for (const IncludeDirective& inc : it->second->includes) {
        if (inc.quoted && "src/" + inc.path == next) {
          line = inc.line;
          break;
        }
      }
    }
    std::string path;
    for (const std::string& f : cycle) path += f + " -> ";
    path += head;
    report(out, head, line, "include-cycle",
           "project include cycle: " + path);
  }
}

/// lint-annotation audit for the marker keys the semantic pass owns.  The
/// generic suppression audit in rules.cpp skips these two keys; here we
/// verify each marker actually attaches to a symbol, and that shared-ok
/// carries its mandatory reason.
void check_markers(const std::vector<SourceFile>& files, const Index& idx,
                   std::vector<Diagnostic>& out) {
  for (const SourceFile& f : files) {
    for (const Annotation& a : parse_annotations(f)) {
      if (a.key == "no-alloc") {
        bool attached = false;
        for (const FunctionSym& fn : idx.functions) {
          if (fn.file == f.rel &&
              (fn.line == a.line || fn.line == a.line + 1)) {
            attached = true;
            break;
          }
        }
        if (!attached) {
          report(out, f.rel, a.line, "lint-annotation",
                 "no-alloc marker matches no function definition on this or "
                 "the next line (annotate the definition, not a "
                 "declaration)");
        }
      } else if (a.key == "shared-ok") {
        bool attached = false;
        for (const VarSym& v : idx.vars) {
          if (v.file == f.rel && (v.line == a.line || v.line == a.line + 1)) {
            attached = true;
            break;
          }
        }
        if (!attached) {
          report(out, f.rel, a.line, "lint-annotation",
                 "'shared-ok' marker matches no shared-state declaration on "
                 "this or the next line; delete it");
        } else if (blank(a.payload)) {
          report(out, f.rel, a.line, "lint-annotation",
                 "shared-ok is missing its mandatory (reason)");
        }
      }
    }
  }
}

}  // namespace

void run_semantic_pass(const std::vector<SourceFile>& files, const Index& idx,
                       std::vector<Diagnostic>& out) {
  const CallGraph graph = resolve_calls(idx);
  const std::vector<AllocFact> facts = compute_alloc_facts(idx, graph);
  check_shared_state(idx, out);
  check_no_alloc(idx, graph, facts, out);
  check_include_cycles(files, idx, out);
  check_markers(files, idx, out);
}

}  // namespace ibridge::lint
