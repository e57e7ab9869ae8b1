// The shared-state / shard-safety analyzer and the static no-alloc zones.
// Everything here is cross-file: the per-file token rules live in rules.cpp.
#include <cstddef>
#include <map>
#include <set>
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
/// a single shard must carry an ownership verdict.  Scoped to src/ — tests,
/// bench and tools are per-process driver code, not shard candidates.
void check_shared_state(const Index& idx, std::vector<Diagnostic>& out) {
  for (const VarSym& v : idx.vars) {
    if (v.is_const) continue;
    if (!starts_with(v.file, "src/")) continue;
    if (v.owner_declared || v.shared_ok) continue;
    const bool local_like =
        v.kind == VarKind::kFunctionStatic || v.kind == VarKind::kThreadLocal;
    if (local_like) {
      const char* what = v.kind == VarKind::kThreadLocal
                             ? "thread_local"
                             : "function-local static";
      report(out, v.file, v.line, "static-local",
             std::string(what) + " '" + v.name +
                 "' is hidden mutable state no shard owns; hoist it into "
                 "an owning object, or annotate "
                 "shared-ok (reason) / shard-owned(<module>)");
    } else {
      const char* what = v.kind == VarKind::kClassStatic
                             ? "static data member"
                             : "namespace-scope variable";
      report(out, v.file, v.line, "shared-global",
             std::string(what) + " '" + v.qualified() +
                 "' is mutable shared state; make it const, move it into an "
                 "owning object, or annotate shard-owned(<module>) / "
                 "shared-ok (reason)");
    }
  }
}

/// True when the identifier at `i` is written: plain or compound assignment,
/// or pre/post increment/decrement.  `++`/`--`/`+=` lex as single-char
/// puncts, so the shapes are checked token-by-token.
bool is_write(const std::vector<Token>& t, std::size_t i) {
  // Kind-checked: a string literal whose content is "=" must not look like
  // an operator (the lexer strips quotes).
  const auto text = [&](std::size_t j, const char* s) {
    return j < t.size() && t[j].kind == TokKind::kPunct && t[j].text == s;
  };
  // name = ...   (but not == comparison, and not <=, >=, != at the left)
  if (text(i + 1, "=") && !text(i + 2, "=")) {
    if (i >= 1 && (text(i - 1, "=") || text(i - 1, "!") || text(i - 1, "<") ||
                   text(i - 1, ">"))) {
      return false;
    }
    return true;
  }
  // name += ... and friends.  `a - b = ...` is not valid C++, so this shape
  // is always a compound assignment; `x + y == z` fails the != "=" check.
  for (const char* op : {"+", "-", "*", "/", "%", "&", "|", "^"}) {
    if (text(i + 1, op) && text(i + 2, "=") && !text(i + 3, "=")) return true;
  }
  // ++name / name++ (and --): `++` lexes as two '+' puncts.
  if (i >= 2 && text(i - 1, "+") && text(i - 2, "+")) return true;
  if (i >= 2 && text(i - 1, "-") && text(i - 2, "-")) return true;
  if (text(i + 1, "+") && text(i + 2, "+")) return true;
  if (text(i + 1, "-") && text(i + 2, "-")) return true;
  return false;
}

/// Member-function names that mutate the receiver.  A call to one of these
/// through a shard-owned symbol is a write for ownership purposes: foreign
/// modules must route such mutations through the owner (for the parallel
/// core that means a ShardGroup::post into the owner's mailbox, merged at
/// the window barrier) instead of reaching across shards directly.
bool is_mutating_method(const std::string& name) {
  static const std::set<std::string> kMutators = {
      "push_back", "emplace_back", "pop_back", "push", "pop",  "emplace",
      "insert",    "erase",        "clear",    "resize", "assign", "reset",
      "store",     "exchange",     "fetch_add", "fetch_sub", "swap"};
  return kMutators.count(name) != 0;
}

/// shard-ownership: shard-owned(<module>) declares a single writer module.
/// An empty owner is an error (the missing-ownership fixture); flagged as
/// foreign writes are both direct stores (assignment, ++/--) and mutating
/// method calls (`owned.push_back(...)`, `owned->reset(...)`) to the
/// variable's name from any other src/ module.  Matching is by name —
/// over-approximate, with shared-ok as the documented escape.
void check_shard_ownership(const std::vector<SourceFile>& files,
                           const Index& idx, std::vector<Diagnostic>& out) {
  struct Owned {
    const VarSym* var;
  };
  std::map<std::string, std::vector<Owned>> owned_by_name;
  for (const VarSym& v : idx.vars) {
    if (!v.owner_declared) continue;
    if (blank(v.owner)) {
      report(out, v.file, v.line, "shard-ownership",
             "shard-owned annotation on '" + v.qualified() +
                 "' is missing its (<module>) owner");
      continue;
    }
    owned_by_name[v.name].push_back(Owned{&v});
  }
  if (owned_by_name.empty()) return;

  for (const SourceFile& f : files) {
    if (!starts_with(f.rel, "src/")) continue;
    for (std::size_t i = 0; i < f.tokens.size(); ++i) {
      const Token& tok = f.tokens[i];
      if (tok.kind != TokKind::kIdent) continue;
      const auto it = owned_by_name.find(tok.text);
      if (it == owned_by_name.end()) continue;

      // Direct store, or a mutating method call on the symbol:
      //   name . method (        name - > method (
      const auto t = [&](std::size_t k, const char* s) {
        return k < f.tokens.size() && f.tokens[k].kind == TokKind::kPunct &&
               f.tokens[k].text == s;
      };
      const auto meth = [&](std::size_t k) {
        return k + 1 < f.tokens.size() &&
               f.tokens[k].kind == TokKind::kIdent &&
               is_mutating_method(f.tokens[k].text) && t(k + 1, "(");
      };
      const bool mutating_call =
          (t(i + 1, ".") && meth(i + 2)) ||
          (t(i + 1, "-") && t(i + 2, ">") && meth(i + 3));
      if (!is_write(f.tokens, i) && !mutating_call) continue;

      for (const Owned& o : it->second) {
        if (f.module == o.var->owner) continue;
        // The declaration's own initializer is not a foreign write.
        if (f.rel == o.var->file && tok.line == o.var->line) continue;
        report(out, f.rel, tok.line, "shard-ownership",
               std::string(mutating_call ? "mutating call on '"
                                         : "write to '") +
                   o.var->qualified() + "' (shard-owned(" + o.var->owner +
                   ")) from module '" + f.module +
                   "'; route the mutation through the owning module (post "
                   "into its shard mailbox)");
      }
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
/// generic suppression audit in rules.cpp skips these three keys; here we
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
      } else if (a.key == "shard-owned" || a.key == "shared-ok") {
        bool attached = false;
        for (const VarSym& v : idx.vars) {
          if (v.file == f.rel && (v.line == a.line || v.line == a.line + 1)) {
            attached = true;
            break;
          }
        }
        if (!attached) {
          report(out, f.rel, a.line, "lint-annotation",
                 "'" + a.key +
                     "' marker matches no shared-state declaration on this "
                     "or the next line; delete it");
        } else if (a.key == "shared-ok" && blank(a.payload)) {
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
  check_shard_ownership(files, idx, out);
  check_no_alloc(idx, graph, facts, out);
  check_include_cycles(files, idx, out);
  check_markers(files, idx, out);
}

}  // namespace ibridge::lint
