// The ibridge-lint rule engine: determinism, layering, unit-safety and
// shared-state checks over the token streams produced by lexer.cpp and the
// shared-state index (index.cpp), plus the annotation audit.  Every
// container in this file is ordered (std::map / std::set / sorted vectors)
// so the linter's own output is deterministic — the same property it
// enforces on the simulator.
#include <algorithm>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "lint/index.hpp"
#include "lint/lint.hpp"

namespace ibridge::lint {
namespace {

// ---------------------------------------------------------------- tables ----

/// The module DAG: which src/ modules each module may #include.  A module may
/// always include itself.  Directories outside src/ (tests, bench, tools,
/// examples) are unrestricted consumers.
const std::map<std::string, std::set<std::string>>& layer_allowlist() {
  static const std::map<std::string, std::set<std::string>> kAllow = {
      {"sim", {}},
      {"stats", {"sim"}},
      {"net", {"sim"}},
      {"obs", {"sim", "stats"}},
      {"storage", {"sim", "stats", "obs"}},
      {"fsim", {"sim", "stats", "storage"}},
      {"core", {"sim", "stats", "obs", "storage", "fsim"}},
      {"pvfs", {"sim", "stats", "net", "obs", "storage", "fsim", "core"}},
      {"cluster",
       {"sim", "stats", "net", "obs", "storage", "fsim", "core", "pvfs"}},
      {"fault",
       {"sim", "stats", "net", "obs", "storage", "fsim", "core", "pvfs",
        "cluster"}},
      {"mpiio", {"sim", "stats", "net", "storage", "fsim", "core", "pvfs"}},
      {"plfs",
       {"sim", "stats", "net", "storage", "fsim", "core", "pvfs", "cluster",
        "mpiio"}},
      {"workloads",
       {"sim", "stats", "net", "storage", "fsim", "core", "pvfs", "cluster",
        "mpiio", "exp"}},
      {"check",
       {"sim", "stats", "net", "obs", "storage", "fsim", "core", "pvfs",
        "cluster", "fault", "mpiio", "plfs", "workloads"}},
      {"exp", {"sim", "stats", "obs"}},
      {"lint", {}},
  };
  return kAllow;
}

/// Suppression key -> the rule it silences.  shared-global and
/// static-local are silenced by the shared-ok marker on the declaration
/// instead; every other rule absent from this table is a hard ban with no
/// escape hatch.
const std::map<std::string, std::string>& suppression_keys() {
  static const std::map<std::string, std::string> kKeys = {
      {"units-ok", "raw-unit-type"},
      {"include-ok", "include-what-you-use"},
      {"pointer-key-ok", "pointer-key"},
      {"rng-ok", "rng-construction"},
      {"wall-clock-ok", "wall-clock"},
  };
  return kKeys;
}

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}
bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

std::string stem_of(const std::string& path) {
  const auto slash = path.find_last_of('/');
  const std::string base =
      slash == std::string::npos ? path : path.substr(slash + 1);
  const auto dot = base.find_last_of('.');
  return dot == std::string::npos ? base : base.substr(0, dot);
}

// ---------------------------------------------------------- rule context ----

struct Context {
  std::set<std::string> project_files;  ///< every rel path in the corpus
  /// include path ("core/cache.hpp") -> names the header declares.
  std::map<std::string, std::set<std::string>> markers;
};

using Diags = std::vector<Diagnostic>;

void report(Diags& out, const SourceFile& f, int line, const char* rule,
            std::string message) {
  out.push_back(Diagnostic{f.rel, line, rule, std::move(message)});
}

bool is_ident(const std::vector<Token>& t, std::size_t i) {
  return i < t.size() && t[i].kind == TokKind::kIdent;
}
bool text_is(const std::vector<Token>& t, std::size_t i, const char* s) {
  return i < t.size() && t[i].text == s;
}

// ----------------------------------------------------- determinism rules ----

void check_wall_clock(const SourceFile& f, Diags& out) {
  const auto& t = f.tokens;
  static const std::set<std::string> kBannedCalls = {
      "clock_gettime", "gettimeofday", "localtime", "gmtime", "ctime",
      "asctime"};
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent) continue;
    const std::string& s = t[i].text;
    if (s == "system_clock") {
      report(out, f, t[i].line, "wall-clock",
             "std::chrono::system_clock reads the wall clock; the simulator "
             "must depend only on sim::Simulator::now()");
      continue;
    }
    if (kBannedCalls.count(s) != 0) {
      report(out, f, t[i].line, "wall-clock",
             "'" + s + "' reads ambient time; use simulated time instead");
      continue;
    }
    if (s == "time" && text_is(t, i + 1, "(")) {
      // Member access (sim.time()) and non-std qualification are fine; a
      // bare or std-qualified call is the C library wall clock.
      const bool qualified = i >= 1 && t[i - 1].text == "::";
      const bool member = i >= 1 && t[i - 1].text == ".";
      const bool std_qualified =
          qualified && i >= 2 && t[i - 2].text == "std";
      if ((qualified && !std_qualified) || member ||
          (i >= 1 && t[i - 1].kind == TokKind::kIdent)) {
        continue;
      }
      report(out, f, t[i].line, "wall-clock",
             "time() reads the wall clock; use simulated time instead");
    }
  }
}

void check_rand(const SourceFile& f, Diags& out) {
  const auto& t = f.tokens;
  static const std::set<std::string> kBanned = {"rand", "srand", "rand_r",
                                                "drand48", "srand48"};
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent || kBanned.count(t[i].text) == 0) {
      continue;
    }
    if (!text_is(t, i + 1, "(")) continue;
    const bool member = i >= 1 && t[i - 1].text == ".";
    const bool qualified = i >= 1 && t[i - 1].text == "::";
    const bool std_qualified = qualified && i >= 2 && t[i - 2].text == "std";
    if (member || (qualified && !std_qualified)) continue;
    report(out, f, t[i].line, "rand",
           "'" + t[i].text +
               "' draws from hidden global state; use sim::Rng with an "
               "explicit seed");
  }
}

void check_rng_construction(const SourceFile& f, Diags& out) {
  if (f.rel == "src/sim/rng.hpp" || f.rel == "src/sim/rng.cpp") return;
  static const std::set<std::string> kEngines = {
      "mt19937",      "mt19937_64", "minstd_rand",           "minstd_rand0",
      "ranlux24",     "ranlux48",   "default_random_engine", "knuth_b"};
  for (const Token& tok : f.tokens) {
    if (tok.kind != TokKind::kIdent) continue;
    if (tok.text == "random_device") {
      report(out, f, tok.line, "rng-construction",
             "std::random_device is nondeterministic; seed sim::Rng "
             "explicitly instead");
    } else if (kEngines.count(tok.text) != 0) {
      report(out, f, tok.line, "rng-construction",
             "raw <random> engine '" + tok.text +
                 "' outside sim/rng.hpp; use sim::Rng so seeding stays "
                 "auditable");
    }
  }
}

void check_const_cast(const SourceFile& f, Diags& out) {
  for (const Token& tok : f.tokens) {
    if (tok.kind == TokKind::kIdent && tok.text == "const_cast") {
      report(out, f, tok.line, "const-cast",
             "const_cast subverts the const API surface; add a const "
             "overload instead");
    }
  }
}

/// std::unordered_* in src/: iteration order follows the hash and the
/// insertion history, so any walk over one can leak into results.  A flat
/// ban is simpler than tracking every iteration site, and src/ needs none.
void check_unordered_container(const SourceFile& f, Diags& out) {
  if (!starts_with(f.rel, "src/")) return;
  static const std::set<std::string> kUnordered = {
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset"};
  for (const Token& tok : f.tokens) {
    if (tok.kind == TokKind::kIdent && kUnordered.count(tok.text) != 0) {
      report(out, f, tok.line, "unordered-container",
             "std::" + tok.text +
                 " iterates in hash order; use std::map / std::set or a "
                 "sorted vector");
    }
  }
}

void check_pointer_key(const SourceFile& f, Diags& out) {
  const auto& t = f.tokens;
  static const std::set<std::string> kAssoc = {
      "map", "set", "multimap", "multiset", "unordered_map", "unordered_set"};
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (!(is_ident(t, i) && kAssoc.count(t[i].text) != 0 &&
          text_is(t, i + 1, "<"))) {
      continue;
    }
    int depth = 1;
    std::size_t last = 0;
    for (std::size_t j = i + 2; j < t.size(); ++j) {
      if (t[j].text == "<") ++depth;
      if (t[j].text == ">" && --depth == 0) break;
      if (t[j].text == "," && depth == 1) break;
      last = j;
    }
    if (last != 0 && t[last].text == "*") {
      report(out, f, t[i].line, "pointer-key",
             "pointer-keyed '" + t[i].text +
                 "' orders results by allocation address; key by a stable id "
                 "instead");
    }
  }
}

// -------------------------------------------------------- layering rules ----

void check_layering(const SourceFile& f, const Context& ctx, Diags& out) {
  const auto it = layer_allowlist().find(f.module);
  if (it == layer_allowlist().end()) return;  // tests/bench/tools/examples
  if (!starts_with(f.rel, "src/")) return;
  for (const IncludeDirective& inc : f.includes) {
    if (!inc.quoted) continue;
    if (ctx.project_files.count("src/" + inc.path) == 0) continue;
    const auto slash = inc.path.find('/');
    if (slash == std::string::npos) continue;
    const std::string target = inc.path.substr(0, slash);
    if (target == f.module || it->second.count(target) != 0) continue;
    report(out, f, inc.line, "layering",
           "module '" + f.module + "' may not include '" + inc.path +
               "': '" + target + "' is not among its allowed dependencies");
  }
}

void check_include_what_you_use(const SourceFile& f, const Context& ctx,
                                Diags& out) {
  std::set<std::string> used;
  for (const Token& tok : f.tokens) {
    if (tok.kind == TokKind::kIdent) used.insert(tok.text);
  }
  for (const IncludeDirective& inc : f.includes) {
    if (!inc.quoted) continue;
    const auto m = ctx.markers.find(inc.path);
    if (m == ctx.markers.end() || m->second.empty()) continue;
    if (stem_of(inc.path) == stem_of(f.rel)) continue;  // foo.cpp -> foo.hpp
    bool any = false;
    for (const std::string& name : m->second) {
      if (used.count(name) != 0) {
        any = true;
        break;
      }
    }
    if (!any) {
      report(out, f, inc.line, "include-what-you-use",
             "nothing declared in '" + inc.path +
                 "' is referenced here; drop the include");
    }
  }
}

/// Names a header declares, for the include-what-you-use pass.  Extraction
/// is deliberately generous (every callee-position identifier counts), so a
/// header is only flagged when the includer shares *nothing* with it.
std::set<std::string> extract_markers(const SourceFile& f) {
  std::set<std::string> out;
  const auto& t = f.tokens;
  static const std::set<std::string> kNoise = {
      "if",     "else",     "for",       "while",   "switch", "return",
      "sizeof", "alignof",  "decltype",  "case",    "do",     "catch",
      "new",    "delete",   "co_await",  "co_return", "co_yield",
      "throw",  "static_assert", "defined", "assert", "auto", "const",
      "constexpr", "static", "inline", "void", "bool", "int", "char",
      "double", "float", "operator", "requires", "noexcept", "explicit"};
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!is_ident(t, i)) continue;
    const std::string& s = t[i].text;
    if (s == "class" || s == "struct") {
      if (is_ident(t, i + 1)) out.insert(t[i + 1].text);
      continue;
    }
    if (s == "enum") {
      std::size_t j = i + 1;
      if (is_ident(t, j) && (t[j].text == "class" || t[j].text == "struct")) {
        ++j;
      }
      if (is_ident(t, j)) out.insert(t[j].text);
      continue;
    }
    if (s == "using") {
      if (is_ident(t, i + 1) && t[i + 1].text != "namespace" &&
          text_is(t, i + 2, "=")) {
        out.insert(t[i + 1].text);
      }
      continue;
    }
    if (s == "define" && i >= 1 && t[i - 1].text == "#") {
      if (is_ident(t, i + 1)) out.insert(t[i + 1].text);
      continue;
    }
    if (s == "namespace") {
      ++i;  // a namespace name is not a usable marker
      continue;
    }
    if (kNoise.count(s) != 0) continue;
    if (text_is(t, i + 1, "(")) {
      out.insert(s);  // function declaration or call
    } else if ((text_is(t, i + 1, "=") || text_is(t, i + 1, "{")) && i >= 1 &&
               (t[i - 1].kind == TokKind::kIdent || t[i - 1].text == ">" ||
                t[i - 1].text == "&" || t[i - 1].text == "*")) {
      out.insert(s);  // constant / variable declaration
    }
  }
  return out;
}

// ----------------------------------------------------- unit-safety rules ----

/// The typed core: headers whose public surface must speak Bytes/Offset/
/// ServerId.  config.hpp is the declared raw-integer boundary (tunables come
/// from flag parsing), and client.hpp/metadata.hpp form the raw byte API the
/// workloads drive.
bool unit_rule_applies(const std::string& rel) {
  if (rel == "src/pvfs/layout.hpp" || rel == "src/pvfs/server.hpp") {
    return true;
  }
  if (starts_with(rel, "src/stats/") && ends_with(rel, ".hpp")) return true;
  return starts_with(rel, "src/core/") && ends_with(rel, ".hpp") &&
         rel != "src/core/config.hpp";
}

void check_raw_unit_type(const SourceFile& f, Diags& out) {
  if (!unit_rule_applies(f.rel)) return;
  static const std::vector<std::string> kSuspicious = {
      "off", "len", "byte", "size", "capacity", "quota", "server"};
  const auto& t = f.tokens;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (!(is_ident(t, i) &&
          (t[i].text == "int64_t" || t[i].text == "uint64_t"))) {
      continue;
    }
    if (!is_ident(t, i + 1)) continue;  // template arg, cast, unnamed param
    const std::string& name = t[i + 1].text;
    for (const std::string& hint : kSuspicious) {
      if (name.find(hint) != std::string::npos) {
        report(out, f, t[i + 1].line, "raw-unit-type",
               "'" + name +
                   "' looks like a byte quantity but is raw int64; use "
                   "sim::Bytes / sim::Offset / sim::ServerId");
        break;
      }
    }
  }
}

// ------------------------------------------------------ event callbacks ----

/// `std::function<void()>` outside src/sim/: the simulator's callback slot
/// is sim::InlineEvent (48-byte small-buffer, no per-event allocation), and
/// std::function<void()> in model code almost always ends up scheduled on
/// the simulator, re-introducing a heap round-trip per event plus a move
/// through std::function's 16-byte SBO.  src/sim/ itself is exempt — it
/// defines InlineEvent and legitimately uses std::function for non-event
/// signatures.  A hard ban: nothing outside src/sim/ needs an escape.
void check_sim_callback(const SourceFile& f, Diags& out) {
  if (starts_with(f.rel, "src/sim/")) return;
  const auto& t = f.tokens;
  for (std::size_t i = 0; i + 4 < t.size(); ++i) {
    if (is_ident(t, i) && t[i].text == "function" && text_is(t, i + 1, "<") &&
        text_is(t, i + 2, "void") && text_is(t, i + 3, "(") &&
        text_is(t, i + 4, ")")) {
      report(out, f, t[i].line, "sim-callback",
             "std::function<void()> heap-allocates captured state per event; "
             "use sim::InlineEvent (sim/inline_event.hpp)");
    }
  }
}

// ------------------------------------------------------- fault injection ----

/// SsdModel::set_fault_hook outside src/fault/ (and src/storage/, which
/// declares it): every injected latency must flow through the seeded fault
/// engine, or the "same schedule ⇒ same run" guarantee dies.  A hard ban —
/// there is no legitimate ad-hoc installation site.
void check_ssd_fault_hook(const SourceFile& f, Diags& out) {
  if (starts_with(f.rel, "src/storage/") || starts_with(f.rel, "src/fault/")) {
    return;
  }
  for (const Token& tok : f.tokens) {
    if (tok.kind == TokKind::kIdent && tok.text == "set_fault_hook") {
      report(out, f, tok.line, "ssd-fault-hook",
             "installing an SSD fault hook outside src/fault/ bypasses the "
             "deterministic fault engine; declare the fault in a "
             "FaultSchedule instead");
    }
  }
}

// ---------------------------------------------------------- shared state ----

/// shared-global / static-local: every piece of mutable state that outlives
/// one simulation must say why sharing it is safe, because exp::Runner runs
/// simulations on concurrent threads.  Scoped to src/ — tests, bench and
/// tools are single-process entry points.
void check_shared_state(const std::vector<VarSym>& vars, Diags& out) {
  for (const VarSym& v : vars) {
    if (v.is_const || v.shared_ok || !starts_with(v.file, "src/")) continue;
    if (v.kind == VarKind::kFunctionStatic ||
        v.kind == VarKind::kThreadLocal) {
      const char* what = v.kind == VarKind::kThreadLocal
                             ? "thread_local"
                             : "function-local static";
      out.push_back(Diagnostic{
          v.file, v.line, "static-local",
          std::string(what) + " '" + v.name +
              "' is hidden mutable state; hoist it into an owning object, "
              "or annotate shared-ok (reason)"});
    } else {
      const char* what = v.kind == VarKind::kClassStatic
                             ? "static data member"
                             : "namespace-scope variable";
      out.push_back(Diagnostic{
          v.file, v.line, "shared-global",
          std::string(what) + " '" + v.qualified() +
              "' is mutable shared state; make it const, move it into an "
              "owning object, or annotate shared-ok (reason)"});
    }
  }
}

// --------------------------------------------------------- include cycles ----

/// include-cycle: a DFS over each file's quoted project includes.  A cycle
/// is reported once, on the #include line in its smallest file (by path)
/// that points at the next file along the cycle.
class IncludeCycles {
 public:
  IncludeCycles(const std::vector<SourceFile>& files, Diags& out)
      : out_(out) {
    for (const SourceFile& f : files) by_rel_[f.rel] = &f;
    for (const SourceFile& f : files) {
      if (state_[f.rel] == kNew) visit(f);
    }
  }

 private:
  enum State { kNew, kOnStack, kDone };

  // Recursion depth is bounded by the number of files.
  void visit(const SourceFile& f) {
    state_[f.rel] = kOnStack;
    stack_.push_back(&f);
    for (const IncludeDirective& inc : f.includes) {
      if (!inc.quoted) continue;
      const auto next = by_rel_.find("src/" + inc.path);
      if (next == by_rel_.end()) continue;
      const State s = state_[next->first];
      if (s == kOnStack) report(*next->second);
      if (s == kNew) visit(*next->second);
    }
    stack_.pop_back();
    state_[f.rel] = kDone;
  }

  /// The cycle is the stack suffix from `entry`, rotated to start at its
  /// smallest file so every discovery order yields the same report.
  void report(const SourceFile& entry) {
    std::vector<const SourceFile*> cycle(
        std::find(stack_.begin(), stack_.end(), &entry), stack_.end());
    std::rotate(cycle.begin(),
                std::min_element(cycle.begin(), cycle.end(),
                                 [](const SourceFile* a, const SourceFile* b) {
                                   return a->rel < b->rel;
                                 }),
                cycle.end());
    std::string path;
    for (const SourceFile* f : cycle) path += f->rel + " -> ";
    path += cycle.front()->rel;
    if (!reported_.insert(path).second) return;
    const SourceFile& head = *cycle.front();
    const std::string& next = cycle[cycle.size() > 1 ? 1 : 0]->rel;
    int line = 1;
    for (const IncludeDirective& inc : head.includes) {
      if (inc.quoted && "src/" + inc.path == next) {
        line = inc.line;
        break;
      }
    }
    out_.push_back(Diagnostic{head.rel, line, "include-cycle",
                              "project include cycle: " + path});
  }

  Diags& out_;
  std::map<std::string, const SourceFile*> by_rel_;
  std::map<std::string, State> state_;
  std::vector<const SourceFile*> stack_;
  std::set<std::string> reported_;
};

// ------------------------------------------------------------ annotations ----

/// A suppression: an annotation whose key names the rule it silences.
struct Suppression {
  Annotation note;
  std::string rule;  ///< empty when the key is unknown
  bool used = false;
};

/// lint-annotation for the shared-ok marker: it must attach to a
/// shared-state declaration on its own line or the next, and carry a reason.
void audit_shared_ok(const SourceFile& f, const Annotation& a,
                     const std::vector<VarSym>& vars, Diags& out) {
  const bool attached =
      std::any_of(vars.begin(), vars.end(), [&](const VarSym& v) {
        return v.file == f.rel && (v.line == a.line || v.line == a.line + 1);
      });
  if (!attached) {
    report(out, f, a.line, "lint-annotation",
           "'shared-ok' marker matches no shared-state declaration on this "
           "or the next line; delete it");
  } else if (a.payload.empty()) {
    report(out, f, a.line, "lint-annotation",
           "shared-ok is missing its mandatory (reason)");
  }
}

}  // namespace

const std::vector<RuleInfo>& rules() {
  static const std::vector<RuleInfo> kRules = {
      {"wall-clock", "no reads of ambient time; sim time only"},
      {"rand", "no hidden-state C randomness; sim::Rng only"},
      {"rng-construction", "no raw <random> engines outside sim/rng"},
      {"const-cast", "no const_cast; add const overloads"},
      {"unordered-container", "no std::unordered_* containers in src/"},
      {"pointer-key", "no pointer-keyed associative containers"},
      {"layering", "module #includes must follow the DAG"},
      {"include-what-you-use", "project includes must be used"},
      {"raw-unit-type", "typed-core headers use Bytes/Offset/ServerId"},
      {"sim-callback", "event callbacks use sim::InlineEvent, not std::function"},
      {"ssd-fault-hook", "SSD fault hooks are installed only by src/fault/"},
      {"lint-annotation", "suppressions need a known key and a reason"},
      {"shared-global", "no unannotated mutable globals or class statics"},
      {"static-local", "no unannotated static/thread_local function state"},
      {"include-cycle", "the project include graph stays acyclic"},
  };
  return kRules;
}

std::vector<Diagnostic> lint_corpus(const std::vector<SourceFile>& files) {
  Context ctx;
  for (const SourceFile& f : files) {
    ctx.project_files.insert(f.rel);
    if (starts_with(f.rel, "src/") && ends_with(f.rel, ".hpp")) {
      ctx.markers[f.rel.substr(4)] = extract_markers(f);
    }
  }
  const std::vector<VarSym> vars = build_index(files);

  // Corpus-wide rules have no suppression key, so their findings go
  // straight to the output.
  Diags all;
  check_shared_state(vars, all);
  IncludeCycles(files, all);  // reports each cycle as the search finds it

  for (const SourceFile& f : files) {
    Diags raw;
    check_wall_clock(f, raw);
    check_rand(f, raw);
    check_rng_construction(f, raw);
    check_const_cast(f, raw);
    check_unordered_container(f, raw);
    check_pointer_key(f, raw);
    check_layering(f, ctx, raw);
    check_include_what_you_use(f, ctx, raw);
    check_raw_unit_type(f, raw);
    check_sim_callback(f, raw);
    check_ssd_fault_hook(f, raw);

    std::vector<Suppression> sups;
    for (Annotation& a : parse_annotations(f)) {
      if (a.key == "shared-ok") {
        audit_shared_ok(f, a, vars, all);
        continue;
      }
      const auto it = suppression_keys().find(a.key);
      sups.push_back(Suppression{
          std::move(a),
          it == suppression_keys().end() ? std::string() : it->second});
    }
    for (Diagnostic& d : raw) {
      bool suppressed = false;
      for (Suppression& s : sups) {
        if (s.rule == d.rule &&
            (s.note.line == d.line || s.note.line + 1 == d.line)) {
          s.used = true;
          suppressed = true;
        }
      }
      if (!suppressed) all.push_back(std::move(d));
    }
    for (const Suppression& s : sups) {
      const Annotation& a = s.note;
      if (s.rule.empty()) {
        report(all, f, a.line, "lint-annotation",
               "unknown suppression key '" + a.key + "'");
      } else if (a.payload.empty()) {
        report(all, f, a.line, "lint-annotation",
               "suppression '" + a.key + "' is missing its mandatory (reason)");
      } else if (!s.used) {
        report(all, f, a.line, "lint-annotation",
               "suppression '" + a.key +
                   "' matches no diagnostic on this or the next line; "
                   "delete it");
      }
    }
  }

  std::sort(all.begin(), all.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  return all;
}

std::vector<SourceFile> load_tree(const std::string& root) {
  namespace fs = std::filesystem;
  std::vector<SourceFile> files;
  for (const char* top : {"src", "tests", "bench", "tools", "examples"}) {
    const fs::path dir = fs::path(root) / top;
    if (!fs::exists(dir)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(dir)) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (ext != ".hpp" && ext != ".cpp") continue;
      const std::string rel =
          fs::relative(entry.path(), root).generic_string();
      if (rel.find("lint_fixtures") != std::string::npos) continue;
      std::ifstream in(entry.path());
      std::ostringstream text;
      text << in.rdbuf();
      files.push_back(lex_source(rel, text.str()));
    }
  }
  // Directory iteration order is filesystem-dependent; the corpus is not.
  std::sort(files.begin(), files.end(),
            [](const SourceFile& a, const SourceFile& b) {
              return a.rel < b.rel;
            });
  return files;
}

std::vector<Diagnostic> lint_tree(const std::string& root) {
  return lint_corpus(load_tree(root));
}

}  // namespace ibridge::lint
