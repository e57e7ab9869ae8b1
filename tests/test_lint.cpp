// Tests for ibridge-lint: every rule has a fixture that fires exactly that
// rule, and the clean fixture is silent.  The repository itself is linted by
// the `lint.tree` ctest entry.
#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "lint/index.hpp"
#include "lint/lint.hpp"

namespace ibridge::lint {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::string fixture_path(const std::string& name) {
  return std::string(LINT_FIXTURE_DIR) + "/" + name;
}

std::string dump(const std::vector<Diagnostic>& diags) {
  std::ostringstream out;
  for (const auto& d : diags) {
    out << "\n  " << d.file << ":" << d.line << ": [" << d.rule << "] "
        << d.message;
  }
  return out.str();
}

/// Lints one fixture together with the helper header, so layering and
/// include-what-you-use see a real project header.
std::vector<Diagnostic> lint_fixture(const std::string& file,
                                     const std::string& rel) {
  std::vector<SourceFile> corpus;
  corpus.push_back(
      lex_source("src/core/widget.hpp", slurp(fixture_path("widget.hpp"))));
  corpus.push_back(lex_source(rel, slurp(fixture_path(file))));
  return lint_corpus(corpus);
}

struct FixtureCase {
  const char* file;
  const char* rel;   ///< path the fixture pretends to live at
  const char* rule;  ///< the one rule expected to fire
};

const std::vector<FixtureCase>& cases() {
  static const std::vector<FixtureCase> kCases = {
      {"wall_clock.cc", "src/sim/fixture_clock.cpp", "wall-clock"},
      {"rand.cc", "src/sim/fixture_rand.cpp", "rand"},
      {"rng_construction.cc", "src/core/fixture_rng.cpp", "rng-construction"},
      {"const_cast.cc", "src/core/fixture_cc.cpp", "const-cast"},
      {"unordered_container.cc", "src/core/fixture_uo.cpp",
       "unordered-container"},
      {"pointer_key.cc", "src/core/fixture_pk.cpp", "pointer-key"},
      {"layering.cc", "src/sim/fixture_layer.cpp", "layering"},
      {"iwyu.cc", "src/cluster/fixture_iwyu.cpp", "include-what-you-use"},
      {"raw_unit.cc", "src/core/fixture_raw.hpp", "raw-unit-type"},
      {"sim_callback.cc", "src/core/fixture_simcb.cpp", "sim-callback"},
      {"ssd_fault.cc", "src/core/fixture_fault.cpp", "ssd-fault-hook"},
      {"suppression_no_reason.cc", "src/core/fixture_s1.hpp",
       "lint-annotation"},
      {"suppression_unknown.cc", "src/core/fixture_s2.hpp",
       "lint-annotation"},
      {"suppression_unused.cc", "src/core/fixture_s3.hpp",
       "lint-annotation"},
      {"shared_global.cc", "src/core/fixture_sg.cpp", "shared-global"},
      {"static_local.cc", "src/core/fixture_sl.cpp", "static-local"},
      {"include_cycle.cc", "src/core/fixture_cycle.hpp", "include-cycle"},
  };
  return kCases;
}

TEST(LintFixtures, EachFixtureFiresExactlyItsRule) {
  for (const auto& c : cases()) {
    const auto diags = lint_fixture(c.file, c.rel);
    ASSERT_EQ(diags.size(), 1u) << c.file << dump(diags);
    EXPECT_EQ(diags[0].rule, c.rule) << c.file << dump(diags);
    EXPECT_EQ(diags[0].file, c.rel) << c.file;
    EXPECT_GT(diags[0].line, 0) << c.file;
    // Linting the same corpus again reproduces every finding exactly.
    EXPECT_EQ(dump(lint_fixture(c.file, c.rel)), dump(diags)) << c.file;
  }
}

TEST(LintFixtures, CleanFixtureIsSilent) {
  const auto diags = lint_fixture("clean.cc", "src/core/fixture_clean.hpp");
  EXPECT_TRUE(diags.empty()) << dump(diags);
}

TEST(LintFixtures, EveryRegisteredRuleHasAFixture) {
  std::set<std::string> covered;
  for (const auto& c : cases()) covered.insert(c.rule);
  std::set<std::string> registered;
  for (const auto& r : rules()) registered.insert(r.id);
  // Both ways: a rule without a fixture is untested, and a fixture for an
  // unregistered rule outlived its rule.
  EXPECT_EQ(covered, registered);
}

TEST(LintLexer, TracksLinesStringsAndIncludes) {
  const auto f = lex_source("src/sim/lexed.cpp",
                            "#include \"sim/units.hpp\"\n"
                            "#include <vector>\n"
                            "const char* s = \"not an ident: rand(\";\n"
                            "int x = 0;  // trailing comment\n");
  ASSERT_EQ(f.includes.size(), 2u);
  EXPECT_EQ(f.includes[0].path, "sim/units.hpp");
  EXPECT_TRUE(f.includes[0].quoted);
  EXPECT_FALSE(f.includes[1].quoted);
  EXPECT_EQ(f.module, "sim");
  ASSERT_EQ(f.comments.size(), 1u);
  EXPECT_EQ(f.comments[0].line, 4);
  // The banned name inside a string literal is not an identifier token.
  bool saw_rand_ident = false;
  for (const auto& tok : f.tokens) {
    if (tok.kind == TokKind::kIdent && tok.text == "rand") {
      saw_rand_ident = true;
    }
  }
  EXPECT_FALSE(saw_rand_ident);
}

// ---------------------------------------------------- shared-state index ----

TEST(LintIndex, BuildsSymbolsAndAttachesAnnotations) {
  std::vector<SourceFile> fs;
  fs.push_back(lex_source("src/core/sample.hpp",
                          "namespace ibridge::core {\n"
                          "class Gadget {\n"
                          " public:\n"
                          "  int fast_path() {\n"
                          "    static int calls = 0;\n"
                          "    return ++calls;\n"
                          "  }\n"
                          "  int helper();\n"
                          "  static int s_uses;\n"
                          "};\n"
                          "// lint: shared-ok (test tuning knob)\n"
                          "inline int g_tuning = 4;\n"
                          "thread_local int g_scratch = 0;\n"
                          "constexpr int kLimit = 8;\n"
                          "}  // namespace\n"));
  const auto vars = build_index(fs);

  ASSERT_EQ(vars.size(), 5u);
  EXPECT_EQ(vars[0].name, "calls");
  EXPECT_EQ(vars[0].kind, VarKind::kFunctionStatic);
  EXPECT_EQ(vars[0].line, 5);
  EXPECT_EQ(vars[1].qualified(), "ibridge::core::Gadget::s_uses");
  EXPECT_EQ(vars[1].kind, VarKind::kClassStatic);
  EXPECT_EQ(vars[2].name, "g_tuning");
  EXPECT_EQ(vars[2].kind, VarKind::kGlobal);
  EXPECT_TRUE(vars[2].shared_ok);  // attached from the line above
  EXPECT_FALSE(vars[2].is_const);
  EXPECT_EQ(vars[3].name, "g_scratch");
  EXPECT_EQ(vars[3].kind, VarKind::kThreadLocal);
  EXPECT_FALSE(vars[3].shared_ok);
  EXPECT_EQ(vars[4].name, "kLimit");
  EXPECT_TRUE(vars[4].is_const);
}

}  // namespace
}  // namespace ibridge::lint
