// ibridge-lint — the project's static analyzer.
//
//   ibridge-lint <repo-root>               lint the whole tree (token rules
//                                          + the cross-file semantic pass)
//   ibridge-lint --list-rules              print the rule registry
//   ibridge-lint --audit-suppressions <repo-root>
//                                          list every `lint:` annotation with
//                                          file/line/reason; exit 1 on any
//                                          reason-less suppression
//   --json                                 machine-readable findings, one
//                                          JSON object per line
//
// Exit status is the number of diagnostics, clamped to 125, so any finding
// fails the build.  See docs/LINT.md for the rules and escape hatches.
#include <algorithm>
#include <cstdio>
#include <string>

#include "lint/index.hpp"
#include "lint/lint.hpp"

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out;
}

int run_audit(const std::string& root) {
  const auto files = ibridge::lint::load_tree(root);
  int missing = 0;
  int total = 0;
  for (const auto& f : files) {
    for (const auto& a : ibridge::lint::parse_annotations(f)) {
      ++total;
      // no-alloc is a bare marker; every other key carries a mandatory
      // reason.
      const bool needs_payload = a.key != "no-alloc";
      const bool blank =
          a.payload.find_first_not_of(" \t") == std::string::npos;
      const bool bad = needs_payload && blank;
      std::printf("%s:%d: %-24s %s%s\n", f.rel.c_str(), a.line,
                  a.key.c_str(), a.payload.empty() ? "-" : a.payload.c_str(),
                  bad ? "   <-- missing reason" : "");
      if (bad) ++missing;
    }
  }
  std::printf("ibridge-lint: %d annotation(s), %d missing a reason\n", total,
              missing);
  return missing == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  bool json = false;
  bool audit = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-rules") {
      for (const auto& r : ibridge::lint::rules()) {
        std::printf("%-22s %s\n", r.id.c_str(), r.summary.c_str());
      }
      return 0;
    }
    if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: ibridge-lint [--json] [--audit-suppressions] "
          "[<repo-root>]\n"
          "       ibridge-lint --list-rules\n");
      return 0;
    }
    if (arg == "--json") {
      json = true;
      continue;
    }
    if (arg == "--audit-suppressions") {
      audit = true;
      continue;
    }
    if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "ibridge-lint: unknown flag %s\n", arg.c_str());
      return 2;
    }
    root = arg;
  }

  if (audit) return run_audit(root);

  const auto diags = ibridge::lint::lint_tree(root);
  for (const auto& d : diags) {
    if (json) {
      std::printf(
          "{\"file\":\"%s\",\"line\":%d,\"rule\":\"%s\",\"message\":\"%s\"}\n",
          json_escape(d.file).c_str(), d.line, json_escape(d.rule).c_str(),
          json_escape(d.message).c_str());
    } else {
      std::printf("%s:%d: [%s] %s\n", d.file.c_str(), d.line, d.rule.c_str(),
                  d.message.c_str());
    }
  }
  if (diags.empty()) {
    if (!json) std::printf("ibridge-lint: clean\n");
    return 0;
  }
  if (!json) {
    std::printf("ibridge-lint: %zu diagnostic(s)\n", diags.size());
  }
  return static_cast<int>(std::min<std::size_t>(diags.size(), 125));
}
