// ibridge-lint — the project's static analyzer.
//
//   ibridge-lint [<repo-root>]   lint the whole tree (default ".")
//   ibridge-lint --list-rules    print the rule registry
//
// Exit status is the number of diagnostics, clamped to 125, so any finding
// fails the build; an unknown flag exits 2.  See docs/LINT.md for the rules
// and escape hatches.
#include <algorithm>
#include <cstdio>
#include <string>

#include "lint/lint.hpp"

int main(int argc, char** argv) {
  std::string root = ".";
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
          "usage: ibridge-lint [<repo-root>]\n"
          "       ibridge-lint --list-rules\n");
      return 0;
    }
    if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "ibridge-lint: unknown flag %s\n", arg.c_str());
      return 2;
    }
    root = arg;
  }

  const auto diags = ibridge::lint::lint_tree(root);
  for (const auto& d : diags) {
    std::printf("%s:%d: [%s] %s\n", d.file.c_str(), d.line, d.rule.c_str(),
                d.message.c_str());
  }
  if (diags.empty()) {
    std::printf("ibridge-lint: clean\n");
    return 0;
  }
  std::printf("ibridge-lint: %zu diagnostic(s)\n", diags.size());
  return static_cast<int>(std::min<std::size_t>(diags.size(), 125));
}
