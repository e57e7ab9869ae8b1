#include "exp/gauge.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace ibridge::exp {

namespace {

/// Round-trip double formatting: shortest-ish, locale-independent, and —
/// what the determinism tests rely on — a pure function of the bits.
void append_number(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

void append_section(std::string& out, const char* key,
                    const std::map<std::string, double>& rows) {
  out += "  \"";
  out += key;
  out += "\": {";
  bool first = true;
  for (const auto& [name, value] : rows) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"";
    out += name;  // metric names are [A-Za-z0-9._-]; no escaping needed
    out += "\": ";
    append_number(out, value);
  }
  out += rows.empty() ? "}" : "\n  }";
}

}  // namespace

std::string Gauge::json(bool include_wall) const {
  std::string out;
  out += "{\n";
  out += "  \"bench\": \"" + name_ + "\",\n";
  out += "  \"schema\": \"";
  out += kSchema;
  out += "\",\n";
  append_section(out, "model", model_);
  if (include_wall) {
    out += ",\n";
    append_section(out, "wall", wall_);
  }
  out += "\n}\n";
  return out;
}

void Gauge::write_json(std::ostream& os, bool include_wall) const {
  os << json(include_wall);
}

double peak_rss_mb_rusage() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
#if defined(__APPLE__)
  return static_cast<double>(ru.ru_maxrss) / 1e6;  // bytes on Darwin
#else
  return static_cast<double>(ru.ru_maxrss) * 1e3 / 1e6;  // KB on Linux
#endif
#else
  return 0.0;
#endif
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  if (status) {
    std::string line;
    while (std::getline(status, line)) {
      if (line.rfind("VmHWM:", 0) != 0) continue;
      // "VmHWM:    12345 kB"
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb * 1e3 / 1e6;
    }
  }
  // No procfs (non-Linux hosts, hardened mounts): fall back to getrusage.
  return peak_rss_mb_rusage();
}

bool Gauge::write_file(const std::string& dir) const {
  const std::string path = dir + "/BENCH_" + name_ + ".json";
  std::ofstream os(path);
  if (!os) return false;
  os << json(/*include_wall=*/true);
  return static_cast<bool>(os);
}

}  // namespace ibridge::exp
