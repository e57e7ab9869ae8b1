#include "obs/metrics.hpp"

#include <algorithm>
#include <numeric>
#include <ostream>

namespace ibridge::obs {

std::vector<MetricRow> MetricsRegistry::flatten(
    std::vector<MetricKind>* kinds) const {
  struct Entry {
    MetricRow row;
    MetricKind kind;
  };
  std::vector<Entry> entries;
  entries.reserve(counters_.size() + gauges_.size() + 6 * histograms_.size());
  for (const auto& [name, v] : counters_) {
    entries.push_back({{name, static_cast<double>(v)}, MetricKind::kCounter});
  }
  for (const auto& [name, v] : gauges_) {
    entries.push_back({{name, v}, MetricKind::kGauge});
  }
  for (const auto& [name, h] : histograms_) {
    entries.push_back({{name + ".count", static_cast<double>(h.count())},
                       MetricKind::kCounter});
    entries.push_back({{name + ".mean", h.mean()}, MetricKind::kGauge});
    entries.push_back({{name + ".p50", h.percentile(50.0)},
                       MetricKind::kGauge});
    entries.push_back({{name + ".p95", h.percentile(95.0)},
                       MetricKind::kGauge});
    entries.push_back({{name + ".p99", h.percentile(99.0)},
                       MetricKind::kGauge});
    entries.push_back({{name + ".max", h.max()}, MetricKind::kGauge});
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) {
              return a.row.first < b.row.first;
            });
  std::vector<MetricRow> rows;
  rows.reserve(entries.size());
  if (kinds) {
    kinds->clear();
    kinds->reserve(entries.size());
  }
  for (auto& e : entries) {
    rows.push_back(std::move(e.row));
    if (kinds) kinds->push_back(e.kind);
  }
  return rows;
}

void MetricsRegistry::write_csv(std::ostream& os) const {
  os << "name,value\n";
  for (const auto& [name, value] : flatten()) {
    os << name << ',' << value << '\n';
  }
}

void TimeSeries::sample(sim::SimTime when, const MetricsRegistry& reg) {
  std::vector<MetricKind> kinds;
  const auto rows = reg.flatten(&kinds);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const std::string& name = rows[i].first;
    if (column_index_.count(name) != 0) continue;
    column_index_.emplace(name, columns_.size());
    columns_.push_back(name);
    kinds_.push_back(kinds[i]);
  }
  std::vector<double> cells(columns_.size(), 0.0);
  for (const auto& [name, value] : rows) {
    cells[column_index_.at(name)] = value;
  }
  samples_.emplace_back(when, std::move(cells));
}

void TimeSeries::write_csv(std::ostream& os) const {
  os << "time_ms";
  for (const auto& c : columns_) os << ',' << c;
  os << '\n';
  for (const auto& [when, cells] : samples_) {
    os << when.to_millis();
    // Early rows may predate late-appearing columns.  A missing counter
    // cell really was 0; a missing gauge was unknown, so emit an empty
    // cell rather than a false zero (see header).
    for (std::size_t i = 0; i < columns_.size(); ++i) {
      os << ',';
      if (i < cells.size()) {
        os << cells[i];
      } else if (kinds_[i] == MetricKind::kCounter) {
        os << 0.0;
      }
    }
    os << '\n';
  }
}

}  // namespace ibridge::obs
