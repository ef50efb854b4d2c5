// Prometheus text-exposition serializer (DESIGN.md §10).
//
// PrometheusWriter appends series in the Prometheus text format
// (https://prometheus.io/docs/instrumenting/exposition_formats/): one
// `# HELP` / `# TYPE` header per metric name, then `name{labels} value`
// lines. Histograms render as cumulative `name_bucket{le="..."}` series
// plus `name_sum` / `name_count`, followed by p50/p90/p99/max summary
// gauges under `name_p50` etc. — separate metric names, so the output
// stays strictly parseable while putting the latency headline on one
// greppable line.
//
// The writer is deliberately independent of Registry: vitex::Service uses
// it directly to expose snapshot-derived values (ServiceStats counters,
// per-shard DispatchStats, queue watermarks) alongside the registry's
// hot-path metrics in one /statsz payload.

#ifndef VITEX_OBS_PROMETHEUS_H_
#define VITEX_OBS_PROMETHEUS_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "obs/metrics.h"

namespace vitex::obs {

class PrometheusWriter {
 public:
  /// Appends one counter series. The HELP/TYPE header is emitted the
  /// first time each metric name is written; pass `help` consistently.
  void WriteCounter(std::string_view name, std::string_view help,
                    const Labels& labels, uint64_t value);

  void WriteGauge(std::string_view name, std::string_view help,
                  const Labels& labels, double value);

  /// Appends a full histogram: cumulative buckets (only bounds where the
  /// cumulative count changes, plus the mandatory +Inf), _sum, _count,
  /// then name_p50/name_p90/name_p99/name_max summary gauges.
  void WriteHistogram(std::string_view name, std::string_view help,
                      const Labels& labels, const HistogramSnapshot& snapshot);

  /// The exposition text accumulated so far.
  const std::string& text() const { return out_; }
  std::string TakeText() { return std::move(out_); }

 private:
  void Header(std::string_view name, std::string_view help,
              std::string_view type);
  void Series(std::string_view name, const Labels& labels, double value);
  void SeriesInt(std::string_view name, const Labels& labels, uint64_t value);
  void SeriesPrefix(std::string_view name, const Labels& labels);

  std::string out_;
  std::string last_header_;  // metric name the last HELP/TYPE was for
};

}  // namespace vitex::obs

#endif  // VITEX_OBS_PROMETHEUS_H_
