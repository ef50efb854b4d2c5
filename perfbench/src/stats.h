// Measurement helpers: a concurrent log-linear latency histogram, exact
// percentiles over small sample vectors, process resource readings, and
// the in-memory span recorder of the traced run.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t Nanos(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

/// Latencies in ns with 1/1024 relative precision, recorded from any
/// thread with one relaxed increment. Quantiles interpolate inside the
/// bucket by rank, so they read as measured rather than as bucket edges.
class LatencyHistogram {
 public:
  static constexpr int kSubBits = 10;
  static constexpr int kSub = 1 << kSubBits;
  static constexpr int kOctaves = 32;  // up to 2^41 ns, about 36 minutes

  LatencyHistogram()
      : buckets_(new std::atomic<uint64_t>[kSub * (kOctaves + 1)]) {
    for (int i = 0; i < kSub * (kOctaves + 1); ++i) buckets_[i] = 0;
  }

  void Record(int64_t nanos) {
    const uint64_t v = nanos < 0 ? 0 : static_cast<uint64_t>(nanos);
    buckets_[Index(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
  }

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }

  /// Quantile q in [0,1], in ns; 0 when empty.
  double Quantile(double q) const {
    const uint64_t n = count();
    if (n == 0) return 0;
    const double rank = q * static_cast<double>(n - 1);
    uint64_t seen = 0;
    for (int i = 0; i < kSub * (kOctaves + 1); ++i) {
      const uint64_t c = buckets_[i].load(std::memory_order_relaxed);
      if (c == 0) continue;
      if (static_cast<double>(seen + c) > rank) {
        const double lo = static_cast<double>(Lower(i));
        const double width = static_cast<double>(Lower(i + 1)) - lo;
        return lo + width * (rank - static_cast<double>(seen) + 0.5) /
                        static_cast<double>(c);
      }
      seen += c;
    }
    return static_cast<double>(Lower(kSub * (kOctaves + 1)));
  }

 private:
  static int Index(uint64_t v) {
    if (v < static_cast<uint64_t>(kSub)) return static_cast<int>(v);
    const int top = 63 - __builtin_clzll(v);  // >= kSubBits
    const int shift = top - kSubBits;
    if (shift >= kOctaves) return kSub * (kOctaves + 1) - 1;
    return (shift + 1) * kSub + static_cast<int>((v >> shift) - kSub);
  }
  static uint64_t Lower(int index) {
    if (index < kSub) return static_cast<uint64_t>(index);
    const int shift = index / kSub - 1;
    return (static_cast<uint64_t>(kSub) + index % kSub) << shift;
  }

  std::unique_ptr<std::atomic<uint64_t>[]> buckets_;
  std::atomic<uint64_t> count_{0};
};

/// Exact quantile (linear interpolation) of a sample vector.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - lo);
}

/// User + system CPU time of the whole process, in ms.
inline double ProcessCpuMs() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(usage.ru_utime) + ms(usage.ru_stime);
}

/// Restarts the process's peak resident set at its current size (Linux
/// clear_refs "5"), so that memory freed earlier stops counting. Returns
/// false when the kernel does not allow it.
inline bool ResetPeakRss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

/// Peak resident set of the process since the last ResetPeakRss(), in MiB
/// (VmHWM; the rusage lifetime peak where /proc is unavailable).
inline double PeakRssMiB() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
    }
    std::fclose(f);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// One traced interval. `request` is the publication (document) number or,
/// for the ledger, the template index; -1 when the span serves no single
/// document. `parent` names the span of the same request that encloses
/// this one (empty = a root).
struct Span {
  const char* name = "";
  int64_t start = 0;
  int64_t end = 0;
  int64_t request = -1;
  const char* parent = "";
};

/// Spans kept in memory, appended from any thread, written at exit. A
/// disabled recorder costs one branch per call site.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on); }

  void Add(const char* name, Clock::time_point start, Clock::time_point end,
           int64_t request = -1, const char* parent = "") {
    if (!enabled()) return;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{name, Nanos(start), Nanos(end), request, parent});
  }

  std::vector<Span> Snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return {spans_.begin(), spans_.end()};
  }

 private:
  std::atomic<bool> enabled_;
  mutable std::mutex mu_;
  // A deque: appending never copies the spans already kept, so a recorder
  // holding hundreds of thousands of spans never stalls a caller.
  std::deque<Span> spans_;  // guarded by mu_
};

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
