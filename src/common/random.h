// Deterministic PRNG used by the workload generators and property tests.
//
// All randomized documents and queries in tests and benchmarks are
// reproducible from a seed; std::mt19937_64 could differ across standard
// libraries only in distribution helpers, so we implement the distributions
// ourselves.

#ifndef VITEX_COMMON_RANDOM_H_
#define VITEX_COMMON_RANDOM_H_

#include <cstdint>
#include <string>

namespace vitex {

/// SplitMix64: tiny, fast, high-quality 64-bit PRNG with portable output.
class Random {
 public:
  explicit Random(uint64_t seed = 0x9e3779b97f4a7c15ull) : state_(seed) {}

  /// Next raw 64-bit value.
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  /// Uniform integer in [0, bound); bound must be > 0.
  uint64_t Uniform(uint64_t bound) { return Next() % bound; }

  /// Uniform integer in [lo, hi] inclusive.
  int64_t UniformRange(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Uniform(static_cast<uint64_t>(hi - lo + 1)));
  }

  /// Bernoulli trial with probability `p` (clamped to [0,1]).
  bool OneIn(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return NextDouble() < p;
  }

  /// Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
  }

  /// Random lowercase ASCII identifier of the given length.
  std::string NextName(size_t length) {
    std::string out;
    out.reserve(length);
    for (size_t i = 0; i < length; ++i) {
      out.push_back(static_cast<char>('a' + Uniform(26)));
    }
    return out;
  }

 private:
  uint64_t state_;
};

}  // namespace vitex

#endif  // VITEX_COMMON_RANDOM_H_
