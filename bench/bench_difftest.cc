// Throughput of the differential oracle itself: cross-checks per second
// over each workload, with and without the vitex::Service route (the only
// route that spins up threads per check). This bounds what an overnight
// difftest_main campaign can cover and flags regressions that would
// silently shrink nightly fuzz coverage.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "common/random.h"
#include "difftest/oracle.h"
#include "difftest/query_fuzzer.h"
#include "difftest/workload_corpus.h"

namespace {

using vitex::Random;
using vitex::difftest::Oracle;
using vitex::difftest::OracleOptions;
using vitex::difftest::QueryFuzzer;
using vitex::difftest::WorkloadKind;

void BM_OracleCheckBatch(benchmark::State& state) {
  WorkloadKind kind = static_cast<WorkloadKind>(state.range(0));
  bool with_service = state.range(1) != 0;

  // A fixed pool of (document, batch) cases so iterations measure the
  // oracle, not the generators.
  Random rng(1234);
  QueryFuzzer fuzzer(vitex::difftest::WorkloadAlphabet(kind));
  constexpr int kCases = 8;
  std::vector<std::string> docs;
  std::vector<std::vector<std::string>> batches;
  for (int i = 0; i < kCases; ++i) {
    docs.push_back(vitex::difftest::GenerateWorkloadDocument(
        kind, 100 + static_cast<uint64_t>(i), &rng));
    std::vector<std::string> batch;
    for (int q = 0; q < 4; ++q) batch.push_back(fuzzer.Next(&rng));
    batches.push_back(std::move(batch));
  }
  const std::vector<std::string> decoys = {"//*"};

  OracleOptions options;
  options.max_shards = with_service ? 4 : 0;
  Oracle oracle(options);
  int divergent = 0;
  size_t i = 0;
  for (auto _ : state) {
    auto d = oracle.CheckBatch(batches[i % kCases], decoys, docs[i % kCases]);
    if (d.has_value()) ++divergent;
    ++i;
  }
  if (divergent > 0) state.SkipWithError("oracle found divergences");
  state.counters["checks_per_sec"] = benchmark::Counter(
      static_cast<double>(oracle.checks_run()), benchmark::Counter::kIsRate);
  state.SetLabel(std::string(vitex::difftest::WorkloadName(kind)) +
                 (with_service ? "/with_service" : "/no_service"));
}

}  // namespace

BENCHMARK(BM_OracleCheckBatch)
    ->ArgNames({"workload", "service"})
    ->ArgsProduct({{static_cast<long>(WorkloadKind::kProtein),
                    static_cast<long>(WorkloadKind::kBooks),
                    static_cast<long>(WorkloadKind::kXmark),
                    static_cast<long>(WorkloadKind::kRecursive),
                    static_cast<long>(WorkloadKind::kRandom)},
                   {0, 1}})
    ->Unit(benchmark::kMillisecond);

VITEX_BENCH_MAIN("difftest");
