// perfbench: the repository benchmark program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --window W --rate R
//             [--spans FILE] [--inject drop | stall:MS | slowgen:US]
//
// Untraced (--trace 0): builds the seeded corpus and its oracle, sets the
// system up repeatedly, runs a closed loop of W documents in flight for
// 2S/3 seconds and an open loop at R documents/s for S/3 seconds, with
// subscribe/unsubscribe pairs churning beside both, then sets the system
// up repeatedly again (setup_s is the median of all set-ups). Prints the
// end-to-end metrics.
//
// Traced (--trace 1): the same workload and seed with the benchmark's
// spans on, plus the cumulative per-document ledger — parse into a null
// handler, parse + record, replay into one engine holding every standing
// subscription, in-process service end to end, loopback end to end —
// and the counters each layer exposes. Prints the per-layer metrics and
// each layer's self time.
//
// Every delivery of every run is checked against the oracle. The last line
// of standard output is one JSON object: correct, attempted, failed and
// the metrics. The exit code is nonzero when any check failed.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "corpus.h"
#include "harness.h"
#include "stats.h"
#include "twigm/multi_query.h"
#include "xml/event_log.h"
#include "xml/sax_parser.h"
#include "xml/simd_scan.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

// setup_s is the median of the set-ups of two bursts, one before the loops
// and one after them, so that it samples the host across the run. A burst
// makes at least kMinSetupReps set-ups, and more (up to kMaxSetupReps)
// while they fit in kSetupBudgetS.
constexpr int kMinSetupReps = 5;
constexpr int kMaxSetupReps = 1000;
constexpr double kSetupBudgetS = 3.0;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int window = 1;
  double rate = 0;
  std::string spans_path;
  Injection inject;
};

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") args.workload = value;
    else if (flag == "--seed") args.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--seconds") args.seconds = std::atof(value.c_str());
    else if (flag == "--trace") args.trace = value == "1";
    else if (flag == "--window") args.window = std::atoi(value.c_str());
    else if (flag == "--rate") args.rate = std::atof(value.c_str());
    else if (flag == "--spans") args.spans_path = value;
    else if (flag == "--inject") {
      if (value == "drop") args.inject.drop_one = true;
      else if (value.rfind("stall:", 0) == 0) args.inject.stall_ms = std::atoll(value.c_str() + 6);
      else if (value.rfind("slowgen:", 0) == 0) args.inject.slow_gen_us = std::atoll(value.c_str() + 8);
      else Usage("unknown injection " + value);
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (args.workload.empty()) Usage("--workload is required");
  if (args.seconds <= 0 || args.rate <= 0 || args.window < 1) {
    Usage("--seconds, --rate and --window must be positive");
  }
  return args;
}

// Metrics in print order. The JSON line carries the ones added with Add;
// Print also shows the ones added with Show (printed, not in the result).
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    entries_.push_back({name, value, unit, note, true});
  }
  void Show(const std::string& name, double value, const std::string& unit,
            const std::string& note = "") {
    entries_.push_back({name, value, unit, note, false});
  }
  void Print() const {
    for (const Entry& e : entries_) {
      std::printf("  %-36s %14.6g %-8s %s\n", e.name.c_str(), e.value,
                  e.unit.c_str(), e.note.c_str());
    }
  }
  std::string Json() const {
    std::string out;
    for (const Entry& e : entries_) {
      if (!e.in_result) continue;
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g", e.value);
      out += (out.empty() ? "\"" : ", \"") + e.name + "\": {\"value\": " +
             value + ", \"unit\": \"" + e.unit + "\"}";
    }
    return "{" + out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
    std::string note;
    bool in_result;
  };
  std::vector<Entry> entries_;
};

struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  // cross-check disagreements, divergences
};

void Absorb(const Args& args, const char* step, const Instance& inst,
            Outcome* out) {
  out->attempted += inst.attempted();
  out->failed += inst.failed();
  for (const std::string& e : inst.CrossCheckErrors()) {
    out->errors.push_back(std::string(step) + ": counter cross-check: " + e);
  }
  const Divergence& d = inst.divergence();
  if (d.set) {
    out->errors.push_back(
        std::string(step) + ": first divergence (workload " + args.workload +
        ", seed " + std::to_string(args.seed) + ", doc " +
        std::to_string(d.pub) + ", subscription " +
        std::to_string(d.subscription) + "): " + d.what);
  }
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// `vitex_stage_<stage>_nanos_<suffix>` from a /statsz payload, in us.
double StageMicros(const std::string& statsz, const std::string& stage,
                   const std::string& suffix) {
  const std::string key = "vitex_stage_" + stage + "_nanos_" + suffix + " ";
  const size_t at = statsz.find("\n" + key);
  if (at == std::string::npos) return 0;
  return std::atof(statsz.c_str() + at + 1 + key.size()) / 1e3;
}

std::string HostStamp(const Args& args) {
  char line[512];
  std::snprintf(
      line, sizeof(line),
      "{\"nproc\": %ld, \"build_type\": \"%s\", \"compiler\": \"%s\", "
      "\"scan\": \"%s\", \"workload\": \"%s\", \"seed\": %llu}",
      sysconf(_SC_NPROCESSORS_ONLN), PERFBENCH_BUILD_TYPE,
#if defined(__clang__)
      "clang " __clang_version__,
#elif defined(__GNUC__)
      "gcc " __VERSION__,
#else
      "unknown",
#endif
      std::string(vitex::xml::scan::ScanModeName(
                      vitex::xml::scan::ActiveScanMode()))
          .c_str(),
      args.workload.c_str(), static_cast<unsigned long long>(args.seed));
  return line;
}

// --- untraced run: the end-to-end metrics ---------------------------------

// One burst of set-ups; each instance's deliveries are checked, and `inst`
// is left holding the last one, set up. False when a set-up failed.
bool SetUpBurst(const Args& args, const Corpus& corpus,
                const InstanceOptions& options,
                std::unique_ptr<Instance>* inst, std::vector<double>* setup_s,
                Outcome* outcome) {
  const Clock::time_point budget_end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(kSetupBudgetS));
  for (int r = 0; r < kMinSetupReps ||
                  (r < kMaxSetupReps && Clock::now() < budget_end);
       ++r) {
    if (*inst != nullptr) {
      (*inst)->Finish();
      Absorb(args, "set-up", **inst, outcome);
      inst->reset();
    }
    *inst = std::make_unique<Instance>(corpus, options);
    double seconds = 0;
    vitex::Status status = (*inst)->Setup(&seconds, nullptr);
    if (!status.ok()) {
      outcome->errors.push_back("setup: " + status.ToString());
      ++outcome->failed;
      return false;
    }
    setup_s->push_back(seconds);
  }
  return true;
}

void RunEndToEnd(const Args& args, const Corpus& corpus, Report* report,
                 Outcome* outcome) {
  InstanceOptions options;
  options.wire = corpus.wire;
  options.window = args.window;
  options.open_rate = args.rate;
  options.churn = true;
  options.inject = args.inject;
  std::vector<double> setup_s;
  std::unique_ptr<Instance> inst;
  if (!SetUpBurst(args, corpus, options, &inst, &setup_s, outcome)) return;
  PhaseStats closed, open;
  LatencyHistogram latency;
  inst->RunClosed(args.seconds * 2 / 3, &closed);
  inst->RunOpen(args.seconds / 3, &latency, &open);
  inst->Finish();
  Absorb(args, "end-to-end", *inst, outcome);
  inst.reset();
  const double peak_rss_mb = PeakRssMiB();
  if (!SetUpBurst(args, corpus, options, &inst, &setup_s, outcome)) return;
  inst->Finish();
  Absorb(args, "set-up", *inst, outcome);

  report->Add("docs_per_s", Ratio(closed.completed, closed.seconds), "docs/s",
              "closed loop, window " + std::to_string(args.window) + ", " +
                  std::to_string(closed.completed) + " docs in " +
                  std::to_string(closed.seconds) + " s");
  report->Show("latency_p50_ms", latency.Quantile(0.50) / 1e6, "ms",
               "open loop " + std::to_string(args.rate) + " docs/s, n=" +
                   std::to_string(latency.count()) + " MATCHes");
  // The latencies are printed but not part of the result: see the traced
  // run's e2e.* metrics.
  report->Show("latency_p99_ms", latency.Quantile(0.99) / 1e6, "ms",
               "n=" + std::to_string(latency.count()));
  report->Show("subscribe_p99_ms", Quantile(open.subscribe_us, 0.99) / 1e3,
               "ms", "churn Subscribe under open-loop load, n=" +
                         std::to_string(open.subscribe_us.size()));
  report->Add("setup_s", Median(setup_s), "s",
              "median of " + std::to_string(setup_s.size()) + " set-ups");
  report->Add("peak_rss_mb", peak_rss_mb, "MiB",
              "process peak since the corpus and oracle were built");
  report->Add("cpu_ms_per_doc", Ratio(closed.cpu_ms, closed.completed), "ms",
              "closed loop, process user + system CPU");
  std::printf("  (open loop: generator lag p99 %.3f ms over %zu sends; "
              "%.2f CPUs busy; closed loop: %.2f CPUs busy)\n",
              Quantile(open.gen_lag_ms, 0.99), open.gen_lag_ms.size(),
              open.cpu_ms / 1e3 / open.seconds,
              closed.cpu_ms / 1e3 / closed.seconds);
}

// --- traced run: the per-layer metrics -------------------------------------

class CountingHandler : public vitex::twigm::ResultHandler {
 public:
  void OnResult(std::string_view, uint64_t) override { ++count; }
  uint64_t count = 0;
};

struct Ledger {
  double parse_us = 0, record_us = 0, replay_us = 0;  // per doc
  double events_per_doc = 0, log_bytes_per_doc = 0;
  std::vector<size_t> log_events;  // per template
  vitex::twigm::DispatchStats dispatch;  // one replay pass
  uint64_t results = 0;                  // one replay pass
};

// Steps 1-3 of the ledger on the corpus templates, each for ~`budget_s`.
vitex::Status RunLedger(const Corpus& corpus, double budget_s,
                        SpanRecorder* spans, Ledger* out) {
  vitex::twigm::MultiQueryEngine engine;
  std::vector<std::unique_ptr<CountingHandler>> handlers;
  for (uint32_t q : corpus.sub_query) {
    handlers.push_back(std::make_unique<CountingHandler>());
    auto added = engine.AddQuery(corpus.queries[q], handlers.back().get());
    if (!added.ok()) return added.status();
  }
  vitex::xml::SaxParserOptions sax;
  sax.symbols = engine.symbols();
  const size_t n = corpus.docs.size();

  // Time one step over every template, repeated until the budget is spent.
  auto timed = [&](const char* name, auto&& step) -> double {
    uint64_t done = 0;
    double total_us = 0;
    const Clock::time_point end =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(budget_s));
    for (int rep = 0; rep < 3 || Clock::now() < end; ++rep) {
      for (size_t d = 0; d < n; ++d) {
        const Clock::time_point t0 = Clock::now();
        step(d);
        const Clock::time_point t1 = Clock::now();
        total_us += std::chrono::duration<double, std::micro>(t1 - t0).count();
        if (rep == 0) spans->Add(name, t0, t1, static_cast<int64_t>(d));
        ++done;
      }
      if (rep > 1000) break;
    }
    return total_us / static_cast<double>(done);
  };

  vitex::xml::ContentHandler null_handler;
  vitex::xml::SaxParser parser(&null_handler, sax);
  vitex::Status status;
  out->parse_us = timed("xml.parse", [&](size_t d) {
    parser.Reset();
    if (status.ok()) status = parser.Feed(corpus.docs[d].text);
    if (status.ok()) status = parser.Finish();
  });
  VITEX_RETURN_IF_ERROR(status);

  std::vector<vitex::xml::EventLog> logs(n);
  const double record_total_us = timed("xml.record", [&](size_t d) {
    auto log = vitex::xml::RecordEvents(corpus.docs[d].text, sax);
    if (!log.ok()) {
      status = log.status();
      return;
    }
    logs[d] = std::move(log).value();
  });
  VITEX_RETURN_IF_ERROR(status);
  out->record_us = record_total_us - out->parse_us;  // self time
  for (const auto& log : logs) {
    out->log_events.push_back(log.size());
    out->events_per_doc += static_cast<double>(log.size()) / n;
    out->log_bytes_per_doc += static_cast<double>(log.memory_bytes()) / n;
  }

  for (size_t d = 0; d < n && status.ok(); ++d) {  // one counted pass
    status = engine.RunEvents(logs[d]);
  }
  VITEX_RETURN_IF_ERROR(status);
  out->dispatch = engine.dispatch_stats();
  for (const auto& h : handlers) out->results += h->count;
  out->replay_us = timed("twigm.replay", [&](size_t d) {
    if (status.ok()) status = engine.RunEvents(logs[d]);
  });
  return status;
}

// Self time per span name: duration minus the part of it that the spans
// naming it as parent (same request) cover.
void PrintSelfTimes(const std::vector<Span>& spans) {
  std::map<std::pair<std::string, int64_t>, std::vector<const Span*>> children;
  for (const Span& s : spans) {
    if (*s.parent != '\0') children[{s.parent, s.request}].push_back(&s);
  }
  struct Acc {
    uint64_t n = 0;
    double total_us = 0, self_us = 0;
  };
  std::map<std::string, Acc> acc;
  for (const Span& s : spans) {
    int64_t covered = 0;
    auto it = children.find({s.name, s.request});
    if (it != children.end()) {
      for (const Span* c : it->second) {
        covered += std::max<int64_t>(
            0, std::min(s.end, c->end) - std::max(s.start, c->start));
      }
    }
    Acc& a = acc[s.name];
    ++a.n;
    a.total_us += static_cast<double>(s.end - s.start) / 1e3;
    a.self_us += static_cast<double>(s.end - s.start - covered) / 1e3;
  }
  std::printf("spans (%zu recorded): name, count, mean us, mean self us\n",
              spans.size());
  for (const auto& [name, a] : acc) {
    std::printf("  %-18s %9llu %12.2f %12.2f\n", name.c_str(),
                static_cast<unsigned long long>(a.n), a.total_us / a.n,
                a.self_us / a.n);
  }
}

void WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  if (path.empty()) return;
  std::ofstream out(path);
  for (const Span& s : spans) {
    out << "{\"name\": \"" << s.name << "\", \"start_ns\": " << s.start
        << ", \"end_ns\": " << s.end << ", \"request\": " << s.request
        << ", \"parent\": \"" << s.parent << "\"}\n";
  }
}

void RunTraced(const Args& args, const Corpus& corpus, Report* report,
               Outcome* outcome) {
  const double S = args.seconds;
  SpanRecorder spans(true);
  SpanRecorder off(false);

  Ledger ledger;
  vitex::Status status = RunLedger(corpus, 0.05 * S, &spans, &ledger);
  if (!status.ok()) {
    outcome->errors.push_back("ledger: " + status.ToString());
    ++outcome->failed;
    return;
  }
  uint64_t oracle_results = 0;
  for (uint64_t t : corpus.doc_total) oracle_results += t;

  // The workload's own surface: untraced then traced closed loop (the
  // tracing overhead), then the traced open loop.
  InstanceOptions main_options;
  main_options.wire = corpus.wire;
  main_options.window = args.window;
  main_options.open_rate = args.rate;
  main_options.churn = true;
  main_options.inject = args.inject;
  main_options.spans = &spans;
  Instance main(corpus, main_options);
  double setup_seconds = 0;
  std::vector<double> subscribe_us;
  status = main.Setup(&setup_seconds, &subscribe_us);
  if (!status.ok()) {
    outcome->errors.push_back("setup: " + status.ToString());
    ++outcome->failed;
    return;
  }
  PhaseStats untraced, traced, open;
  LatencyHistogram latency;
  spans.set_enabled(false);
  main.RunClosed(0.2 * S, &untraced);
  const uint64_t untraced_deliveries = main.delivered();
  spans.set_enabled(true);
  main.RunClosed(0.2 * S, &traced);
  main.RunOpen(0.25 * S, &latency, &open);
  main.Finish();
  Absorb(args, "traced", main, outcome);

  // Ledger steps 4 and 5: one document at a time, in-process then wire.
  InstanceOptions inproc_options;
  inproc_options.spans = &spans;
  inproc_options.deliver_span = "service.e2e";
  Instance inproc(corpus, inproc_options);
  InstanceOptions wire_options = inproc_options;
  wire_options.wire = true;
  wire_options.deliver_span = "net.e2e";
  Instance wire(corpus, wire_options);
  PhaseStats inproc_phase, wire_phase;
  for (auto [inst, phase] : {std::pair{&inproc, &inproc_phase},
                             std::pair{&wire, &wire_phase}}) {
    double seconds = 0;
    status = inst->Setup(&seconds, nullptr);
    if (!status.ok()) {
      outcome->errors.push_back("ledger setup: " + status.ToString());
      ++outcome->failed;
      return;
    }
    inst->RunClosed(0.075 * S, phase);
    inst->Finish();
    Absorb(args, inst == &inproc ? "ledger in-process" : "ledger wire",
           *inst, outcome);
  }

  // Counters that must agree.
  auto expect_equal = [&](const std::string& what, double a, double b) {
    if (a != b) {
      outcome->errors.push_back("counter cross-check: " + what + ": " +
                                std::to_string(a) + " != " +
                                std::to_string(b));
    }
  };
  expect_equal("replay results per template pass vs oracle",
               static_cast<double>(ledger.results),
               static_cast<double>(oracle_results));
  for (const Instance* inst : {&main, &inproc, &wire}) {
    uint64_t expected = 0, events = 0;
    for (uint64_t p = 0; p < inst->published(); ++p) {
      expected += corpus.doc_total[p % corpus.docs.size()];
      events += ledger.log_events[p % corpus.docs.size()];
    }
    expect_equal("standing deliveries vs oracle",
                 static_cast<double>(inst->standing_delivered()),
                 static_cast<double>(expected));
    expect_equal("service events_parsed vs xml.events_per_doc",
                 static_cast<double>(inst->service_stats().events_parsed),
                 static_cast<double>(events));
  }

  const vitex::ServiceStats& ss = main.service_stats();
  const double pubs = static_cast<double>(std::max<uint64_t>(1, main.published()));
  uint64_t publish_blocked = 0, fanout_blocked = 0;
  size_t ingest_hwm = 0, shard_hwm = 0;
  for (const auto& s : ss.streams) {
    publish_blocked += s.publish_blocked_nanos;
    ingest_hwm = std::max(ingest_hwm, s.queue_high_watermark);
  }
  for (const auto& s : ss.shards) {
    fanout_blocked += s.fanout_blocked_nanos;
    shard_hwm = std::max(shard_hwm, s.queue_high_watermark);
  }
  const Instance& service_side = corpus.wire ? inproc : main;
  const Instance& net_side = corpus.wire ? main : wire;
  const vitex::net::NetStatsSnapshot& ns = net_side.net_stats();
  const auto& d = ledger.dispatch;
  const double dps_untraced = Ratio(untraced.completed, untraced.seconds);
  const double dps_traced = Ratio(traced.completed, traced.seconds);

  report->Add("xml.parse_us_per_doc", ledger.parse_us, "us");
  report->Add("xml.record_us_per_doc", ledger.record_us, "us",
              "self: parse+record minus parse");
  report->Add("xml.events_per_doc", ledger.events_per_doc, "events");
  report->Add("xml.log_bytes_per_doc", ledger.log_bytes_per_doc, "bytes");
  report->Add("xpath.subscribe_us_p50", Median(subscribe_us), "us",
              "set-up, no load, n=" + std::to_string(subscribe_us.size()));
  report->Add("twigm.replay_us_per_doc", ledger.replay_us, "us");
  report->Add("twigm.start_visits_per_event",
              Ratio(d.start_visits, d.start_events), "ratio");
  report->Add("twigm.text_visits_per_node", Ratio(d.text_visits, d.text_nodes),
              "ratio");
  report->Add("twigm.broadcast_visit_frac",
              Ratio(d.broadcast_visits,
                    d.start_visits + d.end_visits + d.text_visits),
              "ratio");
  report->Add("twigm.machines", static_cast<double>(d.machines), "count");
  report->Add("twigm.plan_hit_frac",
              Ratio(d.plan_hits, d.plan_hits + d.plan_misses), "ratio");
  report->Add("twigm.results_per_doc",
              static_cast<double>(ledger.results) / corpus.docs.size(),
              "count", "= oracle and service/wire deliveries per doc");
  report->Add("service.publish_call_us_p99",
              Quantile(service_side.publish_call_us(), 0.99), "us");
  report->Add("service.publish_blocked_us_per_doc",
              publish_blocked / pubs / 1e3, "us");
  report->Add("service.fanout_blocked_us_per_doc",
              fanout_blocked / pubs / 1e3, "us");
  report->Add("service.ingest_queue_hwm", static_cast<double>(ingest_hwm),
              "count");
  report->Add("service.shard_queue_hwm", static_cast<double>(shard_hwm),
              "count");
  for (const char* stage : {"ingest_wait", "parse", "shard_queue_wait",
                            "match"}) {
    report->Add(std::string("service.stage_") + stage + "_us_p50",
                StageMicros(main.statsz(), stage, "p50"), "us");
  }
  report->Add("service.stage_e2e_us_p99",
              StageMicros(main.statsz(), "e2e", "p99"), "us");
  report->Add("service.replays_per_doc",
              Ratio(ss.events_replayed, ss.events_parsed), "ratio",
              "events replayed / parsed (the shard fan-out)");
  report->Add("net.publish_rtt_us_p50", Median(net_side.publish_call_us()),
              "us");
  report->Add("net.publish_rtt_us_p99",
              Quantile(net_side.publish_call_us(), 0.99), "us");
  report->Add("net.poll_ns_per_match",
              Ratio(net_side.poll_nanos(), net_side.polled_matches()), "ns");
  report->Add("net.frames_out_per_doc",
              Ratio(ns.frames_out, net_side.published()), "count");
  report->Add("net.bytes_out_per_match", Ratio(ns.bytes_out, ns.matches_sent),
              "bytes");
  report->Add("net.outbuf_hwm_bytes",
              static_cast<double>(ns.outbuf_high_watermark), "bytes");
  report->Add("net.matches_dropped", static_cast<double>(ns.matches_dropped),
              "count");
  report->Add("net.connections_evicted",
              static_cast<double>(ns.connections_evicted), "count");
  report->Add("e2e.latency_p50_ms", latency.Quantile(0.50) / 1e6, "ms",
              "open loop, n=" + std::to_string(latency.count()) + " MATCHes");
  report->Add("e2e.latency_p99_ms", latency.Quantile(0.99) / 1e6, "ms",
              "open loop, n=" + std::to_string(latency.count()) + " MATCHes");
  report->Add("e2e.subscribe_p99_ms", Quantile(open.subscribe_us, 0.99) / 1e3,
              "ms", "churn Subscribe under open-loop load, n=" +
                        std::to_string(open.subscribe_us.size()));
  report->Add("bench.gen_lag_p99_ms", Quantile(open.gen_lag_ms, 0.99), "ms",
              "n=" + std::to_string(open.gen_lag_ms.size()));
  report->Add("bench.check_ns_per_match",
              Ratio(main.check_nanos(),
                    main.delivered() - untraced_deliveries),
              "ns", "the benchmark's own oracle check, per delivery");
  report->Add("bench.trace_overhead_frac", 1 - Ratio(dps_traced, dps_untraced),
              "ratio",
              "closed-loop docs/s untraced " + std::to_string(dps_untraced) +
                  " vs traced " + std::to_string(dps_traced));

  // The cumulative ledger, per document. Steps 1-3 ran alone, so their
  // differences are self times. In steps 4 and 5 the parser and shard
  // threads overlap, so there the busy times come from the stage
  // histograms of the one-document-in-flight service: xml is its ingest
  // parse (+ record), twigm its match stage (replay + delivery into the
  // sinks), service the rest of its end-to-end time (queue waits and
  // handoffs), net what the loopback step adds on top.
  const std::vector<Span> recorded = spans.Snapshot();
  auto median_span_us = [&](const char* name) {
    std::vector<double> us;
    for (const Span& s : recorded) {
      if (std::string(s.name) == name) us.push_back((s.end - s.start) / 1e3);
    }
    return Median(us);
  };
  const double service_e2e = median_span_us("service.e2e");
  const double wire_e2e = median_span_us("net.e2e");
  const double stage_parse = StageMicros(inproc.statsz(), "parse", "p50");
  const double stage_match = StageMicros(inproc.statsz(), "match", "p50");
  std::printf("ledger, each step alone (us per document): xml.parse %.1f |"
              " xml.record self %.1f | twigm.replay %.1f\n",
              ledger.parse_us, ledger.record_us, ledger.replay_us);
  std::printf("ledger, one document in flight (median us per document):"
              " service e2e %.1f [ingest wait %.1f, parse %.1f, shard wait"
              " %.1f, match %.1f] | loopback e2e %.1f\n",
              service_e2e, StageMicros(inproc.statsz(), "ingest_wait", "p50"),
              stage_parse,
              StageMicros(inproc.statsz(), "shard_queue_wait", "p50"),
              stage_match, wire_e2e);
  const std::pair<const char*, double> layers[] = {
      {"xml", stage_parse},
      {"twigm", stage_match},
      {"service", std::max(0.0, service_e2e - stage_parse - stage_match)},
      {"net", std::max(0.0, wire_e2e - service_e2e)}};
  std::printf("self time per layer (us per document):");
  for (const auto& [layer, us] : layers) std::printf(" %s %.1f", layer, us);
  const auto* top = std::max_element(
      std::begin(layers), std::end(layers),
      [](const auto& a, const auto& b) { return a.second < b.second; });
  std::printf("\nlargest self time: %s\n", top->first);

  PrintSelfTimes(recorded);
  WriteSpans(args.spans_path, recorded);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = ParseArgs(argc, argv);
  std::printf("host: %s\n", HostStamp(args).c_str());

  const Clock::time_point c0 = Clock::now();
  Corpus corpus;
  vitex::Status status = Build(args.workload, args.seed, &corpus);
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: corpus: %s\n", status.ToString().c_str());
    return 1;
  }
  uint64_t doc_bytes = 0, oracle = 0;
  for (const Template& t : corpus.docs) doc_bytes += t.text.size();
  for (uint64_t n : corpus.doc_total) oracle += n;
  std::printf(
      "corpus: %s seed %llu, %zu templates of %.0f bytes, %zu standing "
      "subscriptions, %.1f oracle matches/doc (%.2f s, not timed)\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      corpus.docs.size(), static_cast<double>(doc_bytes) / corpus.docs.size(),
      corpus.sub_query.size(), static_cast<double>(oracle) / corpus.docs.size(),
      std::chrono::duration<double>(Clock::now() - c0).count());
  // peak_rss_mb leaves out the oracle's DOM builds, freed by now.
  if (!ResetPeakRss()) {
    std::printf("note: cannot reset the peak resident set; peak_rss_mb "
                "includes the corpus build\n");
  }

  Report report;
  Outcome outcome;
  if (args.trace) {
    RunTraced(args, corpus, &report, &outcome);
  } else {
    RunEndToEnd(args, corpus, &report, &outcome);
  }
  report.Print();
  const double failed_frac =
      outcome.attempted == 0
          ? 1.0
          : static_cast<double>(outcome.failed) / outcome.attempted;
  std::printf("  %-36s %14.6g %-8s %llu of %llu operations\n", "failed_frac",
              failed_frac, "ratio",
              static_cast<unsigned long long>(outcome.failed),
              static_cast<unsigned long long>(outcome.attempted));
  for (const std::string& e : outcome.errors) {
    std::printf("ERROR %s\n", e.c_str());
  }
  const bool correct = outcome.failed == 0 && outcome.errors.empty() &&
                       outcome.attempted > 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(std::max<uint64_t>(1, outcome.attempted)),
      static_cast<unsigned long long>(outcome.failed), report.Json().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
