// ViteX public API — the one header an embedding application (or a
// protocol front end, src/net/) includes to run the streaming-XPath
// pub/sub service: the paper's motivating deployment (stock tickers,
// sports feeds, personalized newspapers: many streams, many standing
// subscriptions) run across cores. See DESIGN.md §5 and §9.
//
//   vitex::Service       — the pub/sub runtime: subscribe XPath queries,
//                          publish XML documents, deliveries fan out to
//                          every matching subscription.
//   vitex::Subscription  — an RAII handle: owns one standing subscription
//                          and unsubscribes when destroyed. Pull mode
//                          buffers deliveries for Drain(); push mode hands
//                          each delivery to a caller MatchSink as it is
//                          produced (match_sink.h).
//
// Errors are Status/Result (common/status.h — the StatusCode enum the wire
// protocol in src/net/ transports 1:1). The wire protocol (DESIGN.md §13)
// is defined purely in terms of the operations here; anything not
// expressible here is not on the wire.
//
// Architecture (threads left to right):
//
//   Publish ──▶ [stream queue 0..M-1] ──▶ M parser threads ──▶ ┐
//   Subscribe/Unsubscribe/Flush ──markers into every stream──▶ ┘
//                                                              │
//                              [per-shard inbox: M lanes, one per stream,
//                               merged under a barrier-marker discipline]
//                                                              │
//                                  shard 0..N-1 threads, each a private
//                                  MultiQueryEngine
//
//   * M publisher streams, each with its OWN parser thread: a published
//     document is parsed once, on its stream's thread, into an
//     xml::EventLog (symbol- and sequence-stamped), then the log is
//     replayed into every shard — M documents parse concurrently, and
//     N shards still cost one parse each.
//   * The shared SymbolTable is FROZEN (read-only) while streams run, so
//     all M parser threads resolve symbols concurrently without write
//     locks (parse-side resolution is lookup-only; misses stamp
//     kAbsentSymbol). Control operations that must intern — subscription
//     compiles — run through a serialized control lane that briefly
//     quiesces the parsers, unfreezes the table, compiles, and refreezes.
//   * Epoch discipline: every control op (Subscribe/Unsubscribe/Flush) is
//     a MARKER pushed into every stream's queue, in one consistent order
//     across streams. Stream threads forward markers to every shard lane
//     in FIFO position; a shard applies the op once the marker has arrived
//     on ALL of its lanes, holding back each lane at the point its marker
//     appeared. Subscribe/Unsubscribe therefore apply at exact
//     document-epoch boundaries — a subscription sees every document
//     published after the Subscribe call returned, and none published
//     before it was called — and per-subscriber match order stays
//     deterministic within a stream (cross-stream interleaving is
//     unordered by design). DESIGN.md §9 has the deadlock-freedom
//     argument.
//   * Every queue is bounded: a slow shard backpressures the parser
//     streams, which backpressure Publish. Nothing buffers unboundedly.
//   * One delivery path: every result goes to its subscription's
//     MatchSink on the owning shard's thread — the caller's own sink in
//     push mode, or in pull mode a buffering sink owned by the handle and
//     read by Subscription::Drain() at the caller's own pace.
//
// Thread safety: every method on Service is safe to call from any thread.
// A Subscription handle itself is NOT thread-safe (one owner at a time,
// like a file handle), but different handles are independent. Handles
// must not outlive their Service.

#ifndef VITEX_SERVICE_VITEX_H_
#define VITEX_SERVICE_VITEX_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/interner.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"
#include "service/match_sink.h"
#include "twigm/multi_query.h"

namespace vitex {

struct ServiceOptions {
  /// Worker shards (each one thread + one MultiQueryEngine). Clamped to 1.
  size_t shard_count = 4;
  /// Concurrent publisher streams (each one parser thread + one bounded
  /// ingest queue). Clamped to 1. Publish() spreads documents round-robin;
  /// PublishToStream pins a document to a stream when per-stream FIFO
  /// ordering matters to the caller.
  size_t stream_count = 1;
  /// Capacity of each stream's ingest queue and of each per-shard inbox
  /// lane. Smaller values bound memory harder and backpressure sooner.
  size_t queue_capacity = 64;
  /// Parser options for the per-stream ingest parses. The `symbols` field
  /// is overridden with the service's shared table.
  xml::SaxParserOptions sax_options;
  /// Options applied to every subscription's TwigM machine.
  twigm::TwigMachine::Options machine_options;
  /// Stage-latency tracing (DESIGN.md §10): stamp every published document
  /// with a monotonic timestamp and record per-stage latency histograms
  /// (ingest-queue wait, parse, shard-queue wait, match+deliver, and
  /// end-to-end publish→last-shard-done) into the service's metric
  /// registry, exposed by StatszText(). Costs a few clock reads and
  /// relaxed atomic increments per document per shard (the ≤3% budget of
  /// DESIGN.md §10, argued there, not gated). Flag off to shed even that;
  /// counters and queue watermarks stay on regardless.
  bool enable_tracing = true;
};

/// Per-shard counters (monotonic except queue_depth/live_queries/
/// live_machines).
struct ShardStatsSnapshot {
  uint64_t documents = 0;  ///< documents fully processed by this shard
  uint64_t events = 0;     ///< SAX events replayed into this shard
  size_t queue_depth = 0;  ///< items queued across this shard's inbox lanes
  /// Deepest the inbox has ever been (all lanes totalled) — how close the
  /// shard came to stalling its producers.
  size_t queue_high_watermark = 0;
  /// Total ns parser streams spent blocked pushing into this shard's inbox
  /// (this shard was the pipeline bottleneck). Monotonic.
  uint64_t fanout_blocked_nanos = 0;
  size_t live_queries = 0;
  /// Plan machines actually executing this shard's queries — under plan
  /// sharing (DESIGN.md §7) far below live_queries when subscriptions
  /// share skeletons (`//quote[@symbol = 'X']/price` per ticker X).
  size_t live_machines = 0;
  twigm::DispatchStats dispatch;  ///< as of the last completed document
};

/// Per-stream counters (monotonic except queue_depth).
struct StreamStatsSnapshot {
  uint64_t documents_published = 0;  ///< accepted by Publish on this stream
  uint64_t documents_parsed = 0;     ///< parsed OK on this stream's thread
  uint64_t documents_rejected = 0;   ///< failed to parse on this stream
  uint64_t events_parsed = 0;        ///< SAX events recorded on this stream
  size_t queue_depth = 0;            ///< this stream's ingest queue
  /// Deepest this stream's ingest queue has ever been.
  size_t queue_high_watermark = 0;
  /// Total ns publishers spent blocked in Publish on this stream's queue
  /// (backpressure reached the caller). Monotonic.
  uint64_t publish_blocked_nanos = 0;
};

/// Service-wide snapshot (stats()).
struct ServiceStats {
  uint64_t documents_published = 0;  ///< accepted by Publish
  uint64_t documents_rejected = 0;   ///< failed to parse on ingest
  uint64_t documents_processed = 0;  ///< completed by EVERY shard (min)
  uint64_t events_parsed = 0;        ///< SAX events recorded on ingest
  uint64_t events_replayed = 0;      ///< sum over shards
  /// Deliveries accepted by their MatchSink, pull-mode buffering included.
  uint64_t results_delivered = 0;
  /// Push-mode deliveries refused by their MatchSink and dropped (the
  /// OnOverflow contract, match_sink.h). Disjoint from results_delivered.
  uint64_t results_overflowed = 0;
  uint64_t active_subscriptions = 0;
  /// Sum of live plan machines over shards (<= active_subscriptions; the
  /// gap is what hash-consed plan sharing saves per event).
  uint64_t active_plan_machines = 0;
  size_t ingest_queue_depth = 0;  ///< sum over the stream ingest queues
  double uptime_seconds = 0;
  /// documents_processed / uptime. Held at 0 until uptime reaches
  /// Service::kMinRateUptimeSeconds: a stats() call microseconds after
  /// construction would otherwise extrapolate a handful of documents into
  /// a nonsense per-second figure.
  double docs_per_sec = 0;
  /// events_parsed / uptime (same floor): each event counts once, however
  /// many shards replay it, so the rate does not scale with shard_count.
  double events_per_sec = 0;
  std::vector<ShardStatsSnapshot> shards;
  std::vector<StreamStatsSnapshot> streams;
};

class Subscription;

/// The ViteX streaming-XPath pub/sub service (paper: many standing XPath
/// subscriptions, streams of XML documents, incremental match delivery).
///
/// Construction starts the worker threads (ServiceOptions::shard_count
/// match shards, ServiceOptions::stream_count publisher streams);
/// destruction (or Stop()) drains and joins them.
class Service {
 public:
  explicit Service(ServiceOptions options = {});
  ~Service();  // Stop()s if still running

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Registers a standing subscription. The query compiles synchronously
  /// on this thread — the one place the shared SymbolTable is unfrozen, so
  /// the call briefly quiesces the parser streams — and installs in its
  /// shard at this call's epoch boundary: the subscription sees every
  /// document published after this call returns and none published before
  /// it was called (DESIGN.md §9). Pull mode (the default; `options.sink`
  /// must be null) buffers deliveries until the handle's Drain(). Push
  /// mode delivers into `options.sink` on the owning shard's thread as
  /// matches are produced — see match_sink.h for the full contract.
  Result<Subscription> Subscribe(std::string_view xpath,
                                 SinkOptions options = {});

  /// Publishes one XML document to every subscription, on a round-robin
  /// publisher stream. Blocks only under backpressure (bounded ingest
  /// queues); processing is asynchronous. A document that fails to parse
  /// counts as rejected and is dropped without stopping the service.
  Status Publish(std::string document);

  /// Publish pinned to one stream: documents published to the same stream
  /// by the same caller are parsed, matched and delivered in publish order
  /// (cross-stream order is unspecified). `stream` must be
  /// < stream_count().
  Status PublishToStream(size_t stream, std::string document);

  /// Blocks until everything published (and every subscribe/unsubscribe
  /// issued) before this call has been fully processed by every shard.
  /// Returns the first shard error, if any.
  Status Flush();

  /// Drains all queues, stops every worker thread and returns the first
  /// error the service encountered (ingest parse errors excluded — those
  /// only count as rejected documents). Idempotent; the destructor calls
  /// it. Pull-mode handles can still Drain() what was delivered.
  Status Stop();

  size_t shard_count() const { return shards_.size(); }
  size_t stream_count() const { return streams_.size(); }

  /// A consistent snapshot of every pipeline counter (documents, events,
  /// deliveries, overflow drops, queue depths/watermarks, per-shard and
  /// per-stream detail).
  ServiceStats stats() const;

  /// Minimum uptime before stats() reports docs_per_sec/events_per_sec;
  /// below it the rates are 0 (division-by-near-zero guard).
  static constexpr double kMinRateUptimeSeconds = 0.1;

  /// The /statsz payload: every pipeline counter, queue watermark/stall
  /// gauge, per-shard dispatch stat, and — when enable_tracing is on — the
  /// per-stage latency histograms with p50/p90/p99/max summaries, in
  /// Prometheus text exposition format (DESIGN.md §10). This is what the
  /// TCP front end serves for STATS frames and HTTP GET /statsz.
  /// Thread-safe; snapshot semantics match stats().
  std::string StatszText() const;

 private:
  friend class Subscription;
  class PullSink;
  class SubscriberSink;
  struct FlushGate;
  struct ControlOp;
  struct StreamItem;
  struct ShardItem;
  struct Stream;
  struct Shard;
  struct DocTrace;

  /// Subscription::Unsubscribe(): ends `id` at this call's epoch boundary.
  void Unsubscribe(SubscriptionId id);

  void StreamLoop(Stream* stream);
  void ShardLoop(Shard* shard);
  size_t ShardOf(SubscriptionId id) const;
  bool ShardHandles(const Shard& shard, const ControlOp& op) const;
  void RecordError(const Status& status) EXCLUDES(mu_);
  /// Applies one control op on the shard's thread, at its epoch boundary
  /// (all lane markers arrived) or force-applied during shutdown drain.
  void ApplyControl(Shard* shard, ControlOp* op);
  /// Pushes `op` as a marker into EVERY stream queue, under control_mu_ so
  /// concurrent ops enter all queues in one consistent total order (the
  /// correctness precondition of the shard-side barrier; DESIGN.md §9).
  /// Returns false if the service is stopping (some queue closed).
  bool EmitControl(std::shared_ptr<ControlOp> op) REQUIRES(control_mu_);

  ServiceOptions options_;
  // Shared by every stream's parser and every shard engine. FROZEN
  // (read-only) while streams run: stream threads hold symbols_.mu()
  // shared for the duration of a parse and only Lookup; Subscribe holds it
  // exclusive around Unfreeze → compile (interns) → Freeze, so mutation
  // never overlaps a lookup — the capability lives in the table itself and
  // the phase flips are REQUIRES-checked (DESIGN.md §11). Shard threads
  // never touch the table: they consume stamped integer symbols off
  // replayed events.
  SymbolTable symbols_;

  std::vector<std::unique_ptr<Stream>> streams_;
  std::vector<std::unique_ptr<Shard>> shards_;

  // The serialized control lane: holds marker emission (and the compile
  // that precedes it for Subscribe) so control ops are totally ordered.
  Mutex control_mu_;

  // Held for the whole of Stop() so concurrent stops (destructor racing an
  // explicit Stop) wait for the joins instead of returning early.
  Mutex stop_mu_;
  mutable Mutex mu_;
  // Subscriptions whose handle has not unsubscribed yet. The sinks live
  // with the handles and, until the unsubscribe applies, with the owning
  // shard — so a sink is never destroyed under a running machine.
  uint64_t active_subscriptions_ GUARDED_BY(mu_) = 0;
  Status first_error_ GUARDED_BY(mu_);
  bool stopped_ GUARDED_BY(mu_) = false;

  // Hot-path metrics (DESIGN.md §10). Each stream/shard registers its own
  // histogram instances under shared names at construction; the registry
  // merges them when StatszText() renders, so recording never contends
  // across threads. Null instance pointers when enable_tracing is off.
  obs::Registry registry_;
  obs::Histogram* e2e_hist_ = nullptr;  // publish → last-shard-done

  std::atomic<uint64_t> next_subscription_{1};
  std::atomic<uint64_t> next_stream_{0};  // Publish round-robin cursor
  std::atomic<uint64_t> documents_published_{0};
  std::atomic<uint64_t> documents_rejected_{0};
  std::atomic<uint64_t> events_parsed_{0};
  std::atomic<uint64_t> results_delivered_{0};
  std::atomic<uint64_t> results_overflowed_{0};
  std::chrono::steady_clock::time_point start_;
};

/// Owns one standing subscription; unsubscribes on destruction.
///
/// Obtained from Service::Subscribe. Move-only: the handle that goes out
/// of scope last (or has Unsubscribe() called on it) ends the
/// subscription at that moment's epoch boundary. A default-constructed or
/// moved-from handle is inactive and does nothing on destruction.
class Subscription {
 public:
  Subscription() = default;
  ~Subscription() { (void)Unsubscribe(); }

  Subscription(Subscription&& other) noexcept { *this = std::move(other); }
  Subscription& operator=(Subscription&& other) noexcept;
  Subscription(const Subscription&) = delete;
  Subscription& operator=(const Subscription&) = delete;

  /// True while this handle owns a live subscription.
  bool active() const { return service_ != nullptr; }

  /// The service-wide subscription id (what the wire protocol transports).
  SubscriptionId id() const { return id_; }

  /// Collects pending deliveries of a pull-mode subscription (error for
  /// push mode and for an inactive handle). Deliveries of one document
  /// arrive only after its owning shard finished that document —
  /// Service::Flush() forces completion. Still works after Service::Stop().
  Result<std::vector<Delivery>> Drain();

  /// Ends the subscription now (instead of at destruction): documents
  /// published before this call are still delivered, possibly after it
  /// returns, up to the next Service::Flush(); none published after it
  /// returns is. Idempotent: the handle becomes inactive (undrained
  /// deliveries are discarded); later calls return OK.
  Status Unsubscribe();

 private:
  friend class Service;
  Subscription(Service* service, SubscriptionId id,
               std::shared_ptr<Service::PullSink> pull);

  Service* service_ = nullptr;
  SubscriptionId id_ = 0;
  std::shared_ptr<Service::PullSink> pull_;  // null in push mode
};

}  // namespace vitex

#endif  // VITEX_SERVICE_VITEX_H_
