// lint: relaxed-ok(single-writer shard counters read by stats snapshots; cross-thread ordering is carried by the queue mutexes)

#include "service/vitex.h"

#include <algorithm>
#include <cassert>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/mutex.h"
#include "common/stopwatch.h"
#include "obs/prometheus.h"
#include "service/bounded_queue.h"
#include "twigm/builder.h"
#include "xml/sax_parser.h"

namespace vitex {

using service::BoundedQueue;
using service::BoundedQueueGroup;

// ---------------------------------------------------------------------------
// Internal types.
// ---------------------------------------------------------------------------

// The stock pull-mode sink: buffers every delivery (never refuses) until
// the owning Subscription handle drains it, on any thread.
class Service::PullSink : public MatchSink {
 public:
  bool OnMatch(SubscriptionId /*id*/, const Delivery& delivery) override {
    MutexLock lock(mu_);
    pending_.push_back(delivery);
    return true;
  }
  void OnOverflow(SubscriptionId /*id*/, uint64_t /*dropped_total*/) override {
  }

  std::vector<Delivery> Drain() {
    std::vector<Delivery> out;
    MutexLock lock(mu_);
    // Move the deliveries out element-wise instead of swapping vectors:
    // pending_ keeps its capacity, so a steady drain cadence stops paying
    // a queue reallocation per document (DESIGN.md §12).
    out.reserve(pending_.size());
    for (Delivery& d : pending_) out.push_back(std::move(d));
    pending_.clear();
    return out;
  }

 private:
  Mutex mu_;
  std::vector<Delivery> pending_ GUARDED_BY(mu_);
};

// Per-subscriber adapter between the shard's machine and the
// subscription's MatchSink: each result is handed to the sink right here
// on the shard thread, and a refused delivery is dropped, counted and
// reported through OnOverflow.
class Service::SubscriberSink : public twigm::ResultHandler {
 public:
  SubscriberSink(SubscriptionId id, std::shared_ptr<MatchSink> sink,
                 std::atomic<uint64_t>* delivered,
                 std::atomic<uint64_t>* overflowed)
      : id_(id),
        sink_(std::move(sink)),
        delivered_(delivered),
        overflowed_(overflowed) {}

  void OnResult(std::string_view fragment, uint64_t sequence) override {
    // One reused Delivery: assigning keeps the fragment's capacity, so the
    // hand-over allocates nothing. No lock: calls for one subscription are
    // serialized on its shard's thread (match_sink.h).
    scratch_.fragment.assign(fragment.data(), fragment.size());
    scratch_.sequence = sequence;
    // Refusal is the sink's bounded-buffer signal: the delivery is dropped,
    // not retried — a slow consumer must never stall the shard.
    if (sink_->OnMatch(id_, scratch_)) {
      delivered_->fetch_add(1, std::memory_order_relaxed);
    } else {
      ++dropped_;
      overflowed_->fetch_add(1, std::memory_order_relaxed);
      sink_->OnOverflow(id_, dropped_);
    }
  }

 private:
  const SubscriptionId id_;
  const std::shared_ptr<MatchSink> sink_;
  std::atomic<uint64_t>* delivered_;
  std::atomic<uint64_t>* overflowed_;
  Delivery scratch_;      // shard-thread only (see OnResult)
  uint64_t dropped_ = 0;  // shard-thread only
};

// Barrier token for Flush(): every shard decrements once it has processed
// everything enqueued before the token.
struct Service::FlushGate {
  Mutex mu;
  CondVar cv;
  size_t remaining GUARDED_BY(mu) = 0;
};

// One control operation, shared by the M×N marker copies that carry it
// through every stream queue into every shard lane. Only the shard that
// ShardHandles() the op touches its payload, exactly once, when its
// barrier completes — so the non-const members need no locking.
struct Service::ControlOp {
  enum class Kind { kSubscribe, kUnsubscribe, kFlush };
  Kind kind = Kind::kFlush;
  SubscriptionId subscription = 0;               // kSubscribe / kUnsubscribe
  std::unique_ptr<twigm::BuiltMachine> machine;  // kSubscribe
  std::shared_ptr<SubscriberSink> sink;          // kSubscribe
  std::shared_ptr<FlushGate> gate;               // kFlush
};

// Stage-tracing context shared by one document's N shard replays: the
// publish timestamp for the end-to-end histogram, and a countdown so the
// LAST shard to finish records it (tracing only; null when off).
struct Service::DocTrace {
  int64_t publish_ns = 0;
  std::atomic<size_t> shards_remaining{0};
};

// What flows through a stream's ingest queue: a document to parse, or a
// control marker to forward (in FIFO position) to every shard lane.
struct Service::StreamItem {
  std::string document;
  int64_t publish_ns = 0;         // stamped by Publish when tracing
  std::shared_ptr<ControlOp> op;  // non-null == marker
};

// What flows through a shard inbox lane.
struct Service::ShardItem {
  enum class Kind { kDocument, kMarker };
  Kind kind = Kind::kDocument;
  std::shared_ptr<const xml::EventLog> log;  // kDocument
  int64_t enqueue_ns = 0;                    // fan-out time (tracing)
  std::shared_ptr<DocTrace> trace;           // kDocument, tracing only
  std::shared_ptr<ControlOp> op;             // kMarker
};

// One publisher stream: a bounded queue of raw documents (and control
// markers) drained by this stream's parser thread. Counters are written by
// that thread, read by stats().
struct Service::Stream {
  explicit Stream(size_t index_in, size_t queue_capacity)
      : index(index_in), queue(queue_capacity) {}

  const size_t index;  // == this stream's lane on every shard inbox
  BoundedQueue<StreamItem> queue;
  std::thread thread;

  std::atomic<uint64_t> documents_published{0};
  std::atomic<uint64_t> documents_parsed{0};
  std::atomic<uint64_t> documents_rejected{0};
  std::atomic<uint64_t> events_parsed{0};

  // This stream's private stage histograms (merged under shared names at
  // render time); null when tracing is off.
  obs::Histogram* ingest_wait_hist = nullptr;  // publish → parse start
  obs::Histogram* parse_hist = nullptr;        // the parse itself
};

// One worker shard: an M-lane inbox, a thread, and a private
// MultiQueryEngine whose machines are this shard's slice of the
// subscription set. Everything below `inbox` is touched only by the shard
// thread, except the atomics and the mutex-guarded dispatch snapshot.
struct Service::Shard {
  Shard(size_t index_in, size_t lanes, size_t lane_capacity,
        xml::SaxParserOptions sax_options)
      : index(index_in),
        inbox(lanes, lane_capacity),
        engine(std::make_unique<twigm::MultiQueryEngine>(sax_options)) {}

  const size_t index;
  BoundedQueueGroup<ShardItem> inbox;
  std::unique_ptr<twigm::MultiQueryEngine> engine;
  std::thread thread;
  bool failed = false;  // fail-stop: skip further documents after an error

  // Subscription bookkeeping (shard thread only).
  std::unordered_map<SubscriptionId, twigm::QueryId> queries;
  std::unordered_map<SubscriptionId, std::shared_ptr<SubscriberSink>> sinks;

  // Written by the shard thread, read by stats().
  std::atomic<uint64_t> documents{0};
  std::atomic<uint64_t> events{0};
  std::atomic<size_t> live_queries{0};
  std::atomic<size_t> live_machines{0};  // plan instances (DESIGN.md §7)
  Mutex dispatch_mu;
  twigm::DispatchStats dispatch GUARDED_BY(dispatch_mu);  // after each doc

  // This shard's private stage histograms; null when tracing is off.
  obs::Histogram* queue_wait_hist = nullptr;  // fan-out → shard pop
  obs::Histogram* match_hist = nullptr;       // replay + delivery
};

// ---------------------------------------------------------------------------
// Construction / teardown.
// ---------------------------------------------------------------------------

Service::Service(ServiceOptions options)
    : options_(std::move(options)), start_(std::chrono::steady_clock::now()) {
  size_t shard_count = std::max<size_t>(1, options_.shard_count);
  size_t stream_count = std::max<size_t>(1, options_.stream_count);
  xml::SaxParserOptions shard_sax = options_.sax_options;
  shard_sax.symbols = &symbols_;
  shards_.reserve(shard_count);
  for (size_t i = 0; i < shard_count; ++i) {
    shards_.push_back(std::make_unique<Shard>(
        i, stream_count, options_.queue_capacity, shard_sax));
  }
  streams_.reserve(stream_count);
  for (size_t i = 0; i < stream_count; ++i) {
    streams_.push_back(std::make_unique<Stream>(i, options_.queue_capacity));
  }
  if (options_.enable_tracing) {
    // All registration happens here, before any worker thread exists; the
    // hot paths below only ever touch these raw instance pointers.
    for (auto& stream : streams_) {
      stream->ingest_wait_hist = registry_.AddHistogram(
          "vitex_stage_ingest_wait_nanos",
          "Publish to parse-start: time a document waited in its stream's "
          "ingest queue (ns)");
      stream->parse_hist = registry_.AddHistogram(
          "vitex_stage_parse_nanos",
          "Ingest parse of one document into its event log (ns)");
    }
    for (auto& shard : shards_) {
      shard->queue_wait_hist = registry_.AddHistogram(
          "vitex_stage_shard_queue_wait_nanos",
          "Fan-out to shard pop: time a parsed document waited in a shard "
          "inbox lane (ns)");
      shard->match_hist = registry_.AddHistogram(
          "vitex_stage_match_nanos",
          "Replay of one document through a shard's engine, including "
          "result delivery (ns)");
    }
    e2e_hist_ = registry_.AddHistogram(
        "vitex_stage_e2e_nanos",
        "Publish to last-shard-done: full pipeline latency of one "
        "document (ns)");
  }
  // The table enters its read-only phase before any parser thread exists;
  // Subscribe() is the only place it is (briefly) reopened.
  {
    WriterMutexLock symbols_lock(symbols_.mu());
    symbols_.Freeze();
  }
  for (auto& shard : shards_) {
    shard->thread = std::thread(&Service::ShardLoop, this, shard.get());
  }
  for (auto& stream : streams_) {
    stream->thread =
        std::thread(&Service::StreamLoop, this, stream.get());
  }
}

Service::~Service() { (void)Stop(); }

Status Service::Stop() {
  // Serializes stops: a concurrent second caller blocks here until the
  // first caller has finished joining, so no caller (in particular the
  // destructor) can proceed while threads are still running.
  MutexLock stop_lock(stop_mu_);
  {
    MutexLock lock(mu_);
    if (stopped_) return first_error_;
    stopped_ = true;
  }
  // Closing the stream queues lets each parser thread drain what is
  // already queued, then close its lane on every shard inbox (which
  // likewise drains) — so work accepted before Stop() is still fully
  // processed.
  for (auto& stream : streams_) stream->queue.Close();
  for (auto& stream : streams_) stream->thread.join();
  for (auto& shard : shards_) shard->thread.join();
  MutexLock lock(mu_);
  return first_error_;
}

void Service::RecordError(const Status& status) {
  MutexLock lock(mu_);
  if (first_error_.ok()) first_error_ = status;
}

size_t Service::ShardOf(SubscriptionId id) const {
  // splitmix64 finalizer: subscription ids are sequential, so mix before
  // taking the residue to spread consecutive subscribers across shards.
  uint64_t x = id;
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return static_cast<size_t>(x % shards_.size());
}

bool Service::ShardHandles(const Shard& shard,
                                 const ControlOp& op) const {
  // Flush barriers every shard; subscription changes barrier only the
  // shard that owns the subscription — other shards discard the marker.
  if (op.kind == ControlOp::Kind::kFlush) return true;
  return ShardOf(op.subscription) == shard.index;
}

// ---------------------------------------------------------------------------
// Caller-facing API.
// ---------------------------------------------------------------------------

bool Service::EmitControl(std::shared_ptr<ControlOp> op) {
  // Push the marker into every stream queue while holding control_mu_ (the
  // caller does): concurrent control ops therefore appear in the SAME
  // relative order in every queue, which is what lets a shard treat "next
  // marker on an unheld lane" as "marker of my pending op" (DESIGN.md §9).
  bool ok = true;
  for (auto& stream : streams_) {
    StreamItem item;
    item.op = op;
    // A closed queue means the service is stopping; keep emitting to the
    // remaining streams so shards that do see the marker can still make
    // progress, and let shutdown force-complete the rest.
    ok = stream->queue.Push(std::move(item)) && ok;
  }
  return ok;
}

Result<Subscription> Service::Subscribe(std::string_view xpath,
                                        SinkOptions options) {
  if (options.mode == DeliveryMode::kPush && options.sink == nullptr) {
    return Status::InvalidArgument(
        "push-mode subscription requires a MatchSink");
  }
  if (options.mode == DeliveryMode::kPull && options.sink != nullptr) {
    return Status::InvalidArgument(
        "pull-mode subscription must not carry a MatchSink");
  }
  std::shared_ptr<PullSink> pull;
  if (options.mode == DeliveryMode::kPull) {
    pull = std::make_shared<PullSink>();
    options.sink = pull;
  }
  MutexLock control_lock(control_mu_);
  {
    MutexLock lock(mu_);
    if (stopped_) return Status::InvalidArgument("service is stopped");
  }
  SubscriptionId id =
      next_subscription_.fetch_add(1, std::memory_order_relaxed);
  auto sink = std::make_shared<SubscriberSink>(
      id, std::move(options.sink), &results_delivered_, &results_overflowed_);
  // Compile on this thread, under exclusive table access: parser streams
  // hold symbols_.mu() shared for the duration of a parse, so the writer
  // lock quiesces them for the (rare, O(|Q|)) moment interning happens.
  // A plain scoped block, not a lambda: the thread safety analysis checks
  // the Unfreeze/Freeze capability requirements right here, where the
  // lock is visibly held (DESIGN.md §11).
  std::optional<Result<twigm::BuiltMachine>> built;
  {
    WriterMutexLock symbols_lock(symbols_.mu());
    symbols_.Unfreeze();
    built.emplace(twigm::TwigMBuilder::Build(
        xpath, sink.get(), options_.machine_options, &symbols_));
    symbols_.Freeze();
  }
  VITEX_RETURN_IF_ERROR(built->status());

  auto op = std::make_shared<ControlOp>();
  op->kind = ControlOp::Kind::kSubscribe;
  op->subscription = id;
  op->machine =
      std::make_unique<twigm::BuiltMachine>(std::move(*built).value());
  op->sink = std::move(sink);
  if (!EmitControl(std::move(op))) {
    return Status::InvalidArgument("service is stopped");
  }
  {
    MutexLock lock(mu_);
    ++active_subscriptions_;
  }
  return Subscription(this, id, std::move(pull));
}

void Service::Unsubscribe(SubscriptionId id) {
  MutexLock control_lock(control_mu_);
  {
    MutexLock lock(mu_);
    --active_subscriptions_;
  }
  auto op = std::make_shared<ControlOp>();
  op->kind = ControlOp::Kind::kUnsubscribe;
  op->subscription = id;
  // A failed emit means the service is stopping: teardown removes every
  // machine anyway, so the unsubscribe is already effectively applied.
  EmitControl(std::move(op));
}

Status Service::Publish(std::string document) {
  size_t stream = static_cast<size_t>(next_stream_.fetch_add(
                      1, std::memory_order_relaxed)) %
                  streams_.size();
  return PublishToStream(stream, std::move(document));
}

Status Service::PublishToStream(size_t stream, std::string document) {
  if (stream >= streams_.size()) {
    return Status::InvalidArgument("stream index out of range");
  }
  StreamItem item;
  item.document = std::move(document);
  if (options_.enable_tracing) item.publish_ns = MonotonicNanos();
  if (!streams_[stream]->queue.Push(std::move(item))) {
    return Status::InvalidArgument("service is stopped");
  }
  streams_[stream]->documents_published.fetch_add(1,
                                                  std::memory_order_relaxed);
  documents_published_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status Service::Flush() {
  auto gate = std::make_shared<FlushGate>();
  {
    MutexLock gate_lock(gate->mu);
    gate->remaining = shards_.size();
  }
  auto op = std::make_shared<ControlOp>();
  op->kind = ControlOp::Kind::kFlush;
  op->gate = gate;
  bool emitted;
  {
    MutexLock control_lock(control_mu_);
    emitted = EmitControl(std::move(op));
  }
  if (!emitted) {
    // Stopping: Stop() drains everything, which is a stronger barrier, and
    // a partially emitted marker may never complete every shard's gate.
    MutexLock lock(mu_);
    return first_error_;
  }
  {
    MutexLock gate_lock(gate->mu);
    while (gate->remaining != 0) gate->cv.Wait(gate->mu);
  }
  MutexLock err_lock(mu_);
  return first_error_;
}

ServiceStats Service::stats() const {
  ServiceStats s;
  s.documents_published = documents_published_.load(std::memory_order_relaxed);
  s.documents_rejected = documents_rejected_.load(std::memory_order_relaxed);
  s.events_parsed = events_parsed_.load(std::memory_order_relaxed);
  s.results_delivered = results_delivered_.load(std::memory_order_relaxed);
  s.results_overflowed = results_overflowed_.load(std::memory_order_relaxed);
  {
    MutexLock lock(mu_);
    s.active_subscriptions = active_subscriptions_;
  }
  for (const auto& stream : streams_) {
    StreamStatsSnapshot snap;
    snap.documents_published =
        stream->documents_published.load(std::memory_order_relaxed);
    snap.documents_parsed =
        stream->documents_parsed.load(std::memory_order_relaxed);
    snap.documents_rejected =
        stream->documents_rejected.load(std::memory_order_relaxed);
    snap.events_parsed =
        stream->events_parsed.load(std::memory_order_relaxed);
    snap.queue_depth = stream->queue.size();
    snap.queue_high_watermark = stream->queue.high_watermark();
    snap.publish_blocked_nanos = stream->queue.producer_blocked_nanos();
    s.ingest_queue_depth += snap.queue_depth;
    s.streams.push_back(snap);
  }
  uint64_t min_docs = 0;
  bool first = true;
  for (const auto& shard : shards_) {
    ShardStatsSnapshot snap;
    snap.documents = shard->documents.load(std::memory_order_relaxed);
    snap.events = shard->events.load(std::memory_order_relaxed);
    snap.queue_depth = shard->inbox.size();
    snap.queue_high_watermark = shard->inbox.high_watermark();
    snap.fanout_blocked_nanos = shard->inbox.producer_blocked_nanos();
    snap.live_queries = shard->live_queries.load(std::memory_order_relaxed);
    snap.live_machines = shard->live_machines.load(std::memory_order_relaxed);
    s.active_plan_machines += snap.live_machines;
    {
      MutexLock lock(shard->dispatch_mu);
      snap.dispatch = shard->dispatch;
    }
    s.events_replayed += snap.events;
    min_docs = first ? snap.documents : std::min(min_docs, snap.documents);
    first = false;
    s.shards.push_back(snap);
  }
  s.documents_processed = min_docs;
  s.uptime_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();
  // Rate floor: immediately after construction uptime is microseconds, and
  // dividing by it extrapolates the first few documents into absurd
  // per-second figures. Below the floor the honest answer is "no rate yet".
  if (s.uptime_seconds >= kMinRateUptimeSeconds) {
    s.docs_per_sec = static_cast<double>(s.documents_processed) /
                     s.uptime_seconds;
    s.events_per_sec =
        static_cast<double>(s.events_parsed) / s.uptime_seconds;
  }
  return s;
}

std::string Service::StatszText() const {
  // Snapshot-derived series first (ServiceStats counters, queue telemetry,
  // per-shard dispatch stats), then the registry's hot-path histograms.
  // Both halves share the serializer, so the payload is one consistent
  // Prometheus text exposition.
  ServiceStats s = stats();
  obs::PrometheusWriter w;
  w.WriteCounter("vitex_documents_published_total",
                 "Documents accepted by Publish", {}, s.documents_published);
  w.WriteCounter("vitex_documents_rejected_total",
                 "Published documents that failed the ingest parse", {},
                 s.documents_rejected);
  w.WriteCounter("vitex_documents_processed_total",
                 "Documents completed by every shard", {},
                 s.documents_processed);
  w.WriteCounter("vitex_events_parsed_total",
                 "SAX events recorded by the ingest parses", {},
                 s.events_parsed);
  w.WriteCounter("vitex_events_replayed_total",
                 "SAX events replayed into shard engines (sum over shards)",
                 {}, s.events_replayed);
  w.WriteCounter("vitex_results_delivered_total",
                 "Query solutions delivered into subscriber sinks", {},
                 s.results_delivered);
  w.WriteCounter("vitex_results_overflowed_total",
                 "Push-mode deliveries refused by their MatchSink and "
                 "dropped (match_sink.h overflow contract)",
                 {}, s.results_overflowed);
  w.WriteGauge("vitex_active_subscriptions", "Live standing subscriptions",
               {}, static_cast<double>(s.active_subscriptions));
  w.WriteGauge("vitex_active_plan_machines",
               "Live plan machines across shards (plan sharing keeps this "
               "at or below active_subscriptions)",
               {}, static_cast<double>(s.active_plan_machines));
  w.WriteGauge("vitex_uptime_seconds", "Seconds since service construction",
               {}, s.uptime_seconds);
  w.WriteGauge("vitex_docs_per_sec",
               "documents_processed / uptime (0 below the uptime floor)", {},
               s.docs_per_sec);
  w.WriteGauge("vitex_events_per_sec",
               "events_parsed / uptime (0 below the uptime floor)", {},
               s.events_per_sec);

  auto stream_label = [](size_t i) {
    return obs::Labels{{"stream", std::to_string(i)}};
  };
  for (size_t i = 0; i < s.streams.size(); ++i) {
    w.WriteCounter("vitex_stream_documents_published_total",
                   "Documents accepted by Publish, per stream",
                   stream_label(i), s.streams[i].documents_published);
  }
  for (size_t i = 0; i < s.streams.size(); ++i) {
    w.WriteCounter("vitex_stream_documents_parsed_total",
                   "Documents parsed OK, per stream", stream_label(i),
                   s.streams[i].documents_parsed);
  }
  for (size_t i = 0; i < s.streams.size(); ++i) {
    w.WriteCounter("vitex_stream_documents_rejected_total",
                   "Documents that failed to parse, per stream",
                   stream_label(i), s.streams[i].documents_rejected);
  }
  for (size_t i = 0; i < s.streams.size(); ++i) {
    w.WriteGauge("vitex_stream_queue_depth",
                 "Documents waiting in the stream's ingest queue",
                 stream_label(i),
                 static_cast<double>(s.streams[i].queue_depth));
  }
  for (size_t i = 0; i < s.streams.size(); ++i) {
    w.WriteGauge("vitex_stream_queue_high_watermark",
                 "Deepest the stream's ingest queue has ever been",
                 stream_label(i),
                 static_cast<double>(s.streams[i].queue_high_watermark));
  }
  for (size_t i = 0; i < s.streams.size(); ++i) {
    w.WriteCounter(
        "vitex_stream_publish_blocked_nanos_total",
        "Nanoseconds publishers spent blocked on this stream's full "
        "ingest queue (backpressure reaching the caller)",
        stream_label(i), s.streams[i].publish_blocked_nanos);
  }

  auto shard_label = [](size_t i) {
    return obs::Labels{{"shard", std::to_string(i)}};
  };
  for (size_t i = 0; i < s.shards.size(); ++i) {
    w.WriteCounter("vitex_shard_documents_total",
                   "Documents fully processed, per shard", shard_label(i),
                   s.shards[i].documents);
  }
  for (size_t i = 0; i < s.shards.size(); ++i) {
    w.WriteCounter("vitex_shard_events_total",
                   "SAX events replayed, per shard", shard_label(i),
                   s.shards[i].events);
  }
  for (size_t i = 0; i < s.shards.size(); ++i) {
    w.WriteGauge("vitex_shard_inbox_depth",
                 "Items queued across the shard's inbox lanes",
                 shard_label(i), static_cast<double>(s.shards[i].queue_depth));
  }
  for (size_t i = 0; i < s.shards.size(); ++i) {
    w.WriteGauge("vitex_shard_inbox_high_watermark",
                 "Deepest the shard's inbox has ever been (all lanes)",
                 shard_label(i),
                 static_cast<double>(s.shards[i].queue_high_watermark));
  }
  for (size_t i = 0; i < s.shards.size(); ++i) {
    w.WriteCounter(
        "vitex_shard_fanout_blocked_nanos_total",
        "Nanoseconds parser streams spent blocked pushing into this "
        "shard's inbox (the shard was the bottleneck)",
        shard_label(i), s.shards[i].fanout_blocked_nanos);
  }
  for (size_t i = 0; i < s.shards.size(); ++i) {
    w.WriteGauge("vitex_shard_live_queries", "Subscriptions owned, per shard",
                 shard_label(i),
                 static_cast<double>(s.shards[i].live_queries));
  }
  for (size_t i = 0; i < s.shards.size(); ++i) {
    w.WriteGauge("vitex_shard_live_machines",
                 "Plan machines executing, per shard (DESIGN.md §7)",
                 shard_label(i),
                 static_cast<double>(s.shards[i].live_machines));
  }
  // DispatchStats folded into the exposition: ForEachDispatchStat is the
  // single enumeration of the struct, so new engine counters show up here
  // without touching this file. Grouped name-major (one TYPE header per
  // metric, shards as labels).
  twigm::ForEachDispatchStat(
      twigm::DispatchStats{},
      [&](const char* field, uint64_t, bool is_gauge) {
        std::string name = std::string("vitex_shard_dispatch_") + field;
        if (!is_gauge) name += "_total";
        for (size_t i = 0; i < s.shards.size(); ++i) {
          uint64_t value = 0;
          twigm::ForEachDispatchStat(
              s.shards[i].dispatch,
              [&](const char* inner, uint64_t v, bool) {
                if (std::string_view(inner) == field) value = v;
              });
          if (is_gauge) {
            w.WriteGauge(name, "", shard_label(i),
                         static_cast<double>(value));
          } else {
            w.WriteCounter(name, "", shard_label(i), value);
          }
        }
      });

  std::string out = w.TakeText();
  out += registry_.RenderText();
  return out;
}

// ---------------------------------------------------------------------------
// Stream threads: parse once (concurrently with the other streams, under a
// shared lock on the frozen SymbolTable), fan the event log out to every
// shard; forward control markers in FIFO position.
// ---------------------------------------------------------------------------

void Service::StreamLoop(Stream* stream) {
  xml::SaxParserOptions parse_options = options_.sax_options;
  parse_options.symbols = &symbols_;
  while (std::optional<StreamItem> item = stream->queue.Pop()) {
    if (item->op != nullptr) {
      // Control marker: deliver to EVERY shard's lane before touching the
      // next queue item. This "fully forwarded before the next item"
      // invariant is what makes the shard barrier deadlock-free
      // (DESIGN.md §9).
      for (auto& shard : shards_) {
        ShardItem marker;
        marker.kind = ShardItem::Kind::kMarker;
        marker.op = item->op;
        shard->inbox.Push(stream->index, std::move(marker));
      }
      continue;
    }
    // Stage tracing: ingest-queue wait ends and the parse begins now.
    int64_t parse_start_ns = 0;
    if (stream->ingest_wait_hist != nullptr) {
      parse_start_ns = MonotonicNanos();
      stream->ingest_wait_hist->Record(
          static_cast<uint64_t>(parse_start_ns - item->publish_ns));
    }
    auto log = std::make_shared<xml::EventLog>();
    Status parsed;
    {
      // Parse with the table in its read-only phase: any number of streams
      // may hold this shared lock at once; only Subscribe takes it
      // exclusively (to intern a new query vocabulary).
      ReaderMutexLock symbols_lock(symbols_.mu());
      xml::EventRecorder recorder(log.get());
      parsed = xml::ParseString(item->document, &recorder, parse_options);
    }
    int64_t parse_done_ns = 0;
    if (stream->parse_hist != nullptr) {
      parse_done_ns = MonotonicNanos();
      // Rejected documents still count: their parse work was real.
      stream->parse_hist->Record(
          static_cast<uint64_t>(parse_done_ns - parse_start_ns));
    }
    if (!parsed.ok()) {
      // A malformed publication is dropped, not fatal: pub/sub streams
      // outlive one bad document.
      stream->documents_rejected.fetch_add(1, std::memory_order_relaxed);
      documents_rejected_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    stream->documents_parsed.fetch_add(1, std::memory_order_relaxed);
    stream->events_parsed.fetch_add(log->size(), std::memory_order_relaxed);
    events_parsed_.fetch_add(log->size(), std::memory_order_relaxed);
    std::shared_ptr<DocTrace> trace;
    if (stream->parse_hist != nullptr) {
      trace = std::make_shared<DocTrace>();
      trace->publish_ns = item->publish_ns;
      trace->shards_remaining.store(shards_.size(),
                                    std::memory_order_relaxed);
    }
    for (auto& shard : shards_) {
      ShardItem doc;
      doc.kind = ShardItem::Kind::kDocument;
      doc.log = log;  // shared: one parse, N replays
      doc.enqueue_ns = parse_done_ns;
      doc.trace = trace;
      shard->inbox.Push(stream->index, std::move(doc));  // backpressure
    }
  }
  // Stream queue closed and drained: release this lane on every shard.
  for (auto& shard : shards_) shard->inbox.CloseLane(stream->index);
}

// ---------------------------------------------------------------------------
// Shard threads: merge the per-stream lanes, replaying documents into the
// private engine and applying control ops at their epoch boundary — when
// the op's marker has arrived on every lane. A lane that has delivered the
// pending op's marker is held back (its cap) until the barrier completes,
// so no document published after the op's epoch is replayed before it.
// ---------------------------------------------------------------------------

void Service::ApplyControl(Shard* shard, ControlOp* op) {
  twigm::MultiQueryEngine& engine = *shard->engine;
  switch (op->kind) {
    case ControlOp::Kind::kSubscribe: {
      if (shard->failed) break;
      Result<twigm::QueryId> qid = engine.AddBuilt(std::move(*op->machine));
      if (!qid.ok()) {
        RecordError(qid.status());
        break;
      }
      shard->queries[op->subscription] = qid.value();
      shard->sinks[op->subscription] = std::move(op->sink);
      shard->live_queries.store(shard->queries.size(),
                                std::memory_order_relaxed);
      shard->live_machines.store(engine.machine_count(),
                                 std::memory_order_relaxed);
      break;
    }
    case ControlOp::Kind::kUnsubscribe: {
      auto it = shard->queries.find(op->subscription);
      if (it == shard->queries.end()) break;  // never installed (failed)
      if (!shard->failed) {
        (void)engine.RemoveQuery(it->second);
      }
      shard->queries.erase(it);
      shard->sinks.erase(op->subscription);
      shard->live_queries.store(shard->queries.size(),
                                std::memory_order_relaxed);
      shard->live_machines.store(engine.machine_count(),
                                 std::memory_order_relaxed);
      break;
    }
    case ControlOp::Kind::kFlush: {
      MutexLock lock(op->gate->mu);
      if (--op->gate->remaining == 0) op->gate->cv.NotifyAll();
      break;
    }
  }
}

void Service::ShardLoop(Shard* shard) {
  const size_t lanes = streams_.size();
  // Per-lane pop counts (single consumer: these mirror the inbox's own
  // counts) and the active caps. limits[l] == popped[l] freezes lane l.
  std::vector<uint64_t> popped(lanes, 0);
  std::vector<uint64_t> limits(lanes, BoundedQueueGroup<ShardItem>::kNoLimit);
  std::shared_ptr<ControlOp> pending;  // barrier in progress
  size_t lanes_at_barrier = 0;
  // Ops force-applied during shutdown drain: stale copies of their marker
  // may still surface from other lanes and must not re-barrier (a flush
  // gate decremented twice, a subscribe's machine moved-from twice).
  std::unordered_set<const ControlOp*> force_applied;

  while (true) {
    std::optional<BoundedQueueGroup<ShardItem>::Popped> next =
        shard->inbox.PopReady(limits.data());
    if (!next.has_value()) {
      if (pending != nullptr) {
        // Shutdown drain: some lane closed before delivering the pending
        // op's marker (its emit raced Stop()). Epoch exactness is moot —
        // every machine is about to be torn down — but flush gates must
        // still release their waiters, so force-apply and keep draining.
        ApplyControl(shard, pending.get());
        force_applied.insert(pending.get());
        pending.reset();
        lanes_at_barrier = 0;
        std::fill(limits.begin(), limits.end(),
                  BoundedQueueGroup<ShardItem>::kNoLimit);
        continue;
      }
      break;  // every lane closed and fully drained
    }
    const size_t lane = next->lane;
    ++popped[lane];
    ShardItem& item = next->item;
    if (item.kind == ShardItem::Kind::kDocument) {
      if (shard->failed) continue;  // fail-stop, but keep draining
      const bool traced =
          shard->match_hist != nullptr && item.trace != nullptr;
      int64_t pop_ns = 0;
      if (traced) {
        pop_ns = MonotonicNanos();
        shard->queue_wait_hist->Record(
            static_cast<uint64_t>(pop_ns - item.enqueue_ns));
      }
      Status status = shard->engine->RunEvents(*item.log);
      if (!status.ok()) {
        shard->failed = true;
        RecordError(status);
        continue;
      }
      if (traced) {
        int64_t done_ns = MonotonicNanos();
        shard->match_hist->Record(static_cast<uint64_t>(done_ns - pop_ns));
        // The last shard to finish this document owns its end-to-end
        // latency sample.
        if (item.trace->shards_remaining.fetch_sub(
                1, std::memory_order_relaxed) == 1) {
          e2e_hist_->Record(
              static_cast<uint64_t>(done_ns - item.trace->publish_ns));
        }
      }
      shard->documents.fetch_add(1, std::memory_order_relaxed);
      shard->events.fetch_add(item.log->size(), std::memory_order_relaxed);
      MutexLock lock(shard->dispatch_mu);
      shard->dispatch = shard->engine->dispatch_stats();
      continue;
    }
    // Marker. Because ops enter every lane in one consistent order and a
    // lane freezes once it delivers the pending op's marker, a marker
    // popped while a barrier is pending is either that op's (from a lane
    // that hadn't delivered it yet) or an older, not-handled-here op's.
    if (force_applied.count(item.op.get()) != 0) continue;  // stale copy
    if (pending != nullptr) {
      if (item.op != pending) continue;  // older op, no barrier here
    } else if (ShardHandles(*shard, *item.op)) {
      pending = item.op;
      lanes_at_barrier = 0;
    } else {
      continue;  // marker for another shard's subscription
    }
    limits[lane] = popped[lane];  // freeze this lane at the epoch boundary
    if (++lanes_at_barrier == lanes) {
      ApplyControl(shard, pending.get());
      pending.reset();
      lanes_at_barrier = 0;
      std::fill(limits.begin(), limits.end(),
                BoundedQueueGroup<ShardItem>::kNoLimit);
    }
  }
}

// ---------------------------------------------------------------------------
// Subscription handles.
// ---------------------------------------------------------------------------

Subscription::Subscription(Service* service, SubscriptionId id,
                           std::shared_ptr<Service::PullSink> pull)
    : service_(service), id_(id), pull_(std::move(pull)) {}

Subscription& Subscription::operator=(Subscription&& other) noexcept {
  if (this != &other) {
    (void)Unsubscribe();
    service_ = other.service_;
    id_ = other.id_;
    pull_ = std::move(other.pull_);
    other.service_ = nullptr;
  }
  return *this;
}

Result<std::vector<Delivery>> Subscription::Drain() {
  if (service_ == nullptr) {
    return Status::InvalidArgument("subscription handle is inactive");
  }
  if (pull_ == nullptr) {
    return Status::InvalidArgument(
        "subscription is push-mode; deliveries go to its MatchSink");
  }
  return pull_->Drain();
}

Status Subscription::Unsubscribe() {
  if (service_ != nullptr) service_->Unsubscribe(id_);
  service_ = nullptr;
  pull_.reset();
  return Status::OK();
}

}  // namespace vitex
