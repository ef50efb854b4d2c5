#include "harness.h"

#include <poll.h>
#if defined(__linux__)
#include <sys/prctl.h>
#endif

#include <algorithm>
#include <map>
#include <utility>

namespace perfbench {
namespace {

// A publication not fully delivered this long after it was due is
// abandoned: its missing deliveries count as lost and the loop goes on.
// Long enough that a slow host only delays documents (an open loop that
// falls behind shows in the latencies, not as losses).
constexpr auto kDocTimeout = std::chrono::seconds(20);
// How long the end of a phase waits for the documents still in flight.
constexpr double kDrainSeconds = 60;
constexpr const char* kHost = "127.0.0.1";
// Two connections carry the standing subscriptions, the third the churned
// ones; with the publisher's, nproc (4) connections in all.
constexpr size_t kSubscriberConnections = 3;
constexpr uint64_t kMaxTracedDocs = 50000;
constexpr double kChurnPairsPerS = 10;

double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

}  // namespace

struct Instance::PubSlot {
  std::atomic<int64_t> due{0};
  std::atomic<int64_t> remaining{0};
  std::atomic<int> state{0};  // 0 pending, 1 done, 2 abandoned
  std::atomic<bool> measure{false};
  std::atomic<bool> traced{false};
};

// Per standing subscription; touched by one thread at a time (its shard,
// or its connection's reader).
struct Instance::SubState {
  uint32_t query = 0;
  uint64_t pub = 0;       // publication the next delivery belongs to
  size_t got = 0;         // fragments of `pub` received so far
  std::vector<uint8_t> seen;
};

struct Instance::ChurnRecord {
  uint64_t id = 0;
  // a: pubs returned before Subscribe was called (never delivered);
  // b: pubs started before Subscribe returned; c: pubs returned before
  // Unsubscribe was called ([b, c) must be delivered); e: pubs started
  // before Unsubscribe returned (pubs >= e never delivered).
  uint64_t a = 0, b = 0, c = 0, e = 0;
};

class Instance::Sink : public vitex::MatchSink {
 public:
  explicit Sink(Instance* owner) : owner_(owner) {}
  bool OnMatch(vitex::SubscriptionId id,
               const vitex::Delivery& delivery) override {
    owner_->OnDelivery(id, delivery.fragment, delivery.sequence,
                       Clock::now());
    return true;
  }
  void OnOverflow(vitex::SubscriptionId, uint64_t) override {}

 private:
  Instance* owner_;
};

// The churn actor's state; only the actor thread touches it.
class Instance::Churner {
 public:
  bool active = false;
  bool subscribed = false;
  Clock::time_point next;
  vitex::Subscription handle;  // in-process
  ChurnRecord record;
};

Instance::Instance(const Corpus& corpus, InstanceOptions options)
    : corpus_(corpus),
      options_(options),
      sink_(std::make_shared<Sink>(this)),
      // The closed loop's window, or what the open loop sends before its
      // oldest document is abandoned.
      ring_size_(std::max(static_cast<size_t>(std::max(1, options.window)),
                          static_cast<size_t>(options.open_rate *
                                              kDocTimeout.count())) +
                 2),
      ring_(new PubSlot[ring_size_]),
      churner_(std::make_unique<Churner>()) {}

Instance::~Instance() {
  Finish();
  handles_.clear();
  publisher_.reset();
  readers_.clear();
  if (server_ != nullptr) (void)server_->Stop();
  server_.reset();
  if (service_ != nullptr) (void)service_->Stop();
  service_.reset();
}

vitex::Status Instance::Setup(double* seconds,
                              std::vector<double>* subscribe_us) {
  const Clock::time_point t0 = Clock::now();
  vitex::ServiceOptions service_options;
  service_options.shard_count = corpus_.shards;
  // stream_count stays at its default of one: every subscription then sees
  // its documents in publish order, which the delivery cursor relies on.
  service_ = std::make_unique<vitex::Service>(service_options);
  if (options_.wire) {
    auto server = vitex::net::Server::Start(service_.get());
    if (!server.ok()) return server.status();
    server_ = std::move(server).value();
    auto publisher = vitex::net::Client::Connect(kHost, server_->port());
    if (!publisher.ok()) return publisher.status();
    publisher_ = std::move(publisher).value();
    for (size_t c = 0; c < kSubscriberConnections; ++c) {
      auto reader = vitex::net::Client::Connect(kHost, server_->port());
      if (!reader.ok()) return reader.status();
      readers_.push_back(std::move(reader).value());
    }
  }

  subs_.assign(corpus_.sub_query.size(), SubState{});
  for (size_t s = 0; s < corpus_.sub_query.size(); ++s) {
    subs_[s].query = corpus_.sub_query[s];
    const std::string& query = corpus_.queries[corpus_.sub_query[s]];
    const Clock::time_point s0 = Clock::now();
    uint64_t id = 0;
    if (options_.wire) {
      // The last connection belongs to the churn actor alone, so its
      // blocking Subscribe round trips never hold up standing deliveries.
      auto subscribed = readers_[s % (readers_.size() - 1)]->Subscribe(query);
      if (!subscribed.ok()) return subscribed.status();
      id = subscribed.value();
    } else {
      vitex::SinkOptions sink_options;
      sink_options.mode = vitex::DeliveryMode::kPush;
      sink_options.sink = sink_;
      auto handle = service_->Subscribe(query, std::move(sink_options));
      if (!handle.ok()) return handle.status();
      id = handle->id();
      handles_.push_back(std::move(handle).value());
    }
    const Clock::time_point s1 = Clock::now();
    ++subscribe_calls_;
    if (subscribe_us != nullptr) subscribe_us->push_back(MicrosBetween(s0, s1));
    if (options_.spans != nullptr) options_.spans->Add("xpath.subscribe", s0, s1);
    if (standing_index_.size() <= id) standing_index_.resize(id + 1, -1);
    standing_index_[id] = static_cast<int32_t>(s);
  }

  if (options_.wire) {
    // One reader for the standing connections, one for the churn's.
    const size_t n = readers_.size();
    reader_threads_.emplace_back([this, n] { ReaderLoop(0, n - 1); });
    reader_threads_.emplace_back([this, n] { ReaderLoop(n - 1, n); });
  } else {
    churn_thread_ = std::thread([this] {
      while (!readers_stop_.load()) {
        ChurnStep(nullptr);
        // Sleep to the next churn step, but notice start/stop within 1 ms.
        const Clock::time_point wake = Clock::now() + std::chrono::milliseconds(1);
        std::this_thread::sleep_until(
            churner_->active && churner_->next < wake ? churner_->next : wake);
      }
    });
  }

  VITEX_RETURN_IF_ERROR(Publish(Clock::now(), false));  // warm-up
  Drain(30);
  if (completed_.load() != 1) {
    return vitex::Status::Internal("warm-up document was not delivered");
  }
  *seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  return vitex::Status::OK();
}

// --- delivery checking -----------------------------------------------------

void Instance::NoteFailure(uint64_t pub, int64_t sub, std::string what) {
  std::lock_guard<std::mutex> lock(divergence_mu_);
  if (divergence_.set) return;
  divergence_.set = true;
  divergence_.pub = pub;
  divergence_.subscription = sub;
  divergence_.what = std::move(what);
}

void Instance::OnDelivery(uint64_t id, std::string_view fragment,
                          uint64_t sequence, Clock::time_point now) {
  const uint64_t n = delivered_.fetch_add(1, std::memory_order_relaxed);
  if (options_.inject.drop_one && n == 1000 && !dropped_.exchange(true)) {
    return;
  }
  if (options_.inject.stall_ms > 0 && open_phase_.load() &&
      std::chrono::duration<double>(now - open_start_).count() >
          open_seconds_ / 3 &&
      !stalled_.exchange(true)) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(options_.inject.stall_ms));
    now = Clock::now();
  }
  if (options_.spans != nullptr && options_.spans->enabled()) {
    Check(id, fragment, sequence, now);
    check_nanos_.fetch_add(static_cast<uint64_t>(Nanos(Clock::now()) -
                                                 Nanos(now)),
                           std::memory_order_relaxed);
  } else {
    Check(id, fragment, sequence, now);
  }
}

void Instance::Check(uint64_t id, std::string_view fragment,
                     uint64_t sequence, Clock::time_point now) {
  if (id >= standing_index_.size() || standing_index_[id] < 0) {
    uint64_t pub = 0;
    if (fragment.size() != kStampDigits + 1 || fragment[0] != kStampMark ||
        !ParseStamp(fragment.substr(1), &pub)) {
      wrong_.fetch_add(1);
      NoteFailure(0, static_cast<int64_t>(id),
                  "churned subscription got a fragment that is not a stamp");
      return;
    }
    std::lock_guard<std::mutex> lock(churn_mu_);
    churn_log_.emplace_back(id, pub);
    return;
  }

  const int32_t index = standing_index_[id];
  SubState& s = subs_[static_cast<size_t>(index)];
  auto find = [&](const std::vector<Expected>& list) -> int64_t {
    auto it = std::lower_bound(
        list.begin(), list.end(), sequence,
        [](const Expected& e, uint64_t seq) { return e.sequence < seq; });
    if (it == list.end() || it->sequence != sequence) return -1;
    return it - list.begin();
  };
  // Move the cursor past publications this subscription expects nothing
  // from (at most one template cycle: a query no template answers gets
  // no delivery at all).
  for (size_t k = 0; k < corpus_.docs.size() &&
                     ExpectedFor(s.pub, s.query).empty();
       ++k) {
    ++s.pub;
  }

  // The delivery belongs to the cursor's publication, or — if that one
  // lost deliveries — to a later one; look a full template cycle ahead.
  for (uint64_t p = s.pub; p <= s.pub + corpus_.docs.size(); ++p) {
    const std::vector<Expected>& list = ExpectedFor(p, s.query);
    const int64_t i = list.empty() ? -1 : find(list);
    if (i < 0 || list[static_cast<size_t>(i)].fragment != fragment) continue;
    if (p != s.pub) {
      // Skipping ahead: the cursor's publication lost deliveries (they
      // count as lost when it times out; here the culprit is named).
      NoteFailure(s.pub, index,
                  "lost " +
                      std::to_string(ExpectedFor(s.pub, s.query).size() -
                                     s.got) +
                      " deliveries; next one came from doc " +
                      std::to_string(p));
      s.pub = p;
      s.got = 0;
      s.seen.clear();
    }
    if (s.seen.size() != list.size()) s.seen.assign(list.size(), 0);
    if (s.seen[static_cast<size_t>(i)] != 0) {
      wrong_.fetch_add(1);
      NoteFailure(p, index, "duplicate delivery of sequence " +
                                std::to_string(sequence));
      return;
    }
    s.seen[static_cast<size_t>(i)] = 1;
    Land(p, now);
    if (++s.got == list.size()) {
      ++s.pub;
      s.got = 0;
      s.seen.clear();
    }
    return;
  }
  wrong_.fetch_add(1);
  NoteFailure(s.pub, index,
              "unexpected delivery (sequence " + std::to_string(sequence) +
                  "): " + std::string(fragment.substr(0, 80)));
}

void Instance::Land(uint64_t pub, Clock::time_point now) {
  PubSlot& slot = ring_[pub % ring_size_];
  LatencyHistogram* latency = latency_.load(std::memory_order_acquire);
  if (latency != nullptr && slot.measure.load(std::memory_order_acquire)) {
    latency->Record(Nanos(now) - slot.due.load(std::memory_order_acquire));
  }
  landed_.fetch_add(1, std::memory_order_relaxed);
  if (slot.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    Complete(pub, now);
  }
}

void Instance::Complete(uint64_t pub, Clock::time_point now) {
  PubSlot& slot = ring_[pub % ring_size_];
  int pending = 0;
  if (!slot.state.compare_exchange_strong(pending, 1)) return;
  if (slot.traced.load(std::memory_order_acquire)) {
    const Clock::time_point due{std::chrono::nanoseconds(slot.due.load())};
    options_.spans->Add(options_.deliver_span, due, now,
                        static_cast<int64_t>(pub));
  }
  completed_.fetch_add(1);
  { std::lock_guard<std::mutex> lock(done_mu_); }
  done_cv_.notify_one();
}

// --- publishing and pacing -----------------------------------------------

vitex::Status Instance::Publish(Clock::time_point due, bool measure) {
  const uint64_t pub = next_pub_++;
  const Template& doc = corpus_.docs[pub % corpus_.docs.size()];
  PubSlot& slot = ring_[pub % ring_size_];
  const uint64_t total = corpus_.doc_total[pub % corpus_.docs.size()];
  slot.state.store(0);
  slot.due.store(Nanos(due), std::memory_order_release);
  slot.measure.store(measure, std::memory_order_release);
  // Spans for the first kMaxTracedDocs documents while tracing is on: a
  // 90,000 documents/s loop would otherwise keep millions.
  const bool traced = options_.spans != nullptr && options_.spans->enabled() &&
                      traced_docs_ < kMaxTracedDocs;
  traced_docs_ += traced ? 1 : 0;
  slot.traced.store(traced, std::memory_order_release);
  slot.remaining.store(static_cast<int64_t>(total), std::memory_order_release);
  std::string text;
  StampDocument(doc, pub, &text);

  pub_started_.store(pub + 1);
  const Clock::time_point t0 = Clock::now();
  vitex::Status status = options_.wire ? publisher_->Publish(text)
                                       : service_->Publish(std::move(text));
  const Clock::time_point t1 = Clock::now();
  pub_returned_.store(pub + 1);

  if (traced) {
    publish_us_.push_back(MicrosBetween(t0, t1));
    options_.spans->Add("bench.publish", t0, t1, static_cast<int64_t>(pub),
                        options_.deliver_span);
  }
  if (!status.ok()) {
    rejected_.fetch_add(1);
    NoteFailure(pub, -1, "publish failed: " + status.ToString());
    int pending = 0;
    if (slot.state.compare_exchange_strong(pending, 2)) abandoned_.fetch_add(1);
    return status;
  }
  if (total == 0) Complete(pub, t1);
  return vitex::Status::OK();
}

uint64_t Instance::InFlight() const {
  return next_pub_ - completed_.load() - abandoned_.load();
}

void Instance::Retire(Clock::time_point now) {
  while (oldest_ < next_pub_) {
    PubSlot& slot = ring_[oldest_ % ring_size_];
    if (slot.state.load() != 0) {
      ++oldest_;
      continue;
    }
    const Clock::time_point due{std::chrono::nanoseconds(slot.due.load())};
    if (now - due < kDocTimeout) return;
    int pending = 0;
    if (slot.state.compare_exchange_strong(pending, 2)) {
      abandoned_.fetch_add(1);
      lost_.fetch_add(static_cast<uint64_t>(
          std::max<int64_t>(0, slot.remaining.load())));
      NoteFailure(oldest_, -1, "document not fully delivered within " +
                                   std::to_string(kDocTimeout.count()) + " s");
    }
    ++oldest_;
  }
}

void Instance::WaitForRoom(uint64_t limit, Clock::time_point deadline) {
  while (InFlight() >= limit) {
    const Clock::time_point now = Clock::now();
    if (now >= deadline) return;
    Retire(now);
    // The predicate is checked under done_mu_, which Complete() takes
    // before notifying, so no completion wake-up is lost; the timeout
    // only paces the abandonment checks.
    std::unique_lock<std::mutex> lock(done_mu_);
    done_cv_.wait_for(lock, std::chrono::milliseconds(1),
                      [&] { return InFlight() < limit; });
  }
}

void Instance::Drain(double timeout_s) {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeout_s));
  WaitForRoom(1, deadline);
  // Whatever is still pending has missed the deadline.
  Retire(Clock::now() + kDocTimeout + std::chrono::hours(1));
}

void Instance::RunClosed(double seconds, PhaseStats* out) {
  StartChurn();
  const double cpu0 = ProcessCpuMs();
  const uint64_t done0 = completed_.load();
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point end =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(seconds));
  while (true) {
    WaitForRoom(static_cast<uint64_t>(std::max(1, options_.window)), end);
    const Clock::time_point now = Clock::now();
    if (now >= end) break;
    Retire(now);
    if (!Publish(now, false).ok()) break;
  }
  const Clock::time_point t1 = Clock::now();
  out->completed = completed_.load() - done0;
  out->cpu_ms = ProcessCpuMs() - cpu0;
  out->seconds = std::chrono::duration<double>(t1 - t0).count();
  StopChurn();
  Drain(kDrainSeconds);
}

void Instance::RunOpen(double seconds, LatencyHistogram* latency,
                       PhaseStats* out) {
  StartChurn();
  {
    std::lock_guard<std::mutex> lock(churn_mu_);
    churn_subscribe_us_.clear();
  }
  const double cpu0 = ProcessCpuMs();
  const uint64_t done0 = completed_.load();
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(1);
  open_start_ = t0;
  open_seconds_ = seconds;
  latency_.store(latency, std::memory_order_release);
  open_phase_.store(true);
#if defined(__linux__)
  // Wake at the due time, not up to the default 50 us timer slack later.
  const int slack = prctl(PR_GET_TIMERSLACK);
  prctl(PR_SET_TIMERSLACK, 1UL);
#endif
  const auto interval = std::chrono::duration<double>(1.0 / options_.open_rate);
  out->gen_lag_ms.reserve(static_cast<size_t>(seconds * options_.open_rate) + 1);
  for (uint64_t k = 0;; ++k) {
    const Clock::time_point due =
        t0 + std::chrono::duration_cast<Clock::duration>(interval * k);
    if (due - t0 >= std::chrono::duration<double>(seconds)) break;
    if (options_.inject.slow_gen_us > 0) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(options_.inject.slow_gen_us));
    }
    std::this_thread::sleep_until(due);
    Retire(Clock::now());
    while (next_pub_ - oldest_ >= ring_size_ - 1) {  // backlog fills the ring
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      Retire(Clock::now());
    }
    out->gen_lag_ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - due).count());
    if (!Publish(due, true).ok()) break;
  }
  open_phase_.store(false);
#if defined(__linux__)
  if (slack > 0) prctl(PR_SET_TIMERSLACK, static_cast<unsigned long>(slack));
#endif
  out->seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  StopChurn();
  Drain(kDrainSeconds);
  out->completed = completed_.load() - done0;
  out->cpu_ms = ProcessCpuMs() - cpu0;
  latency_.store(nullptr, std::memory_order_release);
  std::lock_guard<std::mutex> lock(churn_mu_);
  out->subscribe_us = churn_subscribe_us_;
}

// --- churn -------------------------------------------------------------------

void Instance::StartChurn() {
  if (!options_.churn) return;
  churn_stop_.store(false);
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(5);
  while (!churn_active_.load() && Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

void Instance::StopChurn() {
  churn_stop_.store(true);
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(10);
  while (churn_active_.load() && Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

void Instance::ChurnStep(vitex::net::Client* client) {
  Churner& ch = *churner_;
  const Clock::time_point now = Clock::now();
  const bool stop = churn_stop_.load();
  if (!ch.active && stop) return;
  if (!ch.active) {
    ch.active = true;
    ch.next = now;
    churn_active_.store(true);
  }
  if (!stop && now < ch.next) return;
  if (stop && !ch.subscribed) {
    ch.active = false;
    churn_active_.store(false);
    return;
  }
  if (!ch.subscribed) {
    ch.record = ChurnRecord{};
    ch.record.a = pub_returned_.load();
    const bool sample = open_phase_.load();
    const Clock::time_point s0 = Clock::now();
    vitex::Status status;
    if (client != nullptr) {
      auto id = client->Subscribe(kChurnQuery);
      status = id.status();
      if (id.ok()) ch.record.id = id.value();
    } else {
      vitex::SinkOptions sink_options;
      sink_options.mode = vitex::DeliveryMode::kPush;
      sink_options.sink = sink_;
      auto handle = service_->Subscribe(kChurnQuery, std::move(sink_options));
      status = handle.status();
      if (handle.ok()) {
        ch.record.id = handle->id();
        ch.handle = std::move(handle).value();
      }
    }
    const Clock::time_point s1 = Clock::now();
    ch.record.b = pub_started_.load();
    std::lock_guard<std::mutex> lock(churn_mu_);
    ++churn_calls_;
    if (!status.ok()) {
      ++churn_failures_;
      NoteFailure(ch.record.b, -1, "churn subscribe failed: " +
                                       status.ToString());
    } else {
      ch.subscribed = true;
      if (sample) churn_subscribe_us_.push_back(MicrosBetween(s0, s1));
    }
    if (options_.spans != nullptr) {
      options_.spans->Add("xpath.subscribe", s0, s1);
    }
  } else {
    ch.record.c = pub_returned_.load();
    vitex::Status status = client != nullptr
                               ? client->Unsubscribe(ch.record.id)
                               : ch.handle.Unsubscribe();
    ch.record.e = pub_started_.load();
    ch.subscribed = false;
    std::lock_guard<std::mutex> lock(churn_mu_);
    ++churn_calls_;
    if (!status.ok()) {
      ++churn_failures_;
      NoteFailure(ch.record.c, static_cast<int64_t>(ch.record.id),
                  "churn unsubscribe failed: " + status.ToString());
    }
    churn_records_.push_back(ch.record);
  }
  const auto half = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(0.5 / kChurnPairsPerS));
  ch.next += half;
  if (ch.next < now) ch.next = now;  // fell behind: do not burst
}

void Instance::ValidateChurn() {
  std::lock_guard<std::mutex> lock(churn_mu_);
  std::map<uint64_t, std::vector<uint64_t>> received;
  for (const auto& [id, pub] : churn_log_) received[id].push_back(pub);
  attempted_ += churn_calls_;
  failed_ += churn_failures_;
  for (const ChurnRecord& r : churn_records_) {
    std::vector<uint64_t> pubs;
    auto it = received.find(r.id);
    if (it != received.end()) {
      pubs = std::move(it->second);
      received.erase(it);
    }
    uint64_t bad = 0;
    for (size_t i = 0; i < pubs.size(); ++i) {
      if ((i > 0 && pubs[i] != pubs[i - 1] + 1) || pubs[i] < r.a ||
          pubs[i] >= r.e) {
        ++bad;
      }
    }
    uint64_t missing = 0;
    for (uint64_t p = r.b; p < r.c; ++p) {
      if (pubs.empty() || p < pubs.front() || p > pubs.back()) ++missing;
    }
    attempted_ += std::max<uint64_t>(pubs.size(), r.c > r.b ? r.c - r.b : 0);
    if (bad + missing > 0) {
      failed_ += bad + missing;
      NoteFailure(pubs.empty() ? r.b : pubs.front(),
                  static_cast<int64_t>(r.id),
                  "churned subscription run broken: " + std::to_string(bad) +
                      " out of order/window, " + std::to_string(missing) +
                      " missing of [" + std::to_string(r.b) + ", " +
                      std::to_string(r.c) + ")");
    }
  }
  for (const auto& [id, pubs] : received) {  // deliveries for no live churn
    failed_ += pubs.size();
    NoteFailure(pubs.front(), static_cast<int64_t>(id),
                "delivery for a subscription the benchmark never made");
  }
}

// --- wire readers ---------------------------------------------------------

void Instance::ReaderLoop(size_t first, size_t last) {
  std::vector<pollfd> fds;
  for (size_t c = first; c < last; ++c) {
    fds.push_back(pollfd{readers_[c]->fd(), POLLIN, 0});
  }
  vitex::net::Client* churn_client =
      last == readers_.size() ? readers_.back().get() : nullptr;
  while (!readers_stop_.load()) {
    const bool traced = options_.spans != nullptr && options_.spans->enabled();
    if (churn_client != nullptr) ChurnStep(churn_client);
    for (size_t c = first; c < last; ++c) {
      vitex::net::Client* client = readers_[c].get();
      while (true) {
        const Clock::time_point p0 = Clock::now();
        auto match = client->PollMatch(0);
        const Clock::time_point p1 = Clock::now();
        if (traced) {
          poll_nanos_.fetch_add(static_cast<uint64_t>(Nanos(p1) - Nanos(p0)),
                                std::memory_order_relaxed);
        }
        if (!match.ok()) {
          reader_deaths_.fetch_add(1);
          NoteFailure(0, -1, "subscriber connection died: " +
                                 match.status().ToString());
          return;
        }
        if (!match->has_value()) break;
        polled_matches_.fetch_add(1, std::memory_order_relaxed);
        const vitex::net::Match& m = **match;
        OnDelivery(m.subscription_id, m.fragment, m.sequence, p1);
      }
    }
    (void)poll(fds.data(), fds.size(), 1);
  }
}

// --- end of run ---------------------------------------------------------------

void Instance::Finish() {
  if (finished_ || service_ == nullptr) return;
  finished_ = true;
  StopChurn();
  Drain(kDrainSeconds);
  // Let every MATCH the service produced reach the benchmark before the
  // counters are compared.
  (void)service_->Flush();
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(3);
  while (Clock::now() < deadline) {
    const uint64_t produced = options_.wire
                                  ? server_->stats().matches_sent
                                  : service_->stats().results_delivered;
    if (produced <= delivered_.load() || reader_deaths_.load() > 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  service_stats_ = service_->stats();
  statsz_ = options_.wire ? server_->StatszText() : service_->StatszText();
  if (server_ != nullptr) net_stats_ = server_->stats();

  readers_stop_.store(true);
  for (std::thread& t : reader_threads_) t.join();
  reader_threads_.clear();
  if (churn_thread_.joinable()) churn_thread_.join();

  ValidateChurn();
  standing_delivered_ = landed_.load();
  uint64_t expected = 0;
  for (uint64_t p = 0; p < next_pub_; ++p) {
    expected += corpus_.doc_total[p % corpus_.docs.size()];
  }
  attempted_ += next_pub_ + expected + subscribe_calls_;
  failed_ += wrong_.load() + lost_.load() + rejected_.load() +
             reader_deaths_.load() +
             service_stats_.documents_rejected +
             service_stats_.results_overflowed + net_stats_.matches_dropped +
             net_stats_.connections_evicted;

  const uint64_t produced = options_.wire ? net_stats_.matches_sent
                                          : service_stats_.results_delivered;
  if (produced != delivered_.load()) {
    cross_errors_.push_back(
        std::string(options_.wire ? "server matches_sent" :
                                    "service results_delivered") +
        " = " + std::to_string(produced) + " but the benchmark received " +
        std::to_string(delivered_.load()));
  }
  if (service_stats_.documents_published != next_pub_) {
    cross_errors_.push_back(
        "service documents_published = " +
        std::to_string(service_stats_.documents_published) +
        " but the benchmark published " + std::to_string(next_pub_));
  }
}

}  // namespace perfbench
