// One live system under test — a vitex::Service with push-sink
// subscriptions, or that service behind a net::Server driven through
// net::Clients over loopback — plus the load generator and the delivery
// checker that drive and judge it.
//
// Generator limits: one publisher (the calling thread) and one churn
// actor; on the wire surface, one reader thread drains every connection
// that carries standing subscriptions (multiplexed over them), and the
// churn actor owns the last connection, which carries only the churned
// subscriptions.
//
// A publication is done when every standing subscription has received
// all of its oracle fragments for that document. Standing subscriptions
// exist from before the warm-up document (publication 0), and with one
// publisher stream each receives its documents in publish order, so a
// per-subscription cursor attributes every delivery to its publication.
// Churned subscriptions all ask for `//stamp/text()` and must receive one
// contiguous, duplicate-free run of publications that covers every
// document published strictly inside their subscribe/unsubscribe window.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "corpus.h"
#include "net/client.h"
#include "net/server.h"
#include "service/vitex.h"
#include "stats.h"

namespace perfbench {

/// Faults the self-test injects into the benchmark's own generator and
/// sinks (never into the program under test).
struct Injection {
  bool drop_one = false;      // a sink ignores one delivery
  int64_t stall_ms = 0;       // a sink stalls once during the open loop
  int64_t slow_gen_us = 0;    // the generator sleeps this long per document
};

struct InstanceOptions {
  bool wire = false;
  /// Documents the closed loop keeps in flight.
  int window = 1;
  /// The open loop's documents per second.
  double open_rate = 0;
  /// Whether subscribe/unsubscribe pairs run beside both loops.
  bool churn = false;
  Injection inject;
  SpanRecorder* spans = nullptr;
  /// Name of the per-document due -> last-MATCH span.
  const char* deliver_span = "bench.deliver";
};

/// Results of one closed- or open-loop phase.
struct PhaseStats {
  double seconds = 0;
  uint64_t completed = 0;
  double cpu_ms = 0;
  std::vector<double> subscribe_us;  // churn Subscribe calls in the phase
  std::vector<double> gen_lag_ms;    // open loop: send time - due time
};

/// The first wrong delivery or broken invariant, for the error report.
struct Divergence {
  bool set = false;
  uint64_t pub = 0;
  int64_t subscription = -1;  // standing index, or service id for churn
  std::string what;
};

class Instance {
 public:
  Instance(const Corpus& corpus, InstanceOptions options);
  ~Instance();
  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;

  /// Starts the service (and server and connections), registers every
  /// standing subscription and delivers the warm-up document (publication
  /// 0). `seconds` is the whole set-up time; `subscribe_us` gets each
  /// Subscribe call's duration.
  vitex::Status Setup(double* seconds, std::vector<double>* subscribe_us);

  /// Keeps `window` documents in flight for `seconds`, pacing on delivery.
  void RunClosed(double seconds, PhaseStats* out);

  /// Sends documents due every 1/open_rate seconds for `seconds`; records
  /// each delivered MATCH's latency from its document's due time into
  /// `latency`.
  void RunOpen(double seconds, LatencyHistogram* latency, PhaseStats* out);

  /// Waits for in-flight documents, validates churned subscriptions,
  /// collects counters, then stops every thread this instance started.
  void Finish();

  // --- after Finish() -----------------------------------------------------
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  const Divergence& divergence() const { return divergence_; }
  std::vector<std::string> CrossCheckErrors() const { return cross_errors_; }
  const vitex::ServiceStats& service_stats() const { return service_stats_; }
  const std::string& statsz() const { return statsz_; }
  const vitex::net::NetStatsSnapshot& net_stats() const { return net_stats_; }
  uint64_t published() const { return next_pub_; }
  uint64_t standing_delivered() const { return standing_delivered_; }
  std::vector<double> publish_call_us() const {
    return {publish_us_.begin(), publish_us_.end()};
  }
  uint64_t poll_nanos() const { return poll_nanos_; }
  uint64_t polled_matches() const { return polled_matches_; }
  /// Time the benchmark spent judging deliveries while traced.
  uint64_t check_nanos() const { return check_nanos_; }
  uint64_t delivered() const { return delivered_; }

 private:
  struct PubSlot;
  struct SubState;
  struct ChurnRecord;
  class Sink;
  class Churner;

  void OnDelivery(uint64_t id, std::string_view fragment, uint64_t sequence,
                  Clock::time_point now);
  /// Judges one delivery against the oracle (OnDelivery minus the fault
  /// injection and the self-timing).
  void Check(uint64_t id, std::string_view fragment, uint64_t sequence,
             Clock::time_point now);
  void Land(uint64_t pub, Clock::time_point now);
  void Complete(uint64_t pub, Clock::time_point now);
  void NoteFailure(uint64_t pub, int64_t sub, std::string what);
  const std::vector<Expected>& ExpectedFor(uint64_t pub, uint32_t q) const {
    return corpus_.expected[pub % corpus_.docs.size()][q];
  }

  vitex::Status Publish(Clock::time_point due, bool measure);
  /// Retires finished publications; abandons ones older than the timeout.
  void Retire(Clock::time_point now);
  uint64_t InFlight() const;
  void WaitForRoom(uint64_t limit, Clock::time_point deadline);
  void Drain(double timeout_s);

  /// Drains connections [first, last); the one that owns the last
  /// connection is also the churn actor.
  void ReaderLoop(size_t first, size_t last);
  /// Runs the churn actor: when a step is due, one Subscribe or
  /// Unsubscribe on `client` (wire) or on the service (in-process).
  void ChurnStep(vitex::net::Client* client);
  void StartChurn();
  void StopChurn();
  void ValidateChurn();

  const Corpus& corpus_;
  const InstanceOptions options_;

  std::unique_ptr<vitex::Service> service_;
  std::unique_ptr<vitex::net::Server> server_;
  std::unique_ptr<vitex::net::Client> publisher_;
  std::vector<std::unique_ptr<vitex::net::Client>> readers_;
  std::vector<std::thread> reader_threads_;
  std::shared_ptr<Sink> sink_;
  std::vector<vitex::Subscription> handles_;  // in-process standing subs

  // Standing subscriptions: service id -> index into subs_ (-1 = churn).
  std::vector<int32_t> standing_index_;
  std::vector<SubState> subs_;

  // Room for every publication that can be in flight at once.
  const size_t ring_size_;
  std::unique_ptr<PubSlot[]> ring_;
  uint64_t next_pub_ = 0;    // publisher thread only
  uint64_t oldest_ = 0;      // publisher thread only: first unretired pub
  uint64_t traced_docs_ = 0; // publisher thread only
  std::atomic<uint64_t> pub_started_{0};   // Publish calls begun
  std::atomic<uint64_t> pub_returned_{0};  // Publish calls returned
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> abandoned_{0};
  std::atomic<uint64_t> lost_{0};          // deliveries of abandoned pubs
  std::atomic<uint64_t> wrong_{0};
  std::atomic<uint64_t> delivered_{0};     // every OnMatch / MATCH seen
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> landed_{0};        // standing deliveries accepted
  std::atomic<LatencyHistogram*> latency_{nullptr};
  std::atomic<bool> open_phase_{false};
  std::atomic<bool> stalled_{false};
  std::atomic<bool> dropped_{false};
  Clock::time_point open_start_;
  double open_seconds_ = 0;
  std::mutex done_mu_;
  std::condition_variable done_cv_;

  // Churn: one actor; on the wire it is the last connection's reader.
  std::mutex churn_mu_;
  std::vector<ChurnRecord> churn_records_;                // guarded
  // Appended from shard threads under churn_mu_: a deque, so growing it
  // never copies the log while a shard waits on the lock.
  std::deque<std::pair<uint64_t, uint64_t>> churn_log_;  // (id, pub)
  std::unique_ptr<Churner> churner_;
  std::thread churn_thread_;
  std::atomic<bool> churn_stop_{true};
  std::atomic<bool> churn_active_{false};
  std::vector<double> churn_subscribe_us_;  // guarded by churn_mu_
  uint64_t churn_calls_ = 0;                // guarded by churn_mu_
  uint64_t churn_failures_ = 0;             // guarded by churn_mu_

  std::atomic<bool> readers_stop_{false};
  std::atomic<uint64_t> reader_deaths_{0};
  std::atomic<uint64_t> poll_nanos_{0};
  std::atomic<uint64_t> polled_matches_{0};
  std::atomic<uint64_t> check_nanos_{0};

  std::deque<double> publish_us_;  // publisher thread only
  uint64_t subscribe_calls_ = 0;

  std::mutex divergence_mu_;
  Divergence divergence_;

  bool finished_ = false;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t standing_delivered_ = 0;
  std::vector<std::string> cross_errors_;
  vitex::ServiceStats service_stats_;
  std::string statsz_;
  vitex::net::NetStatsSnapshot net_stats_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
