// Open-loop wire load generator: one thread drives one feeder connection
// (kIngest ticks at a fixed rate) and a few query connections (a fixed
// object/window/region/conjunction/top-k mix at a fixed rate per phase)
// from one adaptive polling loop over non-blocking sockets. Requests are
// sent when due whether or not earlier replies have arrived, so a stalled
// server faces a growing queue instead of a slower client. Every latency is
// taken from the request's due time, which charges a stall to every request
// it delays; how late the generator itself sent each request is reported
// separately.
#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "serve/net/protocol.h"
#include "serve/query.h"

namespace perfbench {

/// One query of the mix: a conjunction (kQuery) or a ranked top-k (kTopK).
struct WireQuery {
  k2::ConvoyQuery query;
  bool topk = false;
  k2::ConvoyRank rank = k2::ConvoyRank::kLongest;
  uint32_t k = 0;

  std::string EncodeBody() const;
  k2::net::MessageType type() const {
    return topk ? k2::net::MessageType::kTopK : k2::net::MessageType::kQuery;
  }
};

/// A non-blocking client connection that pairs replies with requests in
/// send order (the server answers each connection strictly in order).
class WireConn {
 public:
  /// Connects to 127.0.0.1:`port` and completes the kHello handshake.
  static k2::Result<std::unique_ptr<WireConn>> Connect(uint16_t port);
  ~WireConn();
  WireConn(const WireConn&) = delete;
  WireConn& operator=(const WireConn&) = delete;

  struct Pending {
    uint32_t request_id = 0;
    int kind = 0;      ///< caller-defined request class
    int phase = 0;     ///< load phase of the due time
    int64_t due_ns = 0;
  };
  struct Reply {
    Pending request;
    k2::net::Frame frame;
    int64_t at_ns = 0;
  };

  /// Queues one request; nothing is written until Flush().
  void Send(k2::net::MessageType type, std::string_view body,
            Pending pending);
  /// Writes as much queued output as the socket takes without blocking.
  k2::Status Flush();
  /// Reads what has arrived without blocking and appends decoded replies.
  k2::Status Read(std::vector<Reply>* replies);
  /// Blocking request/reply (used outside the timed loop).
  k2::Result<k2::net::Frame> RoundTrip(k2::net::MessageType type,
                                       std::string_view body);

  int fd() const { return fd_; }
  bool want_write() const { return out_off_ < out_.size(); }
  size_t in_flight() const { return in_flight_.size(); }

 private:
  explicit WireConn(int fd) : fd_(fd) {}

  int fd_;
  k2::net::FrameReader reader_;
  std::string out_;
  size_t out_off_ = 0;
  uint32_t next_id_ = 1;
  std::deque<Pending> in_flight_;
};

/// One stretch of the schedule at a fixed query rate.
struct LoadPhase {
  double seconds = 0.0;
  double qps = 0.0;
};

struct PhaseResult {
  std::vector<double> tick_ms;   ///< due -> ingest ack
  std::vector<double> query_ms;  ///< due -> reply
  std::vector<double> late_ms;   ///< due -> sent, ticks and queries
  /// Query requests sent but unanswered at the phase midpoint and end.
  uint64_t backlog_mid = 0;
  uint64_t backlog_end = 0;
  uint64_t errors = 0;  ///< kError replies to this phase's requests
};

struct LoadPlan {
  double tick_rate = 0.0;
  /// Ticks sent over the whole schedule (the feeder keeps going through
  /// every phase; a late generator still sends all of them).
  size_t num_ticks = 0;
  /// Body of the i-th kIngest request.
  std::function<std::string(size_t)> tick_body;
  /// The i-th query of the mix.
  std::function<const WireQuery&(uint64_t)> query;
  std::vector<LoadPhase> phases;
};

struct LoadResult {
  std::vector<PhaseResult> phases;
  uint64_t ticks_sent = 0;
  uint64_t queries_sent = 0;
  uint64_t ingest_errors = 0;
  uint64_t query_errors = 0;
  uint64_t topk_errors = 0;
};

/// Runs `plan` against the feeder and query connections; returns a non-OK
/// status on a transport failure or when replies stop arriving.
k2::Status RunOpenLoop(const LoadPlan& plan, WireConn* feeder,
                       const std::vector<WireConn*>& query_conns,
                       LoadResult* result);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
