#include "loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <ctime>

#include "layers.h"

namespace perfbench {

namespace {

using k2::Status;
using k2::net::Frame;
using k2::net::MessageType;

constexpr int kTick = 0;
constexpr int kQuery = 1;
constexpr int kTopK = 2;

Status Errno(const std::string& what) {
  return Status::IOError(what + ": " + std::strerror(errno));
}

}  // namespace

std::string WireQuery::EncodeBody() const {
  if (!topk) return k2::net::EncodeQuery(query);
  k2::net::TopKRequest request;
  request.query = query;
  request.rank = rank;
  request.k = k;
  return k2::net::EncodeTopK(request);
}

k2::Result<std::unique_ptr<WireConn>> WireConn::Connect(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return Errno("socket");
  std::unique_ptr<WireConn> conn(new WireConn(fd));
  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    return Errno("connect");
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK) != 0) {
    return Errno("fcntl");
  }
  auto hello = conn->RoundTrip(MessageType::kHello,
                               k2::net::EncodeHello(k2::net::HelloRequest{}));
  if (!hello.ok()) return hello.status();
  if (hello.value().type != MessageType::kHelloOk) {
    return Status::IOError("handshake refused");
  }
  return conn;
}

WireConn::~WireConn() { ::close(fd_); }

void WireConn::Send(MessageType type, std::string_view body,
                    Pending pending) {
  pending.request_id = next_id_++;
  out_ += k2::net::EncodeFrame(type, pending.request_id, body);
  in_flight_.push_back(pending);
}

Status WireConn::Flush() {
  while (out_off_ < out_.size()) {
    const ssize_t n = ::send(fd_, out_.data() + out_off_,
                             out_.size() - out_off_, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      return Errno("send");
    }
    out_off_ += static_cast<size_t>(n);
  }
  if (out_off_ == out_.size()) {
    out_.clear();
    out_off_ = 0;
  }
  return Status::OK();
}

Status WireConn::Read(std::vector<Reply>* replies) {
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      return Errno("recv");
    }
    if (n == 0) return Status::IOError("server closed the connection");
    reader_.Feed(buf, static_cast<size_t>(n));
  }
  const int64_t now = NowNs();
  Frame frame;
  for (;;) {
    const auto poll = reader_.Next(&frame);
    if (poll == k2::net::FrameReader::Poll::kNeedMore) break;
    if (poll == k2::net::FrameReader::Poll::kError) {
      return Status::IOError("bad reply stream: " + reader_.error_message());
    }
    if (in_flight_.empty() ||
        in_flight_.front().request_id != frame.request_id) {
      return Status::IOError("reply does not match the oldest request");
    }
    replies->push_back(Reply{in_flight_.front(), std::move(frame), now});
    in_flight_.pop_front();
  }
  return Status::OK();
}

k2::Result<Frame> WireConn::RoundTrip(MessageType type,
                                      std::string_view body) {
  Send(type, body, Pending{});
  std::vector<Reply> replies;
  const int64_t deadline = NowNs() + 30'000'000'000LL;
  while (replies.empty()) {
    if (NowNs() > deadline) return Status::IOError("reply timed out");
    if (Status s = Flush(); !s.ok()) return s;
    struct pollfd pfd = {fd_, static_cast<short>(POLLIN |
                                                 (want_write() ? POLLOUT : 0)),
                         0};
    ::poll(&pfd, 1, 100);
    if (Status s = Read(&replies); !s.ok()) return s;
  }
  return std::move(replies.front().frame);
}

Status RunOpenLoop(const LoadPlan& plan, WireConn* feeder,
                   const std::vector<WireConn*>& query_conns,
                   LoadResult* result) {
  const size_t num_phases = plan.phases.size();
  result->phases.assign(num_phases, PhaseResult{});
  std::vector<WireConn*> all = {feeder};
  all.insert(all.end(), query_conns.begin(), query_conns.end());

  // Schedule: phases back to back from `start`; ticks evenly spaced from
  // `start` to the end of the last phase.
  const int64_t start = NowNs() + 5'000'000;
  std::vector<int64_t> phase_start(num_phases + 1, start);
  for (size_t p = 0; p < num_phases; ++p) {
    phase_start[p + 1] =
        phase_start[p] + static_cast<int64_t>(plan.phases[p].seconds * 1e9);
  }
  const int64_t end = phase_start[num_phases];
  const double tick_interval = 1e9 / plan.tick_rate;
  auto tick_due = [&](size_t i) {
    return start + static_cast<int64_t>(static_cast<double>(i) * tick_interval);
  };
  auto phase_of = [&](int64_t due) {
    size_t p = 0;
    while (p + 1 < num_phases && due >= phase_start[p + 1]) ++p;
    return static_cast<int>(p);
  };

  size_t next_tick = 0;
  size_t q_phase = 0;
  uint64_t q_in_phase = 0;   // queries sent in q_phase so far
  uint64_t q_total = 0;      // queries sent overall (mix index)
  auto query_due = [&]() {
    return phase_start[q_phase] +
           static_cast<int64_t>(static_cast<double>(q_in_phase) * 1e9 /
                                plan.phases[q_phase].qps);
  };
  // Skip phases too short to hold a single query.
  auto settle_phase = [&]() {
    while (q_phase < num_phases && query_due() >= phase_start[q_phase + 1]) {
      ++q_phase;
      q_in_phase = 0;
    }
  };
  settle_phase();

  std::vector<bool> sampled_mid(num_phases, false);
  std::vector<bool> sampled_end(num_phases, false);
  auto queries_in_flight = [&]() {
    uint64_t n = 0;
    for (WireConn* c : query_conns) n += c->in_flight();
    return n;
  };

  std::vector<WireConn::Reply> replies;
  const int64_t give_up = end + 60'000'000'000LL;
  // Adaptive polling. A generator that sleeps until each due time adds its
  // own wake-up latency (0.1 ms median, several ms at p99, measured on a
  // 4-vCPU VM) to every request it times; one that always spins takes a
  // processor from the server when the host has fewer to give (measured
  // host capacity on the same VM ranged from 1 to 4 processors). So the
  // loop spins while a reply is due soon and in the last kWakeEarlyNs before
  // a send, and sleeps in ppoll() otherwise, with 1 ns timer slack.
  constexpr int64_t kSpinAfterActivityNs = 200'000;
  constexpr int64_t kWakeEarlyNs = 100'000;
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  std::vector<struct pollfd> pfds(all.size());
  int64_t last_activity = NowNs();
  for (;;) {
    int64_t now = NowNs();
    if (now > give_up) return Status::IOError("replies stopped arriving");

    while (next_tick < plan.num_ticks && tick_due(next_tick) <= now) {
      const int64_t due = tick_due(next_tick);
      const int phase = phase_of(due);
      feeder->Send(MessageType::kIngest, plan.tick_body(next_tick),
                   WireConn::Pending{0, kTick, phase, due});
      now = NowNs();
      last_activity = now;
      result->phases[static_cast<size_t>(phase)].late_ms.push_back(
          static_cast<double>(now - due) / 1e6);
      ++next_tick;
    }
    while (q_phase < num_phases && query_due() <= now) {
      const int64_t due = query_due();
      const WireQuery& q = plan.query(q_total);
      WireConn* conn = query_conns[q_total % query_conns.size()];
      conn->Send(q.type(), q.EncodeBody(),
                 WireConn::Pending{0, q.topk ? kTopK : kQuery,
                                   static_cast<int>(q_phase), due});
      now = NowNs();
      last_activity = now;
      result->phases[q_phase].late_ms.push_back(
          static_cast<double>(now - due) / 1e6);
      ++q_in_phase;
      ++q_total;
      settle_phase();
    }
    for (size_t p = 0; p < num_phases; ++p) {
      const int64_t mid = (phase_start[p] + phase_start[p + 1]) / 2;
      if (!sampled_mid[p] && now >= mid) {
        sampled_mid[p] = true;
        result->phases[p].backlog_mid = queries_in_flight();
      }
      if (!sampled_end[p] && now >= phase_start[p + 1]) {
        sampled_end[p] = true;
        result->phases[p].backlog_end = queries_in_flight();
      }
    }

    for (WireConn* c : all) {
      if (Status s = c->Flush(); !s.ok()) return s;
    }
    replies.clear();
    for (WireConn* c : all) {
      if (Status s = c->Read(&replies); !s.ok()) return s;
    }
    if (!replies.empty()) last_activity = NowNs();
    for (const WireConn::Reply& r : replies) {
      PhaseResult& phase_result =
          result->phases[static_cast<size_t>(r.request.phase)];
      const double ms = static_cast<double>(r.at_ns - r.request.due_ns) / 1e6;
      const bool is_error = r.frame.type == MessageType::kError;
      if (r.request.kind == kTick) {
        if (is_error || r.frame.type != MessageType::kIngestOk) {
          ++result->ingest_errors;
          ++phase_result.errors;
        } else {
          phase_result.tick_ms.push_back(ms);
        }
      } else if (is_error || r.frame.type != MessageType::kConvoys) {
        ++(r.request.kind == kTopK ? result->topk_errors
                                   : result->query_errors);
        ++phase_result.errors;
      } else {
        phase_result.query_ms.push_back(ms);
      }
    }

    bool drained = true;
    for (WireConn* c : all) drained = drained && c->in_flight() == 0;
    if (next_tick >= plan.num_ticks && q_phase >= num_phases && drained &&
        now >= end) {
      break;
    }

    int64_t wake = give_up;
    if (next_tick < plan.num_ticks) wake = tick_due(next_tick);
    if (q_phase < num_phases) wake = std::min(wake, query_due());
    for (size_t p = 0; p < num_phases; ++p) {
      if (!sampled_end[p]) wake = std::min(wake, phase_start[p + 1]);
    }
    now = NowNs();
    if (!drained && now - last_activity < kSpinAfterActivityNs) continue;
    const int64_t sleep_ns =
        std::min<int64_t>(wake - kWakeEarlyNs - now, 100'000'000);
    if (sleep_ns <= 0) continue;
    for (size_t i = 0; i < all.size(); ++i) {
      pfds[i] = {all[i]->fd(),
                 static_cast<short>(POLLIN |
                                    (all[i]->want_write() ? POLLOUT : 0)),
                 0};
    }
    const struct timespec timeout = {
        static_cast<time_t>(sleep_ns / 1'000'000'000),
        static_cast<long>(sleep_ns % 1'000'000'000)};
    ::ppoll(pfds.data(), pfds.size(), &timeout, nullptr);
  }
  result->ticks_sent = next_tick;
  result->queries_sent = q_total;
  return Status::OK();
}

}  // namespace perfbench
