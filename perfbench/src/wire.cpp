#include "wire.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <thread>

#include "common/socket_io.hpp"
#include "net/protocol.hpp"

namespace perfbench {

namespace {

constexpr auto kIoTimeout = std::chrono::milliseconds(10000);
constexpr const char* kProbeModel = "perfbench-no-such-model";

struct Request {
  Pick pick;
  bool probe = false;
  int conn = 0;
  int64_t due_ns = 0;
  int64_t send_ns = 0;
  int64_t sent_ns = 0;
  int64_t reply_ns = 0;
  bool answered = false;
  bool ok = false;
  bool mismatch = false;
};

/// Reads one reply frame; false on IO or framing failure.
bool read_reply(int fd, dsx::net::ReplyFrame* reply) {
  uint8_t header[dsx::net::kHeaderBytes];
  if (!dsx::sockio::recv_all(fd, header, sizeof(header))) return false;
  // Acknowledge at once (Linux clears quick-ack after use): a delayed ACK
  // here would hold the server's next reply behind Nagle until our next
  // request carries the ACK, and latency would measure the generator.
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof(one));
  dsx::net::FrameType type{};
  uint32_t len = 0;
  if (dsx::net::parse_header(header, dsx::net::kDefaultMaxFrameBytes, &type,
                             &len) != dsx::net::HeaderVerdict::kOk ||
      type != dsx::net::FrameType::kReply) {
    return false;
  }
  std::vector<uint8_t> payload(len);
  if (len > 0 && !dsx::sockio::recv_all(fd, payload.data(), len)) return false;
  return dsx::net::parse_reply_payload(payload.data(), len, reply);
}

/// Marks a reply's outcome: kOk and bit-identical to the reference.
void judge(const WireTarget& target, const dsx::net::ReplyFrame& reply,
           Request& req) {
  req.answered = true;
  if (req.probe || reply.status != dsx::net::Status::kOk) return;
  const auto& want = target.refs[static_cast<size_t>(req.pick.model)]
                                [static_cast<size_t>(req.pick.image)];
  req.mismatch = !same_bits(reply.output.data(), want, reply.output.numel());
  req.ok = !req.mismatch;
}

std::string encode(const WireTarget& target, const Pick& pick, uint64_t id,
                   bool probe, int tenant) {
  dsx::net::RequestFrame f;
  f.request_id = id;
  f.model = probe ? kProbeModel
                  : target.models[static_cast<size_t>(pick.model)];
  f.token = target.tokens[static_cast<size_t>(tenant)];
  f.priority = target.priorities[static_cast<size_t>(tenant)];
  f.image = target.images[static_cast<size_t>(pick.image)];
  return dsx::net::encode_request(f);
}

/// Reads replies on every fd until `done()` or no reply arrives for the IO
/// timeout; `on_reply(conn, reply)` handles each one. A connection whose
/// read fails leaves the poll set.
void receive(const std::vector<int>& fds, const std::function<bool()>& done,
             const std::function<void(int, dsx::net::ReplyFrame&)>& on_reply) {
  std::vector<pollfd> pfds;
  for (int fd : fds) pfds.push_back({fd, POLLIN, 0});
  while (!done()) {
    const int n = ::poll(pfds.data(), pfds.size(),
                         static_cast<int>(kIoTimeout.count()));
    if (n <= 0) return;
    for (size_t c = 0; c < pfds.size(); ++c) {
      if (pfds[c].revents == 0) continue;
      dsx::net::ReplyFrame reply;
      if (!(pfds[c].revents & POLLIN) || !read_reply(pfds[c].fd, &reply)) {
        pfds[c].fd = -1;  // poll ignores negative fds
        continue;
      }
      on_reply(static_cast<int>(c), reply);
    }
  }
}

}  // namespace

WireClient::WireClient(int port, int connections) {
  for (int c = 0; c < connections; ++c) {
    const int fd = dsx::sockio::connect_tcp("127.0.0.1", port, kIoTimeout);
    dsx::sockio::set_io_timeout(fd, kIoTimeout);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    fds_.push_back(fd);
  }
}

WireClient::~WireClient() {
  for (int fd : fds_) ::close(fd);
}

// ---- open loop --------------------------------------------------------------

PhaseResult WireClient::open_loop(const WireTarget& target, double rate,
                                  double seconds, int probe_every,
                                  SpanLog* spans) {
  const size_t conns = fds_.size();
  const int64_t n = std::llround(rate * seconds);
  const double gap_ns = 1e9 / rate;
  // Schedule and frames are built before the clock starts, so the
  // generator's own encoding cost never delays a send.
  std::vector<Request> reqs;
  std::vector<std::string> frames;
  const int64_t t0 = now_ns() + 20'000'000;
  for (int64_t i = 0; i < n; ++i) {
    for (int probe = 0; probe < 2; ++probe) {
      if (probe == 1 && (probe_every <= 0 || i % probe_every != 0)) break;
      Request r;
      r.pick = target.picks[static_cast<size_t>(i) % target.picks.size()];
      r.probe = probe == 1;
      r.conn = static_cast<int>(reqs.size() % conns);
      r.due_ns = t0 + std::llround((static_cast<double>(i) + 0.5 * probe) *
                                   gap_ns);
      frames.push_back(
          encode(target, r.pick, reqs.size(), r.probe, r.pick.tenant));
      reqs.push_back(r);
    }
  }

  size_t received = 0;
  std::thread receiver([&] {
    receive(
        fds_, [&] { return received == reqs.size(); },
        [&](int, dsx::net::ReplyFrame& reply) {
          if (reply.request_id >= reqs.size()) return;
          Request& req = reqs[reply.request_id];
          req.reply_ns = now_ns();
          judge(target, reply, req);
          ++received;
        });
  });
  for (size_t k = 0; k < reqs.size(); ++k) {
    Request& r = reqs[k];
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(r.due_ns)));
    r.send_ns = now_ns();
    if (!dsx::sockio::send_all(fds_[static_cast<size_t>(r.conn)], frames[k])) {
      r.send_ns = 0;
      continue;
    }
    r.sent_ns = now_ns();
  }
  receiver.join();

  PhaseResult res;
  for (const Request& r : reqs) {
    if (r.probe) {
      if (r.answered) res.probe_rtt_us.push_back((r.reply_ns - r.send_ns) * 1e-3);
      continue;
    }
    ++res.attempted;
    if (r.send_ns != 0) res.lag_ms.push_back((r.send_ns - r.due_ns) * 1e-6);
    if (r.mismatch) ++res.mismatches;
    if (!r.ok) {
      ++res.failed;
      continue;
    }
    res.latency_ms.push_back((r.reply_ns - r.due_ns) * 1e-6);
    res.rtt_us.push_back((r.reply_ns - r.send_ns) * 1e-3);
  }
  if (spans != nullptr) {
    for (const Request& r : reqs) {
      if (!r.answered || r.send_ns == 0) continue;
      if (r.probe) {
        spans->add("net.probe", r.send_ns, r.reply_ns, 0, r.conn);
        continue;
      }
      const uint64_t id =
          spans->add("client.request", r.due_ns, r.reply_ns, 0, r.conn);
      spans->add("gen.lag", r.due_ns, r.send_ns, id, r.conn);
      spans->add("net.send", r.send_ns, r.sent_ns, id, r.conn);
      spans->add("server+wire", std::min(r.sent_ns, r.reply_ns), r.reply_ns,
                 id, r.conn);
    }
  }
  return res;
}

// ---- closed loop ------------------------------------------------------------

PhaseResult WireClient::closed_loop(const WireTarget& target, int window,
                                    double seconds) {
  const size_t conns = fds_.size();
  std::vector<Request> reqs;  // indexed by request id
  int64_t inflight = 0;
  int64_t ok_in_window = 0;
  int64_t last_ok_ns = 0;
  PhaseResult res;
  auto send_next = [&](size_t c) {
    const uint64_t id = reqs.size();
    Request r;
    r.pick = target.picks[id % target.picks.size()];
    r.conn = static_cast<int>(c);
    reqs.push_back(r);
    ++res.attempted;
    const int tenant = static_cast<int>(c % target.tokens.size());
    if (dsx::sockio::send_all(fds_[c],
                              encode(target, r.pick, id, false, tenant))) {
      ++inflight;
    }
  };
  const int64_t t0 = now_ns();
  const int64_t end = t0 + static_cast<int64_t>(seconds * 1e9);
  for (size_t c = 0; c < conns; ++c) {
    for (int w = 0; w < window; ++w) send_next(c);
  }
  receive(
      fds_, [&] { return inflight == 0; },
      [&](int c, dsx::net::ReplyFrame& reply) {
        if (reply.request_id >= reqs.size()) return;
        Request& req = reqs[reply.request_id];
        judge(target, reply, req);
        --inflight;
        const int64_t t = now_ns();
        if (req.ok && t < end) {
          ++ok_in_window;
          last_ok_ns = t;
        }
        if (t < end) send_next(static_cast<size_t>(c));
      });
  for (const Request& r : reqs) {
    if (r.mismatch) ++res.mismatches;
    if (!r.ok) ++res.failed;
  }
  // Replies per second up to the last one answered inside the window.
  res.qps = last_ok_ns > t0 ? static_cast<double>(ok_in_window) /
                                  (static_cast<double>(last_ok_ns - t0) * 1e-9)
                            : 0.0;
  return res;
}

}  // namespace perfbench
