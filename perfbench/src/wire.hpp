// Loopback wire client: framed requests over raw sockets, driven open-loop
// or closed-loop.
//
// Open loop: requests are due on a fixed schedule (rate r: request i is due
// at t0 + i/r) regardless of how fast replies come back, so a stall delays
// every later request and shows in latency, which is timed from each
// request's DUE time. One thread sends on schedule over all connections;
// one receiver thread per connection matches replies by request id.
// Closed loop: each connection keeps a fixed window of requests in flight and
// sends the next one only when a reply arrives.
//
// The sockets set TCP_NODELAY and acknowledge every reply at once, so the
// client's own Nagle and delayed-ACK timers never hold a frame: the numbers
// measure the ingress and the server, not the generator.
//
// Every kOk reply is compared bit for bit with the per-image reference of
// its model; a mismatch counts as a failed request. Nothing is retried.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"
#include "serve/request.hpp"

namespace perfbench {

/// Which model, image and tenant one request uses.
struct Pick {
  int model = 0;
  int image = 0;
  int tenant = 0;
};

/// What the client sends and how replies are checked.
struct WireTarget {
  std::vector<std::string> models;
  std::vector<std::string> tokens;  // per tenant; "" = anonymous
  std::vector<dsx::serve::Priority> priorities;  // per tenant
  std::vector<dsx::Tensor> images;
  std::vector<std::vector<std::vector<float>>> refs;  // [model][image]
  /// Request sequence; the i-th request of a phase uses picks[i % size].
  std::vector<Pick> picks;
};

struct PhaseResult {
  int64_t attempted = 0;
  int64_t failed = 0;      // non-kOk, unanswered, or mismatched
  int64_t mismatches = 0;  // kOk replies whose logits differ from the ref
  std::vector<double> latency_ms;    // open loop, kOk: due -> reply
  std::vector<double> rtt_us;        // open loop, kOk: send -> reply
  std::vector<double> lag_ms;        // open loop, sent: send - due
  std::vector<double> probe_rtt_us;  // unknown-model probes: send -> reply
  double qps = 0.0;                  // closed loop: kOk replies per second
};

class WireClient {
 public:
  /// Connects `connections` sockets to the ingress on `port`.
  WireClient(int port, int connections);
  ~WireClient();
  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  /// Sends rate*seconds requests on schedule and waits for every reply.
  /// `probe_every` > 0 adds one request for an unregistered model after
  /// every probe_every-th request: the ingress answers it without reaching
  /// a batcher, so its round trip is the wire's own cost. Spans go to
  /// `spans` when given.
  PhaseResult open_loop(const WireTarget& target, double rate, double seconds,
                        int probe_every = 0, SpanLog* spans = nullptr);

  /// Keeps `window` requests in flight per connection for `seconds`, then
  /// drains; connection c sends as tenant c % tenants.
  PhaseResult closed_loop(const WireTarget& target, int window,
                          double seconds);

 private:
  std::vector<int> fds_;
};

}  // namespace perfbench
