#include "net/client.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/socket_io.hpp"

namespace dsx::net {

Client::Client(ClientOptions opts) : opts_(std::move(opts)) {
  fd_ = sockio::connect_tcp(opts_.host, opts_.port, opts_.io_timeout);
  // One send() per request frame: without TCP_NODELAY a pipelined frame
  // waits for the ACK of the one before it.
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

Client::~Client() { close(); }

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

uint64_t Client::send(const std::string& model, const Tensor& image,
                      serve::Priority priority, uint64_t deadline_us) {
  DSX_REQUIRE(fd_ >= 0, "net::Client: connection closed");
  RequestFrame req;
  req.request_id = next_id_++;
  req.model = model;
  req.token = opts_.token;
  req.priority = priority;
  req.deadline_us = deadline_us;
  req.image = image;
  DSX_REQUIRE(sockio::send_all(fd_, encode_request(req)),
              "net::Client: send failed (peer closed or timeout)");
  return req.request_id;
}

ReplyFrame Client::read_reply() {
  uint8_t header[kHeaderBytes];
  DSX_REQUIRE(sockio::recv_all(fd_, header, sizeof(header)),
              "net::Client: connection closed while awaiting a reply");
  FrameType type;
  uint32_t payload_len = 0;
  const HeaderVerdict verdict =
      parse_header(header, opts_.max_frame_bytes, &type, &payload_len);
  DSX_REQUIRE(verdict == HeaderVerdict::kOk && type == FrameType::kReply,
              "net::Client: malformed reply header");
  std::vector<uint8_t> payload(payload_len);
  DSX_REQUIRE(payload_len == 0 ||
                  sockio::recv_all(fd_, payload.data(), payload.size()),
              "net::Client: connection closed mid-reply");
  ReplyFrame reply;
  DSX_REQUIRE(parse_reply_payload(payload.data(), payload.size(), &reply),
              "net::Client: malformed reply payload");
  return reply;
}

ReplyFrame Client::recv(uint64_t request_id) {
  auto it = stash_.find(request_id);
  if (it != stash_.end()) {
    ReplyFrame reply = std::move(it->second);
    stash_.erase(it);
    return reply;
  }
  DSX_REQUIRE(fd_ >= 0, "net::Client: connection closed");
  for (;;) {
    ReplyFrame reply = read_reply();
    if (reply.request_id == request_id) return reply;
    stash_[reply.request_id] = std::move(reply);
  }
}

ReplyFrame Client::infer(const std::string& model, const Tensor& image,
                         serve::Priority priority, uint64_t deadline_us) {
  return recv(send(model, image, priority, deadline_us));
}

}  // namespace dsx::net
