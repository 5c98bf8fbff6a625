#include "serve/server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <istream>
#include <ostream>
#include <utility>

#include "graph/graph_io.h"

namespace relmax {
namespace serve {

void ResponseSequencer::Post(uint64_t seq, const std::string& line) {
  std::lock_guard<std::mutex> lock(mu_);
  pending_[seq] = line;
  bool wrote = false;
  while (!pending_.empty() && pending_.begin()->first == next_write_) {
    out_ << pending_.begin()->second << "\n";
    pending_.erase(pending_.begin());
    ++next_write_;
    wrote = true;
  }
  if (wrote) {
    out_.flush();
    cv_.notify_all();
  }
}

void ResponseSequencer::WaitForAll() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return next_write_ == next_claim_; });
}

ServeStats Server::Run(std::istream& in, std::ostream& out) {
  RunStream(in, out);
  return core_.Stats();
}

bool Server::RunStream(std::istream& in, std::ostream& out) {
  ResponseSequencer seq(out);
  std::string line;
  bool keep_listening = true;
  bool done = false;
  LineRead read;
  while (!done && (read = ReadBoundedLine(in, &line)) != LineRead::kEof) {
    if (read != LineRead::kOk) {
      // The reader holds at most kMaxLineBytes of a line and has already
      // skipped to the next one, so a hostile line costs one error response.
      seq.Post(seq.NextSeq(),
               ErrorResponse(Status::InvalidArgument(
                   read == LineRead::kTooLong ? "line too long"
                                              : "NUL byte in line")));
      continue;
    }
    const StatusOr<Request> parsed = ParseRequest(line);
    if (!parsed.ok()) {
      seq.Post(seq.NextSeq(), ErrorResponse(parsed.status()));
      continue;
    }
    const Request request = *parsed;
    switch (request.kind) {
      case RequestKind::kComment:
        break;  // no response slot consumed
      case RequestKind::kQuery: {
        const uint64_t slot = seq.NextSeq();
        const NodeId s = request.s;
        const NodeId t = request.t;
        core_.Submit(s, t,
                     [&seq, slot, s, t](const StatusOr<double>& result,
                                        uint64_t /*epoch*/) {
                       seq.Post(slot, result.ok()
                                          ? QueryResponse(s, t, *result)
                                          : ErrorResponse(result.status()));
                     });
        break;
      }
      case RequestKind::kUpdate:
      case RequestKind::kAddEdge: {
        // Handled inline on the input thread so the stream's mutation order
        // is the publish order: queries before this line were pinned to the
        // old epoch at submit time, queries after it see the new one.
        const uint64_t slot = seq.NextSeq();
        const StatusOr<uint64_t> epoch =
            request.kind == RequestKind::kUpdate
                ? core_.UpdateEdgeProb(request.s, request.t, request.p)
                : core_.AddEdge(request.s, request.t, request.p);
        if (epoch.ok()) {
          seq.Post(slot,
                   PublishResponse(*epoch, core_.CurrentSnapshot()->version()));
        } else {
          seq.Post(slot, ErrorResponse(epoch.status()));
        }
        break;
      }
      case RequestKind::kStats: {
        // Drain first so the line is deterministic for scripted streams:
        // everything submitted earlier is answered and accounted.
        const uint64_t slot = seq.NextSeq();
        core_.Drain();
        seq.Post(slot, StatsResponse(core_.Stats()));
        break;
      }
      case RequestKind::kEpoch:
        seq.Post(seq.NextSeq(), EpochResponse(*core_.CurrentSnapshot()));
        break;
      case RequestKind::kQuit:
      case RequestKind::kShutdown: {
        const uint64_t slot = seq.NextSeq();
        core_.Drain();
        seq.Post(slot, "OK bye");
        keep_listening = request.kind != RequestKind::kShutdown;
        done = true;
        break;
      }
    }
  }
  // EOF or quit: finish in-flight queries and flush every claimed response.
  core_.Drain();
  seq.WaitForAll();
  return keep_listening;
}

namespace {

/// A std::streambuf over a connected socket fd, bidirectional: one
/// std::istream and one std::ostream over it serve the whole connection,
/// each with its own stream state, so the client half-closing its side (EOF
/// on input) leaves the response stream writable. Unbuffered-ish: sync()
/// after each response line keeps latency flat.
class FdStreambuf : public std::streambuf {
 public:
  explicit FdStreambuf(int fd) : fd_(fd) {
    setg(in_, in_, in_);
    setp(out_, out_ + sizeof(out_));
  }

 protected:
  int_type underflow() override {
    if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
    ssize_t n;
    do {
      n = ::read(fd_, in_, sizeof(in_));
    } while (n < 0 && errno == EINTR);
    if (n <= 0) return traits_type::eof();
    setg(in_, in_, in_ + n);
    return traits_type::to_int_type(*gptr());
  }

  int_type overflow(int_type ch) override {
    if (Flush() != 0) return traits_type::eof();
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
      *pptr() = traits_type::to_char_type(ch);
      pbump(1);
    }
    return traits_type::not_eof(ch);
  }

  int sync() override { return Flush(); }

 private:
  int Flush() {
    const char* p = pbase();
    while (p < pptr()) {
      ssize_t n;
      do {
        n = ::write(fd_, p, static_cast<size_t>(pptr() - p));
      } while (n < 0 && errno == EINTR);
      if (n <= 0) return -1;
      p += n;
    }
    setp(out_, out_ + sizeof(out_));
    return 0;
  }

  int fd_;
  char in_[4096];
  char out_[4096];
};

Status Errno(const std::string& what) {
  return Status::IoError(what + ": " + std::strerror(errno));
}

}  // namespace

int AcceptConnection(int listen_fd) {
  int conn_fd;
  do {
    conn_fd = ::accept(listen_fd, nullptr, nullptr);
  } while (conn_fd < 0 && errno == EINTR);
  if (conn_fd < 0) return -1;
  const int one = 1;
  if (::setsockopt(conn_fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) <
      0) {
    const int saved = errno;
    ::close(conn_fd);
    errno = saved;
    return -1;
  }
  return conn_fd;
}

Status Server::ServePort(uint16_t port,
                         const std::function<void(uint16_t)>& on_listen) {
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd < 0) return Errno("socket");
  const int one = 1;
  ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) < 0) {
    const Status status = Errno("bind");
    ::close(listen_fd);
    return status;
  }
  if (::listen(listen_fd, 16) < 0) {
    const Status status = Errno("listen");
    ::close(listen_fd);
    return status;
  }
  sockaddr_in bound;
  socklen_t bound_len = sizeof(bound);
  std::memset(&bound, 0, sizeof(bound));
  if (::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) < 0) {
    const Status status = Errno("getsockname");
    ::close(listen_fd);
    return status;
  }
  if (on_listen) on_listen(ntohs(bound.sin_port));

  // Sequential connections: one scripted client at a time, which keeps the
  // response order of each stream trivially well-defined. Concurrency lives
  // below this layer (lanes), not across sockets.
  bool keep_listening = true;
  while (keep_listening) {
    const int conn_fd = AcceptConnection(listen_fd);
    if (conn_fd < 0) {
      const Status status = Errno("accept");
      ::close(listen_fd);
      return status;
    }
    FdStreambuf buf(conn_fd);
    std::istream in(&buf);
    std::ostream out(&buf);
    keep_listening = RunStream(in, out);
    out.flush();
    ::close(conn_fd);
  }
  ::close(listen_fd);
  return Status::Ok();
}

}  // namespace serve
}  // namespace relmax
