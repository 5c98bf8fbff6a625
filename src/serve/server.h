#ifndef RELMAX_SERVE_SERVER_H_
#define RELMAX_SERVE_SERVER_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <istream>
#include <map>
#include <mutex>
#include <ostream>
#include <string>

#include "common/status.h"
#include "serve/protocol.h"
#include "serve/serve_core.h"

namespace relmax {
namespace serve {

/// Reorder buffer that writes response lines to a stream in request order.
/// Each request claims the next sequence number; lane callbacks complete out
/// of order, and whichever Post() fills the head-of-line gap flushes the
/// whole ready run — no dedicated writer thread.
class ResponseSequencer {
 public:
  explicit ResponseSequencer(std::ostream& out) : out_(out) {}

  /// Claims the next response slot (call from the input thread, in order).
  uint64_t NextSeq() { return next_claim_++; }

  /// Delivers the response for `seq`; writes every consecutive ready line.
  void Post(uint64_t seq, const std::string& line);

  /// Blocks until every claimed response has been written. Call only from
  /// the input thread (the single caller of NextSeq).
  void WaitForAll();

 private:
  std::ostream& out_;
  uint64_t next_claim_ = 0;  // touched only by the input thread
  std::mutex mu_;
  std::condition_variable cv_;
  uint64_t next_write_ = 0;              // guarded by mu_
  std::map<uint64_t, std::string> pending_;  // guarded by mu_
};

/// Accepts the next connection on the listening socket `listen_fd`
/// (retrying EINTR) and sets TCP_NODELAY on it: every response is a small
/// line that a pipelined client may be waiting on, and Nagle would hold
/// the second of two back-to-back lines until the client's delayed ACK
/// (about 40 ms). Returns the connected fd, or -1 with errno set.
int AcceptConnection(int listen_fd);

/// The wire front-end: reads protocol lines from a stream (stdin or a
/// socket), dispatches them to a ServeCore, and writes one response line per
/// request in request order. Mutations and queries interleave exactly as
/// submitted: a query before an `update` line answers on the old epoch, a
/// query after it on the new one.
class Server {
 public:
  Server(UncertainGraph graph, const ServeOptions& options)
      : core_(std::move(graph), options) {}

  /// Serves one request stream until `quit`/`shutdown`/EOF; drains in-flight
  /// queries before returning. Returns the final stats (also printed by the
  /// `stats` command).
  ServeStats Run(std::istream& in, std::ostream& out);

  /// Serves sequential connections on a TCP port (0 picks an ephemeral
  /// port). `on_listen` (if set) receives the bound port once the listener
  /// is ready. Each connection runs the line protocol; `quit` ends the
  /// connection, `shutdown` also stops the listener.
  Status ServePort(uint16_t port,
                   const std::function<void(uint16_t)>& on_listen = nullptr);

  ServeCore& core() { return core_; }

 private:
  /// Returns false when the stream asked the whole server to shut down.
  bool RunStream(std::istream& in, std::ostream& out);

  ServeCore core_;
};

}  // namespace serve
}  // namespace relmax

#endif  // RELMAX_SERVE_SERVER_H_
