// NetServer: the socket front-end of the query service (docs/NETWORK.md).
//
// One poll()-driven I/O thread multiplexes every client connection:
// it accepts, deframes and decodes requests, and submits queries to the
// target dataset's QueryService — which is non-blocking by construction
// (admission control sheds instead of waiting), so the I/O thread never
// stalls behind the executors. Completions are pushed, not polled: each
// submitted query registers a PendingQuery::NotifyDone callback that
// encodes the response on the finishing worker thread, appends it to the
// connection's write buffer, and wakes the poll loop through a self-pipe.
// A connection may therefore pipeline many requests; responses are matched
// by the echoed request_id and may complete out of order.
//
// Protocol errors (oversized frame, garbage bytes, truncated body) get a
// typed error response when the stream still permits one, then the
// connection is closed — a misframed byte stream cannot be resynchronized.
// Disconnects cancel the connection's in-flight queries and drop its
// prepared statements.

#ifndef MASKSEARCH_NET_SERVER_H_
#define MASKSEARCH_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "masksearch/catalog/catalog.h"
#include "masksearch/net/wire.h"
#include "masksearch/obs/recorder.h"
#include "masksearch/obs/slow_query_log.h"

namespace masksearch {
namespace net {

struct NetServerOptions {
  std::string bind_address = "127.0.0.1";
  uint16_t port = 0;  ///< 0: kernel-chosen; read it back from port()
  uint32_t max_frame_bytes = kDefaultMaxFrameBytes;
  size_t max_connections = 256;  ///< excess accepts are closed immediately
  int listen_backlog = 64;
  /// Backs the wire TRACE command; caller-owned, may be null. Typically the
  /// same log the datasets' QueryServiceOptions point at.
  obs::SlowQueryLog* slow_log = nullptr;
  /// When set, every admitted query/execute is appended as a replayable
  /// trace line. Caller-owned, may be null.
  obs::TraceRecorder* recorder = nullptr;
};

class NetServer {
 public:
  /// \brief Binds, listens, and starts the I/O thread. `catalog` is
  /// caller-owned and must outlive the server.
  static Result<std::unique_ptr<NetServer>> Start(
      Catalog* catalog, const NetServerOptions& options);

  ~NetServer();

  /// \brief The bound port (resolves option port 0).
  uint16_t port() const { return port_; }

  /// \brief Closes the listener and every connection (cancelling their
  /// in-flight queries), joins the I/O thread. Idempotent.
  void Stop();

  struct Stats {
    uint64_t connections_accepted = 0;
    uint64_t requests = 0;
    uint64_t protocol_errors = 0;
    /// Connections that dropped mid-request: in-flight queries, a partial
    /// frame, or unflushed responses at close. A clean quiesced close does
    /// not count. (Server-initiated Stop() closes never count.)
    uint64_t abnormal_disconnects = 0;
    /// poll() interruptions by signal delivery — distinct from quiet
    /// timeout ticks; a SIGTERM-driven shutdown typically shows one.
    uint64_t poll_eintr = 0;
  };
  Stats stats() const;

 private:
  struct Connection;
  /// State shared with completion callbacks, which may outlive the server
  /// (a worker can finish a query after Stop): the wakeup pipe and the
  /// counters live here, behind their own lock.
  struct Core {
    std::mutex mu;
    int wake_fd = -1;  ///< write end of the self-pipe; -1 once stopped
    std::atomic<uint64_t> connections_accepted{0};
    std::atomic<uint64_t> requests{0};
    std::atomic<uint64_t> protocol_errors{0};
    std::atomic<uint64_t> abnormal_disconnects{0};
    std::atomic<uint64_t> poll_eintr{0};

    void Wake();
    /// Appends one encoded response frame to the connection (dropped when
    /// the connection is already closed) and wakes the poll loop.
    void Push(const std::shared_ptr<Connection>& conn,
              const Response& response);
  };

  NetServer(Catalog* catalog, const NetServerOptions& options);

  void Loop();
  void AcceptPending();
  /// Reads everything available; decodes and handles complete frames.
  void HandleReadable(const std::shared_ptr<Connection>& conn);
  void HandleRequest(const std::shared_ptr<Connection>& conn,
                     const Request& request);
  /// Submits through Dataset::Submit — the replication seam: a dataset
  /// with an attached router fans this out across its replica group.
  /// `sqltext` rides along so routed work can reach remote replicas.
  void SubmitQuery(const std::shared_ptr<Connection>& conn,
                   uint64_t request_id, const std::string& dataset_name,
                   ServiceRequest service_request, const std::string& sqltext);
  /// Flushes as much buffered output as the socket accepts.
  void TryFlush(const std::shared_ptr<Connection>& conn);
  /// `count_abnormal` distinguishes peer-side drops (counted when the
  /// connection dies mid-request) from server-initiated Stop() closes.
  void CloseConnection(const std::shared_ptr<Connection>& conn,
                       bool count_abnormal = true);

  Catalog* catalog_;
  NetServerOptions options_;
  std::shared_ptr<Core> core_;
  uint16_t port_ = 0;
  int listen_fd_ = -1;
  int wake_read_fd_ = -1;
  std::atomic<bool> stop_{false};
  std::once_flag stop_once_;
  std::map<int, std::shared_ptr<Connection>> connections_;  ///< loop thread only
  std::thread io_thread_;
  size_t metrics_collector_ = 0;  ///< emits ms_net_requests_total
};

}  // namespace net
}  // namespace masksearch

#endif  // MASKSEARCH_NET_SERVER_H_
