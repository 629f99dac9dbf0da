#include "masksearch/net/server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <utility>

#include "masksearch/catalog/prepared.h"
#include "masksearch/obs/metrics.h"

namespace masksearch {
namespace net {

namespace {

Status Errno(const std::string& what) {
  return Status::IOError(what + ": " + std::strerror(errno));
}

Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Errno("fcntl(O_NONBLOCK)");
  }
  return Status::OK();
}

}  // namespace

/// Per-connection state. The poll loop owns fd / read_buf / stmts; the
/// mutex guards what completion callbacks running on service worker
/// threads touch: the write buffer, the in-flight set, and `closed`.
struct NetServer::Connection {
  int fd = -1;

  // Loop-thread-only state.
  std::string read_buf;
  std::map<uint64_t, std::shared_ptr<PreparedStatement>> stmts;
  std::map<uint64_t, std::string> stmt_dataset;  ///< stmt_id → dataset name
  uint64_t next_stmt_id = 1;

  std::mutex mu;
  std::string write_buf;
  bool closed = false;
  /// Protocol error: the error response is flushed, then the socket closes.
  bool close_after_flush = false;
  /// Queries submitted but not yet completed; cancelled on disconnect.
  std::map<uint64_t, std::shared_ptr<PendingQuery>> in_flight;
};

void NetServer::Core::Wake() {
  std::lock_guard<std::mutex> lock(mu);
  if (wake_fd < 0) return;
  const char byte = 1;
  // The pipe being full is fine: the loop is already due to wake.
  [[maybe_unused]] ssize_t n = ::write(wake_fd, &byte, 1);
}

void NetServer::Core::Push(const std::shared_ptr<Connection>& conn,
                           const Response& response) {
  const std::string frame = EncodeFrame(EncodeResponse(response));
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->closed) return;
    conn->write_buf += frame;
  }
  Wake();
}

NetServer::NetServer(Catalog* catalog, const NetServerOptions& options)
    : catalog_(catalog),
      options_(options),
      core_(std::make_shared<Core>()) {
  metrics_collector_ = obs::MetricsRegistry::Default().AddCollector(
      [this](obs::MetricSink& sink) {
        sink.Counter("ms_net_requests_total", core_->requests.load());
      });
}

Result<std::unique_ptr<NetServer>> NetServer::Start(
    Catalog* catalog, const NetServerOptions& options) {
  if (catalog == nullptr) return Status::InvalidArgument("null catalog");
  auto server =
      std::unique_ptr<NetServer>(new NetServer(catalog, options));

  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) return Errno("pipe");
  server->wake_read_fd_ = pipe_fds[0];
  server->core_->wake_fd = pipe_fds[1];
  MS_RETURN_NOT_OK(SetNonBlocking(pipe_fds[0]));
  MS_RETURN_NOT_OK(SetNonBlocking(pipe_fds[1]));

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  server->listen_fd_ = fd;
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options.port);
  if (::inet_pton(AF_INET, options.bind_address.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad bind address '" +
                                   options.bind_address + "'");
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return Errno("bind " + options.bind_address + ":" +
                 std::to_string(options.port));
  }
  if (::listen(fd, options.listen_backlog) != 0) return Errno("listen");
  MS_RETURN_NOT_OK(SetNonBlocking(fd));

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    return Errno("getsockname");
  }
  server->port_ = ntohs(bound.sin_port);

  server->io_thread_ = std::thread([s = server.get()] { s->Loop(); });
  return server;
}

NetServer::~NetServer() {
  Stop();
  obs::MetricsRegistry::Default().RemoveCollector(metrics_collector_);
}

void NetServer::Stop() {
  std::call_once(stop_once_, [&] {
    stop_.store(true);
    core_->Wake();
    if (io_thread_.joinable()) io_thread_.join();
    // The loop has exited; connections_ is safe to touch from here.
    for (auto& [fd, conn] : connections_) {
      CloseConnection(conn, /*count_abnormal=*/false);
    }
    connections_.clear();
    if (listen_fd_ >= 0) ::close(listen_fd_);
    listen_fd_ = -1;
    {
      // Retire the wakeup pipe under the core lock so a late completion
      // callback sees wake_fd == -1 instead of a recycled descriptor.
      std::lock_guard<std::mutex> lock(core_->mu);
      if (core_->wake_fd >= 0) ::close(core_->wake_fd);
      core_->wake_fd = -1;
    }
    if (wake_read_fd_ >= 0) ::close(wake_read_fd_);
    wake_read_fd_ = -1;
  });
}

NetServer::Stats NetServer::stats() const {
  Stats s;
  s.connections_accepted = core_->connections_accepted.load();
  s.requests = core_->requests.load();
  s.protocol_errors = core_->protocol_errors.load();
  s.abnormal_disconnects = core_->abnormal_disconnects.load();
  s.poll_eintr = core_->poll_eintr.load();
  return s;
}

void NetServer::Loop() {
  std::vector<pollfd> fds;
  std::vector<std::shared_ptr<Connection>> polled;
  while (!stop_.load()) {
    fds.clear();
    polled.clear();
    fds.push_back({wake_read_fd_, POLLIN, 0});
    fds.push_back({listen_fd_, POLLIN, 0});
    for (auto& [fd, conn] : connections_) {
      short events = POLLIN;
      {
        std::lock_guard<std::mutex> lock(conn->mu);
        if (!conn->write_buf.empty()) events |= POLLOUT;
      }
      fds.push_back({fd, events, 0});
      polled.push_back(conn);
    }

    const int n = ::poll(fds.data(), fds.size(), /*timeout_ms=*/1000);
    if (stop_.load()) return;
    if (n < 0) {
      // Signal delivery (EINTR) is not a quiet timeout: count it and
      // re-poll immediately — fd state is unknown, nothing may be handled.
      // Any other poll() failure is transient; re-polling is all there is.
      if (errno == EINTR) core_->poll_eintr.fetch_add(1);
      continue;
    }
    if (n == 0) continue;  // quiet tick: no readiness, nothing to do

    if (fds[0].revents & POLLIN) {
      char drain[256];
      while (::read(wake_read_fd_, drain, sizeof(drain)) > 0) {
      }
    }
    if (fds[1].revents & POLLIN) AcceptPending();

    for (size_t i = 0; i < polled.size(); ++i) {
      const pollfd& p = fds[i + 2];
      const std::shared_ptr<Connection>& conn = polled[i];
      if (conn->fd < 0) continue;  // closed by an earlier event this round
      if (p.revents & (POLLERR | POLLHUP | POLLNVAL)) {
        CloseConnection(conn);
        connections_.erase(p.fd);
        continue;
      }
      if (p.revents & POLLIN) HandleReadable(conn);
      if (conn->fd >= 0 && (p.revents & POLLOUT)) TryFlush(conn);
      if (conn->fd < 0) connections_.erase(p.fd);
    }
  }
}

void NetServer::AcceptPending() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN or transient error: back to poll
    if (connections_.size() >= options_.max_connections) {
      ::close(fd);
      continue;
    }
    if (!SetNonBlocking(fd).ok()) {
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    connections_[fd] = std::move(conn);
    core_->connections_accepted.fetch_add(1);
  }
}

void NetServer::HandleReadable(const std::shared_ptr<Connection>& conn) {
  char buf[64 * 1024];
  for (;;) {
    const ssize_t n = ::read(conn->fd, buf, sizeof(buf));
    if (n > 0) {
      conn->read_buf.append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) {  // peer closed (possibly mid-request)
      CloseConnection(conn);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    CloseConnection(conn);
    return;
  }

  std::string payload;
  for (;;) {
    auto took = TakeFrame(&conn->read_buf, options_.max_frame_bytes, &payload);
    if (!took.ok()) {
      // Unframeable stream (oversized/zero length): answer once, then close.
      core_->protocol_errors.fetch_add(1);
      core_->Push(conn, ErrorResponse(0, took.status()));
      std::lock_guard<std::mutex> lock(conn->mu);
      conn->close_after_flush = true;
      return;
    }
    if (!*took) return;  // need more bytes
    auto request = DecodeRequest(payload);
    if (!request.ok()) {
      core_->protocol_errors.fetch_add(1);
      core_->Push(conn, ErrorResponse(0, request.status()));
      std::lock_guard<std::mutex> lock(conn->mu);
      conn->close_after_flush = true;
      return;
    }
    core_->requests.fetch_add(1);
    HandleRequest(conn, *request);
    if (conn->fd < 0) return;
  }
}

void NetServer::HandleRequest(const std::shared_ptr<Connection>& conn,
                              const Request& request) {
  const uint64_t id = request.request_id;
  switch (request.type) {
    case MsgType::kPing: {
      Response resp;
      resp.request_id = id;
      core_->Push(conn, resp);
      return;
    }
    case MsgType::kListDatasets: {
      Response resp;
      resp.request_id = id;
      resp.payload = PayloadKind::kDatasetList;
      for (const std::string& name : catalog_->Names()) {
        Dataset* ds = catalog_->Find(name);
        if (ds == nullptr) continue;
        DatasetInfo info;
        info.name = name;
        if (ds->live()) {
          // Live datasets have no metadata cache; report the current
          // published snapshot's view (the one queries admitted now see).
          std::shared_ptr<const Snapshot> snap = ds->snapshot();
          info.num_masks = snap->store().num_masks();
          info.total_bytes = snap->store().TotalDataBytes();
        } else {
          info.num_masks = ds->metadata()->num_masks();
          info.total_bytes = ds->metadata()->total_data_bytes();
        }
        resp.datasets.push_back(std::move(info));
      }
      core_->Push(conn, resp);
      return;
    }
    case MsgType::kQuery: {
      const QueryCall& call = request.query;
      if (call.priority >= kNumPriorityClasses) {
        core_->Push(conn, ErrorResponse(id, Status::InvalidArgument(
                                                "bad priority class")));
        return;
      }
      auto bound = sql::ParseAndBind(call.sqltext);
      if (!bound.ok()) {
        core_->Push(conn, ErrorResponse(id, bound.status()));
        return;
      }
      ServiceRequest sreq;
      sreq.tenant = call.tenant;
      sreq.priority = static_cast<PriorityClass>(call.priority);
      sreq.deadline_seconds = call.deadline_seconds;
      sreq.trace_id = call.trace_id;
      sreq.query = RequestFromBound(*bound);
      if (options_.recorder != nullptr) {
        options_.recorder->Record(call.dataset, call.tenant,
                                  PriorityClassToString(sreq.priority),
                                  call.deadline_seconds, call.trace_id,
                                  /*params=*/{}, call.sqltext);
      }
      SubmitQuery(conn, id, call.dataset, std::move(sreq), call.sqltext);
      return;
    }
    case MsgType::kPrepare: {
      const PrepareCall& call = request.prepare;
      if (catalog_->Find(call.dataset) == nullptr) {
        core_->Push(conn, ErrorResponse(id, Status::NotFound(
                                                "unknown dataset '" +
                                                call.dataset + "'")));
        return;
      }
      auto stmt = PreparedStatement::Prepare(call.sqltext);
      if (!stmt.ok()) {
        core_->Push(conn, ErrorResponse(id, stmt.status()));
        return;
      }
      const uint64_t stmt_id = conn->next_stmt_id++;
      Response resp;
      resp.request_id = id;
      resp.payload = PayloadKind::kPrepareResult;
      resp.stmt_id = stmt_id;
      resp.num_params = static_cast<uint32_t>((*stmt)->num_params());
      conn->stmts[stmt_id] = std::move(*stmt);
      conn->stmt_dataset[stmt_id] = call.dataset;
      core_->Push(conn, resp);
      return;
    }
    case MsgType::kExecute: {
      const ExecuteCall& call = request.execute;
      if (call.priority >= kNumPriorityClasses) {
        core_->Push(conn, ErrorResponse(id, Status::InvalidArgument(
                                                "bad priority class")));
        return;
      }
      auto it = conn->stmts.find(call.stmt_id);
      if (it == conn->stmts.end()) {
        core_->Push(conn, ErrorResponse(id, Status::NotFound(
                                                "unknown statement id " +
                                                std::to_string(call.stmt_id))));
        return;
      }
      const std::string& stmt_dataset = conn->stmt_dataset[call.stmt_id];
      if (!call.dataset.empty() && call.dataset != stmt_dataset) {
        core_->Push(conn,
                    ErrorResponse(id, Status::InvalidArgument(
                                          "statement was prepared against "
                                          "dataset '" + stmt_dataset + "'")));
        return;
      }
      auto query = it->second->BindRequest(call.params);
      if (!query.ok()) {
        core_->Push(conn, ErrorResponse(id, query.status()));
        return;
      }
      ServiceRequest sreq;
      sreq.tenant = call.tenant;
      sreq.priority = static_cast<PriorityClass>(call.priority);
      sreq.deadline_seconds = call.deadline_seconds;
      sreq.trace_id = call.trace_id;
      sreq.query = std::move(*query);
      if (options_.recorder != nullptr) {
        options_.recorder->Record(stmt_dataset, call.tenant,
                                  PriorityClassToString(sreq.priority),
                                  call.deadline_seconds, call.trace_id,
                                  call.params, it->second->sql());
      }
      // The statement's text (not the bound form) travels with the request:
      // a router forwarding to a remote replica re-binds there, and the
      // text keeps repeated executions cache-affine to one replica.
      SubmitQuery(conn, id, stmt_dataset, std::move(sreq),
                  it->second->sql());
      return;
    }
    case MsgType::kCloseStmt: {
      conn->stmts.erase(request.stmt_id);
      conn->stmt_dataset.erase(request.stmt_id);
      Response resp;
      resp.request_id = id;
      core_->Push(conn, resp);
      return;
    }
    case MsgType::kMetrics: {
      Response resp;
      resp.request_id = id;
      resp.payload = PayloadKind::kText;
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
      resp.text = request.metrics_format == MetricsFormat::kJson
                      ? reg.Json()
                      : reg.PrometheusText();
      core_->Push(conn, resp);
      return;
    }
    case MsgType::kTrace: {
      if (options_.slow_log == nullptr) {
        core_->Push(conn, ErrorResponse(
                              id, Status::NotFound(
                                      "server has no slow-query log "
                                      "(serve without --slow-ms?)")));
        return;
      }
      Response resp;
      resp.request_id = id;
      resp.payload = PayloadKind::kText;
      resp.text = options_.slow_log->Render();
      core_->Push(conn, resp);
      return;
    }
    case MsgType::kResponse:
      break;
  }
  core_->protocol_errors.fetch_add(1);
  core_->Push(conn, ErrorResponse(id, Status::InvalidArgument(
                                          "unexpected message type")));
  std::lock_guard<std::mutex> lock(conn->mu);
  conn->close_after_flush = true;
}

void NetServer::SubmitQuery(const std::shared_ptr<Connection>& conn,
                            uint64_t request_id,
                            const std::string& dataset_name,
                            ServiceRequest service_request,
                            const std::string& sqltext) {
  Dataset* ds = catalog_->Find(dataset_name);
  if (ds == nullptr) {
    core_->Push(conn, ErrorResponse(request_id,
                                    Status::NotFound("unknown dataset '" +
                                                     dataset_name + "'")));
    return;
  }
  auto submitted = ds->Submit(std::move(service_request), sqltext);
  if (!submitted.ok()) {
    core_->Push(conn, ErrorResponse(request_id, submitted.status()));
    return;
  }
  const std::shared_ptr<PendingQuery>& pending = *submitted;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->in_flight[request_id] = pending;
  }
  // Completion is pushed from the finishing worker thread (or inline right
  // here if the query already ran). The callback holds the connection and
  // the core alive; Wait() cannot block because NotifyDone fires only
  // after the result is set.
  pending->NotifyDone([core = core_, conn, request_id, pending] {
    auto result = pending->Wait();
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      conn->in_flight.erase(request_id);
    }
    core->Push(conn, result.ok()
                         ? QueryResultResponse(request_id, *result)
                         : ErrorResponse(request_id, result.status()));
  });
}

void NetServer::TryFlush(const std::shared_ptr<Connection>& conn) {
  bool close_now = false;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    while (!conn->write_buf.empty()) {
      const ssize_t n =
          ::write(conn->fd, conn->write_buf.data(), conn->write_buf.size());
      if (n > 0) {
        conn->write_buf.erase(0, static_cast<size_t>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      close_now = true;  // broken pipe etc.
      break;
    }
    if (conn->write_buf.empty() && conn->close_after_flush) close_now = true;
  }
  if (close_now) CloseConnection(conn);
}

void NetServer::CloseConnection(const std::shared_ptr<Connection>& conn,
                                bool count_abnormal) {
  std::map<uint64_t, std::shared_ptr<PendingQuery>> in_flight;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->closed) return;
    conn->closed = true;
    in_flight.swap(conn->in_flight);
    // Abnormal = the peer vanished mid-request: queries still in flight, a
    // partial frame in the read buffer, or responses it never drained.
    if (count_abnormal &&
        (!in_flight.empty() || !conn->read_buf.empty() ||
         !conn->write_buf.empty())) {
      core_->abnormal_disconnects.fetch_add(1);
    }
    if (conn->fd >= 0) ::close(conn->fd);
    conn->fd = -1;
  }
  // A vanished client's queries stop consuming executor slots at their next
  // batch boundary; their completion callbacks find `closed` and drop.
  for (auto& [id, pending] : in_flight) pending->Cancel();
}

}  // namespace net
}  // namespace masksearch
