// Decimation-as-a-service: the socket front-end over runtime::SessionRuntime.
//
// A Server listens on a unix-domain socket and/or 127.0.0.1 TCP. Accepted
// connections are pinned (by connection id) to one of a small pool of
// event threads, each running an edge-triggered epoll loop over its share
// of the connections. Channel ids are scoped per connection -- session
// key = (connection id << 32) | channel -- so tenants cannot touch each
// other's streams; with the default power-of-two shard count the shard a
// channel lands on is simply channel mod shards. The server is Linux-only
// (epoll, eventfd).
//
// Data path:
//
//   event thread --recv, scan_frame in place, validate/seq-check-->
//          SessionRuntime shard ring
//          --worker pool--> DecimationChain::process --> encode DATA_OUT
//          --> connection output queue --eventfd wake--> event thread
//          --sendmsg(header, payload)--> socket
//
// Frames are scanned in place in the connection's receive buffer (wire.h
// scan_frame -- the payload is never copied into an intermediate Frame)
// and responses leave as header+payload iovec pairs. Worker callbacks
// enqueue OutFrames and wake the owning event thread through an eventfd.
//
// Backpressure and overload (ServerOptions::policy):
//  * kBlock: a full shard ring blocks the event thread's submit (and so
//    every connection pinned to it) until a worker frees a slot. A
//    connection whose output queue reaches out_queue_capacity has its
//    *input* paused -- bytes stay in the socket buffer, so TCP/unix flow
//    control pushes back to the client -- until the queue is half
//    drained. No worker ever blocks on a slow client; zero sample loss.
//  * kShed: a full shard ring drops the DATA frame, counts service.shed
//    and notifies the client with a SHED frame carrying the dropped
//    sequence number; a full output queue drops the outbound frame and
//    counts service.shed_out.
//
// Lifecycle frames (OPEN/CONFIG/DRAIN/CLOSE) are never shed. A
// malformed byte stream (bad magic/CRC/length) terminates only that
// connection; its sessions are closed and other tenants are unaffected.
//
// Per-tenant metrics (src/obs): service.accepted[.ch<id>],
// service.shed[.ch<id>], service.shed_out, service.rejected,
// service.bad_frames, service.connections counters, the
// service.inflight gauge (admitted jobs not yet executed) and
// service.throughput_sps.ch<id> gauges.
//
// Environment knobs (all optional; see options_from_env):
//   DSADC_SERVICE_POLICY        block | shed
//   DSADC_SERVICE_SHARDS        shard count (default 16)
//   DSADC_SERVICE_THREADS       worker count (default DSADC_RUNTIME_THREADS
//                               or hardware concurrency)
//   DSADC_SERVICE_QUEUE_CAP     jobs per shard ring (default 64)
//   DSADC_SERVICE_OUT_CAP       output-queue high-water mark (256)
//   DSADC_SERVICE_EVENT_THREADS epoll event threads (default 2)
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "src/runtime/session.h"
#include "src/service/wire.h"

namespace dsadc::service {

enum class IoBackend : std::uint8_t {
  kEpoll,  ///< edge-triggered event-thread pool
};

struct ServerOptions {
  std::string unix_path;       ///< empty -> no unix listener
  bool tcp = false;            ///< also listen on 127.0.0.1
  std::uint16_t tcp_port = 0;  ///< 0 -> ephemeral (see Server::tcp_port)
  runtime::SessionRuntime::Overload policy =
      runtime::SessionRuntime::Overload::kBlock;
  std::size_t shards = 16;
  std::size_t workers = 0;  ///< 0 -> configured_threads()
  std::size_t queue_capacity = 64;
  /// Output-queue high-water mark per connection: kBlock pauses the
  /// connection's input at it, kShed drops outbound frames past it.
  std::size_t out_queue_capacity = 256;
  /// The only backend; kept so existing callers that set it compile.
  IoBackend io = IoBackend::kEpoll;
  std::size_t event_threads = 2;  ///< 0 -> 1
  /// Accepted and ignored (runtime::SessionRuntime::Options); kept so
  /// existing callers that set it compile.
  std::int64_t batch_linger_us = 20000;
};

/// Defaults overlaid with the DSADC_SERVICE_* environment knobs.
ServerOptions options_from_env();

class Server {
 public:
  explicit Server(ServerOptions opts);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind + listen + spawn the accept/worker machinery. Throws
  /// std::runtime_error when no listener can be established.
  void start();

  /// Drain every admitted job, flush/close connections, join all
  /// threads. Idempotent; the destructor calls it.
  void stop();

  const std::string& unix_path() const { return opts_.unix_path; }
  /// Bound TCP port (after start(), when opts.tcp).
  std::uint16_t tcp_port() const { return bound_port_; }

  std::size_t inflight() const { return runtime_->inflight(); }
  std::size_t connection_count() const;
  const ServerOptions& options() const { return opts_; }

 private:
  struct Connection;
  struct EventThread;

  void accept_loop(int listen_fd);
  void spawn_connection(int fd);
  /// Drops the connections whose I/O has finished (Connection::retired)
  /// and closes their sockets. Caller holds conns_mu_.
  void reap_retired_locked();
  /// Dispatch one validated frame. `f.payload` borrows the connection's
  /// receive buffer; anything that outlives the call (job codes, config
  /// blobs) is decoded out of the span here.
  void handle_frame(const std::shared_ptr<Connection>& conn,
                    const FrameView& f);
  /// Scan + dispatch every complete frame in the connection's receive
  /// buffer, then compact. False on a malformed stream (kBad).
  bool process_input(const std::shared_ptr<Connection>& conn);
  /// Close the connection's sessions once its input has ended.
  void teardown(const std::shared_ptr<Connection>& conn);
  /// Enqueue one sealed server->client frame per the overload policy.
  void conn_send(const std::shared_ptr<Connection>& conn, OutFrame&& f);
  void finish_job(const std::shared_ptr<Connection>& conn);
  /// Resolve an OPEN/CONFIG payload: 4-byte preset id or serialized
  /// ChainConfig, decoded afresh each time. nullptr -> *err says why.
  std::shared_ptr<const decim::ChainConfig> resolve_config(
      std::span<const std::uint8_t> payload, ErrorCode* err);

  // --- event threads ---
  void event_loop(EventThread& et);
  void on_readable(EventThread& et, const std::shared_ptr<Connection>& conn);
  void flush_out(EventThread& et, const std::shared_ptr<Connection>& conn);
  /// Hand the connection to its event thread's flush queue (collapses
  /// duplicates via Connection::flush_queued) and wake it.
  void schedule_flush(const std::shared_ptr<Connection>& conn);

  ServerOptions opts_;
  std::unique_ptr<runtime::SessionRuntime> runtime_;
  std::vector<int> listen_fds_;
  std::vector<std::thread> accept_threads_;
  std::vector<std::unique_ptr<EventThread>> events_;
  std::uint16_t bound_port_ = 0;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> stopped_{false};
  std::atomic<bool> started_{false};
  std::atomic<std::uint32_t> next_conn_id_{1};

  mutable std::mutex conns_mu_;
  /// Live connections, plus retired ones until the next accept reaps them.
  std::vector<std::shared_ptr<Connection>> conns_;
};

}  // namespace dsadc::service
