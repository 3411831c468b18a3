#include "src/service/server.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "src/obs/log.h"
#include "src/obs/metrics.h"
#include "src/obs/store/store.h"
#include "src/service/net.h"

namespace dsadc::service {
namespace {

using runtime::SessionJob;
using runtime::SessionOp;
using runtime::SessionResult;
using runtime::SessionStatus;

std::size_t env_size(const char* name, std::size_t fallback) {
  if (const char* v = std::getenv(name)) {
    const long n = std::strtol(v, nullptr, 10);
    if (n >= 1) return static_cast<std::size_t>(n);
  }
  return fallback;
}

/// Channel-scoped tenant counter: service.<what> and service.<what>.ch<id>.
void count_tenant(const char* what, std::uint32_t channel,
                  std::uint64_t n = 1) {
  if (!obs::enabled()) return;
  auto& reg = obs::Registry::instance();
  const std::string base = std::string("service.") + what;
  reg.counter(base).add(n);
  reg.counter(base + ".ch" + std::to_string(channel)).add(n);
}

void count_service(const char* what, std::uint64_t n = 1) {
  if (!obs::enabled()) return;
  obs::Registry::instance().counter(std::string("service.") + what).add(n);
}

/// Trace-store record of one DATA-frame admission decision (value = codes
/// in the frame, aux = client sequence number).
void store_admission(bool accepted, std::uint32_t channel,
                     std::uint64_t frames, std::uint32_t seq) {
  if (!obs::store::enabled()) return;
  static const std::uint32_t accepted_id = obs::store::intern("frame.accepted");
  static const std::uint32_t shed_id = obs::store::intern("frame.shed");
  obs::store::Event e;
  e.category = obs::store::Category::kService;
  e.name = accepted ? accepted_id : shed_id;
  e.channel = channel;
  e.value = static_cast<std::int64_t>(frames);
  e.aux = seq;
  obs::store::emit(e);
}

ErrorCode status_error(SessionStatus s) {
  switch (s) {
    case SessionStatus::kOk: return ErrorCode::kNone;
    case SessionStatus::kNotOpen: return ErrorCode::kNotOpen;
    case SessionStatus::kAlreadyOpen: return ErrorCode::kAlreadyOpen;
    case SessionStatus::kError: return ErrorCode::kInternal;
  }
  return ErrorCode::kInternal;
}

OutFrame make_frame(FrameType type, std::uint32_t channel, std::uint32_t seq,
                    std::vector<std::uint8_t> payload = {}) {
  OutFrame f;
  f.payload = std::move(payload);
  seal_frame(f, type, 0, channel, seq);
  return f;
}

constexpr std::size_t kRecvBufInitial = 16 * 1024;
constexpr std::size_t kRecvBufMax = kHeaderBytes + kMaxPayloadBytes;

}  // namespace

ServerOptions options_from_env() {
  ServerOptions o;
  if (const char* p = std::getenv("DSADC_SERVICE_POLICY")) {
    if (std::strcmp(p, "shed") == 0) {
      o.policy = runtime::SessionRuntime::Overload::kShed;
    } else {
      o.policy = runtime::SessionRuntime::Overload::kBlock;
    }
  }
  o.shards = env_size("DSADC_SERVICE_SHARDS", o.shards);
  o.workers = env_size("DSADC_SERVICE_THREADS", 0);
  o.queue_capacity = env_size("DSADC_SERVICE_QUEUE_CAP", o.queue_capacity);
  o.out_queue_capacity =
      env_size("DSADC_SERVICE_OUT_CAP", o.out_queue_capacity);
  o.event_threads = env_size("DSADC_SERVICE_EVENT_THREADS", o.event_threads);
  return o;
}

struct Server::Connection {
  Connection(int fd_, std::uint64_t id_, EventThread* owner_)
      : fd(fd_), id(id_), owner(owner_) {}

  int fd;
  std::uint64_t id;
  EventThread* const owner;  ///< pinned event thread (id % N)
  std::atomic<bool> dead{false};        ///< socket send failed; discard
  std::atomic<std::size_t> jobs{0};     ///< submitted, callback not done
  /// EOF/protocol error seen and the sessions closed; no more input.
  std::atomic<bool> input_done{false};
  /// Every response is flushed and the event thread finalized the
  /// connection: the next accept reaps it.
  std::atomic<bool> retired{false};

  /// Receive buffer the zero-copy scan runs over, owned by the event
  /// thread. FrameView payloads borrow [0, in_len) until the post-scan
  /// compaction.
  std::vector<std::uint8_t> in_buf;
  std::size_t in_len = 0;

  // Event-thread-only session bookkeeping.
  std::unordered_map<std::uint32_t, std::uint32_t> next_seq;
  std::unordered_set<std::uint32_t> opened;

  /// Output queue; shared with worker callbacks. Unbounded under kBlock
  /// -- input pausing bounds it end to end.
  std::mutex out_mu;
  std::deque<OutFrame> outq;
  /// Collapses duplicate entries in the owner's flush queue.
  std::atomic<bool> flush_queued{false};

  // Event-thread-only I/O state.
  bool writable = false;   ///< last EPOLLOUT edge not yet consumed by EAGAIN
  bool stalled = false;    ///< input paused: output queue over the cap
  bool finalized = false;  ///< deregistered from epoll
  OutFrame wip;            ///< frame partially written to the socket
  std::size_t wip_off = 0;
  bool wip_active = false;

  std::uint64_t key(std::uint32_t channel) const {
    return (id << 32) | channel;
  }
};

/// One edge-triggered epoll loop plus its wake channel. Connections are
/// pinned to an event thread by id, so all of a connection's parse and
/// I/O state is single-threaded; only the flush queue and the output
/// deques are crossed by worker callbacks.
struct Server::EventThread {
  int ep = -1;
  int wake_fd = -1;
  std::thread th;
  std::atomic<bool> stop{false};

  std::mutex mu;
  std::vector<std::shared_ptr<Connection>> fresh;  ///< awaiting epoll ADD
  std::vector<std::shared_ptr<Connection>> flush;  ///< new output queued

  /// Registered connections (event-thread only); keeps them alive while
  /// epoll holds raw pointers.
  std::unordered_map<Connection*, std::shared_ptr<Connection>> owned;

  void wake() {
    const std::uint64_t one = 1;
    (void)!::write(wake_fd, &one, sizeof(one));
  }
};

Server::Server(ServerOptions opts) : opts_(std::move(opts)) {
  if (opts_.event_threads == 0) opts_.event_threads = 1;
  runtime::SessionRuntime::Options ro;
  ro.shards = opts_.shards;
  ro.workers = opts_.workers;
  ro.queue_capacity = opts_.queue_capacity;
  ro.policy = opts_.policy;
  runtime_ = std::make_unique<runtime::SessionRuntime>(ro);
}

Server::~Server() { stop(); }

std::size_t Server::connection_count() const {
  std::lock_guard<std::mutex> lock(conns_mu_);
  return conns_.size();
}

void Server::start() {
  if (started_.exchange(true)) return;
  std::string err;
  if (!opts_.unix_path.empty()) {
    const int fd = net::listen_unix(opts_.unix_path, &err);
    if (fd < 0) throw std::runtime_error("service: " + err);
    listen_fds_.push_back(fd);
  }
  if (opts_.tcp) {
    const int fd = net::listen_tcp(opts_.tcp_port, &bound_port_, &err);
    if (fd < 0) throw std::runtime_error("service: " + err);
    listen_fds_.push_back(fd);
  }
  if (listen_fds_.empty()) {
    throw std::runtime_error(
        "service: no listener configured (set unix_path and/or tcp)");
  }
  for (std::size_t i = 0; i < opts_.event_threads; ++i) {
    auto et = std::make_unique<EventThread>();
    et->ep = ::epoll_create1(0);
    et->wake_fd = ::eventfd(0, EFD_NONBLOCK);
    if (et->ep < 0 || et->wake_fd < 0) {
      throw std::runtime_error("service: epoll/eventfd setup failed");
    }
    epoll_event ev{};
    ev.events = EPOLLIN;  // level-triggered wake channel
    ev.data.ptr = nullptr;
    ::epoll_ctl(et->ep, EPOLL_CTL_ADD, et->wake_fd, &ev);
    et->th = std::thread([this, p = et.get()] { event_loop(*p); });
    events_.push_back(std::move(et));
  }
  accept_threads_.reserve(listen_fds_.size());
  for (const int fd : listen_fds_) {
    accept_threads_.emplace_back([this, fd] { accept_loop(fd); });
  }
}

void Server::accept_loop(int listen_fd) {
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load(std::memory_order_acquire)) return;
      if (errno == EINTR) continue;
      return;  // listener closed or broken
    }
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(fd);
      return;
    }
    count_service("connections");
    spawn_connection(fd);
  }
}

void Server::reap_retired_locked() {
  std::erase_if(conns_, [](const std::shared_ptr<Connection>& c) {
    if (!c->retired.load(std::memory_order_acquire)) return false;
    ::close(c->fd);
    return true;
  });
}

void Server::spawn_connection(int fd) {
  net::set_nonblocking(fd);
  const std::uint64_t id = next_conn_id_.fetch_add(1);
  auto& et = *events_[id % events_.size()];
  auto conn = std::make_shared<Connection>(fd, id, &et);
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    reap_retired_locked();
    conns_.push_back(conn);
  }
  {
    std::lock_guard<std::mutex> lock(et.mu);
    et.fresh.push_back(std::move(conn));
  }
  et.wake();
}

void Server::conn_send(const std::shared_ptr<Connection>& conn,
                       OutFrame&& f) {
  if (conn->dead.load(std::memory_order_relaxed)) return;
  {
    std::lock_guard<std::mutex> lock(conn->out_mu);
    if (opts_.policy == runtime::SessionRuntime::Overload::kShed &&
        conn->outq.size() >= opts_.out_queue_capacity) {
      count_service("shed_out");
      return;
    }
    conn->outq.push_back(std::move(f));
  }
  schedule_flush(conn);
}

void Server::schedule_flush(const std::shared_ptr<Connection>& conn) {
  if (conn->flush_queued.exchange(true, std::memory_order_acq_rel)) return;
  auto* et = conn->owner;
  {
    std::lock_guard<std::mutex> lock(et->mu);
    et->flush.push_back(conn);
  }
  et->wake();
}

void Server::finish_job(const std::shared_ptr<Connection>& conn) {
  conn->jobs.fetch_sub(1, std::memory_order_acq_rel);
  // Revisit the connection so the event thread can finalize it once the
  // last callback has run (output drained + input done).
  schedule_flush(conn);
}

std::shared_ptr<const decim::ChainConfig> Server::resolve_config(
    std::span<const std::uint8_t> payload, ErrorCode* err) {
  if (payload.size() == 4) {
    std::uint32_t preset = 0;
    (void)decode_u32(payload, &preset);
    auto cfg = preset_config(preset);
    if (!cfg) *err = ErrorCode::kBadPreset;
    return cfg;
  }
  decim::ChainConfig cfg;
  if (!decode_chain_config(payload, &cfg)) {
    *err = ErrorCode::kBadPayload;
    return nullptr;
  }
  return std::make_shared<const decim::ChainConfig>(std::move(cfg));
}

void Server::handle_frame(const std::shared_ptr<Connection>& conn,
                          const FrameView& f) {
  const std::uint32_t ch = f.channel;
  const std::uint32_t seq = f.seq;

  const auto reject = [&](ErrorCode code) {
    count_service("rejected");
    conn_send(conn,
              make_frame(FrameType::kError, ch, seq,
                         encode_u32(static_cast<std::uint32_t>(code))));
  };

  switch (f.type) {
    case FrameType::kOpen:
    case FrameType::kConfig: {
      ErrorCode err = ErrorCode::kBadPayload;
      auto cfg = resolve_config(f.payload, &err);
      if (!cfg) {
        reject(err);
        return;
      }
      if (f.type == FrameType::kOpen) {
        conn->next_seq[ch] = 0;
        conn->opened.insert(ch);
      }
      SessionJob job;
      job.session = conn->key(ch);
      job.op = f.type == FrameType::kOpen ? SessionOp::kOpen
                                          : SessionOp::kReconfigure;
      job.config = std::move(cfg);
      const FrameType acked = f.type;
      job.done = [this, conn, ch, seq, acked](SessionResult r) {
        if (r.status == SessionStatus::kOk) {
          conn_send(conn,
                    make_frame(FrameType::kAck, ch, seq,
                               encode_u32(static_cast<std::uint32_t>(acked))));
        } else {
          conn_send(conn, make_frame(FrameType::kError, ch, seq,
                                     encode_u32(static_cast<std::uint32_t>(
                                         status_error(r.status)))));
        }
        finish_job(conn);
      };
      conn->jobs.fetch_add(1, std::memory_order_acq_rel);
      if (!runtime_->submit(std::move(job))) finish_job(conn);
      return;
    }

    case FrameType::kData: {
      const auto it = conn->next_seq.find(ch);
      if (it != conn->next_seq.end()) {
        if (seq != it->second) {
          reject(ErrorCode::kBadSeq);
          return;  // dropped; the expected sequence number is unchanged
        }
        ++it->second;
      }
      SessionJob job;
      job.session = conn->key(ch);
      job.op = SessionOp::kData;
      if (!decode_codes(f.payload, &job.codes)) {
        reject(ErrorCode::kBadPayload);
        return;
      }
      const std::size_t frames = job.codes.size();
      const auto t0 = std::chrono::steady_clock::now();
      job.done = [this, conn, ch, seq, frames, t0](SessionResult r) {
        if (r.status == SessionStatus::kOk) {
          if (!r.samples.empty()) {
            conn_send(conn, make_frame(FrameType::kDataOut, ch, seq,
                                       encode_samples(r.samples)));
          }
          if (obs::enabled()) {
            const std::chrono::duration<double> dt =
                std::chrono::steady_clock::now() - t0;
            if (dt.count() > 0.0) {
              obs::Registry::instance()
                  .gauge("service.throughput_sps.ch" + std::to_string(ch))
                  .set(static_cast<double>(frames) / dt.count());
            }
          }
        } else {
          conn_send(conn, make_frame(FrameType::kError, ch, seq,
                                     encode_u32(static_cast<std::uint32_t>(
                                         status_error(r.status)))));
        }
        finish_job(conn);
      };
      conn->jobs.fetch_add(1, std::memory_order_acq_rel);
      if (runtime_->submit(std::move(job))) {
        count_tenant("accepted", ch);
        store_admission(true, ch, frames, seq);
      } else {
        finish_job(conn);
        count_tenant("shed", ch);
        store_admission(false, ch, frames, seq);
        conn_send(conn, make_frame(FrameType::kShed, ch, seq));
      }
      return;
    }

    case FrameType::kDrain:
    case FrameType::kClose: {
      if (f.type == FrameType::kClose) conn->next_seq.erase(ch);
      SessionJob job;
      job.session = conn->key(ch);
      job.op =
          f.type == FrameType::kDrain ? SessionOp::kDrain : SessionOp::kClose;
      const bool drain = f.type == FrameType::kDrain;
      job.done = [this, conn, ch, seq, drain](SessionResult r) {
        if (r.status == SessionStatus::kOk) {
          if (drain) {
            if (!r.samples.empty()) {
              conn_send(conn, make_frame(FrameType::kDataOut, ch, seq,
                                         encode_samples(r.samples)));
            }
            conn_send(conn, make_frame(FrameType::kDrained, ch, seq));
          } else {
            conn_send(conn,
                      make_frame(FrameType::kAck, ch, seq,
                                 encode_u32(static_cast<std::uint32_t>(
                                     FrameType::kClose))));
          }
        } else {
          conn_send(conn, make_frame(FrameType::kError, ch, seq,
                                     encode_u32(static_cast<std::uint32_t>(
                                         status_error(r.status)))));
        }
        finish_job(conn);
      };
      conn->jobs.fetch_add(1, std::memory_order_acq_rel);
      if (!runtime_->submit(std::move(job))) finish_job(conn);
      return;
    }

    default:
      // Server->client frame types arriving at the server.
      reject(ErrorCode::kBadPayload);
      return;
  }
}

bool Server::process_input(const std::shared_ptr<Connection>& conn) {
  auto& buf = conn->in_buf;
  std::size_t off = 0;
  bool ok = true;
  while (off < conn->in_len) {
    FrameView view;
    std::size_t consumed = 0;
    std::string err;
    const ScanResult res =
        scan_frame(buf.data() + off, conn->in_len - off, &view, &consumed,
                   &err);
    if (res == ScanResult::kFrame) {
      handle_frame(conn, view);  // view borrows buf; consumed before moving
      off += consumed;
      continue;
    }
    if (res == ScanResult::kNeedMore) break;
    // kBad: the byte stream is unsynchronized -- report, then drop this
    // connection. Other tenants are unaffected.
    count_service("bad_frames");
    DSADC_LOG_WARN("service", "dropping connection %llu: %s",
                   static_cast<unsigned long long>(conn->id), err.c_str());
    conn_send(conn, make_frame(FrameType::kError, 0, 0,
                               encode_u32(static_cast<std::uint32_t>(
                                   ErrorCode::kBadPayload))));
    ok = false;
    break;
  }
  // Compact: FrameView spans die here.
  if (off > 0) {
    std::memmove(buf.data(), buf.data() + off, conn->in_len - off);
    conn->in_len -= off;
  }
  // A frame larger than the buffer can never complete without growth.
  if (ok && conn->in_len == buf.size() && buf.size() < kRecvBufMax) {
    buf.resize(std::min(buf.size() * 2, kRecvBufMax));
  }
  return ok;
}

void Server::teardown(const std::shared_ptr<Connection>& conn) {
  // Close every session this connection opened so a vanished client never
  // leaks chain state; results are discarded.
  for (const std::uint32_t ch : conn->opened) {
    SessionJob job;
    job.session = conn->key(ch);
    job.op = SessionOp::kClose;
    (void)runtime_->submit(std::move(job));
  }
  conn->opened.clear();
  conn->input_done.store(true, std::memory_order_release);
}

void Server::on_readable(EventThread& et,
                         const std::shared_ptr<Connection>& conn) {
  (void)et;
  if (conn->input_done.load(std::memory_order_relaxed)) return;
  if (conn->in_buf.empty()) conn->in_buf.resize(kRecvBufInitial);
  for (;;) {
    // Paused input is the kBlock backpressure: leave bytes in the socket
    // buffer so TCP/unix flow control reaches the client. flush_out
    // resumes us once the output queue drains. Stop overrides the pause
    // so shutdown can always reach the EOF.
    if (conn->stalled && !stopping_.load(std::memory_order_acquire)) return;
    const auto n =
        ::recv(conn->fd, conn->in_buf.data() + conn->in_len,
               conn->in_buf.size() - conn->in_len, 0);
    if (n > 0) {
      conn->in_len += static_cast<std::size_t>(n);
      if (!process_input(conn)) {
        ::shutdown(conn->fd, SHUT_RD);
        teardown(conn);
        return;
      }
      if (opts_.policy == runtime::SessionRuntime::Overload::kBlock) {
        std::lock_guard<std::mutex> lock(conn->out_mu);
        if (conn->outq.size() >= opts_.out_queue_capacity) {
          conn->stalled = true;
        }
      }
      continue;
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
    }
    // EOF or hard error: no more input ever.
    teardown(conn);
    return;
  }
}

void Server::flush_out(EventThread& et,
                       const std::shared_ptr<Connection>& conn) {
  if (conn->finalized) return;
  if (conn->dead.load(std::memory_order_relaxed)) {
    std::lock_guard<std::mutex> lock(conn->out_mu);
    conn->outq.clear();
    conn->wip_active = false;
  }
  while (conn->writable && !conn->dead.load(std::memory_order_relaxed)) {
    if (!conn->wip_active) {
      std::lock_guard<std::mutex> lock(conn->out_mu);
      if (conn->outq.empty()) break;
      conn->wip = std::move(conn->outq.front());
      conn->outq.pop_front();
      conn->wip_active = true;
      conn->wip_off = 0;
    }
    const std::size_t total = kHeaderBytes + conn->wip.payload.size();
    iovec iov[2];
    int cnt = 0;
    std::size_t off = conn->wip_off;
    if (off < kHeaderBytes) {
      iov[cnt++] = {conn->wip.header.data() + off, kHeaderBytes - off};
      off = 0;
    } else {
      off -= kHeaderBytes;
    }
    if (off < conn->wip.payload.size()) {
      iov[cnt++] = {conn->wip.payload.data() + off,
                    conn->wip.payload.size() - off};
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<std::size_t>(cnt);
    const auto sent = ::sendmsg(conn->fd, &msg, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        conn->writable = false;  // wait for the next EPOLLOUT edge
        break;
      }
      if (errno == EINTR) continue;
      conn->dead.store(true, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(conn->out_mu);
      conn->outq.clear();
      conn->wip_active = false;
      break;
    }
    conn->wip_off += static_cast<std::size_t>(sent);
    if (conn->wip_off == total) conn->wip_active = false;
  }
  // Resume paused input once the queue is half-drained (hysteresis so a
  // border-line queue does not flap the stall bit every frame).
  if (conn->stalled) {
    bool low;
    {
      std::lock_guard<std::mutex> lock(conn->out_mu);
      low = conn->outq.size() <= opts_.out_queue_capacity / 2;
    }
    if (low) {
      conn->stalled = false;
      on_readable(et, conn);
    }
  }
  // Finalize: input saw EOF, every job's callback ran, output is flushed
  // (or the socket died).
  if (conn->input_done.load(std::memory_order_acquire) &&
      conn->jobs.load(std::memory_order_acquire) == 0) {
    bool drained;
    {
      std::lock_guard<std::mutex> lock(conn->out_mu);
      drained = conn->outq.empty() && !conn->wip_active;
    }
    if (drained || conn->dead.load(std::memory_order_relaxed)) {
      conn->finalized = true;
      ::shutdown(conn->fd, SHUT_WR);
      ::epoll_ctl(et.ep, EPOLL_CTL_DEL, conn->fd, nullptr);
      conn->retired.store(true, std::memory_order_release);
      et.owned.erase(conn.get());
    }
  }
}

void Server::event_loop(EventThread& et) {
  std::vector<epoll_event> evs(64);
  while (!et.stop.load(std::memory_order_acquire)) {
    const int n = ::epoll_wait(et.ep, evs.data(),
                               static_cast<int>(evs.size()), -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      const auto& ev = evs[i];
      if (ev.data.ptr == nullptr) {
        // Wake channel: drain it, register fresh connections, run flushes.
        std::uint64_t junk;
        while (::read(et.wake_fd, &junk, sizeof(junk)) > 0) {
        }
        std::vector<std::shared_ptr<Connection>> fresh, flush;
        {
          std::lock_guard<std::mutex> lock(et.mu);
          fresh.swap(et.fresh);
          flush.swap(et.flush);
        }
        for (auto& c : fresh) {
          epoll_event reg{};
          reg.events = EPOLLIN | EPOLLOUT | EPOLLET | EPOLLRDHUP;
          reg.data.ptr = c.get();
          ::epoll_ctl(et.ep, EPOLL_CTL_ADD, c->fd, &reg);
          et.owned.emplace(c.get(), c);
          // Edge-triggered: consume anything that raced the registration.
          on_readable(et, c);
          flush_out(et, c);
        }
        for (auto& c : flush) {
          // Clear BEFORE flushing: a producer that pushes after this sees
          // flush_queued==false and re-queues, so no frame is stranded.
          c->flush_queued.store(false, std::memory_order_release);
          const auto it = et.owned.find(c.get());
          if (it != et.owned.end()) flush_out(et, it->second);
        }
        continue;
      }
      auto* cp = static_cast<Connection*>(ev.data.ptr);
      const auto it = et.owned.find(cp);
      if (it == et.owned.end()) continue;  // finalized earlier this batch
      auto conn = it->second;  // keep alive across a possible finalize
      if (ev.events & EPOLLOUT) conn->writable = true;
      if (ev.events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR)) {
        on_readable(et, conn);
      }
      flush_out(et, conn);
    }
  }
}

void Server::stop() {
  if (stopped_.exchange(true)) return;
  stopping_.store(true, std::memory_order_release);

  // Listeners down first: no new connections.
  for (const int fd : listen_fds_) {
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
  for (auto& t : accept_threads_) t.join();
  listen_fds_.clear();
  accept_threads_.clear();

  std::vector<std::shared_ptr<Connection>> conns;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns = conns_;
  }
  // Shut every socket down so a slow or vanished consumer cannot wedge
  // the drain. The shutdowns raise EPOLLIN/EPOLLRDHUP edges; the event
  // threads run the EOF path (teardown) for every connection, including
  // ones still waiting in a fresh list. Wait for that quiesce -- after it
  // no thread submits jobs anymore.
  for (const auto& c : conns) ::shutdown(c->fd, SHUT_RDWR);
  for (const auto& et : events_) et->wake();
  for (const auto& c : conns) {
    while (!c->input_done.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  // Input is quiesced; drain every admitted job so callbacks finish.
  runtime_->stop();
  for (const auto& et : events_) {
    et->stop.store(true, std::memory_order_release);
    et->wake();
  }
  for (const auto& et : events_) {
    if (et->th.joinable()) et->th.join();
    if (et->ep >= 0) ::close(et->ep);
    if (et->wake_fd >= 0) ::close(et->wake_fd);
  }
  events_.clear();
  for (const auto& c : conns) ::close(c->fd);
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_.clear();
  }
  if (!opts_.unix_path.empty()) ::unlink(opts_.unix_path.c_str());
}

}  // namespace dsadc::service
