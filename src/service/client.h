// Client library for the decimation service: used by the tests, the
// dsadc_client load generator and the soak harness.
//
// A Client owns one socket connection plus a receiver thread that
// parses server frames into per-channel state: decimated samples
// (DATA_OUT, concatenated in arrival order -- which the server
// guarantees is stream order per channel), acks, drain markers, shed
// notices and errors. Senders run on the caller's thread under a mutex;
// DATA sequence numbers are assigned automatically per channel (or
// explicitly via send_data_seq / send_raw for fault injection).
//
// set_paused(true) makes the receiver stop reading the socket without
// closing it -- the slow-consumer lever the backpressure tests pull.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "src/service/wire.h"

namespace dsadc::service {

class Client {
 public:
  /// Factory ctors; throw std::runtime_error when the connect fails.
  static std::unique_ptr<Client> connect_unix(const std::string& path);
  static std::unique_ptr<Client> connect_tcp(const std::string& host,
                                             std::uint16_t port);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  // --- senders (caller thread; false once the connection is down) ------
  /// `lockstep` sets the OPEN frame's LOCKSTEP flag, which the server
  /// accepts and ignores.
  bool open(std::uint32_t channel, std::uint32_t preset = 0,
            bool lockstep = false);
  /// OPEN with a fully serialized ChainConfig instead of a preset id.
  bool open_config(std::uint32_t channel, const decim::ChainConfig& cfg,
                   bool lockstep = false);
  bool reconfigure(std::uint32_t channel, std::uint32_t preset);
  bool reconfigure_config(std::uint32_t channel,
                          const decim::ChainConfig& cfg);
  bool send_data(std::uint32_t channel, std::span<const std::int32_t> codes);
  bool send_data_seq(std::uint32_t channel, std::uint32_t seq,
                     std::span<const std::int32_t> codes);
  bool drain(std::uint32_t channel);
  bool close_channel(std::uint32_t channel);
  /// Raw bytes straight onto the socket (fault injection).
  bool send_raw(const void* data, std::size_t n);

  // --- received state ---------------------------------------------------
  std::vector<std::int64_t> samples(std::uint32_t channel) const;
  std::size_t sample_count(std::uint32_t channel) const;
  std::size_t ack_count(std::uint32_t channel) const;
  std::size_t shed_count(std::uint32_t channel) const;
  std::size_t drained_count(std::uint32_t channel) const;
  /// (channel, code) pairs in arrival order.
  std::vector<std::pair<std::uint32_t, ErrorCode>> errors() const;

  using Millis = std::chrono::milliseconds;
  bool wait_sample_count(std::uint32_t channel, std::size_t n, Millis t);
  bool wait_ack_count(std::uint32_t channel, std::size_t n, Millis t);
  bool wait_drained(std::uint32_t channel, std::size_t n, Millis t);
  bool wait_error(ErrorCode code, Millis t);
  bool wait_shed_count(std::uint32_t channel, std::size_t n, Millis t);
  /// Wait until total sheds (all channels) reaches n.
  bool wait_total_sheds(std::size_t n, Millis t);

  /// Observe every received frame on the receiver thread, before the
  /// frame updates the per-channel state. The benches use this to stamp
  /// wire-to-wire frame latency; keep the hook cheap. Set before any
  /// frame can arrive (right after connect) -- the hook is not locked
  /// against the receiver.
  using FrameHook =
      std::function<void(FrameType type, std::uint32_t channel,
                         std::uint32_t seq, std::size_t payload_bytes)>;
  void set_frame_hook(FrameHook hook) { frame_hook_ = std::move(hook); }

  /// Pause/resume the receiver's socket reads (slow-consumer emulation).
  void set_paused(bool paused);
  /// Receiver saw EOF/error or a malformed frame.
  bool disconnected() const;
  /// Abrupt teardown: close the socket immediately (mid-stream
  /// disconnect emulation), then join the receiver.
  void shutdown_now();

 private:
  explicit Client(int fd);
  void receiver_loop();
  bool send_frame(const Frame& f);

  int fd_;
  std::thread receiver_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  struct ChannelState {
    std::vector<std::int64_t> samples;
    std::size_t acks = 0;
    std::size_t sheds = 0;
    std::size_t drains = 0;
  };
  std::map<std::uint32_t, ChannelState> channels_;
  std::vector<std::pair<std::uint32_t, ErrorCode>> errors_;
  std::size_t total_sheds_ = 0;
  bool disconnected_ = false;

  FrameHook frame_hook_;

  std::mutex send_mu_;
  std::map<std::uint32_t, std::uint32_t> send_seq_;
  std::atomic<bool> paused_{false};
  std::atomic<bool> closing_{false};
};

}  // namespace dsadc::service
