// Fixed-capacity lock-free multi-producer/multi-consumer ring buffer
// (MpmcRing). The file name is historical; includers rely on it.
//
// The session runtime's shard admission queues (session.h) use it: a
// bounded Vyukov-style per-slot-sequence queue, where any number of
// connection readers push work items and pool workers pop them. A single
// producer's pushes are dequeued in push order (tickets are taken in
// order), which is what preserves per-channel frame ordering end to end.
//
// The `close()` flag is a two-way end-of-stream/cancellation handshake:
//
//  * producer-side close means "no further elements": a consumer blocked
//    in pop() drains every element pushed before the close (including a
//    final partial block) and then returns false, never deadlocking;
//  * consumer-side close means "stop producing": a producer blocked in
//    push() on a full ring observes the flag and returns false instead
//    of spinning forever on a peer that will never drain it.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

namespace dsadc::runtime {

/// Bounded multi-producer/multi-consumer ring (Vyukov per-slot sequence
/// numbers). Each slot carries a sequence counter: `seq == pos` means the
/// slot is free for the producer holding ticket `pos`, `seq == pos + 1`
/// means it holds that ticket's element for the consumer. Producers and
/// consumers claim tickets with a CAS on their cursor, so the queue is
/// lock-free and elements leave in ticket (i.e. global FIFO) order.
///
/// Close semantics are the handshake above: after close(), pushes fail,
/// blocking pop() drains the remaining elements and then returns false.
///
/// Minimum capacity is 2: with a single slot the producer's "free"
/// condition (seq == ticket) and the consumer's "occupied" condition
/// coincide, letting a second push overwrite an unconsumed element and
/// livelocking the consumer. Requested capacities round up.
template <typename T>
class MpmcRing {
 public:
  explicit MpmcRing(std::size_t capacity) {
    std::size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    cells_ = std::vector<Cell>(cap);
    for (std::size_t i = 0; i < cap; ++i) {
      cells_[i].seq.store(i, std::memory_order_relaxed);
    }
    mask_ = cap - 1;
  }

  MpmcRing(const MpmcRing&) = delete;
  MpmcRing& operator=(const MpmcRing&) = delete;

  /// Moves from `v` on success; false when full or closed.
  bool try_push(T& v) {
    if (closed_.load(std::memory_order_acquire)) return false;
    std::size_t pos = tail_.load(std::memory_order_relaxed);
    Cell* cell = nullptr;
    for (;;) {
      cell = &cells_[pos & mask_];
      const std::size_t seq = cell->seq.load(std::memory_order_acquire);
      const auto dif = static_cast<std::intptr_t>(seq) -
                       static_cast<std::intptr_t>(pos);
      if (dif == 0) {
        if (tail_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          break;
        }
      } else if (dif < 0) {
        return false;  // full
      } else {
        pos = tail_.load(std::memory_order_relaxed);
      }
    }
    cell->val = std::move(v);
    cell->seq.store(pos + 1, std::memory_order_release);
    return true;
  }

  /// Blocking push; false (element undelivered) once the ring is closed.
  bool push(T v) {
    while (!try_push(v)) {
      if (closed_.load(std::memory_order_acquire)) return false;
      std::this_thread::yield();
    }
    return true;
  }

  bool try_pop(T& v) {
    std::size_t pos = head_.load(std::memory_order_relaxed);
    Cell* cell = nullptr;
    for (;;) {
      cell = &cells_[pos & mask_];
      const std::size_t seq = cell->seq.load(std::memory_order_acquire);
      const auto dif = static_cast<std::intptr_t>(seq) -
                       static_cast<std::intptr_t>(pos + 1);
      if (dif == 0) {
        if (head_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          break;
        }
      } else if (dif < 0) {
        return false;  // empty
      } else {
        pos = head_.load(std::memory_order_relaxed);
      }
    }
    v = std::move(cell->val);
    cell->seq.store(pos + mask_ + 1, std::memory_order_release);
    return true;
  }

  /// Blocking pop; false only at end-of-stream (closed and drained).
  bool pop(T& v) {
    for (;;) {
      if (try_pop(v)) return true;
      if (closed_.load(std::memory_order_acquire)) {
        // Re-check: a producer may have pushed between the failed
        // try_pop and the close-flag read. Seeing closed==true (acquire)
        // orders every push made before close() before this re-check, so
        // the final partial block cannot be dropped.
        if (try_pop(v)) return true;
        return false;
      }
      std::this_thread::yield();
    }
  }

  void close() { closed_.store(true, std::memory_order_release); }
  bool closed() const { return closed_.load(std::memory_order_acquire); }

  /// Approximate occupancy; stale under concurrent traffic.
  std::size_t size() const {
    const std::size_t tail = tail_.load(std::memory_order_acquire);
    const std::size_t head = head_.load(std::memory_order_acquire);
    return tail >= head ? tail - head : 0;
  }

  std::size_t capacity() const { return mask_ + 1; }

 private:
  struct Cell {
    std::atomic<std::size_t> seq{0};
    T val{};
  };

  std::vector<Cell> cells_;
  std::size_t mask_ = 0;
  alignas(64) std::atomic<std::size_t> head_{0};
  alignas(64) std::atomic<std::size_t> tail_{0};
  alignas(64) std::atomic<bool> closed_{false};
};

}  // namespace dsadc::runtime
