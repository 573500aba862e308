#ifndef GRETA_RUNTIME_SPSC_QUEUE_H_
#define GRETA_RUNTIME_SPSC_QUEUE_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <utility>
#include <vector>

#include "common/check.h"

namespace greta::runtime {

/// Bounded single-producer / single-consumer queue used as a shard's batched
/// ingest channel: the router thread pushes event batches, the shard's
/// worker thread pops them.
///
/// The fast paths are lock-free (a power-of-two ring indexed by monotonically
/// increasing head/tail counters with acquire/release publication); the
/// mutex + condvars exist only to PARK a side that finds the ring full
/// (producer) or empty (consumer). The blocking protocol is the standard
/// double-check: the about-to-sleep side re-checks the indices under the
/// mutex, and the other side takes the mutex (briefly, empty critical
/// section) before notifying after publishing — so a notify can never slip
/// between the re-check and the wait.
///
/// Close() (producer side) makes Pop return false once the ring drains,
/// which is the consumer loop's exit signal.
template <typename T>
class SpscQueue {
 public:
  /// `capacity` is rounded up to a power of two (minimum 2).
  explicit SpscQueue(size_t capacity) {
    size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    ring_.resize(cap);
    mask_ = cap - 1;
  }

  SpscQueue(const SpscQueue&) = delete;
  SpscQueue& operator=(const SpscQueue&) = delete;

  /// Producer: enqueues `item`, blocking while the ring is full.
  void Push(T item) {
    GRETA_DCHECK(!closed_.load(std::memory_order_relaxed));
    for (;;) {
      size_t t = tail_.load(std::memory_order_relaxed);
      size_t h = head_.load(std::memory_order_acquire);
      if (t - h <= mask_) {
        ring_[t & mask_] = std::move(item);
        tail_.store(t + 1, std::memory_order_release);
        // Occupancy high watermark, producer-only write (h re-read would
        // only shrink the depth, so this is the conservative maximum).
        const size_t depth = t + 1 - h;
        if (depth > depth_hwm_.load(std::memory_order_relaxed)) {
          depth_hwm_.store(depth, std::memory_order_relaxed);
        }
        { std::lock_guard<std::mutex> lock(mu_); }
        not_empty_.notify_one();
        return;
      }
      producer_stalls_.fetch_add(1, std::memory_order_relaxed);
      std::unique_lock<std::mutex> lock(mu_);
      not_full_.wait(lock, [this] {
        return tail_.load(std::memory_order_relaxed) -
                   head_.load(std::memory_order_acquire) <=
               mask_;
      });
    }
  }

  /// Consumer: dequeues into `*out`, blocking while the ring is empty.
  /// Returns false once the queue is closed and fully drained.
  bool Pop(T* out) {
    for (;;) {
      size_t h = head_.load(std::memory_order_relaxed);
      if (h != tail_.load(std::memory_order_acquire)) {
        *out = std::move(ring_[h & mask_]);
        head_.store(h + 1, std::memory_order_release);
        { std::lock_guard<std::mutex> lock(mu_); }
        not_full_.notify_one();
        return true;
      }
      if (closed_.load(std::memory_order_acquire)) {
        // The acquire on closed_ orders any Push sequenced before Close()
        // into view; only a STILL-empty ring means fully drained — the
        // earlier tail_ read may predate that final Push.
        if (h == tail_.load(std::memory_order_acquire)) return false;
        continue;
      }
      std::unique_lock<std::mutex> lock(mu_);
      not_empty_.wait(lock, [this] {
        return head_.load(std::memory_order_relaxed) !=
                   tail_.load(std::memory_order_acquire) ||
               closed_.load(std::memory_order_acquire);
      });
    }
  }

  /// Producer: no further Push calls will follow; wakes the consumer so it
  /// can drain the remainder and exit.
  void Close() {
    closed_.store(true, std::memory_order_release);
    { std::lock_guard<std::mutex> lock(mu_); }
    not_empty_.notify_all();
  }

  size_t capacity() const { return mask_ + 1; }

  /// Approximate occupancy (either side may be mid-operation).
  size_t size() const {
    return tail_.load(std::memory_order_relaxed) -
           head_.load(std::memory_order_relaxed);
  }

  /// Maximum occupancy ever observed right after a Push — how close the
  /// channel came to backpressure. Readable from any thread.
  size_t depth_high_watermark() const {
    return depth_hwm_.load(std::memory_order_relaxed);
  }

  /// Push calls that found the ring full and parked (each blocking episode
  /// counts once per wakeup attempt). Readable from any thread.
  size_t producer_stalls() const {
    return producer_stalls_.load(std::memory_order_relaxed);
  }

 private:
  std::vector<T> ring_;
  size_t mask_ = 0;
  std::atomic<size_t> head_{0};  // next slot to pop
  std::atomic<size_t> tail_{0};  // next slot to push
  std::atomic<bool> closed_{false};
  // Pressure counters (see accessors); plain internal state, no telemetry
  // dependency — the sharded runtime mirrors them into registry series.
  std::atomic<size_t> depth_hwm_{0};
  std::atomic<size_t> producer_stalls_{0};
  std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
};

}  // namespace greta::runtime

#endif  // GRETA_RUNTIME_SPSC_QUEUE_H_
