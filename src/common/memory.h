#ifndef GRETA_COMMON_MEMORY_H_
#define GRETA_COMMON_MEMORY_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace greta {

/// Deterministic memory accounting for the benchmark "memory" metric
/// (Section 10.1: peak bytes of the engine's runtime data structures).
///
/// Engines register allocations/releases of their logical data structures
/// (graph vertices, aggregate cells, stacks, materialized trends); the
/// tracker records current and peak usage. This is intentionally analytic
/// rather than RSS-based so runs are reproducible and comparable across
/// engines and machines. Thread-safe: the shard engines of a ShardedRuntime
/// (src/runtime/) charge their own trackers from their worker threads, and
/// every charge is forwarded into the one workload roll-up they share.
///
/// Scope note: the GRETA engine charges structural bytes at their
/// allocation sites (panes, vertex slots, tree nodes, arena chunks — O(1)
/// per insert, see storage/pane.h). Heap storage of exact-mode counters
/// promoted past 2^64 (Counter::ApproxHeapBytes) is NOT charged: promotion
/// happens inside aggregate propagation with no tracker in reach, and the
/// benchmark regime (modular counters) never promotes. Metric comparisons
/// across engines are unaffected as long as modes match.
///
/// Roll-up hierarchy (src/runtime/ sharded execution): a tracker may be
/// given a parent; every Add/Release is forwarded to the parent at the
/// allocation site, so the parent's peak is a true point-in-time aggregate
/// across all children (summing per-child peaks would add maxima reached at
/// different times). The parent must be set before any concurrent use and
/// must outlive the child.
class MemoryTracker {
 public:
  MemoryTracker() = default;
  explicit MemoryTracker(MemoryTracker* parent) : parent_(parent) {}

  /// Not thread-safe: call before the tracker is shared across threads.
  void set_parent(MemoryTracker* parent) { parent_ = parent; }

  void Add(size_t bytes) {
    size_t now =
        current_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    size_t peak = peak_.load(std::memory_order_relaxed);
    while (now > peak &&
           !peak_.compare_exchange_weak(peak, now,
                                        std::memory_order_relaxed)) {
    }
    if (parent_ != nullptr) parent_->Add(bytes);
  }

  void Release(size_t bytes) {
    current_.fetch_sub(bytes, std::memory_order_relaxed);
    if (parent_ != nullptr) parent_->Release(bytes);
  }

  size_t current_bytes() const {
    return current_.load(std::memory_order_relaxed);
  }
  size_t peak_bytes() const { return peak_.load(std::memory_order_relaxed); }

  void Reset() {
    current_.store(0, std::memory_order_relaxed);
    peak_.store(0, std::memory_order_relaxed);
  }

 private:
  MemoryTracker* parent_ = nullptr;
  std::atomic<size_t> current_{0};
  std::atomic<size_t> peak_{0};
};

}  // namespace greta

#endif  // GRETA_COMMON_MEMORY_H_
