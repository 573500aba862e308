#ifndef GRETA_STORAGE_PANE_H_
#define GRETA_STORAGE_PANE_H_

#include <algorithm>
#include <deque>
#include <map>
#include <utility>
#include <vector>

#include "common/arena.h"
#include "common/check.h"
#include "common/memory.h"
#include "common/types.h"
#include "storage/btree.h"

namespace greta {

/// Time-pane store (Section 7, Figure 11): the stream is divided into
/// non-overlapping consecutive time intervals; each pane holds, per bucket
/// (one bucket per template state), the vertices that fall into it plus a
/// Vertex Tree sorted by that bucket's key attribute. Expired panes are
/// deleted wholesale ("instead of removing single expired events ... a whole
/// pane with its associated data structures is deleted") — their contents
/// at once, their skeleton into a PanePool for reuse (below).
///
/// Each pane additionally owns a chunked Arena from which callers draw
/// vertex side storage (aggregate cells, stored-event attribute payloads):
/// obtain it with ArenaFor(time) immediately before Insert()ing the vertex
/// into the same pane. Pane expiry then frees those allocations wholesale
/// with the pane.
///
/// Memory accounting is incremental and O(1) per insert: every pane tracks
/// the bytes charged for it (vertex slots, tree-node growth, arena chunk
/// growth, fixed overhead), `ApproxBytes()` returns the running total, and
/// an optional MemoryTracker is credited/debited at the same sites — no
/// per-cell walks on the hot path. `RecomputeApproxBytes()` re-derives the
/// same total from scratch for invariant tests.
///
/// Pane lifecycle: with a PanePool attached (the engine owns one, shared by
/// every partition's stores), an expired pane is not destroyed but reset
/// and handed to the pool, and the next pane any store of that engine
/// opens is taken from it. The reset destroys the vertices and frees the
/// arena chunks but keeps the map node, the bucket array, each bucket's
/// deque block and each tree's root leaf, so once the engine is warm a
/// partition-window allocates nothing for its panes. The kept bytes stay
/// charged to the tracker while pooled (see PanePool). Without a pool an
/// expired pane is destroyed.
///
/// V is the vertex type; values handed to Insert are stored in a deque so
/// the returned pointers stay stable for the lifetime of the pane. The deque
/// is emptied before the pane's arena, so V's destructor may still touch
/// arena-backed storage (GraphVertex destroys its aggregate cells there).
template <typename V>
class PanePool;

template <typename V>
class PaneStore {
 public:
  /// `pool`, when set, must share `memory` and outlive the store.
  PaneStore(Ts pane_size, size_t num_buckets, MemoryTracker* memory = nullptr,
            PanePool<V>* pool = nullptr)
      : pane_size_(pane_size),
        num_buckets_(num_buckets),
        memory_(memory),
        pool_(pool) {
    GRETA_CHECK(pane_size_ > 0);
    GRETA_CHECK(num_buckets_ > 0);
    GRETA_CHECK(pool_ == nullptr || pool_->memory_ == memory_);
  }

  ~PaneStore() {
    if (memory_ != nullptr) memory_->Release(bytes_);
  }

  PaneStore(const PaneStore&) = delete;
  PaneStore& operator=(const PaneStore&) = delete;

  /// The arena of the pane covering `time`, creating the pane if needed.
  /// Allocations made here are accounted by the next Insert() into the same
  /// pane — call Insert(time, ...) before touching any other pane.
  Arena* ArenaFor(Ts time) { return &PaneFor(time).arena; }

  /// Inserts a vertex with the given tree key into the pane covering `time`.
  /// Returns a stable pointer.
  V* Insert(Ts time, size_t bucket, double key, V value) {
    GRETA_DCHECK(bucket < num_buckets_);
    Pane& pane = PaneFor(time);
    Bucket& b = pane.buckets[bucket];
    size_t tree_before = b.index.ApproxBytes();
    b.vertices.push_back(std::move(value));
    V* stored = &b.vertices.back();
    b.index.Insert(key, stored);
    ++size_;
    size_t grew = sizeof(V) + (b.index.ApproxBytes() - tree_before) +
                  (pane.arena.footprint_bytes() - pane.arena_accounted);
    pane.arena_accounted = pane.arena.footprint_bytes();
    ChargePane(&pane, grew);
    return stored;
  }

  /// Scans bucket `bucket` over all panes intersecting [lo_time, hi_time]
  /// (inclusive), visiting entries within `bounds` in key order per pane.
  /// `fn(V*)` is invoked for each.
  template <typename Fn>
  void ScanBucket(Ts lo_time, Ts hi_time, size_t bucket,
                  const KeyBounds& bounds, Fn&& fn) const {
    GRETA_DCHECK(bucket < num_buckets_);
    if (panes_.empty() || lo_time > hi_time) return;
    int64_t lo_idx = FloorDivTs(lo_time);
    for (auto it = panes_.lower_bound(lo_idx); it != panes_.end(); ++it) {
      if (it->second.start > hi_time) break;
      it->second.buckets[bucket].index.Scan(bounds, fn);
    }
  }

  /// ScanBucket variant invoking `fn(key, V*)` so callers get the tree key
  /// alongside the vertex (the batch kernels collect (key, cell) pairs once
  /// per equal-timestamp run).
  template <typename Fn>
  void ScanBucketWithKey(Ts lo_time, Ts hi_time, size_t bucket,
                         const KeyBounds& bounds, Fn&& fn) const {
    GRETA_DCHECK(bucket < num_buckets_);
    if (panes_.empty() || lo_time > hi_time) return;
    int64_t lo_idx = FloorDivTs(lo_time);
    for (auto it = panes_.lower_bound(lo_idx); it != panes_.end(); ++it) {
      if (it->second.start > hi_time) break;
      it->second.buckets[bucket].index.ScanWithKey(bounds, fn);
    }
  }

  /// Visits every vertex of `bucket` across all panes (pane order, then key
  /// order), e.g. for window-close scans.
  template <typename Fn>
  void ScanBucketAll(size_t bucket, Fn&& fn) const {
    for (const auto& [idx, pane] : panes_) {
      (void)idx;
      pane.buckets[bucket].index.ScanAll(fn);
    }
  }

  /// Drops every pane that ends at or before `cutoff` (batch deletion),
  /// releasing its charged bytes wholesale — or, with a pool, all but the
  /// bytes the reset pane keeps, which move to the pool. Returns the number
  /// of vertices freed.
  size_t PurgeBefore(Ts cutoff) {
    return PurgeBefore(cutoff, [](const V&) {});
  }

  /// PurgeBefore variant invoking `on_free(vertex)` for each dropped vertex.
  template <typename Fn>
  size_t PurgeBefore(Ts cutoff, Fn&& on_free) {
    size_t freed = 0;
    while (!panes_.empty()) {
      auto it = panes_.begin();
      if (it->second.start + pane_size_ > cutoff) break;
      Pane& pane = it->second;
      for (const Bucket& b : pane.buckets) {
        for (const V& v : b.vertices) on_free(v);
        freed += b.vertices.size();
      }
      if (last_pane_ == &pane) last_pane_ = nullptr;
      const size_t charged = pane.bytes;
      bytes_ -= charged;
      if (pool_ == nullptr) {
        if (memory_ != nullptr) memory_->Release(charged);
        panes_.erase(it);
        continue;
      }
      // Vertices first: ~V may touch cells in the arena.
      for (Bucket& b : pane.buckets) {
        b.vertices.clear();
        b.index.Reset();
      }
      pane.arena.Reset();
      pane.arena_accounted = 0;
      pane.bytes = PaneBytes(pane);
      if (memory_ != nullptr) memory_->Release(charged - pane.bytes);
      pool_->Put(panes_.extract(it));
    }
    size_ -= freed;
    return freed;
  }

  size_t size() const { return size_; }
  size_t num_panes() const { return panes_.size(); }
  Ts pane_size() const { return pane_size_; }

  /// Bytes held by vertices, tree nodes and pane arenas. O(1): maintained
  /// incrementally at the allocation sites.
  size_t ApproxBytes() const { return bytes_; }

  /// Walks every pane and re-derives ApproxBytes() from scratch. For the
  /// accounting invariant tests; the hot path never calls this.
  size_t RecomputeApproxBytes() const {
    size_t bytes = 0;
    for (const auto& [idx, pane] : panes_) {
      (void)idx;
      bytes += PaneBytes(pane);
    }
    return bytes;
  }

 private:
  friend class PanePool<V>;

  struct Bucket {
    std::deque<V> vertices;
    BPlusTree<V*> index;
  };
  struct Pane {
    Ts start = 0;
    size_t bytes = 0;            // everything charged for this pane
    size_t arena_accounted = 0;  // arena footprint already in `bytes`
    // The arena must outlive the vertex deques: ~V may destroy arena-backed
    // cells, so `buckets` (destroyed first, reverse declaration order) comes
    // after `arena`.
    Arena arena;
    std::vector<Bucket> buckets;
  };

  using PaneMap = std::map<int64_t, Pane>;

  // Everything a pane holds, derived from its structures: fixed overhead,
  // arena chunks, vertex slots and tree nodes. A reset pane keeps only the
  // overhead and one root leaf per indexed bucket.
  static size_t PaneBytes(const Pane& pane) {
    size_t bytes = sizeof(Pane) + pane.buckets.capacity() * sizeof(Bucket) +
                   pane.arena.footprint_bytes();
    for (const Bucket& b : pane.buckets) {
      bytes += b.vertices.size() * sizeof(V) + b.index.ApproxBytes();
    }
    return bytes;
  }

  void ChargePane(Pane* pane, size_t bytes) {
    pane->bytes += bytes;
    bytes_ += bytes;
    if (memory_ != nullptr) memory_->Add(bytes);
  }

  int64_t FloorDivTs(Ts t) const {
    int64_t q = t / pane_size_;
    if ((t % pane_size_ != 0) && (t < 0)) --q;
    return q;
  }

  // Streams arrive in time order, so consecutive inserts overwhelmingly hit
  // one pane; a one-entry cache keyed by the pane's time range answers hits
  // with two comparisons — no division, no map lookup (ArenaFor + Insert
  // would otherwise pay both twice per vertex).
  Pane& PaneFor(Ts time) {
    if (last_pane_ != nullptr && time >= last_pane_->start &&
        time - last_pane_->start < pane_size_) {
      return *last_pane_;
    }
    return GetOrCreatePane(FloorDivTs(time));
  }

  Pane& GetOrCreatePane(int64_t idx) {
    auto it = panes_.find(idx);
    if (it == panes_.end()) {
      // A pooled pane arrives with its kept bytes still charged; only the
      // difference a bucket-count change makes reaches the tracker.
      typename PaneMap::node_type node;
      if (pool_ != nullptr) node = pool_->Take();
      size_t was_charged = 0;
      if (node.empty()) {
        it = panes_.try_emplace(panes_.end(), idx);
      } else {
        was_charged = node.mapped().bytes;
        node.key() = idx;
        it = panes_.insert(panes_.end(), std::move(node));
      }
      Pane& pane = it->second;
      pane.start = idx * pane_size_;
      pane.buckets.resize(num_buckets_);
      pane.bytes = PaneBytes(pane);
      bytes_ += pane.bytes;
      if (memory_ != nullptr && pane.bytes > was_charged) {
        memory_->Add(pane.bytes - was_charged);
      } else if (memory_ != nullptr && pane.bytes < was_charged) {
        memory_->Release(was_charged - pane.bytes);
      }
    }
    last_pane_ = &it->second;
    return it->second;
  }

  Ts pane_size_;
  size_t num_buckets_;
  MemoryTracker* memory_;
  PanePool<V>* pool_;
  PaneMap panes_;                  // ordered by pane index
  Pane* last_pane_ = nullptr;      // one-entry PaneFor cache
  size_t size_ = 0;
  size_t bytes_ = 0;
};

/// The free list of reset panes shared by every PaneStore<V> of one engine
/// (see PaneStore's pane lifecycle). A pooled pane keeps its map node,
/// bucket array, deque blocks and tree root leaves; those bytes stay
/// charged to the tracker and are counted here (ApproxBytes,
/// RecomputeApproxBytes), so the engine's invariant holds with panes in
/// flight. Trim(), called once per window close, frees every pane that sat
/// in the pool unused since the previous Trim, so a burst over many
/// partitions leaves nothing pooled one window close after its panes
/// expire.
///
/// Owned by one engine and used only by the thread driving it (parallelism
/// is across engines, one per shard: src/runtime/), so it takes no lock.
template <typename V>
class PanePool {
 public:
  explicit PanePool(MemoryTracker* memory = nullptr) : memory_(memory) {}
  ~PanePool() {
    if (memory_ != nullptr) memory_->Release(bytes_);
  }

  PanePool(const PanePool&) = delete;
  PanePool& operator=(const PanePool&) = delete;

  /// Frees the panes no store took since the previous Trim. The free list
  /// is a stack (Take pops the most recently pooled pane), so those are
  /// the `idle_` bottom entries.
  void Trim() {
    const size_t n = std::min(idle_, free_.size());
    size_t freed = 0;
    for (size_t i = 0; i < n; ++i) freed += free_[i].mapped().bytes;
    free_.erase(free_.begin(), free_.begin() + static_cast<ptrdiff_t>(n));
    bytes_ -= freed;
    if (memory_ != nullptr) memory_->Release(freed);
    idle_ = free_.size();
  }

  size_t size() const { return free_.size(); }

  /// Bytes the pooled panes keep charged to the tracker. O(1).
  size_t ApproxBytes() const { return bytes_; }

  /// Re-derives ApproxBytes() from the pooled panes (invariant tests).
  size_t RecomputeApproxBytes() const {
    size_t bytes = 0;
    for (const Node& node : free_) {
      bytes += PaneStore<V>::PaneBytes(node.mapped());
    }
    return bytes;
  }

  /// Panes the stores opened fresh (a new map node) and from the pool.
  uint64_t panes_created() const { return created_; }
  uint64_t panes_recycled() const { return recycled_; }

 private:
  friend class PaneStore<V>;
  using Node = typename PaneStore<V>::PaneMap::node_type;

  // An empty node means the caller creates the pane fresh.
  Node Take() {
    if (free_.empty()) {
      ++created_;
      return Node();
    }
    ++recycled_;
    Node node = std::move(free_.back());
    free_.pop_back();
    idle_ = std::min(idle_, free_.size());
    bytes_ -= node.mapped().bytes;
    return node;
  }

  void Put(Node node) {
    bytes_ += node.mapped().bytes;
    free_.push_back(std::move(node));
  }

  MemoryTracker* memory_;
  std::vector<Node> free_;
  size_t idle_ = 0;  // low-water mark of free_.size() since the last Trim
  size_t bytes_ = 0;
  uint64_t created_ = 0;
  uint64_t recycled_ = 0;
};

}  // namespace greta

#endif  // GRETA_STORAGE_PANE_H_
