#ifndef GRETA_CORE_ENGINE_H_
#define GRETA_CORE_ENGINE_H_

#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/memory.h"
#include "core/engine_interface.h"
#include "core/greta_graph.h"
#include "core/plan.h"
#include "telemetry/telemetry.h"

namespace greta {

/// Engine construction options.
struct EngineOptions {
  CounterMode counter_mode = CounterMode::kExact;
  Semantics semantics = Semantics::kSkipTillAnyMatch;
  int max_windows_per_event = 64;
  /// Ablation knob (bench_ablation): disable tree-indexed predecessor range
  /// queries and fall back to scan + filter.
  bool enable_tree_ranges = true;
  /// Ablation knob: disable invalid event pruning (Theorem 5.1).
  bool enable_pruning = true;
  /// Ablation knob: disable the COUNT(*)-specialized propagation kernels
  /// and force the generic flag-tested path (kernel equivalence tests).
  bool enable_specialized_kernels = true;
  /// Ablation knob: disable the run-amortized batch propagation kernels;
  /// ProcessBatch then feeds the scalar insert kernel row by row. Results
  /// must be bit-identical either way.
  bool enable_batch_kernels = true;
  /// Ablation knob: keep every batch hot loop on the scalar reference
  /// implementations even when the process dispatched a vector ISA (see
  /// common/simd.h; the GRETA_SIMD env var narrows dispatch process-wide
  /// instead). Results must be bit-identical either way.
  bool enable_simd = true;
  /// External memory tracker shared across engines (multi-query runtimes,
  /// src/sharing/): when set, allocations are accounted there so the peak
  /// is a true point-in-time workload peak instead of a sum of per-engine
  /// peaks reached at different times. Must outlive the engine. Null: the
  /// engine tracks its own memory.
  MemoryTracker* memory = nullptr;
};

/// The GRETA runtime (Figure 4): filters and partitions the stream on vertex
/// predicates and grouping attributes, maintains one GRETA graph per
/// sub-pattern per partition, propagates aggregates along edges during graph
/// construction, and emits final aggregates incrementally at window close.
class GretaEngine : public EngineInterface {
 public:
  /// Compiles `spec` and builds the runtime. The catalog must outlive the
  /// engine.
  static StatusOr<std::unique_ptr<GretaEngine>> Create(
      const Catalog* catalog, const QuerySpec& spec,
      const EngineOptions& options = {});

  /// Multi-query shared execution (src/sharing/): compiles a cluster of
  /// share-compatible queries into ONE runtime whose graphs carry
  /// query-indexed aggregate cells. Events are filtered, partitioned and
  /// connected once; only the aggregate propagation runs per query. Results
  /// are drained per query with TakeResultsFor().
  static StatusOr<std::unique_ptr<GretaEngine>> CreateMulti(
      const Catalog* catalog, const std::vector<const QuerySpec*>& specs,
      const EngineOptions& options = {});

  /// Partial sharing (Hamlet): compiles a cluster of queries sharing a
  /// common Kleene sub-pattern prefix — but differing in pattern suffix or
  /// window length (equal slide) — into ONE runtime over a merged template.
  /// The shared core propagates one structural snapshot per (vertex,
  /// window); each query folds the snapshot into its own aggregates through
  /// its own continuation states and window range (BuildPartialSharedPlan).
  /// Emission timing: windows close on the cluster's UNION window, so a
  /// shorter-WITHIN query's rows (identical in content) surface up to
  /// `max_within - within` ticks of stream time later than a dedicated
  /// engine would emit them.
  static StatusOr<std::unique_ptr<GretaEngine>> CreatePartial(
      const Catalog* catalog, const std::vector<const QuerySpec*>& specs,
      const EngineOptions& options = {});

  ~GretaEngine() override;

  Status Process(const Event& e) override;

  /// Columnar ingest: processes a time-ordered batch, amortizing routing,
  /// window bookkeeping and graph insertion over runs of equal timestamps.
  /// Equivalent to Process(batch.ToEvent(i)) for every row — results are
  /// bit-identical — but rows of one timestamp are grouped per partition
  /// and delivered through the batch propagation kernels.
  Status ProcessBatch(const EventBatch& batch) override;

  Status Flush() override;
  std::vector<ResultRow> TakeResults() override;

  /// Per-window observation hook (adaptive sharing, src/sharing/): one
  /// entry per closed window with the events routed, vertices created and
  /// propagation edges traversed since the previous close. O(partitions)
  /// at window close (piggybacked on the emit walk), O(1) per event. The
  /// backlog is capped at 256 undrained windows (oldest dropped).
  std::vector<WindowObservation> TakeWindowObservations() override;

  /// Cumulative per-query EXPLAIN ANALYZE tallies, one slot per query slot
  /// (slot index == query_id; the sharing layer re-maps slots to workload
  /// query ids). Updated once per window close with plain members — zero
  /// per-event cost. Structural counters are
  /// cluster-attributed (see QueryExecStats); rows_emitted is exact per
  /// slot. Empty until the first window closes.
  const std::vector<QueryExecStats>& query_exec_stats() const {
    return query_stats_;
  }

  /// Watermark hook for external drivers (src/runtime/ sharded execution):
  /// declares that every event with time < `now` has already been delivered,
  /// closing (and emitting) windows exactly as Process(e with e.time == now)
  /// would before routing — without consuming an event. Events at time ==
  /// `now` may still arrive afterwards. A watermark earlier than the current
  /// one is a no-op.
  Status AdvanceWatermark(Ts now);

  /// Drains the rows of query slot `q` (multi-query runtimes). TakeResults()
  /// is equivalent to TakeResultsFor(0).
  std::vector<ResultRow> TakeResultsFor(size_t q);
  size_t num_queries() const;
  const EngineStats& stats() const override { return stats_; }

  /// Recomputes the aggregate counters (vertices/edges/work/peak) from the
  /// graphs NOW. stats() is otherwise refreshed lazily at TakeResults /
  /// Flush; an external driver retiring this engine mid-run (adaptive
  /// migration) calls this first so the final snapshot is exact.
  void RefreshStats() { RefreshAggregateStats(); }
  const AggPlan& agg_plan() const override { return plan_->agg; }
  std::string name() const override { return "GRETA"; }

  const ExecPlan& plan() const { return *plan_; }

  /// The engine's memory tracker (own or shared via EngineOptions::memory).
  const MemoryTracker& memory() const { return *memory_; }

  /// Re-derives the bytes currently charged to the tracker by walking every
  /// partition's graphs and panes and the pooled panes. O(everything) —
  /// accounting invariant tests only; must equal memory().current_bytes()
  /// for a single-engine tracker.
  size_t RecomputeTrackedBytes() const;

  /// Expired panes awaiting reuse by any partition (storage/pane.h).
  const PanePool<GraphVertex>& pane_pool() const { return *pane_pool_; }

  /// Optional push-style delivery: invoked for every result row of query
  /// slot `q` the moment its window closes (before it is queued for
  /// TakeResults), e.g. to fire the paper's real-time sell signals without
  /// polling. Every slot of a multi-query runtime can register its own
  /// consumer; the one-argument overload targets the primary slot 0.
  void set_result_callback(size_t q,
                           std::function<void(const ResultRow&)> callback) {
    if (result_callbacks_.size() <= q) result_callbacks_.resize(q + 1);
    result_callbacks_[q] = std::move(callback);
  }
  void set_result_callback(std::function<void(const ResultRow&)> callback) {
    set_result_callback(0, std::move(callback));
  }

 private:
  GretaEngine(const Catalog* catalog, std::unique_ptr<ExecPlan> plan,
              const EngineOptions& options);

  struct AltRuntime {
    std::vector<std::unique_ptr<GretaGraph>> graphs;
    std::vector<std::unique_ptr<NegationLink>> links;
  };
  // The partition key lives only as the partitions_ map key.
  struct Partition {
    std::vector<AltRuntime> alts;
    // Batch routing: which run-group slot this partition owns in the
    // current RouteRun epoch (stale when group_epoch != the engine's).
    uint32_t group_epoch = 0;
    uint32_t group_slot = 0;
  };

  // A buffered event of a type lacking some key attributes, delivered to
  // every current and future partition whose key agrees on the attributes
  // the event does carry.
  struct BroadcastEvent {
    Event event;
    std::vector<bool> has_attr;     // per key attr
    std::vector<Value> key_values;  // valid where has_attr
  };

  void AdvanceTime(Ts now);
  void CloseWindowsUpTo(Ts now);
  void EmitWindow(WindowId wid);
  void Route(const Event& e);
  void RouteRun(const EventBatch& batch, size_t begin, size_t end);
  void DeliverToPartition(Partition* p, const Event& e);
  void DeliverBatchToPartition(Partition* p, const EventBatch& batch,
                               const std::vector<uint32_t>& rows);
  Partition* GetOrCreatePartition(const std::vector<Value>& key, SeqNo upto);
  bool BroadcastMatches(const BroadcastEvent& b,
                        const std::vector<Value>& key) const;
  void RefreshAggregateStats();

  const Catalog* catalog_;
  std::unique_ptr<ExecPlan> plan_;
  EngineOptions options_;
  MemoryTracker own_memory_;
  MemoryTracker* memory_;  // EngineOptions::memory, or own_memory_
  // Shared by every partition's graphs; declared after the tracker it
  // charges (its destructor releases the pooled bytes) and before the
  // partitions. On the heap because inline it would push sizeof(*this)
  // past glibc's 1032-byte thread-cache limit, and engine creation
  // measured ~1 us slower for it.
  std::unique_ptr<PanePool<GraphVertex>> pane_pool_;
  // The run kernel's scratch, shared by every partition's graphs like the
  // pane pool (one thread drives an engine); made with the first partition,
  // so creating an engine stays one allocation cheaper. Untracked: it holds
  // nothing between InsertBatch calls.
  std::unique_ptr<RunScratch> run_scratch_;

  std::unordered_map<std::vector<Value>, std::unique_ptr<Partition>,
                     ValueVecHash, ValueVecEq>
      partitions_;
  // Scratch partition key reused across Route() calls: the hot path fills
  // it in place and only GetOrCreatePartition's miss branch copies it.
  std::vector<Value> route_key_;
  // Dense per-type routing table derived from plan_->key_attr_ids: the
  // per-event hash lookup becomes an index; nullptr marks irrelevant types.
  std::vector<const std::vector<AttrId>*> route_table_;
  std::deque<BroadcastEvent> broadcast_buffer_;

  // RouteRun scratch: per-partition row groups of the current equal-ts run.
  // Slots (and their index vectors) are reused across runs; partitions find
  // their slot through the epoch fields instead of a per-run hash map.
  struct RunGroup {
    Partition* partition = nullptr;
    std::vector<uint32_t> rows;
  };
  std::vector<RunGroup> run_groups_;
  size_t run_groups_used_ = 0;
  uint32_t route_epoch_ = 0;

  Ts watermark_ = kMinTs;
  bool saw_events_ = false;
  bool flushed_unbounded_ = false;
  WindowId next_close_ = 0;
  bool next_close_valid_ = false;

  // EmitWindow scratch, reused across windows: every (partition, query)
  // output of the window, and one sortable entry per non-empty output (its
  // query, partition key and slot in emit_outs_, which is also the
  // partition iteration order).
  struct EmitEntry {
    const Value* key;
    uint32_t q;
    uint32_t out;
  };
  std::vector<AggOutputs> emit_outs_;
  std::vector<EmitEntry> emit_entries_;

  std::vector<std::vector<ResultRow>> emitted_;  // per query slot
  std::vector<std::function<void(const ResultRow&)>> result_callbacks_;
  EngineStats stats_;

  // Per-window observation state: routed-event counter reset at every
  // window close; last seen cumulative graph counters for the deltas.
  std::deque<WindowObservation> window_obs_;
  std::vector<QueryExecStats> query_stats_;  // sized lazily at first close
  size_t obs_events_routed_ = 0;
  size_t obs_prev_vertices_ = 0;
  size_t obs_prev_edges_ = 0;

  // Telemetry instruments, cached from the default registry at construction
  // (all null when telemetry is compiled out or runtime-disabled — every
  // update site branches on the pointer). Counters are registry-sharded, so
  // many engines (shards, clusters) share one named series.
  struct Instruments {
    telemetry::Counter* events_routed = nullptr;
    telemetry::Counter* vertices_created = nullptr;
    telemetry::Counter* edges_traversed = nullptr;
    telemetry::Counter* windows_closed = nullptr;
    // Indexed by PropKernel; only kinds present in the plan are registered.
    telemetry::Counter* kernel_dispatch[kNumPropKernels] = {};
    // Batch-kernel coverage, indexed by GretaGraph::BatchFallbackReason /
    // BatchStrategy (labeled series; see ExplainTelemetry).
    telemetry::Counter* batch_fallback[GretaGraph::kNumBatchFallbackReasons] =
        {nullptr, nullptr, nullptr, nullptr};
    telemetry::Counter* batch_strategy[GretaGraph::kNumBatchStrategies] = {
        nullptr, nullptr, nullptr};
    // Rows through the dispatched vector kernels, labeled by the ISA
    // resolved at engine construction (greta_core_simd_rows_total{isa=...}).
    telemetry::Counter* simd_rows = nullptr;
    // Panes opened fresh vs taken from pane_pool_
    // (greta_core_panes_total{source=...}).
    telemetry::Counter* panes_fresh = nullptr;
    telemetry::Counter* panes_recycled = nullptr;
    telemetry::Histogram* emit_ns = nullptr;  // window close-to-emit latency
    telemetry::Gauge* pane_bytes = nullptr;   // tracked bytes after a close
    telemetry::TraceRing* trace = nullptr;
  };
  Instruments tm_;
  // Graphs per kernel kind delivered per (event, partition): dispatch
  // counts are kernel_per_delivery_[k] * deliveries. Deliveries accumulate
  // in a plain member on the routing paths and flush into the registry once
  // per window close — the per-event hot path pays one non-atomic
  // increment, not an atomic counter update.
  uint64_t kernel_per_delivery_[kNumPropKernels] = {};
  uint64_t tm_deliveries_ = 0;
  uint64_t tm_prev_deliveries_ = 0;
  // Batch rows forced onto the per-event scalar schedule by negation
  // (DeliverBatchToPartition's multi-graph path never reaches the graphs'
  // own InsertBatch tally). Counted once per (row, alternative).
  size_t batch_negation_rows_ = 0;
  // Last flushed cumulative batch counters (summed across all graphs);
  // EmitWindow adds the delta into the registry, like kernel_dispatch.
  uint64_t tm_prev_batch_fallback_[GretaGraph::kNumBatchFallbackReasons] = {
      0, 0, 0, 0};
  uint64_t tm_prev_batch_strategy_[GretaGraph::kNumBatchStrategies] = {0, 0,
                                                                       0};
  uint64_t tm_prev_simd_rows_ = 0;
  uint64_t tm_prev_panes_fresh_ = 0;
  uint64_t tm_prev_panes_recycled_ = 0;
};

}  // namespace greta

#endif  // GRETA_CORE_ENGINE_H_
