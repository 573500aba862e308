#ifndef GRETA_CORE_GRETA_GRAPH_H_
#define GRETA_CORE_GRETA_GRAPH_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/column_projection.h"
#include "common/event_batch.h"
#include "common/memory.h"
#include "predicate/batch_filter.h"
#include "core/negation.h"
#include "core/plan.h"
#include "storage/pane.h"

namespace greta {

/// A vertex of the runtime GRETA graph: one matched event at one template
/// state, carrying one aggregate cell per window it falls into (Definition 3
/// plus the sliding-window sharing of Section 6). Edges are never stored —
/// each edge is traversed exactly once while the aggregate of the new event
/// is computed (Section 7).
///
/// The vertex is a single flat struct with zero per-vertex heap
/// allocations: both side arrays live in the owning pane's arena and are
/// freed wholesale when the pane expires (Section 7 batch deletion).
///  - `cells` — the aggregate cells, laid out row-major by window, `stride`
///    cells per window: one per query slot under multi-query shared
///    execution (src/sharing/), where stride == 1 reproduces the
///    single-query layout bit for bit; under partial sharing
///    PartialSharingPlan::core_stride() fold-slot cells on a shared-core
///    vertex and a single cell on a per-query continuation vertex.
///  - `attrs` — the stored-event payload: instead of a full Event copy the
///    vertex keeps time/seq plus only the leading attribute values scan-time
///    residual edge predicates read (StatePlan::stored_attr_count; zero for
///    tree-indexed queries).
///
/// The vertex destroys its cells itself (a promoted exact-mode Counter owns
/// heap storage); the pane destroys its vertex deque before its arena, so
/// this is safe. Move-only: moving transfers cell ownership.
struct GraphVertex {
  Ts time = 0;
  SeqNo seq = 0;
  AggCell* cells = nullptr;     // pane-arena backed; owned (runs dtors)
  const Value* attrs = nullptr; // pane-arena backed; borrowed view
  uint64_t used_transitions = 0;  // skip-till-next-match bookkeeping
  WindowId first_wid = 0;
  StateId state = kInvalidState;
  int32_t num_cells = 0;  // num_wids * stride
  int16_t num_wids = 0;
  int16_t stride = 1;  // cells per window
  uint16_t num_attrs = 0;
  bool dead = false;  // tombstone (invalid event pruning)

  GraphVertex() = default;
  GraphVertex(const GraphVertex&) = delete;
  GraphVertex& operator=(const GraphVertex&) = delete;
  GraphVertex(GraphVertex&& other) noexcept { *this = std::move(other); }
  GraphVertex& operator=(GraphVertex&& other) noexcept {
    if (this != &other) {
      DestroyCells();
      time = other.time;
      seq = other.seq;
      cells = other.cells;
      attrs = other.attrs;
      used_transitions = other.used_transitions;
      first_wid = other.first_wid;
      state = other.state;
      num_cells = other.num_cells;
      num_wids = other.num_wids;
      stride = other.stride;
      num_attrs = other.num_attrs;
      dead = other.dead;
      other.cells = nullptr;
      other.num_cells = 0;
    }
    return *this;
  }
  ~GraphVertex() { DestroyCells(); }

  /// The stored-event attribute view for predicate evaluation.
  EventView view() const { return EventView(attrs, num_attrs); }

  bool InWindow(WindowId wid) const {
    return wid >= first_wid && wid < first_wid + num_wids;
  }
  AggCell* cell(WindowId wid, size_t q = 0) {
    return &cells[(wid - first_wid) * stride + q];
  }
  const AggCell* cell(WindowId wid, size_t q = 0) const {
    return &cells[(wid - first_wid) * stride + q];
  }

 private:
  void DestroyCells() {
    for (int32_t i = 0; i < num_cells; ++i) cells[i].~AggCell();
  }
};

/// Scratch of the run kernel (GretaGraph::InsertBatch): every buffer is
/// refilled per call and read only inside it, so one instance serves every
/// graph of an engine (an engine is driven by one thread at a time). The
/// engine hands it to each graph the way it hands out its PanePool. It is
/// not charged to the MemoryTracker: like the row kernel's scratch cells it
/// holds no state between calls.
struct RunScratch {
  // Group-dense projection of the fast-predicate attributes over one
  // InsertBatch call's rows: lane k is batch row group_rows[k], and `base`
  // is the current run's offset into the group, so run positions are
  // consecutive lanes.
  ColumnProjection group_proj;
  bool group_proj_ready = false;
  const uint32_t* group_rows = nullptr;
  size_t base = 0;

  std::vector<uint32_t> sel;        // batch rows selected at the state
  std::vector<uint32_t> pos;        // their group_proj lane positions
  std::vector<AggCell> cells;       // per selected row: k * stride cells
  std::vector<double> lo;           // per (transition, row): key bounds
  std::vector<double> hi;
  std::vector<uint8_t> lo_strict;
  std::vector<uint8_t> hi_strict;
  std::vector<uint8_t> found;       // per selected row: found_pred
  std::vector<uint32_t> order;      // rows sorted by (lo desc)
  struct CollectedEntry {
    double key;
    const GraphVertex* u;
  };
  std::vector<CollectedEntry> entries;  // all transitions, span-sliced
  std::vector<size_t> spans;            // nt + 1 offsets into entries
  std::vector<EventView> views;         // parallel to entries
  std::vector<uint32_t> filtered;       // per (event, transition) sel
  std::vector<int> tidx;                // per transition: t_idx
  std::vector<AggCell> acc;             // shared/suffix accumulators
  // SIMD lanes over the collected entries (per-event strategy only): dense
  // keys for the vector range re-filter and per-transition prev-side
  // predicate columns.
  std::vector<double> keys;
  std::vector<CompiledEdgeFilter::PrevColumns> prev_cols;
  std::vector<uint8_t> prev_built;      // per transition
  // Predecessor columns (per-event strategy, modular non-partial kernels):
  // slot-major [(window, query) slot][entry], one array per aggregate
  // component. An entry outside a slot's window, or with a zero count
  // there, holds the component's neutral value. `live` counts each entry's
  // nonzero windows (its edges per admitting event).
  std::vector<uint64_t> count;
  std::vector<uint64_t> type_count;
  std::vector<double> sum;
  std::vector<double> min;
  std::vector<double> max;
  std::vector<uint32_t> live;
};

/// Runtime instantiation of one GRETA template for one stream partition
/// (Section 4.2 / Algorithm 2, generalized to occurrence-unique states and
/// per-window aggregate cells). Invalidation by negative sub-patterns
/// arrives through attached NegationLinks (Section 5.2).
///
/// The per-event insert path is compiled once per graph into one of the
/// PropKernel variants (plan_->kernel; src/core/README.md) instead of
/// re-testing AggPlan flags per edge per window per query. There is one row
/// kernel (InsertAtState) and one run kernel (InsertRunFast); partial
/// sharing is the kPartial instantiation of both. Memory
/// accounting is incremental: the pane store charges the shared
/// MemoryTracker at its allocation sites, so inserts never walk cells.
class GretaGraph {
 public:
  /// `pool` (may be null) recycles expired panes across every graph of
  /// one engine; it must share `memory` and outlive the graph. `scratch`
  /// is the engine's run-kernel scratch; it must outlive the graph and be
  /// used by one thread at a time.
  GretaGraph(const GraphPlan* plan, const ExecPlan* exec,
             MemoryTracker* memory, PanePool<GraphVertex>* pool,
             RunScratch* scratch);

  GretaGraph(const GretaGraph&) = delete;
  GretaGraph& operator=(const GretaGraph&) = delete;

  /// Wiring (engine setup): barriers affecting this graph.
  void AttachTransitionLink(int transition_index, NegationLink* link);
  void AttachGraphLink(NegationLink* link);
  void AttachFollowLink(NegationLink* link);
  /// This graph is a negative sub-pattern reporting finished trends.
  void SetOutLink(NegationLink* link) { out_link_ = link; }

  /// Processes one event (all matching states). Events of types outside the
  /// template are ignored. Takes a borrowed view — an owning `Event` or an
  /// `EventBatch` row converts implicitly.
  void Insert(const EventRef& e);

  /// Processes `n` batch rows (given by `rows`, ascending, non-decreasing
  /// timestamps). Equivalent to Insert(batch.ref(rows[i])) in order — rows
  /// are split into equal-timestamp runs and, when the plan qualifies
  /// (skip-till-any-match, no negation), each run goes through an amortized
  /// batch kernel: one window-range division per run, one B+-tree
  /// predecessor collection per (transition, run), and one of three
  /// propagation strategies per (state, run) — a shared fold when every run
  /// event resolves identical key bounds, a suffix-sum merge for
  /// non-uniform pure-lower bounds on order-insensitive aggregates, or a
  /// per-event fold over the collected entries that replays the scalar
  /// kernel's exact operation order (residual predicates, upper bounds,
  /// order-sensitive SUM); under modular counters it folds dense
  /// per-window columns of the entries' cells. Sliding windows, every
  /// PropKernel, and partial sharing are all covered; results are
  /// bit-identical to the scalar path (the equivalence tests assert it).
  ///
  /// When the plan enables SIMD and the process dispatched a vector ISA,
  /// the graph first decomposes its fast-predicate attributes into a
  /// group-dense typed projection over rows[0..n) (lane k = rows[k], so
  /// filter selections are consecutive positions and the kernels take
  /// contiguous loads, not gathers); the state filters, per-event key
  /// re-filters and residual edge filters then run through the dispatched
  /// kernels (common/simd.h) instead of the scalar reference loops.
  /// Results stay bit-identical either way.
  void InsertBatch(const EventBatch& batch, const uint32_t* rows, size_t n);

  /// Why batch rows took the row-wise path (row counts, cumulative).
  enum class BatchFallbackReason : uint8_t {
    kDisabled = 0,   // enable_batch_kernels = false
    kSemantics = 1,  // skip-till-next / contiguous
    kNegation = 2,   // negation links attached to this graph
    kBounds = 3,     // NaN key bound or NaN tree key in a run
  };
  static constexpr size_t kNumBatchFallbackReasons = 4;

  /// Which amortized strategy a (state, run) took (selected-row counts,
  /// cumulative; one row can be counted once per matching state).
  enum class BatchStrategy : uint8_t {
    kSharedFold = 0,   // uniform bounds: one fold shared by the whole run
    kSuffixMerge = 1,  // nested-suffix admission: one add per entry
    kPerEvent = 2,     // per-event fold over the shared collection
  };
  static constexpr size_t kNumBatchStrategies = 3;

  const size_t* batch_fallback_rows() const { return batch_fallback_rows_; }
  const size_t* batch_strategy_rows() const { return batch_strategy_rows_; }

  /// Rows whose (state, run) processing used the dispatched vector kernels
  /// (cumulative; counted like batch_strategy_rows, once per matching
  /// state). Zero under GRETA_SIMD=scalar or enable_simd=false.
  size_t simd_rows() const { return simd_rows_; }

  /// Adds this graph's final aggregate for `wid` into `out` (Theorem 4.3:
  /// the sum over END events). With trailing negation (Case 2) this scans
  /// the surviving END vertices instead of using the incremental result.
  /// `q` selects the query slot under shared multi-query execution.
  void CollectWindow(WindowId wid, AggOutputs* out) {
    CollectWindow(wid, 0, out);
  }
  void CollectWindow(WindowId wid, size_t q, AggOutputs* out);

  /// Collects every query slot in one pass (one barrier computation and one
  /// END-vertex scan total, not per query). `outs` must point at one entry
  /// per query slot; results are accumulated into it.
  void CollectWindowAll(WindowId wid, AggOutputs* outs);

  /// Releases per-window state after the window was emitted.
  void ForgetWindow(WindowId wid);

  /// Batch-deletes panes no future window can reach (Section 7); their
  /// charged bytes are released from the tracker wholesale.
  void Purge(Ts watermark);

  size_t num_vertices() const { return panes_.size(); }
  size_t total_vertices() const { return total_vertices_; }
  size_t edges_traversed() const { return edges_; }

  /// Re-derives the bytes this graph has charged to the MemoryTracker by
  /// walking every pane (accounting invariant tests only).
  size_t RecomputeTrackedBytes() const {
    return panes_.RecomputeApproxBytes();
  }

 private:
  // The row kernel: InsertAtState specialized on plan_->kernel and on the
  // dominant single-query layout (kSingleQuery folds the per-slot loop and
  // the cell-stride arithmetic away). Every structural decision is
  // identical across instantiations — only the aggregate ops differ — so
  // results are bit-identical by construction. Partial sharing
  // (kPartial) walks the merged template the same way; negation, pruning
  // and the restricted semantics never reach it (the planner rejects them
  // for partial clusters).
  template <PropKernel K, bool kSingleQuery>
  bool InsertAtState(const EventRef& e, StateId s);

  // Points insert_fn_ (and insert_run_fn_, when batch_plan_ok_) at the
  // kernel-K instantiations.
  template <PropKernel K>
  void BindKernels();

  // What one transition's edges move under kPartial, resolved once per
  // transition (EdgeFoldFor) so the per-edge fold reads locals; empty for
  // the other kernels. agg == null marks a core-internal edge.
  struct EdgeFold {
    const AggPlan* folds = nullptr;  // core edge: the fold slots' plans
    size_t num_folds = 0;
    CounterMode mode = CounterMode::kExact;  // core edge: snapshot mode
    const AggPlan* agg = nullptr;  // query-owned edge: the owner's plan
    int fold = -1;                 // hand-off: the owner's fold slot
    bool hand_off = false;         // query-owned edge leaving the core
  };
  template <PropKernel K>
  EdgeFold EdgeFoldFor(int t_idx) const;

  // The three kernel-switched steps both kernels share. FoldEdge adds one
  // predecessor row `urow` (one window of u, read through u's own stride)
  // into the `nq` cells `dst` along a transition described by `ef`; under
  // kPartial a core edge moves the snapshot count plus one fold per
  // aggregate target, a hand-off folds the snapshot into the owner's
  // continuation cell, and a continuation edge moves the owner's full
  // cell. FinishRow applies a new vertex's own contribution to one window
  // row. AccumulateEndRow adds END vertex `v` into the incremental results
  // through run_outs_ (sized to v's windows and cleared by the caller);
  // under kPartial it serves every query whose END is v's state, trimmed to
  // the query's own WITHIN.
  template <PropKernel K>
  void FoldEdge(const AggCell* urow, AggCell* dst, int nq,
                const EdgeFold& ef) const;
  template <PropKernel K>
  void FinishRow(AggCell* row, int nq, const EventRef& e, StateId s,
                 bool is_start) const;
  template <PropKernel K>
  void AccumulateEndRow(const GraphVertex& v, int nq);

  // Window ids [first, last] an event at `t` falls into at state `s`.
  void WindowRange(StateId s, Ts t, WindowId* first, WindowId* last) const;

  // Moves `src_cells` (k*stride scratch cells) and the stored attribute
  // prefix of `e` into the arena of the pane covering e.time and inserts
  // the assembled vertex.
  GraphVertex* StoreVertex(const EventRef& e, StateId s, WindowId first_wid,
                           int k, int stride, AggCell* src_cells);

  // Batch fast path: true when every structural precondition holds for this
  // call (the plan-level part is precomputed in the constructor; negation
  // links attach after construction, so they are tested per call).
  bool BatchFastPathEligible() const {
    return batch_plan_ok_ && !has_negation_links_ && graph_links_.empty() &&
           follow_links_.empty() && out_link_ == nullptr;
  }

  // The run kernel: one equal-timestamp run of batch rows through the
  // amortized kernel family, instantiated per PropKernel like the row
  // kernel. Strategy is chosen per (state, run) from the resolved key
  // bounds and the plan's residual predicates (kPartial never takes the
  // suffix merge); NaN bounds/keys fall back to the row kernel per (state,
  // run), which is correct at that granularity because same-timestamp
  // insertions commute under skip-till-any-match.
  template <PropKernel K>
  void InsertRunFast(const EventBatch& batch, const uint32_t* rows, size_t n,
                     Ts ts);

  // Collects one predecessor-entry span per transition for a run: the
  // weakest bounds over the run's events, entries in pane-major ascending
  // key order (the scalar scan's order). Returns false when a NaN tree key
  // was seen — per-pane positional scans and value-based re-filtering only
  // agree on real keys, so such runs take the row kernel. `lo_time` is
  // the scan floor; spans are recorded in scratch_->spans (nt + 1 offsets)
  // and entry views (for residual evaluation) in scratch_->views.
  bool CollectRunEntries(const std::vector<StateId>& pred_states, Ts lo_time,
                         Ts ts, size_t m, bool lower_only, WindowId first_wid,
                         WindowId last_wid);

  // The per-event strategy's columnar fold (modular counters, K =
  // kCountModular or kGeneric): BuildRunColumns fills scratch_'s
  // predecessor columns over the collected entries for the run's
  // `slots` = k * nq (window, query) slots; FoldRunColumns adds the `n`
  // entries `idx` (collection order) into the `slots` cells `vrow`. Each
  // accumulator receives the same adds in the same order as FoldEdge over
  // the same entries: a neutral entry leaves its bits unchanged, since a
  // SUM accumulator starts at +0.0 and can never become -0.0. Returns the
  // edges the fold stands for.
  template <PropKernel K>
  void BuildRunColumns(WindowId first_wid, WindowId last_wid, int nq);
  template <PropKernel K>
  size_t FoldRunColumns(const uint32_t* idx, size_t n, AggCell* vrow,
                        size_t slots, int nq) const;

  // Aggregate plan of query slot `q` (plans predating the multi-query
  // extension may leave GraphPlan::aggs empty; they have exactly one slot).
  const AggPlan& AggAt(size_t q) const {
    return plan_->aggs.empty() ? plan_->agg : plan_->aggs[q];
  }

  Ts TransitionBarrier(int transition_index, WindowId wid, Ts now);

  const GraphPlan* plan_;
  const ExecPlan* exec_;
  const PartialSharingPlan* partial_;  // exec_->partial, or null
  int num_queries_;  // query slots: plan_->aggs.size()
  PaneStore<GraphVertex> panes_;
  bool (GretaGraph::*insert_fn_)(const EventRef&, StateId);  // dispatch
  // Batch run-kernel dispatch, resolved alongside insert_fn_ (null when the
  // plan is ineligible).
  void (GretaGraph::*insert_run_fn_)(const EventBatch&, const uint32_t*,
                                     size_t, Ts) = nullptr;
  // Cells of the vertex being built: filled during the predecessor scan,
  // moved into the pane arena only if the vertex is actually inserted (so
  // rejected events never consume arena space). Reused across inserts.
  std::vector<AggCell> scratch_cells_;
  // Incremental final aggregates per open window: a ring indexed by
  // window id (size a power of two above the windows one event spans).
  // The engine forgets windows in ascending order, so a slot whose window
  // is at or below forgotten_ is free: that window is never collected
  // again (an event after Flush() can still write to a window Flush
  // closed; those rows were always dropped). The open windows — those
  // above forgotten_ that hold results — lie within one event's window
  // range, so no two of them share a slot. Slots and their num_queries_
  // outputs are reused window after window.
  struct ResultSlot {
    WindowId wid = -1;
    std::vector<AggOutputs> outs;
  };
  std::vector<ResultSlot> results_;
  WindowId forgotten_ = -1;  // highest window passed to ForgetWindow
  std::vector<std::vector<NegationLink*>> transition_links_;
  std::vector<NegationLink*> graph_links_;   // Case 2: all transitions
  std::vector<NegationLink*> follow_links_;  // Case 3
  NegationLink* out_link_ = nullptr;
  SeqNo last_seen_seq_ = kMinSeq;  // contiguous semantics
  size_t edges_ = 0;
  size_t total_vertices_ = 0;
  bool single_window_;  // enables eager invalid-event pruning
  // Per-state cell layout (constructor): the window a vertex spans, its
  // cells per window, and whether inserting there feeds final results.
  struct StateLayout {
    const WindowSpec* window = nullptr;
    bool tumbling = false;  // within == slide: window ids need one division
    int stride = 1;
    bool is_end = false;  // END of the pattern (partial: of any query)
  };
  std::vector<StateLayout> layout_;
  // Plan-level batch fast-path eligibility (constructor; see
  // BatchFastPathEligible) and whether any AttachTransitionLink happened.
  bool batch_plan_ok_ = false;
  bool has_negation_links_ = false;
  // Per-state compiled local-predicate filters and per-transition compiled
  // residual edge filters (built only when the plan qualifies for the batch
  // fast path).
  std::vector<CompiledVertexFilter> state_filters_;
  std::vector<CompiledEdgeFilter> edge_filters_;  // indexed by transition
  // Any query slot folds an order-sensitive double SUM (resolved once; the
  // suffix merge re-associates additions and is only valid without it).
  bool any_sum_ = false;
  // Every query slot counts mod 2^64 and needs no barrier aux: the per-event
  // strategy folds predecessor columns (kGeneric; kCountModular always
  // does). Plus which attribute components any slot folds.
  bool modular_columns_ = false;
  bool any_type_count_ = false;
  bool any_min_ = false;
  bool any_max_ = false;
  // Batch observability (plain members like edges_; the engine flushes
  // deltas into telemetry at window close and sums them into EngineStats).
  size_t batch_fallback_rows_[kNumBatchFallbackReasons] = {0, 0, 0, 0};
  size_t batch_strategy_rows_[kNumBatchStrategies] = {0, 0, 0};
  size_t simd_rows_ = 0;
  // Minimum kernel-pass reads of a column (fast-pred uses across every
  // state) before the graph projects it; see the constructor's policy note.
  static constexpr size_t kMinProjectedAttrUses = 3;
  std::vector<AttrId> proj_attrs_;  // fast attrs passing the use threshold
  // Whether the vector kernels are live for this InsertBatch call
  // (enable_simd plan knob AND a non-scalar dispatched ISA — re-tested per
  // call so ForceIsa/ablation flips take effect immediately).
  bool batch_simd_ = false;
  RunScratch* scratch_;  // the engine's; see RunScratch
  // Per window result outputs of the current END insert or run (pointers
  // into ResultSlot::outs).
  std::vector<AggOutputs*> run_outs_;

  size_t ResultIndex(WindowId wid) const {
    return static_cast<size_t>(wid) & (results_.size() - 1);
  }
  AggOutputs* ResultsFor(WindowId wid) {
    ResultSlot* slot = &results_[ResultIndex(wid)];
    if (slot->wid != wid) {
      GRETA_CHECK(slot->wid <= forgotten_);  // never evict an open window
      if (slot->wid >= 0) ClearSlot(slot);  // stale: written after Flush
      slot->wid = wid;
      if (slot->outs.empty()) slot->outs.resize(num_queries_);
    }
    return slot->outs.data();
  }
  const ResultSlot* FindResults(WindowId wid) const {
    const ResultSlot& slot = results_[ResultIndex(wid)];
    return slot.wid == wid ? &slot : nullptr;
  }
  static void ClearSlot(ResultSlot* slot) {
    slot->wid = -1;
    for (AggOutputs& out : slot->outs) out = AggOutputs();
  }
};

}  // namespace greta

#endif  // GRETA_CORE_GRETA_GRAPH_H_
