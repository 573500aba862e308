#include "core/greta_graph.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <new>
#include <numeric>

#include "common/simd.h"
#include "storage/window.h"

namespace greta {

GretaGraph::GretaGraph(const GraphPlan* plan, const ExecPlan* exec,
                       MemoryTracker* memory, PanePool<GraphVertex>* pool,
                       RunScratch* scratch)
    : plan_(plan),
      exec_(exec),
      partial_(exec->partial.has_value() ? &*exec->partial : nullptr),
      num_queries_(plan->aggs.empty() ? 1
                                      : static_cast<int>(plan->aggs.size())),
      panes_(PaneSize(exec->window), plan->templ.num_states(), memory, pool),
      single_window_(MaxWindowsPerEvent(exec->window) == 1),
      scratch_(scratch) {
  transition_links_.resize(plan_->templ.transitions().size());
  size_t ring = 1;
  while (ring < static_cast<size_t>(MaxWindowsPerEvent(exec_->window)) + 1) {
    ring *= 2;
  }
  results_.resize(ring);
  // Per-state cell layout. Ordinary plans: the exec window and one cell per
  // query slot everywhere. Partial sharing: core vertices span the union
  // window with core_stride() fold-slot cells; a continuation vertex spans
  // its owner's own window (same slide, so the same window-id grid — the
  // per-query WITHIN only trims the front of the range) with one cell.
  layout_.resize(plan_->states.size());
  for (size_t s = 0; s < layout_.size(); ++s) {
    StateLayout& l = layout_[s];
    const int owner = partial_ != nullptr ? partial_->state_owner[s] : -1;
    l.window = owner < 0 ? &exec_->window : &partial_->windows[owner];
    l.tumbling =
        !l.window->unbounded() && l.window->within == l.window->slide;
    if (partial_ == nullptr) {
      l.stride = num_queries_;
      l.is_end = plan_->templ.IsEnd(static_cast<StateId>(s));
    } else {
      l.stride = owner < 0 ? static_cast<int>(partial_->core_stride()) : 1;
      for (StateId end : partial_->end_states) {
        l.is_end |= end == static_cast<StateId>(s);
      }
    }
  }

  // Plan-level batch fast-path eligibility (the link-dependent half lives in
  // BatchFastPathEligible, since negation links attach after construction).
  // The amortized kernel family relies only on the frozen-predecessor-set
  // property of strict trend order under skip-till-any-match — sliding
  // windows, every PropKernel and residual predicates are all handled by
  // strategy selection inside the run kernel (the planner already restricts
  // partial clusters to skip-till-any-match).
  batch_plan_ok_ = exec_->enable_batch_kernels &&
                   exec_->semantics == Semantics::kSkipTillAnyMatch;
  modular_columns_ = partial_ == nullptr;
  for (size_t q = 0; q < static_cast<size_t>(num_queries_); ++q) {
    const AggPlan& agg = AggAt(q);
    any_sum_ |= agg.need_sum;
    any_type_count_ |= agg.need_type_count;
    any_min_ |= agg.need_min;
    any_max_ |= agg.need_max;
    modular_columns_ &=
        agg.mode == CounterMode::kModular && !agg.need_max_start;
  }
  if (batch_plan_ok_) {
    state_filters_.reserve(plan_->states.size());
    std::vector<AttrId> fast_uses;
    for (const StatePlan& sp : plan_->states) {
      state_filters_.emplace_back(sp.local_preds);
      state_filters_.back().AppendFastAttrUses(&fast_uses);
    }
    // Cost-based projection policy: decomposing a column costs one pass
    // over every group row, so it only pays when enough filter kernel
    // passes read it back (several predicates on the attr, or several
    // states of the same type re-filtering the same rows). Attrs below the
    // threshold keep the compiled scalar loops, which read the tagged
    // union in place for free.
    for (AttrId a : fast_uses) {
      size_t uses = 0;
      for (AttrId b : fast_uses) uses += b == a ? 1 : 0;
      bool seen = false;
      for (AttrId b : proj_attrs_) seen = seen || b == a;
      if (uses >= kMinProjectedAttrUses && !seen) proj_attrs_.push_back(a);
    }
    edge_filters_.reserve(plan_->transitions.size());
    for (const TransitionPlan& tp : plan_->transitions) {
      edge_filters_.emplace_back(tp.residual_preds);
    }
  }

  // Kernel dispatch: resolved once per graph, not branch-tested per edge.
  switch (plan_->kernel) {
    case PropKernel::kCountModular:
      BindKernels<PropKernel::kCountModular>();
      break;
    case PropKernel::kCountExact:
      BindKernels<PropKernel::kCountExact>();
      break;
    case PropKernel::kGeneric:
      BindKernels<PropKernel::kGeneric>();
      break;
    case PropKernel::kPartial:
      BindKernels<PropKernel::kPartial>();
      break;
  }
}

template <PropKernel K>
void GretaGraph::BindKernels() {
  if constexpr (K == PropKernel::kPartial) {
    // Strides differ between core and continuation states.
    insert_fn_ = &GretaGraph::InsertAtState<K, false>;
  } else {
    insert_fn_ = num_queries_ == 1 ? &GretaGraph::InsertAtState<K, true>
                                   : &GretaGraph::InsertAtState<K, false>;
  }
  if (batch_plan_ok_) insert_run_fn_ = &GretaGraph::InsertRunFast<K>;
}

void GretaGraph::WindowRange(StateId s, Ts t, WindowId* first,
                             WindowId* last) const {
  const StateLayout& l = layout_[s];
  *last = LastWindowOf(t, *l.window);
  // Tumbling window: one id, one division.
  *first = l.tumbling ? *last : FirstWindowOf(t, *l.window);
}

void GretaGraph::AttachTransitionLink(int transition_index,
                                      NegationLink* link) {
  GRETA_CHECK(transition_index >= 0 &&
              static_cast<size_t>(transition_index) <
                  transition_links_.size());
  transition_links_[transition_index].push_back(link);
  has_negation_links_ = true;
}

void GretaGraph::AttachGraphLink(NegationLink* link) {
  graph_links_.push_back(link);
}

void GretaGraph::AttachFollowLink(NegationLink* link) {
  follow_links_.push_back(link);
}

Ts GretaGraph::TransitionBarrier(int transition_index, WindowId wid, Ts now) {
  Ts barrier = kMinTs;
  for (NegationLink* link : transition_links_[transition_index]) {
    barrier = std::max(barrier, link->MaxStartBarrier(wid, now));
  }
  for (NegationLink* link : graph_links_) {
    barrier = std::max(barrier, link->MaxStartBarrier(wid, now));
  }
  return barrier;
}

void GretaGraph::Insert(const EventRef& e) {
  const std::vector<StateId>& states = plan_->templ.states_for_type(e.type);
  if (states.empty()) return;
  bool seen = false;
  for (StateId s : states) {
    seen |= (this->*insert_fn_)(e, s);
  }
  // Contiguous semantics: remember the newest event this graph has seen
  // (events failing vertex predicates "cannot be matched" and are skipped
  // under every semantics).
  if (seen) last_seen_seq_ = e.seq;
}

GraphVertex* GretaGraph::StoreVertex(const EventRef& e, StateId s,
                                     WindowId first_wid, int k, int stride,
                                     AggCell* src_cells) {
  const StatePlan& sp = plan_->states[s];
  const int total = k * stride;

  // Move the finished source cells and the stored attribute prefix into
  // the arena of the pane that will own the vertex, then insert. The
  // following Insert() into the same pane picks up the arena growth for
  // incremental accounting.
  Arena* arena = panes_.ArenaFor(e.time);
  AggCell* cells = arena->AllocateArray<AggCell>(total);
  for (int i = 0; i < total; ++i) {
    new (&cells[i]) AggCell(std::move(src_cells[i]));
  }
  uint16_t num_attrs = sp.stored_attr_count;
  GRETA_DCHECK(num_attrs <= e.num_attrs);
  if (num_attrs > e.num_attrs) {
    num_attrs = static_cast<uint16_t>(e.num_attrs);
  }
  const Value* attrs = nullptr;
  if (num_attrs > 0) {
    Value* copy = arena->AllocateArray<Value>(num_attrs);
    std::copy_n(e.attrs, num_attrs, copy);
    attrs = copy;
  }

  GraphVertex v;
  v.time = e.time;
  v.seq = e.seq;
  v.cells = cells;
  v.attrs = attrs;
  v.first_wid = first_wid;
  v.state = s;
  v.num_cells = total;
  v.num_wids = static_cast<int16_t>(k);
  v.stride = static_cast<int16_t>(stride);
  v.num_attrs = num_attrs;

  double key = (sp.sort_attr == kInvalidAttr)
                   ? static_cast<double>(e.time)
                   : e.attr(sp.sort_attr).ToDouble();
  GraphVertex* stored =
      panes_.Insert(e.time, static_cast<size_t>(s), key, std::move(v));
  ++total_vertices_;
  return stored;
}

namespace {

// The COUNT(*)-only kernels fold bare Counters in a compile-time mode.
template <PropKernel K>
constexpr bool kIsCountKernel =
    K == PropKernel::kCountModular || K == PropKernel::kCountExact;
template <PropKernel K>
constexpr CounterMode kCountMode = K == PropKernel::kCountModular
                                       ? CounterMode::kModular
                                       : CounterMode::kExact;

}  // namespace

template <PropKernel K>
inline GretaGraph::EdgeFold GretaGraph::EdgeFoldFor(int t_idx) const {
  EdgeFold ef;
  if constexpr (K == PropKernel::kPartial) {
    const int owner = partial_->transition_owner[t_idx];
    if (owner < 0) {
      ef.folds = partial_->fold_plans.data();
      ef.num_folds = partial_->fold_plans.size();
      ef.mode = exec_->mode;
    } else {
      ef.agg = &AggAt(static_cast<size_t>(owner));
      ef.hand_off =
          partial_->state_owner[plan_->templ.transitions()[t_idx].from] < 0;
      ef.fold = partial_->fold_slots[owner];
    }
  }
  return ef;
}

template <PropKernel K>
inline void GretaGraph::FoldEdge(const AggCell* urow, AggCell* dst, int nq,
                                 const EdgeFold& ef) const {
  if constexpr (kIsCountKernel<K>) {
    // COUNT(*)-only: a tight u64 add over the contiguous (window, query)
    // cell span — no flag tests; promotion checks only in exact mode.
    for (int q = 0; q < nq; ++q) dst[q].count.Add(urow[q].count, kCountMode<K>);
  } else if constexpr (K == PropKernel::kGeneric) {
    for (int q = 0; q < nq; ++q) dst[q].AddPredecessor(urow[q], AggAt(q));
  } else {
    if (ef.agg == nullptr) {
      // Core-internal edge: ONE snapshot propagation (the structural count
      // every query reads), plus one fold per aggregate target.
      dst[0].count.Add(urow[0].count, ef.mode);
      for (size_t f = 0; f < ef.num_folds; ++f) {
        dst[f].AddPredecessorFold(urow[f], ef.folds[f]);
      }
    } else if (ef.hand_off) {
      // Hand-off: fold the shared snapshot into the owner's continuation.
      dst[0].count.Add(urow[0].count, ef.agg->mode);
      if (ef.fold >= 0) dst[0].AddPredecessorFold(urow[ef.fold], *ef.agg);
    } else {
      // Continuation-internal edge: the owner's full cell.
      dst[0].AddPredecessor(urow[0], *ef.agg);
    }
  }
}

template <PropKernel K>
inline void GretaGraph::FinishRow(AggCell* row, int nq, const EventRef& e,
                                  StateId s, bool is_start) const {
  if (!row->active) return;  // Case-3 negation closed this window.
  if constexpr (kIsCountKernel<K>) {
    if (is_start) {
      for (int q = 0; q < nq; ++q) row[q].count.AddOne(kCountMode<K>);
    }
  } else if constexpr (K == PropKernel::kGeneric) {
    for (int q = 0; q < nq; ++q) row[q].FinishVertex(e, is_start, AggAt(q));
  } else {
    const int owner = partial_->state_owner[s];
    if (owner >= 0) {
      row[0].FinishVertex(e, is_start, AggAt(static_cast<size_t>(owner)));
      return;
    }
    if (is_start) row[0].count.AddOne(exec_->mode);
    for (size_t f = 0; f < partial_->fold_plans.size(); ++f) {
      row[f].FinishVertexFold(e, row[0].count, partial_->fold_plans[f]);
    }
  }
}

template <PropKernel K>
inline void GretaGraph::AccumulateEndRow(const GraphVertex& v, int nq) {
  auto out_at = [&](int c) -> AggOutputs* {
    if (run_outs_[c] == nullptr) run_outs_[c] = ResultsFor(v.first_wid + c);
    return run_outs_[c];
  };
  if constexpr (K != PropKernel::kPartial) {
    for (int c = 0; c < v.num_wids; ++c) {
      const AggCell* row = v.cells + static_cast<size_t>(c) * nq;
      if (!row->active || row->count.IsZero()) continue;
      AggOutputs* out = out_at(c);
      for (int q = 0; q < nq; ++q) {
        if constexpr (kIsCountKernel<K>) {
          out[q].count.Add(row[q].count, kCountMode<K>);
          out[q].any = true;
        } else {
          out[q].AccumulateEnd(row[q], AggAt(q));
        }
      }
    }
  } else {
    // Every query whose END is this state, each over its own window range.
    const PartialSharingPlan& partial = *partial_;
    const bool core = partial.state_owner[v.state] < 0;
    for (size_t q = 0; q < partial.end_states.size(); ++q) {
      if (partial.end_states[q] != v.state) continue;
      const AggPlan& qagg = AggAt(q);
      if (!core) {
        for (int c = 0; c < v.num_wids; ++c) {
          if (v.cells[c].count.IsZero()) continue;
          out_at(c)[q].AccumulateEnd(v.cells[c], qagg);
        }
        continue;
      }
      // Core END (the query's whole pattern is the shared core): only the
      // windows live under q's own WITHIN read the snapshot.
      const int fold = partial.fold_slots[q];
      const WindowId q_first = FirstWindowOf(v.time, partial.windows[q]);
      const int c_first =
          static_cast<int>(std::max<WindowId>(q_first - v.first_wid, 0));
      for (int c = c_first; c < v.num_wids; ++c) {
        const AggCell* snap = v.cells + static_cast<size_t>(c) * nq;
        if (snap->count.IsZero()) continue;
        out_at(c)[q].AccumulateEndShared(
            snap->count, fold >= 0 ? snap + fold : nullptr, qagg);
      }
    }
  }
}

template <PropKernel K, bool kSingleQuery>
bool GretaGraph::InsertAtState(const EventRef& e, StateId s) {
  const StatePlan& sp = plan_->states[s];
  for (const Expr* pred : sp.local_preds) {
    if (!pred->EvalVertex(e).Truthy()) return false;
  }

  const WindowSpec& window = *layout_[s].window;
  WindowId first_wid, last_wid;
  WindowRange(s, e.time, &first_wid, &last_wid);
  int k = static_cast<int>(last_wid - first_wid + 1);
  GRETA_DCHECK(k >= 1 && k <= 64);

  const int nq = kSingleQuery ? 1 : layout_[s].stride;
  GRETA_DCHECK(nq == layout_[s].stride);
  scratch_cells_.assign(static_cast<size_t>(k) * nq, AggCell());
  AggCell* const cells = scratch_cells_.data();
  auto vcell = [&](WindowId wid) { return cells + (wid - first_wid) * nq; };

  // Case-3 negation: windows in which a leading negative sub-pattern has
  // already finished reject new following-state events entirely. Activity is
  // a property of the pattern, so it is shared by every query slot.
  bool any_active = false;
  for (int i = 0; i < k; ++i) {
    WindowId wid = first_wid + i;
    bool active = true;
    for (NegationLink* link : follow_links_) {
      if (link->foll_state() != s) continue;
      if (link->MinEndBarrier(wid, e.time) < e.time) {
        active = false;
        break;
      }
    }
    for (int q = 0; q < nq; ++q) {
      cells[static_cast<size_t>(i) * nq + q].active = active;
    }
    any_active |= active;
  }
  if (!any_active) return true;

  // kPartial plans are skip-till-any-match without negation (the planner
  // rejects the rest), so that instantiation compiles the semantics,
  // barrier, pruning and Case-3 tests out of the predecessor scan.
  constexpr bool kAnyMatchOnly = K == PropKernel::kPartial;
  // Follow links are the only source of inactive cells. Without them the
  // predecessor test below skips the flag, which sits on the second cache
  // line of an AggCell.
  const bool check_active = !kAnyMatchOnly && !follow_links_.empty();
  const bool skip_till_next =
      !kAnyMatchOnly && exec_->semantics == Semantics::kSkipTillNextMatch;
  const bool contiguous =
      !kAnyMatchOnly && exec_->semantics == Semantics::kContiguous;

  bool is_start = plan_->templ.IsStart(s);
  bool found_pred = false;

  for (StateId p : plan_->templ.pred_states(s)) {
    int t_idx = plan_->templ.FindTransition(p, s);
    GRETA_DCHECK(t_idx >= 0);
    const TransitionPlan& tp = plan_->transitions[t_idx];

    // Negation barriers per shared window (Cases 1 and 2).
    const bool has_barriers =
        !kAnyMatchOnly &&
        (!transition_links_[t_idx].empty() || !graph_links_.empty());
    std::vector<Ts> barrier;
    if (has_barriers) {
      barrier.resize(k);
      for (int i = 0; i < k; ++i) {
        barrier[i] = TransitionBarrier(t_idx, first_wid + i, e.time);
      }
    }

    // Key range on the predecessor tree from the sort-key predicates.
    KeyBounds bounds = CombineTransitionBounds(tp, e);
    const EdgeFold ef = EdgeFoldFor<K>(t_idx);

    Ts lo_time = WindowStartTime(first_wid, window);
    const bool can_prune = exec_->enable_pruning && single_window_ &&
                           has_barriers &&
                           plan_->templ.succ_states(p).size() == 1;

    panes_.ScanBucket(lo_time, e.time, static_cast<size_t>(p), bounds,
                      [&](GraphVertex* u) {
      if (!kAnyMatchOnly && u->dead) return;
      if (u->time >= e.time) return;  // Strict trend order (Def. 1).
      if (contiguous && u->seq != last_seen_seq_) return;
      if (skip_till_next && ((u->used_transitions >> t_idx) & 1)) return;
      // Residual edge predicates (those not enforced by the key range).
      for (const Expr* pred : tp.residual_preds) {
        if (!pred->EvalEdge(u->view(), e).Truthy()) return;
      }
      WindowId lo_w = std::max(first_wid, u->first_wid);
      WindowId hi_w =
          std::min(last_wid, u->first_wid + WindowId{u->num_wids} - 1);
      if (lo_w > hi_w) return;
      bool contributed = false;
      bool barred_everywhere = has_barriers;
      // The predecessor's own stride: a partial core vertex feeding a
      // continuation state keeps more cells per window than the new vertex
      // (a compile-time 1 in the kSingleQuery instantiations).
      const int ustride = kSingleQuery ? 1 : u->stride;
      for (WindowId w = lo_w; w <= hi_w; ++w) {
        // Connectivity (active, count, barriers) is per (vertex, window) and
        // identical across query slots — only the propagated aggregates
        // differ, so the per-query loop sits inside the structural checks.
        const AggCell* urow = u->cells + (w - u->first_wid) * ustride;
        AggCell* vrow = vcell(w);
        if ((check_active && (!urow->active || !vrow->active)) ||
            urow->count.IsZero()) {
          barred_everywhere = false;
          continue;
        }
        if (has_barriers && u->time < barrier[w - first_wid]) continue;
        FoldEdge<K>(urow, vrow, nq, ef);
        contributed = true;
        barred_everywhere = false;
        ++edges_;
      }
      if (contributed) {
        found_pred = true;
        if (skip_till_next) u->used_transitions |= uint64_t{1} << t_idx;
      } else if (barred_everywhere && can_prune && lo_w == u->first_wid &&
                 hi_w == u->first_wid + u->num_wids - 1) {
        // Invalid event pruning (Theorem 5.1): u can only ever connect via
        // this transition and is invalid in all its windows.
        u->dead = true;
      }
    });
  }

  if (!is_start && !found_pred) return true;  // Not inserted (Algorithm 2).

  for (int i = 0; i < k; ++i) {
    FinishRow<K>(cells + static_cast<size_t>(i) * nq, nq, e, s, is_start);
  }

  GraphVertex* stored =
      StoreVertex(e, s, first_wid, k, nq, scratch_cells_.data());

  if (layout_[s].is_end) {
    if (graph_links_.empty()) {
      // Incremental final aggregates (run_outs_ is free here: the batch
      // kernels fall back to this path only before they fill it).
      run_outs_.assign(static_cast<size_t>(k), nullptr);
      AccumulateEndRow<K>(*stored, nq);
    }
    if (out_link_ != nullptr) {
      for (int i = 0; i < k; ++i) {
        const AggCell* row = stored->cells + static_cast<size_t>(i) * nq;
        if (!row->active || row->count.IsZero()) continue;
        out_link_->ReportTrendEnd(first_wid + i, e.time, row->max_start);
      }
    }
  }
  return true;
}

void GretaGraph::InsertBatch(const EventBatch& batch, const uint32_t* rows,
                             size_t n) {
  if (n == 0) return;
  batch_simd_ =
      exec_->enable_simd && simd::DispatchedIsa() != simd::Isa::kScalar;
  if (!BatchFastPathEligible()) {
    const BatchFallbackReason reason =
        !exec_->enable_batch_kernels ? BatchFallbackReason::kDisabled
        : exec_->semantics != Semantics::kSkipTillAnyMatch
            ? BatchFallbackReason::kSemantics
            : BatchFallbackReason::kNegation;
    batch_fallback_rows_[static_cast<size_t>(reason)] += n;
    for (size_t i = 0; i < n; ++i) Insert(batch.ref(rows[i]));
    return;
  }
  RunScratch& rs = *scratch_;
  // Decompose this group's fast-predicate attrs once, group-dense: lane k
  // holds batch row rows[k], so the per-run selections below are runs of
  // consecutive positions and the filter kernels load contiguously instead
  // of gathering partition-strided batch rows.
  rs.group_proj_ready = batch_simd_ && !proj_attrs_.empty();
  if (rs.group_proj_ready) {
    rs.group_proj.ProjectRows(batch, proj_attrs_, rows, n);
  }
  rs.group_rows = rows;
  // Split into equal-timestamp runs: within a run the strict trend order
  // (Def. 1, u.time < e.time) makes the predecessor set identical for every
  // event, so the run shares one collection and one window-id range.
  size_t i = 0;
  while (i < n) {
    Ts ts = batch.time(rows[i]);
    size_t j = i + 1;
    while (j < n && batch.time(rows[j]) == ts) ++j;
    rs.base = i;
    (this->*insert_run_fn_)(batch, rows + i, j - i, ts);
    i = j;
  }
}

bool GretaGraph::CollectRunEntries(const std::vector<StateId>& pred_states,
                                   Ts lo_time, Ts ts, size_t m,
                                   bool lower_only, WindowId first_wid,
                                   WindowId last_wid) {
  RunScratch& rs = *scratch_;
  const size_t nt = pred_states.size();
  rs.entries.clear();
  rs.spans.assign(1, 0);
  bool nan_key = false;
  for (size_t t = 0; t < nt; ++t) {
    // The weakest per-event bounds over the run: the minimum lo / maximum hi,
    // preferring non-strict at ties, so the collection is a superset of every
    // event's own scan. Entries outside the run's window range or zero in
    // every shared window can never contribute to any run event and are
    // dropped here once instead of re-tested per event.
    const double* lo_col = rs.lo.data() + t * m;
    const uint8_t* lo_strict_col = rs.lo_strict.data() + t * m;
    KeyBounds collect;
    collect.lo = lo_col[0];
    collect.lo_strict = lo_strict_col[0] != 0;
    for (size_t i = 1; i < m; ++i) {
      if (lo_col[i] < collect.lo ||
          (lo_col[i] == collect.lo && !lo_strict_col[i])) {
        collect.lo = lo_col[i];
        collect.lo_strict = lo_strict_col[i] != 0;
      }
    }
    if (!lower_only) {
      const double* hi_col = rs.hi.data() + t * m;
      const uint8_t* hi_strict_col = rs.hi_strict.data() + t * m;
      collect.hi = hi_col[0];
      collect.hi_strict = hi_strict_col[0] != 0;
      for (size_t i = 1; i < m; ++i) {
        if (hi_col[i] > collect.hi ||
            (hi_col[i] == collect.hi && !hi_strict_col[i])) {
          collect.hi = hi_col[i];
          collect.hi_strict = hi_strict_col[i] != 0;
        }
      }
    }
    panes_.ScanBucketWithKey(
        lo_time, ts, static_cast<size_t>(pred_states[t]), collect,
        [&](double key, GraphVertex* u) {
          if (u->dead) return;
          if (u->time >= ts) return;  // Strict trend order (Def. 1).
          if (std::isnan(key)) {
            nan_key = true;
            return;
          }
          WindowId lo_w = std::max(first_wid, u->first_wid);
          WindowId hi_w =
              std::min(last_wid, u->first_wid + WindowId{u->num_wids} - 1);
          if (lo_w > hi_w) return;
          bool live = false;
          for (WindowId w = lo_w; w <= hi_w && !live; ++w) {
            live = !u->cell(w)->count.IsZero();
          }
          if (!live) return;
          rs.entries.push_back({key, u});
        });
    rs.spans.push_back(rs.entries.size());
  }
  if (nan_key) return false;
  rs.views.resize(rs.entries.size());
  for (size_t i = 0; i < rs.entries.size(); ++i) {
    rs.views[i] = rs.entries[i].u->view();
  }
  return true;
}

template <PropKernel K>
void GretaGraph::BuildRunColumns(WindowId first_wid, WindowId last_wid,
                                 int nq) {
  RunScratch& rs = *scratch_;
  const size_t rows = rs.entries.size();
  const size_t slots = static_cast<size_t>(last_wid - first_wid + 1) * nq;
  const size_t total = slots * rows;
  rs.count.assign(total, 0);
  if constexpr (K == PropKernel::kGeneric) {
    if (any_type_count_) rs.type_count.assign(total, 0);
    if (any_sum_) rs.sum.assign(total, 0.0);
    if (any_min_) rs.min.assign(total, kAggInf);
    if (any_max_) rs.max.assign(total, -kAggInf);
  }
  rs.live.resize(rows);
  for (size_t j = 0; j < rows; ++j) {
    const GraphVertex* u = rs.entries[j].u;
    const WindowId lo_w = std::max(first_wid, u->first_wid);
    const WindowId hi_w =
        std::min(last_wid, u->first_wid + WindowId{u->num_wids} - 1);
    uint32_t live = 0;
    for (WindowId w = lo_w; w <= hi_w; ++w) {
      const AggCell* urow = u->cells + (w - u->first_wid) * u->stride;
      if (urow->count.IsZero()) continue;
      ++live;
      size_t at = static_cast<size_t>(w - first_wid) * nq * rows + j;
      for (int q = 0; q < nq; ++q, at += rows) {
        rs.count[at] = urow[q].count.ModularValue();
        if constexpr (K == PropKernel::kGeneric) {
          if (any_type_count_) {
            rs.type_count[at] = urow[q].type_count.ModularValue();
          }
          if (any_sum_) rs.sum[at] = urow[q].sum;
          if (any_min_) rs.min[at] = urow[q].min;
          if (any_max_) rs.max[at] = urow[q].max;
        }
      }
    }
    rs.live[j] = live;
  }
}

template <PropKernel K>
size_t GretaGraph::FoldRunColumns(const uint32_t* idx, size_t n,
                                  AggCell* vrow, size_t slots, int nq) const {
  const RunScratch& rs = *scratch_;
  const size_t rows = rs.entries.size();
  for (size_t s = 0; s < slots; ++s) {
    const size_t base = s * rows;
    // Modular counts wrap, so one batched add equals the per-edge adds.
    const uint64_t* count = rs.count.data() + base;
    uint64_t count_sum = 0;
    for (size_t f = 0; f < n; ++f) count_sum += count[idx[f]];
    vrow[s].count.AddRaw(count_sum);
    if constexpr (K == PropKernel::kGeneric) {
      const AggPlan& agg = AggAt(s % static_cast<size_t>(nq));
      if (agg.need_type_count) {
        const uint64_t* col = rs.type_count.data() + base;
        uint64_t acc = 0;
        for (size_t f = 0; f < n; ++f) acc += col[idx[f]];
        vrow[s].type_count.AddRaw(acc);
      }
      if (agg.need_sum) {
        // Order-sensitive: accumulate into the cell in collection order.
        const double* col = rs.sum.data() + base;
        double acc = vrow[s].sum;
        for (size_t f = 0; f < n; ++f) acc += col[idx[f]];
        vrow[s].sum = acc;
      }
      if (agg.need_min) {
        const double* col = rs.min.data() + base;
        double acc = vrow[s].min;
        for (size_t f = 0; f < n; ++f) {
          if (col[idx[f]] < acc) acc = col[idx[f]];
        }
        vrow[s].min = acc;
      }
      if (agg.need_max) {
        const double* col = rs.max.data() + base;
        double acc = vrow[s].max;
        for (size_t f = 0; f < n; ++f) {
          if (col[idx[f]] > acc) acc = col[idx[f]];
        }
        vrow[s].max = acc;
      }
    }
  }
  // One edge per (admitted entry, nonzero window); single-window runs
  // collect only entries live in that window.
  if (slots == static_cast<size_t>(nq)) return n;
  size_t edges = 0;
  for (size_t f = 0; f < n; ++f) edges += rs.live[idx[f]];
  return edges;
}

template <PropKernel K>
void GretaGraph::InsertRunFast(const EventBatch& batch, const uint32_t* rows,
                               size_t n, Ts ts) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // The columnar fold serves the modular non-partial kernels; exact
  // counters and kPartial fold entry by entry through FoldEdge.
  constexpr bool kColumnKernel =
      K == PropKernel::kCountModular || K == PropKernel::kGeneric;
  RunScratch& rs = *scratch_;
  const size_t num_states = plan_->states.size();
  for (size_t si = 0; si < num_states; ++si) {
    const StateId s = static_cast<StateId>(si);
    const StatePlan& sp = plan_->states[si];

    // Selection vector: run rows of this state's type passing its local
    // predicates (column loops; see predicate/batch_filter.h).
    rs.sel.clear();
    size_t m;
    if (rs.group_proj_ready) {
      // Select by consecutive projection lane, filter through the vector
      // kernels, then map surviving positions back to batch rows.
      rs.pos.clear();
      for (size_t r = 0; r < n; ++r) {
        if (batch.type(rows[r]) == sp.type) {
          rs.pos.push_back(static_cast<uint32_t>(rs.base + r));
        }
      }
      if (rs.pos.empty()) continue;
      m = state_filters_[si].Filter(batch, rs.group_proj, rs.group_rows,
                                    rs.pos.data(), rs.pos.size());
      rs.sel.resize(m);
      for (size_t k = 0; k < m; ++k) rs.sel[k] = rs.group_rows[rs.pos[k]];
    } else {
      for (size_t r = 0; r < n; ++r) {
        if (batch.type(rows[r]) == sp.type) rs.sel.push_back(rows[r]);
      }
      if (rs.sel.empty()) continue;
      m = state_filters_[si].Filter(batch, rs.sel.data(), rs.sel.size());
      rs.sel.resize(m);
    }
    if (m == 0) continue;

    // One window-range division per (state, run).
    WindowId first_wid, last_wid;
    WindowRange(s, ts, &first_wid, &last_wid);
    const int k = static_cast<int>(last_wid - first_wid + 1);
    GRETA_DCHECK(k >= 1 && k <= 64);
    const Ts lo_time = WindowStartTime(first_wid, *layout_[s].window);
    const int nq = layout_[s].stride;
    const size_t cell_stride = static_cast<size_t>(k) * nq;

    // Per-(transition, event) key bounds, and the run classification that
    // picks the strategy: `uniform` (every event resolves bitwise-identical
    // bounds), `lower_only` (no finite/strict upper bound anywhere) and
    // whether any transition carries residual predicates.
    const std::vector<StateId>& pred_states = plan_->templ.pred_states(s);
    const size_t nt = pred_states.size();
    rs.tidx.resize(nt);
    rs.lo.assign(nt * m, -kInf);
    rs.hi.assign(nt * m, kInf);
    rs.lo_strict.assign(nt * m, 0);
    rs.hi_strict.assign(nt * m, 0);
    bool has_residuals = false;
    bool nan_bounds = false;
    bool uniform = true;
    bool lower_only = true;
    for (size_t t = 0; t < nt && !nan_bounds; ++t) {
      int t_idx = plan_->templ.FindTransition(pred_states[t], s);
      GRETA_DCHECK(t_idx >= 0);
      rs.tidx[t] = t_idx;
      const TransitionPlan& tp = plan_->transitions[t_idx];
      has_residuals |= !tp.residual_preds.empty();
      for (size_t i = 0; i < m; ++i) {
        KeyBounds b = CombineTransitionBounds(tp, batch.view(rs.sel[i]));
        if (std::isnan(b.lo) || std::isnan(b.hi)) {
          nan_bounds = true;
          break;
        }
        const size_t at = t * m + i;
        rs.lo[at] = b.lo;
        rs.hi[at] = b.hi;
        rs.lo_strict[at] = b.lo_strict ? 1 : 0;
        rs.hi_strict[at] = b.hi_strict ? 1 : 0;
        uniform &= b.lo == rs.lo[t * m] && b.hi == rs.hi[t * m] &&
                   rs.lo_strict[at] == rs.lo_strict[t * m] &&
                   rs.hi_strict[at] == rs.hi_strict[t * m];
        lower_only &= b.hi == kInf && !b.hi_strict;
      }
    }

    // Strategy ladder. SharedFold replays one scalar scan for the whole run
    // (valid for every kernel, including order-sensitive SUM: identical
    // entries in identical order, and copying the folded row is bitwise).
    // SuffixMerge re-associates additions across events, so it is reserved
    // for order-insensitive aggregates (no SUM) with pure lower bounds, and
    // never taken by kPartial (fold slots can carry SUM components, and a
    // hand-off is not a plain cell add). PerEvent replays the scalar
    // kernel's exact op order per event over the shared collection and
    // handles everything else.
    BatchStrategy strat;
    if (!has_residuals && uniform) {
      strat = BatchStrategy::kSharedFold;
    } else if (K != PropKernel::kPartial && !has_residuals && lower_only &&
               !any_sum_) {
      strat = BatchStrategy::kSuffixMerge;
    } else {
      strat = BatchStrategy::kPerEvent;
    }

    // NaN bounds — and NaN tree keys under the collection-based strategies —
    // take the row kernel per (state, run): value-based re-filtering only
    // agrees with the tree's positional scans on real keys. Correct at this
    // granularity because same-timestamp insertions commute under
    // skip-till-any-match. Collection happens before any fold, so the
    // fallback discards cleanly.
    if (nan_bounds ||
        (strat != BatchStrategy::kSharedFold &&
         !CollectRunEntries(pred_states, lo_time, ts, m,
                            strat == BatchStrategy::kSuffixMerge, first_wid,
                            last_wid))) {
      batch_fallback_rows_[static_cast<size_t>(
          BatchFallbackReason::kBounds)] += m;
      for (size_t i = 0; i < m; ++i) {
        (this->*insert_fn_)(batch.ref(rs.sel[i]), s);
      }
      continue;
    }

    rs.cells.assign(m * cell_stride, AggCell());
    rs.found.assign(m, 0);
    const bool is_start = plan_->templ.IsStart(s);

    if (strat == BatchStrategy::kSharedFold) {
      // Every event admits the same entries: fold the bucket once into an
      // accumulator row and copy it into each event's cells.
      rs.acc.assign(cell_stride, AggCell());
      AggCell* const acc = rs.acc.data();
      bool any_entry = false;
      size_t shared_edges = 0;
      for (size_t t = 0; t < nt; ++t) {
        KeyBounds bounds;
        bounds.lo = rs.lo[t * m];
        bounds.hi = rs.hi[t * m];
        bounds.lo_strict = rs.lo_strict[t * m] != 0;
        bounds.hi_strict = rs.hi_strict[t * m] != 0;
        const EdgeFold ef = EdgeFoldFor<K>(rs.tidx[t]);
        panes_.ScanBucket(
            lo_time, ts, static_cast<size_t>(pred_states[t]), bounds,
            [&](GraphVertex* u) {
              if (u->dead) return;
              if (u->time >= ts) return;  // Strict trend order (Def. 1).
              WindowId lo_w = std::max(first_wid, u->first_wid);
              WindowId hi_w = std::min(
                  last_wid, u->first_wid + WindowId{u->num_wids} - 1);
              if (lo_w > hi_w) return;
              for (WindowId w = lo_w; w <= hi_w; ++w) {
                const AggCell* urow = u->cells + (w - u->first_wid) * u->stride;
                if (urow->count.IsZero()) continue;
                FoldEdge<K>(urow, acc + static_cast<size_t>(w - first_wid) * nq,
                            nq, ef);
                any_entry = true;
                ++shared_edges;
              }
            });
      }
      edges_ += shared_edges * m;
      if (any_entry) {
        for (size_t i = 0; i < m; ++i) {
          rs.found[i] = 1;
          AggCell* vrow = rs.cells.data() + i * cell_stride;
          for (size_t c = 0; c < cell_stride; ++c) vrow[c] = acc[c];
        }
      }
    } else if (strat == BatchStrategy::kSuffixMerge) {
      for (size_t t = 0; t < nt; ++t) {
        const size_t begin = rs.spans[t];
        const size_t end = rs.spans[t + 1];
        if (begin == end) continue;
        // Entries arrive pane-major: a sliding collection spanning panes is
        // not globally key-sorted, so sort on demand (unstable is fine —
        // equal keys are consumed all-or-none and these folds commute).
        RunScratch::CollectedEntry* const ents = rs.entries.data();
        const auto by_key = [](const RunScratch::CollectedEntry& a,
                               const RunScratch::CollectedEntry& b) {
          return a.key < b.key;
        };
        if (!std::is_sorted(ents + begin, ents + end, by_key)) {
          std::sort(ents + begin, ents + end, by_key);
        }

        // Events ordered by descending lo (strict before non-strict at
        // equal lo): admitted entry sets are then nested suffixes of the
        // key-sorted collection, so a single backwards two-pointer merge
        // accumulates each entry into the running fold exactly once. Each
        // event pays one add per (window, query) for its whole admitted set
        // instead of one per edge.
        const double* lo_col = rs.lo.data() + t * m;
        const uint8_t* strict_col = rs.lo_strict.data() + t * m;
        rs.order.resize(m);
        std::iota(rs.order.begin(), rs.order.end(), 0u);
        std::sort(rs.order.begin(), rs.order.end(),
                  [&](uint32_t a, uint32_t b) {
                    if (lo_col[a] != lo_col[b]) return lo_col[a] > lo_col[b];
                    return strict_col[a] > strict_col[b];
                  });

        rs.acc.assign(cell_stride, AggCell());
        AggCell* const acc = rs.acc.data();
        const EdgeFold ef = EdgeFoldFor<K>(rs.tidx[t]);
        size_t ei = end;  // Entries [ei, end) are consumed.
        for (size_t r = 0; r < m; ++r) {
          const uint32_t i = rs.order[r];
          const double lo = lo_col[i];
          const bool strict = strict_col[i] != 0;
          while (ei > begin) {
            const double key = ents[ei - 1].key;
            if (!(strict ? key > lo : key >= lo)) break;
            --ei;
            const GraphVertex* u = ents[ei].u;
            WindowId lo_w = std::max(first_wid, u->first_wid);
            WindowId hi_w =
                std::min(last_wid, u->first_wid + WindowId{u->num_wids} - 1);
            for (WindowId w = lo_w; w <= hi_w; ++w) {
              const AggCell* urow = u->cells + (w - u->first_wid) * u->stride;
              if (urow->count.IsZero()) continue;
              FoldEdge<K>(urow, acc + static_cast<size_t>(w - first_wid) * nq,
                          nq, ef);
              // This entry is admitted by every event of rank >= r (their
              // lo bounds only weaken), i.e. it accounts for (m - r) edges.
              edges_ += m - r;
            }
          }
          if (ei == end) continue;  // Nothing admitted yet.
          rs.found[i] = 1;
          AggCell* vrow = rs.cells.data() + size_t{i} * cell_stride;
          for (int c = 0; c < k; ++c) {
            FoldEdge<K>(acc + static_cast<size_t>(c) * nq,
                        vrow + static_cast<size_t>(c) * nq, nq, ef);
          }
        }
      }
    } else {
      // PerEvent: each event re-filters the shared collection by its own
      // bounds (plain value comparisons; exact for real keys) and the
      // transition's compiled residual filter, then folds the survivors in
      // the scalar scan's exact order — bit-identical even for SUM. Under
      // modular counters the survivors fold from dense per-(window, query)
      // columns of the entries' cells, built once per (state, run)
      // (BuildRunColumns); exact counters and kPartial fold each
      // survivor's cells through FoldEdge.
      //
      // SIMD lanes (dispatched ISA only): the entry keys are copied into a
      // dense column once per (state, run) so each event's re-filter is one
      // vector range-select, and transitions with fast-shape residuals get
      // prev-side predicate columns.
      const simd::Kernels& kd = simd::Dispatch();
      const size_t num_entries = rs.entries.size();
      if (batch_simd_) {
        rs.keys.resize(num_entries);
        for (size_t j = 0; j < num_entries; ++j) {
          rs.keys[j] = rs.entries[j].key;
        }
        rs.prev_built.assign(nt, 0);
        rs.prev_cols.resize(nt);
        for (size_t t = 0; t < nt; ++t) {
          const size_t begin = rs.spans[t];
          const size_t end = rs.spans[t + 1];
          const CompiledEdgeFilter& ef = edge_filters_[rs.tidx[t]];
          if (begin != end && ef.has_fast()) {
            ef.BuildPrevColumns(rs.views.data() + begin, end - begin,
                                &rs.prev_cols[t]);
            rs.prev_built[t] = 1;
          }
        }
      }
      const bool columns = kColumnKernel && modular_columns_;
      if constexpr (kColumnKernel) {
        if (columns) BuildRunColumns<K>(first_wid, last_wid, nq);
      }
      for (size_t i = 0; i < m; ++i) {
        const EventView e_view = batch.view(rs.sel[i]);
        AggCell* vrow = rs.cells.data() + i * cell_stride;
        bool found = false;
        for (size_t t = 0; t < nt; ++t) {
          const size_t begin = rs.spans[t];
          const size_t end = rs.spans[t + 1];
          if (begin == end) continue;
          const size_t at = t * m + i;
          const double lo = rs.lo[at];
          const double hi = rs.hi[at];
          const bool lo_strict = rs.lo_strict[at] != 0;
          const bool hi_strict = rs.hi_strict[at] != 0;
          const CompiledEdgeFilter& filter = edge_filters_[rs.tidx[t]];
          size_t cnt;
          if (batch_simd_) {
            rs.filtered.resize(end - begin);
            cnt = kd.range_select(rs.keys.data(), static_cast<uint32_t>(begin),
                                  static_cast<uint32_t>(end), lo, lo_strict,
                                  hi, hi_strict, rs.filtered.data());
          } else {
            rs.filtered.clear();
            for (size_t j = begin; j < end; ++j) {
              const double key = rs.entries[j].key;
              if (lo_strict ? key <= lo : key < lo) continue;
              if (hi_strict ? key >= hi : key > hi) continue;
              rs.filtered.push_back(static_cast<uint32_t>(j));
            }
            cnt = rs.filtered.size();
          }
          if (cnt != 0 && !filter.trivial()) {
            cnt = batch_simd_ && rs.prev_built[t] != 0
                      ? filter.Filter(e_view, rs.views.data(),
                                      rs.prev_cols[t],
                                      static_cast<uint32_t>(begin),
                                      rs.filtered.data(), cnt)
                      : filter.Filter(e_view, rs.views.data(),
                                      rs.filtered.data(), cnt);
          }
          if (cnt == 0) continue;
          if constexpr (kColumnKernel) {
            if (columns) {
              // Every collected entry is live in some run window.
              edges_ += FoldRunColumns<K>(rs.filtered.data(), cnt, vrow,
                                          cell_stride, nq);
              found = true;
              continue;
            }
          }
          const EdgeFold ef = EdgeFoldFor<K>(rs.tidx[t]);
          for (size_t fj = 0; fj < cnt; ++fj) {
            const GraphVertex* u = rs.entries[rs.filtered[fj]].u;
            WindowId lo_w = std::max(first_wid, u->first_wid);
            WindowId hi_w =
                std::min(last_wid, u->first_wid + WindowId{u->num_wids} - 1);
            for (WindowId w = lo_w; w <= hi_w; ++w) {
              const AggCell* urow = u->cells + (w - u->first_wid) * u->stride;
              if (urow->count.IsZero()) continue;
              FoldEdge<K>(urow, vrow + static_cast<size_t>(w - first_wid) * nq,
                          nq, ef);
              found = true;
              ++edges_;
            }
          }
        }
        rs.found[i] = found ? 1 : 0;
      }
    }
    batch_strategy_rows_[static_cast<size_t>(strat)] += m;
    if (batch_simd_) simd_rows_ += m;

    // Finish + store, in arrival order. Bulk-reserve the pane arena first so
    // the stores bump-allocate without mid-run chunk growth.
    size_t stored_count = 0;
    if (is_start) {
      stored_count = m;
    } else {
      for (size_t i = 0; i < m; ++i) stored_count += rs.found[i];
    }
    if (stored_count == 0) continue;
    panes_.ArenaFor(ts)->Reserve(
        stored_count * (cell_stride * sizeof(AggCell) +
                        sp.stored_attr_count * sizeof(Value) +
                        alignof(std::max_align_t)));

    run_outs_.assign(static_cast<size_t>(k), nullptr);
    for (size_t i = 0; i < m; ++i) {
      if (!is_start && !rs.found[i]) continue;
      AggCell* vrow = rs.cells.data() + i * cell_stride;
      const EventRef e = batch.ref(rs.sel[i]);
      for (int c = 0; c < k; ++c) {
        FinishRow<K>(vrow + static_cast<size_t>(c) * nq, nq, e, s, is_start);
      }
      GraphVertex* stored = StoreVertex(e, s, first_wid, k, nq, vrow);
      if (layout_[s].is_end) AccumulateEndRow<K>(*stored, nq);
    }
  }
}

void GretaGraph::CollectWindow(WindowId wid, size_t q, AggOutputs* out) {
  if (graph_links_.empty()) {
    if (const ResultSlot* slot = FindResults(wid)) {
      out->Merge(slot->outs[q], AggAt(q));
    }
    return;
  }
  // Trailing negation (Case 2): only END vertices whose trends finished
  // after the last negative trend started survive (Figure 8(a)).
  Ts barrier = kMinTs;
  for (NegationLink* link : graph_links_) {
    barrier = std::max(barrier, link->CloseMaxStart(wid));
  }
  StateId end_state = plan_->templ.end_state();
  panes_.ScanBucketAll(static_cast<size_t>(end_state), [&](GraphVertex* u) {
    if (u->dead || !u->InWindow(wid)) return;
    const AggCell* cell = u->cell(wid, q);
    if (!cell->active || cell->count.IsZero()) return;
    if (u->time < barrier) return;
    out->AccumulateEnd(*cell, AggAt(q));
  });
}

void GretaGraph::CollectWindowAll(WindowId wid, AggOutputs* outs) {
  const size_t nq = static_cast<size_t>(num_queries_);
  if (graph_links_.empty()) {
    const ResultSlot* slot = FindResults(wid);
    if (slot == nullptr) return;
    for (size_t q = 0; q < nq; ++q) {
      outs[q].Merge(slot->outs[q], AggAt(q));
    }
    return;
  }
  // Trailing negation (Case 2): the barrier and the surviving-END-vertex
  // walk are query-independent — run them once, read every query slot.
  Ts barrier = kMinTs;
  for (NegationLink* link : graph_links_) {
    barrier = std::max(barrier, link->CloseMaxStart(wid));
  }
  StateId end_state = plan_->templ.end_state();
  panes_.ScanBucketAll(static_cast<size_t>(end_state), [&](GraphVertex* u) {
    if (u->dead || !u->InWindow(wid)) return;
    const AggCell* first = u->cell(wid);
    if (!first->active || first->count.IsZero()) return;
    if (u->time < barrier) return;
    for (size_t q = 0; q < nq; ++q) {
      outs[q].AccumulateEnd(*u->cell(wid, q), AggAt(q));
    }
  });
}

void GretaGraph::ForgetWindow(WindowId wid) {
  forgotten_ = std::max(forgotten_, wid);
  ResultSlot& slot = results_[ResultIndex(wid)];
  if (slot.wid == wid) ClearSlot(&slot);
}

void GretaGraph::Purge(Ts watermark) {
  if (exec_->window.unbounded()) return;
  Ts cutoff = WindowStartTime(FirstWindowOf(watermark, exec_->window),
                              exec_->window);
  // Wholesale pane deletion: the pane store releases each dropped pane's
  // charged bytes in one step (no per-vertex accounting walk).
  panes_.PurgeBefore(cutoff);
}

}  // namespace greta
