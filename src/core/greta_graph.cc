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
                       MemoryTracker* memory)
    : plan_(plan),
      exec_(exec),
      num_queries_(plan->aggs.empty() ? 1
                                      : static_cast<int>(plan->aggs.size())),
      panes_(PaneSize(exec->window), plan->templ.num_states(), memory),
      single_window_(MaxWindowsPerEvent(exec->window) == 1) {
  transition_links_.resize(plan_->templ.transitions().size());
  if (!exec_->window.unbounded() &&
      exec_->window.within == exec_->window.slide) {
    tumbling_slide_ = exec_->window.slide;
  }
  // Kernel dispatch: resolved once per graph, not branch-tested per edge.
  if (exec_->partial.has_value()) {
    insert_fn_ = &GretaGraph::InsertAtStatePartial;
  } else if (num_queries_ == 1) {
    switch (plan_->kernel) {
      case PropKernel::kCountModular:
        insert_fn_ =
            &GretaGraph::InsertAtState<PropKernel::kCountModular, true>;
        break;
      case PropKernel::kCountExact:
        insert_fn_ =
            &GretaGraph::InsertAtState<PropKernel::kCountExact, true>;
        break;
      case PropKernel::kGeneric:
        insert_fn_ = &GretaGraph::InsertAtState<PropKernel::kGeneric, true>;
        break;
    }
  } else {
    switch (plan_->kernel) {
      case PropKernel::kCountModular:
        insert_fn_ =
            &GretaGraph::InsertAtState<PropKernel::kCountModular, false>;
        break;
      case PropKernel::kCountExact:
        insert_fn_ =
            &GretaGraph::InsertAtState<PropKernel::kCountExact, false>;
        break;
      case PropKernel::kGeneric:
        insert_fn_ = &GretaGraph::InsertAtState<PropKernel::kGeneric, false>;
        break;
    }
  }

  // Plan-level batch fast-path eligibility (the link-dependent half lives in
  // BatchFastPathEligible, since negation links attach after construction).
  // The amortized kernel family relies only on the frozen-predecessor-set
  // property of strict trend order under skip-till-any-match — sliding
  // windows, every PropKernel, residual predicates and partial sharing are
  // all handled by strategy selection inside the run kernel (the planner
  // already restricts partial clusters to skip-till-any-match, so the
  // semantics test covers that path too).
  batch_plan_ok_ = exec_->enable_batch_kernels &&
                   exec_->semantics == Semantics::kSkipTillAnyMatch;
  for (size_t q = 0; q < static_cast<size_t>(num_queries_); ++q) {
    any_sum_ |= AggAt(q).need_sum;
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
    if (exec_->partial.has_value()) {
      insert_run_fn_ = &GretaGraph::InsertRunFastPartial;
    } else {
      switch (plan_->kernel) {
        case PropKernel::kCountModular:
          insert_run_fn_ =
              &GretaGraph::InsertRunFast<PropKernel::kCountModular>;
          break;
        case PropKernel::kCountExact:
          insert_run_fn_ = &GretaGraph::InsertRunFast<PropKernel::kCountExact>;
          break;
        case PropKernel::kGeneric:
          insert_run_fn_ = &GretaGraph::InsertRunFast<PropKernel::kGeneric>;
          break;
      }
    }
  }
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
                                     WindowId first_wid, int k, int nq,
                                     AggCell* src_cells) {
  const StatePlan& sp = plan_->states[s];
  const int total = k * nq;

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
  v.num_queries = static_cast<int16_t>(nq);
  v.num_attrs = num_attrs;

  double key = (sp.sort_attr == kInvalidAttr)
                   ? static_cast<double>(e.time)
                   : e.attr(sp.sort_attr).ToDouble();
  GraphVertex* stored =
      panes_.Insert(e.time, static_cast<size_t>(s), key, std::move(v));
  ++total_vertices_;
  return stored;
}

template <PropKernel K, bool kSingleQuery>
bool GretaGraph::InsertAtState(const EventRef& e, StateId s) {
  const StatePlan& sp = plan_->states[s];
  for (const Expr* pred : sp.local_preds) {
    if (!pred->EvalVertex(e).Truthy()) return false;
  }

  const WindowSpec& window = exec_->window;
  WindowId first_wid, last_wid;
  if (tumbling_slide_ > 0) {
    // Tumbling window: one id, one division.
    first_wid = last_wid = LastWindowOf(e.time, window);
  } else {
    first_wid = FirstWindowOf(e.time, window);
    last_wid = LastWindowOf(e.time, window);
  }
  int k = static_cast<int>(last_wid - first_wid + 1);
  GRETA_DCHECK(k >= 1 && k <= 64);

  const int nq = kSingleQuery ? 1 : num_queries_;
  GRETA_DCHECK(nq == num_queries_);
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

  bool is_start = plan_->templ.IsStart(s);
  bool found_pred = false;

  const bool skip_till_next =
      exec_->semantics == Semantics::kSkipTillNextMatch;
  const bool contiguous = exec_->semantics == Semantics::kContiguous;

  for (StateId p : plan_->templ.pred_states(s)) {
    int t_idx = plan_->templ.FindTransition(p, s);
    GRETA_DCHECK(t_idx >= 0);
    const TransitionPlan& tp = plan_->transitions[t_idx];

    // Negation barriers per shared window (Cases 1 and 2).
    const bool has_barriers =
        !transition_links_[t_idx].empty() || !graph_links_.empty();
    std::vector<Ts> barrier;
    if (has_barriers) {
      barrier.resize(k);
      for (int i = 0; i < k; ++i) {
        barrier[i] = TransitionBarrier(t_idx, first_wid + i, e.time);
      }
    }

    // Key range on the predecessor tree from the sort-key predicates.
    KeyBounds bounds = CombineTransitionBounds(tp, e);

    Ts lo_time = window.unbounded() ? kMinTs : WindowStartTime(first_wid, window);
    const bool can_prune = exec_->enable_pruning && single_window_ &&
                           has_barriers &&
                           plan_->templ.succ_states(p).size() == 1;

    panes_.ScanBucket(lo_time, e.time, static_cast<size_t>(p), bounds,
                      [&](GraphVertex* u) {
      if (u->dead) return;
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
      for (WindowId w = lo_w; w <= hi_w; ++w) {
        // Connectivity (active, count, barriers) is per (vertex, window) and
        // identical across query slots — only the propagated aggregates
        // differ, so the per-query loop sits inside the structural checks.
        // (nq is a compile-time 1 in the kSingleQuery instantiations, so
        // the stride arithmetic and the slot loops fold away.)
        const AggCell* urow = u->cells + (w - u->first_wid) * nq;
        AggCell* vrow = vcell(w);
        if (!urow->active || !vrow->active || urow->count.IsZero()) {
          barred_everywhere = false;
          continue;
        }
        if (has_barriers && u->time < barrier[w - first_wid]) continue;
        if constexpr (K == PropKernel::kCountModular) {
          // COUNT(*)-only, wrapping counters: a tight u64 add over the
          // contiguous (window, query) cell span — no flag tests, no
          // promotion checks (Counter::Add inlines to low_ += low_).
          for (int q = 0; q < nq; ++q) {
            vrow[q].count.Add(urow[q].count, CounterMode::kModular);
          }
        } else if constexpr (K == PropKernel::kCountExact) {
          // COUNT(*)-only exact: same span add through the u64 fast path,
          // promoting to BigUInt only at 64-bit overflow.
          for (int q = 0; q < nq; ++q) {
            vrow[q].count.Add(urow[q].count, CounterMode::kExact);
          }
        } else {
          vrow[0].AddPredecessor(urow[0], AggAt(0));
          for (int q = 1; q < nq; ++q) {
            vrow[q].AddPredecessor(urow[q], AggAt(q));
          }
        }
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
    for (int q = 0; q < nq; ++q) {
      AggCell& cell = cells[static_cast<size_t>(i) * nq + q];
      if (!cell.active) continue;
      if constexpr (K == PropKernel::kCountModular) {
        if (is_start) cell.count.AddOne(CounterMode::kModular);
      } else if constexpr (K == PropKernel::kCountExact) {
        if (is_start) cell.count.AddOne(CounterMode::kExact);
      } else {
        cell.FinishVertex(e, is_start, AggAt(q));
      }
    }
  }

  GraphVertex* stored =
      StoreVertex(e, s, first_wid, k, nq, scratch_cells_.data());

  if (plan_->templ.IsEnd(s)) {
    const bool incremental_final = graph_links_.empty();
    for (int i = 0; i < k; ++i) {
      const AggCell* row = stored->cells + static_cast<size_t>(i) * nq;
      if (!row->active || row->count.IsZero()) continue;
      WindowId wid = first_wid + i;
      if (incremental_final) {
        std::vector<AggOutputs>& out = *ResultsFor(wid);
        if constexpr (K == PropKernel::kCountModular) {
          for (int q = 0; q < nq; ++q) {
            out[q].count.Add(row[q].count, CounterMode::kModular);
            out[q].any = true;
          }
        } else if constexpr (K == PropKernel::kCountExact) {
          for (int q = 0; q < nq; ++q) {
            out[q].count.Add(row[q].count, CounterMode::kExact);
            out[q].any = true;
          }
        } else {
          for (int q = 0; q < nq; ++q) {
            out[q].AccumulateEnd(row[q], AggAt(q));
          }
        }
      }
      if (out_link_ != nullptr) {
        out_link_->ReportTrendEnd(wid, e.time, row->max_start);
      }
    }
  }
  return true;
}

bool GretaGraph::InsertAtStatePartial(const EventRef& e, StateId s) {
  const PartialSharingPlan& partial = *exec_->partial;
  const StatePlan& sp = plan_->states[s];
  for (const Expr* pred : sp.local_preds) {
    if (!pred->EvalVertex(e).Truthy()) return false;
  }

  // Core vertices span the cluster's union window range; a continuation
  // vertex spans its owner's own range (same slide, so the same window-id
  // grid — the per-query WITHIN only trims the front of the range).
  const int owner = partial.state_owner[s];
  const WindowSpec& window =
      owner < 0 ? exec_->window : partial.windows[owner];
  WindowId first_wid = FirstWindowOf(e.time, window);
  WindowId last_wid = LastWindowOf(e.time, window);
  int k = static_cast<int>(last_wid - first_wid + 1);
  GRETA_DCHECK(k >= 1 && k <= 64);
  const int stride =
      owner < 0 ? static_cast<int>(partial.core_stride()) : 1;

  const size_t num_folds = partial.fold_plans.size();

  scratch_cells_.assign(static_cast<size_t>(k) * stride, AggCell());
  AggCell* const cells = scratch_cells_.data();
  auto vcell = [&](WindowId wid, size_t q = 0) {
    return cells + (wid - first_wid) * stride + q;
  };

  // The merged start state is the shared Kleene core's start, shared by
  // every query; continuation states are never starts.
  const bool is_start = plan_->templ.IsStart(s);
  bool found_pred = false;

  for (StateId p : plan_->templ.pred_states(s)) {
    int t_idx = plan_->templ.FindTransition(p, s);
    GRETA_DCHECK(t_idx >= 0);
    const TransitionPlan& tp = plan_->transitions[t_idx];
    const int t_owner = partial.transition_owner[t_idx];
    const int p_owner = partial.state_owner[p];

    KeyBounds bounds = CombineTransitionBounds(tp, e);

    Ts lo_time =
        window.unbounded() ? kMinTs : WindowStartTime(first_wid, window);
    panes_.ScanBucket(lo_time, e.time, static_cast<size_t>(p), bounds,
                      [&](GraphVertex* u) {
      if (u->time >= e.time) return;  // Strict trend order (Def. 1).
      for (const Expr* pred : tp.residual_preds) {
        if (!pred->EvalEdge(u->view(), e).Truthy()) return;
      }
      WindowId lo_w = std::max(first_wid, u->first_wid);
      WindowId hi_w =
          std::min(last_wid, u->first_wid + WindowId{u->num_wids} - 1);
      if (lo_w > hi_w) return;
      bool contributed = false;
      if (t_owner < 0) {
        // Core-internal edge: ONE snapshot propagation per window (the
        // structural count every query reads), plus one fold per target.
        for (WindowId w = lo_w; w <= hi_w; ++w) {
          const AggCell* uc = u->cell(w);
          if (uc->count.IsZero()) continue;
          vcell(w)->count.Add(uc->count, exec_->mode);
          for (size_t f = 0; f < num_folds; ++f) {
            vcell(w, f)->AddPredecessorFold(uc[f], partial.fold_plans[f]);
          }
          contributed = true;
          ++edges_;
        }
      } else {
        // Query-owned edge (core hand-off or continuation-internal): only
        // the owner's aggregates move.
        const size_t q = static_cast<size_t>(t_owner);
        const AggPlan& qagg = AggAt(q);
        const int fold = partial.fold_slots[q];
        for (WindowId w = lo_w; w <= hi_w; ++w) {
          AggCell* vc = vcell(w);
          const AggCell* uc = u->cell(w);
          if (uc->count.IsZero()) continue;
          if (p_owner < 0) {
            // Hand-off: fold the shared snapshot into q's continuation.
            vc->count.Add(uc->count, qagg.mode);
            if (fold >= 0) vc->AddPredecessorFold(*u->cell(w, fold), qagg);
          } else {
            vc->AddPredecessor(*uc, qagg);
          }
          contributed = true;
          ++edges_;
        }
      }
      if (contributed) found_pred = true;
    });
  }

  if (!is_start && !found_pred) return true;  // Not inserted (Algorithm 2).

  if (owner < 0) {
    for (int i = 0; i < k; ++i) {
      AggCell* row = cells + static_cast<size_t>(i) * stride;
      if (is_start) row[0].count.AddOne(exec_->mode);
      for (size_t f = 0; f < num_folds; ++f) {
        row[f].FinishVertexFold(e, row[0].count, partial.fold_plans[f]);
      }
    }
  } else {
    for (int i = 0; i < k; ++i) {
      cells[i].FinishVertex(e, /*is_start=*/false, AggAt(owner));
    }
  }

  GraphVertex* stored =
      StoreVertex(e, s, first_wid, k, stride, scratch_cells_.data());

  // Incremental final aggregates for every query whose END is this state,
  // with one results lookup per window shared by all of them (run_outs_ is
  // free here: the batch kernels fall back to this path only before they
  // fill it).
  run_outs_.assign(static_cast<size_t>(k), nullptr);
  auto out_at = [&](int c) -> std::vector<AggOutputs>& {
    if (run_outs_[c] == nullptr) run_outs_[c] = ResultsFor(first_wid + c);
    return *run_outs_[c];
  };
  const size_t nq = plan_->aggs.size();
  for (size_t q = 0; q < nq; ++q) {
    if (partial.end_states[q] != s) continue;
    const AggPlan& qagg = AggAt(q);
    if (owner < 0) {
      // Core END (the query's whole pattern is the shared core): only the
      // windows live under q's own WITHIN read the snapshot.
      WindowId q_first = FirstWindowOf(e.time, partial.windows[q]);
      const int fold = partial.fold_slots[q];
      for (WindowId w = std::max(first_wid, q_first); w <= last_wid; ++w) {
        const AggCell* snap = stored->cell(w);
        if (snap->count.IsZero()) continue;
        out_at(static_cast<int>(w - first_wid))[q].AccumulateEndShared(
            snap->count, fold >= 0 ? snap + fold : nullptr, qagg);
      }
    } else {
      for (int i = 0; i < k; ++i) {
        const AggCell& cell = stored->cells[i];
        if (cell.count.IsZero()) continue;
        out_at(i)[q].AccumulateEnd(cell, qagg);
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
  // Decompose this group's fast-predicate attrs once, group-dense: lane k
  // holds batch row rows[k], so the per-run selections below are runs of
  // consecutive positions and the filter kernels load contiguously instead
  // of gathering partition-strided batch rows.
  group_proj_ready_ = batch_simd_ && !proj_attrs_.empty();
  if (group_proj_ready_) group_proj_.ProjectRows(batch, proj_attrs_, rows, n);
  group_rows_ = rows;
  // Split into equal-timestamp runs: within a run the strict trend order
  // (Def. 1, u.time < e.time) makes the predecessor set identical for every
  // event, so the run shares one collection and one window-id range.
  size_t i = 0;
  while (i < n) {
    Ts ts = batch.time(rows[i]);
    size_t j = i + 1;
    while (j < n && batch.time(rows[j]) == ts) ++j;
    run_base_ = i;
    (this->*insert_run_fn_)(batch, rows + i, j - i, ts);
    i = j;
  }
}

bool GretaGraph::CollectRunEntries(const std::vector<StateId>& pred_states,
                                   Ts lo_time, Ts ts, size_t m,
                                   bool lower_only, bool check_dead,
                                   WindowId first_wid, WindowId last_wid) {
  const size_t nt = pred_states.size();
  run_entries_.clear();
  run_spans_.assign(1, 0);
  bool nan_key = false;
  for (size_t t = 0; t < nt; ++t) {
    // The weakest per-event bounds over the run: the minimum lo / maximum hi,
    // preferring non-strict at ties, so the collection is a superset of every
    // event's own scan. Entries outside the run's window range or zero in
    // every shared window can never contribute to any run event and are
    // dropped here once instead of re-tested per event.
    const double* lo_col = run_lo_.data() + t * m;
    const uint8_t* lo_strict_col = run_lo_strict_.data() + t * m;
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
      const double* hi_col = run_hi_.data() + t * m;
      const uint8_t* hi_strict_col = run_hi_strict_.data() + t * m;
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
          if (check_dead && u->dead) return;
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
          run_entries_.push_back({key, u});
        });
    run_spans_.push_back(run_entries_.size());
  }
  if (nan_key) return false;
  run_views_.resize(run_entries_.size());
  for (size_t i = 0; i < run_entries_.size(); ++i) {
    run_views_[i] = run_entries_[i].u->view();
  }
  return true;
}

template <PropKernel K>
void GretaGraph::InsertRunFast(const EventBatch& batch, const uint32_t* rows,
                               size_t n, Ts ts) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const WindowSpec& window = exec_->window;
  WindowId first_wid, last_wid;
  if (tumbling_slide_ > 0) {
    first_wid = last_wid = LastWindowOf(ts, window);  // One division.
  } else {
    first_wid = FirstWindowOf(ts, window);
    last_wid = LastWindowOf(ts, window);
  }
  const int k = static_cast<int>(last_wid - first_wid + 1);
  GRETA_DCHECK(k >= 1 && k <= 64);
  const Ts lo_time =
      window.unbounded() ? kMinTs : WindowStartTime(first_wid, window);
  const int nq = num_queries_;
  const size_t cell_stride = static_cast<size_t>(k) * nq;

  // last_seen_seq_ bookkeeping (contiguous semantics, unread on this path
  // but kept exact): the newest run event passing local predicates at any
  // state. Row indices ascend within a run, so a max over rows suffices.
  uint32_t last_seen_row = 0;
  bool any_seen = false;

  const size_t num_states = plan_->states.size();
  for (size_t si = 0; si < num_states; ++si) {
    const StateId s = static_cast<StateId>(si);
    const StatePlan& sp = plan_->states[si];

    // Selection vector: run rows of this state's type passing its local
    // predicates (column loops; see predicate/batch_filter.h).
    run_sel_.clear();
    size_t m;
    if (group_proj_ready_) {
      // Select by consecutive projection lane, filter through the vector
      // kernels, then map surviving positions back to batch rows.
      run_pos_.clear();
      for (size_t r = 0; r < n; ++r) {
        if (batch.type(rows[r]) == sp.type) {
          run_pos_.push_back(static_cast<uint32_t>(run_base_ + r));
        }
      }
      if (run_pos_.empty()) continue;
      m = state_filters_[si].Filter(batch, group_proj_, group_rows_,
                                    run_pos_.data(), run_pos_.size());
      run_sel_.resize(m);
      for (size_t k = 0; k < m; ++k) run_sel_[k] = group_rows_[run_pos_[k]];
    } else {
      for (size_t r = 0; r < n; ++r) {
        if (batch.type(rows[r]) == sp.type) run_sel_.push_back(rows[r]);
      }
      if (run_sel_.empty()) continue;
      m = state_filters_[si].Filter(batch, run_sel_.data(), run_sel_.size());
      run_sel_.resize(m);
    }
    if (m == 0) continue;
    if (!any_seen || run_sel_.back() > last_seen_row) {
      last_seen_row = run_sel_.back();
      any_seen = true;
    }

    // Per-(transition, event) key bounds, and the run classification that
    // picks the strategy: `uniform` (every event resolves bitwise-identical
    // bounds), `lower_only` (no finite/strict upper bound anywhere) and
    // whether any transition carries residual predicates.
    const std::vector<StateId>& pred_states = plan_->templ.pred_states(s);
    const size_t nt = pred_states.size();
    run_tidx_.resize(nt);
    run_lo_.assign(nt * m, -kInf);
    run_hi_.assign(nt * m, kInf);
    run_lo_strict_.assign(nt * m, 0);
    run_hi_strict_.assign(nt * m, 0);
    bool has_residuals = false;
    bool nan_bounds = false;
    bool uniform = true;
    bool lower_only = true;
    for (size_t t = 0; t < nt && !nan_bounds; ++t) {
      int t_idx = plan_->templ.FindTransition(pred_states[t], s);
      GRETA_DCHECK(t_idx >= 0);
      run_tidx_[t] = t_idx;
      const TransitionPlan& tp = plan_->transitions[t_idx];
      has_residuals |= !tp.residual_preds.empty();
      for (size_t i = 0; i < m; ++i) {
        KeyBounds b = CombineTransitionBounds(tp, batch.view(run_sel_[i]));
        if (std::isnan(b.lo) || std::isnan(b.hi)) {
          nan_bounds = true;
          break;
        }
        const size_t at = t * m + i;
        run_lo_[at] = b.lo;
        run_hi_[at] = b.hi;
        run_lo_strict_[at] = b.lo_strict ? 1 : 0;
        run_hi_strict_[at] = b.hi_strict ? 1 : 0;
        uniform &= b.lo == run_lo_[t * m] && b.hi == run_hi_[t * m] &&
                   run_lo_strict_[at] == run_lo_strict_[t * m] &&
                   run_hi_strict_[at] == run_hi_strict_[t * m];
        lower_only &= b.hi == kInf && !b.hi_strict;
      }
    }

    // Strategy ladder. SharedFold replays one scalar scan for the whole run
    // (valid for every kernel, including order-sensitive SUM: identical
    // entries in identical order, and copying the folded row is bitwise).
    // SuffixMerge re-associates additions across events, so it is reserved
    // for order-insensitive aggregates (no SUM) with pure lower bounds.
    // PerEvent replays the scalar kernel's exact op order per event over the
    // shared collection and handles everything else.
    BatchStrategy strat;
    if (!has_residuals && uniform) {
      strat = BatchStrategy::kSharedFold;
    } else if (!has_residuals && lower_only && !any_sum_) {
      strat = BatchStrategy::kSuffixMerge;
    } else {
      strat = BatchStrategy::kPerEvent;
    }

    // NaN bounds — and NaN tree keys under the collection-based strategies —
    // take the scalar kernel per (state, run): value-based re-filtering only
    // agrees with the tree's positional scans on real keys. Correct at this
    // granularity because same-timestamp insertions commute under
    // skip-till-any-match. Collection happens before any fold, so the
    // fallback discards cleanly.
    if (nan_bounds ||
        (strat != BatchStrategy::kSharedFold &&
         !CollectRunEntries(pred_states, lo_time, ts, m,
                            strat == BatchStrategy::kSuffixMerge,
                            /*check_dead=*/true, first_wid, last_wid))) {
      batch_fallback_rows_[static_cast<size_t>(
          BatchFallbackReason::kBounds)] += m;
      for (size_t i = 0; i < m; ++i) {
        (this->*insert_fn_)(batch.ref(run_sel_[i]), s);
      }
      continue;
    }

    run_cells_.assign(m * cell_stride, AggCell());
    run_found_.assign(m, 0);
    const bool is_start = plan_->templ.IsStart(s);

    if (strat == BatchStrategy::kSharedFold) {
      // Every event admits the same entries: fold the bucket once into an
      // accumulator row and copy it into each event's cells.
      run_acc_.assign(cell_stride, AggCell());
      AggCell* const acc = run_acc_.data();
      bool any_entry = false;
      size_t shared_edges = 0;
      for (size_t t = 0; t < nt; ++t) {
        KeyBounds bounds;
        bounds.lo = run_lo_[t * m];
        bounds.hi = run_hi_[t * m];
        bounds.lo_strict = run_lo_strict_[t * m] != 0;
        bounds.hi_strict = run_hi_strict_[t * m] != 0;
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
                const AggCell* urow =
                    u->cells + (w - u->first_wid) * u->num_queries;
                if (urow->count.IsZero()) continue;
                AggCell* arow = acc + static_cast<size_t>(w - first_wid) * nq;
                if constexpr (K == PropKernel::kCountModular) {
                  for (int q = 0; q < nq; ++q) {
                    arow[q].count.Add(urow[q].count, CounterMode::kModular);
                  }
                } else if constexpr (K == PropKernel::kCountExact) {
                  for (int q = 0; q < nq; ++q) {
                    arow[q].count.Add(urow[q].count, CounterMode::kExact);
                  }
                } else {
                  for (int q = 0; q < nq; ++q) {
                    arow[q].AddPredecessor(urow[q], AggAt(q));
                  }
                }
                any_entry = true;
                ++shared_edges;
              }
            });
      }
      edges_ += shared_edges * m;
      if (any_entry) {
        for (size_t i = 0; i < m; ++i) {
          run_found_[i] = 1;
          AggCell* vrow = run_cells_.data() + i * cell_stride;
          for (size_t c = 0; c < cell_stride; ++c) vrow[c] = acc[c];
        }
      }
    } else if (strat == BatchStrategy::kSuffixMerge) {
      for (size_t t = 0; t < nt; ++t) {
        const size_t begin = run_spans_[t];
        const size_t end = run_spans_[t + 1];
        if (begin == end) continue;
        // Entries arrive pane-major: a sliding collection spanning panes is
        // not globally key-sorted, so sort on demand (unstable is fine —
        // equal keys are consumed all-or-none and these folds commute).
        CollectedEntry* const ents = run_entries_.data();
        const auto by_key = [](const CollectedEntry& a,
                               const CollectedEntry& b) {
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
        const double* lo_col = run_lo_.data() + t * m;
        const uint8_t* strict_col = run_lo_strict_.data() + t * m;
        run_order_.resize(m);
        std::iota(run_order_.begin(), run_order_.end(), 0u);
        std::sort(run_order_.begin(), run_order_.end(),
                  [&](uint32_t a, uint32_t b) {
                    if (lo_col[a] != lo_col[b]) return lo_col[a] > lo_col[b];
                    return strict_col[a] > strict_col[b];
                  });

        if constexpr (K == PropKernel::kGeneric) {
          run_acc_.assign(cell_stride, AggCell());
        } else {
          run_running_.assign(cell_stride, Counter());
        }
        size_t ei = end;  // Entries [ei, end) are consumed.
        for (size_t r = 0; r < m; ++r) {
          const uint32_t i = run_order_[r];
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
              const AggCell* urow =
                  u->cells + (w - u->first_wid) * u->num_queries;
              if (urow->count.IsZero()) continue;
              const size_t off = static_cast<size_t>(w - first_wid) * nq;
              if constexpr (K == PropKernel::kCountModular) {
                for (int q = 0; q < nq; ++q) {
                  run_running_[off + q].Add(urow[q].count,
                                            CounterMode::kModular);
                }
              } else if constexpr (K == PropKernel::kCountExact) {
                for (int q = 0; q < nq; ++q) {
                  run_running_[off + q].Add(urow[q].count,
                                            CounterMode::kExact);
                }
              } else {
                for (int q = 0; q < nq; ++q) {
                  run_acc_[off + q].AddPredecessor(urow[q], AggAt(q));
                }
              }
              // This entry is admitted by every event of rank >= r (their
              // lo bounds only weaken), i.e. it accounts for (m - r) edges.
              edges_ += m - r;
            }
          }
          if (ei == end) continue;  // Nothing admitted yet.
          run_found_[i] = 1;
          AggCell* vrow = run_cells_.data() + static_cast<size_t>(i) * cell_stride;
          if constexpr (K == PropKernel::kCountModular) {
            for (size_t c = 0; c < cell_stride; ++c) {
              vrow[c].count.Add(run_running_[c], CounterMode::kModular);
            }
          } else if constexpr (K == PropKernel::kCountExact) {
            for (size_t c = 0; c < cell_stride; ++c) {
              vrow[c].count.Add(run_running_[c], CounterMode::kExact);
            }
          } else {
            for (size_t c = 0; c < cell_stride; ++c) {
              vrow[c].AddPredecessor(run_acc_[c],
                                     AggAt(c % static_cast<size_t>(nq)));
            }
          }
        }
      }
    } else {
      // PerEvent: each event re-filters the shared collection by its own
      // bounds (plain value comparisons; exact for real keys) and the
      // transition's compiled residual filter, then folds the survivors in
      // the scalar scan's exact order — bit-identical even for SUM.
      //
      // SIMD lanes (dispatched ISA only): the entry keys are copied into a
      // dense column once per (state, run) so each event's re-filter is one
      // vector range-select; transitions with fast-shape residuals get
      // prev-side predicate columns; and the single-window modular COUNT
      // shape with no residuals fuses re-filter and fold into one masked
      // wrapping sum (associative, so lane order cannot change the result).
      const simd::Kernels& kd = simd::Dispatch();
      const size_t num_entries = run_entries_.size();
      [[maybe_unused]] bool fuse_counts = false;
      if (batch_simd_) {
        run_keys_.resize(num_entries);
        for (size_t j = 0; j < num_entries; ++j) {
          run_keys_[j] = run_entries_[j].key;
        }
        run_prev_built_.assign(nt, 0);
        run_prev_cols_.resize(nt);
        for (size_t t = 0; t < nt; ++t) {
          const size_t begin = run_spans_[t];
          const size_t end = run_spans_[t + 1];
          const CompiledEdgeFilter& ef = edge_filters_[run_tidx_[t]];
          if (begin != end && ef.has_fast()) {
            ef.BuildPrevColumns(run_views_.data() + begin, end - begin,
                                &run_prev_cols_[t]);
            run_prev_built_[t] = 1;
          }
        }
        if constexpr (K == PropKernel::kCountModular) {
          if (k == 1 && nq == 1) {
            fuse_counts = true;
            run_counts_.resize(num_entries);
            for (size_t j = 0; j < num_entries; ++j) {
              // k == 1: the collection kept only entries live in THE
              // window, so this cell exists and the fused fold adds the
              // same nonzero counts the scalar IsZero test admits.
              run_counts_[j] =
                  run_entries_[j].u->cell(first_wid)->count.ModularValue();
            }
          }
        }
      }
      for (size_t i = 0; i < m; ++i) {
        const EventView e_view = batch.view(run_sel_[i]);
        AggCell* vrow = run_cells_.data() + i * cell_stride;
        bool found = false;
        for (size_t t = 0; t < nt; ++t) {
          const size_t begin = run_spans_[t];
          const size_t end = run_spans_[t + 1];
          if (begin == end) continue;
          const size_t at = t * m + i;
          const double lo = run_lo_[at];
          const double hi = run_hi_[at];
          const bool lo_strict = run_lo_strict_[at] != 0;
          const bool hi_strict = run_hi_strict_[at] != 0;
          const CompiledEdgeFilter& ef = edge_filters_[run_tidx_[t]];
          if constexpr (K == PropKernel::kCountModular) {
            if (fuse_counts && ef.trivial()) {
              const simd::MaskedSum ms = kd.masked_count_sum(
                  run_keys_.data(), run_counts_.data(),
                  static_cast<uint32_t>(begin), static_cast<uint32_t>(end),
                  lo, lo_strict, hi, hi_strict);
              if (ms.lanes != 0) {
                vrow[0].count.AddRaw(ms.sum);
                found = true;
                edges_ += ms.lanes;
              }
              continue;
            }
          }
          size_t cnt;
          if (batch_simd_) {
            run_filtered_.resize(end - begin);
            cnt = kd.range_select(
                run_keys_.data(), static_cast<uint32_t>(begin),
                static_cast<uint32_t>(end), lo, lo_strict, hi, hi_strict,
                run_filtered_.data());
          } else {
            run_filtered_.clear();
            for (size_t j = begin; j < end; ++j) {
              const double key = run_entries_[j].key;
              if (lo_strict ? key <= lo : key < lo) continue;
              if (hi_strict ? key >= hi : key > hi) continue;
              run_filtered_.push_back(static_cast<uint32_t>(j));
            }
            cnt = run_filtered_.size();
          }
          if (cnt != 0 && !ef.trivial()) {
            cnt = batch_simd_ && run_prev_built_[t] != 0
                      ? ef.Filter(e_view, run_views_.data(),
                                  run_prev_cols_[t],
                                  static_cast<uint32_t>(begin),
                                  run_filtered_.data(), cnt)
                      : ef.Filter(e_view, run_views_.data(),
                                  run_filtered_.data(), cnt);
          }
          for (size_t fj = 0; fj < cnt; ++fj) {
            const GraphVertex* u = run_entries_[run_filtered_[fj]].u;
            WindowId lo_w = std::max(first_wid, u->first_wid);
            WindowId hi_w =
                std::min(last_wid, u->first_wid + WindowId{u->num_wids} - 1);
            for (WindowId w = lo_w; w <= hi_w; ++w) {
              const AggCell* urow =
                  u->cells + (w - u->first_wid) * u->num_queries;
              if (urow->count.IsZero()) continue;
              AggCell* vw = vrow + static_cast<size_t>(w - first_wid) * nq;
              if constexpr (K == PropKernel::kCountModular) {
                for (int q = 0; q < nq; ++q) {
                  vw[q].count.Add(urow[q].count, CounterMode::kModular);
                }
              } else if constexpr (K == PropKernel::kCountExact) {
                for (int q = 0; q < nq; ++q) {
                  vw[q].count.Add(urow[q].count, CounterMode::kExact);
                }
              } else {
                for (int q = 0; q < nq; ++q) {
                  vw[q].AddPredecessor(urow[q], AggAt(q));
                }
              }
              found = true;
              ++edges_;
            }
          }
        }
        run_found_[i] = found ? 1 : 0;
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
      for (size_t i = 0; i < m; ++i) stored_count += run_found_[i];
    }
    if (stored_count == 0) continue;
    panes_.ArenaFor(ts)->Reserve(
        stored_count * (cell_stride * sizeof(AggCell) +
                        sp.stored_attr_count * sizeof(Value) +
                        alignof(std::max_align_t)));

    const bool is_end = plan_->templ.IsEnd(s);
    run_outs_.assign(static_cast<size_t>(k), nullptr);
    for (size_t i = 0; i < m; ++i) {
      if (!is_start && !run_found_[i]) continue;
      AggCell* vrow = run_cells_.data() + i * cell_stride;
      const EventRef e = batch.ref(run_sel_[i]);
      for (int c = 0; c < k; ++c) {
        AggCell* wrow = vrow + static_cast<size_t>(c) * nq;
        if constexpr (K == PropKernel::kCountModular) {
          if (is_start) {
            for (int q = 0; q < nq; ++q) {
              wrow[q].count.AddOne(CounterMode::kModular);
            }
          }
        } else if constexpr (K == PropKernel::kCountExact) {
          if (is_start) {
            for (int q = 0; q < nq; ++q) {
              wrow[q].count.AddOne(CounterMode::kExact);
            }
          }
        } else {
          for (int q = 0; q < nq; ++q) {
            wrow[q].FinishVertex(e, is_start, AggAt(q));
          }
        }
      }
      GraphVertex* stored = StoreVertex(e, s, first_wid, k, nq, vrow);
      if (is_end) {
        for (int c = 0; c < k; ++c) {
          const AggCell* row = stored->cells + static_cast<size_t>(c) * nq;
          if (row->count.IsZero()) continue;
          if (run_outs_[c] == nullptr) {
            run_outs_[c] = ResultsFor(first_wid + c);
          }
          std::vector<AggOutputs>& out = *run_outs_[c];
          if constexpr (K == PropKernel::kCountModular) {
            for (int q = 0; q < nq; ++q) {
              out[q].count.Add(row[q].count, CounterMode::kModular);
              out[q].any = true;
            }
          } else if constexpr (K == PropKernel::kCountExact) {
            for (int q = 0; q < nq; ++q) {
              out[q].count.Add(row[q].count, CounterMode::kExact);
              out[q].any = true;
            }
          } else {
            for (int q = 0; q < nq; ++q) {
              out[q].AccumulateEnd(row[q], AggAt(q));
            }
          }
        }
      }
    }
  }

  if (any_seen) last_seen_seq_ = batch.seq(last_seen_row);
}

void GretaGraph::InsertRunFastPartial(const EventBatch& batch,
                                      const uint32_t* rows, size_t n, Ts ts) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const PartialSharingPlan& partial = *exec_->partial;
  const size_t num_folds = partial.fold_plans.size();

  uint32_t last_seen_row = 0;
  bool any_seen = false;

  const size_t num_states = plan_->states.size();
  for (size_t si = 0; si < num_states; ++si) {
    const StateId s = static_cast<StateId>(si);
    const StatePlan& sp = plan_->states[si];

    run_sel_.clear();
    size_t m;
    if (group_proj_ready_) {
      // Select by consecutive projection lane, filter through the vector
      // kernels, then map surviving positions back to batch rows.
      run_pos_.clear();
      for (size_t r = 0; r < n; ++r) {
        if (batch.type(rows[r]) == sp.type) {
          run_pos_.push_back(static_cast<uint32_t>(run_base_ + r));
        }
      }
      if (run_pos_.empty()) continue;
      m = state_filters_[si].Filter(batch, group_proj_, group_rows_,
                                    run_pos_.data(), run_pos_.size());
      run_sel_.resize(m);
      for (size_t k = 0; k < m; ++k) run_sel_[k] = group_rows_[run_pos_[k]];
    } else {
      for (size_t r = 0; r < n; ++r) {
        if (batch.type(rows[r]) == sp.type) run_sel_.push_back(rows[r]);
      }
      if (run_sel_.empty()) continue;
      m = state_filters_[si].Filter(batch, run_sel_.data(), run_sel_.size());
      run_sel_.resize(m);
    }
    if (m == 0) continue;
    if (!any_seen || run_sel_.back() > last_seen_row) {
      last_seen_row = run_sel_.back();
      any_seen = true;
    }

    // Core vertices span the cluster's union window range; a continuation
    // vertex spans its owner's own range (see InsertAtStatePartial).
    const int owner = partial.state_owner[s];
    const WindowSpec& window =
        owner < 0 ? exec_->window : partial.windows[owner];
    const WindowId first_wid = FirstWindowOf(ts, window);
    const WindowId last_wid = LastWindowOf(ts, window);
    const int k = static_cast<int>(last_wid - first_wid + 1);
    GRETA_DCHECK(k >= 1 && k <= 64);
    const Ts lo_time =
        window.unbounded() ? kMinTs : WindowStartTime(first_wid, window);
    const int stride =
        owner < 0 ? static_cast<int>(partial.core_stride()) : 1;
    const size_t cell_stride = static_cast<size_t>(k) * stride;

    const std::vector<StateId>& pred_states = plan_->templ.pred_states(s);
    const size_t nt = pred_states.size();
    run_tidx_.resize(nt);
    run_lo_.assign(nt * m, -kInf);
    run_hi_.assign(nt * m, kInf);
    run_lo_strict_.assign(nt * m, 0);
    run_hi_strict_.assign(nt * m, 0);
    bool has_residuals = false;
    bool nan_bounds = false;
    bool uniform = true;
    for (size_t t = 0; t < nt && !nan_bounds; ++t) {
      int t_idx = plan_->templ.FindTransition(pred_states[t], s);
      GRETA_DCHECK(t_idx >= 0);
      run_tidx_[t] = t_idx;
      const TransitionPlan& tp = plan_->transitions[t_idx];
      has_residuals |= !tp.residual_preds.empty();
      for (size_t i = 0; i < m; ++i) {
        KeyBounds b = CombineTransitionBounds(tp, batch.view(run_sel_[i]));
        if (std::isnan(b.lo) || std::isnan(b.hi)) {
          nan_bounds = true;
          break;
        }
        const size_t at = t * m + i;
        run_lo_[at] = b.lo;
        run_hi_[at] = b.hi;
        run_lo_strict_[at] = b.lo_strict ? 1 : 0;
        run_hi_strict_[at] = b.hi_strict ? 1 : 0;
        uniform &= b.lo == run_lo_[t * m] && b.hi == run_hi_[t * m] &&
                   run_lo_strict_[at] == run_lo_strict_[t * m] &&
                   run_hi_strict_[at] == run_hi_strict_[t * m];
      }
    }

    // The suffix merge is unavailable here — fold slots can carry
    // order-sensitive SUM components — so the ladder is SharedFold (uniform
    // bounds, no residuals) or the per-event fold.
    const BatchStrategy strat = !has_residuals && uniform
                                    ? BatchStrategy::kSharedFold
                                    : BatchStrategy::kPerEvent;

    if (nan_bounds ||
        (strat == BatchStrategy::kPerEvent &&
         !CollectRunEntries(pred_states, lo_time, ts, m, /*lower_only=*/false,
                            /*check_dead=*/false, first_wid, last_wid))) {
      batch_fallback_rows_[static_cast<size_t>(
          BatchFallbackReason::kBounds)] += m;
      for (size_t i = 0; i < m; ++i) {
        (this->*insert_fn_)(batch.ref(run_sel_[i]), s);
      }
      continue;
    }

    run_cells_.assign(m * cell_stride, AggCell());
    run_found_.assign(m, 0);
    const bool is_start = plan_->templ.IsStart(s);

    // One edge fold, shared by both strategies: mirrors the per-ownership
    // branches of InsertAtStatePartial exactly. Returns whether the window
    // contributed.
    auto fold_edge = [&](size_t t, const GraphVertex* u, WindowId w,
                         AggCell* dst_row) -> bool {
      const AggCell* uc = u->cell(w);
      if (uc->count.IsZero()) return false;
      const int t_owner = partial.transition_owner[run_tidx_[t]];
      if (t_owner < 0) {
        // Core-internal edge: ONE snapshot propagation (the structural count
        // every query reads), plus one fold per target.
        dst_row[0].count.Add(uc->count, exec_->mode);
        for (size_t f = 0; f < num_folds; ++f) {
          dst_row[f].AddPredecessorFold(uc[f], partial.fold_plans[f]);
        }
      } else {
        // Query-owned edge (core hand-off or continuation-internal): only
        // the owner's aggregates move.
        const size_t q = static_cast<size_t>(t_owner);
        const AggPlan& qagg = AggAt(q);
        const int fold = partial.fold_slots[q];
        if (partial.state_owner[pred_states[t]] < 0) {
          dst_row[0].count.Add(uc->count, qagg.mode);
          if (fold >= 0) dst_row[0].AddPredecessorFold(uc[fold], qagg);
        } else {
          dst_row[0].AddPredecessor(*uc, qagg);
        }
      }
      return true;
    };

    if (strat == BatchStrategy::kSharedFold) {
      run_acc_.assign(cell_stride, AggCell());
      bool any_entry = false;
      size_t shared_edges = 0;
      for (size_t t = 0; t < nt; ++t) {
        KeyBounds bounds;
        bounds.lo = run_lo_[t * m];
        bounds.hi = run_hi_[t * m];
        bounds.lo_strict = run_lo_strict_[t * m] != 0;
        bounds.hi_strict = run_hi_strict_[t * m] != 0;
        panes_.ScanBucket(
            lo_time, ts, static_cast<size_t>(pred_states[t]), bounds,
            [&](GraphVertex* u) {
              if (u->time >= ts) return;  // Strict trend order (Def. 1).
              WindowId lo_w = std::max(first_wid, u->first_wid);
              WindowId hi_w = std::min(
                  last_wid, u->first_wid + WindowId{u->num_wids} - 1);
              if (lo_w > hi_w) return;
              for (WindowId w = lo_w; w <= hi_w; ++w) {
                AggCell* arow =
                    run_acc_.data() + static_cast<size_t>(w - first_wid) * stride;
                if (fold_edge(t, u, w, arow)) {
                  any_entry = true;
                  ++shared_edges;
                }
              }
            });
      }
      edges_ += shared_edges * m;
      if (any_entry) {
        for (size_t i = 0; i < m; ++i) {
          run_found_[i] = 1;
          AggCell* vrow = run_cells_.data() + i * cell_stride;
          for (size_t c = 0; c < cell_stride; ++c) vrow[c] = run_acc_[c];
        }
      }
    } else {
      // Same SIMD lanes as InsertRunFast's per-event strategy (no fused
      // count fold here — snapshot cells interleave with per-query folds).
      const simd::Kernels& kd = simd::Dispatch();
      if (batch_simd_) {
        const size_t num_entries = run_entries_.size();
        run_keys_.resize(num_entries);
        for (size_t j = 0; j < num_entries; ++j) {
          run_keys_[j] = run_entries_[j].key;
        }
        run_prev_built_.assign(nt, 0);
        run_prev_cols_.resize(nt);
        for (size_t t = 0; t < nt; ++t) {
          const size_t begin = run_spans_[t];
          const size_t end = run_spans_[t + 1];
          const CompiledEdgeFilter& ef = edge_filters_[run_tidx_[t]];
          if (begin != end && ef.has_fast()) {
            ef.BuildPrevColumns(run_views_.data() + begin, end - begin,
                                &run_prev_cols_[t]);
            run_prev_built_[t] = 1;
          }
        }
      }
      for (size_t i = 0; i < m; ++i) {
        const EventView e_view = batch.view(run_sel_[i]);
        AggCell* vrow = run_cells_.data() + i * cell_stride;
        bool found = false;
        for (size_t t = 0; t < nt; ++t) {
          const size_t begin = run_spans_[t];
          const size_t end = run_spans_[t + 1];
          if (begin == end) continue;
          const size_t at = t * m + i;
          const double lo = run_lo_[at];
          const double hi = run_hi_[at];
          const bool lo_strict = run_lo_strict_[at] != 0;
          const bool hi_strict = run_hi_strict_[at] != 0;
          size_t cnt;
          if (batch_simd_) {
            run_filtered_.resize(end - begin);
            cnt = kd.range_select(
                run_keys_.data(), static_cast<uint32_t>(begin),
                static_cast<uint32_t>(end), lo, lo_strict, hi, hi_strict,
                run_filtered_.data());
          } else {
            run_filtered_.clear();
            for (size_t j = begin; j < end; ++j) {
              const double key = run_entries_[j].key;
              if (lo_strict ? key <= lo : key < lo) continue;
              if (hi_strict ? key >= hi : key > hi) continue;
              run_filtered_.push_back(static_cast<uint32_t>(j));
            }
            cnt = run_filtered_.size();
          }
          const CompiledEdgeFilter& ef = edge_filters_[run_tidx_[t]];
          if (cnt != 0 && !ef.trivial()) {
            cnt = batch_simd_ && run_prev_built_[t] != 0
                      ? ef.Filter(e_view, run_views_.data(),
                                  run_prev_cols_[t],
                                  static_cast<uint32_t>(begin),
                                  run_filtered_.data(), cnt)
                      : ef.Filter(e_view, run_views_.data(),
                                  run_filtered_.data(), cnt);
          }
          for (size_t fj = 0; fj < cnt; ++fj) {
            const GraphVertex* u = run_entries_[run_filtered_[fj]].u;
            WindowId lo_w = std::max(first_wid, u->first_wid);
            WindowId hi_w =
                std::min(last_wid, u->first_wid + WindowId{u->num_wids} - 1);
            for (WindowId w = lo_w; w <= hi_w; ++w) {
              AggCell* vw = vrow + static_cast<size_t>(w - first_wid) * stride;
              if (fold_edge(t, u, w, vw)) {
                found = true;
                ++edges_;
              }
            }
          }
        }
        run_found_[i] = found ? 1 : 0;
      }
    }
    batch_strategy_rows_[static_cast<size_t>(strat)] += m;
    if (batch_simd_) simd_rows_ += m;

    size_t stored_count = 0;
    if (is_start) {
      stored_count = m;
    } else {
      for (size_t i = 0; i < m; ++i) stored_count += run_found_[i];
    }
    if (stored_count == 0) continue;
    panes_.ArenaFor(ts)->Reserve(
        stored_count * (cell_stride * sizeof(AggCell) +
                        sp.stored_attr_count * sizeof(Value) +
                        alignof(std::max_align_t)));

    const size_t nq_total = plan_->aggs.size();
    run_outs_.assign(static_cast<size_t>(k), nullptr);
    for (size_t i = 0; i < m; ++i) {
      if (!is_start && !run_found_[i]) continue;
      AggCell* vrow = run_cells_.data() + i * cell_stride;
      const EventRef e = batch.ref(run_sel_[i]);
      if (owner < 0) {
        for (int c = 0; c < k; ++c) {
          AggCell* wrow = vrow + static_cast<size_t>(c) * stride;
          if (is_start) wrow[0].count.AddOne(exec_->mode);
          for (size_t f = 0; f < num_folds; ++f) {
            wrow[f].FinishVertexFold(e, wrow[0].count,
                                     partial.fold_plans[f]);
          }
        }
      } else {
        for (int c = 0; c < k; ++c) {
          vrow[c].FinishVertex(e, /*is_start=*/false, AggAt(owner));
        }
      }
      GraphVertex* stored = StoreVertex(e, s, first_wid, k, stride, vrow);

      // Incremental final aggregates for every query whose END is this
      // state (mirrors InsertAtStatePartial).
      for (size_t q = 0; q < nq_total; ++q) {
        if (partial.end_states[q] != s) continue;
        const AggPlan& qagg = AggAt(q);
        if (owner < 0) {
          WindowId q_first = FirstWindowOf(ts, partial.windows[q]);
          const int fold = partial.fold_slots[q];
          for (WindowId w = std::max(first_wid, q_first); w <= last_wid; ++w) {
            const AggCell* snap = stored->cell(w);
            if (snap->count.IsZero()) continue;
            const size_t c = static_cast<size_t>(w - first_wid);
            if (run_outs_[c] == nullptr) run_outs_[c] = ResultsFor(w);
            (*run_outs_[c])[q].AccumulateEndShared(
                snap->count, fold >= 0 ? snap + fold : nullptr, qagg);
          }
        } else {
          for (int c = 0; c < k; ++c) {
            const AggCell& cell = stored->cells[c];
            if (cell.count.IsZero()) continue;
            if (run_outs_[c] == nullptr) {
              run_outs_[c] = ResultsFor(first_wid + c);
            }
            (*run_outs_[c])[q].AccumulateEnd(cell, qagg);
          }
        }
      }
    }
  }

  if (any_seen) last_seen_seq_ = batch.seq(last_seen_row);
}

void GretaGraph::CollectWindow(WindowId wid, size_t q, AggOutputs* out) {
  if (graph_links_.empty()) {
    auto it = results_.find(wid);
    if (it != results_.end()) out->Merge(it->second[q], AggAt(q));
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

void GretaGraph::CollectWindowAll(WindowId wid, std::vector<AggOutputs>* outs) {
  const size_t nq = static_cast<size_t>(num_queries_);
  GRETA_DCHECK(outs->size() == nq);
  if (graph_links_.empty()) {
    auto it = results_.find(wid);
    if (it == results_.end()) return;
    for (size_t q = 0; q < nq; ++q) {
      (*outs)[q].Merge(it->second[q], AggAt(q));
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
      (*outs)[q].AccumulateEnd(*u->cell(wid, q), AggAt(q));
    }
  });
}

void GretaGraph::ForgetWindow(WindowId wid) {
  if (results_cache_ != nullptr && results_cache_wid_ == wid) {
    results_cache_ = nullptr;
  }
  results_.erase(wid);
}

void GretaGraph::Purge(Ts watermark) {
  if (exec_->window.unbounded()) return;
  Ts cutoff = WindowStartTime(FirstWindowOf(watermark, exec_->window),
                              exec_->window);
  // Wholesale pane deletion: the pane store releases each dropped pane's
  // charged bytes in one step (no per-vertex accounting walk).
  panes_.PurgeBefore(cutoff);
}

size_t GretaGraph::ApproxBytes() const {
  size_t bytes = panes_.ApproxBytes();
  bytes += results_.size() *
           (sizeof(WindowId) + num_queries_ * sizeof(AggOutputs) + 16);
  return bytes;
}

}  // namespace greta
