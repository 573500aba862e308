#include "core/engine.h"

#include <algorithm>
#include <chrono>

#include "common/simd.h"
#include "storage/window.h"

namespace greta {

namespace {

PlannerOptions PlannerOptionsFrom(const EngineOptions& options) {
  PlannerOptions popts;
  popts.counter_mode = options.counter_mode;
  popts.semantics = options.semantics;
  popts.max_windows_per_event = options.max_windows_per_event;
  popts.enable_tree_ranges = options.enable_tree_ranges;
  popts.enable_pruning = options.enable_pruning;
  popts.enable_specialized_kernels = options.enable_specialized_kernels;
  popts.enable_batch_kernels = options.enable_batch_kernels;
  popts.enable_simd = options.enable_simd;
  return popts;
}

}  // namespace

StatusOr<std::unique_ptr<GretaEngine>> GretaEngine::Create(
    const Catalog* catalog, const QuerySpec& spec,
    const EngineOptions& options) {
  StatusOr<std::unique_ptr<ExecPlan>> plan =
      BuildPlan(spec, *catalog, PlannerOptionsFrom(options));
  if (!plan.ok()) return plan.status();
  return std::unique_ptr<GretaEngine>(
      new GretaEngine(catalog, std::move(plan).value(), options));
}

StatusOr<std::unique_ptr<GretaEngine>> GretaEngine::CreateMulti(
    const Catalog* catalog, const std::vector<const QuerySpec*>& specs,
    const EngineOptions& options) {
  StatusOr<std::unique_ptr<ExecPlan>> plan =
      BuildSharedPlan(specs, *catalog, PlannerOptionsFrom(options));
  if (!plan.ok()) return plan.status();
  return std::unique_ptr<GretaEngine>(
      new GretaEngine(catalog, std::move(plan).value(), options));
}

StatusOr<std::unique_ptr<GretaEngine>> GretaEngine::CreatePartial(
    const Catalog* catalog, const std::vector<const QuerySpec*>& specs,
    const EngineOptions& options) {
  StatusOr<std::unique_ptr<ExecPlan>> plan =
      BuildPartialSharedPlan(specs, *catalog, PlannerOptionsFrom(options));
  if (!plan.ok()) return plan.status();
  return std::unique_ptr<GretaEngine>(
      new GretaEngine(catalog, std::move(plan).value(), options));
}

GretaEngine::GretaEngine(const Catalog* catalog,
                         std::unique_ptr<ExecPlan> plan,
                         const EngineOptions& options)
    : catalog_(catalog),
      plan_(std::move(plan)),
      options_(options),
      memory_(options.memory != nullptr ? options.memory : &own_memory_),
      pane_pool_(std::make_unique<PanePool<GraphVertex>>(memory_)) {
  emitted_.resize(plan_->num_queries());
  for (const auto& [type, ids] : plan_->key_attr_ids) {
    if (static_cast<size_t>(type) >= route_table_.size()) {
      route_table_.resize(type + 1, nullptr);
    }
    route_table_[type] = &ids;
  }
#if GRETA_TELEMETRY
  // Arm the instruments once; the hot path only tests cached pointers.
  telemetry::MetricRegistry& reg = telemetry::MetricRegistry::Default();
  tm_.events_routed = reg.CounterIf("greta_core_events_routed_total");
  tm_.vertices_created = reg.CounterIf("greta_core_vertices_created_total");
  tm_.edges_traversed = reg.CounterIf("greta_core_edges_traversed_total");
  tm_.windows_closed = reg.CounterIf("greta_core_windows_closed_total");
  tm_.emit_ns = reg.HistogramIf("greta_core_window_emit_ns");
  tm_.pane_bytes = reg.GaugeIf("greta_core_pane_bytes");
  tm_.trace = reg.TraceIf();
  for (const AlternativePlan& alt : plan_->alternatives) {
    for (const GraphPlan& gp : alt.graphs) {
      ++kernel_per_delivery_[static_cast<size_t>(gp.kernel)];
    }
  }
  static constexpr const char* kKernelSeries[kNumPropKernels] = {
      "greta_core_kernel_dispatch_total{kernel=\"count_modular\"}",
      "greta_core_kernel_dispatch_total{kernel=\"count_exact\"}",
      "greta_core_kernel_dispatch_total{kernel=\"generic\"}",
      "greta_core_kernel_dispatch_total{kernel=\"partial\"}",
  };
  for (size_t k = 0; k < kNumPropKernels; ++k) {
    if (kernel_per_delivery_[k] > 0) {
      tm_.kernel_dispatch[k] = reg.CounterIf(kKernelSeries[k]);
    }
  }
  static constexpr const char* kBatchFallbackSeries
      [GretaGraph::kNumBatchFallbackReasons] = {
          "greta_core_batch_fallback_rows_total{reason=\"disabled\"}",
          "greta_core_batch_fallback_rows_total{reason=\"semantics\"}",
          "greta_core_batch_fallback_rows_total{reason=\"negation\"}",
          "greta_core_batch_fallback_rows_total{reason=\"bounds\"}",
      };
  for (size_t r = 0; r < GretaGraph::kNumBatchFallbackReasons; ++r) {
    tm_.batch_fallback[r] = reg.CounterIf(kBatchFallbackSeries[r]);
  }
  static constexpr const char* kBatchStrategySeries
      [GretaGraph::kNumBatchStrategies] = {
          "greta_core_batch_rows_total{strategy=\"shared_fold\"}",
          "greta_core_batch_rows_total{strategy=\"suffix_merge\"}",
          "greta_core_batch_rows_total{strategy=\"per_event\"}",
      };
  for (size_t r = 0; r < GretaGraph::kNumBatchStrategies; ++r) {
    tm_.batch_strategy[r] = reg.CounterIf(kBatchStrategySeries[r]);
  }
  // Per-ISA SIMD coverage: one series labeled with the ISA this process
  // dispatched at startup (runtime detection + GRETA_SIMD override), plus a
  // build-info style constant gauge so scrapes can tell apart hosts/modes.
  const char* isa = simd::IsaName(simd::DispatchedIsa());
  std::string simd_series = "greta_core_simd_rows_total{isa=\"";
  simd_series += isa;
  simd_series += "\"}";
  tm_.simd_rows = reg.CounterIf(simd_series);
  tm_.panes_fresh = reg.CounterIf("greta_core_panes_total{source=\"fresh\"}");
  tm_.panes_recycled =
      reg.CounterIf("greta_core_panes_total{source=\"recycled\"}");
  std::string info_series = "greta_build_info{simd=\"";
  info_series += isa;
  info_series += "\"}";
  if (telemetry::Gauge* g = reg.GaugeIf(info_series)) g->Set(1.0);
#endif
}

GretaEngine::~GretaEngine() {
  // Partition map overhead is charged to the (possibly shared) tracker at
  // GetOrCreatePartition; the pane stores release their own bytes on
  // destruction, but the partition overhead must be released here or a
  // workload-wide tracker would keep stale bytes after this engine is
  // retired mid-run (adaptive migration, src/sharing/).
  for (const auto& [key, partition] : partitions_) {
    (void)partition;
    memory_->Release(sizeof(Partition) + key.size() * sizeof(Value));
  }
}

size_t GretaEngine::num_queries() const { return plan_->num_queries(); }

Status GretaEngine::Process(const Event& e) {
  if (saw_events_ && e.time < watermark_) {
    return Status::InvalidArgument(
        "events must arrive in-order by timestamp (Section 2)");
  }
  if (!next_close_valid_ && !plan_->window.unbounded()) {
    next_close_ = FirstWindowOf(e.time, plan_->window);
    next_close_valid_ = true;
  }
  AdvanceTime(e.time);
  watermark_ = e.time;
  saw_events_ = true;
  ++stats_.events_processed;

  Route(e);
  stats_.peak_bytes = memory_->peak_bytes();
  return Status::Ok();
}

Status GretaEngine::ProcessBatch(const EventBatch& batch) {
  if (batch.empty()) return Status::Ok();
  if (!batch.time_ordered() || (saw_events_ && batch.time(0) < watermark_)) {
    return Status::InvalidArgument(
        "events must arrive in-order by timestamp (Section 2)");
  }
  if (!next_close_valid_ && !plan_->window.unbounded()) {
    next_close_ = FirstWindowOf(batch.time(0), plan_->window);
    next_close_valid_ = true;
  }
  const simd::Kernels& kd = simd::Dispatch();
  // One watermark advance and one routing pass per equal-timestamp run; the
  // per-partition row groups then reach the graphs through InsertBatch.
  const Ts* times = batch.times().data();
  size_t i = 0;
  while (i < batch.size()) {
    const Ts ts = batch.time(i);
    size_t j = kd.run_split(times, i, batch.size());
    AdvanceTime(ts);
    watermark_ = ts;
    saw_events_ = true;
    stats_.events_processed += j - i;
    RouteRun(batch, i, j);
    i = j;
  }
  // peak_bytes is monotone, so one refresh after the batch observes the
  // same peak the scalar per-event refresh would.
  stats_.peak_bytes = memory_->peak_bytes();
  return Status::Ok();
}

Status GretaEngine::AdvanceWatermark(Ts now) {
  if (saw_events_ && now <= watermark_) return Status::Ok();
  AdvanceTime(now);
  if (saw_events_) watermark_ = now;
  return Status::Ok();
}

void GretaEngine::AdvanceTime(Ts now) { CloseWindowsUpTo(now); }

void GretaEngine::CloseWindowsUpTo(Ts now) {
  if (plan_->window.unbounded() || !next_close_valid_) return;
  bool closed_any = false;
  while (WindowCloseTime(next_close_, plan_->window) <= now) {
    EmitWindow(next_close_);
    ++next_close_;
    closed_any = true;
  }
  if (closed_any) {
    for (auto& [key, partition] : partitions_) {
      (void)key;
      for (AltRuntime& alt : partition->alts) {
        for (std::unique_ptr<GretaGraph>& g : alt.graphs) g->Purge(now);
      }
    }
    // Expired panes just entered the pool; the ones no partition took
    // since the previous close leave it.
    pane_pool_->Trim();
    // Broadcast events older than one window length can no longer share a
    // window with any future partition member.
    while (!broadcast_buffer_.empty() &&
           broadcast_buffer_.front().event.time + plan_->window.within <=
               now) {
      broadcast_buffer_.pop_front();
    }
    GRETA_TM_SET(tm_.pane_bytes,
                 static_cast<double>(memory_->current_bytes()));
    GRETA_TM(if (tm_.trace != nullptr) {
      telemetry::TraceEvent e;
      e.kind = telemetry::TraceKind::kPanePurge;
      e.ts = now;
      e.a = memory_->current_bytes();
      tm_.trace->Emit(e);
    });
  }
}

void GretaEngine::EmitWindow(WindowId wid) {
  // Close-to-emit latency: this call IS the span between a window closing
  // (watermark passes its close time) and its rows being handed to
  // callbacks / the emit queues, so one wall-clock measurement of it is the
  // per-window emission latency. Measured unconditionally (two clock reads
  // per window close) because the per-query EXPLAIN tallies need it even
  // when the metric registry is disarmed.
  const uint64_t emit_start_ns = telemetry::SteadyNowNs();
#if GRETA_TELEMETRY
  size_t tm_rows = 0;
#endif
  const size_t nq = plan_->num_queries();
  if (query_stats_.size() < nq) {
    query_stats_.resize(nq);
    for (size_t q = 0; q < nq; ++q) query_stats_[q].query_id = q;
  }
  // Group merge without a hash map: every partition's outputs land in
  // reused scratch (nq slots per partition), the entries are sorted by
  // (query, group, partition iteration order), and each run of equal groups
  // merges in that order — the order a per-window hash merge over the
  // partitions would use, so rows are bit-identical (floating-point SUM
  // included).
  const size_t ng = plan_->num_group_attrs;
  emit_outs_.clear();
  emit_entries_.clear();
  for (auto& [key, partition] : partitions_) {
    const size_t base = emit_outs_.size();
    emit_outs_.resize(base + nq);
    AggOutputs* accs = emit_outs_.data() + base;
    if (plan_->groups.size() <= 1) {
      // Disjoint alternatives sum (one term group); every query slot is
      // collected in the same structural pass.
      if (!plan_->groups.empty()) {
        for (int idx : plan_->groups[0].alternative_indices) {
          partition->alts[idx].graphs[0]->CollectWindowAll(wid, accs);
        }
      }
    } else {
      // Conjunction: product over term groups of each group's total count
      // (Section 9; COUNT(*) only, enforced by the planner for every query
      // of a shared cluster — so all slots carry the same product).
      BigUInt product(1);
      bool all_nonzero = true;
      for (const TermGroupPlan& group : plan_->groups) {
        AggOutputs group_acc;
        for (int idx : group.alternative_indices) {
          partition->alts[idx].graphs[0]->CollectWindow(wid, &group_acc);
        }
        if (!group_acc.any || group_acc.count.IsZero()) {
          all_nonzero = false;
          break;
        }
        product = product.Mul(group_acc.count.ToBig());
      }
      if (all_nonzero) {
        for (size_t q = 0; q < nq; ++q) {
          accs[q].count = Counter::FromBig(product, plan_->mode);
          accs[q].any = true;
        }
      }
    }
    for (size_t q = 0; q < nq; ++q) {
      if (!accs[q].any) continue;
      emit_entries_.push_back({key.data(), static_cast<uint32_t>(q),
                               static_cast<uint32_t>(base + q)});
    }
  }
  std::sort(emit_entries_.begin(), emit_entries_.end(),
            [ng](const EmitEntry& a, const EmitEntry& b) {
              if (a.q != b.q) return a.q < b.q;
              const int c = CompareGroups(a.key, ng, b.key, ng);
              if (c != 0) return c < 0;
              return a.out < b.out;
            });
  for (size_t i = 0; i < emit_entries_.size();) {
    const EmitEntry& first = emit_entries_[i];
    const size_t q = first.q;
    const AggPlan& qagg = plan_->query_aggs.empty() ? plan_->agg
                                                    : plan_->query_aggs[q];
    ResultRow row;
    row.wid = wid;
    row.group.assign(first.key, first.key + ng);
    row.aggs.Merge(emit_outs_[first.out], qagg);
    size_t j = i + 1;
    for (; j < emit_entries_.size() && emit_entries_[j].q == q &&
           SameKeys(emit_entries_[j].key, first.key, ng);
         ++j) {
      row.aggs.Merge(emit_outs_[emit_entries_[j].out], qagg);
    }
    i = j;
    ++query_stats_[q].rows_emitted;
#if GRETA_TELEMETRY
    ++tm_rows;
#endif
    if (q < result_callbacks_.size() && result_callbacks_[q]) {
      result_callbacks_[q](row);
    }
    emitted_[q].push_back(std::move(row));
  }

  // Release per-window state and, in the same walk, snapshot the window
  // observation (cumulative graph counters -> deltas since the last close).
  size_t total_vertices = 0;
  size_t total_edges = 0;
  [[maybe_unused]] uint64_t batch_fb[GretaGraph::kNumBatchFallbackReasons] = {
      0, 0, 0, 0};
  [[maybe_unused]] uint64_t batch_st[GretaGraph::kNumBatchStrategies] = {0, 0,
                                                                         0};
  [[maybe_unused]] uint64_t simd_total = 0;
  for (auto& [key, partition] : partitions_) {
    (void)key;
    for (AltRuntime& alt : partition->alts) {
      for (std::unique_ptr<GretaGraph>& g : alt.graphs) {
        g->ForgetWindow(wid);
        total_vertices += g->total_vertices();
        total_edges += g->edges_traversed();
        for (size_t r = 0; r < GretaGraph::kNumBatchFallbackReasons; ++r) {
          batch_fb[r] += g->batch_fallback_rows()[r];
        }
        for (size_t r = 0; r < GretaGraph::kNumBatchStrategies; ++r) {
          batch_st[r] += g->batch_strategy_rows()[r];
        }
        GRETA_TM(simd_total += g->simd_rows());
      }
      for (std::unique_ptr<NegationLink>& link : alt.links) {
        link->ForgetWindow(wid);
      }
    }
  }

  WindowObservation obs;
  obs.wid = wid;
  obs.close_time = WindowCloseTime(wid, plan_->window);
  obs.events_routed = obs_events_routed_;
  obs.vertices_created = total_vertices - obs_prev_vertices_;
  obs.edges_traversed = total_edges - obs_prev_edges_;
  obs_events_routed_ = 0;
  obs_prev_vertices_ = total_vertices;
  obs_prev_edges_ = total_edges;
  constexpr size_t kMaxUndrainedObservations = 256;
  if (window_obs_.size() >= kMaxUndrainedObservations) {
    window_obs_.pop_front();
  }
  window_obs_.push_back(obs);

  // Per-query EXPLAIN ANALYZE tallies: the same per-close deltas attributed
  // to every query slot of the (possibly merged) runtime. Plain members,
  // one pass per window close.
  const uint64_t emit_span_ns = telemetry::SteadyNowNs() - emit_start_ns;
  for (QueryExecStats& qs : query_stats_) {
    qs.windows_closed += 1;
    qs.events_routed += obs.events_routed;
    qs.vertices_created += obs.vertices_created;
    qs.edges_traversed += obs.edges_traversed;
    qs.emit_ns += emit_span_ns;
  }

#if GRETA_TELEMETRY
  GRETA_TM_ADD(tm_.windows_closed, 1);
  GRETA_TM_ADD(tm_.events_routed, obs.events_routed);
  GRETA_TM_ADD(tm_.vertices_created, obs.vertices_created);
  GRETA_TM_ADD(tm_.edges_traversed, obs.edges_traversed);
  const uint64_t deliveries = tm_deliveries_ - tm_prev_deliveries_;
  tm_prev_deliveries_ = tm_deliveries_;
  for (size_t k = 0; k < kNumPropKernels; ++k) {
    if (tm_.kernel_dispatch[k] != nullptr) {
      tm_.kernel_dispatch[k]->Add(kernel_per_delivery_[k] * deliveries);
    }
  }
  // Batch coverage: cumulative graph counters -> per-close deltas, plus the
  // engine-side negation rows (scalar schedule; attributed per close too).
  batch_fb[static_cast<size_t>(GretaGraph::BatchFallbackReason::kNegation)] +=
      batch_negation_rows_;
  for (size_t r = 0; r < GretaGraph::kNumBatchFallbackReasons; ++r) {
    const uint64_t delta = batch_fb[r] - tm_prev_batch_fallback_[r];
    tm_prev_batch_fallback_[r] = batch_fb[r];
    if (delta != 0) GRETA_TM_ADD(tm_.batch_fallback[r], delta);
  }
  for (size_t r = 0; r < GretaGraph::kNumBatchStrategies; ++r) {
    const uint64_t delta = batch_st[r] - tm_prev_batch_strategy_[r];
    tm_prev_batch_strategy_[r] = batch_st[r];
    if (delta != 0) GRETA_TM_ADD(tm_.batch_strategy[r], delta);
  }
  {
    const uint64_t delta = simd_total - tm_prev_simd_rows_;
    tm_prev_simd_rows_ = simd_total;
    if (delta != 0) GRETA_TM_ADD(tm_.simd_rows, delta);
  }
  {
    const uint64_t fresh = pane_pool_->panes_created();
    const uint64_t recycled = pane_pool_->panes_recycled();
    if (fresh != tm_prev_panes_fresh_) {
      GRETA_TM_ADD(tm_.panes_fresh, fresh - tm_prev_panes_fresh_);
    }
    if (recycled != tm_prev_panes_recycled_) {
      GRETA_TM_ADD(tm_.panes_recycled, recycled - tm_prev_panes_recycled_);
    }
    tm_prev_panes_fresh_ = fresh;
    tm_prev_panes_recycled_ = recycled;
  }
  if (tm_.emit_ns != nullptr) {
    tm_.emit_ns->Record(emit_span_ns);
  }
  if (tm_.trace != nullptr) {
    telemetry::TraceEvent e;
    e.kind = telemetry::TraceKind::kWindowClose;
    e.ts = obs.close_time;
    e.wid = static_cast<int64_t>(wid);
    e.a = tm_rows;
    e.b = obs.vertices_created;
    tm_.trace->Emit(e);
  }
#endif
}

std::vector<WindowObservation> GretaEngine::TakeWindowObservations() {
  std::vector<WindowObservation> out(window_obs_.begin(), window_obs_.end());
  window_obs_.clear();
  return out;
}

void GretaEngine::Route(const Event& e) {
  if (static_cast<size_t>(e.type) >= route_table_.size() ||
      route_table_[e.type] == nullptr) {
    return;  // Irrelevant type.
  }
  ++obs_events_routed_;
  const std::vector<AttrId>& ids = *route_table_[e.type];

  bool full = true;
  for (AttrId id : ids) full &= (id != kInvalidAttr);

  if (full) {
    route_key_.clear();
    for (AttrId id : ids) route_key_.push_back(e.attr(id));
    Partition* p = GetOrCreatePartition(route_key_, e.seq);
    GRETA_TM(++tm_deliveries_);
    DeliverToPartition(p, e);
    return;
  }

  // Broadcast routing: the type lacks some key attributes (e.g. Accident
  // has a segment but no vehicle in Q3); deliver to every partition that
  // agrees on the attributes it does carry, now and in the future.
  BroadcastEvent b;
  b.event = e;
  b.has_attr.resize(ids.size());
  b.key_values.resize(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    b.has_attr[i] = (ids[i] != kInvalidAttr);
    if (b.has_attr[i]) b.key_values[i] = e.attr(ids[i]);
  }
  for (auto& [key, partition] : partitions_) {
    if (BroadcastMatches(b, key)) {
      GRETA_TM(++tm_deliveries_);
      DeliverToPartition(partition.get(), e);
    }
  }
  broadcast_buffer_.push_back(std::move(b));
}

void GretaEngine::RouteRun(const EventBatch& batch, size_t begin, size_t end) {
  // The routing decisions are exactly Route()'s, taken row-wise over the
  // batch columns; rows landing in the same partition are grouped (epoch
  // slots, no per-run hash map) so each partition sees one InsertBatch call
  // per run instead of one Insert per event. Row order is preserved within
  // every group, and groups of distinct partitions touch disjoint state, so
  // delivery order across groups is immaterial.
  ++route_epoch_;
  run_groups_used_ = 0;
  auto group_row = [&](Partition* p, size_t row) {
    if (p->group_epoch != route_epoch_) {
      if (run_groups_used_ == run_groups_.size()) run_groups_.emplace_back();
      RunGroup& g = run_groups_[run_groups_used_];
      g.partition = p;
      g.rows.clear();
      p->group_epoch = route_epoch_;
      p->group_slot = static_cast<uint32_t>(run_groups_used_);
      ++run_groups_used_;
    }
    run_groups_[p->group_slot].rows.push_back(static_cast<uint32_t>(row));
  };

  for (size_t i = begin; i < end; ++i) {
    const TypeId type = batch.type(i);
    if (static_cast<size_t>(type) >= route_table_.size() ||
        route_table_[type] == nullptr) {
      continue;  // Irrelevant type.
    }
    ++obs_events_routed_;
    const std::vector<AttrId>& ids = *route_table_[type];

    bool full = true;
    for (AttrId id : ids) full &= (id != kInvalidAttr);

    if (full) {
      const EventRef ref = batch.ref(i);
      route_key_.clear();
      for (AttrId id : ids) route_key_.push_back(ref.attr(id));
      Partition* p = GetOrCreatePartition(route_key_, ref.seq);
      GRETA_TM(++tm_deliveries_);
      group_row(p, i);
      continue;
    }

    // Broadcast routing (see Route()): group the row into every matching
    // partition now and buffer it for partitions created later. The replay
    // in GetOrCreatePartition delivers buffered rows immediately, which
    // stays ordered: a new partition's group only holds rows at or after
    // its creating event.
    BroadcastEvent b;
    b.event = batch.ToEvent(i);
    b.has_attr.resize(ids.size());
    b.key_values.resize(ids.size());
    for (size_t a = 0; a < ids.size(); ++a) {
      b.has_attr[a] = (ids[a] != kInvalidAttr);
      if (b.has_attr[a]) b.key_values[a] = b.event.attr(ids[a]);
    }
    for (auto& [key, partition] : partitions_) {
      if (BroadcastMatches(b, key)) {
        GRETA_TM(++tm_deliveries_);
        group_row(partition.get(), i);
      }
    }
    broadcast_buffer_.push_back(std::move(b));
  }

  for (size_t g = 0; g < run_groups_used_; ++g) {
    DeliverBatchToPartition(run_groups_[g].partition, batch,
                            run_groups_[g].rows);
  }
}

bool GretaEngine::BroadcastMatches(const BroadcastEvent& b,
                                   const std::vector<Value>& key) const {
  for (size_t i = 0; i < b.has_attr.size(); ++i) {
    if (b.has_attr[i] && !SameKey(b.key_values[i], key[i])) return false;
  }
  return true;
}

GretaEngine::Partition* GretaEngine::GetOrCreatePartition(
    const std::vector<Value>& key, SeqNo upto) {
  auto it = partitions_.find(key);
  if (it != partitions_.end()) return it->second.get();

  if (run_scratch_ == nullptr) run_scratch_ = std::make_unique<RunScratch>();
  auto partition = std::make_unique<Partition>();
  partition->alts.reserve(plan_->alternatives.size());
  for (const AlternativePlan& alt_plan : plan_->alternatives) {
    AltRuntime alt;
    for (const GraphPlan& gp : alt_plan.graphs) {
      alt.graphs.push_back(
          std::make_unique<GretaGraph>(&gp, plan_.get(), memory_,
                                       pane_pool_.get(), run_scratch_.get()));
    }
    // Wire negation links: negative graph i reports into the graph it
    // invalidates (its parent), per its placement case.
    for (size_t i = 1; i < alt_plan.graphs.size(); ++i) {
      const GraphPlan& gp = alt_plan.graphs[i];
      GretaGraph* parent = alt.graphs[gp.parent].get();
      const GretaTemplate& parent_templ =
          alt_plan.graphs[gp.parent].templ;
      int transition = -1;
      if (gp.link_kind == NegationKind::kBetween) {
        transition = parent_templ.FindTransition(gp.prev_state, gp.foll_state);
      }
      auto link = std::make_unique<NegationLink>(gp.link_kind, transition,
                                                 gp.foll_state);
      alt.graphs[i]->SetOutLink(link.get());
      switch (gp.link_kind) {
        case NegationKind::kBetween:
          parent->AttachTransitionLink(transition, link.get());
          break;
        case NegationKind::kTrailing:
          parent->AttachGraphLink(link.get());
          break;
        case NegationKind::kLeading:
          parent->AttachFollowLink(link.get());
          break;
        case NegationKind::kNone:
          GRETA_CHECK(false);
      }
      alt.links.push_back(std::move(link));
    }
    partition->alts.push_back(std::move(alt));
  }

  Partition* raw = partition.get();
  partitions_.emplace(key, std::move(partition));
  memory_->Add(sizeof(Partition) + key.size() * sizeof(Value));

  // Replay buffered broadcast events that precede the creating event.
  for (const BroadcastEvent& b : broadcast_buffer_) {
    if (b.event.seq >= upto) break;
    if (BroadcastMatches(b, key)) {
      GRETA_TM(++tm_deliveries_);
      DeliverToPartition(raw, b.event);
    }
  }
  return raw;
}

void GretaEngine::DeliverToPartition(Partition* p, const Event& e) {
  for (AltRuntime& alt : p->alts) {
    // Negative graphs first: purely cosmetic (barriers are time-based and
    // order-independent), but it mirrors the paper's scheduler which runs
    // graphs a graph depends on first.
    for (size_t i = alt.graphs.size(); i-- > 0;) {
      alt.graphs[i]->Insert(e);
    }
  }
}

void GretaEngine::DeliverBatchToPartition(Partition* p,
                                          const EventBatch& batch,
                                          const std::vector<uint32_t>& rows) {
  for (AltRuntime& alt : p->alts) {
    if (alt.graphs.size() == 1) {
      // No negation: the whole row group goes through the (possibly
      // amortized) batch insert. Alternatives hold disjoint graph state, so
      // alt-major order is equivalent to the scalar event-major order.
      alt.graphs[0]->InsertBatch(batch, rows.data(), rows.size());
      continue;
    }
    // Negation: keep the scalar per-event schedule — negative graphs first
    // (reverse order), event by event. The graphs' own InsertBatch never
    // runs here, so the fallback is tallied engine-side.
    batch_negation_rows_ += rows.size();
    for (uint32_t row : rows) {
      const EventRef ref = batch.ref(row);
      for (size_t g = alt.graphs.size(); g-- > 0;) {
        alt.graphs[g]->Insert(ref);
      }
    }
  }
}

Status GretaEngine::Flush() {
  if (!saw_events_) return Status::Ok();
  if (plan_->window.unbounded()) {
    if (!flushed_unbounded_) {
      EmitWindow(0);
      flushed_unbounded_ = true;
    }
  } else if (next_close_valid_) {
    WindowId last = LastWindowOf(watermark_, plan_->window);
    while (next_close_ <= last) {
      EmitWindow(next_close_);
      ++next_close_;
    }
  }
  RefreshAggregateStats();
  return Status::Ok();
}

std::vector<ResultRow> GretaEngine::TakeResults() {
  // EngineInterface contract: drain everything. For a multi-query runtime
  // that is every query slot in query order — otherwise rows of slots
  // 1..n-1 would accumulate unbounded behind a generic harness.
  //
  // Refreshing the aggregate stats walks every partition's graphs, and
  // harnesses drain after every event — skip it while there is nothing to
  // drain (Flush() refreshes unconditionally, so final stats are exact).
  bool any = false;
  for (const std::vector<ResultRow>& rows : emitted_) any |= !rows.empty();
  if (!any) return {};
  RefreshAggregateStats();
  std::vector<ResultRow> out = std::move(emitted_[0]);
  emitted_[0].clear();
  for (size_t q = 1; q < emitted_.size(); ++q) {
    out.insert(out.end(), std::make_move_iterator(emitted_[q].begin()),
               std::make_move_iterator(emitted_[q].end()));
    emitted_[q].clear();
  }
  return out;
}

size_t GretaEngine::RecomputeTrackedBytes() const {
  size_t bytes = pane_pool_->RecomputeApproxBytes();
  for (const auto& [key, partition] : partitions_) {
    bytes += sizeof(Partition) + key.size() * sizeof(Value);
    for (const AltRuntime& alt : partition->alts) {
      for (const std::unique_ptr<GretaGraph>& g : alt.graphs) {
        bytes += g->RecomputeTrackedBytes();
      }
    }
  }
  return bytes;
}

std::vector<ResultRow> GretaEngine::TakeResultsFor(size_t q) {
  GRETA_CHECK(q < emitted_.size());
  if (emitted_[q].empty()) return {};
  RefreshAggregateStats();
  std::vector<ResultRow> out = std::move(emitted_[q]);
  emitted_[q].clear();
  return out;
}

void GretaEngine::RefreshAggregateStats() {
  size_t vertices = 0;
  size_t edges = 0;
  size_t batch_fast = 0;
  size_t batch_fallback = batch_negation_rows_;
  size_t simd_rows = 0;
  for (const auto& [key, partition] : partitions_) {
    (void)key;
    for (const AltRuntime& alt : partition->alts) {
      for (const std::unique_ptr<GretaGraph>& g : alt.graphs) {
        vertices += g->total_vertices();
        edges += g->edges_traversed();
        for (size_t r = 0; r < GretaGraph::kNumBatchStrategies; ++r) {
          batch_fast += g->batch_strategy_rows()[r];
        }
        for (size_t r = 0; r < GretaGraph::kNumBatchFallbackReasons; ++r) {
          batch_fallback += g->batch_fallback_rows()[r];
        }
        simd_rows += g->simd_rows();
      }
    }
  }
  stats_.vertices_stored = vertices;
  stats_.edges_traversed = edges;
  stats_.work_units = edges;
  stats_.peak_bytes = memory_->peak_bytes();
  stats_.batch_rows_fast = batch_fast;
  stats_.batch_rows_fallback = batch_fallback;
  stats_.simd_rows = simd_rows;
  stats_.panes_created = pane_pool_->panes_created();
  stats_.panes_recycled = pane_pool_->panes_recycled();
}

}  // namespace greta
