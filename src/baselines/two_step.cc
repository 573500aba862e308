#include "baselines/two_step.h"

#include <algorithm>

#include "storage/window.h"

namespace greta {

TwoStepEngine::TwoStepEngine(const Catalog* catalog,
                             std::unique_ptr<ExecPlan> plan,
                             const TwoStepOptions& options, std::string name)
    : catalog_(catalog),
      plan_(std::move(plan)),
      options_(options),
      name_(std::move(name)),
      budget_(options.work_budget) {}

Status TwoStepEngine::Process(const Event& e) {
  if (saw_events_ && e.time < watermark_) {
    return Status::InvalidArgument(
        "events must arrive in-order by timestamp (Section 2)");
  }
  if (stats_.dnf) return Status::Ok();  // Inert after budget exhaustion.
  if (!next_close_valid_ && !plan_->window.unbounded()) {
    next_close_ = FirstWindowOf(e.time, plan_->window);
    next_close_valid_ = true;
  }
  CloseWindowsUpTo(e.time);
  watermark_ = e.time;
  saw_events_ = true;
  ++stats_.events_processed;
  if (!stats_.dnf) Route(e);
  stats_.peak_bytes = memory_.peak_bytes();
  stats_.work_units = budget_.used();
  return Status::Ok();
}

Status TwoStepEngine::Flush() {
  if (!saw_events_ || stats_.dnf) return Status::Ok();
  if (plan_->window.unbounded()) {
    if (!flushed_unbounded_) {
      EmitWindow(0);
      flushed_unbounded_ = true;
    }
  } else if (next_close_valid_) {
    WindowId last = LastWindowOf(watermark_, plan_->window);
    while (next_close_ <= last && !stats_.dnf) {
      EmitWindow(next_close_);
      ++next_close_;
    }
  }
  stats_.work_units = budget_.used();
  return Status::Ok();
}

std::vector<ResultRow> TwoStepEngine::TakeResults() {
  std::vector<ResultRow> out = std::move(emitted_);
  emitted_.clear();
  return out;
}

void TwoStepEngine::CloseWindowsUpTo(Ts now) {
  if (plan_->window.unbounded() || !next_close_valid_) return;
  bool closed = false;
  while (!stats_.dnf && WindowCloseTime(next_close_, plan_->window) <= now) {
    EmitWindow(next_close_);
    ++next_close_;
    closed = true;
  }
  if (closed) {
    // Batch-expire events no future window can reach.
    Ts cutoff = WindowStartTime(FirstWindowOf(now, plan_->window),
                                plan_->window);
    for (auto& [key, partition] : partitions_) {
      (void)key;
      while (!partition->events.empty() &&
             partition->events.front().time < cutoff) {
        memory_.Release(sizeof(Event) +
                        partition->events.front().attrs.capacity() *
                            sizeof(Value));
        partition->events.pop_front();
      }
    }
    while (!broadcast_buffer_.empty() &&
           broadcast_buffer_.front().event.time + plan_->window.within <=
               now) {
      broadcast_buffer_.pop_front();
    }
  }
}

bool TwoStepEngine::EvaluatePartitionWindow(Partition* partition,
                                            WindowId wid, AggOutputs* out) {
  Ts lo = WindowStartTime(wid, plan_->window);
  Ts hi = WindowCloseTime(wid, plan_->window);
  std::vector<const Event*> window_events;
  for (const Event& e : partition->events) {
    if (e.time >= lo && e.time < hi) window_events.push_back(&e);
  }
  if (window_events.empty()) return true;

  auto eval_alternative = [&](int idx, AggOutputs* acc) -> bool {
    const AlternativePlan& alt = plan_->alternatives[idx];
    std::vector<BuiltGraph> graphs;
    std::vector<InvalidationIndex> indexes;
    if (!BuildAlternativeGraphs(alt, *plan_, window_events, &budget_,
                                &graphs, &indexes)) {
      return false;
    }
    size_t graph_bytes = 0;
    for (const BuiltGraph& g : graphs) graph_bytes += g.ApproxBytes();
    memory_.Add(graph_bytes);
    bool ok = AggregateAlternative(graphs, indexes, &budget_, acc);
    memory_.Release(graph_bytes);
    return ok;
  };

  if (plan_->groups.size() <= 1) {
    if (!plan_->groups.empty()) {
      for (int idx : plan_->groups[0].alternative_indices) {
        if (!eval_alternative(idx, out)) return false;
      }
    }
    return true;
  }
  // Conjunction: product over term groups (COUNT(*) only; see planner).
  BigUInt product(1);
  bool all_nonzero = true;
  for (const TermGroupPlan& group : plan_->groups) {
    AggOutputs group_acc;
    for (int idx : group.alternative_indices) {
      if (!eval_alternative(idx, &group_acc)) return false;
    }
    if (!group_acc.any || group_acc.count.IsZero()) {
      all_nonzero = false;
      break;
    }
    product = product.Mul(group_acc.count.ToBig());
  }
  if (all_nonzero) {
    out->count = Counter::FromBig(product, plan_->mode);
    out->any = true;
  }
  return true;
}

void TwoStepEngine::EmitWindow(WindowId wid) {
  std::unordered_map<std::vector<Value>, AggOutputs, ValueVecHash, ValueVecEq>
      merged;
  for (auto& [key, partition] : partitions_) {
    AggOutputs acc;
    if (!EvaluatePartitionWindow(partition.get(), wid, &acc)) {
      stats_.dnf = true;
      emitted_.clear();
      return;
    }
    if (!acc.any) continue;
    std::vector<Value> group(key.begin(),
                             key.begin() + plan_->num_group_attrs);
    auto [it, inserted] = merged.try_emplace(std::move(group));
    (void)inserted;
    it->second.Merge(acc, plan_->agg);
  }
  std::vector<ResultRow> rows;
  rows.reserve(merged.size());
  for (auto& [group, outputs] : merged) {
    ResultRow row;
    row.wid = wid;
    row.group = group;
    row.aggs = std::move(outputs);
    rows.push_back(std::move(row));
  }
  SortRows(&rows);
  for (ResultRow& row : rows) emitted_.push_back(std::move(row));
}

void TwoStepEngine::Route(const Event& e) {
  auto ids_it = plan_->key_attr_ids.find(e.type);
  if (ids_it == plan_->key_attr_ids.end()) return;
  const std::vector<AttrId>& ids = ids_it->second;
  bool full = true;
  for (AttrId id : ids) full &= (id != kInvalidAttr);
  if (full) {
    std::vector<Value> key;
    key.reserve(ids.size());
    for (AttrId id : ids) key.push_back(e.attr(id));
    Deliver(GetOrCreatePartition(key, e.seq), e);
    return;
  }
  BroadcastEvent b;
  b.event = e;
  b.has_attr.resize(ids.size());
  b.key_values.resize(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    b.has_attr[i] = (ids[i] != kInvalidAttr);
    if (b.has_attr[i]) b.key_values[i] = e.attr(ids[i]);
  }
  for (auto& [key, partition] : partitions_) {
    if (BroadcastMatches(b, key)) Deliver(partition.get(), e);
  }
  broadcast_buffer_.push_back(std::move(b));
}

bool TwoStepEngine::BroadcastMatches(const BroadcastEvent& b,
                                     const std::vector<Value>& key) const {
  for (size_t i = 0; i < b.has_attr.size(); ++i) {
    if (b.has_attr[i] && !SameKey(b.key_values[i], key[i])) return false;
  }
  return true;
}

TwoStepEngine::Partition* TwoStepEngine::GetOrCreatePartition(
    const std::vector<Value>& key, SeqNo upto) {
  auto it = partitions_.find(key);
  if (it != partitions_.end()) return it->second.get();
  auto partition = std::make_unique<Partition>();
  partition->key = key;
  Partition* raw = partition.get();
  partitions_.emplace(key, std::move(partition));
  for (const BroadcastEvent& b : broadcast_buffer_) {
    if (b.event.seq >= upto) break;
    if (BroadcastMatches(b, key)) Deliver(raw, b.event);
  }
  return raw;
}

void TwoStepEngine::Deliver(Partition* p, const Event& e) {
  p->events.push_back(e);
  memory_.Add(sizeof(Event) + e.attrs.capacity() * sizeof(Value));
  ++stats_.vertices_stored;
}

void TwoStepEngine::AccumulateTrend(const BuiltGraph& graph,
                                    const std::vector<int32_t>& path,
                                    AggOutputs* out) const {
  const AggPlan& agg = plan_->agg;
  out->count.AddOne(agg.mode);
  if (agg.need_type_count || agg.need_min || agg.need_max || agg.need_sum) {
    uint64_t occurrences = 0;
    for (int32_t idx : path) {
      const Event& e = *graph.vertices[idx].event;
      if (e.type != agg.target_type) continue;
      ++occurrences;
      double attr = agg.target_attr == kInvalidAttr
                        ? 0.0
                        : e.attr(agg.target_attr).ToDouble();
      if (agg.need_min && attr < out->min) out->min = attr;
      if (agg.need_max && attr > out->max) out->max = attr;
      if (agg.need_sum) out->sum += attr;
    }
    if (agg.need_type_count) {
      out->type_count.Add(Counter(occurrences), agg.mode);
    }
  }
  out->any = true;
}

Ts TwoStepEngine::PositiveEndBarrier(
    const std::vector<BuiltGraph>& graphs,
    const std::vector<InvalidationIndex>& indexes) const {
  Ts barrier = kMinTs;
  for (size_t j = 1; j < graphs.size(); ++j) {
    const GraphPlan& gp = *graphs[j].plan;
    if (gp.parent == 0 && gp.link_kind == NegationKind::kTrailing) {
      barrier = std::max(barrier, indexes[j].MaxStart());
    }
  }
  return barrier;
}

}  // namespace greta
