#include "runtime/result_merger.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "storage/window.h"

namespace greta::runtime {

ResultMerger::ResultMerger(size_t num_shards,
                           std::vector<WindowSpec> emission_windows,
                           std::vector<AggPlan> agg_plans)
    : num_shards_(num_shards),
      emission_windows_(std::move(emission_windows)),
      agg_plans_(std::move(agg_plans)) {
  GRETA_CHECK(emission_windows_.size() == agg_plans_.size());
  stages_.reserve(num_shards_);
  for (size_t s = 0; s < num_shards_; ++s) {
    stages_.push_back(std::make_unique<ShardStage>());
    stages_.back()->per_query.resize(emission_windows_.size());
  }
  pending_.resize(emission_windows_.size());
  ready_.resize(emission_windows_.size());
}

void ResultMerger::Stage(size_t shard, size_t query,
                         std::vector<ResultRow> rows) {
  GRETA_DCHECK(shard < num_shards_ && query < emission_windows_.size());
  if (rows.empty()) return;
  ShardStage& stage = *stages_[shard];
  std::lock_guard<std::mutex> lock(stage.mu);
  std::vector<ResultRow>& staged = stage.per_query[query];
  staged.insert(staged.end(), std::make_move_iterator(rows.begin()),
                std::make_move_iterator(rows.end()));
}

void ResultMerger::PublishClock(size_t shard, Ts clock) {
  GRETA_DCHECK(shard < num_shards_);
  stages_[shard]->clock.store(clock, std::memory_order_release);
}

Ts ResultMerger::low_watermark() const {
  Ts low = kMaxTs;
  for (const std::unique_ptr<ShardStage>& stage : stages_) {
    Ts c = stage->clock.load(std::memory_order_acquire);
    if (c < low) low = c;
  }
  return low;
}

void ResultMerger::Merge() {
  // Read the clocks BEFORE harvesting: a shard publishes its clock only
  // after staging everything up to it, so whatever clock we observe is a
  // promise the harvest below has already fulfilled.
  const Ts low = flushed_ ? kMaxTs : low_watermark();

  const size_t nq = emission_windows_.size();
  for (size_t s = 0; s < num_shards_; ++s) {
    ShardStage& stage = *stages_[s];
    std::lock_guard<std::mutex> lock(stage.mu);
    for (size_t q = 0; q < nq; ++q) {
      std::vector<ResultRow>& staged = stage.per_query[q];
      if (staged.empty()) continue;
      // A shard stages a window's rows contiguously, so consecutive rows
      // overwhelmingly share one pending slot: look it up once per run.
      WindowId cached_wid = 0;
      std::vector<ResultRow>* cached = nullptr;
      for (ResultRow& row : staged) {
        if (cached == nullptr || row.wid != cached_wid) {
          cached_wid = row.wid;
          cached = &pending_[q]
                        .try_emplace(row.wid, num_shards_)
                        .first->second[s];
        }
        cached->push_back(std::move(row));
      }
      staged.clear();
    }
  }

  for (size_t q = 0; q < nq; ++q) {
    const WindowSpec& window = emission_windows_[q];
    auto it = pending_[q].begin();
    while (it != pending_[q].end()) {
      const bool window_ready =
          flushed_ ||
          (!window.unbounded() && WindowCloseTime(it->first, window) <= low);
      if (!window_ready) break;  // ascending map: later windows close later
      MergeWindow(q, it->first, &it->second);
      it = pending_[q].erase(it);
    }
  }
}

void ResultMerger::MergeWindow(size_t q, WindowId wid,
                               std::vector<std::vector<ResultRow>>* per_shard) {
  const AggPlan& plan = agg_plans_[q];
  auto group_less = [](const ResultRow& a, const ResultRow& b) {
    return CompareGroups(a.group, b.group) < 0;
  };
  // Engines emit a window's rows in group order; anything else (another
  // engine type, or a window staged in pieces) is re-sorted here. The sort
  // is stable, so one shard's duplicate groups keep their staged order.
  for (std::vector<ResultRow>& rows : *per_shard) {
    if (!std::is_sorted(rows.begin(), rows.end(), group_less)) {
      std::stable_sort(rows.begin(), rows.end(), group_less);
    }
  }
  heads_.assign(num_shards_, 0);
  std::vector<ResultRow>& out = ready_[q];
  for (;;) {
    // The least group among the shard heads; ties go to the lowest shard.
    size_t best = num_shards_;
    for (size_t s = 0; s < num_shards_; ++s) {
      if (heads_[s] == (*per_shard)[s].size()) continue;
      if (best == num_shards_ ||
          CompareGroups((*per_shard)[s][heads_[s]].group,
                        (*per_shard)[best][heads_[best]].group) < 0) {
        best = s;
      }
    }
    if (best == num_shards_) break;
    // Merge every row of that group in ascending shard order, each shard's
    // rows in staged order — the order a hash merge over the shards would
    // use, so rows are bit-identical.
    ResultRow& first = (*per_shard)[best][heads_[best]++];
    AggOutputs merged;
    merged.Merge(first.aggs, plan);
    for (size_t s = best; s < num_shards_; ++s) {
      std::vector<ResultRow>& rows = (*per_shard)[s];
      while (heads_[s] < rows.size() &&
             ValueVecEq()(rows[heads_[s]].group, first.group)) {
        merged.Merge(rows[heads_[s]++].aggs, plan);
      }
    }
    ResultRow row;
    row.wid = wid;
    row.group = std::move(first.group);
    row.aggs = std::move(merged);
    out.push_back(std::move(row));
  }
}

void ResultMerger::MarkFlushed() {
  flushed_ = true;
  Merge();
}

void ResultMerger::ClearFlushed() { flushed_ = false; }

std::vector<ResultRow> ResultMerger::TakeReady(size_t query) {
  GRETA_CHECK(query < ready_.size());
  std::vector<ResultRow> out = std::move(ready_[query]);
  ready_[query].clear();
  return out;
}

bool ResultMerger::HasReady() const {
  for (const std::vector<ResultRow>& rows : ready_) {
    if (!rows.empty()) return true;
  }
  return false;
}

}  // namespace greta::runtime
