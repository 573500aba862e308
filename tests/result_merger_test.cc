// ResultMerger (src/runtime/result_merger.h): the k-way merge of per-shard
// rows must be bit-identical to a hash merge that visits the shards in
// ascending order and each shard's rows in staged order — FP SUM included,
// whatever order the shards staged in — for duplicate groups within one
// shard, a shard whose rows arrive out of group order (the defensive
// re-sort), empty shards, NaN and mixed int/double group keys, and
// unbounded windows released by MarkFlushed.

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <unordered_map>
#include <vector>

#include "gtest/gtest.h"
#include "runtime/result_merger.h"
#include "tests/test_util.h"

namespace greta {
namespace {

using runtime::ResultMerger;
using testing::ExpectBitIdenticalRows;
using testing::SameBits;

AggPlan SumMinMaxPlan() {
  AggPlan plan;
  plan.mode = CounterMode::kExact;
  plan.need_sum = true;
  plan.need_min = true;
  plan.need_max = true;
  return plan;
}

ResultRow Row(WindowId wid, Value group, uint64_t count, double sum) {
  ResultRow row;
  row.wid = wid;
  row.group = {group};
  row.aggs.count = Counter(count);
  row.aggs.sum = sum;
  row.aggs.min = sum;
  row.aggs.max = sum;
  row.aggs.any = true;
  return row;
}

// The merge the k-way merge replaced: one hash map per window, shards in
// ascending order, then SortRows.
std::vector<ResultRow> HashMerge(
    const std::vector<std::vector<ResultRow>>& per_shard, WindowId wid,
    const AggPlan& plan) {
  std::unordered_map<std::vector<Value>, AggOutputs, ValueVecHash, ValueVecEq>
      merged;
  std::vector<std::vector<Value>> order;
  for (const std::vector<ResultRow>& rows : per_shard) {
    for (const ResultRow& row : rows) {
      auto [slot, inserted] = merged.try_emplace(row.group);
      if (inserted) order.push_back(row.group);
      slot->second.Merge(row.aggs, plan);
    }
  }
  std::vector<ResultRow> out;
  for (std::vector<Value>& group : order) {
    ResultRow row;
    row.wid = wid;
    row.aggs = merged[group];
    row.group = std::move(group);
    out.push_back(std::move(row));
  }
  SortRows(&out);
  return out;
}

// Stages one window's rows per shard in `stage_order`, releases the window
// through the shard clocks, and returns the merged rows.
std::vector<ResultRow> MergeOneWindow(
    const std::vector<std::vector<ResultRow>>& per_shard,
    const std::vector<size_t>& stage_order, Ts close_time) {
  ResultMerger merger(per_shard.size(), {WindowSpec::Tumbling(close_time)},
                      {SumMinMaxPlan()});
  for (size_t s : stage_order) merger.Stage(s, 0, per_shard[s]);
  for (size_t s = 0; s < per_shard.size(); ++s) {
    merger.PublishClock(s, close_time);
  }
  merger.Merge();
  return merger.TakeReady(0);
}

TEST(ResultMerger, FloatingPointSumMergesInAscendingShardOrder) {
  // 1e16 + 1 rounds back to 1e16, so only the ascending order 0, 1, 2
  // yields exactly 0; staging runs in the opposite order.
  std::vector<std::vector<ResultRow>> per_shard = {
      {Row(0, Value::Int(7), 1, 1e16)},
      {Row(0, Value::Int(7), 1, 1.0)},
      {Row(0, Value::Int(7), 1, -1e16)},
  };
  std::vector<ResultRow> got = MergeOneWindow(per_shard, {2, 1, 0}, 10);
  ExpectBitIdenticalRows(HashMerge(per_shard, 0, SumMinMaxPlan()), got);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_TRUE(SameBits(got[0].aggs.sum, 0.0)) << got[0].aggs.sum;
  EXPECT_EQ(got[0].aggs.count.ToDecimal(), "3");
}

TEST(ResultMerger, DuplicateGroupsFromOneShardMergeInStagedOrder) {
  std::vector<std::vector<ResultRow>> per_shard = {
      {Row(0, Value::Int(1), 1, 1e16), Row(0, Value::Int(1), 2, 1.0),
       Row(0, Value::Int(2), 3, 0.5)},
      {Row(0, Value::Int(1), 4, -1e16), Row(0, Value::Int(3), 5, 2.5)},
  };
  std::vector<ResultRow> got = MergeOneWindow(per_shard, {0, 1}, 10);
  ExpectBitIdenticalRows(HashMerge(per_shard, 0, SumMinMaxPlan()), got);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].aggs.count.ToDecimal(), "7");
}

TEST(ResultMerger, OutOfOrderShardRowsTakeTheResortPath) {
  std::vector<std::vector<ResultRow>> per_shard = {
      {Row(0, Value::Int(3), 1, 0.1), Row(0, Value::Int(1), 2, 1e16),
       Row(0, Value::Int(2), 3, 0.3), Row(0, Value::Int(1), 4, 1.0)},
      {Row(0, Value::Int(2), 5, 0.7), Row(0, Value::Int(1), 6, -1e16)},
  };
  std::vector<ResultRow> got = MergeOneWindow(per_shard, {1, 0}, 10);
  ExpectBitIdenticalRows(HashMerge(per_shard, 0, SumMinMaxPlan()), got);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].group[0].AsInt(), 1);
  EXPECT_TRUE(SameBits(got[0].aggs.sum, 0.0)) << got[0].aggs.sum;
}

TEST(ResultMerger, EmptyShardsAndMixedKindKeys) {
  // Int 4 and double 4.0 are one group (operator==), keyed by the first
  // shard's value; every NaN is one group too (SameKey), as in one engine.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<std::vector<ResultRow>> per_shard = {
      {},
      {Row(0, Value::Int(4), 1, 1.5), Row(0, Value::Double(nan), 2, 2.0)},
      {},
      {Row(0, Value::Double(4.0), 3, 0.25), Row(0, Value::Double(nan), 4, 3.0)},
  };
  std::vector<ResultRow> got = MergeOneWindow(per_shard, {3, 2, 1, 0}, 10);
  ExpectBitIdenticalRows(HashMerge(per_shard, 0, SumMinMaxPlan()), got);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].group[0].kind(), Value::Kind::kInt);
  EXPECT_EQ(got[0].aggs.count.ToDecimal(), "4");
  EXPECT_TRUE(SameBits(got[0].aggs.sum, 1.75));
  EXPECT_TRUE(std::isnan(got[1].group[0].AsDouble()));
  // The NaN rows fold in ascending shard order.
  EXPECT_EQ(got[1].aggs.count.ToDecimal(), "6");
  EXPECT_TRUE(SameBits(got[1].aggs.sum, 5.0));

  std::vector<std::vector<ResultRow>> all_empty(3);
  EXPECT_TRUE(MergeOneWindow(all_empty, {0, 1, 2}, 10).empty());
}

TEST(ResultMerger, UnboundedWindowWaitsForMarkFlushed) {
  const WindowSpec unbounded = WindowSpec::Unbounded();
  ResultMerger merger(2, {unbounded}, {SumMinMaxPlan()});
  std::vector<std::vector<ResultRow>> per_shard = {
      {Row(0, Value::Int(2), 1, 0.5), Row(0, Value::Int(5), 2, 1.0)},
      {Row(0, Value::Int(2), 3, 0.25)},
  };
  merger.Stage(1, 0, per_shard[1]);
  merger.Stage(0, 0, per_shard[0]);
  merger.PublishClock(0, kMaxTs - 1);
  merger.PublishClock(1, kMaxTs - 1);
  merger.Merge();
  EXPECT_FALSE(merger.HasReady());
  EXPECT_EQ(merger.pending_windows(), 1u);
  merger.MarkFlushed();
  ExpectBitIdenticalRows(HashMerge(per_shard, 0, SumMinMaxPlan()),
                         merger.TakeReady(0));
  EXPECT_EQ(merger.pending_windows(), 0u);
}

// Randomized differential over many windows staged in pieces: each shard's
// rows of a window arrive in group order (as engines emit them) with
// occasional duplicates, except on a few windows that are shuffled.
TEST(ResultMerger, RandomWindowsMatchHashMerge) {
  std::mt19937_64 rng(11);
  constexpr size_t kShards = 3;
  constexpr Ts kWithin = 5;
  for (int round = 0; round < 40; ++round) {
    ResultMerger merger(kShards, {WindowSpec::Tumbling(kWithin)}, {SumMinMaxPlan()});
    std::vector<ResultRow> want;
    for (WindowId wid = 0; wid < 6; ++wid) {
      std::vector<std::vector<ResultRow>> per_shard(kShards);
      for (size_t s = 0; s < kShards; ++s) {
        const int n = static_cast<int>(rng() % 6);
        for (int i = 0; i < n; ++i) {
          const int64_t g = static_cast<int64_t>(rng() % 8);
          const double sum =
              static_cast<double>(static_cast<int64_t>(rng() % 2001) - 1000) *
              (rng() % 2 == 0 ? 1e15 : 0.1);
          per_shard[s].push_back(Row(wid, Value::Int(g), rng() % 9 + 1, sum));
        }
        auto less = [](const ResultRow& a, const ResultRow& b) {
          return CompareGroups(a.group, b.group) < 0;
        };
        if (rng() % 4 != 0) {
          std::stable_sort(per_shard[s].begin(), per_shard[s].end(), less);
        }
      }
      std::vector<ResultRow> expected = HashMerge(per_shard, wid,
                                                  SumMinMaxPlan());
      want.insert(want.end(), expected.begin(), expected.end());
      // Stage each shard's rows in two pieces, shards interleaved.
      for (size_t s = kShards; s-- > 0;) {
        const size_t cut = per_shard[s].size() / 2;
        merger.Stage(s, 0, std::vector<ResultRow>(
                               per_shard[s].begin(),
                               per_shard[s].begin() + cut));
      }
      for (size_t s = 0; s < kShards; ++s) {
        const size_t cut = per_shard[s].size() / 2;
        merger.Stage(s, 0, std::vector<ResultRow>(
                               per_shard[s].begin() + cut,
                               per_shard[s].end()));
      }
      if (wid % 2 == 1) {
        for (size_t s = 0; s < kShards; ++s) {
          merger.PublishClock(s, (wid + 1) * kWithin);
        }
        merger.Merge();
      }
    }
    merger.MarkFlushed();
    ExpectBitIdenticalRows(want, merger.TakeReady(0));
  }
}

}  // namespace
}  // namespace greta
