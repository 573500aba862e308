// Tests for event trend grouping and equivalence predicates (Section 6):
// stream partitioning, GROUP-BY projection, and broadcast routing of event
// types lacking key attributes (Q3's accidents).

#include <cmath>
#include <limits>

#include "gtest/gtest.h"
#include "query/parser.h"
#include "runtime/sharded_runtime.h"
#include "tests/test_util.h"

namespace greta {
namespace {

using testing::ExpectMatchesOracle;
using testing::MakeGreta;
using testing::RunEngine;

std::unique_ptr<Catalog> GroupCatalog() {
  auto catalog = std::make_unique<Catalog>();
  catalog->DefineType("S", {{"company", Value::Kind::kInt},
                            {"sector", Value::Kind::kInt},
                            {"price", Value::Kind::kDouble}});
  catalog->DefineType("H", {{"sector", Value::Kind::kInt}});
  return catalog;
}

Event S(Catalog* c, Ts t, int64_t company, int64_t sector, double price) {
  return EventBuilder(c, "S", t)
      .Set("company", company)
      .Set("sector", sector)
      .Set("price", price)
      .Build();
}

TEST(GroupingTest, EquivalencePartitionsByCompany) {
  // S+ with [company]: trends never mix companies.
  auto catalog = GroupCatalog();
  auto spec = ParseQuery(
      "RETURN COUNT(*) PATTERN S+ WHERE [company]", catalog.get());
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  Stream stream;
  stream.Append(S(catalog.get(), 1, 1, 0, 10));
  stream.Append(S(catalog.get(), 2, 2, 0, 10));
  stream.Append(S(catalog.get(), 3, 1, 0, 10));
  stream.Append(S(catalog.get(), 4, 2, 0, 10));
  std::vector<ResultRow> rows =
      ExpectMatchesOracle(catalog.get(), spec.value(), stream);
  // Per company: 2 events -> 3 trends each; no grouping attrs -> one row
  // with the total 6.
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].aggs.count.ToDecimal(), "6");
}

TEST(GroupingTest, GroupByProjectsPartitionKeys) {
  // GROUP-BY sector with equivalence [company, sector]: counts are computed
  // per company and summed per sector (the Q1 shape).
  auto catalog = GroupCatalog();
  auto spec = ParseQuery(
      "RETURN sector, COUNT(*) PATTERN S+ WHERE [company, sector] "
      "GROUP-BY sector",
      catalog.get());
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  Stream stream;
  stream.Append(S(catalog.get(), 1, 1, 0, 10));  // sector 0, company 1
  stream.Append(S(catalog.get(), 2, 2, 0, 10));  // sector 0, company 2
  stream.Append(S(catalog.get(), 3, 1, 0, 10));  // sector 0, company 1
  stream.Append(S(catalog.get(), 4, 9, 5, 10));  // sector 5, company 9
  std::vector<ResultRow> rows =
      ExpectMatchesOracle(catalog.get(), spec.value(), stream);
  ASSERT_EQ(rows.size(), 2u);
  // Sector 0: company 1 has events {1,3} -> 3 trends; company 2 has {2} ->
  // 1 trend; total 4. Sector 5: 1 trend.
  EXPECT_EQ(rows[0].group[0].AsInt(), 0);
  EXPECT_EQ(rows[0].aggs.count.ToDecimal(), "4");
  EXPECT_EQ(rows[1].group[0].AsInt(), 5);
  EXPECT_EQ(rows[1].aggs.count.ToDecimal(), "1");
}

TEST(GroupingTest, EdgePredicateAppliesWithinPartition) {
  auto catalog = GroupCatalog();
  auto spec = ParseQuery(
      "RETURN COUNT(*) PATTERN S+ "
      "WHERE [company] AND S.price > NEXT(S).price",
      catalog.get());
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  Stream stream;
  // Company 1: prices 10, 8 (down-trend), company 2: 5, 9 (no pair).
  stream.Append(S(catalog.get(), 1, 1, 0, 10));
  stream.Append(S(catalog.get(), 2, 2, 0, 5));
  stream.Append(S(catalog.get(), 3, 1, 0, 8));
  stream.Append(S(catalog.get(), 4, 2, 0, 9));
  std::vector<ResultRow> rows =
      ExpectMatchesOracle(catalog.get(), spec.value(), stream);
  // Company 1: (s1), (s3), (s1,s3) = 3; company 2: (s2), (s4) = 2.
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].aggs.count.ToDecimal(), "5");
}

TEST(GroupingTest, BroadcastTypeReachesMatchingPartitions) {
  // SEQ(NOT H, S+) with [company, sector]: H carries only the sector, so a
  // halt must invalidate every company partition of that sector — including
  // partitions created after the halt arrived (replay).
  auto catalog = GroupCatalog();
  auto spec = ParseQuery(
      "RETURN COUNT(*) PATTERN SEQ(NOT H, S+) WHERE [company, sector]",
      catalog.get());
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  Stream stream;
  stream.Append(S(catalog.get(), 1, 1, 0, 10));
  stream.Append(
      EventBuilder(catalog.get(), "H", 2).Set("sector", int64_t{0}).Build());
  stream.Append(S(catalog.get(), 3, 1, 0, 10));  // Dead (after halt).
  stream.Append(S(catalog.get(), 4, 2, 0, 10));  // New partition, also dead.
  stream.Append(S(catalog.get(), 5, 3, 1, 10));  // Other sector: alive.
  std::vector<ResultRow> rows =
      ExpectMatchesOracle(catalog.get(), spec.value(), stream);
  // Survivors: (s1) in sector 0 company 1, (s5) in sector 1.
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].aggs.count.ToDecimal(), "2");
}

TEST(GroupingTest, MinMaxMergeAcrossPartitionsOfAGroup) {
  auto catalog = GroupCatalog();
  auto spec = ParseQuery(
      "RETURN sector, MIN(S.price), MAX(S.price), COUNT(S) "
      "PATTERN S+ WHERE [company, sector] GROUP-BY sector",
      catalog.get());
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  Stream stream;
  stream.Append(S(catalog.get(), 1, 1, 0, 10));
  stream.Append(S(catalog.get(), 2, 2, 0, 99));
  std::vector<ResultRow> rows =
      ExpectMatchesOracle(catalog.get(), spec.value(), stream);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_DOUBLE_EQ(rows[0].aggs.min, 10.0);
  EXPECT_DOUBLE_EQ(rows[0].aggs.max, 99.0);
  EXPECT_EQ(rows[0].aggs.type_count.ToDecimal(), "2");
}

TEST(GroupingTest, NanKeyIsOneGroupPerWindow) {
  // Regression: NaN != NaN once made every NaN-keyed event open a
  // partition of its own that was never removed, so this stream emitted
  // 1980 rows (one per event per window) and its tracked bytes never fell.
  // Every NaN is one key: the NaN stream must behave exactly like the same
  // stream keyed by a number, in one engine, in the oracle and in shards.
  Catalog catalog;
  for (const char* type : {"A", "B"}) {
    catalog.DefineType(type, {{"k", Value::Kind::kDouble},
                              {"x", Value::Kind::kDouble}});
  }
  auto spec = ParseQuery(
      "RETURN k, COUNT(*), SUM(A.x) PATTERN SEQ(A, B) GROUP-BY k "
      "WITHIN 4 SLIDE 2",
      &catalog);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  // 1000 events over 100 ticks, A and B alternating.
  auto make_stream = [&catalog](double k) {
    Stream stream;
    for (int i = 0; i < 1000; ++i) {
      stream.Append(EventBuilder(&catalog, i % 2 == 0 ? "A" : "B", i / 10)
                        .Set("k", k)
                        .Set("x", static_cast<double>(i % 7))
                        .Build());
    }
    return stream;
  };
  const Stream nan_stream =
      make_stream(std::numeric_limits<double>::quiet_NaN());
  const Stream num_stream = make_stream(1.5);

  std::vector<ResultRow> rows =
      ExpectMatchesOracle(&catalog, spec.value(), nan_stream);
  ASSERT_EQ(rows.size(), 50u);  // windows [0,4) .. [98,102): one row each
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].wid, static_cast<WindowId>(i));
    ASSERT_EQ(rows[i].group.size(), 1u);
    EXPECT_TRUE(std::isnan(rows[i].group[0].ToDouble()));
  }

  // Same rows and the same memory curve as the numeric key; the windows'
  // bytes are released once they close. Two watermark advances: the first
  // closes every window and pools its panes, the second trims the pool.
  auto nan_engine = MakeGreta(&catalog, spec.value());
  auto num_engine = MakeGreta(&catalog, spec.value());
  for (size_t i = 0; i < nan_stream.size(); ++i) {
    ASSERT_TRUE(nan_engine->Process(nan_stream.events()[i]).ok());
    ASSERT_TRUE(num_engine->Process(num_stream.events()[i]).ok());
  }
  for (Ts now : {Ts{200}, Ts{300}}) {
    ASSERT_TRUE(nan_engine->AdvanceWatermark(now).ok());
    ASSERT_TRUE(num_engine->AdvanceWatermark(now).ok());
  }
  std::vector<ResultRow> nan_rows = nan_engine->TakeResults();
  std::vector<ResultRow> num_rows = num_engine->TakeResults();
  ASSERT_EQ(nan_rows.size(), num_rows.size());
  for (size_t i = 0; i < nan_rows.size(); ++i) {
    EXPECT_EQ(nan_rows[i].wid, num_rows[i].wid);
    EXPECT_EQ(nan_rows[i].aggs.count.ToDecimal(),
              num_rows[i].aggs.count.ToDecimal());
    EXPECT_EQ(nan_rows[i].aggs.sum, num_rows[i].aggs.sum);
  }
  const MemoryTracker& nan_mem = nan_engine->memory();
  EXPECT_EQ(nan_mem.peak_bytes(), num_engine->memory().peak_bytes());
  EXPECT_EQ(nan_mem.current_bytes(), num_engine->memory().current_bytes());
  EXPECT_LT(nan_mem.current_bytes(), nan_mem.peak_bytes() / 4);

  // The shard router and the merger key groups the same way.
  std::vector<QuerySpec> workload;
  workload.push_back(spec.value().Clone());
  runtime::ShardedOptions options;
  options.num_shards = 2;
  auto sharded = runtime::ShardedRuntime::Create(&catalog, workload, options);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  ASSERT_EQ(sharded.value()->num_shards(), 2u);
  std::vector<ResultRow> sharded_rows =
      RunEngine(sharded.value().get(), nan_stream);
  std::string diff;
  EXPECT_TRUE(RowsEquivalent(sharded_rows, rows,
                             sharded.value()->agg_plan_for(0), &diff))
      << "2 shards vs one engine: " << diff;
}

TEST(GroupingTest, NanGroupKeyFoldsEveryPartitionOfTheGroup) {
  // Partition key [company, sector] is longer than GROUP-BY sector: eight
  // companies share sector NaN, so each window holds eight NaN partitions
  // that must fold into one NaN row — in one engine's emit, in the oracle
  // and in the sharded merger — exactly as they do for a numeric sector.
  Catalog catalog;
  for (const char* type : {"A", "B"}) {
    catalog.DefineType(type, {{"company", Value::Kind::kInt},
                              {"sector", Value::Kind::kDouble},
                              {"x", Value::Kind::kDouble}});
  }
  auto spec = ParseQuery(
      "RETURN sector, COUNT(*), SUM(A.x) PATTERN SEQ(A, B) "
      "WHERE [company, sector] GROUP-BY sector WITHIN 4 SLIDE 2",
      &catalog);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  constexpr int kCompanies = 8;
  auto make_stream = [&catalog](double sector) {
    Stream stream;
    for (int i = 0; i < 320; ++i) {
      stream.Append(EventBuilder(&catalog, i % 2 == 0 ? "A" : "B", i / 16)
                        .Set("company", static_cast<int64_t>(i / 2 % kCompanies))
                        .Set("sector", sector)
                        .Set("x", static_cast<double>(i % 5))
                        .Build());
    }
    return stream;
  };
  const Stream nan_stream =
      make_stream(std::numeric_limits<double>::quiet_NaN());
  const Stream num_stream = make_stream(2.0);

  std::vector<ResultRow> rows =
      ExpectMatchesOracle(&catalog, spec.value(), nan_stream);
  std::vector<ResultRow> num_rows =
      ExpectMatchesOracle(&catalog, spec.value(), num_stream);
  ASSERT_EQ(rows.size(), num_rows.size());
  ASSERT_EQ(rows.size(), 10u);  // windows [0,4) .. [18,22): one row each
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].wid, num_rows[i].wid);
    ASSERT_EQ(rows[i].group.size(), 1u);
    EXPECT_TRUE(std::isnan(rows[i].group[0].ToDouble()));
    EXPECT_EQ(rows[i].aggs.count.ToDecimal(),
              num_rows[i].aggs.count.ToDecimal());
    EXPECT_EQ(rows[i].aggs.sum, num_rows[i].aggs.sum);
  }

  std::vector<QuerySpec> workload;
  workload.push_back(spec.value().Clone());
  runtime::ShardedOptions options;
  options.num_shards = 2;
  auto sharded = runtime::ShardedRuntime::Create(&catalog, workload, options);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  ASSERT_EQ(sharded.value()->num_shards(), 2u);
  // Both shards hold NaN partitions, so the merger has rows to fold.
  bool shard_used[2] = {false, false};
  for (const Event& e : nan_stream.events()) {
    const int shard = sharded.value()->router().ShardOf(e);
    ASSERT_GE(shard, 0);
    shard_used[shard] = true;
  }
  ASSERT_TRUE(shard_used[0] && shard_used[1]);
  std::vector<ResultRow> sharded_rows =
      RunEngine(sharded.value().get(), nan_stream);
  std::string diff;
  EXPECT_TRUE(RowsEquivalent(sharded_rows, rows,
                             sharded.value()->agg_plan_for(0), &diff))
      << "2 shards vs one engine: " << diff;
}

TEST(GroupingTest, UnknownGroupAttributeIsPlanError) {
  auto catalog = GroupCatalog();
  auto spec = ParseQuery("RETURN COUNT(*) PATTERN S+ GROUP-BY nothere",
                         catalog.get());
  ASSERT_TRUE(spec.ok());
  auto engine = GretaEngine::Create(catalog.get(), spec.value());
  EXPECT_FALSE(engine.ok());
}

}  // namespace
}  // namespace greta
