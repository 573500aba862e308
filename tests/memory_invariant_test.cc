// Memory accounting invariants: the O(1) incremental byte counters
// maintained at the allocation sites (pane creation, vertex insert, arena
// chunk growth, tree node growth) must equal a from-scratch recomputation —
// at any point mid-stream, at window close, and after Purge — and the
// MemoryTracker must see exactly the same totals. Expired panes wait in the
// engine's pane pool with their kept bytes still charged, so the
// recomputation counts the pool too, and every tracker returns to 0 once
// its engines are gone.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "gtest/gtest.h"
#include "query/parser.h"
#include "runtime/sharded_runtime.h"
#include "storage/pane.h"
#include "telemetry/exporters.h"
#include "telemetry/telemetry.h"
#include "tests/test_util.h"
#include "workload/stock.h"

namespace greta {
namespace {

using testing::MakeGreta;

QuerySpec Parse(const std::string& text, Catalog* catalog) {
  auto spec = ParseQuery(text, catalog);
  EXPECT_TRUE(spec.ok()) << text << ": " << spec.status().ToString();
  return std::move(spec).value();
}

// --- PaneStore level ---

struct PlainVertex {
  int64_t payload[6] = {0};
};

TEST(MemoryInvariant, PaneStoreIncrementalMatchesRecompute) {
  MemoryTracker tracker;
  {
    PaneStore<PlainVertex> store(10, 3, &tracker);
    for (Ts t = 0; t < 500; ++t) {
      // Arena allocations interleaved with inserts, like the graph does.
      Arena* arena = store.ArenaFor(t);
      arena->AllocateArray<int64_t>(static_cast<size_t>(t % 7) + 1);
      store.Insert(t, static_cast<size_t>(t % 3),
                   static_cast<double>(t % 13), PlainVertex{});
      if (t % 97 == 0) {
        EXPECT_EQ(store.ApproxBytes(), store.RecomputeApproxBytes())
            << "at t=" << t;
        EXPECT_EQ(tracker.current_bytes(), store.ApproxBytes());
      }
    }
    EXPECT_EQ(store.ApproxBytes(), store.RecomputeApproxBytes());
    EXPECT_EQ(tracker.current_bytes(), store.ApproxBytes());

    size_t freed = store.PurgeBefore(250);
    EXPECT_GT(freed, 0u);
    EXPECT_EQ(store.ApproxBytes(), store.RecomputeApproxBytes());
    EXPECT_EQ(tracker.current_bytes(), store.ApproxBytes());

    store.PurgeBefore(10000);
    EXPECT_EQ(store.RecomputeApproxBytes(), 0u);
    EXPECT_EQ(store.ApproxBytes(), 0u);
    EXPECT_EQ(tracker.current_bytes(), 0u);
  }
  // Destruction releases whatever was still charged.
  EXPECT_EQ(tracker.current_bytes(), 0u);
}

// --- Engine level ---

// Streams events through `spec` and asserts, at every window close (the
// engine emitted rows) and at the end, that the tracker's current bytes
// equal a from-scratch walk of every partition's panes.
void ExpectEngineInvariant(const std::string& text, CounterMode mode) {
  auto catalog = std::make_unique<Catalog>();
  RegisterStockTypes(catalog.get());
  QuerySpec spec = Parse(text, catalog.get());

  StockConfig config;
  config.seed = 23;
  config.num_companies = 5;
  config.num_sectors = 2;
  config.rate = 30;
  config.duration = 40;
  Stream stream = GenerateStockStream(catalog.get(), config);

  EngineOptions options;
  options.counter_mode = mode;
  auto engine = MakeGreta(catalog.get(), spec, options);

  size_t checks = 0;
  for (const Event& e : stream.events()) {
    ASSERT_TRUE(engine->Process(e).ok());
    std::vector<ResultRow> rows = engine->TakeResults();
    if (!rows.empty() || checks % 64 == 0) {
      // Window close (rows emitted) means ForgetWindow + Purge just ran.
      EXPECT_EQ(engine->RecomputeTrackedBytes(),
                engine->memory().current_bytes())
          << text << " after event seq " << e.seq;
    }
    ++checks;
  }
  ASSERT_TRUE(engine->Flush().ok());
  EXPECT_EQ(engine->RecomputeTrackedBytes(),
            engine->memory().current_bytes())
      << text << " after flush";
  EXPECT_GE(engine->memory().peak_bytes(), engine->memory().current_bytes());
}

TEST(MemoryInvariant, CountQuerySlidingWindow) {
  ExpectEngineInvariant(
      "RETURN sector, COUNT(*) PATTERN Stock S+ WHERE [company, sector] AND "
      "S.price > NEXT(S).price GROUP-BY sector WITHIN 10 seconds SLIDE 5 "
      "seconds",
      CounterMode::kModular);
}

TEST(MemoryInvariant, AttributeAggregatesExactMode) {
  ExpectEngineInvariant(
      "RETURN sector, MIN(S.price), MAX(S.price), AVG(S.price) PATTERN "
      "Stock S+ WHERE [company, sector] GROUP-BY sector WITHIN 8 seconds "
      "SLIDE 4 seconds",
      CounterMode::kExact);
}

// --- Sharded runtime level ---

// Each shard accounts into its own tracker (child of the workload roll-up):
// when the runtime is quiescent, every shard's incremental bytes must equal
// a from-scratch recomputation of that shard's engine, and the roll-up must
// equal the sum — the aggregation-safety contract of concurrent shards.
TEST(MemoryInvariant, ShardedPerShardTrackersSumIntoRollup) {
  auto catalog = std::make_unique<Catalog>();
  RegisterStockTypes(catalog.get());
  std::vector<QuerySpec> workload;
  workload.push_back(Parse(
      "RETURN sector, COUNT(*) PATTERN Stock S+ WHERE [company, sector] AND "
      "S.price > NEXT(S).price GROUP-BY sector WITHIN 10 seconds SLIDE 5 "
      "seconds",
      catalog.get()));
  workload.push_back(Parse(
      "RETURN sector, SUM(S.price) PATTERN Stock S+ WHERE [company, sector] "
      "AND S.price > NEXT(S).price GROUP-BY sector WITHIN 10 seconds SLIDE 5 "
      "seconds",
      catalog.get()));

  StockConfig config;
  config.seed = 31;
  config.num_companies = 8;
  config.num_sectors = 3;
  config.rate = 30;
  config.duration = 40;
  Stream stream = GenerateStockStream(catalog.get(), config);

  // The caller's tracker parents the roll-up: it must read 0 once the
  // runtime (shard engines, their pane pools) is gone.
  MemoryTracker caller;
  runtime::ShardedOptions options;
  options.num_shards = 4;
  options.batch_size = 16;
  options.heartbeat_events = 64;
  options.workload.engine.memory = &caller;
  auto rt = runtime::ShardedRuntime::Create(catalog.get(), workload, options);
  ASSERT_TRUE(rt.ok()) << rt.status().ToString();
  runtime::ShardedRuntime& runtime = *rt.value();
  ASSERT_EQ(runtime.num_shards(), 4u);

  // Quiescent checkpoints: Flush() drains every shard's queue, so the
  // engine walk cannot race the shard workers.
  size_t checkpoints = 0;
  for (const Event& e : stream.events()) {
    ASSERT_TRUE(runtime.Process(e).ok());
    if (e.seq % 256 == 0) {
      ASSERT_TRUE(runtime.Flush().ok());
      size_t sum = 0;
      for (size_t s = 0; s < runtime.num_shards(); ++s) {
        EXPECT_EQ(runtime.RecomputeShardTrackedBytes(s),
                  runtime.shard_memory(s).current_bytes())
            << "shard " << s << " at seq " << e.seq;
        sum += runtime.shard_memory(s).current_bytes();
      }
      EXPECT_EQ(runtime.memory().current_bytes(), sum)
          << "roll-up at seq " << e.seq;
      ++checkpoints;
    }
  }
  ASSERT_TRUE(runtime.Flush().ok());
  EXPECT_GT(checkpoints, 2u);

  size_t sum = 0;
  for (size_t s = 0; s < runtime.num_shards(); ++s) {
    EXPECT_EQ(runtime.RecomputeShardTrackedBytes(s),
              runtime.shard_memory(s).current_bytes())
        << "shard " << s << " after flush";
    sum += runtime.shard_memory(s).current_bytes();
  }
  EXPECT_EQ(runtime.memory().current_bytes(), sum) << "roll-up after flush";
  EXPECT_GE(runtime.memory().peak_bytes(), runtime.memory().current_bytes());
  EXPECT_GT(runtime.memory().peak_bytes(), 0u);
  EXPECT_EQ(caller.current_bytes(), runtime.memory().current_bytes());
  rt.value().reset();
  EXPECT_EQ(caller.current_bytes(), 0u);
}

// --- adaptive migration level ---

// Engines are created and RETIRED mid-run by adaptive re-planning: a
// retired engine must release everything it charged to the workload-wide
// tracker (pane bytes AND partition-map overhead), so the incremental
// accounting still equals a from-scratch walk of the LIVE engines after
// every migration, and peak_bytes stays a coherent point-in-time peak.
TEST(MemoryInvariant, AdaptiveMigrationReleasesRetiredEngines) {
  auto catalog = std::make_unique<Catalog>();
  RegisterStockTypes(catalog.get());
  std::vector<QuerySpec> workload;
  workload.push_back(Parse(
      "RETURN sector, COUNT(*), SUM(S.price) PATTERN Stock S+ "
      "WHERE [company, sector] AND S.price > NEXT(S).price "
      "GROUP-BY sector WITHIN 2 seconds SLIDE 2 seconds",
      catalog.get()));
  workload.push_back(Parse(
      "RETURN sector, COUNT(*), MIN(S.price) PATTERN Stock S+ "
      "WHERE [company, sector] AND S.price > NEXT(S).price "
      "GROUP-BY sector WITHIN 4 seconds SLIDE 2 seconds",
      catalog.get()));
  workload.push_back(Parse(
      "RETURN sector, COUNT(*), AVG(S.price) PATTERN Stock S+ "
      "WHERE [company, sector] AND S.price > NEXT(S).price "
      "GROUP-BY sector WITHIN 8 seconds SLIDE 2 seconds",
      catalog.get()));

  StockConfig config;
  config.seed = 97;
  config.num_companies = 5;
  config.num_sectors = 2;
  config.rate = 8;
  config.duration = 70;
  config.drift = 0.0;
  config.bursts.push_back({20, 45, 40.0, 1.0});  // split, then re-merge
  Stream stream = GenerateStockStream(catalog.get(), config);

  // Parent of the workload tracker: reads 0 once every engine, retired or
  // live, is gone.
  MemoryTracker caller;
  sharing::SharedEngineOptions options;
  options.adaptive.enabled = true;
  options.adaptive.observation_windows = 3;
  options.adaptive.min_windows_between_migrations = 4;
  options.adaptive.hysteresis = 1.2;
  options.engine.memory = &caller;
  auto engine =
      sharing::SharedWorkloadEngine::Create(catalog.get(), workload, options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  sharing::SharedWorkloadEngine& e = *engine.value();

  size_t checks = 0;
  for (const Event& ev : stream.events()) {
    ASSERT_TRUE(e.Process(ev).ok());
    std::vector<ResultRow> rows = e.TakeResults();
    if (!rows.empty() || checks % 64 == 0) {
      EXPECT_EQ(e.RecomputeTrackedBytes(), e.memory().current_bytes())
          << "after event seq " << ev.seq << " (migrations so far: "
          << e.total_migrations() << ")";
    }
    ++checks;
  }
  ASSERT_TRUE(e.Flush().ok());
  EXPECT_GE(e.total_migrations(), 2u)
      << "test is vacuous unless engines were retired mid-run";
  EXPECT_EQ(e.RecomputeTrackedBytes(), e.memory().current_bytes())
      << "after flush";
  EXPECT_GE(e.memory().peak_bytes(), e.memory().current_bytes());
  // Workload-level stats stay coherent across retirements: the retired
  // engines' structural work is preserved, never double-counted into a
  // sum that shrinks when units are destroyed.
  const EngineStats& stats = e.stats();
  EXPECT_GT(stats.vertices_stored, 0u);
  EXPECT_GT(stats.edges_traversed, 0u);
  EXPECT_GE(stats.peak_bytes, e.memory().current_bytes());
  EXPECT_EQ(caller.current_bytes(), e.memory().current_bytes());
  engine.value().reset();
  EXPECT_EQ(caller.current_bytes(), 0u);
}

// --- Pane recycling ---

// Two stores share one pool: a purged pane moves to the pool with its kept
// bytes still charged, a new pane in either store (even one with fewer
// buckets) comes from the pool, the reset tree and deque index only the
// new vertices, and Trim frees what sat unused through a whole interval.
TEST(MemoryInvariant, PanePoolKeepsBytesChargedUntilTrim) {
  MemoryTracker tracker;
  {
    PanePool<PlainVertex> pool(&tracker);
    PaneStore<PlainVertex> a(10, 3, &tracker, &pool);
    PaneStore<PlainVertex> b(10, 2, &tracker, &pool);
    auto fill = [](PaneStore<PlainVertex>* store, Ts lo, Ts hi) {
      for (Ts t = lo; t < hi; ++t) {
        store->ArenaFor(t)->AllocateArray<int64_t>(
            static_cast<size_t>(t % 5) + 1);
        store->Insert(t, static_cast<size_t>(t % 2),
                      static_cast<double>(t % 7), PlainVertex{});
      }
    };
    auto expect_invariant = [&](const char* where) {
      EXPECT_EQ(a.ApproxBytes(), a.RecomputeApproxBytes()) << where;
      EXPECT_EQ(b.ApproxBytes(), b.RecomputeApproxBytes()) << where;
      EXPECT_EQ(pool.ApproxBytes(), pool.RecomputeApproxBytes()) << where;
      EXPECT_EQ(tracker.current_bytes(),
                a.ApproxBytes() + b.ApproxBytes() + pool.ApproxBytes())
          << where;
    };

    fill(&a, 0, 100);  // 10 panes
    EXPECT_EQ(pool.panes_created(), 10u);
    EXPECT_EQ(pool.panes_recycled(), 0u);
    EXPECT_EQ(a.PurgeBefore(50), 50u);
    EXPECT_EQ(pool.size(), 5u);
    EXPECT_GT(pool.ApproxBytes(), 0u);
    expect_invariant("after purge");

    fill(&b, 0, 30);  // 3 panes, all recycled
    EXPECT_EQ(pool.panes_created(), 10u);
    EXPECT_EQ(pool.panes_recycled(), 3u);
    EXPECT_EQ(pool.size(), 2u);
    size_t seen = 0;
    for (size_t bucket = 0; bucket < 2; ++bucket) {
      b.ScanBucketAll(bucket, [&](PlainVertex*) { ++seen; });
    }
    EXPECT_EQ(seen, 30u);
    expect_invariant("after reuse");

    pool.Trim();  // nothing has sat through a whole interval yet
    EXPECT_EQ(pool.size(), 2u);
    pool.Trim();
    EXPECT_EQ(pool.size(), 0u);
    EXPECT_EQ(pool.ApproxBytes(), 0u);
    expect_invariant("after trim");

    a.PurgeBefore(1000);
    b.PurgeBefore(1000);
    EXPECT_EQ(tracker.current_bytes(), pool.ApproxBytes());
    expect_invariant("all pooled");
  }
  EXPECT_EQ(tracker.current_bytes(), 0u);
}

// Four events per tick over many partitions, keys drawn at random: a
// partition sees well under one event per window, so nearly every pane it
// opens is one that another partition let expire.
std::unique_ptr<Catalog> KeyedCatalog() {
  auto catalog = std::make_unique<Catalog>();
  catalog->DefineType("A", {{"k", Value::Kind::kInt},
                            {"x", Value::Kind::kDouble}});
  return catalog;
}

Stream SparseKeyedStream(Catalog* catalog, int partitions, Ts duration,
                         uint64_t seed) {
  Random rng(seed);
  Stream stream;
  for (Ts t = 0; t < duration; ++t) {
    for (int i = 0; i < 4; ++i) {
      stream.Append(EventBuilder(catalog, "A", t)
                        .Set("k", static_cast<int64_t>(
                                      rng.UniformInt(0, partitions - 1)))
                        .Set("x", static_cast<double>(rng.UniformInt(0, 99)))
                        .Build());
    }
  }
  return stream;
}

constexpr const char* kSparseQuery =
    "RETURN k, COUNT(*) PATTERN A S+ WHERE [k] AND S.x > NEXT(S).x "
    "GROUP-BY k WITHIN 4 seconds SLIDE 2 seconds";

TEST(MemoryInvariant, SparsePartitionsMatchRecomputeAtEveryClose) {
  auto catalog = KeyedCatalog();
  QuerySpec spec = Parse(kSparseQuery, catalog.get());
  Stream stream = SparseKeyedStream(catalog.get(), 64, 300, 3);

  MemoryTracker caller;
  EngineOptions options;
  options.counter_mode = CounterMode::kModular;
  options.memory = &caller;
  auto engine = MakeGreta(catalog.get(), spec, options);
  size_t closes = 0;
  size_t max_pooled = 0;
  for (const Event& e : stream.events()) {
    ASSERT_TRUE(engine->Process(e).ok());
    if (engine->TakeWindowObservations().empty()) continue;
    ++closes;
    const PanePool<GraphVertex>& pool = engine->pane_pool();
    max_pooled = std::max(max_pooled, pool.size());
    EXPECT_EQ(pool.ApproxBytes(), pool.RecomputeApproxBytes())
        << "at t=" << e.time;
    ASSERT_EQ(engine->RecomputeTrackedBytes(), caller.current_bytes())
        << "at t=" << e.time;
  }
  ASSERT_TRUE(engine->Flush().ok());
  EXPECT_EQ(engine->RecomputeTrackedBytes(), caller.current_bytes());
  EXPECT_GT(closes, 100u);
  EXPECT_GT(max_pooled, 0u) << "test is vacuous unless panes were pooled";
  EXPECT_GT(engine->stats().panes_recycled, 0u);
  engine.reset();
  EXPECT_EQ(caller.current_bytes(), 0u);
}

// Fresh panes stay bounded by the live partition-panes, however long the
// stream: each tick feeds the next four of 32 partitions round-robin, so
// every partition-pane holds one event and the panes one close expires are
// the panes the next interval opens. The counters are deterministic, and
// only the recycled count grows with stream length.
TEST(MemoryInvariant, FreshPanesStayBoundedOnLongSparseStream) {
  auto catalog = KeyedCatalog();
  QuerySpec spec = Parse(kSparseQuery, catalog.get());
  auto run = [&](Ts duration) {
    Stream stream;
    int64_t next = 0;
    for (Ts t = 0; t < duration; ++t) {
      for (int i = 0; i < 4; ++i) {
        stream.Append(EventBuilder(catalog.get(), "A", t)
                          .Set("k", next++ % 32)
                          .Set("x", static_cast<double>(t % 5))
                          .Build());
      }
    }
    auto engine = MakeGreta(catalog.get(), spec.Clone());
    testing::RunEngine(engine.get(), stream);
    return engine->stats();
  };
  const EngineStats short_run = run(200);
  const EngineStats long_run = run(800);
  const EngineStats repeat = run(800);
  EXPECT_EQ(long_run.panes_created, repeat.panes_created);
  EXPECT_EQ(long_run.panes_recycled, repeat.panes_recycled);
  EXPECT_EQ(long_run.panes_created, short_run.panes_created);
  // A window spans two panes and a third opens before the oldest expires.
  EXPECT_LE(long_run.panes_created, 3u * 32u);
  EXPECT_GT(long_run.panes_recycled, 3 * short_run.panes_recycled);
  EXPECT_GT(long_run.panes_recycled, 10 * long_run.panes_created);

#if GRETA_TELEMETRY
  // The registry series agree with the stats, flushed at window close.
  telemetry::MetricRegistry& reg = telemetry::MetricRegistry::Default();
  reg.Reset();
  reg.set_enabled(true);
  const EngineStats traced = run(800);
  uint64_t fresh = 0, recycled = 0;
  for (const auto& c : reg.ScrapeCounters()) {
    if (c.name == "greta_core_panes_total{source=\"fresh\"}") fresh = c.value;
    if (c.name == "greta_core_panes_total{source=\"recycled\"}") {
      recycled = c.value;
    }
  }
  EXPECT_EQ(fresh, traced.panes_created);
  EXPECT_EQ(recycled, traced.panes_recycled);
  const std::string report = telemetry::ExplainTelemetry(reg);
  EXPECT_NE(report.find("greta_core_panes_total{source=\"recycled\"}"),
            std::string::npos);
  EXPECT_NE(report.find("pane recycling"), std::string::npos);
  reg.Reset();
#endif
}

// A burst over many partitions, then one quiet partition: the burst's panes
// enter the pool when they expire and leave it at the next window close.
TEST(MemoryInvariant, BurstThenQuietFreesPooledPanesWithinOneClose) {
  auto catalog = KeyedCatalog();
  QuerySpec spec = Parse(
      "RETURN k, COUNT(*) PATTERN A S+ WHERE [k] GROUP-BY k "
      "WITHIN 2 seconds SLIDE 2 seconds",
      catalog.get());
  constexpr int kPartitions = 48;
  Stream stream;
  for (Ts t = 0; t < 40; ++t) {
    const int active = t < 10 ? kPartitions : 1;
    for (int k = 0; k < active; ++k) {
      stream.Append(EventBuilder(catalog.get(), "A", t)
                        .Set("k", static_cast<int64_t>(k))
                        .Set("x", 1.0)
                        .Build());
    }
  }
  auto engine = MakeGreta(catalog.get(), spec);
  // Windows close every 2 ticks. The burst's last panes expire at the
  // close at t=10 (the event that closes it has taken one pane back); the
  // next close, at t=12, must find them gone.
  size_t pooled_at_burst_end = 0;
  size_t closes_after = 0;
  for (const Event& e : stream.events()) {
    ASSERT_TRUE(engine->Process(e).ok());
    if (engine->TakeWindowObservations().empty()) continue;
    const size_t pooled = engine->pane_pool().size();
    EXPECT_EQ(engine->RecomputeTrackedBytes(),
              engine->memory().current_bytes());
    if (e.time == 10) pooled_at_burst_end = pooled;
    if (e.time >= 12) {
      EXPECT_LE(pooled, 1u) << "close at t=" << e.time;
      ++closes_after;
    }
  }
  EXPECT_EQ(pooled_at_burst_end, static_cast<size_t>(kPartitions - 1));
  EXPECT_GT(closes_after, 10u);
}

TEST(MemoryInvariant, TumblingWindowPurgesWholesale) {
  auto catalog = std::make_unique<Catalog>();
  RegisterStockTypes(catalog.get());
  QuerySpec spec = Parse(
      "RETURN COUNT(*) PATTERN Stock S+ WHERE [company] WITHIN 5 seconds "
      "SLIDE 5 seconds",
      catalog.get());

  StockConfig config;
  config.seed = 5;
  config.num_companies = 3;
  config.rate = 20;
  config.duration = 60;
  Stream stream = GenerateStockStream(catalog.get(), config);

  auto engine = MakeGreta(catalog.get(), spec);
  size_t mid_stream_bytes = 0;
  for (const Event& e : stream.events()) {
    ASSERT_TRUE(engine->Process(e).ok());
    if (e.time == 30) mid_stream_bytes = engine->memory().current_bytes();
  }
  ASSERT_TRUE(engine->Flush().ok());
  // Purge keeps current usage bounded: the end-of-stream footprint must not
  // exceed a small multiple of the mid-stream footprint (panes expire).
  EXPECT_EQ(engine->RecomputeTrackedBytes(),
            engine->memory().current_bytes());
  ASSERT_GT(mid_stream_bytes, 0u);
  EXPECT_LT(engine->memory().current_bytes(), 4 * mid_stream_bytes);
}

}  // namespace
}  // namespace greta
