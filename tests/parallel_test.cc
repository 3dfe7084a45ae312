// Tests for the parallel evaluation runtime: the work-stealing TaskPool and
// the determinism contract of the parallel DATALOG and fixpoint passes
// (docs/ARCHITECTURE.md, "Determinism contract").

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <numeric>
#include <random>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "src/base/metrics.h"
#include "src/base/task_pool.h"
#include "src/core/engine.h"
#include "src/core/query.h"
#include "src/core/spec_io.h"
#include "src/datalog/database.h"
#include "src/datalog/evaluator.h"
#include "src/parser/parser.h"

namespace relspec {
namespace {

using datalog::Database;
using datalog::DAtom;
using datalog::DRule;
using datalog::DTerm;
using datalog::EvalOptions;
using datalog::Evaluate;
using datalog::Relation;
using datalog::Strategy;
using datalog::Tuple;
using datalog::Value;

// ---------------------------------------------------------------------------
// TaskPool
// ---------------------------------------------------------------------------

TEST(TaskPool, SingleThreadedRunsInlineOverFullRange) {
  TaskPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1);
  std::vector<std::tuple<size_t, size_t, size_t>> calls;
  pool.ParallelFor(3, 17, 1, [&](size_t lo, size_t hi, size_t chunk) {
    calls.emplace_back(lo, hi, chunk);
  });
  ASSERT_EQ(calls.size(), 1u);
  EXPECT_EQ(calls[0], std::make_tuple(size_t{3}, size_t{17}, size_t{0}));
}

TEST(TaskPool, NumChunksRespectsGrainAndCap) {
  TaskPool pool(4);
  // An empty range has no chunks (ParallelFor invokes nothing); small
  // ranges collapse to one chunk per grain unit.
  EXPECT_EQ(pool.NumChunks(0, 1), 0u);
  EXPECT_EQ(pool.NumChunks(1, 1), 1u);
  EXPECT_EQ(pool.NumChunks(10, 100), 1u);
  // Large ranges are capped at kChunksPerThread per worker.
  EXPECT_EQ(pool.NumChunks(1'000'000, 1),
            4u * TaskPool::kChunksPerThread);
  // The grain bounds the chunk count from above.
  EXPECT_EQ(pool.NumChunks(6, 2), 3u);
}

TEST(TaskPool, ChunksPartitionTheRangeInOrder) {
  TaskPool pool(4);
  const size_t begin = 5, end = 1029;
  std::mutex mu;
  std::vector<std::tuple<size_t, size_t, size_t>> calls;
  pool.ParallelFor(begin, end, 1, [&](size_t lo, size_t hi, size_t chunk) {
    std::lock_guard<std::mutex> g(mu);
    calls.emplace_back(chunk, lo, hi);
  });
  ASSERT_EQ(calls.size(), pool.NumChunks(end - begin, 1));
  std::sort(calls.begin(), calls.end());
  size_t expect_lo = begin;
  for (size_t i = 0; i < calls.size(); ++i) {
    auto [chunk, lo, hi] = calls[i];
    EXPECT_EQ(chunk, i);
    EXPECT_EQ(lo, expect_lo);
    EXPECT_LT(lo, hi);
    expect_lo = hi;
  }
  EXPECT_EQ(expect_lo, end);
}

TEST(TaskPool, ChunkDecompositionIsDeterministic) {
  // Two pools with the same thread count must produce identical chunk
  // boundaries for the same range — the determinism contract hinges on it.
  auto boundaries = [](TaskPool& pool) {
    std::mutex mu;
    std::vector<std::tuple<size_t, size_t, size_t>> calls;
    pool.ParallelFor(0, 777, 3, [&](size_t lo, size_t hi, size_t chunk) {
      std::lock_guard<std::mutex> g(mu);
      calls.emplace_back(chunk, lo, hi);
    });
    std::sort(calls.begin(), calls.end());
    return calls;
  };
  TaskPool a(3), b(3);
  EXPECT_EQ(boundaries(a), boundaries(b));
}

TEST(TaskPool, AllWorkExecutesExactlyOnce) {
  TaskPool pool(8);
  const size_t n = 10'000;
  std::vector<std::atomic<int>> hits(n);
  pool.ParallelFor(0, n, 1, [&](size_t lo, size_t hi, size_t) {
    for (size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(TaskPool, SurvivesManySmallBatches) {
  TaskPool pool(4);
  std::atomic<size_t> total{0};
  for (int round = 0; round < 500; ++round) {
    pool.ParallelFor(0, 7, 1, [&](size_t lo, size_t hi, size_t) {
      total.fetch_add(hi - lo);
    });
  }
  EXPECT_EQ(total.load(), 500u * 7u);
}

TEST(TaskPool, NestedSequentialUseFromChunks) {
  // A chunk callback may do arbitrary work, including heavy allocation;
  // check sums survive a compute-bound fan-out.
  TaskPool pool(4);
  const size_t n = 64;
  std::vector<uint64_t> out(pool.NumChunks(n, 1));
  pool.ParallelFor(0, n, 1, [&](size_t lo, size_t hi, size_t chunk) {
    uint64_t acc = 0;
    for (size_t i = lo; i < hi; ++i) {
      std::vector<uint64_t> scratch(1000, i);
      acc = std::accumulate(scratch.begin(), scratch.end(), acc);
    }
    out[chunk] = acc;
  });
  uint64_t total = std::accumulate(out.begin(), out.end(), uint64_t{0});
  EXPECT_EQ(total, 1000u * (n * (n - 1) / 2));
}

// ---------------------------------------------------------------------------
// DATALOG determinism across thread counts
// ---------------------------------------------------------------------------

// Snapshot of every relation: rows in insertion order.
std::vector<std::vector<Tuple>> Snapshot(const Database& db) {
  std::vector<std::vector<Tuple>> out;
  for (PredId p : db.Predicates()) out.push_back(db.relation(p).CopyRows());
  return out;
}

// Deterministic sparse digraph edges over n nodes.
void InsertRandomEdges(Database* db, PredId edge, int n, int out_degree) {
  uint64_t lcg = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < n; ++i) {
    for (int e = 0; e < out_degree; ++e) {
      lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
      db->Insert(edge, {static_cast<Value>(i),
                        static_cast<Value>((lcg >> 33) % n)});
    }
  }
}

std::vector<DRule> ClosureRules(PredId edge, PredId reach) {
  DRule base;  // Reach(x,y) <- Edge(x,y).
  base.num_vars = 2;
  base.head = DAtom{reach, {DTerm::Var(0), DTerm::Var(1)}};
  base.body = {DAtom{edge, {DTerm::Var(0), DTerm::Var(1)}}};
  DRule step;  // Reach(x,z) <- Reach(x,y), Edge(y,z).
  step.num_vars = 3;
  step.head = DAtom{reach, {DTerm::Var(0), DTerm::Var(2)}};
  step.body = {DAtom{reach, {DTerm::Var(0), DTerm::Var(1)}},
               DAtom{edge, {DTerm::Var(1), DTerm::Var(2)}}};
  return {base, step};
}

class ThreadDeterminismTest : public ::testing::TestWithParam<Strategy> {};

TEST_P(ThreadDeterminismTest, ClosureIsByteIdenticalAcrossThreadCounts) {
  std::vector<std::vector<std::vector<Tuple>>> snapshots;
  std::vector<size_t> derived;
  for (int threads : {1, 2, 8}) {
    Database db;
    ASSERT_TRUE(db.Declare(0, 2).ok());
    ASSERT_TRUE(db.Declare(1, 2).ok());
    InsertRandomEdges(&db, 0, 48, 3);
    EvalOptions opts;
    opts.strategy = GetParam();
    opts.num_threads = threads;
    auto stats = Evaluate(ClosureRules(0, 1), &db, opts);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    snapshots.push_back(Snapshot(db));
    derived.push_back(stats->tuples_derived);
  }
  // Contents AND row order must match the 1-thread run exactly.
  EXPECT_EQ(snapshots[0], snapshots[1]);
  EXPECT_EQ(snapshots[0], snapshots[2]);
  EXPECT_EQ(derived[0], derived[1]);
  EXPECT_EQ(derived[0], derived[2]);
}

INSTANTIATE_TEST_SUITE_P(Strategies, ThreadDeterminismTest,
                         ::testing::Values(Strategy::kSemiNaive,
                                           Strategy::kNaive));

TEST(ThreadDeterminism, StratifiedNegationMatchesSequential) {
  // Unreach(x,y) <- Node(x), Node(y), !Reach(x,y): two strata, the upper one
  // reading the lower through negation.
  const PredId edge = 0, reach = 1, node = 2, unreach = 3;
  auto build = [&](Database* db) {
    ASSERT_TRUE(db->Declare(edge, 2).ok());
    ASSERT_TRUE(db->Declare(reach, 2).ok());
    ASSERT_TRUE(db->Declare(node, 1).ok());
    ASSERT_TRUE(db->Declare(unreach, 2).ok());
    const int n = 24;
    InsertRandomEdges(db, edge, n, 2);
    for (int i = 0; i < n; ++i) db->Insert(node, {static_cast<Value>(i)});
  };
  std::vector<DRule> rules = ClosureRules(edge, reach);
  {
    DRule r;
    r.num_vars = 2;
    r.head = DAtom{unreach, {DTerm::Var(0), DTerm::Var(1)}};
    DAtom neg{reach, {DTerm::Var(0), DTerm::Var(1)}};
    neg.negated = true;
    r.body = {DAtom{node, {DTerm::Var(0)}}, DAtom{node, {DTerm::Var(1)}}, neg};
    rules.push_back(r);
  }
  std::vector<std::vector<std::vector<Tuple>>> snapshots;
  for (int threads : {1, 2, 8}) {
    Database db;
    build(&db);
    EvalOptions opts;
    opts.num_threads = threads;
    auto stats = Evaluate(rules, &db, opts);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    ASSERT_FALSE(db.relation(unreach).empty());
    snapshots.push_back(Snapshot(db));
  }
  EXPECT_EQ(snapshots[0], snapshots[1]);
  EXPECT_EQ(snapshots[0], snapshots[2]);
}

TEST(ThreadDeterminism, ManySmallDeltasStress) {
  // A long path graph: the closure adds one small delta per round for ~n
  // rounds, exercising many tiny parallel passes (and the pool's repeated
  // batch startup/teardown) rather than a few big ones.
  std::vector<std::vector<std::vector<Tuple>>> snapshots;
  for (int threads : {1, 8}) {
    Database db;
    ASSERT_TRUE(db.Declare(0, 2).ok());
    ASSERT_TRUE(db.Declare(1, 2).ok());
    const int n = 96;
    for (int i = 0; i + 1 < n; ++i) {
      db.Insert(0, {static_cast<Value>(i), static_cast<Value>(i + 1)});
    }
    EvalOptions opts;
    opts.num_threads = threads;
    auto stats = Evaluate(ClosureRules(0, 1), &db, opts);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(db.relation(1).size(),
              static_cast<size_t>(n) * (n - 1) / 2);
    snapshots.push_back(Snapshot(db));
  }
  EXPECT_EQ(snapshots[0], snapshots[1]);
}

// ---------------------------------------------------------------------------
// Fixpoint determinism across thread counts
// ---------------------------------------------------------------------------

// A subset-family program: applying set_i keeps all bits and adds bit i,
// so the chi table holds 2^(n-1) distinct entries — enough parallel work
// to cover multi-chunk passes.
std::string SubsetSource(int n) {
  std::string out = "B(0, b0).\n";
  for (int i = 0; i < n; ++i) {
    std::string sym = "set" + std::to_string(i);
    out += "B(t, x) -> B(" + sym + "(t), x).\n";
    out += "B(t, x) -> B(" + sym + "(t), b" + std::to_string(i) + ").\n";
  }
  return out;
}

TEST(ThreadDeterminism, FixpointSpecIsByteIdenticalAcrossThreadCounts) {
  std::vector<std::string> specs;
  for (int threads : {1, 4}) {
    EngineOptions options;
    options.fixpoint.num_threads = threads;
    auto db = FunctionalDatabase::FromSource(SubsetSource(5), options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    auto spec = (*db)->BuildGraphSpec();
    ASSERT_TRUE(spec.ok()) << spec.status().ToString();
    specs.push_back(SpecIo::Serialize(*spec));
    // The converged table must be identical, not just the spec.
    EXPECT_GT((*db)->labeling().chi().num_entries(), 8u);
  }
  EXPECT_EQ(specs[0], specs[1]);
}

TEST(ThreadDeterminism, FixpointAnswersMatchSequential) {
  const char* source =
      "OnCall(0, alice).\n"
      "Rotate(alice, bob).\n"
      "Rotate(bob, carol).\n"
      "Rotate(carol, alice).\n"
      "OnCall(t, x), Rotate(x, y) -> OnCall(t+1, y).\n";
  std::vector<std::string> facts = {"OnCall(0, alice)", "OnCall(4, bob)",
                                    "OnCall(7, carol)", "OnCall(9, alice)"};
  std::vector<std::vector<bool>> answers;
  for (int threads : {1, 4}) {
    EngineOptions options;
    options.fixpoint.num_threads = threads;
    auto db = FunctionalDatabase::FromSource(source, options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    std::vector<bool> row;
    for (const std::string& f : facts) {
      auto holds = (*db)->HoldsFactText(f);
      ASSERT_TRUE(holds.ok()) << holds.status().ToString();
      row.push_back(*holds);
    }
    answers.push_back(row);
  }
  EXPECT_EQ(answers[0], answers[1]);
  // The rotation has period 3: alice at t % 3 == 0, bob at 1, carol at 2.
  EXPECT_TRUE(answers[0][0]);
  EXPECT_TRUE(answers[0][1]);
  EXPECT_FALSE(answers[0][2]);
  EXPECT_TRUE(answers[0][3]);
}

// --- shared QueryCache under contention (relspecd's serving cache) ----------

// Counter-reading fixture: the registry is process-global, so start clean
// and leave metrics disabled for the next suite.
class CacheStressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MetricsRegistry::Global().Reset();
    EnableMetrics(true);
  }
  void TearDown() override {
    EnableMetrics(false);
    MetricsRegistry::Global().Reset();
  }
};

TEST_F(CacheStressTest, SharedCacheHoldsBudgetsAndCountersUnderContention) {
  // Real answers up front (the cache charges QueryAnswer::ApproxBytes), so
  // the threads exercise only the cache itself: Lookup / Insert / Clear /
  // size / bytes racing across four threads, with max_entries far below the
  // key population to keep the LRU eviction path hot.
  auto db = FunctionalDatabase::FromSource(
      "OnCall(0, alice).\n"
      "Rotate(alice, bob).\n"
      "Rotate(bob, alice).\n"
      "OnCall(t, x), Rotate(x, y) -> OnCall(t+1, y).\n");
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  QueryCache warmup;
  std::vector<std::shared_ptr<const QueryAnswer>> answers;
  for (const char* text :
       {"?(t, x1) OnCall(t, x1).", "?(t) OnCall(t, alice).",
        "?(t) OnCall(t, bob).", "?(x1) Rotate(alice, x1)."}) {
    auto q = ParseQuery(text, (*db)->mutable_program());
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    auto a = AnswerQueryCached(db->get(), *q, &warmup);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    answers.push_back(*a);
  }
  // The warmup misses are not part of the ledger under test.
  MetricsRegistry::Global().Reset();

  QueryCache::Options copt;
  copt.max_entries = 4;
  QueryCache cache(copt);
  constexpr int kThreads = 4;
  constexpr int kRounds = 2000;
  constexpr int kKeys = 16;
  std::atomic<uint64_t> lookups{0};
  std::atomic<uint64_t> hits{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      std::mt19937 rng(static_cast<unsigned>(t) * 7919u + 3u);
      for (int i = 0; i < kRounds; ++i) {
        std::string key = "q";
        key += std::to_string(rng() % kKeys);
        auto hit = cache.Lookup(1, key);
        lookups.fetch_add(1, std::memory_order_relaxed);
        if (hit != nullptr) {
          hits.fetch_add(1, std::memory_order_relaxed);
        } else {
          cache.Insert(1, key, answers[rng() % answers.size()]);
        }
        // The budgets are invariants, not end states: every concurrent
        // observer must see them hold mid-flight.
        EXPECT_LE(cache.size(), copt.max_entries);
        EXPECT_LE(cache.bytes(), copt.max_bytes);
        if (t == 0 && i % 501 == 500) cache.Clear();
      }
    });
  }
  for (auto& w : workers) w.join();

  // Counter ledger: every Lookup incremented exactly one of hit/miss, and
  // every eviction traces back to a missed insert.
  MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(snap.counter("cache.hit"), hits.load());
  EXPECT_EQ(snap.counter("cache.hit") + snap.counter("cache.miss"),
            lookups.load());
  EXPECT_GT(snap.counter("cache.evict"), 0u)
      << "max_entries = 4 over 16 keys never evicted";
  EXPECT_LE(snap.counter("cache.evict"), snap.counter("cache.miss"));

  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
}

}  // namespace
}  // namespace relspec
