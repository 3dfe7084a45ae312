// E21 — base-fact updates (paper Section 5, docs/INCREMENTAL.md): applying
// a delta through FunctionalDatabase::ApplyDeltas against rebuilding the
// whole database from the edited program with FromProgram.
//
// Expected shape: an effective toggle costs one FromProgram build of the
// edited program plus the delta parse and the commit, so it tracks the full
// recompute closely. Noop batches are near-free.

#include <benchmark/benchmark.h>

#include <string>
#include <utility>

#include "bench/bench_util.h"
#include "src/core/engine.h"

namespace {

using namespace relspec;
using namespace relspec_bench;

// WidePredicateProgram(n) plus an inert two-fact predicate: Q(1, c0) is
// the fact the benchmarks toggle, and the deeper Q(2, c0) keeps the trunk
// depth the same whether or not Q(1, c0) is present.
std::string WideWithInert(int n) {
  return WidePredicateProgram(n) + "Q(1, c0).\nQ(2, c0).\n";
}

std::unique_ptr<FunctionalDatabase> Build(benchmark::State& state,
                                          const std::string& source) {
  auto db = FunctionalDatabase::FromSource(source);
  if (!db.ok()) {
    state.SkipWithError(db.status().ToString().c_str());
    return nullptr;
  }
  return std::move(*db);
}

// Toggle an inert fact: delete while present, re-insert after. Every
// iteration is one effective single-fact batch.
void BM_Delta_Toggle(benchmark::State& state) {
  ScopedBenchMetrics bench_metrics(__func__);
  auto db = Build(state, WideWithInert(static_cast<int>(state.range(0))));
  if (!db) return;
  bool present = true;
  for (auto _ : state) {
    auto stats =
        db->ApplyDeltaText(present ? "- Q(1, c0).\n" : "+ Q(1, c0).\n");
    if (!stats.ok()) {
      state.SkipWithError(stats.status().ToString().c_str());
      return;
    }
    present = !present;
    benchmark::DoNotOptimize(stats);
  }
  state.counters["n"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_Delta_Toggle)->DenseRange(2, 14, 4);

// The from-scratch baseline for the same toggle: rebuild via FromProgram on
// the edited program (no delta parse, no commit).
void BM_Delta_FullRecompute(benchmark::State& state) {
  ScopedBenchMetrics bench_metrics(__func__);
  auto db = Build(state, WideWithInert(static_cast<int>(state.range(0))));
  if (!db) return;
  Program with = db->original_program();
  auto edited = db->ApplyDeltaText("- Q(1, c0).\n");
  if (!edited.ok()) {
    state.SkipWithError(edited.status().ToString().c_str());
    return;
  }
  Program without = db->original_program();
  bool present = true;
  for (auto _ : state) {
    auto fresh = FunctionalDatabase::FromProgram(present ? without : with);
    if (!fresh.ok()) {
      state.SkipWithError(fresh.status().ToString().c_str());
      return;
    }
    present = !present;
    benchmark::DoNotOptimize(fresh);
  }
  state.counters["n"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_Delta_FullRecompute)->DenseRange(2, 14, 4);

// An all-noop batch (insert of a present fact) must early-return without
// touching the engine.
void BM_Delta_NoopBatch(benchmark::State& state) {
  ScopedBenchMetrics bench_metrics(__func__);
  auto db = Build(state, WideWithInert(8));
  if (!db) return;
  for (auto _ : state) {
    auto stats = db->ApplyDeltaText("+ Q(2, c0).\n");
    if (!stats.ok()) {
      state.SkipWithError(stats.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(stats);
  }
}
BENCHMARK(BM_Delta_NoopBatch);

}  // namespace
