// E23 — cost of the slow-query audit ring (src/serve/slowlog.{h,cc}), the
// ablation behind the "always compiled, near-zero when off" claim for
// request-scoped serving telemetry (docs/OPERATIONS.md):
//
//  * BM_Slowlog_Disabled: the log constructed but off (threshold < 0) —
//    the per-request cost is one branch on a plain field, so serving with
//    no --slowlog-ms must be within noise of a build without the ring.
//  * BM_Slowlog_Sampled: a production-shaped config (threshold never hit,
//    1-in-128 sampling) — almost every request pays only the observed_
//    fetch_add + modulo.
//  * BM_Slowlog_AlwaysOn: --slowlog-ms 0, every request packed into a
//    slot — the upper bound the daemon_slowlog CI session runs under.
//  * BM_Slowlog_Dump: a full 4096-slot ring rendered as JSONL (what
//    kSlowlogDump and the drain flush pay).
//
// Expected shape: Disabled is sub-nanosecond; Sampled is a few ns;
// AlwaysOn is tens of ns (13 relaxed stores + 2 release stores); Dump is
// milliseconds and amortized over a whole serving session.

#include <benchmark/benchmark.h>

#include "src/serve/slowlog.h"

namespace {

using namespace relspec;
using serve::SlowLog;
using serve::SlowlogEntry;

SlowlogEntry MakeEntry(uint64_t i) {
  SlowlogEntry entry;
  entry.trace_id = i + 1;
  entry.type = 2;  // kQuery
  entry.status = 0;
  entry.query_hash = serve::SlowlogHash("answer Meets(x, Tony)");
  entry.total_ns = 120000 + i;
  entry.parse_ns = 9000;
  entry.eval_ns = 80000;
  entry.render_ns = 11000;
  entry.write_ns = 4000;
  entry.cache_hit = 0;
  return entry;
}

// Slow log constructed but disabled: the production default. One branch.
void BM_Slowlog_Disabled(benchmark::State& state) {
  SlowLog log(SlowLog::Options{});  // threshold_ms = -1
  uint64_t i = 0;
  for (auto _ : state) {
    bool admitted = log.MaybeRecord(MakeEntry(++i));
    benchmark::DoNotOptimize(admitted);
  }
  state.counters["recorded"] = static_cast<double>(log.recorded());
}
BENCHMARK(BM_Slowlog_Disabled);

// Threshold armed but never reached, 1-in-128 sampling: the steady-state
// cost on the fast path of a production config.
void BM_Slowlog_Sampled(benchmark::State& state) {
  SlowLog::Options options;
  options.threshold_ms = 1000000;  // entries stay far under the threshold
  options.sample_every = 128;
  SlowLog log(options);
  uint64_t i = 0;
  for (auto _ : state) {
    bool admitted = log.MaybeRecord(MakeEntry(++i));
    benchmark::DoNotOptimize(admitted);
  }
  state.counters["recorded"] = static_cast<double>(log.recorded());
}
BENCHMARK(BM_Slowlog_Sampled);

// --slowlog-ms 0: every request claims a slot and packs 13 words. The
// upper bound on recording overhead (the CI audit session runs here).
void BM_Slowlog_AlwaysOn(benchmark::State& state) {
  SlowLog::Options options;
  options.threshold_ms = 0;
  SlowLog log(options);
  uint64_t i = 0;
  for (auto _ : state) {
    bool admitted = log.MaybeRecord(MakeEntry(++i));
    benchmark::DoNotOptimize(admitted);
  }
  state.counters["recorded"] = static_cast<double>(log.recorded());
}
BENCHMARK(BM_Slowlog_AlwaysOn);

// Render a full default-capacity ring as JSONL: the kSlowlogDump /
// --slowlog-out drain cost.
void BM_Slowlog_Dump(benchmark::State& state) {
  SlowLog::Options options;
  options.threshold_ms = 0;
  SlowLog log(options);
  for (uint64_t i = 0; i < 4096; ++i) log.MaybeRecord(MakeEntry(i));
  size_t bytes = 0;
  for (auto _ : state) {
    std::string jsonl = log.DumpJsonl();
    bytes = jsonl.size();
    benchmark::DoNotOptimize(jsonl);
  }
  state.counters["jsonl_bytes"] = static_cast<double>(bytes);
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bytes));
}
BENCHMARK(BM_Slowlog_Dump)->Unit(benchmark::kMicrosecond);

}  // namespace
