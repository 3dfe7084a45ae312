// The `build` workload: one thread cycles through whole rounds of a seeded
// mix of generated programs. Each program runs FromSource -> BuildGraphSpec
// -> BuildEquationalSpec -> RSNP snapshot save and load, then answers its
// membership probes, three uniform and three recomputed queries, and one
// delete/re-insert of a base fact, all checked against the family oracles.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "relbench/src/families.h"
#include "relbench/src/stages.h"
#include "relbench/src/workloads.h"
#include "src/base/trace.h"
#include "src/core/engine.h"
#include "src/core/fixpoint.h"
#include "src/core/query.h"
#include "src/core/snapshot.h"
#include "src/core/spec_io.h"
#include "src/parser/parser.h"
#include "src/serve/protocol.h"

namespace relbench {
namespace {

using relspec::FunctionalDatabase;

constexpr size_t kProbesPerProgram = 64;
constexpr size_t kQueriesPerShape = 3;

struct BuildCase {
  Family family;
  std::vector<Probe> probes;
  std::vector<QueryCase> queries;  // uniform and shifted, alternating
  std::string toggle;
};

// The round: every family size the workload covers, once, in a seeded
// order. Seeds change the order, the constant names and the probes, never
// the programs, queries or updates, so every round of every seed does the
// same engine work.
std::vector<BuildCase> MakeMix(Rng* rng) {
  static const char kLetters[] = "abcdehijklmnopqr";
  std::string prefix;
  for (int i = 0; i < 2; ++i) prefix += kLetters[rng->Below(sizeof(kLetters) - 1)];
  std::vector<Family> families = {
      SubsetFamily(9, prefix),    SubsetFamily(10, prefix),
      SubsetFamily(11, prefix),   TrunkFamily(10),
      TrunkFamily(11),            TrunkFamily(12),
      CounterFamily(7),           CounterFamily(8),
      RotationFamily(48, prefix), RotationFamily(64, prefix),
      MixedFamily(4, prefix),     MixedFamily(5, prefix),
  };
  rng->Shuffle(&families);
  std::vector<BuildCase> mix;
  for (Family& f : families) {
    BuildCase c;
    c.probes = MakeProbes(f, kProbesPerProgram, rng);
    // Query atoms, shift symbols and the toggled fact are fixed per family:
    // their cost varies with the choice, and a seed must not change the work.
    for (size_t i = 0; i < kQueriesPerShape; ++i) {
      const size_t atom = i * f.atoms.size() / kQueriesPerShape;
      c.queries.push_back(FamilyQuery(f, atom, -1));
      c.queries.push_back(FamilyQuery(f, atom, static_cast<int>(i % f.symbols.size())));
    }
    c.toggle = f.toggle_facts[0];
    c.family = std::move(f);
    mix.push_back(std::move(c));
  }
  return mix;
}

struct Samples {
  std::vector<double> membership_us, uniform_us, recompute_us, update_us;
  uint64_t snapshot_bytes = 0;
};

double UsSince(uint64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-3;
}

// Answers one query through the facade and renders it as the daemon does.
relspec::StatusOr<std::string> AnswerText(FunctionalDatabase* db,
                                          const std::string& text) {
  RELSPEC_ASSIGN_OR_RETURN(relspec::Query q,
                           relspec::ParseQuery(text, db->mutable_program()));
  RELSPEC_ASSIGN_OR_RETURN(relspec::QueryAnswer answer, relspec::AnswerQuery(db, q));
  return relspec::serve::RenderAnswerText(answer);
}

// One program end to end. Returns "" or the first mismatch; an engine error
// is reported through `failed`.
std::string RunCase(const BuildCase& c, bool corrupt, Samples* s, bool* failed) {
  *failed = false;
  const Family& f = c.family;
  auto db_or = FunctionalDatabase::FromSource(f.source);
  if (!db_or.ok()) {
    *failed = true;
    return f.name + ": " + db_or.status().ToString();
  }
  std::unique_ptr<FunctionalDatabase> db = std::move(*db_or);
  auto gs = db->BuildGraphSpec();
  auto es = db->BuildEquationalSpec();
  if (!gs.ok() || !es.ok()) {
    *failed = true;
    return f.name + ": spec build failed";
  }
  std::string bytes = relspec::Snapshot::Serialize(*gs);
  auto loaded = relspec::Snapshot::ParseGraphSpec(bytes);
  s->snapshot_bytes += bytes.size();
  if (!loaded.ok()) {
    *failed = true;
    return f.name + ": snapshot load failed";
  }
  std::string mismatch;
  auto note = [&mismatch, &f](const std::string& m) {
    if (mismatch.empty()) mismatch = f.name + ": " + m;
  };
  if (gs->num_clusters() != f.expected_clusters) {
    note("clusters " + std::to_string(gs->num_clusters()) + ", oracle " +
         std::to_string(f.expected_clusters));
  }
  if (loaded->num_clusters() != gs->num_clusters() ||
      loaded->num_slice_tuples() != gs->num_slice_tuples()) {
    note("snapshot round trip changed the spec");
  }
  for (size_t i = 0; i < c.probes.size(); ++i) {
    const Probe& p = c.probes[i];
    uint64_t t0 = NowNs();
    auto holds = db->HoldsFactText(p.text);
    s->membership_us.push_back(UsSince(t0));
    if (!holds.ok()) {
      *failed = true;
      return f.name + ": " + holds.status().ToString();
    }
    bool got = *holds != (corrupt && i == 0);
    if (got != p.expected) note(p.text + " answered " + (got ? "true" : "false"));
  }
  for (const QueryCase& q : c.queries) {
    uint64_t t0 = NowNs();
    auto text = AnswerText(db.get(), q.text);
    (q.uniform ? s->uniform_us : s->recompute_us).push_back(UsSince(t0));
    if (!text.ok()) {
      *failed = true;
      return f.name + ": " + q.text + ": " + text.status().ToString();
    }
    std::string diff = CheckRenderedAnswer(f.symbols, true, q.expected, *text);
    if (!diff.empty()) note(q.text + " " + diff);
  }
  // Delete and re-insert one base fact, rebuilding the graph spec after
  // each edit as the daemon does.
  for (char op : {'-', '+'}) {
    uint64_t t0 = NowNs();
    auto stats = db->ApplyDeltaText(std::string(1, op) + " " + c.toggle + ".");
    auto spec = stats.ok() ? db->BuildGraphSpec()
                           : relspec::StatusOr<relspec::GraphSpecification>(stats.status());
    s->update_us.push_back(UsSince(t0));
    if (!spec.ok()) {
      *failed = true;
      return f.name + ": update: " + spec.status().ToString();
    }
    auto holds = db->HoldsFactText(c.toggle);
    if (!holds.ok() || *holds != (op == '+')) note("after " + std::string(1, op) + c.toggle);
  }
  for (size_t i = 0; i < 4 && i < c.probes.size(); ++i) {
    auto holds = db->HoldsFactText(c.probes[i].text);
    if (!holds.ok() || *holds != c.probes[i].expected) {
      note("after re-insert: " + c.probes[i].text);
    }
  }
  return mismatch;
}

// Second, independent path: the brute-force bounded fixpoint over the same
// grounding must agree with the oracle on every probe within its bound.
std::string CheckBounded(const BuildCase& c) {
  const Family& f = c.family;
  auto db = FunctionalDatabase::FromSource(f.source);
  if (!db.ok()) return f.name + ": " + db.status().ToString();
  auto bounded = relspec::ComputeBoundedFixpoint((*db)->ground(), f.bounded_depth);
  if (!bounded.ok()) return f.name + ": bounded: " + bounded.status().ToString();
  for (const Probe& p : c.probes) {
    if (static_cast<int>(p.path.size()) > f.bounded_depth) continue;
    auto q = relspec::ParseQuery("? " + p.text + ".", (*db)->mutable_program());
    if (!q.ok()) return f.name + ": " + q.status().ToString();
    const relspec::Atom& atom = q->atoms[0];
    std::vector<relspec::ConstId> args;
    for (const relspec::NfArg& a : atom.args) args.push_back(a.id);
    auto path = (*db)->PathOfGroundTerm(*atom.fterm);
    if (!path.ok()) return f.name + ": " + path.status().ToString();
    if (bounded->Holds(*path, relspec::SliceAtom{atom.pred, args}) != p.expected) {
      return f.name + ": bounded fixpoint disagrees on " + p.text;
    }
  }
  return "";
}

// ---------------------------------------------------------------------------
// Traced replay: the same mix through the public stage functions, one span
// per layer.
// ---------------------------------------------------------------------------

std::string EngineError(bool* failed, std::string message) {
  *failed = true;
  return message;
}

// Returns "" or the first mismatch; an engine error is also reported
// through `failed`, as in RunCase.
std::string TraceCase(const BuildCase& c, LayerLog* log, bool* failed) {
  *failed = false;
  const Family& f = c.family;
  // The facade, timed on its own, for the stage-sum comparison.
  std::string facade_text;
  {
    uint64_t t0 = NowNs();
    auto db = FunctionalDatabase::FromSource(f.source);
    if (!db.ok()) return EngineError(failed, f.name + ": " + db.status().ToString());
    auto spec = (*db)->BuildGraphSpec();
    log->Observe("facade.total_us", UsSince(t0));
    if (!spec.ok()) return EngineError(failed, f.name + ": " + spec.status().ToString());
    facade_text = relspec::SpecIo::Serialize(*spec);
  }
  Chain chain;
  const uint64_t chain_start = NowNs();
  std::string err = RunChain(f.source, log, &chain);
  log->Observe("chain.total_us", UsSince(chain_start));
  if (!err.empty()) return EngineError(failed, f.name + ": " + err);
  relspec::Program& program = chain.program;
  relspec::Labeling& labeling = chain.labeling;
  const relspec::LabelGraph& graph = chain.graph;
  const std::unique_ptr<relspec::GraphSpecification>& spec = chain.spec;
  if (relspec::SpecIo::Serialize(*spec) != facade_text) {
    return f.name + ": stage chain spec differs from the facade's";
  }
  if (graph.num_clusters() != f.expected_clusters) {
    return f.name + ": clusters differ from the oracle";
  }
  {
    Span span(log, "equational_spec.us");
    auto eq = relspec::BuildEquationalSpecification(graph, &labeling, program.symbols);
    if (!eq.ok()) return EngineError(failed, f.name + ": " + eq.status().ToString());
    log->Observe("equational_spec.equations", static_cast<double>(eq->num_equations()));
  }
  std::string bytes;
  {
    Span span(log, "snapshot.save_us");
    bytes = relspec::Snapshot::Serialize(*spec);
  }
  log->Observe("snapshot.bytes", static_cast<double>(bytes.size()));
  {
    Span span(log, "snapshot.load_us");
    if (!relspec::Snapshot::ParseGraphSpec(bytes).ok()) {
      return EngineError(failed, f.name + ": snapshot load");
    }
  }
  // Membership through the spec, parsed the way the daemon parses it.
  for (const Probe& p : c.probes) {
    auto holds = SpecHolds(*spec, p.text, log);
    if (!holds.ok()) {
      return EngineError(failed, f.name + ": " + p.text + ": " + holds.status().ToString());
    }
    if (*holds != p.expected) return f.name + ": spec membership " + p.text;
  }
  // Queries and the update on a facade database, as in the untraced loop.
  auto db_or = FunctionalDatabase::FromSource(f.source);
  if (!db_or.ok()) return EngineError(failed, f.name + ": " + db_or.status().ToString());
  FunctionalDatabase* db = db_or->get();
  for (const QueryCase& qc : c.queries) {
    relspec::StatusOr<relspec::Query> q = relspec::Status::OK();
    {
      Span span(log, "parser.query_us");
      q = relspec::ParseQuery(qc.text, db->mutable_program());
    }
    if (!q.ok()) return EngineError(failed, f.name + ": " + q.status().ToString());
    relspec::StatusOr<relspec::QueryAnswer> answer = relspec::Status::OK();
    if (qc.uniform) {
      Span span(log, "query.incremental_us");
      answer = relspec::AnswerQueryIncremental(db, *q);
    } else {
      Span span(log, "query.recompute_us");
      answer = relspec::AnswerQueryRecompute(db, *q);
    }
    if (!answer.ok()) return EngineError(failed, f.name + ": " + answer.status().ToString());
    std::string text;
    {
      Span span(log, "protocol.render_us");
      relspec::serve::QueryResult result;
      result.spec_tuples = answer->NumSpecTuples();
      result.functional = answer->has_functional_answer();
      result.text = relspec::serve::RenderAnswerText(*answer);
      text = result.text;
      relspec::serve::EncodeQueryResult(result);
    }
    std::string diff = CheckRenderedAnswer(f.symbols, true, qc.expected, text);
    if (!diff.empty()) return f.name + ": " + qc.text + " " + diff;
  }
  for (char op : {'-', '+'}) {
    relspec::StatusOr<relspec::DeltaStats> stats = relspec::Status::OK();
    {
      Span span(log, "engine.apply_delta_us");
      stats = db->ApplyDeltaText(std::string(1, op) + " " + c.toggle + ".");
    }
    if (!stats.ok()) return EngineError(failed, f.name + ": " + stats.status().ToString());
    log->Observe("engine.delta_rebuilt_ratio", stats->rebuilt ? 1 : 0);
    Span span(log, "graph_spec.build_us");
    if (!db->BuildGraphSpec().ok()) return EngineError(failed, f.name + ": spec rebuild failed");
  }
  return "";
}

Result TraceBuild(const RunOptions& opt, const std::vector<BuildCase>& mix) {
  // Rounds alternate between the event tracer off (spans into a scratch
  // log) and on (spans into the reported log); the difference of the
  // median round times is the tracing overhead.
  Result r;
  LayerLog untraced, log;
  std::vector<double> round_us[2];
  relspec::Tracer::Global().SetBufferCapacity(1 << 18);
  const uint64_t start = NowNs();
  for (size_t round = 0;
       round < 2 || static_cast<double>(NowNs() - start) * 1e-9 < opt.seconds; ++round) {
    const bool on = round % 2 == 1;
    relspec::EnableEventTrace(on);
    const uint64_t t0 = NowNs();
    for (const BuildCase& c : mix) {
      ++r.attempted;
      bool failed = false;
      std::string err = TraceCase(c, on ? &log : &untraced, &failed);
      if (failed) ++r.failed;
      if (!err.empty()) r.Fail(err);
    }
    round_us[on].push_back(UsSince(t0));
  }
  relspec::EnableEventTrace(true);  // FinishTrace stops it
  log.Observe("trace.overhead_us",
              (Quantile(&round_us[1], 0.5) - Quantile(&round_us[0], 0.5)) /
                  static_cast<double>(mix.size()));
  FinishTrace(opt, &log, &r);
  // The stage chain does the facade's work: its summed time must agree with
  // the facade's separately timed total (README: within 30%).
  const double chain_us = log.ObservedMean("chain.total_us");
  const double facade_us = log.ObservedMean("facade.total_us");
  if (chain_us > facade_us * 1.3 || chain_us < facade_us * 0.7) {
    r.Fail("stage chain total " + std::to_string(chain_us) + " us vs facade " +
           std::to_string(facade_us) + " us");
  }
  return r;
}

}  // namespace

Result RunBuild(const RunOptions& opt) {
  // Set-up: the inputs, their oracle answers, and the second path over
  // every program (a cold FromSource and ComputeBoundedFixpoint each).
  Rng rng(opt.seed);
  std::vector<BuildCase> mix = MakeMix(&rng);
  std::string bounded_err;
  for (const BuildCase& c : mix) {
    if (bounded_err.empty()) bounded_err = CheckBounded(c);
  }
  const double setup_s = static_cast<double>(NowNs() - opt.process_start_ns) * 1e-9;
  if (opt.trace) {
    Result r = TraceBuild(opt, mix);
    if (!bounded_err.empty()) r.Fail(bounded_err);
    return r;
  }

  // Every round does the same work, so its wall time is a probe of how
  // contended the host was; the figures come from the fastest quarter.
  struct Round {
    double wall_s = 0;
    double cpu_s = 0;
    Samples samples;
  };
  Result r;
  std::vector<Round> rounds;
  bool corrupt = opt.inject_wrong_answer;
  const uint64_t start = NowNs();
  while (rounds.empty() || static_cast<double>(NowNs() - start) * 1e-9 < opt.seconds) {
    Round round;
    const uint64_t t0 = NowNs();
    const double cpu0 = SelfCpuSeconds();
    for (const BuildCase& c : mix) {
      ++r.attempted;
      bool failed = false;
      std::string err = RunCase(c, corrupt, &round.samples, &failed);
      corrupt = false;
      if (failed) ++r.failed;
      if (!err.empty()) r.Fail(err);
    }
    round.wall_s = static_cast<double>(NowNs() - t0) * 1e-9;
    round.cpu_s = SelfCpuSeconds() - cpu0;
    rounds.push_back(std::move(round));
  }
  if (!bounded_err.empty()) r.Fail(bounded_err);
  std::vector<double> walls;
  for (const Round& round : rounds) walls.push_back(round.wall_s);
  const std::vector<size_t> kept = FastestQuarter(walls);
  double wall = 0, cpu = 0;
  for (size_t i : kept) {
    wall += rounds[i].wall_s;
    cpu += rounds[i].cpu_s;
  }
  const double programs = static_cast<double>(kept.size() * mix.size());
  r.Add("setup_s", setup_s, "s");
  r.Add("throughput_ops_s", programs / wall, "ops/s");
  r.Add("cpu_us_per_op", cpu * 1e6 / programs, "us");
  r.Add("peak_rss_mb", PeakRssMb(0), "MiB");
  r.Add("snapshot_bytes", static_cast<double>(rounds[0].samples.snapshot_bytes), "bytes");
  for (auto [prefix, field] : {std::pair{"membership", &Samples::membership_us},
                               std::pair{"query_uniform", &Samples::uniform_us},
                               std::pair{"query_recompute", &Samples::recompute_us},
                               std::pair{"update", &Samples::update_us}}) {
    // Every round runs the same operations in the same order, so sample j
    // of a round is the same operation in every round. The p50 figure is
    // the geometric mean over a round's operations of each one's median
    // over the kept rounds, which weighs every family alike. A median
    // pooled over the whole mix falls between the latency bands of two
    // families and jumps from one to the other between runs. The pooled
    // p99 is printed for reference.
    size_t ops = SIZE_MAX;
    std::vector<double> pooled;
    for (size_t i : kept) {
      const std::vector<double>& s = rounds[i].samples.*field;
      ops = std::min(ops, s.size());  // a failed case cuts its round short
      pooled.insert(pooled.end(), s.begin(), s.end());
    }
    double log_sum = 0;
    for (size_t j = 0; j < ops; ++j) {
      std::vector<double> per_round;
      for (size_t i : kept) per_round.push_back((rounds[i].samples.*field)[j]);
      log_sum += std::log(Quantile(&per_round, 0.5));
    }
    r.Add(std::string(prefix) + "_p50_us",
          ops > 0 ? std::exp(log_sum / static_cast<double>(ops)) : 0, "us");
    r.reference.push_back(Metric{std::string(prefix) + "_p99_us", Quantile(&pooled, 0.99), "us"});
  }
  fprintf(stderr, "build: %zu rounds of %zu programs in %.2f s\n", rounds.size(), mix.size(),
          static_cast<double>(NowNs() - start) * 1e-9);
  return r;
}

}  // namespace relbench
