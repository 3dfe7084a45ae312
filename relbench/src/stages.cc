#include "relbench/src/stages.h"

#include "src/ast/validate.h"
#include "src/base/trace.h"
#include "src/core/analysis.h"
#include "src/core/mixed_to_pure.h"
#include "src/core/normalize.h"
#include "src/core/subtree_closure.h"
#include "src/parser/parser.h"

namespace relbench {

std::string RunChain(const std::string& source, LayerLog* log, Chain* out) {
  {
    Span span(log, "parser.program_us");
    auto p = relspec::ParseProgram(source);
    if (!p.ok()) return p.status().ToString();
    out->program = std::move(*p);
  }
  {
    Span span(log, "ast.validate_us");
    relspec::Status st = relspec::ValidateProgram(out->program);
    if (st.ok()) st = relspec::CheckDomainIndependence(out->program);
    if (!st.ok()) return st.ToString();
  }
  {
    Span span(log, "normalize.us");
    auto st = relspec::NormalizeProgram(&out->program);
    if (!st.ok()) return st.status().ToString();
    log->Observe("normalize.rules", st->rules_out);
  }
  {
    // The facade analyses the program right after purification; the chain
    // counts that with this stage.
    Span span(log, "mixed_to_pure.us");
    auto st = relspec::MixedToPure(&out->program);
    if (!st.ok()) return st.status().ToString();
    relspec::Analyze(out->program);
    log->Observe("mixed_to_pure.rules", st->rules_out);
  }
  {
    Span span(log, "ground.us");
    auto g = relspec::Ground(out->program);
    if (!g.ok()) return g.status().ToString();
    out->ground = std::make_unique<relspec::GroundProgram>(std::move(*g));
  }
  log->Observe("ground.atoms", static_cast<double>(out->ground->num_atoms()));
  log->Observe("ground.rule_instances",
               static_cast<double>(out->ground->local_rules().size() +
                                   out->ground->global_rules().size()));
  {
    Span span(log, "fixpoint.us");
    auto l = relspec::ComputeFixpoint(*out->ground);
    if (!l.ok()) return l.status().ToString();
    out->labeling = std::move(*l);
  }
  log->Observe("fixpoint.chi_entries",
               static_cast<double>(out->labeling.chi().num_entries()));
  log->Observe("fixpoint.trunk_nodes",
               static_cast<double>(out->labeling.trunk_paths().size()));
  log->Observe("fixpoint.rounds", static_cast<double>(out->labeling.rounds()));
  {
    Span span(log, "label_graph.us");
    auto g = relspec::BuildLabelGraph(&out->labeling);
    if (!g.ok()) return g.status().ToString();
    out->graph = std::move(*g);
  }
  log->Observe("label_graph.clusters", static_cast<double>(out->graph.num_clusters()));
  {
    Span span(log, "graph_spec.build_us");
    auto s = relspec::BuildGraphSpecification(out->graph, &out->labeling,
                                              out->program.symbols);
    if (!s.ok()) return s.status().ToString();
    out->spec = std::make_unique<relspec::GraphSpecification>(std::move(*s));
  }
  return "";
}

relspec::StatusOr<bool> SpecHolds(const relspec::GraphSpecification& spec,
                                  const std::string& fact, LayerLog* log) {
  relspec::Program scratch;
  relspec::StatusOr<relspec::Query> q = relspec::Status::OK();
  relspec::StatusOr<relspec::FuncTerm> pure = relspec::Status::OK();
  {
    Span span(log, "parser.fact_us");
    scratch.symbols = spec.symbols();
    q = relspec::ParseQuery("? " + fact + ".", &scratch);
    if (!q.ok()) return q.status();
    pure = relspec::PurifyGroundTerm(*q->atoms[0].fterm, &scratch.symbols);
    if (!pure.ok()) return pure.status();
  }
  std::vector<relspec::FuncId> syms;
  for (const relspec::FuncApply& a : pure->apps) syms.push_back(a.fn);
  std::vector<relspec::ConstId> args;
  for (const relspec::NfArg& a : q->atoms[0].args) args.push_back(a.id);
  Span span(log, "graph_spec.holds_us");
  return spec.Holds(relspec::Path(std::move(syms)), q->atoms[0].pred, args);
}

void FinishTrace(const RunOptions& opt, LayerLog* log, Result* r) {
  relspec::EnableEventTrace(false);
  const std::string path = opt.run_dir + "/trace-" + opt.workload + ".json";
  relspec::Status written = relspec::Tracer::Global().WriteChromeJson(path);
  if (!written.ok()) r->Fail("trace write: " + written.ToString());
  int code = RunProcess({opt.trace_check, path, "--min-events", "1"},
                        opt.run_dir + "/trace_check.log");
  if (code != 0) r->Fail("trace_check rejected " + path);

  static const char* kSpans[] = {
      "parser.program_us", "parser.query_us",      "parser.fact_us",
      "ast.validate_us",   "normalize.us",         "mixed_to_pure.us",
      "ground.us",         "fixpoint.us",          "label_graph.us",
      "graph_spec.build_us", "graph_spec.holds_us", "equational_spec.us",
      "snapshot.save_us",  "snapshot.load_us",     "query.incremental_us",
      "query.recompute_us", "query.cache_lookup_us", "protocol.render_us",
      "engine.apply_delta_us", "wal.append_us"};
  for (const char* name : kSpans) r->Add(name, log->MeanUs(name), "us");
  static const std::pair<const char*, const char*> kObserved[] = {
      {"normalize.rules", "count"},
      {"mixed_to_pure.rules", "count"},
      {"ground.atoms", "count"},
      {"ground.rule_instances", "count"},
      {"fixpoint.chi_entries", "count"},
      {"fixpoint.trunk_nodes", "count"},
      {"fixpoint.rounds", "count"},
      {"label_graph.clusters", "count"},
      {"equational_spec.equations", "count"},
      {"snapshot.bytes", "bytes"},
      {"query.cache_hit_ratio", "ratio"},
      {"engine.delta_rebuilt_ratio", "ratio"},
      {"wal.bytes_per_update", "bytes"},
      {"serve.round_trip_us", "us"},
      {"serve.overhead_us", "us"},
      {"chain.total_us", "us"},
      {"facade.total_us", "us"},
      {"trace.overhead_us", "us"}};
  for (const auto& [name, unit] : kObserved) {
    r->Add(name, log->ObservedMean(name), unit);
  }
}

}  // namespace relbench
