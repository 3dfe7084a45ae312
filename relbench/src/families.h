// Generated program families and their oracles.
//
// Each family is a bench/bench_util.h program: the binary counter is taken
// from there as is; subset, rotation and mixed are the same rules with
// seeded constant names; two-symbol trunk growth has no generator there.
// Each carries an oracle that is computed apart from the program: a closed
// form or a forward simulation of the family's rules over a path, plus the
// expected cluster count (the family's state count plus the trunk).

#ifndef RELBENCH_SRC_FAMILIES_H_
#define RELBENCH_SRC_FAMILIES_H_

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_set>
#include <vector>

#include "relbench/src/common.h"

namespace relbench {

/// A path as oracle symbol ids, root first: f(g(0)) is {g, f}.
using SymPath = std::vector<int>;

/// Depth and row limit of the answer enumeration the wire protocol renders
/// (serve::RenderAnswerText).
inline constexpr int kRenderDepth = 3;
inline constexpr size_t kRenderRows = 32;

struct Family {
  std::string name;
  std::string source;
  /// Rendered names of the pure function symbols (as answers print them).
  std::vector<std::string> symbols;
  /// Atoms used by probes and queries: predicate and constant argument
  /// (empty for unary predicates).
  struct AtomRef {
    std::string pred;
    std::string arg;
  };
  std::vector<AtomRef> atoms;
  /// Oracle: does atoms[a] hold at `path` in the least fixpoint?
  std::function<bool(const SymPath&, size_t)> holds;
  /// Source text of the ground functional term for `path`.
  std::function<std::string(const SymPath&)> term_text;
  /// Source text of `var` under one application of symbol `sym`
  /// ("t+1", "set2(t)", "move(t, q0, q1)").
  std::function<std::string(int sym, const std::string& var)> apply_text;
  size_t expected_clusters = 0;
  /// Depth for the ComputeBoundedFixpoint cross-check (>= trunk depth).
  int bounded_depth = 3;
  /// Deepest membership probe.
  int max_probe_depth = 8;
  /// Base facts that no rule derives again, so deleting one makes it false.
  std::vector<std::string> toggle_facts;

  std::string FactText(const SymPath& path, size_t atom) const;
};

Family SubsetFamily(int n, const std::string& prefix);
Family TrunkFamily(int c);
Family CounterFamily(int n);
Family RotationFamily(int k, const std::string& prefix);
Family MixedFamily(int n, const std::string& prefix);

/// A membership probe with its oracle answer.
struct Probe {
  std::string text;
  SymPath path;
  size_t atom = 0;
  bool expected = false;
};

/// Seeded probes: about half of them hold.
std::vector<Probe> MakeProbes(const Family& f, size_t count, Rng* rng);

/// A rendered answer's expected rows. A row's key is the path's symbol ids
/// and the row's constants ("2.0|m1"); `rows` holds every answer whose
/// term has depth <= kRenderDepth.
struct ExpectedAnswer {
  std::unordered_set<std::string> rows;
};

std::string RowKey(const SymPath& path, const std::vector<std::string>& consts);

/// Every path of depth <= max_depth over `alphabet` symbols, shortlex.
std::vector<SymPath> PathsUpTo(int alphabet, int max_depth);

/// Checks a rendered answer text against the oracle's rows: the first line
/// names the answer, every listed row is an answer and none repeats, and
/// min(kRenderRows, rows) are listed. `symbols` maps rendered names to
/// oracle ids. Returns "" on a match, otherwise what differed.
std::string CheckRenderedAnswer(const std::vector<std::string>& symbols,
                                bool has_term, const ExpectedAnswer& expected,
                                const std::string& text);

/// A family query: uniform `?(t) P(t, c).` or shifted `?(t) P(s(t), c).`
/// (not uniform, so answered by recomputation), with its oracle rows.
struct QueryCase {
  std::string text;
  bool uniform = true;
  ExpectedAnswer expected;
};

QueryCase FamilyQuery(const Family& f, size_t atom, int shift_sym);

}  // namespace relbench

#endif  // RELBENCH_SRC_FAMILIES_H_
