#include "relbench/src/families.h"

#include <algorithm>

#include "bench/bench_util.h"

namespace relbench {
namespace {

// Nested application text: f(g(0)) for path {g, f}.
std::string NestedTerm(const std::vector<std::string>& names,
                       const SymPath& path) {
  std::string out = "0";
  for (int s : path) out = names[static_cast<size_t>(s)] + "(" + out + ")";
  return out;
}

std::string Numeral(const SymPath& path) { return std::to_string(path.size()); }

std::string Successor(int, const std::string& var) { return var + "+1"; }

}  // namespace

std::string Family::FactText(const SymPath& path, size_t atom) const {
  const AtomRef& a = atoms[atom];
  std::string out = a.pred + "(" + term_text(path);
  if (!a.arg.empty()) out += ", " + a.arg;
  return out + ")";
}

// B(w, b_i) holds iff i = 0 or set_i occurs in w. The reachable labels are
// the 2^(n-1) subsets containing b0; the root adds one trunk cluster.
Family SubsetFamily(int n, const std::string& prefix) {
  Family f;
  f.name = "subset-" + std::to_string(n);
  f.source = "B(0, " + prefix + "b0).\n";
  for (int i = 0; i < n; ++i) {
    std::string sym = "set" + std::to_string(i);
    f.symbols.push_back(sym);
    f.source += "B(t, x) -> B(" + sym + "(t), x).\n";
    f.source += "B(t, x) -> B(" + sym + "(t), " + prefix + "b" +
                std::to_string(i) + ").\n";
    f.atoms.push_back({"B", prefix + "b" + std::to_string(i)});
  }
  f.holds = [](const SymPath& path, size_t atom) {
    return atom == 0 ||
           std::find(path.begin(), path.end(), static_cast<int>(atom)) !=
               path.end();
  };
  auto names = f.symbols;
  f.term_text = [names](const SymPath& p) { return NestedTerm(names, p); };
  f.apply_text = [names](int s, const std::string& var) {
    return names[static_cast<size_t>(s)] + "(" + var + ")";
  };
  f.expected_clusters = (size_t{1} << (n - 1)) + 1;
  f.bounded_depth = 3;
  f.max_probe_depth = 12;
  f.toggle_facts = {"B(0, " + prefix + "b0)"};
  return f;
}

// P(f^c(0)) with P(t) -> P(f(t)) and P(t) -> P(g(t)): P holds at w iff w
// starts with c applications of f. Every trunk path (depth <= c, 2^(c+1)-1
// of them) is its own cluster; below the trunk the labels are {P} and {}.
Family TrunkFamily(int c) {
  Family f;
  f.name = "trunk2-" + std::to_string(c);
  f.symbols = {"f", "g"};
  f.atoms = {{"P", ""}};
  SymPath fact(static_cast<size_t>(c), 0);
  f.term_text = [](const SymPath& p) { return NestedTerm({"f", "g"}, p); };
  f.apply_text = [](int s, const std::string& var) {
    return std::string(s == 0 ? "f" : "g") + "(" + var + ")";
  };
  f.source = "P(" + f.term_text(fact) + ").\nP(t) -> P(f(t)).\nP(t) -> P(g(t)).\n";
  f.holds = [c](const SymPath& path, size_t) {
    if (path.size() < static_cast<size_t>(c)) return false;
    for (int i = 0; i < c; ++i) {
      if (path[static_cast<size_t>(i)] != 0) return false;
    }
    return true;
  };
  f.expected_clusters = (size_t{1} << (c + 1)) - 1 + 2;
  f.bounded_depth = c + 2;
  f.max_probe_depth = c + 6;
  f.toggle_facts = {"P(" + f.term_text(fact) + ")"};
  return f;
}

// n-bit binary counter over +1: at depth t the counter reads t mod 2^n, so
// Bit_i(t) holds iff bit i of t mod 2^n is set. The lasso has 2^n states.
Family CounterFamily(int n) {
  Family f;
  f.name = "counter-" + std::to_string(n);
  f.source = relspec_bench::BinaryCounterProgram(n);
  for (int i = 0; i < n; ++i) {
    f.atoms.push_back({"Bit" + std::to_string(i), ""});
    f.atoms.push_back({"Nobit" + std::to_string(i), ""});
  }
  f.symbols = {"+1"};
  f.holds = [n](const SymPath& path, size_t atom) {
    uint64_t value = path.size() % (uint64_t{1} << n);
    bool set = (value >> (atom / 2)) & 1;
    return atom % 2 == 0 ? set : !set;
  };
  f.term_text = Numeral;
  f.apply_text = Successor;
  f.expected_clusters = (size_t{1} << n) + 1;
  f.bounded_depth = (1 << n) + 8;
  f.max_probe_depth = 3 << n;
  for (int i = 0; i < n; ++i) f.toggle_facts.push_back("Nobit" + std::to_string(i) + "(0)");
  return f;
}

// k-team rotation: OnCall(t, m_i) iff t = i (mod k); k states + the root.
Family RotationFamily(int k, const std::string& prefix) {
  Family f;
  f.name = "rotation-" + std::to_string(k);
  auto team = [prefix](int i) { return prefix + "m" + std::to_string(i); };
  f.source = "OnCall(0, " + team(0) + ").\n";
  for (int i = 0; i < k; ++i) {
    f.source += "Rotate(" + team(i) + ", " + team((i + 1) % k) + ").\n";
    f.atoms.push_back({"OnCall", team(i)});
    f.toggle_facts.push_back("Rotate(" + team(i) + ", " + team((i + 1) % k) + ")");
  }
  f.source += "OnCall(t, x), Rotate(x, y) -> OnCall(t+1, y).\n";
  f.symbols = {"+1"};
  f.holds = [k](const SymPath& path, size_t atom) {
    return path.size() % static_cast<size_t>(k) == atom;
  };
  f.term_text = Numeral;
  f.apply_text = Successor;
  f.expected_clusters = static_cast<size_t>(k) + 1;
  f.bounded_depth = 2 * k + 2;
  f.max_probe_depth = 4 * k;
  return f;
}

// At(s, x), Connected(x, y) -> At(move(s, x, y), y) over an n-cycle:
// purification gives one symbol move{x,y} per pair of positions, and At(w, q)
// holds iff w is a walk along Connected edges from q0 that ends at q. The
// states are the n positions and the dead walk, plus the root.
Family MixedFamily(int n, const std::string& prefix) {
  Family f;
  f.name = "mixed-" + std::to_string(n);
  auto pos = [prefix](int i) { return prefix + "q" + std::to_string(i); };
  f.source = "At(0, " + pos(0) + ").\n";
  for (int i = 0; i < n; ++i) {
    f.source += "Connected(" + pos(i) + ", " + pos((i + 1) % n) + ").\n";
    f.toggle_facts.push_back("Connected(" + pos(i) + ", " + pos((i + 1) % n) + ")");
    f.atoms.push_back({"At", pos(i)});
  }
  f.source += "At(s, x), Connected(x, y) -> At(move(s, x, y), y).\n";
  // Symbol x*n + y is move{q_x,q_y}.
  for (int x = 0; x < n; ++x) {
    for (int y = 0; y < n; ++y) {
      f.symbols.push_back("move{" + pos(x) + "," + pos(y) + "}");
    }
  }
  f.holds = [n](const SymPath& path, size_t atom) {
    int at = 0;
    for (int s : path) {
      int x = s / n, y = s % n;
      if (x != at || y != (x + 1) % n) return false;
      at = y;
    }
    return static_cast<size_t>(at) == atom;
  };
  f.term_text = [n, pos](const SymPath& path) {
    std::string out = "0";
    for (int s : path) {
      out = "move(" + out + ", " + pos(s / n) + ", " + pos(s % n) + ")";
    }
    return out;
  };
  f.apply_text = [n, pos](int s, const std::string& var) {
    return "move(" + var + ", " + pos(s / n) + ", " + pos(s % n) + ")";
  };
  f.expected_clusters = static_cast<size_t>(n) + 2;
  f.bounded_depth = 3;
  f.max_probe_depth = 3 * n;
  return f;
}

std::vector<Probe> MakeProbes(const Family& f, size_t count, Rng* rng) {
  std::vector<Probe> out;
  const int alphabet = static_cast<int>(f.symbols.size());
  while (out.size() < count) {
    Probe p;
    const int depth = static_cast<int>(rng->Below(static_cast<uint64_t>(f.max_probe_depth) + 1));
    if (rng->Below(2) == 0 && f.name.rfind("mixed", 0) == 0) {
      // A valid walk, so the probe can hold.
      int n = static_cast<int>(f.atoms.size());
      int at = 0;
      for (int d = 0; d < depth; ++d) {
        p.path.push_back(at * n + (at + 1) % n);
        at = (at + 1) % n;
      }
    } else if (f.name.rfind("trunk2", 0) == 0 && rng->Below(2) == 0) {
      // Through the fact's position, so the probe can hold.
      for (int d = 0; d < depth; ++d) {
        p.path.push_back(d < f.bounded_depth - 2 ? 0 : static_cast<int>(rng->Below(2)));
      }
    } else {
      for (int d = 0; d < depth; ++d) {
        p.path.push_back(static_cast<int>(rng->Below(static_cast<uint64_t>(alphabet))));
      }
    }
    // Half the probes ask for an atom that holds, when one does.
    std::vector<size_t> holding;
    for (size_t a = 0; a < f.atoms.size(); ++a) {
      if (f.holds(p.path, a)) holding.push_back(a);
    }
    p.atom = (!holding.empty() && rng->Below(2) == 0)
                 ? holding[rng->Below(holding.size())]
                 : rng->Below(f.atoms.size());
    p.expected = f.holds(p.path, p.atom);
    p.text = f.FactText(p.path, p.atom);
    out.push_back(std::move(p));
  }
  return out;
}

std::string RowKey(const SymPath& path, const std::vector<std::string>& consts) {
  std::string key;
  for (int s : path) key += std::to_string(s) + ".";
  key += "|";
  for (const std::string& c : consts) key += c + ",";
  return key;
}

std::vector<SymPath> PathsUpTo(int alphabet, int max_depth) {
  std::vector<SymPath> out = {SymPath{}};
  for (size_t i = 0; i < out.size(); ++i) {
    if (static_cast<int>(out[i].size()) == max_depth) continue;
    for (int s = 0; s < alphabet; ++s) {
      SymPath next = out[i];
      next.push_back(s);
      out.push_back(std::move(next));
    }
  }
  return out;
}

namespace {

// "set2(set0(0))" -> {0, 2}; false on an unknown symbol or bad shape.
bool ParseRenderedTerm(const std::vector<std::string>& symbols,
                       std::string_view text, SymPath* out) {
  out->clear();
  while (text != "0") {
    size_t open = text.find('(');
    if (open == std::string_view::npos || text.back() != ')') return false;
    std::string_view name = text.substr(0, open);
    auto it = std::find(symbols.begin(), symbols.end(), name);
    if (it == symbols.end()) return false;
    out->push_back(static_cast<int>(it - symbols.begin()));
    text = text.substr(open + 1, text.size() - open - 2);
  }
  std::reverse(out->begin(), out->end());
  return true;
}

}  // namespace

std::string CheckRenderedAnswer(const std::vector<std::string>& symbols,
                                bool has_term, const ExpectedAnswer& expected,
                                const std::string& text) {
  size_t pos = text.find('\n');
  if (text.rfind("answer(", 0) != 0 || pos == std::string::npos) {
    return "answer header missing";
  }
  std::unordered_set<std::string> seen;
  size_t listed = 0;
  while (pos + 1 < text.size()) {
    size_t eol = text.find('\n', pos + 1);
    if (eol == std::string::npos) eol = text.size();
    std::string_view line(text.data() + pos + 1, eol - pos - 1);
    pos = eol;
    if (line.rfind("  ", 0) != 0) return "malformed row: " + std::string(line);
    line.remove_prefix(2);
    std::vector<std::string> parts;
    size_t start = 0;
    while (true) {
      size_t comma = line.find(", ", start);
      parts.emplace_back(line.substr(start, comma == std::string_view::npos
                                                ? std::string_view::npos
                                                : comma - start));
      if (comma == std::string_view::npos) break;
      start = comma + 2;
    }
    SymPath path;
    if (has_term) {
      if (!ParseRenderedTerm(symbols, parts[0], &path)) {
        return "unknown term in row: " + std::string(line);
      }
      parts.erase(parts.begin());
    }
    std::string key = RowKey(path, parts);
    if (expected.rows.count(key) == 0) return "row is not an answer: " + std::string(line);
    if (!seen.insert(key).second) return "row repeated: " + std::string(line);
    ++listed;
  }
  size_t want = std::min(kRenderRows, expected.rows.size());
  if (listed != want) {
    return "listed " + std::to_string(listed) + " rows, expected " +
           std::to_string(want);
  }
  return "";
}

QueryCase FamilyQuery(const Family& f, size_t atom, int shift_sym) {
  QueryCase q;
  q.uniform = shift_sym < 0;
  const Family::AtomRef& a = f.atoms[atom];
  std::string term = q.uniform ? "t" : f.apply_text(shift_sym, "t");
  q.text = "?(t) " + a.pred + "(" + term + (a.arg.empty() ? "" : ", " + a.arg) + ").";
  for (const SymPath& p : PathsUpTo(static_cast<int>(f.symbols.size()), kRenderDepth)) {
    SymPath at = p;
    if (!q.uniform) at.push_back(shift_sym);
    if (f.holds(at, atom)) q.expected.rows.insert(RowKey(p, {}));
  }
  return q;
}

}  // namespace relbench
