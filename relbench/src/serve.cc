// The `serve-read` and `serve-write` workloads: relspecd --threads 2 with a
// write-ahead log (fsync off) over a Unix socket, driven by two closed-loop
// connections. Each connection sends its next request when the previous
// reply arrives; there are no timers in the request path.
//
// The served program is a 64-team rotation with eight teams on call at 0
// and 64 optional shortcut edges Rotate(m_j, m_{j+d}), half of them present
// at start. Membership probes ask OnCall(n, m_j); queries are drawn by Zipf
// rank from 384 keys: the 128 most popular are uniform (answered from the
// spec, Theorem 5.1), the rest shifted (answered by recomputation), so the
// first mostly hit the 64-entry cache and the second mostly miss. On
// serve-write about
// 10% of requests toggle a shortcut edge; connection c owns the shortcuts
// j with j % 2 == c, so it always knows its own edges exactly and the other
// connection's edges up to the updates in flight during a request.
//
// Every reply is checked after the run against a forward simulation of the
// rotation under the edge set(s) the reply may have seen.

#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "relbench/src/families.h"
#include "relbench/src/stages.h"
#include "relbench/src/workloads.h"
#include "src/ast/printer.h"
#include "src/ast/validate.h"
#include "src/base/trace.h"
#include "src/core/engine.h"
#include "src/core/query.h"
#include "src/core/snapshot.h"
#include "src/core/wal.h"
#include "src/parser/parser.h"
#include "src/serve/client.h"
#include "src/serve/protocol.h"

namespace relbench {
namespace {

using relspec::serve::ServeClient;

constexpr int kTeams = 64;
constexpr int kStarts = 8;          // OnCall(0, m_{8i}) for i < kStarts
constexpr int kProbeDepths = 200;   // membership probes ask depths [0, 200)
constexpr int kShapes = 6;          // query shapes: 2 uniform, 4 shifted
constexpr int kSimDepth = kProbeDepths + 8;
constexpr size_t kReplayOps = 30000;  // traced run: requests replayed in process

// ---------------------------------------------------------------------------
// The served program and its request population
// ---------------------------------------------------------------------------

struct QueryKey {
  std::string text;
  bool pair = false;  // ?(t, y) ... Rotate(m_j, y)
  int shift = 0;      // OnCall(t+shift, m_j); shifted queries are not uniform
  int team = 0;
};

struct ServeSetup {
  std::string prefix;
  std::string source;
  int shortcut_to[kTeams];
  uint64_t initial_mask = 0;  // shortcuts present at start
  std::vector<QueryKey> keys;  // keys[r] has Zipf rank r

  std::string Team(int i) const { return prefix + "m" + std::to_string(i); }
  std::string Shortcut(int j) const {
    return "Rotate(" + Team(j) + ", " + Team(shortcut_to[j]) + ")";
  }
};

ServeSetup MakeSetup(Rng* rng) {
  static const char kLetters[] = "abcdehijklmnopqr";
  ServeSetup s;
  for (int i = 0; i < 2; ++i) s.prefix += kLetters[rng->Below(sizeof(kLetters) - 1)];
  for (int j = 0; j < kTeams; ++j) s.shortcut_to[j] = (j + 2 + j % 11) % kTeams;
  // Half of each connection's 32 shortcuts start present. The edge set is
  // the same for every seed, so every seed serves a program of one size.
  for (int j = 0; j < kTeams; ++j) {
    if ((j / 2) % 2 == 0) s.initial_mask |= uint64_t{1} << j;
  }
  for (int i = 0; i < kStarts; ++i) {
    s.source += "OnCall(0, " + s.Team(i * (kTeams / kStarts)) + ").\n";
  }
  for (int i = 0; i < kTeams; ++i) {
    s.source += "Rotate(" + s.Team(i) + ", " + s.Team((i + 1) % kTeams) + ").\n";
  }
  for (int j = 0; j < kTeams; ++j) {
    if ((s.initial_mask >> j) & 1) s.source += s.Shortcut(j) + ".\n";
  }
  s.source += "OnCall(t, x), Rotate(x, y) -> OnCall(t+1, y).\n";
  // The popular keys are the uniform ones: ranks [0, 128) are uniform
  // (?(t) OnCall(t, m_j) and the Rotate pair), ranks [128, 384) are shifted
  // by 1, 2 or 3 (and the shifted pair), so uniform queries mostly hit the
  // cache and shifted ones mostly miss and recompute. The seed permutes the
  // teams within each shape.
  static const int kShift[kShapes] = {0, 0, 1, 2, 3, 1};
  static const bool kPair[kShapes] = {false, true, false, false, false, true};
  for (int shape = 0; shape < kShapes; ++shape) {
    std::vector<int> teams;
    for (int i = 0; i < kTeams; ++i) teams.push_back(i);
    rng->Shuffle(&teams);
    for (int team : teams) {
      QueryKey k;
      k.pair = kPair[shape];
      k.shift = kShift[shape];
      k.team = team;
      std::string t = k.shift == 0 ? "t" : "t+" + std::to_string(k.shift);
      k.text = k.pair ? "?(t, y) OnCall(" + t + ", " + s.Team(team) + "), Rotate(" +
                            s.Team(team) + ", y)."
                      : "?(t) OnCall(" + t + ", " + s.Team(team) + ").";
      s.keys.push_back(std::move(k));
    }
  }
  // Interleave the two uniform shapes, and the four shifted ones, so each
  // rank band holds every shape of its kind.
  std::vector<QueryKey> ranked;
  for (int band : {0, 2}) {
    const int shapes = band == 0 ? 2 : 4;
    for (int i = 0; i < kTeams; ++i) {
      for (int k = 0; k < shapes; ++k) {
        ranked.push_back(s.keys[static_cast<size_t>((band + k) * kTeams + i)]);
      }
    }
  }
  s.keys = std::move(ranked);
  return s;
}

// ---------------------------------------------------------------------------
// Oracle: forward simulation of the rotation under a shortcut mask
// ---------------------------------------------------------------------------

class Oracle {
 public:
  explicit Oracle(const ServeSetup& s) : s_(s) {}

  /// Teams on call at each depth < kSimDepth, as bit masks.
  const std::vector<uint64_t>& OnCall(uint64_t mask) {
    auto it = sims_.find(mask);
    if (it != sims_.end()) return it->second;
    std::vector<uint64_t> sim(kSimDepth);
    uint64_t cur = 0;
    for (int i = 0; i < kStarts; ++i) cur |= uint64_t{1} << (i * (kTeams / kStarts));
    for (int n = 0; n < kSimDepth; ++n) {
      sim[static_cast<size_t>(n)] = cur;
      uint64_t next = (cur << 1) | (cur >> (kTeams - 1));
      for (uint64_t active = cur & mask; active != 0; active &= active - 1) {
        next |= uint64_t{1} << s_.shortcut_to[__builtin_ctzll(active)];
      }
      cur = next;
    }
    return sims_.emplace(mask, std::move(sim)).first->second;
  }

  bool Member(uint64_t mask, int depth, int team) {
    return (OnCall(mask)[static_cast<size_t>(depth)] >> team) & 1;
  }

  /// "" when `text` is the rendered answer of `key` under `mask`.
  std::string CheckQuery(uint64_t mask, const QueryKey& key, const std::string& text) {
    const std::vector<uint64_t>& sim = OnCall(mask);
    ExpectedAnswer expected;
    for (int t = 0; t <= kRenderDepth; ++t) {
      if (!((sim[static_cast<size_t>(t + key.shift)] >> key.team) & 1)) continue;
      SymPath path(static_cast<size_t>(t), 0);
      if (!key.pair) {
        expected.rows.insert(RowKey(path, {}));
        continue;
      }
      expected.rows.insert(RowKey(path, {s_.Team((key.team + 1) % kTeams)}));
      if ((mask >> key.team) & 1) {
        expected.rows.insert(RowKey(path, {s_.Team(s_.shortcut_to[key.team])}));
      }
    }
    return CheckRenderedAnswer({"+1"}, true, expected, text);
  }

 private:
  const ServeSetup& s_;
  std::unordered_map<uint64_t, std::vector<uint64_t>> sims_;
};

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) h = (h ^ c) * 0x100000001b3ULL;
  return h;
}

// ---------------------------------------------------------------------------
// Closed-loop connections
// ---------------------------------------------------------------------------

enum Kind : uint8_t { kMember = 0, kQuery = 1, kUpdate = 2 };

struct Rec {
  uint64_t send_ns = 0;
  uint64_t recv_ns = 0;
  uint64_t answer = 0;  // membership 0/1, query text hash, update fingerprint
  uint32_t own_version = 0;
  uint16_t key = 0;  // team, query key, or toggled shortcut
  uint16_t arg = 0;  // membership depth; update: 1 insert, 0 delete, 2 noop
  Kind kind = kMember;
};

struct Upd {
  uint64_t send_ns = 0;
  uint64_t ack_ns = 0;
  uint64_t fingerprint = 0;
};

struct Conn {
  int id = 0;
  Rng rng{0};
  std::unique_ptr<ServeClient> client;
  /// This connection's shortcut bits after v of its own updates.
  std::vector<uint64_t> versions;
  std::vector<Upd> upds;
  std::vector<Rec> recs;
  std::unordered_map<uint64_t, std::string> texts;
  uint64_t failed = 0;
  std::string mismatch;
};

std::string DeltaText(const ServeSetup& s, const Rec& rec) {
  if (rec.arg == 2) {
    return "+ Rotate(" + s.Team(rec.key) + ", " + s.Team((rec.key + 1) % kTeams) + ").";
  }
  return std::string(rec.arg == 1 ? "+ " : "- ") + s.Shortcut(rec.key) + ".";
}

std::string MemberText(const ServeSetup& s, const Rec& rec) {
  return "OnCall(" + std::to_string(rec.arg) + ", " + s.Team(rec.key) + ")";
}

void RunConn(Conn* c, const ServeSetup& s, const Zipf& zipf, bool updates,
             uint64_t deadline_ns) {
  // Per mille: updates, then membership probes; the rest are queries.
  const uint64_t update_pm = updates ? 100 : 20;
  const uint64_t member_pm = updates ? 450 : 500;
  while (NowNs() < deadline_ns) {
    Rec rec;
    rec.own_version = static_cast<uint32_t>(c->versions.size() - 1);
    const uint64_t u = c->rng.Below(1000);
    if (u < update_pm) {
      rec.kind = kUpdate;
      const uint64_t own = c->versions.back();
      if (updates) {
        const int j = 2 * static_cast<int>(c->rng.Below(kTeams / 2)) + c->id;
        rec.key = static_cast<uint16_t>(j);
        rec.arg = ((own >> j) & 1) ? 0 : 1;
      } else {
        rec.key = static_cast<uint16_t>(c->rng.Below(kTeams));
        rec.arg = 2;  // re-insert a present rotation edge: a noop
      }
      const std::string delta = DeltaText(s, rec);
      rec.send_ns = NowNs();
      auto reply = c->client->Update(delta);
      rec.recv_ns = NowNs();
      if (!reply.ok()) {
        ++c->failed;
        if (c->mismatch.empty()) c->mismatch = delta + ": " + reply.status().ToString();
        continue;
      }
      rec.answer = reply->fingerprint;
      const bool as_expected = rec.arg == 2   ? reply->noops == 1
                               : rec.arg == 1 ? reply->inserted == 1
                                              : reply->deleted == 1;
      if ((!as_expected || !reply->durable) && c->mismatch.empty()) {
        c->mismatch = delta + ": unexpected update result";
      }
      if (rec.arg != 2) {
        c->versions.push_back(own ^ (uint64_t{1} << rec.key));
        c->upds.push_back(Upd{rec.send_ns, rec.recv_ns, reply->fingerprint});
      }
    } else if (u < update_pm + member_pm) {
      rec.kind = kMember;
      rec.arg = static_cast<uint16_t>(c->rng.Below(kProbeDepths));
      // Half the probes ask a team the base rotation puts on call.
      rec.key = static_cast<uint16_t>(
          c->rng.Below(2) == 0
              ? (static_cast<int>(c->rng.Below(kStarts)) * (kTeams / kStarts) + rec.arg) % kTeams
              : static_cast<int>(c->rng.Below(kTeams)));
      const std::string text = MemberText(s, rec);
      rec.send_ns = NowNs();
      auto reply = c->client->Membership(text);
      rec.recv_ns = NowNs();
      if (!reply.ok()) {
        ++c->failed;
        if (c->mismatch.empty()) c->mismatch = text + ": " + reply.status().ToString();
        continue;
      }
      rec.answer = *reply ? 1 : 0;
    } else {
      rec.kind = kQuery;
      rec.key = static_cast<uint16_t>(zipf.Draw(&c->rng));
      const QueryKey& key = s.keys[rec.key];
      rec.send_ns = NowNs();
      auto reply = c->client->Query(key.text);
      rec.recv_ns = NowNs();
      if (!reply.ok()) {
        ++c->failed;
        if (c->mismatch.empty()) c->mismatch = key.text + ": " + reply.status().ToString();
        continue;
      }
      rec.answer = Fnv1a(reply->text);
      if (c->texts.find(rec.answer) == c->texts.end()) c->texts.emplace(rec.answer, reply->text);
    }
    c->recs.push_back(rec);
  }
}

// Checks every reply of `me`: its own edges are exact; the other
// connection's are any version between its last update acknowledged before
// the request was sent and its last update sent before the reply arrived.
std::string CheckConn(const Conn& me, const Conn& other, const ServeSetup& s, Oracle* oracle) {
  std::unordered_set<uint64_t> verified;
  size_t lo = 0;  // requests are in send order, so this only moves forward
  for (const Rec& rec : me.recs) {
    if (rec.kind == kUpdate) continue;
    const uint64_t own = me.versions[rec.own_version];
    while (lo < other.upds.size() && other.upds[lo].ack_ns < rec.send_ns) ++lo;
    size_t hi = lo;
    while (hi < other.upds.size() && other.upds[hi].send_ns < rec.recv_ns) ++hi;
    std::string why;
    bool ok = false;
    for (size_t v = lo; v <= hi && !ok; ++v) {
      const uint64_t mask = own | other.versions[v];
      if (rec.kind == kMember) {
        ok = oracle->Member(mask, rec.arg, rec.key) == (rec.answer == 1);
        if (!ok) why = MemberText(s, rec) + " answered " + (rec.answer ? "true" : "false");
        continue;
      }
      const uint64_t memo = rec.answer ^ (mask * 0x9e3779b97f4a7c15ULL) ^ (uint64_t{rec.key} << 48);
      if (verified.count(memo)) {
        ok = true;
        continue;
      }
      why = oracle->CheckQuery(mask, s.keys[rec.key], me.texts.at(rec.answer));
      ok = why.empty();
      if (ok) verified.insert(memo);
      else why = s.keys[rec.key].text + " " + why;
    }
    if (!ok) return "connection " + std::to_string(me.id) + ": " + why;
  }
  return "";
}

// ---------------------------------------------------------------------------
// The daemon
// ---------------------------------------------------------------------------

class Daemon {
 public:
  Daemon(const RunOptions& opt, std::string socket)
      : socket_(std::move(socket)),
        argv_{opt.relspecd, opt.run_dir + "/serve.rsp", "--socket", socket_,
              "--threads", "2", "--wal", opt.run_dir + "/serve.wal", "--fsync", "off"},
        log_(opt.run_dir + "/relspecd.log") {}
  ~Daemon() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      WaitProcess(pid_);
    }
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Starts relspecd and polls health until it is ready.
  relspec::StatusOr<relspec::serve::HealthResult> Start() {
    pid_ = SpawnProcess(argv_, log_);
    if (pid_ < 0) return relspec::Status::Internal("cannot start " + argv_[0]);
    const uint64_t give_up = NowNs() + 60'000'000'000ULL;
    while (NowNs() < give_up) {
      int status = 0;
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return relspec::Status::Internal("relspecd exited during start; see " + log_);
      }
      auto client = ServeClient::ConnectUnix(socket_);
      if (client.ok()) {
        auto health = (*client)->Health();
        if (health.ok() && health->ready) return health;
      }
      usleep(200);
    }
    return relspec::Status::Internal("relspecd did not become ready");
  }

  /// SIGTERM and wait: the daemon's exit code.
  int Stop() {
    if (pid_ <= 0) return -1;
    kill(pid_, SIGTERM);
    int code = WaitProcess(pid_);
    pid_ = -1;
    return code;
  }

  int pid() const { return pid_; }

 private:
  std::string socket_;
  std::vector<std::string> argv_;
  std::string log_;
  int pid_ = -1;
};

constexpr double kWarmSeconds = 1;  // the first second fills the cache
constexpr uint64_t kSliceNs = 1'000'000'000;

// Two connections for `seconds` after a warm-up. The calling thread, which
// is not in the request path, reads the daemon's CPU time at the end of the
// warm-up and of every one-second slice after it. Returns the warm-up's end.
uint64_t RunWindow(std::vector<Conn>* conns, const ServeSetup& s, bool updates,
                   double seconds, int daemon_pid, std::vector<double>* cpu_marks) {
  Zipf zipf(s.keys.size(), 1.0);
  const uint64_t start = NowNs();
  const uint64_t warm = start + static_cast<uint64_t>(kWarmSeconds * 1e9);
  const uint64_t deadline = warm + static_cast<uint64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (Conn& c : *conns) {
    threads.emplace_back([&c, &s, &zipf, updates, deadline] { RunConn(&c, s, zipf, updates, deadline); });
  }
  for (uint64_t mark = warm; mark <= deadline; mark += kSliceNs) {
    const uint64_t now = NowNs();
    if (mark > now) usleep(static_cast<useconds_t>((mark - now) / 1000));
    cpu_marks->push_back(PidCpuSeconds(daemon_pid));
  }
  for (std::thread& t : threads) t.join();
  return warm;
}

std::string OpenConns(const ServeSetup& s, const RunOptions& opt, const std::string& socket,
                      std::vector<Conn>* conns) {
  for (int id = 0; id < 2; ++id) {
    Conn c;
    c.id = id;
    c.rng = Rng(opt.seed * 1000003ULL + static_cast<uint64_t>(id) + 1);
    auto client = ServeClient::ConnectUnix(socket);
    if (!client.ok()) return client.status().ToString();
    c.client = std::move(*client);
    uint64_t own = 0;
    for (int j = id; j < kTeams; j += 2) own |= s.initial_mask & (uint64_t{1} << j);
    c.versions.push_back(own);
    conns->push_back(std::move(c));
  }
  return "";
}

void CheckConns(std::vector<Conn>* conns, const ServeSetup& s, bool corrupt, Result* r) {
  for (const Conn& c : *conns) {
    r->failed += c.failed;
    if (!c.mismatch.empty()) r->Fail(c.mismatch);
  }
  if (corrupt) {
    // Self-test: flip the first membership answer; the check must fail.
    for (Rec& rec : (*conns)[0].recs) {
      if (rec.kind == kMember) {
        rec.answer ^= 1;
        break;
      }
    }
  }
  Oracle oracle(s);
  for (size_t id = 0; id < 2; ++id) {
    std::string err = CheckConn((*conns)[id], (*conns)[1 - id], s, &oracle);
    if (!err.empty()) r->Fail(err);
  }
}

// End of serve-write: the restarted daemon must recover the last acknowledged
// state from the WAL and answer a probe set as the oracle of the final edges.
void CheckRestart(const RunOptions& opt, const ServeSetup& s, const std::string& socket,
                  const std::vector<Conn>& conns, uint64_t fp_end, Result* r) {
  bool acked = false;
  for (const Conn& c : conns) {
    if (!c.upds.empty() && c.upds.back().fingerprint == fp_end) acked = true;
  }
  if (!acked) r->Fail("final fingerprint is not the last acknowledged update's");
  Daemon again(opt, socket);
  auto health = again.Start();
  if (!health.ok()) {
    r->Fail("restart: " + health.status().ToString());
    return;
  }
  if (health->fingerprint != fp_end) r->Fail("restarted daemon fingerprint differs");
  auto client = ServeClient::ConnectUnix(socket);
  if (!client.ok()) {
    r->Fail("restart connect: " + client.status().ToString());
    return;
  }
  const uint64_t mask = conns[0].versions.back() | conns[1].versions.back();
  Oracle oracle(s);
  Rng rng(opt.seed ^ 0x5eed);
  for (int i = 0; i < 256; ++i) {
    Rec rec;
    rec.arg = static_cast<uint16_t>(rng.Below(kProbeDepths));
    rec.key = static_cast<uint16_t>(rng.Below(kTeams));
    auto holds = (*client)->Membership(MemberText(s, rec));
    if (!holds.ok() || *holds != oracle.Member(mask, rec.arg, rec.key)) {
      r->Fail("after restart: " + MemberText(s, rec));
      break;
    }
  }
  for (int i = 0; i < 48; ++i) {
    const QueryKey& key = s.keys[rng.Below(s.keys.size())];
    auto reply = (*client)->Query(key.text);
    std::string why = reply.ok() ? oracle.CheckQuery(mask, key, reply->text)
                                 : reply.status().ToString();
    if (!why.empty()) {
      r->Fail("after restart: " + key.text + " " + why);
      break;
    }
  }
  client->reset();
  if (again.Stop() != 0) r->Fail("restarted relspecd did not exit 0 on SIGTERM");
}

// ---------------------------------------------------------------------------
// Traced replay: the recorded request stream, in process, with the daemon's
// cache options and its update-then-BuildGraphSpec order.
// ---------------------------------------------------------------------------

constexpr size_t kChunkOps = 500;

struct ReplayStats {
  std::vector<double> chunk_us[2];  // wall time per chunk, tracer off / on
  double off_inproc_us = 0;         // in-process cost of the untraced chunks
  double off_round_trip_us = 0;     // their round trips over the socket
  size_t off_ops = 0;
};

// Replays `ops` on one engine, alternating chunks of kChunkOps requests with
// the event tracer off (spans into `untraced`) and on (into `traced`), so
// the tracing overhead is measured on like work under like host load.
std::string Replay(const RunOptions& opt, const ServeSetup& s, const std::vector<Rec>& ops,
                   LayerLog* untraced, LayerLog* traced, ReplayStats* out) {
  relspec::DurableOptions durable;
  durable.wal.fsync = relspec::FsyncMode::kOff;
  const std::string wal_path = opt.run_dir + "/replay.wal";
  auto db_or = relspec::FunctionalDatabase::OpenDurable(s.source, wal_path, durable);
  if (!db_or.ok()) return "replay open: " + db_or.status().ToString();
  relspec::FunctionalDatabase* db = db_or->get();
  auto spec_or = db->BuildGraphSpec();
  if (!spec_or.ok()) return "replay spec: " + spec_or.status().ToString();
  relspec::GraphSpecification spec = std::move(*spec_or);
  uint64_t fp = db->Fingerprint();
  relspec::QueryCache cache;  // the daemon's defaults: 64 entries, 16 MiB
  relspec::WalOptions wal_options;
  wal_options.fsync = relspec::FsyncMode::kOff;
  auto side_wal = relspec::DeltaWal::Create(opt.run_dir + "/append.wal", fp, wal_options);
  if (!side_wal.ok()) return "append log: " + side_wal.status().ToString();
  struct stat before {};
  stat(wal_path.c_str(), &before);
  size_t lookups = 0, hits = 0, updates = 0;
  relspec::Tracer::Global().SetBufferCapacity(1 << 18);
  uint64_t chunk_start = NowNs();
  for (size_t i = 0; i < ops.size(); ++i) {
    const bool on = (i / kChunkOps) % 2 == 1;
    if (i % kChunkOps == 0) {
      if (i > 0) out->chunk_us[!on].push_back(static_cast<double>(NowNs() - chunk_start) * 1e-3);
      relspec::EnableEventTrace(on);
      chunk_start = NowNs();
    }
    LayerLog* log = on ? traced : untraced;
    const Rec& rec = ops[i];
    const uint64_t t0 = NowNs();
    if (rec.kind == kMember) {
      auto holds = SpecHolds(spec, MemberText(s, rec), log);
      if (!holds.ok()) return "replay membership: " + holds.status().ToString();
    } else if (rec.kind == kQuery) {
      const QueryKey& key = s.keys[rec.key];
      relspec::StatusOr<relspec::Query> q = relspec::Status::OK();
      {
        Span span(log, "parser.query_us");
        q = relspec::ParseQuery(key.text, db->mutable_program());
      }
      if (!q.ok()) return "replay parse: " + key.text;
      std::shared_ptr<const relspec::QueryAnswer> answer;
      std::string cache_key;
      {
        Span span(log, "query.cache_lookup_us");
        cache_key = relspec::ToString(*q, db->program().symbols);
        answer = cache.Lookup(fp, cache_key);
      }
      ++lookups;
      if (answer != nullptr) {
        ++hits;
      } else {
        relspec::StatusOr<relspec::QueryAnswer> fresh = relspec::Status::OK();
        if (relspec::IsUniformQuery(*q)) {
          Span span(log, "query.incremental_us");
          fresh = relspec::AnswerQueryIncremental(db, *q);
        } else {
          Span span(log, "query.recompute_us");
          fresh = relspec::AnswerQueryRecompute(db, *q);
        }
        if (!fresh.ok()) return "replay answer: " + fresh.status().ToString();
        answer = std::make_shared<const relspec::QueryAnswer>(std::move(*fresh));
        cache.Insert(fp, cache_key, answer);
      }
      Span span(log, "protocol.render_us");
      relspec::serve::QueryResult result;
      result.spec_tuples = answer->NumSpecTuples();
      result.functional = answer->has_functional_answer();
      result.text = relspec::serve::RenderAnswerText(*answer);
      relspec::serve::EncodeQueryResult(result);
    } else {
      const std::string delta = DeltaText(s, rec);
      relspec::StatusOr<relspec::DeltaStats> stats = relspec::Status::OK();
      {
        Span span(log, "engine.apply_delta_us");
        stats = db->LogAndApplyDeltas(delta);
      }
      if (!stats.ok()) return "replay update: " + stats.status().ToString();
      ++updates;
      if (stats->inserted > 0 || stats->deleted > 0 || stats->rebuilt) {
        traced->Observe("engine.delta_rebuilt_ratio", stats->rebuilt ? 1 : 0);
        Span span(log, "graph_spec.build_us");
        auto rebuilt = db->BuildGraphSpec();
        if (!rebuilt.ok()) return "replay spec: " + rebuilt.status().ToString();
        spec = std::move(*rebuilt);
      }
      fp = db->Fingerprint();
      // The log append on its own, with the same payload.
      Span span(log, "wal.append_us");
      if (!(*side_wal)->Append(fp, delta).ok()) return "append log write failed";
    }
    if (!on) {
      out->off_inproc_us += static_cast<double>(NowNs() - t0) * 1e-3;
      out->off_round_trip_us += static_cast<double>(rec.recv_ns - rec.send_ns) * 1e-3;
      ++out->off_ops;
    }
  }
  relspec::EnableEventTrace(true);  // FinishTrace stops it
  struct stat after {};
  stat(wal_path.c_str(), &after);
  if (updates > 0) {
    traced->Observe("wal.bytes_per_update",
                 static_cast<double>(after.st_size - before.st_size) / static_cast<double>(updates));
  }
  if (lookups > 0) {
    traced->Observe("query.cache_hit_ratio", static_cast<double>(hits) / static_cast<double>(lookups));
  }
  return "";
}

Result TraceServe(const RunOptions& opt, const ServeSetup& s, std::vector<Conn>* conns,
                  Result r) {
  // Merge both connections' requests in send order.
  std::vector<Rec> ops;
  for (const Conn& c : *conns) ops.insert(ops.end(), c.recs.begin(), c.recs.end());
  std::sort(ops.begin(), ops.end(),
            [](const Rec& a, const Rec& b) { return a.send_ns < b.send_ns; });
  if (ops.size() > kReplayOps) ops.resize(kReplayOps);
  LayerLog untraced, log;
  ReplayStats replay;
  std::string err = Replay(opt, s, ops, &untraced, &log, &replay);
  // The daemon's set-up work: the engine stage chain and a snapshot of its
  // spec, on the served program.
  for (int i = 0; i < 8 && err.empty(); ++i) {
    Chain chain;
    err = RunChain(s.source, &log, &chain);
    if (!err.empty()) break;
    std::string bytes;
    {
      Span span(&log, "snapshot.save_us");
      bytes = relspec::Snapshot::Serialize(*chain.spec);
    }
    log.Observe("snapshot.bytes", static_cast<double>(bytes.size()));
    Span span(&log, "snapshot.load_us");
    if (!relspec::Snapshot::ParseGraphSpec(bytes).ok()) err = "snapshot load failed";
  }
  if (!err.empty()) {
    // Replay and set-up errors are engine or parse failures of one request
    // or one build.
    ++r.failed;
    r.Fail(err);
  }
  if (replay.off_ops > 0) {
    const double n = static_cast<double>(replay.off_ops);
    log.Observe("serve.round_trip_us", replay.off_round_trip_us / n);
    log.Observe("serve.overhead_us", (replay.off_round_trip_us - replay.off_inproc_us) / n);
  }
  if (!replay.chunk_us[0].empty() && !replay.chunk_us[1].empty()) {
    log.Observe("trace.overhead_us", (Quantile(&replay.chunk_us[1], 0.5) -
                                      Quantile(&replay.chunk_us[0], 0.5)) / kChunkOps);
  }
  FinishTrace(opt, &log, &r);
  return r;
}

}  // namespace

// Set-up check in process, before the daemon starts: the served program's
// spec and its RSNP size, and every query key answered and rendered as the
// daemon does, checked against the oracle of the initial edges. Returns the
// RSNP size.
double PreflightInProcess(const ServeSetup& s, Result* r) {
  auto db = relspec::FunctionalDatabase::FromSource(s.source);
  auto spec = db.ok() ? (*db)->BuildGraphSpec()
                      : relspec::StatusOr<relspec::GraphSpecification>(db.status());
  if (!spec.ok()) {
    r->Fail("in-process build: " + spec.status().ToString());
    return 0;
  }
  Oracle oracle(s);
  for (const QueryKey& key : s.keys) {
    auto q = relspec::ParseQuery(key.text, (*db)->mutable_program());
    auto answer = q.ok() ? relspec::AnswerQuery(db->get(), *q)
                         : relspec::StatusOr<relspec::QueryAnswer>(q.status());
    std::string why = answer.ok()
                          ? oracle.CheckQuery(s.initial_mask, key,
                                              relspec::serve::RenderAnswerText(*answer))
                          : answer.status().ToString();
    if (!why.empty()) {
      r->Fail("in process: " + key.text + " " + why);
      break;
    }
  }
  return static_cast<double>(relspec::Snapshot::Serialize(*spec).size());
}

Result RunServe(const RunOptions& opt, bool updates) {
  Result r;
  Rng rng(opt.seed);
  ServeSetup s = MakeSetup(&rng);
  const double snapshot_bytes = PreflightInProcess(s, &r);
  {
    FILE* f = fopen((opt.run_dir + "/serve.rsp").c_str(), "w");
    if (f == nullptr) {
      r.Fail("cannot write " + opt.run_dir + "/serve.rsp");
      return r;
    }
    fputs(s.source.c_str(), f);
    fclose(f);
  }
  const std::string socket = opt.run_dir + "/d.sock";
  Daemon daemon(opt, socket);
  auto health = daemon.Start();
  if (!health.ok()) {
    r.Fail(health.status().ToString());
    return r;
  }
  std::vector<Conn> conns;
  std::string err = OpenConns(s, opt, socket, &conns);
  if (!err.empty()) {
    r.Fail(err);
    return r;
  }
  const double setup_s = static_cast<double>(NowNs() - opt.process_start_ns) * 1e-9;

  std::vector<double> cpu_marks;
  const double seconds = opt.trace ? opt.seconds / 2 : opt.seconds;
  const uint64_t warm = RunWindow(&conns, s, updates, seconds, daemon.pid(), &cpu_marks);
  const double rss = PeakRssMb(daemon.pid());
  uint64_t fp_end = 0;
  {
    auto probe = ServeClient::ConnectUnix(socket);
    auto end_health = probe.ok() ? (*probe)->Health()
                                 : relspec::StatusOr<relspec::serve::HealthResult>(probe.status());
    if (end_health.ok()) fp_end = end_health->fingerprint;
    else r.Fail("health after the run: " + end_health.status().ToString());
  }
  for (Conn& c : conns) c.client.reset();
  if (daemon.Stop() != 0) r.Fail("relspecd did not exit 0 on SIGTERM");

  for (const Conn& c : conns) r.attempted += c.recs.size() + c.failed;
  CheckConns(&conns, s, opt.inject_wrong_answer, &r);
  if (updates && !opt.trace) CheckRestart(opt, s, socket, conns, fp_end, &r);
  if (opt.trace) return TraceServe(opt, s, &conns, r);

  // One-second slices after the warm-up; each holds thousands of requests,
  // so its reply count tracks how contended the host was, and the figures
  // come from the fastest quarter (common.h, FastestQuarter).
  const size_t slices = cpu_marks.size() - 1;
  auto slice_of = [warm](const Rec& rec) {
    return rec.send_ns < warm ? SIZE_MAX : static_cast<size_t>((rec.recv_ns - warm) / kSliceNs);
  };
  std::vector<double> replies_in(slices, 0);
  for (const Conn& c : conns) {
    for (const Rec& rec : c.recs) {
      if (slice_of(rec) < slices) replies_in[slice_of(rec)] += 1;
    }
  }
  std::vector<double> cost;
  for (double n : replies_in) cost.push_back(1.0 / (n + 1));
  std::vector<bool> kept(slices, false);
  double replies = 0, cpu = 0, wall = 0;
  for (size_t i : FastestQuarter(cost)) {
    kept[i] = true;
    replies += replies_in[i];
    cpu += cpu_marks[i + 1] - cpu_marks[i];
    wall += static_cast<double>(kSliceNs) * 1e-9;
  }
  std::vector<double> member, uniform, recompute, update;
  for (const Conn& c : conns) {
    for (const Rec& rec : c.recs) {
      if (slice_of(rec) >= slices || !kept[slice_of(rec)]) continue;
      const double us = static_cast<double>(rec.recv_ns - rec.send_ns) * 1e-3;
      if (rec.kind == kMember) member.push_back(us);
      else if (rec.kind == kUpdate) update.push_back(us);
      else (s.keys[rec.key].shift == 0 ? uniform : recompute).push_back(us);
    }
  }
  r.Add("setup_s", setup_s, "s");
  r.Add("throughput_ops_s", replies / wall, "ops/s");
  r.Add("cpu_us_per_op", cpu * 1e6 / replies, "us");
  r.Add("peak_rss_mb", rss, "MiB");
  r.Add("snapshot_bytes", snapshot_bytes, "bytes");
  AddLatencies(&member, "membership", &r);
  AddLatencies(&uniform, "query_uniform", &r);
  AddLatencies(&recompute, "query_recompute", &r);
  AddLatencies(&update, "update", &r);
  fprintf(stderr, "%s: %.0f replies in %.0f kept seconds (%zu membership, %zu uniform, %zu shifted, "
          "%zu updates)\n", opt.workload.c_str(), replies, wall, member.size(), uniform.size(),
          recompute.size(), update.size());
  return r;
}

}  // namespace relbench
