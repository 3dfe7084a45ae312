#include "relbench/src/common.h"

#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <fstream>
#include <sstream>

#include "src/base/trace.h"

namespace relbench {

double SelfCpuSeconds() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double PidCpuSeconds(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  if (!std::getline(in, line)) return 0;
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  size_t close = line.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream rest(line.substr(close + 2));
  std::string field;
  double utime = 0, stime = 0;
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i == 14) utime = std::stod(field);
    if (i == 15) stime = std::stod(field);
  }
  return (utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double PeakRssMb(int pid) {
  std::ifstream in(pid == 0 ? std::string("/proc/self/status")
                            : "/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

int SpawnProcess(const std::vector<std::string>& argv, const std::string& log_path) {
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 1, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  posix_spawn_file_actions_adddup2(&actions, 1, 2);
  pid_t pid = -1;
  int rc = posix_spawn(&pid, args[0], &actions, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  return rc == 0 ? static_cast<int>(pid) : -1;
}

int WaitProcess(int pid) {
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) return -1;
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

int RunProcess(const std::vector<std::string>& argv, const std::string& log_path) {
  int pid = SpawnProcess(argv, log_path);
  return pid < 0 ? -1 : WaitProcess(pid);
}

void LayerLog::Add(const std::string& name, uint64_t ns) {
  Acc& a = spans_[name];
  a.total_ns += ns;
  ++a.count;
}

double LayerLog::MeanUs(const std::string& name) const {
  auto it = spans_.find(name);
  if (it == spans_.end() || it->second.count == 0) return 0;
  return static_cast<double>(it->second.total_ns) * 1e-3 /
         static_cast<double>(it->second.count);
}

void LayerLog::Observe(const std::string& name, double value) {
  auto& o = observed_[name];
  o.first += value;
  ++o.second;
}

double LayerLog::ObservedMean(const std::string& name) const {
  auto it = observed_.find(name);
  if (it == observed_.end() || it->second.second == 0) return 0;
  return it->second.first / static_cast<double>(it->second.second);
}

Span::Span(LayerLog* log, const char* name)
    : log_(log), name_(name), start_ns_(NowNs()) {
  if (relspec::EventTraceEnabled()) {
    relspec::Tracer::Global().Begin("relbench", name_);
  }
}

Span::~Span() {
  if (relspec::EventTraceEnabled()) {
    relspec::Tracer::Global().End("relbench", name_);
  }
  log_->Add(name_, NowNs() - start_ns_);
}

std::vector<size_t> FastestQuarter(const std::vector<double>& cost) {
  std::vector<size_t> order(cost.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&cost](size_t a, size_t b) { return cost[a] < cost[b]; });
  const size_t n = (cost.size() + 3) / 4;
  order.resize(std::min(order.size(), std::max<size_t>(2, n)));
  std::sort(order.begin(), order.end());
  return order;
}

void AddLatencies(std::vector<double>* us, const std::string& prefix, Result* r) {
  r->Add(prefix + "_p50_us", Quantile(us, 0.5), "us");
  r->reference.push_back(Metric{prefix + "_p99_us", Quantile(us, 0.99), "us"});
}

std::string Result::ToJson() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics) {
    if (!first) out += ", ";
    first = false;
    char value[64];
    snprintf(value, sizeof(value), "%.17g", m.value);
    out += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace relbench
