// Shared helpers for the relbench driver: seeded randomness, clocks,
// sample statistics, process accounting, the per-layer span recorder and
// the result line.

#ifndef RELBENCH_SRC_COMMON_H_
#define RELBENCH_SRC_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace relbench {

// ---------------------------------------------------------------------------
// Randomness: SplitMix64, so a seed fixes every generated input.
// ---------------------------------------------------------------------------

class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed * 0x9e3779b97f4a7c15ULL + 1) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  uint64_t Below(uint64_t n) { return Next() % n; }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) std::swap((*v)[i - 1], (*v)[Below(i)]);
  }

 private:
  uint64_t state_;
};

/// Zipf(s) over ranks [0, n): precomputed CDF, binary search per draw.
class Zipf {
 public:
  Zipf(size_t n, double s) : cdf_(n) {
    double sum = 0;
    for (size_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  size_t Draw(Rng* rng) const {
    double u = rng->Unit();
    size_t r = static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return std::min(r, cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

// ---------------------------------------------------------------------------
// Clocks and samples
// ---------------------------------------------------------------------------

using Clock = std::chrono::steady_clock;

inline uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   Clock::now().time_since_epoch())
                                   .count());
}

/// The q-quantile (0..1) of `v` by nearest rank; sorts `v` in place.
inline double Quantile(std::vector<double>* v, double q) {
  if (v->empty()) return 0;
  std::sort(v->begin(), v->end());
  size_t idx = static_cast<size_t>(std::ceil(q * static_cast<double>(v->size())));
  if (idx > 0) --idx;
  return (*v)[std::min(idx, v->size() - 1)];
}

/// Process CPU time (user + system) of the calling process, in seconds.
double SelfCpuSeconds();
/// CPU time of process `pid` from /proc/<pid>/stat, in seconds.
double PidCpuSeconds(int pid);
/// VmHWM of process `pid` (0 = self) from /proc/<pid>/status, in MiB.
double PeakRssMb(int pid);

/// Starts `argv` with stdout and stderr appended to `log_path`; returns the
/// pid, or -1 when it could not be started.
int SpawnProcess(const std::vector<std::string>& argv, const std::string& log_path);
/// Waits for `pid`; returns its exit code, or -1 when it did not exit
/// normally.
int WaitProcess(int pid);
/// SpawnProcess + WaitProcess.
int RunProcess(const std::vector<std::string>& argv, const std::string& log_path);

// ---------------------------------------------------------------------------
// Per-layer recorder for the traced run: every span is written to the
// program's event tracer (category "relbench") and its duration is summed
// per layer name here, so the reported per-layer figures and the exported
// timeline come from the same calls.
// ---------------------------------------------------------------------------

class LayerLog {
 public:
  /// Mean microseconds per recorded span of `name` (0 when none).
  double MeanUs(const std::string& name) const;
  void Add(const std::string& name, uint64_t ns);

  /// Per-layer counts (|U|, chi entries, ...), averaged per observation.
  void Observe(const std::string& name, double value);
  double ObservedMean(const std::string& name) const;

 private:
  struct Acc {
    uint64_t total_ns = 0;
    size_t count = 0;
  };
  std::map<std::string, Acc> spans_;
  std::map<std::string, std::pair<double, size_t>> observed_;
};

/// RAII span: Tracer begin/end under category "relbench" plus a LayerLog
/// entry. `name` must be a string literal (the tracer stores the pointer).
class Span {
 public:
  Span(LayerLog* log, const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  LayerLog* log_;
  const char* name_;
  uint64_t start_ns_;
};

// ---------------------------------------------------------------------------
// Result line
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Result {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Figures printed on stderr for reference only: they did not repeat
  /// within a bound on the reference host (README.md, "Noise").
  std::vector<Metric> reference;
  /// First mismatch, reported on stderr.
  std::string mismatch;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
  /// Records a mismatch (keeps the first message).
  void Fail(const std::string& message) {
    if (correct) mismatch = message;
    correct = false;
  }
  std::string ToJson() const;
};

/// Indices (ascending) of the quarter (at least two) of slices that did
/// comparable work with the lowest `cost` (wall time per unit of work).
/// The host these figures were taken on slows every thread by up to 6x, for
/// seconds or minutes at a time, when its neighbours are busy. Over the
/// fastest quarter of a run's slices a busy stretch moves a figure about
/// half as much as over the whole run, and a regression that slows three
/// quarters of the slices or more still shows in full (README.md, "Noise").
std::vector<size_t> FastestQuarter(const std::vector<double>& cost);

/// Adds the metric <prefix>_p50_us and the reference figure <prefix>_p99_us
/// over `us` (sorted in place).
void AddLatencies(std::vector<double>* us, const std::string& prefix, Result* r);

/// Options shared by every workload.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Corrupts one recorded answer before checking (driver self-test).
  bool inject_wrong_answer = false;
  /// Directory (relative to the working directory) for run files.
  std::string run_dir;
  std::string relspecd;
  std::string trace_check;
  /// steady_clock reading taken first thing in main().
  uint64_t process_start_ns = 0;
};

}  // namespace relbench

#endif  // RELBENCH_SRC_COMMON_H_
