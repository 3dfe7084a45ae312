// relbench_driver: runs one relbench workload and prints the result line.
//
//   relbench_driver --workload build|serve-read|serve-write --seed N
//                   --seconds S --trace 0|1 --run-dir DIR
//                   --relspecd PATH --trace-check PATH [--inject-wrong-answer]
//
// The last line on stdout is one JSON object: correct, attempted, failed and
// metrics (the end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1). Exit code 0 when every answer matched its oracle and no
// operation failed, 1 on a mismatch or failure, 2 on a usage error.
// relbench/run.py builds the binaries and passes the paths.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "relbench/src/common.h"
#include "relbench/src/workloads.h"

int main(int argc, char** argv) {
  relbench::RunOptions opt;
  opt.process_start_ns = relbench::NowNs();
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        fprintf(stderr, "relbench_driver: %s needs a value\n", arg.c_str());
        exit(2);
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      opt.workload = value();
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::atof(value().c_str());
    } else if (arg == "--trace") {
      opt.trace = value() != "0";
    } else if (arg == "--run-dir") {
      opt.run_dir = value();
    } else if (arg == "--relspecd") {
      opt.relspecd = value();
    } else if (arg == "--trace-check") {
      opt.trace_check = value();
    } else if (arg == "--inject-wrong-answer") {
      opt.inject_wrong_answer = true;
    } else {
      fprintf(stderr, "relbench_driver: unknown flag %s\n", arg.c_str());
      return 2;
    }
  }
  if (opt.run_dir.empty() || opt.relspecd.empty() || opt.trace_check.empty() ||
      opt.seconds <= 0) {
    fprintf(stderr, "relbench_driver: --run-dir, --relspecd, --trace-check and "
                    "a positive --seconds are required\n");
    return 2;
  }
  relbench::Result result;
  if (opt.workload == "build") {
    result = relbench::RunBuild(opt);
  } else if (opt.workload == "serve-read" || opt.workload == "serve-write") {
    result = relbench::RunServe(opt, opt.workload == "serve-write");
  } else {
    fprintf(stderr, "relbench_driver: unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  for (const relbench::Metric& m : result.reference) {
    fprintf(stderr, "relbench_driver: reference %s %.6g %s\n", m.name.c_str(), m.value,
            m.unit.c_str());
  }
  if (!result.correct) {
    fprintf(stderr, "relbench_driver: MISMATCH: %s\n", result.mismatch.c_str());
  }
  printf("%s\n", result.ToJson().c_str());
  return result.correct && result.failed == 0 ? 0 : 1;
}
