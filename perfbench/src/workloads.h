// The benchmark's workloads. A batch workload (inmem-skew, ooc-sparse,
// ooc-list) times repeated OptRunner::Run calls on one store; serve-mix
// drives an in-process OptServer with an open-loop load generator.
// Workload parameters arrive as flags (perfbench/run.py passes them from
// perfbench/workloads.json); the seed only shapes the generated inputs.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/opt_runner.h"
#include "util/cli.h"

namespace perfbench {

struct RunReport {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Metric values by the names BENCHMARK.json uses; perfbench/run.py
  /// picks the end-to-end or per-layer ones and attaches their units.
  std::map<std::string, double> metrics;
  /// First wrong answer or error, for stderr.
  std::string first_error;
};

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory for stores and listings (inside the checkout).
  std::string work_dir;
  /// Chrome-trace output of the traced run.
  std::string trace_path;
  const opt::CommandLine* params = nullptr;
  unsigned nproc = 1;
};

/// Dispatches on params "kind" (batch | serve).
opt::Status RunWorkload(const RunArgs& args, RunReport* report);

/// Splits one run's wall time into phase A (Σ load_seconds), phase C
/// (Σ overlap_seconds) and the rest (phase B planning plus thread start
/// and join); the three add up to `wall_s` exactly.
struct PhaseSplit {
  double phase_a_s = 0;
  double phase_c_s = 0;
  double other_s = 0;
};
PhaseSplit SplitRunWall(const opt::OptRunStats& stats, double wall_s);

double Median(std::vector<double> values);
/// Nearest-rank percentile, q in [0, 1]; 0 for an empty input.
double Percentile(std::vector<double> values, double q);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
