// perfbench: runs one workload of the repository benchmark and prints
// its metric values by name as the last line of standard output:
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --work_dir DIR [--trace_out FILE] [--<param> VALUE ...]
//
// The workload parameters (graph generator, buffer, emulated device,
// load mix) come as flags; perfbench/run.py reads them from
// perfbench/workloads.json. Exit status 0 means every answer matched the
// oracle; 1 means a wrong answer (the result line says so); 2 means the
// run could not be made.
#include <sys/stat.h>

#include <cstdio>
#include <string>
#include <thread>

#include "util/cli.h"
#include "workloads.h"

int main(int argc, char** argv) {
  auto cl = opt::CommandLine::Parse(argc, argv);
  if (!cl.ok()) {
    std::fprintf(stderr, "%s\n", cl.status().ToString().c_str());
    return 2;
  }
  perfbench::RunArgs args;
  args.workload = cl->GetString("workload", "");
  args.seed = static_cast<uint64_t>(cl->GetInt("seed", 1));
  args.seconds = cl->GetDouble("seconds", 10);
  args.trace = cl->GetInt("trace", 0) != 0;
  args.work_dir = cl->GetString("work_dir", "");
  args.trace_path = cl->GetString("trace_out", "");
  args.params = &*cl;
  args.nproc = std::max(1u, std::thread::hardware_concurrency());
  if (args.workload.empty() || args.work_dir.empty() || args.seconds <= 0) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --work_dir DIR [--<param> VALUE ...]\n");
    return 2;
  }
  ::mkdir(args.work_dir.c_str(), 0755);

  perfbench::RunReport report;
  const opt::Status status = perfbench::RunWorkload(args, &report);
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: %s: %s\n", args.workload.c_str(),
                 status.ToString().c_str());
    return 2;
  }
  if (!report.first_error.empty()) {
    std::fprintf(stderr, "perfbench: wrong answer: %s\n",
                 report.first_error.c_str());
  }
  std::string metrics;
  for (const auto& [name, value] : report.metrics) {
    char number[64];
    std::snprintf(number, sizeof(number), "%.17g", value);
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + name + "\": " + number;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              metrics.c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}
