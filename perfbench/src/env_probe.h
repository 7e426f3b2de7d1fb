// Env decorator for the traced run: counts every read and write that
// reaches the device and records a span per call on the active tracer
// (the spans give the calls' busy time). It sits above ThrottledEnv, so
// its counts must equal ThrottledEnv::stats() for the same traffic.
#ifndef PERFBENCH_ENV_PROBE_H_
#define PERFBENCH_ENV_PROBE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "storage/env.h"

namespace perfbench {

struct ProbeCounts {
  uint64_t read_calls = 0;
  uint64_t read_bytes = 0;
  uint64_t write_calls = 0;
  uint64_t write_bytes = 0;

  ProbeCounts Minus(const ProbeCounts& before) const;
};

class ProbeEnv : public opt::Env {
 public:
  explicit ProbeEnv(opt::Env* base) : base_(base) {}

  opt::Result<std::unique_ptr<opt::RandomAccessFile>> OpenRandomAccess(
      const std::string& path) override;
  opt::Result<std::unique_ptr<opt::WritableFile>> OpenWritable(
      const std::string& path) override;
  opt::Result<uint64_t> FileSize(const std::string& path) override;
  bool FileExists(const std::string& path) override;
  opt::Status DeleteFile(const std::string& path) override;

  ProbeCounts Snapshot() const;

  struct Counters {
    std::atomic<uint64_t> read_calls{0};
    std::atomic<uint64_t> read_bytes{0};
    std::atomic<uint64_t> write_calls{0};
    std::atomic<uint64_t> write_bytes{0};
  };

 private:
  opt::Env* base_;
  Counters counters_;
};

}  // namespace perfbench

#endif  // PERFBENCH_ENV_PROBE_H_
