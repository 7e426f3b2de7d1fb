#include "env_probe.h"

#include "trace.h"

namespace perfbench {
namespace {

class ProbeFile : public opt::RandomAccessFile {
 public:
  ProbeFile(std::unique_ptr<opt::RandomAccessFile> base,
            ProbeEnv::Counters* counters)
      : base_(std::move(base)), counters_(counters) {}

  opt::Status Read(uint64_t offset, size_t n, char* dst) const override {
    Span span("storage.read");
    opt::Status s = base_->Read(offset, n, dst);
    counters_->read_calls.fetch_add(1, std::memory_order_relaxed);
    counters_->read_bytes.fetch_add(n, std::memory_order_relaxed);
    return s;
  }

 private:
  std::unique_ptr<opt::RandomAccessFile> base_;
  ProbeEnv::Counters* counters_;
};

class ProbeWritable : public opt::WritableFile {
 public:
  ProbeWritable(std::unique_ptr<opt::WritableFile> base,
                ProbeEnv::Counters* counters)
      : base_(std::move(base)), counters_(counters) {}

  opt::Status Append(opt::Slice data) override {
    Span span("storage.write");
    opt::Status s = base_->Append(data);
    counters_->write_calls.fetch_add(1, std::memory_order_relaxed);
    counters_->write_bytes.fetch_add(data.size(), std::memory_order_relaxed);
    return s;
  }
  opt::Status Sync() override { return base_->Sync(); }
  opt::Status Close() override { return base_->Close(); }

 private:
  std::unique_ptr<opt::WritableFile> base_;
  ProbeEnv::Counters* counters_;
};

}  // namespace

ProbeCounts ProbeCounts::Minus(const ProbeCounts& before) const {
  ProbeCounts d;
  d.read_calls = read_calls - before.read_calls;
  d.read_bytes = read_bytes - before.read_bytes;
  d.write_calls = write_calls - before.write_calls;
  d.write_bytes = write_bytes - before.write_bytes;
  return d;
}

opt::Result<std::unique_ptr<opt::RandomAccessFile>> ProbeEnv::OpenRandomAccess(
    const std::string& path) {
  OPT_ASSIGN_OR_RETURN(auto file, base_->OpenRandomAccess(path));
  return std::unique_ptr<opt::RandomAccessFile>(
      new ProbeFile(std::move(file), &counters_));
}

opt::Result<std::unique_ptr<opt::WritableFile>> ProbeEnv::OpenWritable(
    const std::string& path) {
  OPT_ASSIGN_OR_RETURN(auto file, base_->OpenWritable(path));
  return std::unique_ptr<opt::WritableFile>(
      new ProbeWritable(std::move(file), &counters_));
}

opt::Result<uint64_t> ProbeEnv::FileSize(const std::string& path) {
  return base_->FileSize(path);
}

bool ProbeEnv::FileExists(const std::string& path) {
  return base_->FileExists(path);
}

opt::Status ProbeEnv::DeleteFile(const std::string& path) {
  return base_->DeleteFile(path);
}

ProbeCounts ProbeEnv::Snapshot() const {
  ProbeCounts c;
  c.read_calls = counters_.read_calls.load();
  c.read_bytes = counters_.read_bytes.load();
  c.write_calls = counters_.write_calls.load();
  c.write_bytes = counters_.write_bytes.load();
  return c;
}

}  // namespace perfbench
