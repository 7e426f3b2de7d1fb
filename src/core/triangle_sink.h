// Triangle output sinks. All triangulation methods emit through this
// interface using the paper's *nested representation* (§3.2): triangles
// sharing the prefix (u, v) arrive as one call <u, v, {w1..wk}>, which
// avoids re-serializing common prefixes. Sinks must be thread safe: OPT
// emits concurrently from the internal and external triangulation.
#ifndef OPT_CORE_TRIANGLE_SINK_H_
#define OPT_CORE_TRIANGLE_SINK_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/triangle.h"
#include "storage/env.h"
#include "util/blocking_queue.h"
#include "util/status.h"

namespace opt {

class TriangleSink {
 public:
  virtual ~TriangleSink() = default;

  /// Reports the triangles (u, v, w) for every w in `ws`. `ws` is sorted
  /// ascending and every w satisfies id(u) < id(v) < id(w).
  virtual void Emit(VertexId u, VertexId v,
                    std::span<const VertexId> ws) = 0;

  /// Flushes buffered output. Called once when triangulation completes.
  virtual Status Finish() { return Status::OK(); }
};

/// Counts triangles; O(1) memory. Each emitting thread adds to its own
/// one of kStripes cache-line-sized counters (the stripe ListingSink
/// would give it), so concurrent workers do not contend on one line.
class CountingSink : public TriangleSink {
 public:
  void Emit(VertexId, VertexId, std::span<const VertexId> ws) override;
  uint64_t count() const;
  void Reset();

 private:
  static constexpr size_t kStripes = 16;

  struct alignas(64) Stripe {
    std::atomic<uint64_t> count{0};
  };

  Stripe stripes_[kStripes];
};

/// Collects all triangles in memory (tests and small graphs only).
class VectorSink : public TriangleSink {
 public:
  void Emit(VertexId u, VertexId v, std::span<const VertexId> ws) override;
  /// Sorted, deduplicated triangle list. Call after triangulation.
  std::vector<Triangle> Sorted() const;
  size_t size() const;

 private:
  mutable std::mutex mutex_;
  std::vector<Triangle> triangles_;
};

/// Per-vertex triangle participation counts (for clustering coefficients
/// and the data-mining examples).
class PerVertexCountSink : public TriangleSink {
 public:
  explicit PerVertexCountSink(VertexId num_vertices);
  void Emit(VertexId u, VertexId v, std::span<const VertexId> ws) override;
  /// Copy of the per-vertex counts.
  std::vector<uint64_t> Counts() const;
  uint64_t total() const { return total_.load(std::memory_order_relaxed); }

 private:
  std::vector<std::atomic<uint64_t>> counts_;
  std::atomic<uint64_t> total_{0};
};

/// Streams the nested representation to a file through a background
/// writer thread — the paper's asynchronous bulk output writing (§5.2).
/// Record format (binary, little-endian u32): u, v, k, w1..wk.
///
/// Each emitting thread appends to its own one of kStripes buffers, so
/// up to kStripes concurrent workers never share a lock. A buffer is
/// handed to the writer whole, so records never interleave; their order
/// across threads is unspecified. The writer recycles a fixed set of
/// kSpareBlocks blocks: when all of them wait for the device, an emitter
/// with a full buffer waits too, instead of growing memory.
class ListingSink : public TriangleSink {
 public:
  /// Buffers `flush_threshold` bytes per stripe before handing a block
  /// to the writer thread. With `asynchronous` false the flush happens
  /// inline on the emitting thread — the synchronous bulk-write mode the
  /// paper's competitors use in the Table 3 experiment.
  ListingSink(Env* env, std::string path, size_t flush_threshold = 1 << 20,
              bool asynchronous = true);
  ~ListingSink() override;
  ListingSink(const ListingSink&) = delete;
  ListingSink& operator=(const ListingSink&) = delete;

  void Emit(VertexId u, VertexId v, std::span<const VertexId> ws) override;
  Status Finish() override;

  uint64_t bytes_written() const {
    return bytes_written_.load(std::memory_order_relaxed);
  }
  uint64_t triangles_written() const;

 private:
  static constexpr size_t kStripes = 16;
  static constexpr size_t kSpareBlocks = 4;

  struct alignas(64) Stripe {
    std::mutex mutex;
    std::string buffer;                  // guarded by mutex
    std::atomic<uint64_t> triangles{0};  // written under mutex
  };

  void WriterLoop();
  void WriteBlock(const std::string& block);

  Env* env_;
  std::string path_;
  size_t flush_threshold_;
  bool asynchronous_;

  Stripe stripes_[kStripes];
  BlockingQueue<std::string> full_blocks_;   // to the writer
  BlockingQueue<std::string> spare_blocks_;  // back from the writer

  std::mutex write_mutex_;  // guards file_ and write_status_
  std::unique_ptr<WritableFile> file_;
  Status write_status_;
  std::atomic<uint64_t> bytes_written_{0};

  std::mutex finish_mutex_;  // guards finished_
  bool finished_ = false;
  std::thread writer_;
};

/// Fans out to several sinks (e.g. counting + listing).
class TeeSink : public TriangleSink {
 public:
  explicit TeeSink(std::vector<TriangleSink*> sinks)
      : sinks_(std::move(sinks)) {}
  void Emit(VertexId u, VertexId v, std::span<const VertexId> ws) override {
    for (TriangleSink* s : sinks_) s->Emit(u, v, ws);
  }
  Status Finish() override {
    for (TriangleSink* s : sinks_) OPT_RETURN_IF_ERROR(s->Finish());
    return Status::OK();
  }

 private:
  std::vector<TriangleSink*> sinks_;
};

}  // namespace opt

#endif  // OPT_CORE_TRIANGLE_SINK_H_
