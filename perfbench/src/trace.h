// In-memory span recorder for the benchmark's traced run. Spans are
// opened and closed around calls into each layer from the benchmark's
// own code (store create/open, OptRunner::Run, Env reads and writes,
// sink Emit/Finish, client requests); nothing inside the library is
// instrumented.
//
// Every span records name, start, end, thread and parent. The parent is
// the innermost open span on the same thread or, for a thread with no
// open span (the library's I/O and worker threads), the tracer's root
// span. Per-name totals (count, busy time, self time) are exact; the
// individual spans kept for the Chrome-trace file are capped so a
// listing run with millions of Emit calls stays bounded in memory.
// Self time is a span's duration minus that of its same-thread
// children; children on other threads overlap their parent and are not
// subtracted.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanTotals {
  uint64_t count = 0;
  double busy_s = 0;
  double self_s = 0;
};

class Tracer {
 public:
  Tracer();
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens a span on the calling thread; `name` must be a string
  /// literal (totals are keyed by its text).
  void Begin(const char* name);
  /// Closes the calling thread's innermost open span.
  void End();

  /// Span id that parentless spans on other threads attach to (0 none).
  void SetRoot(uint64_t span_id) { root_.store(span_id); }
  /// Id of the calling thread's innermost open span (0 when none).
  uint64_t CurrentSpan() const;

  /// Totals by span name. Call after all traced work has finished.
  std::map<std::string, SpanTotals> Totals() const;

  /// Writes the kept spans as Chrome trace_event JSON.
  bool WriteChromeTrace(const std::string& path) const;

  /// The process-wide tracer, or null when tracing is off.
  static Tracer* Active() { return active_.load(std::memory_order_acquire); }
  static void SetActive(Tracer* tracer) {
    active_.store(tracer, std::memory_order_release);
  }

 private:
  struct Record {
    const char* name;
    uint64_t start_ns;
    uint64_t end_ns;
    uint32_t tid;
    uint64_t id;
    uint64_t parent;
  };
  struct Frame {
    const char* name;
    uint64_t id;
    uint64_t parent;
    uint64_t start_ns;
    uint64_t child_ns;
  };
  struct ThreadBuffer {
    uint32_t tid = 0;
    std::vector<Frame> stack;
    std::vector<Record> kept;
    std::map<const char*, SpanTotals> totals;
  };

  ThreadBuffer* Local();
  uint64_t NowNanos() const;

  static std::atomic<Tracer*> active_;

  // Spans kept for the Chrome trace (~50 bytes each); totals are exact
  // beyond it.
  static constexpr size_t kMaxKeptSpans = 100000;

  const uint64_t generation_;
  const std::chrono::steady_clock::time_point epoch_;
  std::atomic<uint64_t> next_id_{1};
  std::atomic<uint64_t> root_{0};
  std::atomic<size_t> kept_{0};
  mutable std::mutex mutex_;  // guards buffers_
  std::vector<std::shared_ptr<ThreadBuffer>> buffers_;
};

/// RAII span on the active tracer; a no-op when tracing is off.
class Span {
 public:
  explicit Span(const char* name) : tracer_(Tracer::Active()) {
    if (tracer_ != nullptr) tracer_->Begin(name);
  }
  ~Span() {
    if (tracer_ != nullptr) tracer_->End();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* const tracer_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
