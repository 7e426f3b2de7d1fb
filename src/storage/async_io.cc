#include "storage/async_io.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <thread>
#include <utility>

#include "storage/page.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace opt {

namespace {

struct IoCounters {
  Counter* requests = Metrics().GetCounter("io.requests");
  Counter* pages_read = Metrics().GetCounter("io.pages_read");
  Counter* read_errors = Metrics().GetCounter("io.read_errors");
  Counter* retries = Metrics().GetCounter("io.retries");
  Counter* giveups = Metrics().GetCounter("io.giveups");
  /// Pages submitted but not yet published — the overlap profiler
  /// samples this to detect reads in flight (micro overlap).
  Gauge* inflight = Metrics().GetGauge("io.inflight_depth");
  HistogramMetric* page_read_us = Metrics().GetHistogram("io.page_read_us");
};

/// Transient device classes worth retrying; anything else (OutOfRange,
/// InvalidArgument, ...) is a caller bug and fails immediately.
bool IsRetryable(const Status& status) {
  return status.IsIOError() || status.IsCorruption();
}

/// Deterministic jitter: reruns with the same fault plan back off
/// identically. Full-jitter over [backoff/2, backoff].
uint32_t JitteredBackoff(uint32_t backoff, uint32_t pid, uint32_t attempt) {
  uint64_t h = (static_cast<uint64_t>(pid) << 32) | attempt;
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDULL;
  h ^= h >> 33;
  const uint32_t half = backoff / 2;
  return half + static_cast<uint32_t>(h % (half + 1));
}

IoCounters& GlobalIoCounters() {
  static IoCounters counters;
  return counters;
}

std::string ReadArgsJson(const ReadRequest& request) {
  return "\"first_pid\":" + std::to_string(request.first_pid) +
         ",\"pages\":" + std::to_string(request.page_count);
}

}  // namespace

AsyncIoEngine::AsyncIoEngine(uint32_t num_workers, const IoRetryPolicy& retry)
    : retry_(retry) {
  if (num_workers == 0) num_workers = 1;
  workers_.reserve(num_workers);
  for (uint32_t i = 0; i < num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

AsyncIoEngine::~AsyncIoEngine() {
  submissions_.Close();
  for (auto& w : workers_) w.join();
}

void AsyncIoEngine::Submit(ReadRequest request) {
  assert(request.file != nullptr);
  assert(request.frames.size() == request.page_count);
  assert(request.completion_queue != nullptr);
  stats_.requests.fetch_add(1, std::memory_order_relaxed);
  GlobalIoCounters().requests->Increment();
  if (CurrentTraceRecorder() != nullptr) {
    TraceInstant("io", "io.submit", ReadArgsJson(request));
  }
  // The engine holds its own pin on every pool-backed frame until the
  // worker has published it: even if every other pin drops first (a
  // WaitValid timeout evicts the page and the waiters/submitter unpin),
  // the frame cannot be recycled to another page while a worker still
  // holds a raw pointer into it.
  BufferPool* const pool = request.pool;
  const std::vector<Frame*> frames = pool != nullptr
                                         ? request.frames
                                         : std::vector<Frame*>();
  if (pool != nullptr) {
    for (Frame* f : frames) pool->Pin(f);
  }
  const uint32_t page_count = request.page_count;
  GlobalIoCounters().inflight->Add(page_count);
  if (!submissions_.Push(std::move(request))) {
    // Shutdown raced the submit: the read will never run, so publish
    // the failure (waiters must not hang on an unresolved miss) and
    // drop the engine pins taken above.
    GlobalIoCounters().inflight->Add(-static_cast<int64_t>(page_count));
    for (Frame* f : frames) {
      pool->MarkFailed(f);
      pool->Unpin(f);
    }
  }
}

Status ReadPageWithRetry(const PageFile& file, uint32_t pid, char* dst,
                         bool validate, const IoRetryPolicy& policy,
                         AsyncIoStats* stats, FlightRecorder* flight) {
  const auto start = std::chrono::steady_clock::now();
  uint32_t backoff = policy.backoff_base_micros;
  Status status;
  for (uint32_t attempt = 1;; ++attempt) {
    status = file.ReadPage(pid, dst);
    // Validation is part of the attempt: a torn read reports OK at the
    // device layer and only the page CRC catches it, so the reread has
    // to happen here where the data is still in hand.
    if (status.ok() && validate) {
      status = PageView(dst, file.page_size()).Validate(pid);
    }
    if (status.ok()) {
      const uint64_t micros =
          static_cast<uint64_t>(
              std::chrono::duration_cast<std::chrono::microseconds>(
                  std::chrono::steady_clock::now() - start)
                  .count());
      if (stats != nullptr) stats->read_micros += micros;
      GlobalIoCounters().page_read_us->Record(micros);
      return status;
    }
    if (!IsRetryable(status)) {
      // Non-retryable errors (OutOfRange, InvalidArgument, ...) are
      // caller bugs, but they are still failed page reads: count them
      // in read_errors. No giveups — no retry budget was spent.
      if (stats != nullptr) ++stats->read_errors;
      GlobalIoCounters().read_errors->Increment();
      if (flight != nullptr) {
        flight->Record(FlightEventType::kIoError, pid,
                       static_cast<uint64_t>(status.code()));
      }
      return status;
    }
    if (attempt >= policy.max_attempts) break;
    const uint32_t sleep_us =
        JitteredBackoff(backoff, pid, attempt);
    if (policy.op_deadline_micros != 0) {
      const auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
                               std::chrono::steady_clock::now() - start)
                               .count();
      if (static_cast<uint64_t>(elapsed) + sleep_us >=
          policy.op_deadline_micros) {
        break;  // the next attempt would blow the per-op deadline
      }
    }
    if (stats != nullptr) ++stats->retries;
    GlobalIoCounters().retries->Increment();
    if (flight != nullptr) {
      flight->Record(FlightEventType::kIoRetry, pid, attempt);
    }
    std::this_thread::sleep_for(std::chrono::microseconds(sleep_us));
    backoff = std::min(backoff * 2, policy.backoff_max_micros);
  }
  if (stats != nullptr) ++stats->read_errors;
  if (stats != nullptr) ++stats->giveups;
  GlobalIoCounters().read_errors->Increment();
  GlobalIoCounters().giveups->Increment();
  if (flight != nullptr) {
    flight->Record(FlightEventType::kIoGiveup, pid,
                   static_cast<uint64_t>(status.code()));
  }
  return status;
}

void AsyncIoEngine::WorkerLoop() {
  for (;;) {
    auto item = submissions_.Pop();
    if (!item.has_value()) return;  // engine shutting down
    ReadRequest request = std::move(*item);
    // The span covers the device read + validation + frame publication:
    // what "async-read complete" means to waiters.
    TraceSpan read_span("io", "io.read",
                        CurrentTraceRecorder() != nullptr
                            ? ReadArgsJson(request)
                            : std::string());
    Status status;
    uint32_t done = 0;
    for (uint32_t i = 0; i < request.page_count && status.ok(); ++i) {
      status = ReadPageWithRetry(
          *request.file, request.first_pid + i, request.frames[i]->data,
          request.pool != nullptr && request.validate, retry_, &stats_,
          request.flight);
      if (status.ok()) {
        stats_.pages_read.fetch_add(1, std::memory_order_relaxed);
        GlobalIoCounters().pages_read->Increment();
        if (request.pool != nullptr) {
          request.pool->MarkValid(request.frames[i]);
        }
        done = i + 1;
      }
    }
    if (request.pool != nullptr && !status.ok()) {
      // Publish the failure so concurrent waiters on any unfinished
      // frame of this request wake with an error instead of hanging.
      for (uint32_t i = done; i < request.page_count; ++i) {
        request.pool->MarkFailed(request.frames[i]);
      }
    }
    if (request.pool != nullptr) {
      // Every frame is published; release the engine pins taken at
      // Submit. Frames abandoned by all other pinners (WaitValid
      // timeout eviction) reclaim here through Unpin's orphan path.
      for (uint32_t i = 0; i < request.page_count; ++i) {
        request.pool->Unpin(request.frames[i]);
      }
    }
    GlobalIoCounters().inflight->Add(
        -static_cast<int64_t>(request.page_count));
    auto callback = std::move(request.callback);
    request.completion_queue->Push(
        [callback = std::move(callback), status]() { callback(status); });
  }
}

}  // namespace opt
