#include "trace.h"

#include <cstdio>

namespace perfbench {
namespace {

std::atomic<uint64_t> g_next_generation{1};
std::atomic<uint32_t> g_next_tid{1};

struct ThreadSlot {
  uint64_t generation = 0;
  void* buffer = nullptr;
  uint32_t tid = 0;
};
thread_local ThreadSlot t_slot;

}  // namespace

std::atomic<Tracer*> Tracer::active_{nullptr};

Tracer::Tracer()
    : generation_(g_next_generation.fetch_add(1)),
      epoch_(std::chrono::steady_clock::now()) {}

Tracer::~Tracer() {
  if (Active() == this) SetActive(nullptr);
}

uint64_t Tracer::NowNanos() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

Tracer::ThreadBuffer* Tracer::Local() {
  if (t_slot.tid == 0) t_slot.tid = g_next_tid.fetch_add(1);
  if (t_slot.generation != generation_) {
    auto buffer = std::make_shared<ThreadBuffer>();
    buffer->tid = t_slot.tid;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      buffers_.push_back(buffer);
    }
    t_slot.generation = generation_;
    t_slot.buffer = buffer.get();
  }
  return static_cast<ThreadBuffer*>(t_slot.buffer);
}

void Tracer::Begin(const char* name) {
  ThreadBuffer* local = Local();
  const uint64_t parent =
      local->stack.empty() ? root_.load() : local->stack.back().id;
  local->stack.push_back(
      Frame{name, next_id_.fetch_add(1), parent, NowNanos(), 0});
}

void Tracer::End() {
  ThreadBuffer* local = Local();
  if (local->stack.empty()) return;
  const Frame frame = local->stack.back();
  local->stack.pop_back();
  const uint64_t end = NowNanos();
  const uint64_t duration = end - frame.start_ns;
  if (!local->stack.empty()) local->stack.back().child_ns += duration;
  SpanTotals& totals = local->totals[frame.name];
  totals.count += 1;
  totals.busy_s += duration * 1e-9;
  totals.self_s +=
      (duration > frame.child_ns ? duration - frame.child_ns : 0) * 1e-9;
  if (kept_.load(std::memory_order_relaxed) < kMaxKeptSpans) {
    kept_.fetch_add(1, std::memory_order_relaxed);
    local->kept.push_back(Record{frame.name, frame.start_ns, end,
                                 local->tid, frame.id, frame.parent});
  }
}

uint64_t Tracer::CurrentSpan() const {
  if (t_slot.generation != generation_) return 0;
  const auto* local = static_cast<const ThreadBuffer*>(t_slot.buffer);
  return local->stack.empty() ? 0 : local->stack.back().id;
}

std::map<std::string, SpanTotals> Tracer::Totals() const {
  std::map<std::string, SpanTotals> out;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& buffer : buffers_) {
    for (const auto& [name, totals] : buffer->totals) {
      SpanTotals& sum = out[name];
      sum.count += totals.count;
      sum.busy_s += totals.busy_s;
      sum.self_s += totals.self_s;
    }
  }
  return out;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"traceEvents\":[", f);
  bool first = true;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& buffer : buffers_) {
    for (const Record& r : buffer->kept) {
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                   "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                   "\"args\":{\"id\":%llu,\"parent\":%llu}}",
                   first ? "" : ",", r.name, r.start_ns / 1e3,
                   (r.end_ns - r.start_ns) / 1e3, r.tid,
                   static_cast<unsigned long long>(r.id),
                   static_cast<unsigned long long>(r.parent));
      first = false;
    }
  }
  std::fputs("\n],\"displayTimeUnit\":\"ms\"}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
