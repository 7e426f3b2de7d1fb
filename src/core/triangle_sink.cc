#include "core/triangle_sink.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "util/coding.h"

namespace opt {

void VectorSink::Emit(VertexId u, VertexId v, std::span<const VertexId> ws) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (VertexId w : ws) triangles_.push_back({u, v, w});
}

std::vector<Triangle> VectorSink::Sorted() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Triangle> out = triangles_;
  std::sort(out.begin(), out.end());
  return out;
}

size_t VectorSink::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return triangles_.size();
}

PerVertexCountSink::PerVertexCountSink(VertexId num_vertices)
    : counts_(num_vertices) {
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
}

void PerVertexCountSink::Emit(VertexId u, VertexId v,
                              std::span<const VertexId> ws) {
  counts_[u].fetch_add(ws.size(), std::memory_order_relaxed);
  counts_[v].fetch_add(ws.size(), std::memory_order_relaxed);
  for (VertexId w : ws) {
    counts_[w].fetch_add(1, std::memory_order_relaxed);
  }
  total_.fetch_add(ws.size(), std::memory_order_relaxed);
}

std::vector<uint64_t> PerVertexCountSink::Counts() const {
  std::vector<uint64_t> out(counts_.size());
  for (size_t i = 0; i < counts_.size(); ++i) {
    out[i] = counts_[i].load(std::memory_order_relaxed);
  }
  return out;
}

namespace {

/// A thread's stripe: the lowest slot free when the thread first emits,
/// held until the thread exits. Concurrent emitters thus get distinct
/// stripes, and a worker started later takes over an exited worker's
/// stripe (with its partly filled block) instead of starting another.
struct StripeSlot {
  StripeSlot() {
    std::lock_guard<std::mutex> lock(registry.mutex);
    auto free = std::find(registry.used.begin(), registry.used.end(), false);
    index = static_cast<size_t>(free - registry.used.begin());
    if (free == registry.used.end()) {
      registry.used.push_back(true);
    } else {
      *free = true;
    }
  }
  ~StripeSlot() {
    std::lock_guard<std::mutex> lock(registry.mutex);
    registry.used[index] = false;
  }
  StripeSlot(const StripeSlot&) = delete;
  StripeSlot& operator=(const StripeSlot&) = delete;

  struct Registry {
    std::mutex mutex;
    std::vector<bool> used;  // guarded by mutex
  };
  // Never destroyed: threads may exit after static destruction starts.
  static inline Registry& registry = *new Registry;
  size_t index = 0;
};

/// This thread's stripe among `stripes`.
size_t ThisThreadStripe(size_t stripes) {
  thread_local const StripeSlot slot;
  return slot.index % stripes;
}

}  // namespace

void CountingSink::Emit(VertexId, VertexId, std::span<const VertexId> ws) {
  // A stripe is shared only when more than kStripes threads emit at
  // once, so this read-modify-write is almost never contended.
  stripes_[ThisThreadStripe(kStripes)].count.fetch_add(
      ws.size(), std::memory_order_relaxed);
}

uint64_t CountingSink::count() const {
  uint64_t total = 0;
  for (const Stripe& stripe : stripes_) {
    total += stripe.count.load(std::memory_order_relaxed);
  }
  return total;
}

void CountingSink::Reset() {
  for (Stripe& stripe : stripes_) {
    stripe.count.store(0, std::memory_order_relaxed);
  }
}

ListingSink::ListingSink(Env* env, std::string path, size_t flush_threshold,
                         bool asynchronous)
    : env_(env), path_(std::move(path)), flush_threshold_(flush_threshold),
      asynchronous_(asynchronous) {
  auto file = env_->OpenWritable(path_);
  if (file.ok()) {
    file_ = std::move(file.value());
  } else {
    write_status_ = file.status();
  }
  if (asynchronous_) {
    for (size_t i = 0; i < kSpareBlocks; ++i) spare_blocks_.Push({});
    writer_ = std::thread([this] { WriterLoop(); });
  }
}

ListingSink::~ListingSink() {
  Status s = Finish();
  (void)s;
}

void ListingSink::Emit(VertexId u, VertexId v, std::span<const VertexId> ws) {
  if (ws.empty()) return;
  Stripe& stripe = stripes_[ThisThreadStripe(kStripes)];

  char header[12];
  EncodeFixed32(header, u);
  EncodeFixed32(header + 4, v);
  EncodeFixed32(header + 8, static_cast<uint32_t>(ws.size()));
  const size_t record = sizeof(header) + ws.size() * sizeof(VertexId);
  std::string full;
  {
    std::lock_guard<std::mutex> lock(stripe.mutex);
    // Hand the block off before a record would overflow it, so a block
    // never outgrows the capacity reserved for it.
    if (!stripe.buffer.empty() &&
        stripe.buffer.size() + record > flush_threshold_) {
      if (asynchronous_) {
        // Waits for the writer when every spare block is queued behind
        // the device; the spare queue is never closed.
        full = std::exchange(stripe.buffer, *spare_blocks_.Pop());
      } else {
        WriteBlock(stripe.buffer);
        stripe.buffer.clear();
      }
    }
    stripe.buffer.reserve(flush_threshold_);
    stripe.buffer.append(header, sizeof(header));
    stripe.buffer.append(reinterpret_cast<const char*>(ws.data()),
                         ws.size() * sizeof(VertexId));
    stripe.triangles.store(
        stripe.triangles.load(std::memory_order_relaxed) + ws.size(),
        std::memory_order_relaxed);
  }
  if (!full.empty()) full_blocks_.Push(std::move(full));
}

uint64_t ListingSink::triangles_written() const {
  uint64_t total = 0;
  for (const Stripe& stripe : stripes_) {
    total += stripe.triangles.load(std::memory_order_relaxed);
  }
  return total;
}

void ListingSink::WriteBlock(const std::string& block) {
  std::lock_guard<std::mutex> lock(write_mutex_);
  if (file_ == nullptr || !write_status_.ok()) return;
  write_status_ = file_->Append(Slice(block));
  if (write_status_.ok()) {
    bytes_written_.fetch_add(block.size(), std::memory_order_relaxed);
  }
}

Status ListingSink::Finish() {
  std::lock_guard<std::mutex> finish_lock(finish_mutex_);
  if (!finished_) {
    finished_ = true;
    for (Stripe& stripe : stripes_) {
      std::lock_guard<std::mutex> lock(stripe.mutex);
      if (stripe.buffer.empty()) continue;
      if (asynchronous_) {
        full_blocks_.Push(std::exchange(stripe.buffer, std::string()));
      } else {
        WriteBlock(stripe.buffer);
        stripe.buffer = std::string();
      }
    }
    full_blocks_.Close();
    if (writer_.joinable()) writer_.join();
    std::lock_guard<std::mutex> lock(write_mutex_);
    if (file_ != nullptr) {
      Status s = file_->Sync();
      if (s.ok()) s = file_->Close();
      if (write_status_.ok()) write_status_ = s;
    }
  }
  std::lock_guard<std::mutex> lock(write_mutex_);
  return write_status_;
}

void ListingSink::WriterLoop() {
  while (std::optional<std::string> block = full_blocks_.Pop()) {
    WriteBlock(*block);
    block->clear();
    spare_blocks_.Push(std::move(*block));
  }
}

}  // namespace opt
