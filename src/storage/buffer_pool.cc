#include "storage/buffer_pool.h"

#include <cassert>
#include <chrono>

#include "util/metrics.h"

namespace opt {

namespace {

/// Process-wide fetch-outcome counters, aggregated across every pool in
/// the process (a server has exactly one shared pool; batch tools one
/// private pool per run). Hit rate = hits / lookups.
struct FetchCounters {
  Counter* lookups = Metrics().GetCounter("pool.fetch.lookups");
  Counter* hits = Metrics().GetCounter("pool.fetch.hits");
  Counter* inflight = Metrics().GetCounter("pool.fetch.inflight");
  Counter* misses = Metrics().GetCounter("pool.fetch.misses");
  Counter* failed_pages = Metrics().GetCounter("pool.failed_pages");
  Counter* wait_timeouts = Metrics().GetCounter("pool.wait_timeouts");
  /// Time actually spent blocked in WaitValid (immediate hits on
  /// already-valid frames record nothing): the stall the overlap
  /// profiler's io_wait role corresponds to.
  HistogramMetric* wait_us = Metrics().GetHistogram("pool.wait_us");
};

FetchCounters& GlobalFetchCounters() {
  static FetchCounters counters;
  return counters;
}

}  // namespace

BufferPool::BufferPool(uint32_t page_size, uint32_t num_frames)
    : page_size_(page_size), num_frames_(0) {
  EnsureFrames(num_frames);
}

BufferPool::~BufferPool() = default;

void BufferPool::EnsureFrames(uint32_t min_frames) {
  std::lock_guard<std::mutex> lock(mutex_);
  EnsureFramesLocked(min_frames);
}

void BufferPool::EnsureFramesLocked(uint32_t min_frames) {
  const uint32_t have = num_frames_.load(std::memory_order_relaxed);
  if (min_frames <= have) return;
  const uint32_t add = min_frames - have;
  // Frames are page-aligned so O_DIRECT file implementations can read
  // straight into them.
  arena_blocks_.emplace_back(static_cast<size_t>(page_size_) * add, 4096);
  char* block = arena_blocks_.back().data();
  for (uint32_t i = 0; i < add; ++i) {
    frames_.emplace_back();
    frames_.back().data = block + static_cast<size_t>(i) * page_size_;
    frames_.back().index = have + i;
    free_frames_.push_back(have + i);
  }
  num_frames_.store(min_frames, std::memory_order_relaxed);
}

void BufferPool::ReserveFrames(uint32_t n) {
  std::lock_guard<std::mutex> lock(mutex_);
  reserved_frames_ += n;
  EnsureFramesLocked(reserved_frames_);
}

void BufferPool::ReleaseFrames(uint32_t n) {
  std::lock_guard<std::mutex> lock(mutex_);
  assert(reserved_frames_ >= n);
  reserved_frames_ -= n;
}

void BufferPool::TouchLru(PageKey key) {
  auto it = lru_pos_.find(key);
  if (it != lru_pos_.end()) lru_.erase(it->second);
  lru_.push_back(key);
  lru_pos_[key] = std::prev(lru_.end());
}

void BufferPool::DropPageLocked(PageKey key) {
  auto pos = lru_pos_.find(key);
  if (pos != lru_pos_.end()) {
    lru_.erase(pos->second);
    lru_pos_.erase(pos);
  }
  page_table_.erase(key);
}

Result<Frame*> BufferPool::AllocateLocked(PageKey key) {
  stats_.allocations.fetch_add(1, std::memory_order_relaxed);
  uint32_t frame_index;
  if (!free_frames_.empty()) {
    frame_index = free_frames_.back();
    free_frames_.pop_back();
  } else {
    // Evict the coldest unpinned page.
    bool found = false;
    for (auto lru_it = lru_.begin(); lru_it != lru_.end(); ++lru_it) {
      const PageKey victim_key = *lru_it;
      const uint32_t victim_index = page_table_.at(victim_key);
      if (frames_[victim_index].pins == 0) {
        lru_.erase(lru_it);
        lru_pos_.erase(victim_key);
        page_table_.erase(victim_key);
        frame_index = victim_index;
        found = true;
        stats_.evictions.fetch_add(1, std::memory_order_relaxed);
        break;
      }
    }
    if (!found) {
      return Status::ResourceExhausted(
          "buffer pool: all " +
          std::to_string(num_frames_.load(std::memory_order_relaxed)) +
          " frames pinned");
    }
  }
  Frame& frame = frames_[frame_index];
  frame.key = key;
  frame.pins = 1;
  frame.valid = false;
  frame.failed = false;
  page_table_[key] = frame_index;
  TouchLru(key);
  return &frame;
}

Result<BufferPool::FetchResult> BufferPool::Fetch(PageKey key) {
  FetchCounters& counters = GlobalFetchCounters();
  counters.lookups->Increment();
  std::lock_guard<std::mutex> lock(mutex_);
  stats_.lookups.fetch_add(1, std::memory_order_relaxed);
  auto it = page_table_.find(key);
  if (it != page_table_.end()) {
    Frame& frame = frames_[it->second];
    ++frame.pins;
    TouchLru(key);
    // Both count as a saved read: an in-flight page's I/O is already
    // charged to the reader that owns it.
    stats_.hits.fetch_add(1, std::memory_order_relaxed);
    if (frame.valid) {
      counters.hits->Increment();
      return FetchResult{&frame, FetchOutcome::kHit};
    }
    counters.inflight->Increment();
    return FetchResult{&frame, FetchOutcome::kInFlight};
  }
  counters.misses->Increment();
  OPT_ASSIGN_OR_RETURN(Frame * frame, AllocateLocked(key));
  return FetchResult{frame, FetchOutcome::kMiss};
}

void BufferPool::MarkValid(Frame* frame) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    frame->valid = true;
  }
  valid_cv_.notify_all();
}

void BufferPool::MarkFailed(Frame* frame) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    frame->failed = true;
    auto it = page_table_.find(frame->key);
    if (it != page_table_.end() && it->second == frame->index) {
      DropPageLocked(frame->key);
    }
  }
  GlobalFetchCounters().failed_pages->Increment();
  valid_cv_.notify_all();
}

Status BufferPool::WaitValid(Frame* frame, uint64_t timeout_millis) {
  std::unique_lock<std::mutex> lock(mutex_);
  assert(frame->pins > 0);
  const auto ready = [&] { return frame->valid || frame->failed; };
  std::chrono::steady_clock::time_point wait_start;
  const bool blocked = !ready();
  if (blocked) wait_start = std::chrono::steady_clock::now();
  const auto record_wait = [&] {
    if (!blocked) return;
    const auto micros = std::chrono::duration_cast<std::chrono::microseconds>(
                            std::chrono::steady_clock::now() - wait_start)
                            .count();
    GlobalFetchCounters().wait_us->Record(static_cast<uint64_t>(micros));
  };
  if (timeout_millis == 0) {
    valid_cv_.wait(lock, ready);
    record_wait();
  } else if (!valid_cv_.wait_for(
                 lock, std::chrono::milliseconds(timeout_millis), ready)) {
    record_wait();
    // The reader that owned this page never published a verdict (worker
    // died, deadlock upstream — or is merely slow). Evict the page so
    // the wedged frame stops attracting new waiters; the frame itself
    // is reclaimed by Unpin's orphan path once every current pin drops.
    // A merely-slow read stays safe because the AsyncIoEngine holds its
    // own pin on the frame until publication: the worst case of a
    // premature timeout is one duplicate read, never a recycled frame.
    const uint32_t pid = PageKeyPid(frame->key);
    auto it = page_table_.find(frame->key);
    if (it != page_table_.end() && it->second == frame->index) {
      DropPageLocked(frame->key);
    }
    GlobalFetchCounters().wait_timeouts->Increment();
    return Status::Unavailable(
        "page " + std::to_string(pid) + " load not published within " +
        std::to_string(timeout_millis) + "ms (reader died?)");
  } else {
    record_wait();
  }
  if (frame->failed) {
    return Status::IOError("page " + std::to_string(PageKeyPid(frame->key)) +
                           " failed to load in a concurrent query");
  }
  return Status::OK();
}

void BufferPool::Pin(Frame* frame) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++frame->pins;
}

void BufferPool::Unpin(Frame* frame) {
  std::lock_guard<std::mutex> lock(mutex_);
  assert(frame->pins > 0);
  if (--frame->pins == 0) {
    // Reclaim orphans: frames dropped from the table while pinned
    // (MarkFailed, or a Clear/DropOwner racing pins) have no path back
    // to the free list except here.
    auto it = page_table_.find(frame->key);
    if (it == page_table_.end() || it->second != frame->index) {
      frame->valid = false;
      frame->failed = false;
      frame->key = kInvalidPageKey;
      free_frames_.push_back(frame->index);
    }
  }
}

void BufferPool::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = page_table_.begin(); it != page_table_.end();) {
    Frame& frame = frames_[it->second];
    if (frame.pins == 0) {
      auto pos = lru_pos_.find(it->first);
      if (pos != lru_pos_.end()) {
        lru_.erase(pos->second);
        lru_pos_.erase(pos);
      }
      frame.valid = false;
      frame.failed = false;
      frame.key = kInvalidPageKey;
      free_frames_.push_back(it->second);
      it = page_table_.erase(it);
    } else {
      ++it;
    }
  }
}

void BufferPool::DropOwner(uint32_t owner) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = page_table_.begin(); it != page_table_.end();) {
    if (PageKeyOwner(it->first) != owner) {
      ++it;
      continue;
    }
    Frame& frame = frames_[it->second];
    if (frame.pins == 0) {
      auto pos = lru_pos_.find(it->first);
      if (pos != lru_pos_.end()) {
        lru_.erase(pos->second);
        lru_pos_.erase(pos);
      }
      frame.valid = false;
      frame.failed = false;
      frame.key = kInvalidPageKey;
      free_frames_.push_back(it->second);
      it = page_table_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace opt
