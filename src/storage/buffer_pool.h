// Fixed-size page buffer with pinning and LRU replacement. OPT splits the
// paper's memory buffer of m pages into an internal area (m_in) and an
// external area (m_ex); here both draw frames from one pool and the
// framework enforces the split through pin discipline and the L_now/
// L_later request throttling (Algorithm 4). Keeping evicted-area pages
// cached is what realizes the paper's Δin I/O saving: external pages
// loaded "backwards" at iteration i are looked up — and hit — by the
// internal load of iteration i+1.
//
// Service mode: one pool may be shared by many concurrent OptRunner
// queries over many graphs. Pages are therefore keyed by a 64-bit
// PageKey = (owner, pid), where the owner tag namespaces each registered
// graph (GraphRegistry hands every graph a distinct owner). Concurrent
// queries racing on the same page coordinate through Fetch(): exactly
// one caller gets kMiss (and must read the page, then MarkValid or
// MarkFailed); everyone else gets kHit or kInFlight and may WaitValid().
#ifndef OPT_STORAGE_BUFFER_POOL_H_
#define OPT_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "util/aligned_buffer.h"
#include "util/status.h"

namespace opt {

/// (owner, pid) packed into one table key. Owner 0 is the conventional
/// tag for single-graph private pools.
using PageKey = uint64_t;

constexpr PageKey kInvalidPageKey = ~0ull;

constexpr PageKey MakePageKey(uint32_t owner, uint32_t pid) {
  return (static_cast<uint64_t>(owner) << 32) | pid;
}
constexpr uint32_t PageKeyOwner(PageKey key) {
  return static_cast<uint32_t>(key >> 32);
}
constexpr uint32_t PageKeyPid(PageKey key) {
  return static_cast<uint32_t>(key);
}

struct Frame {
  char* data = nullptr;
  PageKey key = kInvalidPageKey;
  uint32_t index = 0;   // position in the pool's frame table (stable)
  uint32_t pins = 0;    // guarded by pool mutex
  bool valid = false;   // page content fully read
  bool failed = false;  // owning read failed; waiters get an error
};

/// Plain-integer copy of the counters, safe to read, diff, and ship
/// across threads (the per-query stat scoping of the service layer).
struct PoolStatsSnapshot {
  uint64_t lookups = 0;
  uint64_t hits = 0;       // saved page reads (paper's Δ I/O)
  uint64_t evictions = 0;
  uint64_t allocations = 0;

  static PoolStatsSnapshot Delta(const PoolStatsSnapshot& after,
                                 const PoolStatsSnapshot& before) {
    return {after.lookups - before.lookups, after.hits - before.hits,
            after.evictions - before.evictions,
            after.allocations - before.allocations};
  }
};

struct BufferPoolStats {
  std::atomic<uint64_t> lookups{0};
  std::atomic<uint64_t> hits{0};
  std::atomic<uint64_t> evictions{0};
  std::atomic<uint64_t> allocations{0};

  PoolStatsSnapshot Snapshot() const {
    PoolStatsSnapshot s;
    s.lookups = lookups.load(std::memory_order_relaxed);
    s.hits = hits.load(std::memory_order_relaxed);
    s.evictions = evictions.load(std::memory_order_relaxed);
    s.allocations = allocations.load(std::memory_order_relaxed);
    return s;
  }

  void Reset() {
    lookups.store(0, std::memory_order_relaxed);
    hits.store(0, std::memory_order_relaxed);
    evictions.store(0, std::memory_order_relaxed);
    allocations.store(0, std::memory_order_relaxed);
  }
};

class BufferPool {
 public:
  enum class FetchOutcome {
    kHit,       // pinned and valid — read it directly
    kInFlight,  // pinned; another thread is loading it — WaitValid() first
    kMiss,      // pinned and empty — the caller owns the read
  };
  struct FetchResult {
    Frame* frame = nullptr;
    FetchOutcome outcome = FetchOutcome::kMiss;
  };

  /// Allocates `num_frames` frames of `page_size` bytes each.
  BufferPool(uint32_t page_size, uint32_t num_frames);
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// The one-call page acquisition protocol for (possibly shared) pools:
  /// always returns a pinned frame; the outcome says whose job the read
  /// is. kMiss obliges the caller to fill frame->data and MarkValid()
  /// (or MarkFailed() on error — never leave a miss unresolved, waiters
  /// block on it). Fails with ResourceExhausted when every frame is
  /// pinned.
  Result<FetchResult> Fetch(PageKey key);

  /// Marks a frame's content as complete; later fetches hit it and
  /// WaitValid() returns OK.
  void MarkValid(Frame* frame);

  /// Marks an owned read as failed: the page is dropped from the table
  /// (a later Fetch re-reads it) and current waiters get an IOError.
  /// The frame itself is reclaimed when its last pin goes away.
  void MarkFailed(Frame* frame);

  /// Blocks until `frame` (which the caller must hold a pin on) becomes
  /// valid or its read fails. `timeout_millis` bounds the wait: 0 waits
  /// forever; past the bound the caller gets Unavailable instead of
  /// hanging on a frame whose owning reader died before publishing
  /// MarkValid/MarkFailed. On timeout the page is dropped from the table
  /// (like MarkFailed) so later fetches re-read it instead of piling
  /// more waiters onto the wedged frame.
  Status WaitValid(Frame* frame, uint64_t timeout_millis = 0);

  void Pin(Frame* frame);
  void Unpin(Frame* frame);

  /// Drops all cached, unpinned pages (between independent runs).
  void Clear();

  /// Drops every unpinned page of `owner` (graph reload in the service
  /// registry). Pinned pages of the owner survive until unpinned and
  /// then age out through normal LRU.
  void DropOwner(uint32_t owner);

  /// Grows the pool to at least `min_frames` frames (no-op if already
  /// large enough). Existing frame pointers remain valid.
  void EnsureFrames(uint32_t min_frames);

  /// Capacity reservations for concurrent users of a shared pool: grows
  /// the pool so the sum of active reservations fits, guaranteeing each
  /// reserving query can keep that many frames pinned without starving
  /// the others. Frames are never freed — released capacity stays
  /// behind as cache.
  void ReserveFrames(uint32_t n);
  void ReleaseFrames(uint32_t n);

  uint32_t num_frames() const {
    return num_frames_.load(std::memory_order_relaxed);
  }
  uint32_t page_size() const { return page_size_; }
  BufferPoolStats& stats() { return stats_; }
  const BufferPoolStats& stats() const { return stats_; }

 private:
  void TouchLru(PageKey key);
  void EnsureFramesLocked(uint32_t min_frames);
  void DropPageLocked(PageKey key);
  /// Allocation half of Fetch; `key` must be absent.
  Result<Frame*> AllocateLocked(PageKey key);

  const uint32_t page_size_;
  std::atomic<uint32_t> num_frames_;
  std::vector<AlignedBuffer> arena_blocks_;
  std::deque<Frame> frames_;  // deque: stable addresses across growth

  std::mutex mutex_;
  std::condition_variable valid_cv_;
  std::unordered_map<PageKey, uint32_t> page_table_;  // key -> frame index
  std::list<PageKey> lru_;                            // front = coldest
  std::unordered_map<PageKey, std::list<PageKey>::iterator> lru_pos_;
  std::vector<uint32_t> free_frames_;
  uint32_t reserved_frames_ = 0;

  BufferPoolStats stats_;
};

/// Bound on WaitValid for a page another reader is loading into a shared
/// pool: a reader that dies without publishing MarkValid/MarkFailed
/// costs this much wall time and a typed Unavailable, not a hung caller.
constexpr uint64_t kPoolWaitTimeoutMillis = 10000;

/// Scoped shared-pool capacity claim: guarantees the holder can keep `n`
/// frames pinned without starving the pool's other users. Released
/// capacity stays behind as cache.
struct FrameReservation {
  BufferPool* pool;
  uint32_t n;
  FrameReservation(BufferPool* pool, uint32_t n) : pool(pool), n(n) {
    pool->ReserveFrames(n);
  }
  ~FrameReservation() { pool->ReleaseFrames(n); }
  FrameReservation(const FrameReservation&) = delete;
  FrameReservation& operator=(const FrameReservation&) = delete;
};

}  // namespace opt

#endif  // OPT_STORAGE_BUFFER_POOL_H_
