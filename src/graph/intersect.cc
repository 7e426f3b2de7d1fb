#include "graph/intersect.h"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstring>
#include <mutex>
#include <utility>

#if defined(__x86_64__) || defined(__i386__)
#define OPT_INTERSECT_X86 1
#include <immintrin.h>
#endif

namespace opt {

namespace {

// ---------------------------------------------------------------------------
// Per-kernel counters: thread-local cells registered in a process-wide
// list; a snapshot sums live cells plus the fold-in of exited threads.
// Cells use relaxed atomics so a concurrent snapshot is race-free
// (TSan-clean) while the owning thread's increments stay uncontended.
// ---------------------------------------------------------------------------

struct CounterCell {
  std::atomic<uint64_t> calls[kNumIntersectKernels] = {};
  std::atomic<uint64_t> elements[kNumIntersectKernels] = {};
};

struct CounterRegistry {
  std::mutex mutex;
  std::vector<CounterCell*> live;
  IntersectCounters retired;
};

CounterRegistry& Registry() {
  static CounterRegistry* registry = new CounterRegistry();  // never freed
  return *registry;
}

struct ThreadCounterSlot {
  CounterCell cell;
  ThreadCounterSlot() {
    CounterRegistry& r = Registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    r.live.push_back(&cell);
  }
  ~ThreadCounterSlot() {
    CounterRegistry& r = Registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    for (int k = 0; k < kNumIntersectKernels; ++k) {
      r.retired.calls[k] += cell.calls[k].load(std::memory_order_relaxed);
      r.retired.elements[k] +=
          cell.elements[k].load(std::memory_order_relaxed);
    }
    r.live.erase(std::find(r.live.begin(), r.live.end(), &cell));
  }
};

inline void CountCall(IntersectKernel kernel, size_t elements) {
  thread_local ThreadCounterSlot slot;
  const int k = static_cast<int>(kernel);
  // Only the owning thread writes its cell: a relaxed load + store is
  // enough, and avoids a locked read-modify-write per call.
  std::atomic<uint64_t>& calls = slot.cell.calls[k];
  std::atomic<uint64_t>& elems = slot.cell.elements[k];
  calls.store(calls.load(std::memory_order_relaxed) + 1,
              std::memory_order_relaxed);
  elems.store(elems.load(std::memory_order_relaxed) + elements,
              std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Emitters: the kernels are templated over the output policy so the
// counting variants share code with the materializing ones.
// ---------------------------------------------------------------------------

struct CountEmitter {
  uint64_t count = 0;
  void Emit(VertexId) { ++count; }
  template <int kLanes>
  void EmitPacked(const VertexId*, int n) {
    count += static_cast<uint64_t>(n);
  }
};

/// Largest SIMD block (AVX2 lanes). A block's matches are written as one
/// fixed kLanes-wide copy, so the destination needs this much slack past
/// the last real match.
constexpr size_t kBlockSlack = 8;

/// Writes matches through a raw cursor into storage that WriteMatches
/// sized in advance; no capacity check per match.
struct WriteEmitter {
  VertexId* pos;
  void Emit(VertexId v) { *pos++ = v; }
  template <int kLanes>
  void EmitPacked(const VertexId* packed, int n) {
    static_assert(kLanes <= static_cast<int>(kBlockSlack));
    std::memcpy(pos, packed, kLanes * sizeof(VertexId));
    pos += n;
  }
};

/// Appends the matches `run(emit)` produces to *out and returns their
/// count. a ∩ b has at most min(|a|, |b|) elements (duplicates included),
/// so sizing *out once to that plus one block of slack bounds every
/// write; *out is then trimmed to the exact count.
template <class Run>
size_t WriteMatches(std::span<const VertexId> a, std::span<const VertexId> b,
                    std::vector<VertexId>* out, Run run) {
  const size_t before = out->size();
  out->resize(before + std::min(a.size(), b.size()) + kBlockSlack);
  VertexId* const first = out->data() + before;
  WriteEmitter emit{first};
  run(emit);
  const size_t added = static_cast<size_t>(emit.pos - first);
  out->resize(before + added);
  return added;
}

// ---------------------------------------------------------------------------
// Scalar kernels.
// ---------------------------------------------------------------------------

/// Resumable two-pointer merge: advances (i, j) by at most `steps` loop
/// iterations. The SIMD block kernels use it for tails and to step
/// across duplicate runs.
template <class Emitter>
void MergeScalarSteps(std::span<const VertexId> a, std::span<const VertexId> b,
                      size_t& i, size_t& j, size_t steps, Emitter& emit) {
  while (steps-- > 0 && i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      emit.Emit(a[i]);
      ++i;
      ++j;
    }
  }
}

template <class Emitter>
void MergeScalar(std::span<const VertexId> a, std::span<const VertexId> b,
                 Emitter& emit) {
  size_t i = 0, j = 0;
  MergeScalarSteps(a, b, i, j, static_cast<size_t>(-1), emit);
}

using LowerBoundFn = size_t (*)(const VertexId*, size_t, size_t, VertexId);

size_t LowerBoundScalar(const VertexId* data, size_t lo, size_t hi,
                        VertexId target) {
  return static_cast<size_t>(std::lower_bound(data + lo, data + hi, target) -
                             data);
}

/// Galloping skeleton shared by every ISA: exponential probe, then the
/// ISA's lower-bound routine on the bracketed range.
template <class Emitter>
void GallopGeneric(std::span<const VertexId> a, std::span<const VertexId> b,
                   LowerBoundFn lower_bound, Emitter& emit) {
  if (a.size() > b.size()) return GallopGeneric(b, a, lower_bound, emit);
  size_t j = 0;
  for (VertexId x : a) {
    size_t step = 1;
    size_t lo = j, hi = j;
    while (hi < b.size() && b[hi] < x) {
      lo = hi + 1;
      hi += step;
      step <<= 1;
    }
    if (hi > b.size()) hi = b.size();
    j = lower_bound(b.data(), lo, hi, x);
    if (j >= b.size()) break;
    if (b[j] == x) {
      emit.Emit(x);
      ++j;
    }
  }
}

/// Hash-probe: open addressing over the smaller list, probed in order by
/// the larger list so the output stays sorted. A per-entry multiplicity
/// keeps duplicate semantics identical to std::set_intersection.
template <class Emitter>
void HashGeneric(std::span<const VertexId> a, std::span<const VertexId> b,
                 Emitter& emit) {
  if (a.size() > b.size()) return HashGeneric(b, a, emit);
  if (a.empty()) return;
  size_t capacity = 16;
  while (capacity < a.size() * 2) capacity <<= 1;
  const size_t mask = capacity - 1;
  std::vector<std::pair<VertexId, uint32_t>> table(capacity);  // key, count
  std::vector<uint8_t> occupied(capacity, 0);
  auto slot_of = [mask](VertexId v) {
    return static_cast<size_t>(
               (static_cast<uint64_t>(v) * 0x9E3779B97F4A7C15ull) >> 32) &
           mask;
  };
  for (VertexId v : a) {
    size_t s = slot_of(v);
    while (occupied[s] && table[s].first != v) s = (s + 1) & mask;
    occupied[s] = 1;
    table[s].first = v;
    table[s].second++;
  }
  for (VertexId v : b) {
    size_t s = slot_of(v);
    while (occupied[s]) {
      if (table[s].first == v) {
        if (table[s].second > 0) {
          emit.Emit(v);
          table[s].second--;
        }
        break;
      }
      s = (s + 1) & mask;
    }
  }
}

// ---------------------------------------------------------------------------
// SSE4.1 / AVX2 kernels. Built with per-function target attributes so
// the translation unit compiles for the portable baseline while the
// vector bodies use wider ISAs; they are only ever called behind the
// cpuid feature check below.
// ---------------------------------------------------------------------------

#ifdef OPT_INTERSECT_X86

/// Lane-compaction tables: for each match bitmask, the shuffle that
/// packs the matched lanes to the front of the register.
struct SseCompactTable {
  alignas(16) uint8_t shuffle[16][16];
  SseCompactTable() {
    for (int m = 0; m < 16; ++m) {
      int out = 0;
      for (int lane = 0; lane < 4; ++lane) {
        if (m & (1 << lane)) {
          for (int byte = 0; byte < 4; ++byte) {
            shuffle[m][out * 4 + byte] =
                static_cast<uint8_t>(lane * 4 + byte);
          }
          ++out;
        }
      }
      for (; out < 4; ++out) {
        for (int byte = 0; byte < 4; ++byte) {
          shuffle[m][out * 4 + byte] = 0x80;  // zero the unused lanes
        }
      }
    }
  }
};

struct Avx2CompactTable {
  alignas(32) uint32_t index[256][8];
  Avx2CompactTable() {
    for (int m = 0; m < 256; ++m) {
      int out = 0;
      for (int lane = 0; lane < 8; ++lane) {
        if (m & (1 << lane)) index[m][out++] = static_cast<uint32_t>(lane);
      }
      for (; out < 8; ++out) index[m][out] = 0;
    }
  }
};

const SseCompactTable& SseCompact() {
  static const SseCompactTable table;
  return table;
}

const Avx2CompactTable& Avx2Compact() {
  static const Avx2CompactTable table;
  return table;
}

/// True when the 4-wide window starting at `idx` contains a value equal
/// to its predecessor (including the element just before the window).
/// The block-merge only vectorizes windows that are strictly increasing
/// *including both boundary elements*; any duplicate run touching the
/// window is handled by scalar stepping, which preserves
/// std::set_intersection multiplicity semantics. The right-boundary
/// check matters for correctness, not just multiplicity: a vector step
/// emits a match and may advance only one block, so a duplicate of the
/// matched value just past the advanced block's window would pair with
/// the stationary block's still-unconsumed copy and be emitted twice.
__attribute__((target("sse4.1"))) inline bool HasDupWindow4(
    const VertexId* p, size_t idx, size_t n) {
  if (idx + 4 < n && p[idx + 4] == p[idx + 3]) return true;
  if (idx == 0) {
    return p[1] == p[0] || p[2] == p[1] || p[3] == p[2];
  }
  const __m128i cur =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + idx));
  const __m128i prev =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + idx - 1));
  return _mm_movemask_epi8(_mm_cmpeq_epi32(cur, prev)) != 0;
}

__attribute__((target("avx2"))) inline bool HasDupWindow8(const VertexId* p,
                                                          size_t idx,
                                                          size_t n) {
  if (idx + 8 < n && p[idx + 8] == p[idx + 7]) return true;
  if (idx == 0) {
    for (int k = 1; k < 8; ++k) {
      if (p[k] == p[k - 1]) return true;
    }
    return false;
  }
  const __m256i cur =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + idx));
  const __m256i prev =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + idx - 1));
  return _mm256_movemask_epi8(_mm256_cmpeq_epi32(cur, prev)) != 0;
}

/// SSE block-merge: compares a 4-block of `a` against every rotation of
/// a 4-block of `b` (_mm_cmpeq_epi32 + _mm_shuffle_epi32), compacts the
/// matched lanes with _mm_shuffle_epi8, then advances whichever block
/// has the smaller maximum (both on a tie).
template <class Emitter>
__attribute__((target("sse4.1"))) void MergeSse(std::span<const VertexId> a,
                                                std::span<const VertexId> b,
                                                Emitter& emit) {
  size_t i = 0, j = 0;
  const size_t na = a.size(), nb = b.size();
  if (na >= 4 && nb >= 4) {
    const VertexId* pa = a.data();
    const VertexId* pb = b.data();
    const SseCompactTable& compact = SseCompact();
    while (i + 4 <= na && j + 4 <= nb) {
      if (HasDupWindow4(pa, i, na) || HasDupWindow4(pb, j, nb)) {
        MergeScalarSteps(a, b, i, j, 4, emit);
        continue;
      }
      const __m128i va =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(pa + i));
      const __m128i vb =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(pb + j));
      __m128i match = _mm_cmpeq_epi32(va, vb);
      match = _mm_or_si128(
          match, _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, 0x39)));
      match = _mm_or_si128(
          match, _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, 0x4E)));
      match = _mm_or_si128(
          match, _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, 0x93)));
      const int mask = _mm_movemask_ps(_mm_castsi128_ps(match));
      if (mask != 0) {
        const __m128i packed = _mm_shuffle_epi8(
            va, _mm_load_si128(reinterpret_cast<const __m128i*>(
                    compact.shuffle[mask])));
        alignas(16) VertexId tmp[4];
        _mm_store_si128(reinterpret_cast<__m128i*>(tmp), packed);
        emit.template EmitPacked<4>(
            tmp, __builtin_popcount(static_cast<unsigned>(mask)));
      }
      const VertexId a_max = pa[i + 3], b_max = pb[j + 3];
      if (a_max <= b_max) i += 4;
      if (b_max <= a_max) j += 4;
    }
  }
  MergeScalarSteps(a, b, i, j, static_cast<size_t>(-1), emit);
}

/// AVX2 block-merge: the 8-wide version of MergeSse, rotating `b`'s
/// block with _mm256_permutevar8x32_epi32 and compacting matches with a
/// permutation-index table.
template <class Emitter>
__attribute__((target("avx2"))) void MergeAvx2(std::span<const VertexId> a,
                                               std::span<const VertexId> b,
                                               Emitter& emit) {
  size_t i = 0, j = 0;
  const size_t na = a.size(), nb = b.size();
  if (na >= 8 && nb >= 8) {
    const VertexId* pa = a.data();
    const VertexId* pb = b.data();
    const Avx2CompactTable& compact = Avx2Compact();
    const __m256i rotate1 = _mm256_setr_epi32(1, 2, 3, 4, 5, 6, 7, 0);
    while (i + 8 <= na && j + 8 <= nb) {
      if (HasDupWindow8(pa, i, na) || HasDupWindow8(pb, j, nb)) {
        MergeScalarSteps(a, b, i, j, 8, emit);
        continue;
      }
      const __m256i va =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pa + i));
      __m256i vb =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pb + j));
      __m256i match = _mm256_cmpeq_epi32(va, vb);
      for (int rot = 1; rot < 8; ++rot) {
        vb = _mm256_permutevar8x32_epi32(vb, rotate1);
        match = _mm256_or_si256(match, _mm256_cmpeq_epi32(va, vb));
      }
      const int mask = _mm256_movemask_ps(_mm256_castsi256_ps(match));
      if (mask != 0) {
        const __m256i idx = _mm256_load_si256(
            reinterpret_cast<const __m256i*>(compact.index[mask]));
        const __m256i packed = _mm256_permutevar8x32_epi32(va, idx);
        alignas(32) VertexId tmp[8];
        _mm256_store_si256(reinterpret_cast<__m256i*>(tmp), packed);
        emit.template EmitPacked<8>(
            tmp, __builtin_popcount(static_cast<unsigned>(mask)));
      }
      const VertexId a_max = pa[i + 7], b_max = pb[j + 7];
      if (a_max <= b_max) i += 8;
      if (b_max <= a_max) j += 8;
    }
  }
  MergeScalarSteps(a, b, i, j, static_cast<size_t>(-1), emit);
}

/// Vectorized lower bound: binary-search narrows the range, then a SIMD
/// linear scan counts elements < target (unsigned compare via the
/// sign-flip trick). Loads never touch memory outside [lo, hi).
__attribute__((target("sse4.1"))) size_t LowerBoundSse(const VertexId* data,
                                                       size_t lo, size_t hi,
                                                       VertexId target) {
  while (hi - lo > 16) {
    const size_t mid = lo + (hi - lo) / 2;
    if (data[mid] < target) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  const __m128i sign = _mm_set1_epi32(static_cast<int>(0x80000000u));
  const __m128i pivot =
      _mm_xor_si128(_mm_set1_epi32(static_cast<int>(target)), sign);
  while (lo + 4 <= hi) {
    const __m128i v = _mm_xor_si128(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + lo)), sign);
    const int lt = _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpgt_epi32(pivot, v)));
    if (lt != 0xF) return lo + __builtin_popcount(static_cast<unsigned>(lt));
    lo += 4;
  }
  while (lo < hi && data[lo] < target) ++lo;
  return lo;
}

__attribute__((target("avx2"))) size_t LowerBoundAvx2(const VertexId* data,
                                                      size_t lo, size_t hi,
                                                      VertexId target) {
  while (hi - lo > 32) {
    const size_t mid = lo + (hi - lo) / 2;
    if (data[mid] < target) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  const __m256i sign = _mm256_set1_epi32(static_cast<int>(0x80000000u));
  const __m256i pivot =
      _mm256_xor_si256(_mm256_set1_epi32(static_cast<int>(target)), sign);
  while (lo + 8 <= hi) {
    const __m256i v = _mm256_xor_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + lo)),
        sign);
    const int lt =
        _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpgt_epi32(pivot, v)));
    if (lt != 0xFF) return lo + __builtin_popcount(static_cast<unsigned>(lt));
    lo += 8;
  }
  while (lo < hi && data[lo] < target) ++lo;
  return lo;
}

#endif  // OPT_INTERSECT_X86

// ---------------------------------------------------------------------------
// Feature detection + dispatch table.
// ---------------------------------------------------------------------------

bool CpuSupports(IntersectKernel kernel) {
  switch (kernel) {
    case IntersectKernel::kScalar:
    case IntersectKernel::kAuto:
      return true;
    case IntersectKernel::kSse:
#ifdef OPT_INTERSECT_X86
      return __builtin_cpu_supports("sse4.1");
#else
      return false;
#endif
    case IntersectKernel::kAvx2:
#ifdef OPT_INTERSECT_X86
      return __builtin_cpu_supports("avx2");
#else
      return false;
#endif
  }
  return false;
}

/// Active kernel index; kAuto means "not yet overridden" and resolves
/// to BestIntersectKernel() on read.
std::atomic<uint8_t> g_active{static_cast<uint8_t>(IntersectKernel::kAuto)};

/// Runs the resolved (concrete, supported) kernel's merge.
template <class Emitter>
void MergeDispatch(IntersectKernel kernel, std::span<const VertexId> a,
                   std::span<const VertexId> b, Emitter& emit) {
  CountCall(kernel, a.size() + b.size());
  switch (kernel) {
#ifdef OPT_INTERSECT_X86
    case IntersectKernel::kSse:
      return MergeSse(a, b, emit);
    case IntersectKernel::kAvx2:
      return MergeAvx2(a, b, emit);
#endif
    default:
      return MergeScalar(a, b, emit);
  }
}

template <class Emitter>
void GallopDispatch(IntersectKernel kernel, std::span<const VertexId> a,
                    std::span<const VertexId> b, Emitter& emit) {
  CountCall(kernel, a.size() + b.size());
  switch (kernel) {
#ifdef OPT_INTERSECT_X86
    case IntersectKernel::kSse:
      return GallopGeneric(a, b, &LowerBoundSse, emit);
    case IntersectKernel::kAvx2:
      return GallopGeneric(a, b, &LowerBoundAvx2, emit);
#endif
    default:
      return GallopGeneric(a, b, &LowerBoundScalar, emit);
  }
}

/// kAuto → best supported; unsupported concrete kernel → scalar.
IntersectKernel ResolveKernel(IntersectKernel kernel) {
  if (kernel == IntersectKernel::kAuto) return BestIntersectKernel();
  return CpuSupports(kernel) ? kernel : IntersectKernel::kScalar;
}

}  // namespace

// ---------------------------------------------------------------------------
// Kernel selection API.
// ---------------------------------------------------------------------------

const char* IntersectKernelName(IntersectKernel kernel) {
  switch (kernel) {
    case IntersectKernel::kScalar:
      return "scalar";
    case IntersectKernel::kSse:
      return "sse";
    case IntersectKernel::kAvx2:
      return "avx2";
    case IntersectKernel::kAuto:
      return "auto";
  }
  return "?";
}

bool IntersectKernelSupported(IntersectKernel kernel) {
  return CpuSupports(kernel);
}

IntersectKernel BestIntersectKernel() {
  static const IntersectKernel best = [] {
    if (CpuSupports(IntersectKernel::kAvx2)) return IntersectKernel::kAvx2;
    if (CpuSupports(IntersectKernel::kSse)) return IntersectKernel::kSse;
    return IntersectKernel::kScalar;
  }();
  return best;
}

Result<IntersectKernel> ParseIntersectKernel(const std::string& name) {
  for (IntersectKernel k :
       {IntersectKernel::kScalar, IntersectKernel::kSse,
        IntersectKernel::kAvx2, IntersectKernel::kAuto}) {
    if (name == IntersectKernelName(k)) return k;
  }
  return Status::InvalidArgument(
      "unknown intersect kernel '" + name +
      "' (expected scalar|sse|avx2|auto)");
}

Status SetIntersectKernel(IntersectKernel kernel) {
  if (!CpuSupports(kernel)) {
    return Status::InvalidArgument(
        std::string("intersect kernel '") + IntersectKernelName(kernel) +
        "' is not supported by this CPU");
  }
  g_active.store(static_cast<uint8_t>(kernel), std::memory_order_relaxed);
  return Status::OK();
}

IntersectKernel ActiveIntersectKernel() {
  const auto raw =
      static_cast<IntersectKernel>(g_active.load(std::memory_order_relaxed));
  return raw == IntersectKernel::kAuto ? BestIntersectKernel() : raw;
}

IntersectCounters SnapshotIntersectCounters() {
  CounterRegistry& r = Registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  IntersectCounters snapshot = r.retired;
  for (const CounterCell* cell : r.live) {
    for (int k = 0; k < kNumIntersectKernels; ++k) {
      snapshot.calls[k] += cell->calls[k].load(std::memory_order_relaxed);
      snapshot.elements[k] +=
          cell->elements[k].load(std::memory_order_relaxed);
    }
  }
  return snapshot;
}

// ---------------------------------------------------------------------------
// Explicit-kernel entry points.
// ---------------------------------------------------------------------------

size_t IntersectMergeWith(IntersectKernel kernel, std::span<const VertexId> a,
                          std::span<const VertexId> b,
                          std::vector<VertexId>* out) {
  return WriteMatches(a, b, out, [&](WriteEmitter& emit) {
    MergeDispatch(ResolveKernel(kernel), a, b, emit);
  });
}

size_t IntersectGallopingWith(IntersectKernel kernel,
                              std::span<const VertexId> a,
                              std::span<const VertexId> b,
                              std::vector<VertexId>* out) {
  return WriteMatches(a, b, out, [&](WriteEmitter& emit) {
    GallopDispatch(ResolveKernel(kernel), a, b, emit);
  });
}

uint64_t IntersectCountMergeWith(IntersectKernel kernel,
                                 std::span<const VertexId> a,
                                 std::span<const VertexId> b) {
  CountEmitter emit;
  MergeDispatch(ResolveKernel(kernel), a, b, emit);
  return emit.count;
}

uint64_t IntersectCountGallopingWith(IntersectKernel kernel,
                                     std::span<const VertexId> a,
                                     std::span<const VertexId> b) {
  CountEmitter emit;
  GallopDispatch(ResolveKernel(kernel), a, b, emit);
  return emit.count;
}

// ---------------------------------------------------------------------------
// Scalar reference kernels.
// ---------------------------------------------------------------------------

size_t IntersectMerge(std::span<const VertexId> a, std::span<const VertexId> b,
                      std::vector<VertexId>* out) {
  return IntersectMergeWith(IntersectKernel::kScalar, a, b, out);
}

size_t IntersectGalloping(std::span<const VertexId> a,
                          std::span<const VertexId> b,
                          std::vector<VertexId>* out) {
  return IntersectGallopingWith(IntersectKernel::kScalar, a, b, out);
}

size_t IntersectHash(std::span<const VertexId> a, std::span<const VertexId> b,
                     std::vector<VertexId>* out) {
  CountCall(IntersectKernel::kScalar, a.size() + b.size());
  return WriteMatches(a, b, out,
                      [&](WriteEmitter& emit) { HashGeneric(a, b, emit); });
}

uint64_t IntersectCountMerge(std::span<const VertexId> a,
                             std::span<const VertexId> b) {
  return IntersectCountMergeWith(IntersectKernel::kScalar, a, b);
}

uint64_t IntersectCountGalloping(std::span<const VertexId> a,
                                 std::span<const VertexId> b) {
  return IntersectCountGallopingWith(IntersectKernel::kScalar, a, b);
}

uint64_t IntersectCountHash(std::span<const VertexId> a,
                            std::span<const VertexId> b) {
  CountCall(IntersectKernel::kScalar, a.size() + b.size());
  CountEmitter emit;
  HashGeneric(a, b, emit);
  return emit.count;
}

// ---------------------------------------------------------------------------
// Dispatched adaptive entry points.
// ---------------------------------------------------------------------------

size_t Intersect(std::span<const VertexId> a, std::span<const VertexId> b,
                 std::vector<VertexId>* out) {
  const size_t small = std::min(a.size(), b.size());
  const size_t large = std::max(a.size(), b.size());
  if (small == 0) return 0;
  const IntersectKernel kernel = ActiveIntersectKernel();
  // Galloping wins when the size ratio exceeds ~log2(large).
  if (large / small >= 16) return IntersectGallopingWith(kernel, a, b, out);
  return IntersectMergeWith(kernel, a, b, out);
}

uint64_t IntersectCount(std::span<const VertexId> a,
                        std::span<const VertexId> b) {
  const size_t small = std::min(a.size(), b.size());
  const size_t large = std::max(a.size(), b.size());
  if (small == 0) return 0;
  const IntersectKernel kernel = ActiveIntersectKernel();
  if (large / small >= 16) return IntersectCountGallopingWith(kernel, a, b);
  return IntersectCountMergeWith(kernel, a, b);
}

}  // namespace opt
