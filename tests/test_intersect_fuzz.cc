// Randomized differential tests for every intersection kernel variant
// (scalar merge/galloping/hash, SSE, AVX2) against a
// std::set_intersection oracle, over adversarial inputs: empty lists,
// singletons, all-equal lists, no-overlap interleavings, duplicates at
// SIMD block boundaries, lengths straddling register tails (7/8/9,
// 15/16/17), unsigned values above INT32_MAX, heavily skewed size
// ratios, and output appended after elements already present. Also
// covers the dispatch table itself (parse/set/active and the
// per-kernel counters).
#include "graph/intersect.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "util/random.h"

namespace opt {
namespace {

std::vector<VertexId> Oracle(const std::vector<VertexId>& a,
                             const std::vector<VertexId>& b) {
  std::vector<VertexId> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

constexpr IntersectKernel kAllKernels[] = {
    IntersectKernel::kScalar, IntersectKernel::kSse, IntersectKernel::kAvx2};

/// Checks every kernel variant (merge, galloping, hash; materializing
/// and counting) against the oracle for one input pair. On hosts
/// without SSE/AVX2 those rows degrade to scalar (still checked).
void CheckAllVariants(const std::vector<VertexId>& a,
                      const std::vector<VertexId>& b,
                      const std::string& label) {
  const std::vector<VertexId> expected = Oracle(a, b);
  for (IntersectKernel kernel : kAllKernels) {
    const std::string tag =
        label + " kernel=" + IntersectKernelName(kernel) + " |a|=" +
        std::to_string(a.size()) + " |b|=" + std::to_string(b.size());
    std::vector<VertexId> merged;
    ASSERT_EQ(IntersectMergeWith(kernel, a, b, &merged), expected.size())
        << tag;
    ASSERT_EQ(merged, expected) << tag;
    ASSERT_EQ(IntersectCountMergeWith(kernel, a, b), expected.size()) << tag;

    std::vector<VertexId> galloped;
    ASSERT_EQ(IntersectGallopingWith(kernel, a, b, &galloped),
              expected.size())
        << tag;
    ASSERT_EQ(galloped, expected) << tag;
    ASSERT_EQ(IntersectCountGallopingWith(kernel, a, b), expected.size())
        << tag;
  }
  std::vector<VertexId> hashed;
  ASSERT_EQ(IntersectHash(a, b, &hashed), expected.size()) << label;
  ASSERT_EQ(hashed, expected) << label;
  ASSERT_EQ(IntersectCountHash(a, b), expected.size()) << label;
}

/// Sorted list with tunable stride and duplicate probability.
std::vector<VertexId> MakeList(Random64* rng, size_t n, uint32_t max_step,
                               uint32_t dup_percent, VertexId start = 0) {
  std::vector<VertexId> out;
  out.reserve(n);
  VertexId v = start;
  for (size_t i = 0; i < n; ++i) {
    if (out.empty() || rng->Uniform(100) >= dup_percent) {
      v += 1 + static_cast<VertexId>(rng->Uniform(max_step));
    }
    out.push_back(v);  // duplicate when v was not advanced
  }
  return out;
}

TEST(IntersectFuzzTest, AdversarialFixedCases) {
  const std::vector<VertexId> empty;
  const std::vector<VertexId> one{7};
  const std::vector<VertexId> run{5, 5, 5, 5, 5, 5, 5, 5, 5};
  const std::vector<VertexId> evens{0, 2, 4, 6, 8, 10, 12, 14, 16, 18};
  const std::vector<VertexId> odds{1, 3, 5, 7, 9, 11, 13, 15, 17, 19};
  const std::vector<VertexId> big{0xFFFFFFF0u, 0xFFFFFFF5u, 0xFFFFFFFEu,
                                  0xFFFFFFFFu};
  CheckAllVariants(empty, empty, "empty-empty");
  CheckAllVariants(empty, evens, "empty-list");
  CheckAllVariants(evens, empty, "list-empty");
  CheckAllVariants(one, one, "singleton-hit");
  CheckAllVariants(one, evens, "singleton-miss");
  CheckAllVariants(run, run, "all-equal");
  CheckAllVariants(run, one, "all-equal-vs-singleton");
  CheckAllVariants(evens, odds, "no-overlap-interleaved");
  CheckAllVariants(evens, evens, "identical");
  // Values above INT32_MAX: catches signed-compare mistakes in the
  // vectorized lower bound (unsigned order needs the sign-flip trick).
  CheckAllVariants(big, big, "unsigned-range");
  CheckAllVariants(big, evens, "unsigned-vs-small");
}

TEST(IntersectFuzzTest, TailLengthsStraddlingSimdRegisters) {
  // Every length pair around the 4-lane and 8-lane block sizes,
  // including 7/8/9 and 15/16/17, at three densities.
  std::vector<size_t> lengths;
  for (size_t n = 0; n <= 18; ++n) lengths.push_back(n);
  for (size_t n : {23u, 24u, 25u, 31u, 32u, 33u}) lengths.push_back(n);
  Random64 rng(2024);
  for (uint32_t max_step : {1u, 3u, 16u}) {
    for (size_t na : lengths) {
      for (size_t nb : lengths) {
        const auto a = MakeList(&rng, na, max_step, /*dup_percent=*/0);
        const auto b = MakeList(&rng, nb, max_step, /*dup_percent=*/0);
        CheckAllVariants(a, b, "tail-sweep");
      }
    }
  }
}

TEST(IntersectFuzzTest, DuplicatesAtBlockBoundaries) {
  // Place runs of equal values so they straddle every 4- and 8-element
  // block boundary of either input — the case where a vectorized
  // block-merge can double-emit if it mishandles duplicate windows.
  Random64 rng(7);
  for (size_t boundary : {4u, 8u, 12u, 16u, 24u, 32u}) {
    for (size_t run_len : {2u, 3u, 5u, 9u}) {
      for (int side = 0; side < 3; ++side) {
        std::vector<VertexId> a, b;
        VertexId v = 1;
        auto fill = [&](std::vector<VertexId>* out, bool with_run) {
          out->clear();
          VertexId x = v;
          const size_t total = boundary + run_len + 8;
          for (size_t i = 0; i < total; ++i) {
            const bool in_run =
                with_run && i >= boundary - 1 && i < boundary - 1 + run_len;
            if (!in_run || out->empty()) {
              x += 1 + static_cast<VertexId>(rng.Uniform(2));
            }
            out->push_back(x);
          }
        };
        fill(&a, side != 1);
        fill(&b, side != 0);
        CheckAllVariants(a, b, "dup-at-boundary");
        v += 100;
      }
    }
  }
}

TEST(IntersectFuzzTest, RandomizedEquivalence) {
  // The bulk of the ≥10k randomized cases: random lengths, strides,
  // duplicate rates, and overlap offsets.
  Random64 rng(0xDEADBEEF);
  for (int trial = 0; trial < 6000; ++trial) {
    const size_t na = rng.Uniform(120);
    const size_t nb = rng.Uniform(120);
    const uint32_t max_step = 1 + static_cast<uint32_t>(rng.Uniform(8));
    const uint32_t dup_percent = static_cast<uint32_t>(rng.Uniform(35));
    const VertexId offset = static_cast<VertexId>(rng.Uniform(64));
    const auto a = MakeList(&rng, na, max_step, dup_percent);
    const auto b = MakeList(&rng, nb, max_step, dup_percent, offset);
    CheckAllVariants(a, b, "random");
  }
}

TEST(IntersectFuzzTest, HeavilySkewedSizeRatios) {
  // |a| << |b|: the galloping regime, exercised in both argument orders.
  Random64 rng(99);
  for (int trial = 0; trial < 400; ++trial) {
    const size_t na = 1 + rng.Uniform(12);
    const size_t nb = 500 + rng.Uniform(1500);
    const auto a =
        MakeList(&rng, na, /*max_step=*/600, static_cast<uint32_t>(
                     rng.Uniform(20)));
    const auto b = MakeList(&rng, nb, /*max_step=*/4,
                            static_cast<uint32_t>(rng.Uniform(20)));
    CheckAllVariants(a, b, "skewed-small-large");
    CheckAllVariants(b, a, "skewed-large-small");
  }
}

TEST(IntersectFuzzTest, AppendsAfterExistingElements) {
  // Every materializing entry point appends to an *out that already
  // holds elements: the prefix survives, the return value counts only
  // the new matches and the final size is exact. min(|a|, |b|) sweeps
  // 0..17, so the one-block slack past the matches is crossed.
  const std::vector<VertexId> prefix = {0xFFFFFFF0u, 7, 0xFFFFFFF1u};
  Random64 rng(31);
  for (size_t small = 0; small <= 17; ++small) {
    for (size_t large : {small, small + 1, small + 9, 16 * small + 20}) {
      // max_step 1 makes every element of the shorter list match.
      for (uint32_t max_step : {1u, 4u}) {
        const auto a = MakeList(&rng, small, max_step, /*dup_percent=*/0);
        const auto b = MakeList(&rng, large, max_step, /*dup_percent=*/0);
        const std::vector<VertexId> matches = Oracle(a, b);
        std::vector<VertexId> expected = prefix;
        expected.insert(expected.end(), matches.begin(), matches.end());
        auto check = [&](const std::string& name, auto intersect) {
          for (bool swapped : {false, true}) {
            const std::string tag =
                name + " |a|=" + std::to_string(swapped ? large : small) +
                " |b|=" + std::to_string(swapped ? small : large) +
                " step=" + std::to_string(max_step);
            std::vector<VertexId> out = prefix;
            const size_t added =
                swapped ? intersect(b, a, &out) : intersect(a, b, &out);
            ASSERT_EQ(added, matches.size()) << tag;
            ASSERT_EQ(out.size(), expected.size()) << tag;
            ASSERT_EQ(out, expected) << tag;
          }
        };
        for (IntersectKernel kernel : kAllKernels) {
          const std::string k = IntersectKernelName(kernel);
          check("merge/" + k, [kernel](const auto& x, const auto& y,
                                       std::vector<VertexId>* out) {
            return IntersectMergeWith(kernel, x, y, out);
          });
          check("gallop/" + k, [kernel](const auto& x, const auto& y,
                                        std::vector<VertexId>* out) {
            return IntersectGallopingWith(kernel, x, y, out);
          });
        }
        check("hash", [](const auto& x, const auto& y,
                         std::vector<VertexId>* out) {
          return IntersectHash(x, y, out);
        });
        check("adaptive", [](const auto& x, const auto& y,
                             std::vector<VertexId>* out) {
          return Intersect(x, y, out);
        });
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Dispatch-table behavior.
// ---------------------------------------------------------------------------

class KernelDispatchTest : public ::testing::Test {
 protected:
  void TearDown() override {
    // Tests mutate process-wide dispatch state; restore auto-selection.
    ASSERT_TRUE(SetIntersectKernel(IntersectKernel::kAuto).ok());
  }
};

TEST_F(KernelDispatchTest, ParseAcceptsKnownNamesOnly) {
  for (IntersectKernel k :
       {IntersectKernel::kScalar, IntersectKernel::kSse,
        IntersectKernel::kAvx2, IntersectKernel::kAuto}) {
    auto parsed = ParseIntersectKernel(IntersectKernelName(k));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, k);
  }
  EXPECT_FALSE(ParseIntersectKernel("sse9").ok());
  EXPECT_FALSE(ParseIntersectKernel("").ok());
  EXPECT_FALSE(ParseIntersectKernel("AUTO").ok());
  EXPECT_FALSE(ParseIntersectKernel("bitmap").ok());
  EXPECT_FALSE(ParseIntersectKernel("bitmap_scalar").ok());
}

TEST_F(KernelDispatchTest, AutoResolvesToBestSupported) {
  ASSERT_TRUE(SetIntersectKernel(IntersectKernel::kAuto).ok());
  EXPECT_EQ(ActiveIntersectKernel(), BestIntersectKernel());
  EXPECT_TRUE(IntersectKernelSupported(ActiveIntersectKernel()));
  EXPECT_TRUE(IntersectKernelSupported(IntersectKernel::kScalar));
}

TEST_F(KernelDispatchTest, SetHonorsSupportedKernelsAndRejectsOthers) {
  for (IntersectKernel k : kAllKernels) {
    if (IntersectKernelSupported(k)) {
      ASSERT_TRUE(SetIntersectKernel(k).ok());
      EXPECT_EQ(ActiveIntersectKernel(), k);
    } else {
      const Status s = SetIntersectKernel(k);
      EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
    }
  }
}

TEST_F(KernelDispatchTest, DispatchedEntryPointsMatchOracleUnderEachKernel) {
  Random64 rng(4242);
  const auto a = MakeList(&rng, 300, 3, 5);
  const auto b = MakeList(&rng, 280, 3, 5);
  const auto skew_a = MakeList(&rng, 6, 400, 0);
  const std::vector<VertexId> expected = Oracle(a, b);
  const std::vector<VertexId> expected_skew = Oracle(skew_a, b);
  for (IntersectKernel k : {IntersectKernel::kScalar, IntersectKernel::kSse,
                            IntersectKernel::kAvx2, IntersectKernel::kAuto}) {
    if (!IntersectKernelSupported(k)) continue;
    ASSERT_TRUE(SetIntersectKernel(k).ok());
    std::vector<VertexId> out;
    EXPECT_EQ(Intersect(a, b, &out), expected.size());
    EXPECT_EQ(out, expected);
    EXPECT_EQ(IntersectCount(a, b), expected.size());
    // Skewed pair takes the galloping arm of the adaptive dispatch.
    out.clear();
    EXPECT_EQ(Intersect(skew_a, b, &out), expected_skew.size());
    EXPECT_EQ(out, expected_skew);
    EXPECT_EQ(IntersectCount(skew_a, b), expected_skew.size());
  }
}

TEST_F(KernelDispatchTest, CountersAttributeCallsToTheActiveKernel) {
  Random64 rng(1);
  const auto a = MakeList(&rng, 64, 2, 0);
  const auto b = MakeList(&rng, 64, 2, 0);
  for (IntersectKernel k : kAllKernels) {
    if (!IntersectKernelSupported(k)) continue;
    ASSERT_TRUE(SetIntersectKernel(k).ok());
    const IntersectCounters before = SnapshotIntersectCounters();
    const uint64_t n = IntersectCount(a, b);
    (void)n;
    const IntersectCounters delta =
        IntersectCounters::Delta(SnapshotIntersectCounters(), before);
    const int idx = static_cast<int>(k);
    EXPECT_EQ(delta.calls[idx], 1u) << IntersectKernelName(k);
    EXPECT_EQ(delta.elements[idx], a.size() + b.size())
        << IntersectKernelName(k);
    EXPECT_EQ(delta.TotalCalls(), 1u) << IntersectKernelName(k);
  }
}

}  // namespace
}  // namespace opt
