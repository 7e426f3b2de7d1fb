// Differential tests for the whole triangulation stack: OPT's count and
// sorted triangle listing must equal the in-memory baseline on seeded
// R-MAT / Erdős–Rényi / Holme–Kim graphs across the full configuration
// matrix of {m_in/m_ex splits, thread counts, thread morphing,
// backward external order, intersection kernel}. Fault-injection
// variants re-run OPT end-to-end with randomized read-fault offsets and
// with seeded FaultPlans, asserting each run either surfaces the typed
// Unavailable or produces the exact result — never a silently wrong
// count. Failing fault trials print a one-line `--fault-plan` repro.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/iterator_model.h"
#include "core/opt_runner.h"
#include "core/triangle_sink.h"
#include "gen/erdos_renyi.h"
#include "gen/holme_kim.h"
#include "gen/rmat.h"
#include "graph/intersect.h"
#include "storage/env.h"
#include "storage/fault_env.h"
#include "test_helpers.h"
#include "util/random.h"

namespace opt {
namespace {

CSRGraph MakeRmat(uint64_t seed) {
  RmatOptions options;
  options.scale = 8;
  options.edge_factor = 6;
  options.seed = seed;
  return GenerateRmat(options);
}

CSRGraph MakeHolmeKim(uint64_t seed) {
  HolmeKimOptions options;
  options.num_vertices = 350;
  options.edges_per_vertex = 4;
  options.triad_probability = 0.6;
  options.seed = seed;
  return GenerateHolmeKim(options);
}

struct Split {
  const char* name;
  uint32_t m_in;
  uint32_t m_ex;
};

/// An even paper-default split and a skewed minimal-internal split.
std::vector<Split> MakeSplits(const GraphStore& store) {
  const uint32_t even =
      std::max(store.MaxRecordPages() * 2, store.num_pages() / 5);
  return {{"even", even, even},
          {"skewed", std::max(store.MaxRecordPages(), 2u),
           std::max(2u, store.num_pages() / 3)}};
}

std::string ConfigLabel(const Split& split, uint32_t threads, bool morph,
                        bool backward, IntersectKernel kernel) {
  return std::string("split=") + split.name +
         " threads=" + std::to_string(threads) +
         " morph=" + (morph ? "on" : "off") +
         " backward=" + (backward ? "on" : "off") +
         " kernel=" + IntersectKernelName(kernel);
}

OptOptions MakeOptions(const Split& split, uint32_t threads, bool morph,
                       bool backward, IntersectKernel kernel) {
  OptOptions options;
  options.m_in = split.m_in;
  options.m_ex = split.m_ex;
  options.num_threads = threads;
  options.macro_overlap = threads > 1;  // threads=1 maps to OPT_serial
  options.thread_morphing = morph;
  options.backward_external_order = backward;
  options.kernel = kernel;
  return options;
}

class DifferentialTest : public ::testing::Test {
 protected:
  void TearDown() override {
    // options.kernel installs process-wide; restore auto-selection.
    ASSERT_TRUE(SetIntersectKernel(IntersectKernel::kAuto).ok());
  }
};

TEST_F(DifferentialTest, RmatFullConfigMatrixMatchesInMemoryBaseline) {
  CSRGraph g = MakeRmat(42);
  const auto oracle = testutil::OracleTriangles(g);
  ASSERT_GT(oracle.size(), 0u);
  auto store = testutil::MakeStore(g, Env::Default(), "diff_rmat", 256);
  EdgeIteratorModel model;
  for (const Split& split : MakeSplits(*store)) {
    for (uint32_t threads : {1u, 2u, 4u}) {
      for (bool morph : {false, true}) {
        for (bool backward : {false, true}) {
          for (IntersectKernel kernel :
               {IntersectKernel::kScalar, IntersectKernel::kAuto}) {
            const std::string label =
                ConfigLabel(split, threads, morph, backward, kernel);
            SCOPED_TRACE(label);
            OptRunner runner(
                store.get(), &model,
                MakeOptions(split, threads, morph, backward, kernel));
            VectorSink sink;
            Status s = runner.Run(&sink, nullptr);
            ASSERT_TRUE(s.ok()) << s.ToString();
            ASSERT_EQ(sink.Sorted(), oracle);
          }
        }
      }
    }
  }
}

TEST_F(DifferentialTest, ErdosRenyiTrimmedMatrixMatchesInMemoryBaseline) {
  CSRGraph g = GenerateErdosRenyi(400, 1600, 7);
  const auto oracle = testutil::OracleTriangles(g);
  auto store = testutil::MakeStore(g, Env::Default(), "diff_er", 256);
  EdgeIteratorModel model;
  const auto splits = MakeSplits(*store);
  // Trimmed matrix: both splits, extreme thread counts, kernels; morph
  // and backward toggled together (the full cross runs on R-MAT above).
  for (const Split& split : splits) {
    for (uint32_t threads : {1u, 4u}) {
      for (bool toggles : {false, true}) {
        for (IntersectKernel kernel :
             {IntersectKernel::kScalar, IntersectKernel::kAuto}) {
          const std::string label =
              ConfigLabel(split, threads, toggles, toggles, kernel);
          SCOPED_TRACE(label);
          OptRunner runner(
              store.get(), &model,
              MakeOptions(split, threads, toggles, toggles, kernel));
          VectorSink sink;
          Status s = runner.Run(&sink, nullptr);
          ASSERT_TRUE(s.ok()) << s.ToString();
          ASSERT_EQ(sink.Sorted(), oracle);
        }
      }
    }
  }
}

TEST_F(DifferentialTest, HolmeKimTrimmedMatrixMatchesInMemoryBaseline) {
  CSRGraph g = MakeHolmeKim(9);
  const auto oracle = testutil::OracleTriangles(g);
  ASSERT_GT(oracle.size(), 0u);  // triad closure guarantees triangles
  auto store = testutil::MakeStore(g, Env::Default(), "diff_hk", 256);
  EdgeIteratorModel model;
  for (const Split& split : MakeSplits(*store)) {
    for (uint32_t threads : {1u, 2u}) {
      for (IntersectKernel kernel :
           {IntersectKernel::kScalar, IntersectKernel::kAuto}) {
        const std::string label =
            ConfigLabel(split, threads, true, true, kernel);
        SCOPED_TRACE(label);
        OptRunner runner(store.get(), &model,
                         MakeOptions(split, threads, true, true, kernel));
        VectorSink sink;
        Status s = runner.Run(&sink, nullptr);
        ASSERT_TRUE(s.ok()) << s.ToString();
        ASSERT_EQ(sink.Sorted(), oracle);
      }
    }
  }
}

TEST_F(DifferentialTest, VertexIteratorModelAgreesUnderForcedKernels) {
  // The vertex-iterator instantiation shares the same intersection
  // kernels through a different access pattern.
  CSRGraph g = MakeRmat(11);
  const auto oracle = testutil::OracleTriangles(g);
  auto store = testutil::MakeStore(g, Env::Default(), "diff_vi", 256);
  VertexIteratorModel model;
  const auto splits = MakeSplits(*store);
  for (IntersectKernel kernel :
       {IntersectKernel::kScalar, IntersectKernel::kAuto}) {
    SCOPED_TRACE(IntersectKernelName(kernel));
    OptRunner runner(store.get(), &model,
                     MakeOptions(splits[0], 3, true, true, kernel));
    VectorSink sink;
    Status s = runner.Run(&sink, nullptr);
    ASSERT_TRUE(s.ok()) << s.ToString();
    ASSERT_EQ(sink.Sorted(), oracle);
  }
}

TEST_F(DifferentialTest, RandomizedFaultOffsetsNeverYieldWrongCounts) {
  // End-to-end fault injection: arm a read failure at a random offset
  // for each trial while also varying threads, morphing, and kernel.
  // Every run must either complete with the exact count (the fault
  // landed past the last read) or fail with the typed Unavailable.
  CSRGraph g = MakeRmat(5);
  FaultInjectionEnv fenv(Env::Default());
  auto store = testutil::MakeStore(g, &fenv, "diff_fault", 256);
  const uint64_t oracle = testutil::OracleCount(g);
  EdgeIteratorModel model;
  const auto splits = MakeSplits(*store);

  Random64 rng(0xFA17);
  int completed = 0;
  int faulted = 0;
  for (int trial = 0; trial < 28; ++trial) {
    const uint32_t threads = 1 + static_cast<uint32_t>(rng.Uniform(4));
    const bool morph = rng.Uniform(2) == 0;
    const IntersectKernel kernel = rng.Uniform(2) == 0
                                       ? IntersectKernel::kScalar
                                       : IntersectKernel::kAuto;
    const Split& split = splits[rng.Uniform(splits.size())];
    // Offsets span "fails immediately" through "fails after the run".
    const int64_t offset = static_cast<int64_t>(rng.Uniform(3000));
    SCOPED_TRACE(ConfigLabel(split, threads, morph, true, kernel) +
                 " fail_after=" + std::to_string(offset));
    fenv.FailReadsAfter(static_cast<int64_t>(fenv.read_count()) + offset);
    OptRunner runner(store.get(), &model,
                     MakeOptions(split, threads, morph, true, kernel));
    CountingSink sink;
    Status s = runner.Run(&sink, nullptr);
    if (s.ok()) {
      ASSERT_EQ(sink.count(), oracle);
      ++completed;
    } else {
      ASSERT_TRUE(s.IsUnavailable()) << s.ToString();
      ++faulted;
    }
  }
  // The offset range is tuned so the sweep exercises both outcomes.
  EXPECT_GT(completed, 0);
  EXPECT_GT(faulted, 0);
}

TEST_F(DifferentialTest, SeededFaultPlansNeverYieldWrongCounts) {
  // FaultPlan-driven differential fuzzing: every trial runs under a
  // distinct deterministic plan mixing transient errors, torn reads,
  // and latency spikes. Transient plans must heal through the I/O
  // retry path and still produce the exact count; persistent plans must
  // surface a typed error — Unavailable for device faults, Corruption
  // for torn pages the reread budget cannot heal — never a wrong
  // count. Any failure prints the one-line
  // fault-plan spec — rerun it against the server with
  //   opt_server --fault-plan "<spec>" --graph g=/path
  // or feed it to FaultPlan::Parse in a unit test to reproduce.
  CSRGraph g = MakeRmat(6);
  const uint64_t oracle = testutil::OracleCount(g);
  EdgeIteratorModel model;

  Random64 rng(0x9E1A);
  int healed = 0;
  int degraded = 0;
  for (int trial = 0; trial < 12; ++trial) {
    FaultPlan plan;
    plan.seed = 0xBEEF0000 + static_cast<uint64_t>(trial);
    plan.read_error_p = 0.05 + 0.05 * static_cast<double>(rng.Uniform(4));
    plan.transient = rng.Uniform(4) == 0 ? 0 : 1 + rng.Uniform(2);
    plan.torn_read_p = rng.Uniform(2) == 0 ? 0.02 : 0.0;
    plan.latency_p = rng.Uniform(2) == 0 ? 0.05 : 0.0;
    plan.latency_us = 200;
    plan.path_filter = ".pages";
    SCOPED_TRACE("repro: --fault-plan \"" + plan.ToString() + "\"");

    FaultInjectingEnv fenv(Env::Default(), plan);
    fenv.set_enabled(false);  // build the store fault-free
    auto store = testutil::MakeStore(
        g, &fenv, "diff_plan_" + std::to_string(trial), 256);
    fenv.set_enabled(true);

    OptOptions options = MakeOptions(MakeSplits(*store)[0],
                                     1 + rng.Uniform(3), true, true,
                                     IntersectKernel::kAuto);
    options.io_retry.backoff_base_micros = 20;  // keep trials brisk
    // A location can fault on the error stream AND the torn stream; the
    // budget must cover both transient runs plus the clean attempt.
    options.io_retry.max_attempts = 2 * plan.transient + 1;
    OptRunner runner(store.get(), &model, options);
    CountingSink sink;
    Status s = runner.Run(&sink, nullptr);
    if (s.ok()) {
      ASSERT_EQ(sink.count(), oracle)
          << "wrong count under --fault-plan \"" << plan.ToString() << "\"";
      ++healed;
    } else {
      // Persistent device errors degrade to the typed Unavailable. A
      // persistent torn read is indistinguishable from on-disk damage
      // once the reread budget is spent, so it surfaces as Corruption
      // (retrying a damaged store forever helps nobody).
      const bool can_corrupt = plan.transient == 0 && plan.torn_read_p > 0;
      ASSERT_TRUE(s.IsUnavailable() || (can_corrupt && s.IsCorruption()))
          << s.ToString();
      ++degraded;
    }
    // Transient plans whose faults all healed within the retry budget
    // must end with the exact count — a transient fault is not license
    // for a wrong answer.
    if (plan.transient != 0 && plan.transient <= 2 &&
        options.io_retry.max_attempts > plan.transient) {
      EXPECT_TRUE(s.ok()) << "transient plan should have healed: "
                          << s.ToString();
    }
  }
  EXPECT_GT(healed, 0);
}

}  // namespace
}  // namespace opt
