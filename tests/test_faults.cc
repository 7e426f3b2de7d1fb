// Deterministic fault-injection tests: the FaultPlan/FaultInjectingEnv
// machinery itself, the async-I/O retry path it exercises, the typed
// Unavailable degradation contract of OptRunner/QueryScheduler, the
// buffer pool's wedged-waiter timeout, and StoreBuilder crash
// consistency (torn writes caught at open). Every failing assertion
// carries the plan's one-line spec so chaos results reproduce via
// `opt_server --fault-plan "<spec>"` or FaultPlan::Parse.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/iterator_model.h"
#include "core/opt_runner.h"
#include "core/triangle_sink.h"
#include "gen/erdos_renyi.h"
#include "graph/csr_graph.h"
#include "service/graph_registry.h"
#include "service/query_scheduler.h"
#include "storage/async_io.h"
#include "storage/buffer_pool.h"
#include "storage/env.h"
#include "storage/fault_env.h"
#include "storage/graph_store.h"
#include "storage/page_file.h"
#include "test_helpers.h"
#include "util/metrics.h"

namespace opt {
namespace {

// ---------------------------------------------------------------------
// FaultPlan parsing

TEST(FaultPlan, ParsesFullSpecAndRoundTrips) {
  const std::string spec =
      "seed=42,read_error_p=0.05,transient=2,torn_read_p=0.01,"
      "latency_p=0.1,latency_us=500,fail_reads_after=100,"
      "write_fail_after=8192,silent_write_loss=1,path_filter=.pages";
  auto plan = FaultPlan::Parse(spec);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->seed, 42u);
  EXPECT_DOUBLE_EQ(plan->read_error_p, 0.05);
  EXPECT_EQ(plan->transient, 2u);
  EXPECT_DOUBLE_EQ(plan->torn_read_p, 0.01);
  EXPECT_DOUBLE_EQ(plan->latency_p, 0.1);
  EXPECT_EQ(plan->latency_us, 500u);
  EXPECT_EQ(plan->fail_reads_after, 100);
  EXPECT_EQ(plan->write_fail_after, 8192u);
  EXPECT_TRUE(plan->silent_write_loss);
  EXPECT_EQ(plan->path_filter, ".pages");

  // ToString must be re-parseable to an identical plan (the repro
  // contract: any printed spec reproduces the run).
  auto reparsed = FaultPlan::Parse(plan->ToString());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(reparsed->ToString(), plan->ToString());
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  EXPECT_FALSE(FaultPlan::Parse("bogus_key=1").ok());
  EXPECT_FALSE(FaultPlan::Parse("read_error_p=notanumber").ok());
  EXPECT_FALSE(FaultPlan::Parse("read_error_p=1.5").ok());
  EXPECT_FALSE(FaultPlan::Parse("=3").ok());
  EXPECT_FALSE(FaultPlan::Parse("seed").ok());
  EXPECT_TRUE(FaultPlan::Parse("").ok());  // all defaults
}

TEST(FaultPlan, IntegerFieldsKeepFull64BitPrecision) {
  // seed and write_fail_after are uint64: a strtod parse would silently
  // change values above 2^53, so a 64-bit seed printed by ToString()
  // would replay a different plan.
  auto plan = FaultPlan::Parse(
      "seed=18446744073709551615,write_fail_after=9007199254740993");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->seed, 18446744073709551615ull);
  EXPECT_EQ(plan->write_fail_after, 9007199254740993ull);  // 2^53 + 1
  auto reparsed = FaultPlan::Parse(plan->ToString());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(reparsed->seed, plan->seed);
  EXPECT_EQ(reparsed->write_fail_after, plan->write_fail_after);
}

TEST(FaultPlan, RejectsNegativeUnsignedFields) {
  // A negative double cast to an unsigned type is UB; the parser must
  // reject the sign outright rather than wrap or misbehave.
  EXPECT_FALSE(FaultPlan::Parse("seed=-5").ok());
  EXPECT_FALSE(FaultPlan::Parse("transient=-1").ok());
  EXPECT_FALSE(FaultPlan::Parse("write_fail_after=-1").ok());
  EXPECT_FALSE(FaultPlan::Parse("latency_us=-200").ok());
  EXPECT_FALSE(FaultPlan::Parse("transient=4294967296").ok());  // > uint32
  // fail_reads_after is signed; -1 is its documented "disarmed" value.
  auto plan = FaultPlan::Parse("fail_reads_after=-1");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->fail_reads_after, -1);
}

TEST(FaultPlan, ProbabilitiesRoundTripBitExactly) {
  // The repro contract is exact: a fuzzed plan's printed spec must
  // parse back to the identical plan, including probabilities that are
  // not exactly representable in 6 significant digits.
  FaultPlan plan;
  plan.seed = 0x9E3779B97F4A7C15ull;
  plan.read_error_p = 0.1;
  plan.torn_read_p = 1.0 / 3.0;
  plan.latency_p = 0.05;
  plan.latency_us = 123;
  auto reparsed = FaultPlan::Parse(plan.ToString());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(reparsed->seed, plan.seed);
  EXPECT_EQ(reparsed->read_error_p, plan.read_error_p);
  EXPECT_EQ(reparsed->torn_read_p, plan.torn_read_p);
  EXPECT_EQ(reparsed->latency_p, plan.latency_p);
  EXPECT_EQ(reparsed->ToString(), plan.ToString());
}

// ---------------------------------------------------------------------
// Determinism of the injection stream

TEST(FaultInjectingEnv, DecisionsAreAPureFunctionOfSeedPathOffset) {
  // Two independently constructed envs with the same plan must fault
  // the exact same (offset) set — determinism is what makes a chaos
  // failure reproducible from the one-line spec.
  Env* base = Env::Default();
  const std::string path =
      testutil::ProcessTempDir() + "/fault_det.pages";
  {
    auto file = base->OpenWritable(path);
    ASSERT_TRUE(file.ok());
    std::string blob(4096, 'x');
    ASSERT_TRUE((*file)->Append(Slice(blob.data(), blob.size())).ok());
    ASSERT_TRUE((*file)->Close().ok());
  }
  auto plan = FaultPlan::Parse("seed=7,read_error_p=0.5,transient=0");
  ASSERT_TRUE(plan.ok());

  const auto fault_pattern = [&](FaultInjectingEnv* env) {
    std::vector<bool> failed;
    auto file = env->OpenRandomAccess(path);
    EXPECT_TRUE(file.ok());
    char buf[64];
    for (uint64_t off = 0; off < 4096; off += 64) {
      failed.push_back(!(*file)->Read(off, sizeof(buf), buf).ok());
    }
    return failed;
  };
  FaultInjectingEnv env_a(base, *plan);
  FaultInjectingEnv env_b(base, *plan);
  const std::vector<bool> pattern_a = fault_pattern(&env_a);
  const std::vector<bool> pattern_b = fault_pattern(&env_b);
  EXPECT_EQ(pattern_a, pattern_b);
  // p=0.5 over 64 locations: both outcomes must occur.
  EXPECT_NE(std::count(pattern_a.begin(), pattern_a.end(), true), 0);
  EXPECT_NE(std::count(pattern_a.begin(), pattern_a.end(), false), 0);
  // A different seed must give a different pattern.
  auto other = FaultPlan::Parse("seed=8,read_error_p=0.5,transient=0");
  ASSERT_TRUE(other.ok());
  FaultInjectingEnv env_c(base, *other);
  EXPECT_NE(fault_pattern(&env_c), pattern_a);
}

TEST(FaultInjectingEnv, TransientFaultsHealAfterConfiguredAttempts) {
  Env* base = Env::Default();
  const std::string path =
      testutil::ProcessTempDir() + "/fault_heal.pages";
  {
    auto file = base->OpenWritable(path);
    ASSERT_TRUE(file.ok());
    std::string blob(256, 'y');
    ASSERT_TRUE((*file)->Append(Slice(blob.data(), blob.size())).ok());
    ASSERT_TRUE((*file)->Close().ok());
  }
  auto plan = FaultPlan::Parse("seed=3,read_error_p=1,transient=2");
  ASSERT_TRUE(plan.ok());
  FaultInjectingEnv env(base, *plan);
  auto file = env.OpenRandomAccess(path);
  ASSERT_TRUE(file.ok());
  char buf[64];
  EXPECT_FALSE((*file)->Read(0, sizeof(buf), buf).ok());  // attempt 1
  EXPECT_FALSE((*file)->Read(0, sizeof(buf), buf).ok());  // attempt 2
  EXPECT_TRUE((*file)->Read(0, sizeof(buf), buf).ok());   // healed
  // ResetAttempts re-arms the location.
  env.ResetAttempts();
  EXPECT_FALSE((*file)->Read(0, sizeof(buf), buf).ok());
  EXPECT_EQ(env.stats().injected_read_errors.load(), 3u);
}

// ---------------------------------------------------------------------
// Retry path: transient faults heal inside the I/O engine

TEST(FaultRecovery, TransientPlanYieldsExactCountWithRetriesAndNoGiveups) {
  // The acceptance scenario: every page read fails exactly once, the
  // engine's bounded retry absorbs all of it, and the run finishes with
  // the exact triangle count — io.retries > 0, io.giveups == 0.
  CSRGraph g = GenerateErdosRenyi(300, 3600, 17);
  const uint64_t oracle = testutil::OracleCount(g);
  auto plan = FaultPlan::Parse(
      "seed=11,read_error_p=1,transient=1,path_filter=.pages");
  ASSERT_TRUE(plan.ok());
  FaultInjectingEnv fenv(Env::Default(), *plan);
  fenv.set_enabled(false);
  auto store = testutil::MakeStore(g, &fenv, "transient_exact");
  fenv.set_enabled(true);

  Counter* retries = Metrics().GetCounter("io.retries");
  Counter* giveups = Metrics().GetCounter("io.giveups");
  const uint64_t retries_before = retries->value();
  const uint64_t giveups_before = giveups->value();

  OptOptions options;
  options.m_in = std::max(store->MaxRecordPages(), store->num_pages() / 6);
  options.m_ex = options.m_in;
  options.num_threads = 3;
  options.io_retry.backoff_base_micros = 20;
  EdgeIteratorModel model;
  OptRunner runner(store.get(), &model, options);
  CountingSink sink;
  Status s = runner.Run(&sink, nullptr);
  ASSERT_TRUE(s.ok()) << s.ToString() << " under --fault-plan \""
                      << plan->ToString() << "\"";
  EXPECT_EQ(sink.count(), oracle);
  EXPECT_GT(retries->value(), retries_before);
  EXPECT_EQ(giveups->value(), giveups_before);
  EXPECT_GT(fenv.stats().injected_read_errors.load(), 0u);
}

TEST(FaultRecovery, TornReadsAreCaughtByCrcAndHealedByReread) {
  // Torn reads report OK at the device layer; page CRC validation
  // inside the retry loop must catch them, and the reread (the fault is
  // transient) must heal to the exact count.
  CSRGraph g = GenerateErdosRenyi(200, 2000, 23);
  const uint64_t oracle = testutil::OracleCount(g);
  auto plan = FaultPlan::Parse(
      "seed=5,torn_read_p=1,transient=1,path_filter=.pages");
  ASSERT_TRUE(plan.ok());
  FaultInjectingEnv fenv(Env::Default(), *plan);
  fenv.set_enabled(false);
  auto store = testutil::MakeStore(g, &fenv, "torn_heal");
  fenv.set_enabled(true);

  OptOptions options;
  options.m_in = std::max(store->MaxRecordPages(), store->num_pages() / 6);
  options.m_ex = options.m_in;
  options.validate_pages = true;  // CRC validation is the torn-read net
  options.io_retry.backoff_base_micros = 20;
  EdgeIteratorModel model;
  OptRunner runner(store.get(), &model, options);
  CountingSink sink;
  Status s = runner.Run(&sink, nullptr);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(sink.count(), oracle);
  EXPECT_GT(fenv.stats().injected_torn_reads.load(), 0u);
}

TEST(FaultRecovery, LatencySpikesDelayButNeverCorrupt) {
  CSRGraph g = GenerateErdosRenyi(150, 1200, 29);
  const uint64_t oracle = testutil::OracleCount(g);
  auto plan = FaultPlan::Parse(
      "seed=2,latency_p=1,latency_us=100,path_filter=.pages");
  ASSERT_TRUE(plan.ok());
  FaultInjectingEnv fenv(Env::Default(), *plan);
  fenv.set_enabled(false);
  auto store = testutil::MakeStore(g, &fenv, "latency");
  fenv.set_enabled(true);

  OptOptions options;
  options.m_in = std::max(store->MaxRecordPages(), store->num_pages() / 4);
  options.m_ex = options.m_in;
  EdgeIteratorModel model;
  OptRunner runner(store.get(), &model, options);
  CountingSink sink;
  ASSERT_TRUE(runner.Run(&sink, nullptr).ok());
  EXPECT_EQ(sink.count(), oracle);
  EXPECT_GT(fenv.stats().injected_latency.load(), 0u);
}

// ---------------------------------------------------------------------
// Degradation: persistent faults surface as typed Unavailable and the
// shared pool recovers for unrelated work

TEST(FaultDegradation, PersistentPlanReturnsUnavailableAndPoolRecovers) {
  CSRGraph g = GenerateErdosRenyi(250, 2800, 31);
  const uint64_t oracle = testutil::OracleCount(g);
  auto plan = FaultPlan::Parse(
      "seed=19,read_error_p=1,transient=0,path_filter=.pages");
  ASSERT_TRUE(plan.ok());
  FaultInjectingEnv fenv(Env::Default(), *plan);
  fenv.set_enabled(false);
  auto store = testutil::MakeStore(g, &fenv, "persist_degrade");
  fenv.set_enabled(true);

  BufferPool shared(store->page_size(), 96);
  OptOptions options;
  options.m_in = std::max(store->MaxRecordPages(), store->num_pages() / 6);
  options.m_ex = options.m_in;
  options.shared_pool = &shared;
  options.io_retry.max_attempts = 2;
  options.io_retry.backoff_base_micros = 20;
  EdgeIteratorModel model;
  {
    OptRunner runner(store.get(), &model, options);
    CountingSink sink;
    const Status s = runner.Run(&sink, nullptr);
    ASSERT_TRUE(s.IsUnavailable())
        << s.ToString() << " under --fault-plan \"" << plan->ToString()
        << "\"";
  }
  // The shared pool must come out of the failed run clean: no frame
  // left pinned or stuck kInFlight. Heal the device and re-run against
  // the very same pool.
  fenv.set_enabled(false);
  {
    OptRunner runner(store.get(), &model, options);
    CountingSink sink;
    const Status s = runner.Run(&sink, nullptr);
    ASSERT_TRUE(s.ok()) << s.ToString();
    EXPECT_EQ(sink.count(), oracle);
  }
}

TEST(FaultDegradation, SchedulerMarksUnavailableQueriesDegraded) {
  Env* base = Env::Default();
  CSRGraph g = GenerateErdosRenyi(200, 2200, 37);
  const uint64_t oracle = testutil::OracleCount(g);
  auto plan = FaultPlan::Parse(
      "seed=23,read_error_p=1,transient=0,path_filter=.pages");
  ASSERT_TRUE(plan.ok());
  FaultInjectingEnv fenv(base, *plan);

  fenv.set_enabled(false);
  const std::string store_path = [&] {
    const std::string path =
        testutil::ProcessTempDir() + "/sched_degraded";
    GraphStoreOptions store_options;
    store_options.page_size = 256;
    EXPECT_TRUE(GraphStore::Create(g, &fenv, path, store_options).ok());
    return path;
  }();

  GraphRegistry registry(&fenv);
  SchedulerOptions scheduler_options;
  scheduler_options.enable_result_cache = false;
  QueryScheduler scheduler(&registry, scheduler_options);
  ASSERT_TRUE(scheduler.LoadGraph("g", store_path).ok());

  fenv.set_enabled(true);
  QuerySpec spec;
  spec.graph = "g";
  const QueryResult hurt = scheduler.Run(spec);
  EXPECT_TRUE(hurt.status.IsUnavailable()) << hurt.status.ToString();
  EXPECT_TRUE(hurt.degraded);
  EXPECT_EQ(scheduler.stats().degraded, 1u);

  // Degradation is per query, not per process: heal the device and the
  // same scheduler + shared registry pool serve the exact answer.
  fenv.set_enabled(false);
  const QueryResult healed = scheduler.Run(spec);
  ASSERT_TRUE(healed.status.ok()) << healed.status.ToString();
  EXPECT_EQ(healed.triangles, oracle);
  EXPECT_FALSE(healed.degraded);
}

// ---------------------------------------------------------------------
// Wedged-waiter regression: WaitValid must not hang forever on a frame
// whose owning reader died before MarkValid/MarkFailed

TEST(BufferPoolFaults, WaitValidTimesOutWhenReaderNeverPublishes) {
  BufferPool pool(256, 4);
  const PageKey key = MakePageKey(0, 7);
  auto owned = pool.Fetch(key);
  ASSERT_TRUE(owned.ok());
  ASSERT_EQ(owned->outcome, BufferPool::FetchOutcome::kMiss);
  Frame* frame = owned->frame;

  // A second query finds the page in flight and waits — but the "reader"
  // (us) never publishes. The bounded wait must surface Unavailable
  // instead of deadlocking the waiter.
  auto waiter = pool.Fetch(key);
  ASSERT_TRUE(waiter.ok());
  ASSERT_EQ(waiter->outcome, BufferPool::FetchOutcome::kInFlight);
  const Status w = pool.WaitValid(waiter->frame, /*timeout_millis=*/50);
  EXPECT_TRUE(w.IsUnavailable()) << w.ToString();

  // The timeout evicted the wedged page: a fresh fetch re-owns the read
  // rather than piling onto the dead frame.
  pool.Unpin(waiter->frame);
  pool.Unpin(frame);
  auto refetch = pool.Fetch(key);
  ASSERT_TRUE(refetch.ok());
  EXPECT_EQ(refetch->outcome, BufferPool::FetchOutcome::kMiss);
  pool.MarkValid(refetch->frame);
  pool.Unpin(refetch->frame);
}

TEST(BufferPoolFaults, WaitValidStillReturnsPromptlyOnLatePublish) {
  BufferPool pool(256, 4);
  const PageKey key = MakePageKey(0, 9);
  auto owned = pool.Fetch(key);
  ASSERT_TRUE(owned.ok());
  ASSERT_EQ(owned->outcome, BufferPool::FetchOutcome::kMiss);
  Frame* frame = owned->frame;
  std::thread publisher([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    pool.MarkValid(frame);
  });
  // Generous bound: the publish lands well inside it.
  const Status w = pool.WaitValid(frame, /*timeout_millis=*/5000);
  publisher.join();
  EXPECT_TRUE(w.ok()) << w.ToString();
  pool.Unpin(frame);
}

TEST(BufferPoolFaults, InFlightFrameIsNotRecycledAfterWaiterTimeout) {
  // Regression: WaitValid's timeout evicts the page so fresh fetches
  // re-read it, but nothing distinguishes a dead reader from a merely
  // slow one (queueing + backoff can exceed any timeout). If the
  // abandoning pins were the last ones, the frame would return to the
  // free list while the I/O worker still writes into it, and the late
  // MarkValid would publish another page's frame with the wrong bytes.
  // The engine's own pin — held from Submit to publication — must keep
  // the frame out of circulation: with a 1-frame pool, allocation fails
  // until the slow read actually completes.
  Env* base = Env::Default();
  const std::string path =
      testutil::ProcessTempDir() + "/inflight_pin.pages";
  {
    auto writer = PageFileWriter::Create(base, path, 256);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    std::vector<char> page(256, 'z');
    ASSERT_TRUE((*writer)->Append(page.data()).ok());
    ASSERT_TRUE((*writer)->Finish().ok());
  }
  // Every read stalls half a second: plenty of room for the waiter to
  // time out and abandon while the read is genuinely in flight.
  auto plan = FaultPlan::Parse("seed=1,latency_p=1,latency_us=500000");
  ASSERT_TRUE(plan.ok());
  FaultInjectingEnv fenv(base, *plan);
  auto file = PageFile::Open(&fenv, path, 256);
  ASSERT_TRUE(file.ok()) << file.status().ToString();

  BufferPool pool(256, 1);
  AsyncIoEngine engine(1);
  CompletionQueue queue;
  const PageKey key = MakePageKey(0, 0);
  auto owned = pool.Fetch(key);
  ASSERT_TRUE(owned.ok());
  ASSERT_EQ(owned->outcome, BufferPool::FetchOutcome::kMiss);
  Frame* frame = owned->frame;

  Status read_status = Status::Internal("callback never ran");
  ReadRequest request;
  request.file = file->get();
  request.first_pid = 0;
  request.page_count = 1;
  request.frames = {frame};
  request.completion_queue = &queue;
  request.pool = &pool;
  request.callback = [&](const Status& s) { read_status = s; };
  engine.Submit(std::move(request));

  // A concurrent query waits briefly, gives up, and abandons its pin;
  // the submitter's error path then unpins too.
  auto waiter = pool.Fetch(key);
  ASSERT_TRUE(waiter.ok());
  ASSERT_EQ(waiter->outcome, BufferPool::FetchOutcome::kInFlight);
  EXPECT_TRUE(pool.WaitValid(waiter->frame, 20).IsUnavailable());
  pool.Unpin(waiter->frame);
  pool.Unpin(frame);

  // The engine pin is now the only one left; the frame must not be
  // allocatable to another page while the read is still in flight.
  EXPECT_EQ(pool.Fetch(MakePageKey(0, 1)).status().code(),
            StatusCode::kResourceExhausted);

  // Once the read completes (publication, then the engine unpin, then
  // the completion), the frame is reclaimable again.
  while (true) {
    if (auto task = queue.PopFor(1000000)) {
      (*task)();
      break;
    }
  }
  EXPECT_TRUE(read_status.ok()) << read_status.ToString();
  auto refetch = pool.Fetch(MakePageKey(0, 1));
  ASSERT_TRUE(refetch.ok()) << refetch.status().ToString();
  EXPECT_EQ(refetch->outcome, BufferPool::FetchOutcome::kMiss);
  pool.MarkValid(refetch->frame);
  pool.Unpin(refetch->frame);
}

// ---------------------------------------------------------------------
// Crash consistency: a build torn mid-write must be detected at open

TEST(CrashConsistency, SilentTornWriteIsDetectedAtOpen) {
  // Power-loss simulation: the writer believes every append landed
  // (silent_write_loss), but the .pages stream tears mid-build. The
  // sidecar metadata then disagrees with the data file, and Open must
  // refuse the partial store.
  Env* base = Env::Default();
  CSRGraph g = GenerateErdosRenyi(220, 2400, 41);
  const std::string path = testutil::ProcessTempDir() + "/crash_silent";
  auto plan = FaultPlan::Parse(
      "seed=1,write_fail_after=1024,silent_write_loss=1,path_filter=.pages");
  ASSERT_TRUE(plan.ok());
  FaultInjectingEnv fenv(base, *plan);
  GraphStoreOptions options;
  options.page_size = 256;
  // The build "succeeds" — exactly what a crash looks like to the
  // process that died after its writes were acknowledged.
  ASSERT_TRUE(GraphStore::Create(g, &fenv, path, options).ok());
  EXPECT_GT(fenv.stats().write_bytes_lost.load(), 0u);

  auto reopened = GraphStore::Open(base, path);
  ASSERT_FALSE(reopened.ok());
  EXPECT_FALSE(reopened.status().IsIOError())
      << "expected a corruption-class detection, got "
      << reopened.status().ToString();
}

TEST(CrashConsistency, LoudTornWriteFailsTheBuild) {
  Env* base = Env::Default();
  CSRGraph g = GenerateErdosRenyi(220, 2400, 43);
  const std::string path = testutil::ProcessTempDir() + "/crash_loud";
  auto plan = FaultPlan::Parse(
      "seed=1,write_fail_after=1024,path_filter=.pages");
  ASSERT_TRUE(plan.ok());
  FaultInjectingEnv fenv(base, *plan);
  GraphStoreOptions options;
  options.page_size = 256;
  const Status s = GraphStore::Create(g, &fenv, path, options);
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
}

TEST(CrashConsistency, PageCrcVerificationCatchesInPlaceCorruption) {
  // Sizes and the meta sidecar can line up perfectly after a torn
  // sector lands inside an already-counted page; only the per-page CRC
  // walk catches that. Open(verify_pages=true) is the gate.
  Env* base = Env::Default();
  CSRGraph g = GenerateErdosRenyi(200, 2000, 47);
  const std::string path = testutil::ProcessTempDir() + "/crash_crc";
  GraphStoreOptions options;
  options.page_size = 256;
  ASSERT_TRUE(GraphStore::Create(g, base, path, options).ok());

  // Garble a few bytes in the middle of page 1 in place.
  {
    std::fstream file(GraphStore::PagesPath(path),
                      std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.good());
    file.seekp(256 + 100);
    const unsigned char junk[8] = {0xDE, 0xAD, 0xBE, 0xEF,
                                   0xDE, 0xAD, 0xBE, 0xEF};
    file.write(reinterpret_cast<const char*>(junk), sizeof(junk));
  }

  // The cheap open (size + meta checks only) cannot see it...
  auto lax = GraphStore::Open(base, path);
  ASSERT_TRUE(lax.ok()) << lax.status().ToString();
  // ...the verifying open must.
  auto strict = GraphStore::Open(base, path, /*verify_pages=*/true);
  ASSERT_FALSE(strict.ok());
  EXPECT_TRUE(strict.status().IsCorruption())
      << strict.status().ToString();
  EXPECT_TRUE((*lax)->VerifyAllPages().IsCorruption());
}

}  // namespace
}  // namespace opt
