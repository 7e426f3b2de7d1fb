// Tests for the bench-regression gate (obs/bench_gate) and the JSON
// parser under it (util/json): format auto-detection across the two
// baseline flavors, tolerance/margin semantics, best-of-N, and the
// host-fingerprint downgrade for host-dependent metrics.
#include <gtest/gtest.h>

#include "obs/bench_gate.h"
#include "util/json.h"

namespace opt {
namespace {

// ---------------------------------------------------------------- json

TEST(Json, ParsesScalarsObjectsAndArrays) {
  auto v = JsonValue::Parse(
      R"({"s":"a\"b","n":-2.5,"i":42,"t":true,"f":false,"z":null,)"
      R"("arr":[1,2,3],"obj":{"k":"v"}})");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(v->Get("s").AsString(), "a\"b");
  EXPECT_DOUBLE_EQ(v->Get("n").AsDouble(), -2.5);
  EXPECT_EQ(v->Get("i").AsInt(), 42);
  EXPECT_TRUE(v->Get("t").AsBool());
  EXPECT_FALSE(v->Get("f").AsBool());
  EXPECT_TRUE(v->Get("z").is_null());
  ASSERT_EQ(v->Get("arr").items().size(), 3u);
  EXPECT_EQ(v->Get("arr").items()[2].AsInt(), 3);
  EXPECT_EQ(v->Get("obj").Get("k").AsString(), "v");
  // Missing keys read as null, recursively.
  EXPECT_TRUE(v->Get("missing").Get("deeper").is_null());
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_FALSE(JsonValue::Parse("{").ok());
  EXPECT_FALSE(JsonValue::Parse("[1,]").ok());
  EXPECT_FALSE(JsonValue::Parse("{\"a\":1,}").ok());
  EXPECT_FALSE(JsonValue::Parse("01").ok());
  EXPECT_FALSE(JsonValue::Parse("\"unterminated").ok());
  EXPECT_FALSE(JsonValue::Parse("{}trailing").ok());
  EXPECT_FALSE(JsonValue::Parse("").ok());
}

TEST(Json, EscapesAndWhitespace) {
  auto v = JsonValue::Parse(" {\n\t\"k\" : \"a\\n\\t\\\\b\\u0041\" } ");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->Get("k").AsString(), "a\n\t\\bA");
}

// ----------------------------------------------------- format detection

constexpr char kUnified[] = R"({
  "schema_version": 1,
  "experiment": "ablation_overlap",
  "host": {"hostname":"ci-box","nproc":8,"machine":"x86_64"},
  "perf_backend": "perf_event_sw",
  "rows": [
    {"config":"opt_serial","seconds":0.10,"micro_overlap":0.80,
     "profiler_overhead_frac":0.01},
    {"config":"opt_full","seconds":0.08,"micro_overlap":0.65,
     "profiler_overhead_frac":0.02}
  ]
})";

TEST(BenchRunParse, UnifiedSchema) {
  auto run = ParseBenchRun(kUnified);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->schema_version, 1);
  EXPECT_EQ(run->experiment, "ablation_overlap");
  EXPECT_EQ(run->perf_backend, "perf_event_sw");
  EXPECT_EQ(run->host.Fingerprint(), "ci-box/8/x86_64");
  ASSERT_EQ(run->rows.size(), 2u);
  EXPECT_EQ(run->rows[0].Get("config").AsString(), "opt_serial");
}

TEST(BenchRunParse, GoogleBenchmarkFormat) {
  auto run = ParseBenchRun(R"({
    "context": {"host_name":"vm","num_cpus":4},
    "benchmarks": [
      {"name":"BM_A/1","run_type":"iteration","items_per_second":100.0},
      {"name":"BM_A/1","run_type":"aggregate","items_per_second":95.0},
      {"name":"BM_B/2","items_per_second":50.0}
    ]
  })");
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->experiment, "gbench");
  ASSERT_EQ(run->rows.size(), 2u);  // aggregate row skipped
  EXPECT_EQ(run->host.hostname, "vm");
}

TEST(BenchRunParse, RejectsUnrecognizedShape) {
  EXPECT_FALSE(ParseBenchRun(R"({"rows":[]})").ok());
  EXPECT_FALSE(ParseBenchRun("3").ok());
}

// -------------------------------------------------------------- gating

BenchRun Doctor(const std::string& base_text, const std::string& from,
                const std::string& to) {
  std::string text = base_text;
  const size_t pos = text.find(from);
  EXPECT_NE(pos, std::string::npos) << from;
  text.replace(pos, from.size(), to);
  auto run = ParseBenchRun(text);
  EXPECT_TRUE(run.ok());
  return *run;
}

TEST(BenchGate, IdenticalRunsPass) {
  auto base = ParseBenchRun(kUnified);
  ASSERT_TRUE(base.ok());
  auto report = CompareBenchRuns(*base, {*base}, GateOptions{});
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok());
  EXPECT_EQ(report->regressions, 0);
  EXPECT_TRUE(report->same_host);
  // Every row×metric in the spec produced a verdict line.
  EXPECT_EQ(report->rows.size(), 6u);
}

TEST(BenchGate, DoctoredInvariantMetricFails) {
  auto base = ParseBenchRun(kUnified);
  ASSERT_TRUE(base.ok());
  // micro_overlap collapsing 0.80 → 0.20 is far past the 35% rel
  // tolerance and must gate even though seconds are untouched.
  BenchRun fresh = Doctor(kUnified, "\"micro_overlap\":0.80",
                          "\"micro_overlap\":0.20");
  auto report = CompareBenchRuns(*base, {fresh}, GateOptions{});
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->ok());
  EXPECT_EQ(report->regressions, 1);
}

TEST(BenchGate, RegressionWithinTolerancePasses) {
  auto base = ParseBenchRun(kUnified);
  ASSERT_TRUE(base.ok());
  // 0.80 → 0.70 is a 12.5% drop, inside the 35% rel tolerance.
  BenchRun fresh = Doctor(kUnified, "\"micro_overlap\":0.80",
                          "\"micro_overlap\":0.70");
  auto report = CompareBenchRuns(*base, {fresh}, GateOptions{});
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok());
}

TEST(BenchGate, ToleranceOverrideTightensTheGate) {
  auto base = ParseBenchRun(kUnified);
  ASSERT_TRUE(base.ok());
  BenchRun fresh = Doctor(kUnified, "\"micro_overlap\":0.80",
                          "\"micro_overlap\":0.70");
  GateOptions opts;
  opts.tolerance_override["micro_overlap"] = 0.05;  // now 12.5% > 5%
  auto report = CompareBenchRuns(*base, {fresh}, opts);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->ok());
}

TEST(BenchGate, HostMismatchDowngradesHostDependentMetrics) {
  auto base = ParseBenchRun(kUnified);
  ASSERT_TRUE(base.ok());
  // Different host + seconds 100x worse: seconds is host-dependent, so
  // the regression is informational — the invariant metrics still gate.
  auto slow_run = ParseBenchRun(R"({
  "schema_version": 1,
  "experiment": "ablation_overlap",
  "host": {"hostname":"laptop","nproc":2,"machine":"arm64"},
  "rows": [
    {"config":"opt_serial","seconds":9.99,"micro_overlap":0.80,
     "profiler_overhead_frac":0.01},
    {"config":"opt_full","seconds":9.99,"micro_overlap":0.65,
     "profiler_overhead_frac":0.02}
  ]
})");
  ASSERT_TRUE(slow_run.ok());
  const BenchRun& slow = *slow_run;
  auto report = CompareBenchRuns(*base, {slow}, GateOptions{});
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->same_host);
  EXPECT_TRUE(report->ok());  // slow seconds not gated across hosts
  bool saw_info_seconds = false;
  for (const auto& r : report->rows) {
    if (r.metric == "seconds" && r.verdict == GateVerdict::kInfo) {
      saw_info_seconds = true;
      EXPECT_FALSE(r.enforced);
    }
  }
  EXPECT_TRUE(saw_info_seconds);

  // --strict_host turns the same comparison into a failure.
  GateOptions strict;
  strict.strict_host = true;
  auto strict_report = CompareBenchRuns(*base, {slow}, strict);
  ASSERT_TRUE(strict_report.ok());
  EXPECT_FALSE(strict_report->ok());
}

TEST(BenchGate, BestOfNTakesTheMostFavorableFreshValue) {
  auto base = ParseBenchRun(kUnified);
  ASSERT_TRUE(base.ok());
  BenchRun bad = Doctor(kUnified, "\"micro_overlap\":0.80",
                        "\"micro_overlap\":0.10");
  BenchRun good = Doctor(kUnified, "\"micro_overlap\":0.80",
                         "\"micro_overlap\":0.79");
  // One noisy run plus one healthy run: best-of-2 passes.
  auto report = CompareBenchRuns(*base, {bad, good}, GateOptions{});
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok());
  // The noisy run alone fails.
  auto solo = CompareBenchRuns(*base, {bad}, GateOptions{});
  ASSERT_TRUE(solo.ok());
  EXPECT_FALSE(solo->ok());
}

TEST(BenchGate, MissingRowFailsUnlessAllowed) {
  auto base = ParseBenchRun(kUnified);
  ASSERT_TRUE(base.ok());
  auto fresh = ParseBenchRun(R"({
    "schema_version": 1,
    "experiment": "ablation_overlap",
    "host": {"hostname":"ci-box","nproc":8,"machine":"x86_64"},
    "rows": [
      {"config":"opt_serial","seconds":0.10,"micro_overlap":0.80,
       "profiler_overhead_frac":0.01}
    ]
  })");
  ASSERT_TRUE(fresh.ok());
  auto report = CompareBenchRuns(*base, {*fresh}, GateOptions{});
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->ok());
  EXPECT_GT(report->missing, 0);

  GateOptions allow;
  allow.allow_missing = true;
  auto lax = CompareBenchRuns(*base, {*fresh}, allow);
  ASSERT_TRUE(lax.ok());
  EXPECT_TRUE(lax->ok());
}

TEST(BenchGate, ExperimentMismatchIsAnError) {
  auto base = ParseBenchRun(kUnified);
  auto other = ParseBenchRun(
      R"({"schema_version":1,"experiment":"shard_throughput",)"
      R"("rows":[{"shards":2,"qps":10.0}]})");
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(other.ok());
  EXPECT_FALSE(CompareBenchRuns(*base, {*other}, GateOptions{}).ok());
}

TEST(BenchGate, ImprovementIsReportedNotFailed) {
  auto base = ParseBenchRun(kUnified);
  ASSERT_TRUE(base.ok());
  // profiler_overhead_frac (lower is better) has margin
  // max(1.0·0.01, 0.04) = 0.04; dropping to −0.5 clears it decisively.
  BenchRun fast = Doctor(kUnified, "\"profiler_overhead_frac\":0.01",
                         "\"profiler_overhead_frac\":-0.5");
  auto report = CompareBenchRuns(*base, {fast}, GateOptions{});
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok());
  bool saw_improved = false;
  for (const auto& r : report->rows) {
    saw_improved |= r.verdict == GateVerdict::kImproved;
  }
  EXPECT_TRUE(saw_improved);
}

TEST(BenchGate, SpecsExistForRepoExperiments) {
  EXPECT_FALSE(SpecForExperiment("ablation_overlap").metrics.empty());
  EXPECT_FALSE(SpecForExperiment("shard_throughput").metrics.empty());
  EXPECT_FALSE(SpecForExperiment("service_throughput").metrics.empty());
  EXPECT_FALSE(SpecForExperiment("gbench").metrics.empty());
  // Unknown experiments still gate wall time, keyed on config/method.
  GateSpec spec = SpecForExperiment("something_new");
  ASSERT_EQ(spec.metrics.size(), 1u);
  EXPECT_EQ(spec.metrics[0].metric, "seconds");
}

}  // namespace
}  // namespace opt
