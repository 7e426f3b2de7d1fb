// Command-line client for opt_server.
//
// Works against a single opt_server or an opt_router: router replies
// carry a `partial_shards` mask, printed after the result (exit code 3
// on a partial answer), and `--op shard-stats` asks a router for its
// per-shard breakdown.
//
//   opt_client (--port N [--host 127.0.0.1] | --unix /path.sock) \
//       --op count|list|stats|load|profile|add-edges|remove-edges| \
//            subscribe|shard-stats|trace \
//       [--graph NAME] \
//       [--pages N] [--threads N] [--deadline_ms N] \
//       [--path /graph/base]     (load: store base path) \
//       [--out FILE]             (list: triangles as text;
//                                 trace: Perfetto JSON, default
//                                 trace.json) \
//       [--edges "u-v,u-v,..."]  (add-edges / remove-edges) \
//       [--after_epoch N] [--timeout_ms N]  (subscribe long-poll)
//
// --op trace runs one traced COUNT (fresh trace id, printed), pulls the
// span rings from the server — against a router that means the router's
// section plus every shard's — and writes the assembled
// Perfetto-openable JSON to --out.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/overlap_profiler.h"
#include "service/client.h"
#include "util/cli.h"
#include "util/logging.h"
#include "util/table_printer.h"
#include "util/trace.h"

using namespace opt;

namespace {

/// Pretty-prints the structured STATS reply: the text section, then
/// latency histogram quantiles and the metrics-registry counters as
/// aligned tables, then a summary block with the derived pool hit rate
/// and the two health counters operators grep for first.
void PrintStats(const StatsResult& stats) {
  std::fputs(stats.text.c_str(), stdout);
  if (!stats.histograms.empty()) {
    TablePrinter table({"histogram", "count", "min", "max", "mean", "p50",
                        "p95", "p99"});
    for (const StatsHistogram& h : stats.histograms) {
      table.AddRow({h.name, TablePrinter::Fmt(h.count),
                    TablePrinter::Fmt(h.min), TablePrinter::Fmt(h.max),
                    TablePrinter::Fmt(h.mean, 1), TablePrinter::Fmt(h.p50, 1),
                    TablePrinter::Fmt(h.p95, 1),
                    TablePrinter::Fmt(h.p99, 1)});
    }
    std::printf("\n");
    table.Print();
  }
  uint64_t fetch_lookups = 0;
  uint64_t fetch_hits = 0;
  uint64_t io_giveups = 0;
  uint64_t perf_cycles = 0, perf_instructions = 0, perf_llc_misses = 0;
  uint64_t perf_task_clock_ns = 0;
  if (!stats.counters.empty()) {
    TablePrinter table({"counter", "value"});
    for (const StatsCounter& c : stats.counters) {
      table.AddRow({c.name, TablePrinter::Fmt(c.value)});
      if (c.name == "pool.fetch.lookups") fetch_lookups = c.value;
      if (c.name == "pool.fetch.hits") fetch_hits = c.value;
      if (c.name == "io.giveups") io_giveups = c.value;
      if (c.name == "opt.perf.cycles") perf_cycles = c.value;
      if (c.name == "opt.perf.instructions") perf_instructions = c.value;
      if (c.name == "opt.perf.llc_misses") perf_llc_misses = c.value;
      if (c.name == "opt.perf.task_clock_ns") perf_task_clock_ns = c.value;
    }
    std::printf("\n");
    table.Print();
  }
  // Gauge-valued lines only travel in the text section; pull the perf
  // backend name out of it.
  auto text_value = [&stats](const std::string& key) -> std::string {
    const std::string needle = key + "=";
    size_t pos = stats.text.find(needle);
    if (pos != std::string::npos && pos > 0 &&
        stats.text[pos - 1] != '\n') {
      pos = stats.text.find("\n" + needle);
      if (pos != std::string::npos) ++pos;
    }
    if (pos == std::string::npos) return "";
    const size_t start = pos + needle.size();
    const size_t end = stats.text.find('\n', start);
    return stats.text.substr(start, end == std::string::npos
                                        ? std::string::npos
                                        : end - start);
  };
  const std::string perf_backend = text_value("perf.backend");
  // Summary block: pool efficiency plus the two "is anything wrong"
  // numbers (degraded queries, I/O retry give-ups).
  uint64_t degraded = 0;
  const std::string key = "scheduler.degraded=";
  if (const size_t pos = stats.text.find(key); pos != std::string::npos) {
    degraded = std::strtoull(stats.text.c_str() + pos + key.size(),
                             nullptr, 10);
  }
  std::printf("\nsummary:\n");
  if (fetch_lookups > 0) {
    std::printf("  pool hit rate: %.1f%% (%llu/%llu fetches)\n",
                100.0 * static_cast<double>(fetch_hits) /
                    static_cast<double>(fetch_lookups),
                static_cast<unsigned long long>(fetch_hits),
                static_cast<unsigned long long>(fetch_lookups));
  }
  if (!perf_backend.empty()) {
    std::printf("  perf backend: %s", perf_backend.c_str());
    if (perf_task_clock_ns > 0) {
      std::printf(" (task clock %.1f ms",
                  static_cast<double>(perf_task_clock_ns) * 1e-6);
      if (perf_cycles > 0) {
        std::printf(", ipc %.2f, llc misses %llu",
                    static_cast<double>(perf_instructions) /
                        static_cast<double>(perf_cycles),
                    static_cast<unsigned long long>(perf_llc_misses));
      }
      std::printf(")");
    }
    std::printf("\n");
  }
  std::printf("  scheduler.degraded: %llu\n",
              static_cast<unsigned long long>(degraded));
  std::printf("  io.giveups: %llu\n",
              static_cast<unsigned long long>(io_giveups));
}

/// PROFILE reply: overlap fractions, per-role sample shares, and the
/// cost-model fit, in the shape DESIGN.md §9 documents.
void PrintProfile(const ProfileResult& p) {
  std::printf("triangles: %llu\n",
              static_cast<unsigned long long>(p.triangles));
  std::printf("seconds: %.6f  iterations: %u\n", p.seconds, p.iterations);
  std::printf("\noverlap (sampled every %llu us, %llu samples, "
              "%llu stalled):\n",
              static_cast<unsigned long long>(p.period_micros),
              static_cast<unsigned long long>(p.samples),
              static_cast<unsigned long long>(p.stalled_samples));
  std::printf("  micro (CPU busy while reads in flight): %.1f%%\n",
              100.0 * p.micro_overlap);
  std::printf("  macro (internal and external together): %.1f%%\n",
              100.0 * p.macro_overlap);
  std::printf("  morph events: %llu\n",
              static_cast<unsigned long long>(p.morph_events));
  TablePrinter roles({"role", "samples", "share"});
  for (size_t i = 0; i < p.role_samples.size() && i < kNumThreadRoles;
       ++i) {
    const double share =
        p.samples == 0 ? 0.0
                       : static_cast<double>(p.role_samples[i]) /
                             static_cast<double>(p.samples);
    roles.AddRow({ThreadRoleName(static_cast<ThreadRole>(i)),
                  TablePrinter::Fmt(p.role_samples[i]),
                  TablePrinter::Fmt(100.0 * share, 1) + "%"});
  }
  roles.Print();
  std::printf("\ncost model (Cost(ideal) + c*(dEx_io - dIn_io)):\n");
  std::printf("  c (s/page): %.6g  dIn: %llu  dEx: %llu\n",
              p.cost_c_seconds_per_page,
              static_cast<unsigned long long>(p.delta_in_pages),
              static_cast<unsigned long long>(p.delta_ex_pages));
  std::printf("  ideal: %.6fs  predicted: %.6fs  measured: %.6fs\n",
              p.cost_ideal_seconds, p.cost_predicted_seconds,
              p.cost_measured_seconds);
  std::printf("  residual: %+.6fs (%.1f%% of measured)\n",
              p.cost_residual_seconds,
              p.cost_measured_seconds > 0
                  ? 100.0 * p.cost_residual_seconds / p.cost_measured_seconds
                  : 0.0);
}

/// Parses "u-v,u-v,..." (also accepts "u:v"). Endpoint order is free;
/// the server canonicalizes and validates.
Status ParseEdgeList(const std::string& text,
                     std::vector<std::pair<VertexId, VertexId>>* out) {
  out->clear();
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find(',', pos);
    if (end == std::string::npos) end = text.size();
    const std::string item = text.substr(pos, end - pos);
    size_t dash = item.find('-');
    if (dash == std::string::npos) dash = item.find(':');
    char* rest = nullptr;
    if (dash == std::string::npos || dash == 0 ||
        dash + 1 >= item.size()) {
      return Status::InvalidArgument("bad edge '" + item +
                                     "' (expected u-v)");
    }
    const unsigned long long u =
        std::strtoull(item.c_str(), &rest, 10);
    if (rest != item.c_str() + dash) {
      return Status::InvalidArgument("bad edge '" + item + "'");
    }
    const unsigned long long v =
        std::strtoull(item.c_str() + dash + 1, &rest, 10);
    if (rest != item.c_str() + item.size()) {
      return Status::InvalidArgument("bad edge '" + item + "'");
    }
    out->emplace_back(static_cast<VertexId>(u), static_cast<VertexId>(v));
    pos = end + 1;
  }
  if (out->empty()) {
    return Status::InvalidArgument("--edges is empty");
  }
  return Status::OK();
}

void PrintMutateResult(const MutateResult& m) {
  std::printf("epoch: %llu  edges_applied: %llu\n",
              static_cast<unsigned long long>(m.epoch),
              static_cast<unsigned long long>(m.edges_applied));
  std::printf("batch_triangle_delta: %+lld  total_triangle_delta: %+lld\n",
              static_cast<long long>(m.batch_triangle_delta),
              static_cast<long long>(m.total_triangle_delta));
  std::printf("seconds: %.6f\n", m.seconds);
  if (m.approx_valid) {
    std::printf("approx_triangles (streamed edges): %.1f\n",
                m.approx_triangles);
  }
}

/// Renders a router CountResult-style partial mask: which shards are
/// missing from the answer. Prints nothing against an unsharded server
/// (num_shards == 0).
void PrintPartialShards(uint64_t mask, uint32_t num_shards) {
  if (num_shards == 0) return;
  if (mask == 0) {
    std::printf("shards: %u/%u answered (complete)\n", num_shards,
                num_shards);
    return;
  }
  std::string failed;
  uint32_t failures = 0;
  for (uint32_t i = 0; i < num_shards && i < 64; ++i) {
    if (mask & (1ull << i)) {
      if (!failed.empty()) failed += ",";
      failed += std::to_string(i);
      ++failures;
    }
  }
  std::printf("shards: %u/%u answered (PARTIAL — missing shard%s %s)\n",
              num_shards - failures, num_shards, failures == 1 ? "" : "s",
              failed.c_str());
}

/// SHARD_STATS table: the router's per-shard health/latency breakdown.
void PrintShardStats(const ShardStatsResult& stats) {
  std::printf("graph: %s  shards: %zu\n", stats.graph.c_str(),
              stats.shards.size());
  TablePrinter table({"shard", "address", "healthy", "range", "epoch",
                      "restarts", "reqs", "fails", "retries", "ghosts",
                      "p50us", "p95us", "p99us"});
  for (const ShardStatsEntry& entry : stats.shards) {
    table.AddRow({TablePrinter::Fmt(uint64_t{entry.id}), entry.address,
                  entry.healthy ? "yes" : "NO",
                  "[" + TablePrinter::Fmt(uint64_t{entry.range_lo}) + "," +
                      TablePrinter::Fmt(uint64_t{entry.range_hi}) + ")",
                  TablePrinter::Fmt(entry.epoch),
                  TablePrinter::Fmt(entry.restarts),
                  TablePrinter::Fmt(entry.requests),
                  TablePrinter::Fmt(entry.failures),
                  TablePrinter::Fmt(entry.retries),
                  TablePrinter::Fmt(entry.ghost_triangles),
                  TablePrinter::Fmt(entry.latency_p50_micros, 1),
                  TablePrinter::Fmt(entry.latency_p95_micros, 1),
                  TablePrinter::Fmt(entry.latency_p99_micros, 1)});
  }
  table.Print();
}

/// Degraded queries ship their flight-recorder events with the error;
/// print it so the failure explains itself at the terminal.
void PrintErrorWithEvents(const Status& status, const OptClient& client) {
  std::fprintf(stderr, "%s\n", status.ToString().c_str());
  if (client.last_error_trace_id() != 0) {
    std::fprintf(stderr, "trace: %016llx (grep server logs for "
                 "[trace=...] lines)\n",
                 static_cast<unsigned long long>(
                     client.last_error_trace_id()));
  }
  const std::vector<FlightEvent>& events = client.last_error_events();
  if (!events.empty()) {
    std::fprintf(stderr, "flight recorder (last %zu events):\n%s",
                 events.size(),
                 FlightRecorder::Render(events,
                                        client.last_error_trace_id())
                     .c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  InitLogLevelFromEnv();
  auto cl = CommandLine::Parse(argc, argv);
  if (!cl.ok()) {
    std::fprintf(stderr, "%s\n", cl.status().ToString().c_str());
    return 2;
  }
  const bool use_unix = cl->Has("unix");
  if (!use_unix && !cl->Has("port")) {
    std::fprintf(stderr,
                 "usage: %s (--port N | --unix /path.sock) --op "
                 "count|list|stats|load|profile [--graph NAME] "
                 "[--path BASE]\n",
                 argv[0]);
    return 2;
  }
  auto op = cl->GetChoice(
      "op",
      {"count", "list", "stats", "load", "profile", "add-edges",
       "remove-edges", "subscribe", "shard-stats", "trace"},
      "count");
  if (!op.ok()) {
    std::fprintf(stderr, "%s\n", op.status().ToString().c_str());
    return 2;
  }

  OptClient client;
  Status status =
      use_unix
          ? client.ConnectUnix(cl->GetString("unix"))
          : client.ConnectTcp(cl->GetString("host", "127.0.0.1"),
                              static_cast<uint16_t>(cl->GetInt("port", 0)));
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }

  ClientQueryOptions options;
  options.memory_pages = static_cast<uint32_t>(cl->GetInt("pages", 0));
  options.num_threads = static_cast<uint32_t>(cl->GetInt("threads", 0));
  options.deadline_millis =
      static_cast<uint64_t>(cl->GetInt("deadline_ms", 0));
  const std::string graph = cl->GetString("graph");

  if (*op == "count") {
    auto result = client.Count(graph, options);
    if (!result.ok()) {
      PrintErrorWithEvents(result.status(), client);
      return 1;
    }
    static const char* kSources[] = {"executed", "coalesced", "cache"};
    const char* source =
        result->source < 3 ? kSources[result->source] : "?";
    std::printf("triangles: %llu\n",
                static_cast<unsigned long long>(result->triangles));
    std::printf("seconds: %.6f  source: %s  iterations: %u\n",
                result->seconds, source, result->iterations);
    std::printf("pool_hits: %llu  pages_read: %llu\n",
                static_cast<unsigned long long>(result->pool_hits),
                static_cast<unsigned long long>(result->pages_read));
    PrintPartialShards(result->partial_shards, result->num_shards);
    return result->partial_shards != 0 ? 3 : 0;
  }

  if (*op == "profile") {
    auto result = client.Profile(graph, options);
    if (!result.ok()) {
      PrintErrorWithEvents(result.status(), client);
      return 1;
    }
    PrintProfile(*result);
    return 0;
  }

  if (*op == "list") {
    FILE* out = stdout;
    const std::string out_path = cl->GetString("out");
    if (!out_path.empty()) {
      out = std::fopen(out_path.c_str(), "w");
      if (out == nullptr) {
        std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
        return 1;
      }
    }
    auto result = client.List(
        graph,
        [out](const ListBatch& batch) {
          for (const ListBatch::Record& record : batch.records) {
            for (VertexId w : record.ws) {
              std::fprintf(out, "%u %u %u\n", record.u, record.v, w);
            }
          }
        },
        options);
    if (out != stdout) std::fclose(out);
    if (!result.ok()) {
      std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "triangles: %llu  seconds: %.6f\n",
                 static_cast<unsigned long long>(result->triangles),
                 result->seconds);
    PrintPartialShards(result->partial_shards, result->num_shards);
    return result->partial_shards != 0 ? 3 : 0;
  }

  if (*op == "add-edges" || *op == "remove-edges") {
    std::vector<std::pair<VertexId, VertexId>> edges;
    status = ParseEdgeList(cl->GetString("edges"), &edges);
    if (!status.ok() || graph.empty()) {
      std::fprintf(stderr,
                   "--op %s needs --graph NAME --edges \"u-v,u-v\"%s%s\n",
                   op->c_str(), status.ok() ? "" : ": ",
                   status.ok() ? "" : status.ToString().c_str());
      return 2;
    }
    auto result = *op == "add-edges" ? client.AddEdges(graph, edges)
                                     : client.RemoveEdges(graph, edges);
    if (!result.ok()) {
      PrintErrorWithEvents(result.status(), client);
      return 1;
    }
    PrintMutateResult(*result);
    PrintPartialShards(result->partial_shards, result->num_shards);
    return result->partial_shards != 0 ? 3 : 0;
  }

  if (*op == "subscribe") {
    const uint64_t after_epoch =
        static_cast<uint64_t>(cl->GetInt("after_epoch", 0));
    const uint64_t timeout_ms =
        static_cast<uint64_t>(cl->GetInt("timeout_ms", 30000));
    auto result = client.SubscribeCount(graph, after_epoch, timeout_ms);
    if (!result.ok()) {
      PrintErrorWithEvents(result.status(), client);
      return 1;
    }
    std::printf("epoch: %llu%s\n",
                static_cast<unsigned long long>(result->epoch),
                result->timed_out ? "  (timed out)" : "");
    if (result->exact_known) {
      std::printf("triangles: %llu\n",
                  static_cast<unsigned long long>(result->triangles));
    } else {
      std::printf("triangles: unknown (no COUNT has run yet)\n");
    }
    std::printf("delta_triangles: %+lld  edges_added: %llu  "
                "edges_removed: %llu\n",
                static_cast<long long>(result->delta_triangles),
                static_cast<unsigned long long>(result->edges_added),
                static_cast<unsigned long long>(result->edges_removed));
    if (result->approx_valid) {
      std::printf("approx_triangles (streamed edges): %.1f\n",
                  result->approx_triangles);
    }
    PrintPartialShards(result->partial_shards, result->num_shards);
    return result->partial_shards != 0 ? 3 : 0;
  }

  if (*op == "trace") {
    // One traced COUNT end to end: mint a fresh trace id, let the client
    // attach it to the request, then drain every process's span ring
    // through the server (a router adds one section per shard) and
    // assemble the Perfetto JSON.
    const uint64_t trace_id = NewTraceId();
    {
      TraceContextScope scope({trace_id, 0});
      auto result = client.Count(graph, options);
      if (!result.ok()) {
        PrintErrorWithEvents(result.status(), client);
        return 1;
      }
      std::printf("triangles: %llu\n",
                  static_cast<unsigned long long>(result->triangles));
      PrintPartialShards(result->partial_shards, result->num_shards);
    }
    auto pulled = client.TracePull(/*drain=*/true);
    if (!pulled.ok()) {
      std::fprintf(stderr, "trace pull failed: %s\n",
                   pulled.status().ToString().c_str());
      return 1;
    }
    size_t matching = 0;
    for (const ProcessTrace& part : pulled->processes) {
      for (const TraceEvent& event : part.events) {
        if (event.trace_id == trace_id) ++matching;
      }
    }
    const std::string out_path = cl->GetString("out", "trace.json");
    std::ofstream out(out_path, std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
      return 1;
    }
    out << AssembleTrace(pulled->processes);
    std::printf("trace: %016llx\n",
                static_cast<unsigned long long>(trace_id));
    std::printf("%s: %zu process(es), %zu span(s) in this trace — open "
                "in https://ui.perfetto.dev\n",
                out_path.c_str(), pulled->processes.size(), matching);
    return pulled->processes.empty() ? 1 : 0;
  }

  if (*op == "shard-stats") {
    auto result = client.ShardStats();
    if (!result.ok()) {
      std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
      return 1;
    }
    PrintShardStats(*result);
    return 0;
  }

  if (*op == "stats") {
    auto stats = client.StatsFull();
    if (!stats.ok()) {
      std::fprintf(stderr, "%s\n", stats.status().ToString().c_str());
      return 1;
    }
    PrintStats(*stats);
    return 0;
  }

  // load
  if (graph.empty() || !cl->Has("path")) {
    std::fprintf(stderr, "--op load needs --graph NAME --path BASE\n");
    return 2;
  }
  status = client.LoadGraph(graph, cl->GetString("path"));
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("loaded %s\n", graph.c_str());
  return 0;
}
