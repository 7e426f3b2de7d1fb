// OptClient: blocking client for the opt_server wire protocol. One
// connection per client; not thread safe — concurrent callers use one
// client each (connections are cheap, the server is thread-per-conn).
#ifndef OPT_SERVICE_CLIENT_H_
#define OPT_SERVICE_CLIENT_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "service/wire.h"
#include "util/status.h"

namespace opt {

struct ClientQueryOptions {
  uint32_t memory_pages = 0;    // 0 = server default
  uint32_t num_threads = 0;     // 0 = server default
  uint64_t deadline_millis = 0; // 0 = none
};

class OptClient {
 public:
  OptClient() = default;
  ~OptClient();

  OptClient(const OptClient&) = delete;
  OptClient& operator=(const OptClient&) = delete;
  OptClient(OptClient&& other) noexcept;
  OptClient& operator=(OptClient&& other) noexcept;

  Status ConnectTcp(const std::string& host, uint16_t port);
  Status ConnectUnix(const std::string& path);
  void Close();
  bool connected() const { return fd_ >= 0; }

  /// Bounds every subsequent socket read (SO_RCVTIMEO); a reply that
  /// stalls longer surfaces as IOError instead of hanging the caller
  /// forever. 0 restores blocking reads. The router uses this so a
  /// wedged shard cannot pin a fan-out worker.
  Status SetRecvTimeoutMillis(uint64_t millis);

  /// COUNT: server-side errors come back as their original Status code.
  Result<CountResult> Count(const std::string& graph,
                            const ClientQueryOptions& options = {});

  /// PROFILE: COUNT with the overlap profiler on — answer plus overlap
  /// fractions, role histogram, and the fitted cost model.
  Result<ProfileResult> Profile(const std::string& graph,
                                const ClientQueryOptions& options = {});

  /// LIST: `on_batch` is invoked for each streamed batch on the calling
  /// thread; returns the trailer (total count + seconds) on success.
  Result<ListEnd> List(
      const std::string& graph,
      const std::function<void(const ListBatch&)>& on_batch,
      const ClientQueryOptions& options = {});

  /// STATS: just the newline-separated key=value text of StatsFull().
  Result<std::string> Stats();

  /// STATS with the structured registry fields: histogram quantiles and
  /// counters.
  Result<StatsResult> StatsFull();

  Status LoadGraph(const std::string& name, const std::string& base_path);

  /// ADD_EDGES: applies one batch of undirected edges atomically.
  /// Rejections (self-loop, duplicate, already-present edge, id out of
  /// range) come back as InvalidArgument with nothing applied;
  /// Unavailable means the server could not read base adjacency and the
  /// same batch is safe to retry verbatim.
  Result<MutateResult> AddEdges(
      const std::string& graph,
      const std::vector<std::pair<VertexId, VertexId>>& edges);

  /// REMOVE_EDGES: same contract; every edge must be present.
  Result<MutateResult> RemoveEdges(
      const std::string& graph,
      const std::vector<std::pair<VertexId, VertexId>>& edges);

  /// SUBSCRIBE_COUNT: long-poll until the graph's epoch exceeds
  /// `after_epoch` (pass 0 for the current state immediately) or
  /// `timeout_millis` elapses. Blocks the connection for the duration.
  Result<SubscribeCountResult> SubscribeCount(const std::string& graph,
                                              uint64_t after_epoch,
                                              uint64_t timeout_millis);

  /// SHARD_STATS: per-shard breakdown from a router. A plain opt_server
  /// answers NotSupported.
  Result<ShardStatsResult> ShardStats();

  /// TRACE_PULL: drains (or, with drain=false, peeks) the peer's
  /// bounded span ring. Against a router the reply carries the router's
  /// section plus one per shard, ready for AssembleTrace().
  Result<TracePullResult> TracePull(bool drain = true);

  /// Flight-recorder tail from the most recent server ERROR reply on
  /// this client (degraded queries ship their event log with the
  /// error). Cleared at the start of every request; empty when the last
  /// error carried no events or the last request succeeded.
  const std::vector<FlightEvent>& last_error_events() const {
    return last_error_events_;
  }

  /// Trace id carried by the most recent server ERROR reply (0 when the
  /// request was untraced).
  uint64_t last_error_trace_id() const { return last_error_trace_id_; }

 private:
  Status SendRequest(MessageType type, std::string_view payload);
  Status ReadReply(WireMessage* message);
  /// Decodes an ERROR frame, stashing its events for
  /// last_error_events().
  Status ErrorFromReply(const WireMessage& message);

  int fd_ = -1;
  std::vector<FlightEvent> last_error_events_;
  uint64_t last_error_trace_id_ = 0;
};

}  // namespace opt

#endif  // OPT_SERVICE_CLIENT_H_
