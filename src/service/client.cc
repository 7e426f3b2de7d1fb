#include "service/client.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netdb.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <utility>

namespace opt {

namespace {

Status UnexpectedReply(const WireMessage& message) {
  return Status::Corruption("unexpected reply type " +
                            std::to_string(static_cast<int>(message.type)));
}

/// Stamps the caller's ambient trace context onto an outgoing request,
/// so any request issued under a TraceSpan (router fan-out workers,
/// traced tools) links the remote side into the same tree.
template <typename Request>
void AttachTraceContext(Request* request) {
  const TraceContext context = CurrentTraceContext();
  request->trace_id = context.trace_id;
  request->parent_span_id = context.span_id;
}

}  // namespace

OptClient::~OptClient() { Close(); }

OptClient::OptClient(OptClient&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)) {}

OptClient& OptClient::operator=(OptClient&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = std::exchange(other.fd_, -1);
  }
  return *this;
}

Status OptClient::ConnectTcp(const std::string& host, uint16_t port) {
  Close();
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("not an IPv4 address: " + host);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const Status status = Status::IOError(
        "connect " + host + ":" + std::to_string(port) + ": " +
        std::strerror(errno));
    ::close(fd);
    return status;
  }
  fd_ = fd;
  return Status::OK();
}

Status OptClient::ConnectUnix(const std::string& path) {
  Close();
  sockaddr_un addr{};
  if (path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("unix socket path too long: " + path);
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const Status status = Status::IOError(
        "connect " + path + ": " + std::strerror(errno));
    ::close(fd);
    return status;
  }
  fd_ = fd;
  return Status::OK();
}

Status OptClient::SetRecvTimeoutMillis(uint64_t millis) {
  if (fd_ < 0) return Status::InvalidArgument("client not connected");
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(millis / 1000);
  tv.tv_usec = static_cast<suseconds_t>((millis % 1000) * 1000);
  if (::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) != 0) {
    return Status::IOError(std::string("setsockopt(SO_RCVTIMEO): ") +
                           std::strerror(errno));
  }
  return Status::OK();
}

void OptClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status OptClient::SendRequest(MessageType type, std::string_view payload) {
  if (fd_ < 0) return Status::InvalidArgument("client not connected");
  last_error_events_.clear();
  last_error_trace_id_ = 0;
  return WriteMessage(fd_, type, payload);
}

Status OptClient::ErrorFromReply(const WireMessage& message) {
  ErrorResult error;
  const Status decode = DecodeError(message.payload, &error);
  if (!decode.ok()) return decode;
  last_error_events_ = std::move(error.events);
  last_error_trace_id_ = error.trace_id;
  return error.ToStatus();
}

Status OptClient::ReadReply(WireMessage* message) {
  const Status status = ReadMessage(fd_, message);
  if (status.code() == StatusCode::kNotFound) {
    return Status::IOError("server closed the connection");
  }
  return status;
}

Result<CountResult> OptClient::Count(const std::string& graph,
                                     const ClientQueryOptions& options) {
  QueryRequest request;
  request.graph = graph;
  request.memory_pages = options.memory_pages;
  request.num_threads = options.num_threads;
  request.deadline_millis = options.deadline_millis;
  AttachTraceContext(&request);
  OPT_RETURN_IF_ERROR(SendRequest(MessageType::kCountRequest,
                                  EncodeQueryRequest(request)));
  WireMessage reply;
  OPT_RETURN_IF_ERROR(ReadReply(&reply));
  if (reply.type == MessageType::kError) return ErrorFromReply(reply);
  if (reply.type != MessageType::kCountResult) return UnexpectedReply(reply);
  CountResult result;
  OPT_RETURN_IF_ERROR(DecodeCountResult(reply.payload, &result));
  return result;
}

Result<ProfileResult> OptClient::Profile(const std::string& graph,
                                         const ClientQueryOptions& options) {
  QueryRequest request;
  request.graph = graph;
  request.memory_pages = options.memory_pages;
  request.num_threads = options.num_threads;
  request.deadline_millis = options.deadline_millis;
  AttachTraceContext(&request);
  OPT_RETURN_IF_ERROR(SendRequest(MessageType::kProfileRequest,
                                  EncodeQueryRequest(request)));
  WireMessage reply;
  OPT_RETURN_IF_ERROR(ReadReply(&reply));
  if (reply.type == MessageType::kError) return ErrorFromReply(reply);
  if (reply.type != MessageType::kProfileResult) {
    return UnexpectedReply(reply);
  }
  ProfileResult result;
  OPT_RETURN_IF_ERROR(DecodeProfileResult(reply.payload, &result));
  return result;
}

Result<ListEnd> OptClient::List(
    const std::string& graph,
    const std::function<void(const ListBatch&)>& on_batch,
    const ClientQueryOptions& options) {
  QueryRequest request;
  request.graph = graph;
  request.memory_pages = options.memory_pages;
  request.num_threads = options.num_threads;
  request.deadline_millis = options.deadline_millis;
  AttachTraceContext(&request);
  OPT_RETURN_IF_ERROR(SendRequest(MessageType::kListRequest,
                                  EncodeQueryRequest(request)));
  for (;;) {
    WireMessage reply;
    OPT_RETURN_IF_ERROR(ReadReply(&reply));
    switch (reply.type) {
      case MessageType::kListBatch: {
        ListBatch batch;
        OPT_RETURN_IF_ERROR(DecodeListBatch(reply.payload, &batch));
        if (on_batch) on_batch(batch);
        break;
      }
      case MessageType::kListEnd: {
        ListEnd end;
        OPT_RETURN_IF_ERROR(DecodeListEnd(reply.payload, &end));
        return end;
      }
      case MessageType::kError:
        return ErrorFromReply(reply);
      default:
        return UnexpectedReply(reply);
    }
  }
}

Result<std::string> OptClient::Stats() {
  OPT_ASSIGN_OR_RETURN(StatsResult stats, StatsFull());
  return std::move(stats.text);
}

Result<StatsResult> OptClient::StatsFull() {
  OPT_RETURN_IF_ERROR(SendRequest(MessageType::kStatsRequest, {}));
  WireMessage reply;
  OPT_RETURN_IF_ERROR(ReadReply(&reply));
  if (reply.type == MessageType::kError) return ErrorFromReply(reply);
  if (reply.type != MessageType::kStatsResult) return UnexpectedReply(reply);
  StatsResult stats;
  OPT_RETURN_IF_ERROR(DecodeStatsResult(reply.payload, &stats));
  return stats;
}

Result<MutateResult> OptClient::AddEdges(
    const std::string& graph,
    const std::vector<std::pair<VertexId, VertexId>>& edges) {
  MutateRequest request;
  request.graph = graph;
  request.edges = edges;
  AttachTraceContext(&request);
  OPT_RETURN_IF_ERROR(SendRequest(MessageType::kAddEdgesRequest,
                                  EncodeMutateRequest(request)));
  WireMessage reply;
  OPT_RETURN_IF_ERROR(ReadReply(&reply));
  if (reply.type == MessageType::kError) return ErrorFromReply(reply);
  if (reply.type != MessageType::kMutateResult) return UnexpectedReply(reply);
  MutateResult result;
  OPT_RETURN_IF_ERROR(DecodeMutateResult(reply.payload, &result));
  return result;
}

Result<MutateResult> OptClient::RemoveEdges(
    const std::string& graph,
    const std::vector<std::pair<VertexId, VertexId>>& edges) {
  MutateRequest request;
  request.graph = graph;
  request.edges = edges;
  AttachTraceContext(&request);
  OPT_RETURN_IF_ERROR(SendRequest(MessageType::kRemoveEdgesRequest,
                                  EncodeMutateRequest(request)));
  WireMessage reply;
  OPT_RETURN_IF_ERROR(ReadReply(&reply));
  if (reply.type == MessageType::kError) return ErrorFromReply(reply);
  if (reply.type != MessageType::kMutateResult) return UnexpectedReply(reply);
  MutateResult result;
  OPT_RETURN_IF_ERROR(DecodeMutateResult(reply.payload, &result));
  return result;
}

Result<SubscribeCountResult> OptClient::SubscribeCount(
    const std::string& graph, uint64_t after_epoch,
    uint64_t timeout_millis) {
  SubscribeCountRequest request;
  request.graph = graph;
  request.after_epoch = after_epoch;
  request.timeout_millis = timeout_millis;
  AttachTraceContext(&request);
  OPT_RETURN_IF_ERROR(SendRequest(MessageType::kSubscribeCountRequest,
                                  EncodeSubscribeCountRequest(request)));
  WireMessage reply;
  OPT_RETURN_IF_ERROR(ReadReply(&reply));
  if (reply.type == MessageType::kError) return ErrorFromReply(reply);
  if (reply.type != MessageType::kSubscribeCountResult) {
    return UnexpectedReply(reply);
  }
  SubscribeCountResult result;
  OPT_RETURN_IF_ERROR(DecodeSubscribeCountResult(reply.payload, &result));
  return result;
}

Result<TracePullResult> OptClient::TracePull(bool drain) {
  TracePullRequest request;
  request.drain = drain ? 1 : 0;
  OPT_RETURN_IF_ERROR(SendRequest(MessageType::kTracePullRequest,
                                  EncodeTracePullRequest(request)));
  WireMessage reply;
  OPT_RETURN_IF_ERROR(ReadReply(&reply));
  if (reply.type == MessageType::kError) return ErrorFromReply(reply);
  if (reply.type != MessageType::kTracePullResult) {
    return UnexpectedReply(reply);
  }
  TracePullResult result;
  OPT_RETURN_IF_ERROR(DecodeTracePullResult(reply.payload, &result));
  return result;
}

Result<ShardStatsResult> OptClient::ShardStats() {
  OPT_RETURN_IF_ERROR(SendRequest(MessageType::kShardStatsRequest, {}));
  WireMessage reply;
  OPT_RETURN_IF_ERROR(ReadReply(&reply));
  if (reply.type == MessageType::kError) return ErrorFromReply(reply);
  if (reply.type != MessageType::kShardStatsResult) {
    return UnexpectedReply(reply);
  }
  ShardStatsResult stats;
  OPT_RETURN_IF_ERROR(DecodeShardStatsResult(reply.payload, &stats));
  return stats;
}

Status OptClient::LoadGraph(const std::string& name,
                            const std::string& base_path) {
  LoadGraphRequest request;
  request.name = name;
  request.base_path = base_path;
  OPT_RETURN_IF_ERROR(SendRequest(MessageType::kLoadGraphRequest,
                                  EncodeLoadGraphRequest(request)));
  WireMessage reply;
  OPT_RETURN_IF_ERROR(ReadReply(&reply));
  if (reply.type == MessageType::kError) return ErrorFromReply(reply);
  if (reply.type != MessageType::kLoadGraphResult) {
    return UnexpectedReply(reply);
  }
  return Status::OK();
}

}  // namespace opt
