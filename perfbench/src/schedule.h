// Open-loop arrival schedule for the serve-mix workload: Poisson
// arrivals at a fixed rate, each tagged with an operation drawn from the
// mix. The schedule is a pure function of its inputs and the seed, so
// two runs with the same seed send the same requests at the same
// offsets, whatever the server does.
#ifndef PERFBENCH_SCHEDULE_H_
#define PERFBENCH_SCHEDULE_H_

#include <cstdint>
#include <vector>

namespace perfbench {

enum class Op : uint8_t { kCountStatic, kCountLive, kList, kMutate };

const char* OpName(Op op);

struct Arrival {
  double due_s = 0;  // offset from the start of the timed phase
  Op op = Op::kCountStatic;
};

struct MixSpec {
  double rate_per_s = 0;
  /// Shares of the three operation kinds; they are normalized. COUNTs
  /// split evenly between the static and the live graph.
  double count_share = 0.6;
  double list_share = 0.1;
  double mutate_share = 0.3;
};

std::vector<Arrival> MakeSchedule(const MixSpec& mix, double seconds,
                                  uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_SCHEDULE_H_
