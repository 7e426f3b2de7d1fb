#include "schedule.h"

#include <cmath>
#include <random>

namespace perfbench {
namespace {

// Uniform in [0, 1) from the top 53 bits; std::uniform_real_distribution
// is implementation-defined, this is not.
double Uniform(std::mt19937_64& rng) {
  return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

}  // namespace

const char* OpName(Op op) {
  switch (op) {
    case Op::kCountStatic:
      return "count_static";
    case Op::kCountLive:
      return "count_live";
    case Op::kList:
      return "list";
    case Op::kMutate:
      return "mutate";
  }
  return "?";
}

std::vector<Arrival> MakeSchedule(const MixSpec& mix, double seconds,
                                  uint64_t seed) {
  std::vector<Arrival> out;
  const double total = mix.count_share + mix.list_share + mix.mutate_share;
  if (mix.rate_per_s <= 0 || total <= 0) return out;
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 0x5EED);
  double t = 0;
  while (true) {
    t += -std::log(1.0 - Uniform(rng)) / mix.rate_per_s;
    if (t >= seconds) break;
    const double pick = Uniform(rng) * total;
    Arrival a;
    a.due_s = t;
    if (pick < mix.count_share) {
      a.op = pick < mix.count_share / 2 ? Op::kCountStatic : Op::kCountLive;
    } else if (pick < mix.count_share + mix.list_share) {
      a.op = Op::kList;
    } else {
      a.op = Op::kMutate;
    }
    out.push_back(a);
  }
  return out;
}

}  // namespace perfbench
