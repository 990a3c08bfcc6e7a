#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {
namespace {

size_t NearestRankIndex(size_t n, double p) {
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return std::min(index, n - 1);
}

}  // namespace

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  const size_t index = NearestRankIndex(samples.size(), p);
  std::nth_element(samples.begin(), samples.begin() + index, samples.end());
  return samples[index];
}

size_t SamplesBeyond(size_t n, double p) {
  if (n == 0) return 0;
  return n - 1 - NearestRankIndex(n, p);
}

bool TailSupported(size_t n, double p) {
  return SamplesBeyond(n, p) >= kMinTailSamples;
}

engarde::Rng ForkRng(uint64_t seed, uint64_t label) noexcept {
  return engarde::Rng(seed ^ (label * 0xd1b54a32d192ed03ull));
}

std::vector<size_t> Permutation(uint64_t seed, size_t n) {
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  engarde::Rng rng(seed);
  for (size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.NextBelow(i)]);
  }
  return order;
}

int64_t ChannelResidualNs(uint64_t upload_to_verdict_ns,
                          const std::vector<uint64_t>& stage_wall_ns) {
  int64_t residual = static_cast<int64_t>(upload_to_verdict_ns);
  for (const uint64_t wall : stage_wall_ns) {
    residual -= static_cast<int64_t>(wall);
  }
  return residual;
}

}  // namespace perfbench
