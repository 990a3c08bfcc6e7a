// Self-tests of the benchmark's own arithmetic. perfbench/run.py runs this
// binary before every benchmark run and refuses to measure if it fails.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void Check(bool condition, const char* what) {
  if (!condition) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

void PercentileRule() {
  std::vector<double> samples;
  for (int i = 1; i <= 100; ++i) samples.push_back(i);
  Check(perfbench::Percentile(samples, 50) == 50.0, "p50 of 1..100 is 50");
  Check(perfbench::Percentile(samples, 90) == 90.0, "p90 of 1..100 is 90");
  Check(perfbench::Percentile({7.0}, 90) == 7.0, "p90 of one sample");
  Check(perfbench::Percentile({}, 50) == 0.0, "empty percentile is 0");
  Check(perfbench::SamplesBeyond(100, 90) == 10, "100 samples: 10 beyond p90");
  Check(perfbench::TailSupported(100, 90), "p90 reportable at n=100");
  Check(!perfbench::TailSupported(99, 90), "p90 not reportable at n=99");
  Check(!perfbench::TailSupported(50, 90), "p90 not reportable at n=50");
  Check(perfbench::TailSupported(1000, 99), "p99 reportable at n=1000");
  Check(!perfbench::TailSupported(999, 99), "p99 not reportable at n=999");
}

void PermutationDealsEveryProgram() {
  const auto p = perfbench::Permutation(3, 6);
  std::vector<size_t> sorted = p;
  std::sort(sorted.begin(), sorted.end());
  Check(sorted == std::vector<size_t>({0, 1, 2, 3, 4, 5}),
        "a permutation holds every index once");
  Check(p == perfbench::Permutation(3, 6), "same seed, same permutation");
  bool any_differs = false;
  for (uint64_t seed = 4; seed < 10; ++seed) {
    any_differs = any_differs || perfbench::Permutation(seed, 6) != p;
  }
  Check(any_differs, "seeds change the order");
}

void ChannelResidual() {
  Check(perfbench::ChannelResidualNs(100, {10, 20, 30}) == 40,
        "residual is upload-to-verdict minus the stage walls");
  Check(perfbench::ChannelResidualNs(50, {30, 30}) == -10,
        "residual may go negative across clocks");
  Check(perfbench::ChannelResidualNs(50, {}) == 50, "no stages, all residual");
}

void ForkedStreams() {
  const auto first = [](uint64_t seed, uint64_t label) {
    return perfbench::ForkRng(seed, label).NextU64();
  };
  Check(first(5, 1) == first(5, 1), "same seed and label, same stream");
  Check(first(5, 1) != first(5, 2), "forks with different labels differ");
  Check(first(5, 1) != first(6, 1), "forks of different seeds differ");
}

}  // namespace

int main() {
  PercentileRule();
  PermutationDealsEveryProgram();
  ChannelResidual();
  ForkedStreams();
  if (failures > 0) {
    std::fprintf(stderr, "perfbench_selftest: %d check(s) failed\n", failures);
    return 1;
  }
  std::fprintf(stderr, "perfbench_selftest: all checks passed\n");
  return 0;
}
