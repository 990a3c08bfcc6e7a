// The benchmark's own arithmetic, kept free of server types so the
// self-tests (tests/stats_test.cc) pin it without building a server:
// percentiles and the tail-sample rule, the seeded input streams, and the
// channel residual.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace perfbench {

// Samples a tail percentile needs beyond it before it is reported.
inline constexpr size_t kMinTailSamples = 10;

// Nearest-rank percentile (p in (0, 100]) of unsorted samples: the value at
// sorted position ceil(p/100 * n) - 1. 0 for an empty sample set.
double Percentile(std::vector<double> samples, double p);

// Samples strictly beyond the nearest-rank p-th percentile of n samples.
size_t SamplesBeyond(size_t n, double p);

// True when n samples leave at least kMinTailSamples beyond the p-th
// percentile, so that percentile may be reported.
bool TailSupported(size_t n, double p);

// Everything a run feeds the program (program choice, mutations, client
// entropy) comes from streams seeded by --seed, so the same seed always
// yields the same inputs. Each kind of choice draws from its own labelled
// stream, so adding one never shifts another.
engarde::Rng ForkRng(uint64_t seed, uint64_t label) noexcept;
// A seeded permutation of 0..n-1 (Fisher-Yates). Workloads deal programs in
// blocks of n sessions, one permutation per block, so every program is
// uploaded equally often whatever the seed.
std::vector<size_t> Permutation(uint64_t seed, size_t n);

// Upload-to-verdict time no StageReport accounts for: key unwrap, record
// decrypt + MAC, staging and the verdict flush. Signed, because stage wall
// clocks and the client's clock are read on different threads.
int64_t ChannelResidualNs(uint64_t upload_to_verdict_ns,
                          const std::vector<uint64_t>& stage_wall_ns);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
