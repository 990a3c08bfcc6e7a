// Workload inputs: the programs each session uploads, what its verdict must
// be, and the serial reference every live session's SGX counts must match.
//
// Every input derives from --seed. A workload owns a handful of base
// programs; a session uploads a base (or a variant of it that changes one
// immediate in each of a few functions, see workload/mutate.h) chosen by a
// per-session fork of the seed, so the i-th session's bytes depend only on
// (seed, i), never on timing. No two variants in a run are alike.
//
// A Shape is one class of uploads whose per-phase SGX counts are identical:
// a base program, or a base with one specific library function mutated.
// Application-function mutations flip an immediate and keep the shape.
#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "core/engarde.h"
#include "core/library_db.h"
#include "core/policy.h"
#include "core/protocol.h"
#include "sgx/attestation.h"
#include "sgx/cost_model.h"

namespace perfbench {

enum class Workload { kNginxCold, kReuploadCached };

engarde::Result<Workload> ParseWorkload(std::string_view name);
std::string_view WorkloadName(Workload workload);

// Per-enclave options engarde-serve uses by default (RSA 768, streaming
// inspection on, a 128-page heap and 32 load pages), with the heap and load
// regions raised where the workload's largest program needs more.
engarde::core::EngardeOptions ServeEnclaveOptions(Workload workload);

// The verdict fixed when the input was generated.
struct Expectation {
  bool compliant = true;
  std::string stage;  // Rejection::stage, set iff !compliant
  std::string rule;   // Rejection::rule, set iff !compliant
};

// True when `verdict` is the one `expect` fixed: the compliance bit, plus
// Rejection{stage, rule} for a violator.
bool VerdictMatches(const Expectation& expect,
                    const engarde::core::Verdict& verdict);

// Exact per-phase SGX-instruction counts of one session (paper Figs. 3-5).
struct SgxCounts {
  uint64_t idle = 0, channel = 0, disassembly = 0, policy_check = 0;
  uint64_t loading = 0, total = 0;
  bool operator==(const SgxCounts&) const = default;
};
SgxCounts CountsOf(const engarde::sgx::CycleAccountant& accountant);

struct Shape {
  std::string label;
  size_t base = 0;  // index into the workload's base programs
  Expectation expect;
  engarde::Bytes image;  // representative upload of this shape
  // Filled by ComputeReferences from a serial ProvisioningServer::Drive.
  SgxCounts reference;
};

struct SessionInput {
  size_t index = 0;
  size_t shape = 0;
  bool fresh_variant = false;  // mutated for this session (not a re-upload)
  engarde::Bytes image;
  engarde::Bytes client_entropy;
};

class WorkloadInputs {
 public:
  // Builds the base programs and shapes for `workload` from `seed`.
  static engarde::Result<WorkloadInputs> Generate(Workload workload,
                                                  uint64_t seed);

  Workload workload() const { return workload_; }
  // The mutually agreed policy set (one fresh set per call).
  engarde::core::PolicySet Policies() const;
  std::function<engarde::core::PolicySet()> PolicyFactory() const;

  // The index-th session's upload; depends only on (seed, index).
  SessionInput Session(size_t index) const;
  // Base program `base`, unmutated: the uploads that seed the verdict cache.
  size_t base_count() const { return compliant_shape_.size(); }
  SessionInput BaseSession(size_t base) const;

  const std::vector<Shape>& shapes() const { return shapes_; }

  // Drives one upload of every shape through a serial
  // ProvisioningServer::Drive and records its SGX counts. Fails if a
  // reference verdict contradicts the shape's expectation.
  engarde::Status ComputeReferences(const engarde::sgx::QuotingEnclave& qe,
                                    const engarde::crypto::Sha256Digest&
                                        measurement,
                                    size_t inspection_threads);

 private:
  Workload workload_ = Workload::kNginxCold;
  uint64_t seed_ = 0;
  // Per base program: file offsets of one safely mutable immediate byte per
  // application function. XOR-ing any subset yields a compliant variant.
  std::vector<std::vector<size_t>> app_flips_;
  std::vector<Shape> shapes_;
  // Shapes a session of each kind may take, per base.
  std::vector<size_t> compliant_shape_;  // by base
  std::vector<size_t> violator_shapes_;  // nginx: libc mutations
  std::shared_ptr<const engarde::core::LibraryHashDb> libc_db_;
};

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
