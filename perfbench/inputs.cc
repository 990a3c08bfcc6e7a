#include "inputs.h"

#include <algorithm>
#include <memory>

#include "client/client.h"
#include "core/policy_liblink.h"
#include "core/server.h"
#include "sgx/device.h"
#include "sgx/hostos.h"
#include "stats.h"
#include "workload/catalog.h"
#include "workload/mutate.h"
#include "workload/program_builder.h"

namespace perfbench {

using namespace engarde;

namespace {

// Stream labels for ForkRng, so each kind of choice draws from its own
// stream and adding one never shifts another.
constexpr uint64_t kLabelShapes = 2;
constexpr uint64_t kLabelPhase = 3;
constexpr uint64_t kLabelSession = 0x5e55'0000'0000ull;
constexpr uint64_t kLabelBlock = 0xb10c'0000'0000ull;

// Library functions mutated into nginx-cold's violators (one shape each).
constexpr size_t kNginxLibcShapes = 2;
// Application functions changed per fresh variant.
constexpr size_t kAppFlips = 3;
// The mid-size paper programs reupload-cached cycles through.
constexpr const char* kReuploadPrograms[] = {
    "Memcached", "Netperf", "Graph-500", "Otp-gen", "401.bzip2", "429.mcf"};

// One violator / fresh variant every `period` sessions, at a seeded phase.
constexpr size_t kNginxViolatorPeriod = 8;
constexpr size_t kReuploadFreshPeriod = 4;

// Offsets of the single byte workload::MutateFunctions flips in every
// eligible function: mutate all of them in one pass and diff.
Result<std::vector<size_t>> FlipOffsets(const Bytes& image,
                                        bool library_functions) {
  ASSIGN_OR_RETURN(const size_t eligible,
                   workload::CountMutableFunctions(image, library_functions));
  if (eligible == 0) return std::vector<size_t>{};
  Bytes mutated = image;
  workload::MutationOptions options;
  options.count = eligible;
  options.library_functions = library_functions;
  RETURN_IF_ERROR(workload::MutateFunctions(mutated, options).status());
  std::vector<size_t> offsets;
  for (size_t i = 0; i < image.size(); ++i) {
    if (image[i] != mutated[i]) offsets.push_back(i);
  }
  return offsets;
}

void FlipAt(Bytes& image, size_t offset) { image[offset] ^= 0x5a; }

// XORs index + 1 into the 4-byte immediate a flip offset starts, so that
// every session's variant differs from the base and from every other.
void StampAt(Bytes& image, size_t offset, size_t index) {
  const uint32_t stamp = static_cast<uint32_t>(index + 1);
  for (size_t i = 0; i < 4; ++i) {
    image[offset + i] ^= static_cast<uint8_t>(stamp >> (8 * i));
  }
}

Expectation Rejected(std::string rule) {
  return Expectation{false, "PolicyCheck", std::move(rule)};
}

}  // namespace

bool VerdictMatches(const Expectation& expect, const core::Verdict& verdict) {
  return verdict.compliant == expect.compliant &&
         (verdict.compliant ||
          (verdict.rejection.has_value() &&
           verdict.rejection->stage == expect.stage &&
           verdict.rejection->rule == expect.rule));
}

Result<Workload> ParseWorkload(std::string_view name) {
  if (name == "nginx-cold") return Workload::kNginxCold;
  if (name == "reupload-cached") return Workload::kReuploadCached;
  return InvalidArgumentError("unknown workload '" + std::string(name) + "'");
}

std::string_view WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kNginxCold: return "nginx-cold";
    case Workload::kReuploadCached: return "reupload-cached";
  }
  return "?";
}

core::EngardeOptions ServeEnclaveOptions(Workload workload) {
  core::EngardeOptions options;
  options.rsa_bits = 768;
  // The staging heap must hold the whole upload and the load region the
  // largest program's span: Nginx is 300 pages, Graph-500 117.
  switch (workload) {
    case Workload::kNginxCold:
      options.layout.heap_pages = 320;
      options.layout.load_pages = 320;
      break;
    case Workload::kReuploadCached:
      options.layout.heap_pages = 128;
      options.layout.load_pages = 128;
      break;
  }
  return options;
}

SgxCounts CountsOf(const sgx::CycleAccountant& accountant) {
  SgxCounts counts;
  counts.idle = accountant.phase_cost(sgx::Phase::kIdle).sgx_instructions;
  counts.channel =
      accountant.phase_cost(sgx::Phase::kChannel).sgx_instructions;
  counts.disassembly =
      accountant.phase_cost(sgx::Phase::kDisassembly).sgx_instructions;
  counts.policy_check =
      accountant.phase_cost(sgx::Phase::kPolicyCheck).sgx_instructions;
  counts.loading =
      accountant.phase_cost(sgx::Phase::kLoading).sgx_instructions;
  counts.total = accountant.total_sgx_instructions();
  return counts;
}

Result<WorkloadInputs> WorkloadInputs::Generate(Workload workload,
                                                uint64_t seed) {
  WorkloadInputs inputs;
  inputs.workload_ = workload;
  inputs.seed_ = seed;
  Rng shape_rng = ForkRng(seed, kLabelShapes);

  const auto add_base = [&inputs](const std::string& name,
                                  const Bytes& image) -> Result<size_t> {
    ASSIGN_OR_RETURN(std::vector<size_t> flips,
                     FlipOffsets(image, /*library_functions=*/false));
    if (flips.size() < kAppFlips) {
      return FailedPreconditionError(name + ": too few mutable functions");
    }
    inputs.app_flips_.push_back(std::move(flips));
    return inputs.app_flips_.size() - 1;
  };
  const auto add_shape = [&inputs](std::string label, size_t base,
                                   Expectation expect, Bytes image) {
    Shape shape;
    shape.label = std::move(label);
    shape.base = base;
    shape.expect = std::move(expect);
    shape.image = std::move(image);
    inputs.shapes_.push_back(std::move(shape));
    return inputs.shapes_.size() - 1;
  };

  ASSIGN_OR_RETURN(core::LibraryHashDb db,
                   workload::BuildLibcHashDb(workload::SynthLibcOptions{}));
  inputs.libc_db_ = std::make_shared<const core::LibraryHashDb>(std::move(db));

  switch (workload) {
    case Workload::kNginxCold: {
      ASSIGN_OR_RETURN(workload::BuiltProgram nginx,
                       workload::BuildBenchmark(
                           *workload::FindBenchmark("Nginx"),
                           workload::BuildFlavor::kPlain));
      ASSIGN_OR_RETURN(std::vector<size_t> libc_flips,
                       FlipOffsets(nginx.image, /*library_functions=*/true));
      if (libc_flips.size() < kNginxLibcShapes) {
        return FailedPreconditionError("Nginx: too few library functions");
      }
      ASSIGN_OR_RETURN(const size_t base, add_base("Nginx", nginx.image));
      inputs.compliant_shape_.push_back(
          add_shape("Nginx", base, Expectation{}, nginx.image));
      // Distinct seeded library functions, one violator shape each.
      std::vector<size_t> picked;
      while (picked.size() < kNginxLibcShapes) {
        const size_t offset = libc_flips[shape_rng.NextBelow(libc_flips.size())];
        if (std::find(picked.begin(), picked.end(), offset) != picked.end()) {
          continue;
        }
        picked.push_back(offset);
        Bytes image = nginx.image;
        FlipAt(image, offset);
        inputs.violator_shapes_.push_back(
            add_shape("Nginx+libc@" + std::to_string(offset), base,
                      Rejected("library-linking"), std::move(image)));
      }
      break;
    }
    case Workload::kReuploadCached: {
      for (const char* name : kReuploadPrograms) {
        ASSIGN_OR_RETURN(workload::BuiltProgram program,
                         workload::BuildBenchmark(
                             *workload::FindBenchmark(name),
                             workload::BuildFlavor::kPlain));
        ASSIGN_OR_RETURN(const size_t base, add_base(name, program.image));
        inputs.compliant_shape_.push_back(
            add_shape(name, base, Expectation{}, program.image));
      }
      break;
    }
  }
  return inputs;
}

core::PolicySet WorkloadInputs::Policies() const {
  return PolicyFactory()();
}

std::function<core::PolicySet()> WorkloadInputs::PolicyFactory() const {
  // Copies what the policies need, so the factory outlives this object.
  const std::shared_ptr<const core::LibraryHashDb> db = libc_db_;
  return [db] {
    core::PolicySet policies;
    policies.push_back(std::make_unique<core::LibraryLinkingPolicy>(
        "synth-musl v" + workload::SynthLibcOptions{}.version, *db));
    return policies;
  };
}

SessionInput WorkloadInputs::Session(size_t index) const {
  Rng rng = ForkRng(seed_, kLabelSession + index);
  // Which slot of each period is the odd one out is fixed per seed.
  const uint64_t phase = ForkRng(seed_, kLabelPhase).NextU64();
  const auto every = [index, phase](size_t period) {
    return (index + phase % period) % period == 0;
  };

  // Bases are dealt in blocks: each block of n sessions uploads every one of
  // the n bases once, in a seeded order.
  const size_t n = compliant_shape_.size();
  const size_t base_pick = Permutation(
      ForkRng(seed_, kLabelBlock + index / n).NextU64(), n)[index % n];

  SessionInput session;
  session.index = index;
  switch (workload_) {
    case Workload::kNginxCold:
      session.shape = every(kNginxViolatorPeriod)
                          ? violator_shapes_[rng.NextBelow(violator_shapes_.size())]
                          : compliant_shape_[0];
      session.fresh_variant = true;
      break;
    case Workload::kReuploadCached:
      session.shape = compliant_shape_[base_pick];
      session.fresh_variant = every(kReuploadFreshPeriod);
      break;
  }
  const Shape& shape = shapes_[session.shape];
  session.image = shape.image;
  if (session.fresh_variant) {
    // The base's first application function carries the session's stamp:
    // two variants drawing the same seeded flips would otherwise be one
    // binary, and the second upload a full cache hit.
    const std::vector<size_t>& flips = app_flips_[shape.base];
    StampAt(session.image, flips[0], index);
    std::vector<size_t> chosen = {flips[0]};
    while (chosen.size() < kAppFlips) {
      const size_t offset = flips[1 + rng.NextBelow(flips.size() - 1)];
      if (std::find(chosen.begin(), chosen.end(), offset) != chosen.end()) {
        continue;
      }
      chosen.push_back(offset);
      FlipAt(session.image, offset);
    }
  }
  const uint64_t entropy = rng.NextU64();
  for (int i = 0; i < 8; ++i) {
    session.client_entropy.push_back(static_cast<uint8_t>(entropy >> (8 * i)));
  }
  return session;
}

SessionInput WorkloadInputs::BaseSession(size_t base) const {
  SessionInput session = Session(base);
  session.shape = compliant_shape_[base];
  session.fresh_variant = false;
  session.image = shapes_[session.shape].image;
  return session;
}

Status WorkloadInputs::ComputeReferences(
    const sgx::QuotingEnclave& qe, const crypto::Sha256Digest& measurement,
    size_t inspection_threads) {
  sgx::SgxDevice device(sgx::SgxDevice::Options{});
  sgx::HostOs host(&device);
  core::ProvisioningServer::Options options;
  options.enclave_options = ServeEnclaveOptions(workload_);
  options.inspection_threads = inspection_threads;
  core::ProvisioningServer server(&host, &qe, PolicyFactory(), options);

  for (Shape& shape : shapes_) {
    crypto::DuplexPipe pipe;
    ASSIGN_OR_RETURN(const size_t index, server.Accept(pipe.EndA()));
    client::ClientOptions client_options;
    client_options.attestation_key = qe.attestation_public_key();
    client_options.expected_measurement = measurement;
    client::Client client(client_options, shape.image);
    RETURN_IF_ERROR(client.SendProgram(pipe.EndB()));
    RETURN_IF_ERROR(server.Drive(index).status());
    ASSIGN_OR_RETURN(const core::Verdict verdict, client.AwaitVerdict());
    if (!VerdictMatches(shape.expect, verdict)) {
      return InternalError(
          "reference verdict for " + shape.label + " contradicts its " +
          "expectation: " + (verdict.compliant ? "compliant" : verdict.reason));
    }
    shape.reference = CountsOf(server.session_accountant(index));
    (void)host.DestroyEnclave(server.enclave(index).enclave_id());
  }
  return Status::Ok();
}

}  // namespace perfbench
