// Replay probes for the traced run: each times one layer's public function
// from outside, on a session's own inputs, on a scratch device so the
// server's EPC budget never sees them. They run after the measured interval.
#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <vector>

#include "common/status.h"
#include "crypto/sha256.h"
#include "inputs.h"
#include "sgx/attestation.h"

namespace perfbench {

// Medians over the probed sessions.
struct ProbeResults {
  double rsa_keygen_ms = 0;        // crypto::RsaGenerateKey at the serve size
  double rsa_unwrap_ms = 0;        // EngardeEnclave::UnwrapMasterKey
  double channel_open_mb_s = 0;    // SecureChannel::Receive over the upload
  double channel_seal_mb_s = 0;    // SecureChannel::Send over the upload
  double enclave_create_ms = 0;    // EngardeEnclave::Create
  double destroy_ms = 0;           // HostOs::DestroyEnclave after a session
  double committed_pages = 0;      // EPC pages a provisioned session holds
};

engarde::Result<ProbeResults> RunProbes(
    const WorkloadInputs& inputs, const std::vector<SessionInput>& sessions,
    const engarde::sgx::QuotingEnclave& qe,
    const engarde::crypto::Sha256Digest& measurement,
    size_t inspection_threads);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
