#include "probes.h"

#include <algorithm>

#include "client/client.h"
#include "core/engarde.h"
#include "core/protocol.h"
#include "crypto/channel.h"
#include "crypto/drbg.h"
#include "crypto/rsa.h"
#include "sgx/device.h"
#include "sgx/hostos.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {

using namespace engarde;

namespace {

// Each channel probe repeats over the upload until it has run this long.
constexpr uint64_t kChannelProbeNs = 20'000'000;

double Ms(uint64_t ns) { return static_cast<double>(ns) / 1e6; }

// MB/s of Send (seal) and Receive (open) over `image` in page-sized records.
Status ProbeChannel(const Bytes& image, ByteView master_key, double* seal,
                    double* open) {
  const crypto::SessionKeys keys = crypto::SessionKeys::Derive(master_key);
  uint64_t seal_ns = 0, open_ns = 0, bytes = 0;
  while (seal_ns < kChannelProbeNs || open_ns < kChannelProbeNs) {
    crypto::DuplexPipe pipe;
    crypto::SecureChannel sender(pipe.EndB(), keys, /*is_enclave_side=*/false);
    crypto::SecureChannel receiver(pipe.EndA(), keys, /*is_enclave_side=*/true);
    uint64_t begin = NowNs();
    for (size_t offset = 0; offset < image.size(); offset += core::kBlockSize) {
      const size_t take = std::min(core::kBlockSize, image.size() - offset);
      RETURN_IF_ERROR(sender.Send(ByteView(image.data() + offset, take)));
    }
    seal_ns += NowNs() - begin;
    begin = NowNs();
    for (size_t offset = 0; offset < image.size(); offset += core::kBlockSize) {
      RETURN_IF_ERROR(receiver.Receive().status());
    }
    open_ns += NowNs() - begin;
    bytes += image.size();
  }
  *seal = static_cast<double>(bytes) / (static_cast<double>(seal_ns) / 1e9) / 1e6;
  *open = static_cast<double>(bytes) / (static_cast<double>(open_ns) / 1e9) / 1e6;
  return Status::Ok();
}

}  // namespace

Result<ProbeResults> RunProbes(const WorkloadInputs& inputs,
                               const std::vector<SessionInput>& sessions,
                               const sgx::QuotingEnclave& qe,
                               const crypto::Sha256Digest& measurement,
                               size_t inspection_threads) {
  std::vector<double> keygen, unwrap, open, seal, create, destroy, pages;
  sgx::SgxDevice device(sgx::SgxDevice::Options{});
  sgx::HostOs host(&device);
  core::EngardeOptions options = ServeEnclaveOptions(inputs.workload());
  options.inspection_threads = inspection_threads;

  for (const SessionInput& session : sessions) {
    crypto::HmacDrbg drbg(
        ByteView(session.client_entropy.data(), session.client_entropy.size()));
    uint64_t begin = NowNs();
    RETURN_IF_ERROR(
        crypto::RsaGenerateKey(options.rsa_bits, drbg).status());
    keygen.push_back(Ms(NowNs() - begin));

    const size_t pages_before = device.epc().pages_in_use();
    begin = NowNs();
    ASSIGN_OR_RETURN(core::EngardeEnclave enclave,
                     core::EngardeEnclave::Create(&host, qe, inputs.Policies(),
                                                  options));
    create.push_back(Ms(NowNs() - begin));

    const Bytes master_key = drbg.Generate(32);
    ASSIGN_OR_RETURN(const Bytes wrapped,
                     crypto::RsaEncrypt(enclave.public_key(),
                                        ByteView(master_key.data(),
                                                 master_key.size()),
                                        drbg));
    begin = NowNs();
    RETURN_IF_ERROR(
        enclave.UnwrapMasterKey(ByteView(wrapped.data(), wrapped.size()))
            .status());
    unwrap.push_back(Ms(NowNs() - begin));

    double seal_mb_s = 0, open_mb_s = 0;
    RETURN_IF_ERROR(ProbeChannel(
        session.image, ByteView(master_key.data(), master_key.size()),
        &seal_mb_s, &open_mb_s));
    seal.push_back(seal_mb_s);
    open.push_back(open_mb_s);

    // A whole session on the probe enclave, so teardown sees the pages a
    // provisioned session really holds.
    crypto::DuplexPipe pipe;
    RETURN_IF_ERROR(enclave.SendHello(pipe.EndA()));
    client::ClientOptions client_options;
    client_options.attestation_key = qe.attestation_public_key();
    client_options.expected_measurement = measurement;
    client_options.entropy = session.client_entropy;
    client::Client client(client_options, session.image);
    RETURN_IF_ERROR(client.SendProgram(pipe.EndB()));
    RETURN_IF_ERROR(enclave.RunProvisioning(pipe.EndA()).status());
    pages.push_back(
        static_cast<double>(device.epc().pages_in_use() - pages_before));

    begin = NowNs();
    RETURN_IF_ERROR(host.DestroyEnclave(enclave.enclave_id()));
    destroy.push_back(Ms(NowNs() - begin));
  }

  ProbeResults results;
  results.rsa_keygen_ms = Percentile(keygen, 50);
  results.rsa_unwrap_ms = Percentile(unwrap, 50);
  results.channel_open_mb_s = Percentile(open, 50);
  results.channel_seal_mb_s = Percentile(seal, 50);
  results.enclave_create_ms = Percentile(create, 50);
  results.destroy_ms = Percentile(destroy, 50);
  results.committed_pages = Percentile(pages, 50);
  return results;
}

}  // namespace perfbench
