// The load generator: one thread driving up to `clients` concurrent client
// sessions over loopback TCP through the public client::Client API, the way
// tools/engarde-serve's selftest clients do, but multiplexed with poll(2) so
// one thread can keep several exchanges in flight.
//
// Closed loop: each client slot runs sessions back to back; a session starts
// at connect.
#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "client/client.h"
#include "common/status.h"
#include "core/protocol.h"
#include "inputs.h"
#include "trace.h"

namespace perfbench {

struct LoadPlan {
  size_t clients = 1;        // sessions in flight at most
  uint64_t measure_ns = 0;   // start sessions this long
  size_t min_sessions = 0;   // ...and at least this many in total
  size_t max_sessions = 0;   // exactly this many when > 0 (no time bound)
  uint64_t give_up_ns = 0;   // never start a session after this long
};

struct SessionRecord {
  size_t index = 0;
  size_t shape = 0;
  bool fresh_variant = false;
  // Absolute NowNs() stamps.
  uint64_t start_ns = 0;      // the generator began the first connect
  uint64_t connect_ns = 0;    // connect returned (last attempt)
  uint16_t local_port = 0;    // the client socket's port (last attempt)
  uint64_t admitted_ns = 0;   // admission control frame read
  uint64_t hello_ns = 0;      // quote + key frames queued at the client
  uint64_t send_end_ns = 0;   // Client::SendProgram returned
  uint64_t flushed_ns = 0;    // every upload byte handed to the socket
  uint64_t verdict_ns = 0;    // verdict decrypted
  size_t sheds = 0;
  bool verdicted = false;
  std::string error;  // why there is no verdict
  engarde::core::Verdict verdict;
  int64_t verdict_span = -1;  // trace index, for attaching stage spans
};

using SessionSource = std::function<SessionInput(size_t index)>;

class LoadGenerator {
 public:
  LoadGenerator(uint16_t port, engarde::client::ClientOptions client_options,
                TraceStore* trace)
      : port_(port), client_options_(std::move(client_options)),
        trace_(trace) {}

  // Runs sessions 0, 1, ... from `source` under `plan`, starting the clock
  // at `t0_ns`, and returns a record for every session started (in index
  // order) once the last one has finished.
  engarde::Result<std::vector<SessionRecord>> Run(const LoadPlan& plan,
                                                  const SessionSource& source,
                                                  uint64_t t0_ns);

 private:
  uint16_t port_;
  engarde::client::ClientOptions client_options_;
  TraceStore* trace_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
