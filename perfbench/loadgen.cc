#include "loadgen.h"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <memory>
#include <optional>

#include "net/tcp.h"
#include "net/transport.h"
#include "trace.h"

namespace perfbench {

using namespace engarde;

namespace {

// A session still shed after this many admission attempts has failed (the
// same cap tools/engarde-serve's selftest clients use).
constexpr size_t kMaxAdmissionAttempts = 200;
// Longest the generator sleeps in poll(2) with nothing ready.
constexpr uint64_t kMaxPollNs = 10'000'000;

enum class Phase { kAwaitControl, kAwaitHello, kUploading, kAwaitVerdict,
                   kBackoff };

struct Active {
  SessionRecord record;
  SessionInput input;
  Phase phase = Phase::kAwaitControl;
  std::unique_ptr<net::TcpTransport> socket;
  std::unique_ptr<crypto::DuplexPipe> pipe;
  std::unique_ptr<client::Client> client;
  bool flushed = true;       // the socket holds no unsent backlog
  uint64_t retry_at_ns = 0;  // kBackoff: when to reconnect
  int64_t root_span = -1;
};

// Moves bytes both ways between the socket and the client's side of the
// bridge pipe (the shape of engarde-serve's selftest shuttle). Sets
// `flushed` when nothing outbound is left in the pipe or the socket.
Result<bool> Shuttle(Active& session) {
  bool moved = false;
  Bytes inbound;
  ASSIGN_OR_RETURN(const size_t drained, session.socket->Drain(inbound));
  crypto::DuplexPipe::Endpoint bridge = session.pipe->EndA();
  if (drained > 0) {
    bridge.Write(ByteView(inbound));
    moved = true;
  }
  const size_t pending = bridge.Available();
  if (pending > 0) {
    ASSIGN_OR_RETURN(const Bytes outbound, bridge.Read(pending));
    RETURN_IF_ERROR(session.socket->Send(ByteView(outbound)));
    moved = true;
  }
  ASSIGN_OR_RETURN(session.flushed, session.socket->Flush());
  return moved;
}

// The port the server sees this client connect from: the key that pairs a
// server verdict with its client session.
Result<uint16_t> LocalPort(const net::TcpTransport& socket) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(socket.descriptor(), reinterpret_cast<sockaddr*>(&addr),
                    &len) != 0) {
    return InternalError("getsockname failed");
  }
  return ntohs(addr.sin_port);
}

}  // namespace

Result<std::vector<SessionRecord>> LoadGenerator::Run(
    const LoadPlan& plan, const SessionSource& source, uint64_t t0_ns) {
  std::vector<SessionRecord> done;
  std::vector<std::unique_ptr<Active>> active;
  size_t next_index = 0;

  // Connects, or reconnects after a shed.
  const auto connect = [&](Active& session) -> Status {
    const uint64_t begin = NowNs();
    ASSIGN_OR_RETURN(session.socket,
                     net::TcpTransport::Connect("127.0.0.1", port_));
    session.record.connect_ns = NowNs();
    ASSIGN_OR_RETURN(session.record.local_port, LocalPort(*session.socket));
    trace_->Add("connect", begin, session.record.connect_ns, session.root_span,
              session.record.index);
    session.pipe = std::make_unique<crypto::DuplexPipe>();
    client::ClientOptions options = client_options_;
    options.entropy = session.input.client_entropy;
    session.client =
        std::make_unique<client::Client>(options, session.input.image);
    session.phase = Phase::kAwaitControl;
    session.flushed = true;
    return Status::Ok();
  };

  const auto start = [&](size_t index) -> Status {
    auto session = std::make_unique<Active>();
    session->input = source(index);
    session->record.index = index;
    session->record.shape = session->input.shape;
    session->record.fresh_variant = session->input.fresh_variant;
    session->record.start_ns = NowNs();
    session->root_span = trace_->Add("session", session->record.start_ns, 0, -1,
                                   index);
    RETURN_IF_ERROR(connect(*session));
    active.push_back(std::move(session));
    return Status::Ok();
  };

  const auto finish = [&](Active& session, std::string error) {
    session.record.error = std::move(error);
    if (session.socket != nullptr) session.socket->Close();
    if (session.root_span >= 0) {
      trace_->SetEnd(session.root_span, session.record.verdicted
                                            ? session.record.verdict_ns
                                            : NowNs());
    }
    done.push_back(std::move(session.record));
  };

  // Advances one session as far as its queued bytes allow. Returns whether
  // anything moved; a hard error ends the session without a verdict.
  const auto step = [&](Active& session, uint64_t now) -> Result<bool> {
    if (session.phase == Phase::kBackoff) {
      if (now < session.retry_at_ns) return false;
      RETURN_IF_ERROR(connect(session));
      return true;
    }
    ASSIGN_OR_RETURN(bool progress, Shuttle(session));
    crypto::DuplexPipe::Endpoint client_end = session.pipe->EndB();
    SessionRecord& record = session.record;
    const uint64_t index = record.index;
    switch (session.phase) {
      case Phase::kAwaitControl: {
        if (!net::HasCompleteFrames(client_end, 1)) break;
        ASSIGN_OR_RETURN(const std::optional<core::RetryAfter> retry,
                         session.client->AwaitAdmission(client_end));
        record.admitted_ns = NowNs();
        trace_->Add(retry.has_value() ? "admission_shed" : "admission",
                  record.connect_ns, record.admitted_ns, session.root_span,
                  index);
        if (retry.has_value()) {
          ++record.sheds;
          session.socket->Close();
          if (record.sheds >= kMaxAdmissionAttempts) {
            return ResourceExhaustedError("still shed after the retry cap");
          }
          session.phase = Phase::kBackoff;
          session.retry_at_ns =
              record.admitted_ns +
              client::RetryBackoffMs(*retry, record.sheds) * 1'000'000;
          return true;
        }
        session.phase = Phase::kAwaitHello;
        progress = true;
        [[fallthrough]];
      }
      case Phase::kAwaitHello: {
        if (!net::HasCompleteFrames(client_end, 2)) break;  // quote + key
        record.hello_ns = NowNs();
        trace_->Add("hello", record.admitted_ns, record.hello_ns,
                  session.root_span, index);
        RETURN_IF_ERROR(session.client->SendProgram(client_end));
        record.send_end_ns = NowNs();
        trace_->Add("send_program", record.hello_ns, record.send_end_ns,
                  session.root_span, index);
        session.phase = Phase::kUploading;
        ASSIGN_OR_RETURN(const bool moved, Shuttle(session));
        (void)moved;
        progress = true;
        [[fallthrough]];
      }
      case Phase::kUploading: {
        if (!session.flushed || session.pipe->EndA().Available() > 0) break;
        record.flushed_ns = NowNs();
        trace_->Add("flush", record.send_end_ns, record.flushed_ns,
                  session.root_span, index);
        session.phase = Phase::kAwaitVerdict;
        progress = true;
        [[fallthrough]];
      }
      case Phase::kAwaitVerdict: {
        if (!net::HasCompleteSecureRecord(client_end)) break;
        ASSIGN_OR_RETURN(record.verdict, session.client->AwaitVerdict());
        record.verdict_ns = NowNs();
        record.verdicted = true;
        record.verdict_span =
            trace_->Add("verdict", record.flushed_ns, record.verdict_ns,
                      session.root_span, index);
        return true;
      }
      case Phase::kBackoff:
        break;
    }
    if (!progress && session.socket->AtEof() &&
        session.pipe->EndB().Available() == 0) {
      return ProtocolError("server closed before the verdict");
    }
    return progress;
  };

  const uint64_t measure_end = t0_ns + plan.measure_ns;
  const uint64_t give_up = t0_ns + plan.give_up_ns;
  const auto may_start = [&](uint64_t now) {
    if (plan.max_sessions > 0) return next_index < plan.max_sessions;
    if (now >= give_up) return false;
    return now < measure_end || next_index < plan.min_sessions;
  };

  for (;;) {
    while (active.size() < plan.clients && may_start(NowNs())) {
      RETURN_IF_ERROR(start(next_index++));
    }
    if (active.empty() && !may_start(NowNs())) break;

    bool progress = false;
    for (size_t i = 0; i < active.size();) {
      Active& session = *active[i];
      Result<bool> stepped = step(session, NowNs());
      if (stepped.ok() && !session.record.verdicted) {
        progress = progress || *stepped;
        ++i;
        continue;
      }
      progress = true;
      finish(session, stepped.ok() ? "" : stepped.status().ToString());
      active.erase(active.begin() + static_cast<std::ptrdiff_t>(i));
    }
    if (progress) continue;

    // Nothing moved: sleep until a socket is ready or a backoff ends.
    const uint64_t now = NowNs();
    uint64_t wake = now + kMaxPollNs;
    std::vector<pollfd> fds;
    for (const auto& session : active) {
      if (session->phase == Phase::kBackoff) {
        wake = std::min(wake, session->retry_at_ns);
        continue;
      }
      const short events =
          static_cast<short>(POLLIN | (session->flushed ? 0 : POLLOUT));
      fds.push_back(pollfd{session->socket->descriptor(), events, 0});
    }
    if (wake <= now) continue;
    const uint64_t wait_ns = wake - now;
    const timespec timeout{static_cast<time_t>(wait_ns / 1'000'000'000),
                           static_cast<long>(wait_ns % 1'000'000'000)};
    (void)::ppoll(fds.data(), fds.size(), &timeout, nullptr);
  }
  std::sort(done.begin(), done.end(),
            [](const SessionRecord& a, const SessionRecord& b) {
              return a.index < b.index;
            });
  return done;
}

}  // namespace perfbench
