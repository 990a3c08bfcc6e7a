// perfbench: the provisioning benchmark. Runs one workload against the
// shipping serve path -- a threaded FrontendGroup with one reactor over
// loopback TCP, no warm pool, streaming inspection on, RSA 768, default EPC,
// an inspection pool of nproc threads -- and drives it from a one-thread
// load generator in the same process (loadgen.h).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-dir DIR] [--work-dir DIR]
//
// Every verdict is checked against the expectation fixed when its input was
// generated, and every session's per-phase SGX counts against a serial
// ProvisioningServer::Drive of the same program shape; after Stop() the
// front end and the device must hold nothing. Any mismatch or leak exits 3
// without a result. The last stdout line is one JSON object:
//   --trace 0: the end-to-end metrics;
//   --trace 1: the per-layer metrics, with spans written to --trace-dir.
#include <malloc.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>

#include <array>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "core/frontend_group.h"
#include "core/inspection.h"
#include "core/verdict_cache.h"
#include "inputs.h"
#include "loadgen.h"
#include "net/tcp.h"
#include "probes.h"
#include "sgx/device.h"
#include "sgx/hostos.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

using namespace engarde;

// A run sets up at least kSetupMinReps times and until kSetupBudgetNs have
// passed, at most kSetupMaxReps times; setup_s is the median. One Nginx
// set-up varies by +-20% within a run, so few reps are not enough.
constexpr size_t kSetupMinReps = 5;
constexpr size_t kSetupMaxReps = 40;
constexpr uint64_t kSetupBudgetNs = 5'000'000'000ull;
// Sessions a run needs so that 10 lie beyond its p90.
constexpr size_t kMinSessions = 100;
// Never start a session this long after the measured interval began.
constexpr uint64_t kGiveUpNs = 120'000'000'000ull;
// Sessions the traced run's replay probes sample.
constexpr size_t kProbeSessions = 4;
constexpr size_t kStages = static_cast<size_t>(core::StageId::kCount);

struct Args {
  Workload workload = Workload::kNginxCold;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_dir = ".";
  std::string work_dir = ".";
};

[[noreturn]] void Fail(int code, const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(code);
}

// A wrong verdict, an SGX-count mismatch or a leak: never a mere failure.
[[noreturn]] void CheckFailed(const std::string& message) {
  Fail(3, "CHECK FAILED: " + message);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) Fail(2, flag + " needs a value");
      return argv[++i];
    };
    const auto number = [&](const std::string& text) {
      char* end = nullptr;
      errno = 0;
      const double parsed = std::strtod(text.c_str(), &end);
      if (end == text.c_str() || *end != '\0' || errno != 0 || parsed < 0) {
        Fail(2, flag + " expects a non-negative number, got '" + text + "'");
      }
      return parsed;
    };
    if (flag == "--workload") {
      Result<Workload> workload = ParseWorkload(value());
      if (!workload.ok()) Fail(2, workload.status().ToString());
      args.workload = *workload;
    } else if (flag == "--seed") {
      args.seed = static_cast<uint64_t>(number(value()));
    } else if (flag == "--seconds") {
      args.seconds = number(value());
    } else if (flag == "--trace") {
      const std::string mode = value();
      if (mode != "0" && mode != "1") Fail(2, "--trace expects 0 or 1");
      args.trace = mode == "1";
    } else if (flag == "--trace-dir") {
      args.trace_dir = value();
    } else if (flag == "--work-dir") {
      args.work_dir = value();
    } else {
      Fail(2, "unknown flag '" + flag + "'");
    }
  }
  return args;
}

double Ms(uint64_t ns) { return static_cast<double>(ns) / 1e6; }

uint64_t CpuNs() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto ns = [](const timeval& tv) {
    return static_cast<uint64_t>(tv.tv_sec) * 1'000'000'000ull +
           static_cast<uint64_t>(tv.tv_usec) * 1'000ull;
  };
  return ns(usage.ru_utime) + ns(usage.ru_stime);
}

// Hands the memory earlier phases freed back to the kernel, then resets
// VmHWM to the current resident set, so PeakRssMb covers what follows.
void ResetPeakRss() {
  malloc_trim(0);
  std::FILE* clear = std::fopen("/proc/self/clear_refs", "w");
  if (clear == nullptr || std::fputs("5", clear) < 0 ||
      std::fclose(clear) != 0) {
    Fail(1, "cannot reset the peak RSS through /proc/self/clear_refs");
  }
}

// Peak resident set (VmHWM) of this process since ResetPeakRss, in MB.
double PeakRssMb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0;
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kb = std::atof(line + 6);
  }
  std::fclose(status);
  return kb / 1024.0;
}

// What the server side saw of one verdict, captured in on_verdict.
struct ServerRecord {
  uint16_t port = 0;  // the client's port: pairs the record with its session
  bool compliant = false;
  SgxCounts counts;
  std::array<uint64_t, kStages> wall_ns{};
  std::array<bool, kStages> ran{};
  uint64_t text_bytes = 0;
  uint64_t bytes_before_done = 0;
};

// The server's listener, wrapped to learn which client each connection id
// serves: the port the client connected from, read at accept. An id exists
// only once ProvisioningFrontend::Accept has returned, so each TryAccept
// first names the connection the previous one handed out. Only the one
// reactor thread calls it, and on_verdict runs on that thread too.
class PairingListener final : public net::Listener {
 public:
  explicit PairingListener(net::TcpListener inner) : inner_(std::move(inner)) {}

  void Attach(const core::ProvisioningFrontend* frontend) {
    frontend_ = frontend;
  }
  uint16_t port() const { return inner_.port(); }
  int descriptor() const noexcept override { return inner_.descriptor(); }

  Result<std::unique_ptr<net::Transport>> TryAccept() override {
    Resolve();
    ASSIGN_OR_RETURN(std::unique_ptr<net::Transport> transport,
                     inner_.TryAccept());
    if (transport != nullptr) {
      sockaddr_in peer{};
      socklen_t len = sizeof(peer);
      if (::getpeername(transport->descriptor(),
                        reinterpret_cast<sockaddr*>(&peer), &len) != 0) {
        return InternalError("getpeername failed");
      }
      pending_port_ = ntohs(peer.sin_port);
    }
    return transport;
  }

  // The client port of a connection; 0 when unknown.
  uint16_t PortOf(uint64_t connection) {
    Resolve();
    const auto it = ports_.find(connection);
    return it == ports_.end() ? 0 : it->second;
  }

 private:
  // Every connection arrives through this listener, so the one live id
  // without a port is the one accepted last.
  void Resolve() {
    if (pending_port_ == 0) return;
    for (const uint64_t id : frontend_->connection_ids()) {
      if (ports_.emplace(id, pending_port_).second) break;
    }
    pending_port_ = 0;
  }

  net::TcpListener inner_;
  const core::ProvisioningFrontend* frontend_ = nullptr;
  uint16_t pending_port_ = 0;
  std::map<uint64_t, uint16_t> ports_;
};

// The system under test: device, quoting enclave, one-reactor threaded
// FrontendGroup and its loopback listener.
class Server {
 public:
  static Result<std::unique_ptr<Server>> Start(
      const WorkloadInputs& inputs, std::shared_ptr<core::VerdictCache> cache,
      size_t inspection_threads) {
    auto server = std::unique_ptr<Server>(new Server());
    ASSIGN_OR_RETURN(sgx::QuotingEnclave qe,
                     sgx::QuotingEnclave::Provision(
                         ToBytes("perfbench"),
                         ServeEnclaveOptions(inputs.workload()).rsa_bits));
    server->qe_.emplace(std::move(qe));
    server->cache_ = cache;

    core::FrontendGroupOptions options;
    options.frontend.enclave_options = ServeEnclaveOptions(inputs.workload());
    options.frontend.enclave_options.verdict_cache = std::move(cache);
    options.frontend.inspection_threads = inspection_threads;
    options.frontend.admission_queue_capacity = 8;  // engarde-serve --queue
    options.reactors = 1;
    Server* self = server.get();
    options.on_verdict = [self](size_t reactor, uint64_t connection,
                                const core::ProvisionOutcome& outcome, bool) {
      self->OnVerdict(reactor, connection, outcome);
    };
    ASSIGN_OR_RETURN(server->measurement_,
                     core::EngardeEnclave::ExpectedMeasurement(
                         inputs.Policies(), options.frontend.enclave_options));
    server->group_ = std::make_unique<core::FrontendGroup>(
        &server->host_, &*server->qe_, inputs.PolicyFactory(), options);
    ASSIGN_OR_RETURN(net::TcpListener listener,
                     net::TcpListener::Bind("127.0.0.1", 0));
    server->listener_.emplace(std::move(listener));
    server->listener_->Attach(&server->group_->reactor(0));
    server->group_->AttachListener(&*server->listener_);
    server->baseline_pages_ = server->device_.epc().pages_in_use();
    RETURN_IF_ERROR(server->group_->Start());
    return server;
  }

  ~Server() {
    if (group_ != nullptr && group_->running()) (void)group_->Stop();
  }

  uint16_t port() const { return listener_->port(); }
  const sgx::QuotingEnclave& qe() const { return *qe_; }
  const crypto::Sha256Digest& measurement() const { return measurement_; }
  core::FrontendGroup& group() { return *group_; }
  core::VerdictCache* cache() const { return cache_.get(); }

  client::ClientOptions ClientOptions() const {
    client::ClientOptions options;
    options.attestation_key = qe_->attestation_public_key();
    options.expected_measurement = measurement_;
    return options;
  }

  std::vector<ServerRecord> TakeRecords() {
    const std::lock_guard<std::mutex> lock(mu_);
    return std::move(records_);
  }

  // Stops the reactor, then checks the front end and the device hold
  // nothing: no live connection, queued arrival, committed or double-freed
  // budget page, and the device's EPC back at its pre-run occupancy.
  Status StopAndCheckLeaks() {
    RETURN_IF_ERROR(group_->Stop());
    const core::FrontendMetrics m = group_->metrics();
    const size_t pages = device_.epc().pages_in_use();
    if (m.live_connections != 0 || m.queue_depth != 0 ||
        m.committed_pages != 0 || m.budget_underflows != 0 ||
        pages != baseline_pages_) {
      return InternalError(
          "leak after Stop(): live=" + std::to_string(m.live_connections) +
          " queued=" + std::to_string(m.queue_depth) +
          " committed=" + std::to_string(m.committed_pages) +
          " underflows=" + std::to_string(m.budget_underflows) +
          " epc_pages=" + std::to_string(pages) + " (baseline " +
          std::to_string(baseline_pages_) + ")");
    }
    return Status::Ok();
  }

 private:
  Server() : device_(sgx::SgxDevice::Options{}), host_(&device_) {}

  // Runs on the reactor thread, which owns the connection until it returns.
  void OnVerdict(size_t reactor, uint64_t connection,
                 const core::ProvisionOutcome& outcome) {
    ServerRecord record;
    record.port = listener_->PortOf(connection);
    record.compliant = outcome.verdict.compliant;
    record.counts =
        CountsOf(group_->reactor(reactor).accountant(connection));
    for (const core::StageReport& report : outcome.stage_reports) {
      const size_t stage = static_cast<size_t>(report.stage);
      if (stage >= kStages || report.outcome == core::StageOutcome::kSkipped) {
        continue;
      }
      record.wall_ns[stage] = report.wall_ns;
      record.ran[stage] = true;
    }
    record.text_bytes = outcome.stats.streaming_text_bytes;
    record.bytes_before_done = outcome.stats.streaming_bytes_before_done;
    const std::lock_guard<std::mutex> lock(mu_);
    records_.push_back(std::move(record));
  }

  sgx::SgxDevice device_;
  sgx::HostOs host_;
  std::optional<sgx::QuotingEnclave> qe_;
  std::shared_ptr<core::VerdictCache> cache_;
  crypto::Sha256Digest measurement_{};
  std::optional<PairingListener> listener_;
  size_t baseline_pages_ = 0;
  std::mutex mu_;
  std::vector<ServerRecord> records_;  // guarded by mu_
  // Last: destroyed (and stopped) before everything it points at.
  std::unique_ptr<core::FrontendGroup> group_;
};

// Pairs every client session with the server verdict of its own connection,
// by the port it connected from, then checks the verdict against its
// expectation and the session's SGX counts against its shape's serial
// reference. Returns, per client session, its server record.
std::vector<const ServerRecord*> CheckSessions(
    const WorkloadInputs& inputs, const std::vector<SessionRecord>& sessions,
    const std::vector<ServerRecord>& server) {
  // A port carries one connection at a time, so on each port the server's
  // verdicts come in the order the clients received them.
  std::map<uint16_t, std::deque<const ServerRecord*>> by_port;
  for (const ServerRecord& record : server) {
    by_port[record.port].push_back(&record);
  }
  std::vector<size_t> order;
  for (size_t i = 0; i < sessions.size(); ++i) {
    if (sessions[i].verdicted) order.push_back(i);
  }
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return sessions[a].verdict_ns < sessions[b].verdict_ns;
  });
  std::vector<const ServerRecord*> paired(sessions.size(), nullptr);
  for (const size_t i : order) {
    const SessionRecord& session = sessions[i];
    const Shape& shape = inputs.shapes()[session.shape];
    const std::string who =
        "session " + std::to_string(session.index) + " (" + shape.label + ")";
    if (!VerdictMatches(shape.expect, session.verdict)) {
      CheckFailed(who + ": verdict " +
                  (session.verdict.compliant
                       ? "compliant"
                       : "rejected: " + session.verdict.reason) +
                  " contradicts the expectation");
    }
    std::deque<const ServerRecord*>& records = by_port[session.local_port];
    if (records.empty()) {
      CheckFailed(who + ": the server delivered no verdict on its connection");
    }
    const ServerRecord* record = records.front();
    records.pop_front();
    if (record->compliant != session.verdict.compliant) {
      CheckFailed(who + ": the server's verdict is not the one the client "
                        "decrypted");
    }
    if (!(record->counts == shape.reference)) {
      CheckFailed(who + ": per-phase SGX counts differ from the serial "
                        "ProvisioningServer::Drive reference");
    }
    paired[i] = record;
  }
  for (const auto& [port, records] : by_port) {
    if (!records.empty()) {
      CheckFailed("the server delivered a verdict on port " +
                  std::to_string(port) + " that no client received");
    }
  }
  return paired;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(const std::vector<Metric>& metrics, size_t attempted,
                 size_t failed) {
  for (const Metric& metric : metrics) {
    std::printf("  %-34s %14.4f %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::printf("{\"correct\": true, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int Run(const Args& args) {
  const size_t nproc = std::max(1u, std::thread::hardware_concurrency());
  const bool use_cache = args.workload == Workload::kReuploadCached;
  const std::string cache_dir =
      args.work_dir + "/verdict-cache-" + std::to_string(::getpid());

  // ---- Set-up, repeated; setup_s is the median -----------------------------
  std::vector<double> setup_s;
  std::optional<WorkloadInputs> inputs;
  std::unique_ptr<Server> server;
  std::vector<SessionRecord> seeding;
  const uint64_t setup_begin = NowNs();
  while (setup_s.size() < kSetupMinReps ||
         (setup_s.size() < kSetupMaxReps &&
          NowNs() - setup_begin < kSetupBudgetNs)) {
    server.reset();
    const uint64_t begin = NowNs();
    Result<WorkloadInputs> generated =
        WorkloadInputs::Generate(args.workload, args.seed);
    if (!generated.ok()) Fail(1, "inputs: " + generated.status().ToString());
    inputs.emplace(std::move(*generated));
    std::shared_ptr<core::VerdictCache> cache;
    if (use_cache) {
      std::error_code ignored;
      std::filesystem::remove_all(cache_dir, ignored);
      core::VerdictCacheOptions cache_options;
      cache_options.directory = cache_dir;
      Result<std::shared_ptr<core::VerdictCache>> created =
          core::VerdictCache::Create(cache_options, inputs->Policies(),
                                     ServeEnclaveOptions(args.workload).layout);
      if (!created.ok()) Fail(1, "cache: " + created.status().ToString());
      cache = *created;
    }
    Result<std::unique_ptr<Server>> started =
        Server::Start(*inputs, cache, nproc);
    if (!started.ok()) Fail(1, "server: " + started.status().ToString());
    server = std::move(*started);
    if (use_cache) {
      // Seed the sealed store: every base program once, through the server.
      TraceStore untraced(false);
      LoadGenerator seeder(server->port(), server->ClientOptions(), &untraced);
      LoadPlan plan;
      plan.max_sessions = inputs->base_count();
      const WorkloadInputs* source = &*inputs;
      Result<std::vector<SessionRecord>> seeded = seeder.Run(
          plan, [source](size_t base) { return source->BaseSession(base); },
          NowNs());
      if (!seeded.ok()) Fail(1, "cache seeding: " + seeded.status().ToString());
      seeding = std::move(*seeded);
    }
    setup_s.push_back(static_cast<double>(NowNs() - begin) / 1e9);
  }

  // ---- Output-check references (not set-up: the check's own cost) ----------
  const Status referenced =
      inputs->ComputeReferences(server->qe(), server->measurement(), nproc);
  if (!referenced.ok()) CheckFailed(referenced.ToString());
  for (const SessionRecord& session : seeding) {
    if (!session.verdicted) Fail(1, "cache seeding session failed: " + session.error);
  }
  (void)CheckSessions(*inputs, seeding, server->TakeRecords());

  // ---- Measured interval -----------------------------------------------------
  TraceStore trace(args.trace);
  LoadGenerator generator(server->port(), server->ClientOptions(), &trace);
  LoadPlan plan;
  plan.clients = args.workload == Workload::kNginxCold ? 1 : nproc;
  plan.measure_ns = static_cast<uint64_t>(args.seconds * 1e9);
  plan.min_sessions = kMinSessions;
  plan.give_up_ns = kGiveUpNs;
  const core::VerdictCacheStats cache_before =
      use_cache ? server->cache()->stats() : core::VerdictCacheStats{};
  const core::FrontendMetrics frontend_before = server->group().metrics();

  ResetPeakRss();
  const uint64_t cpu_begin = CpuNs();
  const uint64_t t0 = NowNs();
  const WorkloadInputs* source = &*inputs;
  Result<std::vector<SessionRecord>> ran = generator.Run(
      plan, [source](size_t index) { return source->Session(index); }, t0);
  if (!ran.ok()) Fail(1, "load generator: " + ran.status().ToString());
  const std::vector<SessionRecord>& sessions = *ran;
  uint64_t t_end = t0;
  for (const SessionRecord& session : sessions) {
    if (session.verdicted) t_end = std::max(t_end, session.verdict_ns);
  }
  const uint64_t cpu_ns = CpuNs() - cpu_begin;
  const uint64_t trace_cost_ns = trace.cost_ns();

  const core::FrontendMetrics frontend = server->group().metrics();
  const core::VerdictCacheStats cache_after =
      use_cache ? server->cache()->stats() : core::VerdictCacheStats{};
  const Status stopped = server->StopAndCheckLeaks();
  if (!stopped.ok()) CheckFailed(stopped.ToString());
  const std::vector<ServerRecord> server_records = server->TakeRecords();
  const std::vector<const ServerRecord*> paired =
      CheckSessions(*inputs, sessions, server_records);
  if (use_cache) {
    // A session that re-uploads a seeded base must be a full hit; the stage
    // metrics below leave out the stages such a session replays.
    uint64_t reuploads = 0;
    for (const SessionRecord& session : sessions) {
      if (session.verdicted && !session.fresh_variant) ++reuploads;
    }
    const uint64_t hits = cache_after.hits - cache_before.hits;
    if (hits != reuploads) {
      CheckFailed(std::to_string(reuploads) + " sessions re-uploaded a cached "
                  "program, but the cache counted " + std::to_string(hits) +
                  " full hits");
    }
  }

  // ---- End-to-end ------------------------------------------------------------
  std::vector<double> latency_ms;
  size_t verdicts = 0, failed = 0;
  for (const SessionRecord& session : sessions) {
    if (!session.verdicted) {
      ++failed;
      std::fprintf(stderr, "session %zu failed: %s\n", session.index,
                   session.error.c_str());
      continue;
    }
    ++verdicts;
    latency_ms.push_back(Ms(session.verdict_ns - session.start_ns));
  }
  if (verdicts == 0) Fail(1, "no session reached a verdict");
  if (!TailSupported(latency_ms.size(), 90)) {
    Fail(1, "too few verdicts for a p90 with 10 samples beyond it");
  }
  const double wall_s = static_cast<double>(t_end - t0) / 1e9;
  const double p50 = Percentile(latency_ms, 50);
  std::printf("perfbench %s seed=%llu: %zu sessions in %.2f s (%zu failed)\n",
              std::string(WorkloadName(args.workload)).c_str(),
              static_cast<unsigned long long>(args.seed), sessions.size(),
              wall_s, failed);

  if (!args.trace) {
    PrintResult(
        {{"verdict_p50_ms", p50, "ms"},
         {"verdict_p90_ms", Percentile(latency_ms, 90), "ms"},
         {"sessions_per_s", static_cast<double>(verdicts) / wall_s, "1/s"},
         {"verdict_frac",
          static_cast<double>(verdicts) / static_cast<double>(sessions.size()),
          "ratio"},
         {"peak_rss_mb", PeakRssMb(), "MB"},
         {"setup_s", Percentile(setup_s, 50), "s"}},
        sessions.size(), failed);
    std::error_code ignored;
    std::filesystem::remove_all(cache_dir, ignored);
    return 0;
  }

  // ---- Per layer (traced run) ------------------------------------------------
  std::vector<double> hello_ms, send_ms, upload_ms, residual_ms, residual_share,
      overlap;
  std::array<std::vector<double>, kStages> stage_ms;
  std::array<std::vector<double>, 5> phase_counts;
  // Full cache hits replay the cold run's reports for these four stages, so
  // their wall times are not this session's.
  const auto replayed = [](size_t stage) {
    return stage >= static_cast<size_t>(core::StageId::kDisassemble) &&
           stage <= static_cast<size_t>(core::StageId::kPolicyCheck);
  };
  for (size_t i = 0; i < sessions.size(); ++i) {
    const SessionRecord& session = sessions[i];
    const ServerRecord* record = paired[i];
    if (!session.verdicted || record == nullptr) continue;
    const bool full_hit = use_cache && !session.fresh_variant;
    hello_ms.push_back(Ms(session.hello_ns - session.connect_ns));
    send_ms.push_back(Ms(session.send_end_ns - session.hello_ns));
    const uint64_t upload_ns = session.verdict_ns - session.flushed_ns;
    upload_ms.push_back(Ms(upload_ns));
    std::vector<uint64_t> live_walls;
    uint64_t placed_end = session.verdict_ns;
    for (size_t s = kStages; s-- > 0;) {
      if (!record->ran[s] || (full_hit && replayed(s))) continue;
      live_walls.push_back(record->wall_ns[s]);
      stage_ms[s].push_back(Ms(record->wall_ns[s]));
      // Stage spans carry measured durations, placed back to back so they
      // end at the verdict; the server reports no absolute start times.
      const uint64_t start = placed_end - std::min(placed_end, record->wall_ns[s]);
      trace.Add("stage." + std::string(core::StageName(
                               static_cast<core::StageId>(s))),
                start, placed_end, session.verdict_span, session.index);
      placed_end = start;
    }
    const int64_t residual = ChannelResidualNs(upload_ns, live_walls);
    residual_ms.push_back(static_cast<double>(residual) / 1e6);
    residual_share.push_back(static_cast<double>(residual) /
                             static_cast<double>(std::max<uint64_t>(1, upload_ns)));
    if (record->text_bytes > 0) {
      overlap.push_back(static_cast<double>(record->bytes_before_done) * 1000.0 /
                        static_cast<double>(record->text_bytes));
    }
    const SgxCounts& c = record->counts;
    const uint64_t counts[] = {c.idle, c.channel, c.disassembly,
                               c.policy_check, c.loading};
    for (size_t p = 0; p < 5; ++p) {
      phase_counts[p].push_back(static_cast<double>(counts[p]));
    }
  }

  std::vector<SessionInput> probe_inputs;
  for (size_t i = 0; i < std::min(kProbeSessions, sessions.size()); ++i) {
    probe_inputs.push_back(inputs->Session(sessions[i].index));
  }
  Result<ProbeResults> probes = RunProbes(*inputs, probe_inputs, server->qe(),
                                          server->measurement(), nproc);
  if (!probes.ok()) Fail(1, "probes: " + probes.status().ToString());

  const auto delta = [](uint64_t after, uint64_t before) {
    return static_cast<double>(after - before);
  };
  const double accepted = std::max(1.0, delta(frontend.accepted,
                                              frontend_before.accepted));
  const double probes_total =
      std::max(1.0, delta(cache_after.hits + cache_after.partial_hits +
                              cache_after.misses,
                          cache_before.hits + cache_before.partial_hits +
                              cache_before.misses));
  uint64_t admission_hist[core::kLatencyBuckets];
  for (size_t b = 0; b < core::kLatencyBuckets; ++b) {
    admission_hist[b] =
        frontend.admission_wait_hist[b] - frontend_before.admission_wait_hist[b];
  }
  const auto p50_of = [](const std::vector<double>& v) {
    return Percentile(v, 50);
  };
  const auto mean_of = [](const std::vector<double>& v) {
    double sum = 0;
    for (const double x : v) sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
  };
  const auto stage = [&](core::StageId id) {
    return p50_of(stage_ms[static_cast<size_t>(id)]);
  };

  std::vector<Metric> metrics = {
      {"client.hello_wait_ms", p50_of(hello_ms), "ms"},
      {"client.send_program_ms", p50_of(send_ms), "ms"},
      {"client.upload_to_verdict_ms", p50_of(upload_ms), "ms"},
      {"frontend.admission_wait_ms.p50",
       Ms(core::HistogramPercentileNs(admission_hist, 50)), "ms"},
      {"frontend.admission_wait_ms.p90",
       Ms(core::HistogramPercentileNs(admission_hist, 90)), "ms"},
      {"frontend.queued_frac",
       delta(frontend.queued, frontend_before.queued) / accepted, "ratio"},
      {"frontend.shed_frac",
       delta(frontend.shed, frontend_before.shed) / accepted, "ratio"},
      {"frontend.peak_live",
       static_cast<double>(frontend.peak_live_connections), "count"},
      {"session.channel_residual_ms", p50_of(residual_ms), "ms"},
      {"session.channel_residual_share", p50_of(residual_share), "ratio"},
      {"stage.container_validate_ms", stage(core::StageId::kContainerValidate),
       "ms"},
      {"stage.page_separation_ms", stage(core::StageId::kPageSeparation), "ms"},
      {"stage.disassemble_ms", stage(core::StageId::kDisassemble), "ms"},
      {"stage.build_symbols_ms", stage(core::StageId::kBuildSymbols), "ms"},
      {"stage.nacl_validate_ms", stage(core::StageId::kNaClValidate), "ms"},
      {"stage.policy_check_ms", stage(core::StageId::kPolicyCheck), "ms"},
      {"stage.load_and_lock_ms", stage(core::StageId::kLoadAndLock), "ms"},
      {"streaming.overlap_permille", mean_of(overlap), "permille"},
      {"verdict_cache.hit_ratio",
       delta(cache_after.hits, cache_before.hits) / probes_total, "ratio"},
      {"verdict_cache.partial_hit_ratio",
       delta(cache_after.partial_hits, cache_before.partial_hits) /
           probes_total,
       "ratio"},
      {"verdict_cache.miss_ratio",
       delta(cache_after.misses, cache_before.misses) / probes_total, "ratio"},
      {"verdict_cache.bytes_sealed",
       static_cast<double>(cache_after.bytes_sealed), "bytes"},
      {"sgx.phase.idle", p50_of(phase_counts[0]), "count"},
      {"sgx.phase.channel", p50_of(phase_counts[1]), "count"},
      {"sgx.phase.disassembly", p50_of(phase_counts[2]), "count"},
      {"sgx.phase.policy_check", p50_of(phase_counts[3]), "count"},
      {"sgx.phase.loading", p50_of(phase_counts[4]), "count"},
      {"sgx.committed_pages_per_session", probes->committed_pages, "pages"},
      {"crypto.rsa_keygen_ms", probes->rsa_keygen_ms, "ms"},
      {"crypto.rsa_unwrap_ms", probes->rsa_unwrap_ms, "ms"},
      {"crypto.channel_open_mb_s", probes->channel_open_mb_s, "MB/s"},
      {"crypto.channel_seal_mb_s", probes->channel_seal_mb_s, "MB/s"},
      {"sgx.enclave_create_ms", probes->enclave_create_ms, "ms"},
      {"sgx.destroy_ms", probes->destroy_ms, "ms"},
      {"process.cpu_ms_per_session",
       Ms(cpu_ns) / static_cast<double>(verdicts), "ms"},
      {"process.cpu_utilization",
       static_cast<double>(cpu_ns) / 1e9 / (wall_s * static_cast<double>(nproc)),
       "ratio"},
      {"trace.overhead_ms_per_session",
       Ms(trace_cost_ns) / static_cast<double>(sessions.size()), "ms"},
  };

  // ---- Spans and the per-layer self times go to --trace-dir ----------------
  const std::string stem = args.trace_dir + "/" +
                           std::string(WorkloadName(args.workload)) + "-seed" +
                           std::to_string(args.seed);
  if (!trace.WriteNdjson(stem + ".spans.ndjson")) {
    Fail(1, "cannot write " + stem + ".spans.ndjson");
  }
  std::FILE* summary = std::fopen((stem + ".summary.json").c_str(), "w");
  if (summary == nullptr) Fail(1, "cannot write " + stem + ".summary.json");
  std::fprintf(summary, "{\n  \"verdict_p50_ms\": %.6f,\n  \"self_ms_p50\": {",
               p50);
  bool first = true;
  std::printf("  self time per layer (p50 over sessions):\n");
  for (const auto& [name, self_ms] : trace.MedianSelfMs()) {
    std::fprintf(summary, "%s\n    \"%s\": %.6f", first ? "" : ",",
                 name.c_str(), self_ms);
    std::printf("    %-28s %10.3f ms\n", name.c_str(), self_ms);
    first = false;
  }
  std::fprintf(summary, "\n  },\n  \"metrics\": {");
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::fprintf(summary, "%s\n    \"%s\": %.10g", i == 0 ? "" : ",",
                 metrics[i].name.c_str(), metrics[i].value);
  }
  std::fprintf(summary, "\n  }\n}\n");
  std::fclose(summary);

  PrintResult(metrics, sessions.size(), failed);
  std::error_code ignored;
  std::filesystem::remove_all(cache_dir, ignored);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::Run(perfbench::ParseArgs(argc, argv));
}
