// In-memory span store for the traced run. Spans are recorded around the
// benchmark's own calls into each layer (connect, admission frame, hello,
// SendProgram, flush, verdict); each session's StageReports are attached as
// children of its verdict span. Nothing is written until the run ends.
//
// The store times its own calls, so a traced run reports what tracing cost
// it from inside the run itself.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// Monotonic nanoseconds (steady_clock), the one clock every timestamp uses.
uint64_t NowNs();

struct Span {
  std::string name;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int64_t parent = -1;  // index into the store; -1 = session root
  uint64_t session = 0;
  uint64_t Duration() const { return end_ns > start_ns ? end_ns - start_ns : 0; }
};

class TraceStore {
 public:
  // A disabled store records nothing (the untraced run).
  explicit TraceStore(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  // Returns the span's index, or -1 when disabled.
  int64_t Add(std::string name, uint64_t start_ns, uint64_t end_ns,
              int64_t parent, uint64_t session);
  // Closes a span opened with an end of 0 (no-op for index -1).
  void SetEnd(int64_t index, uint64_t end_ns);

  // Time spent inside Add and SetEnd so far: what tracing added to the
  // thread that records the spans.
  uint64_t cost_ns() const { return cost_ns_; }

  // Per span name: the median self time (duration minus the time its direct
  // children cover) over every span of that name, in ms.
  std::map<std::string, double> MedianSelfMs() const;

  // One JSON object per line: name, start_ns, end_ns, parent, session.
  bool WriteNdjson(const std::string& path) const;

  size_t size() const { return spans_.size(); }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  uint64_t cost_ns_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
