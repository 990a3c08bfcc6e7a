#include "trace.h"

#include <chrono>
#include <cstdio>

#include "stats.h"

namespace perfbench {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

int64_t TraceStore::Add(std::string name, uint64_t start_ns, uint64_t end_ns,
                        int64_t parent, uint64_t session) {
  if (!enabled_) return -1;
  const uint64_t begin = NowNs();
  spans_.push_back(Span{std::move(name), start_ns, end_ns, parent, session});
  cost_ns_ += NowNs() - begin;
  return static_cast<int64_t>(spans_.size()) - 1;
}

void TraceStore::SetEnd(int64_t index, uint64_t end_ns) {
  if (index < 0) return;
  const uint64_t begin = NowNs();
  spans_[index].end_ns = end_ns;
  cost_ns_ += NowNs() - begin;
}

std::map<std::string, double> TraceStore::MedianSelfMs() const {
  std::vector<uint64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) child_ns[span.parent] += span.Duration();
  }
  std::map<std::string, std::vector<double>> self_ms;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const uint64_t duration = spans_[i].Duration();
    const uint64_t self = duration > child_ns[i] ? duration - child_ns[i] : 0;
    self_ms[spans_[i].name].push_back(static_cast<double>(self) / 1e6);
  }
  std::map<std::string, double> medians;
  for (auto& [name, samples] : self_ms) {
    medians[name] = Percentile(std::move(samples), 50);
  }
  return medians;
}

bool TraceStore::WriteNdjson(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (const Span& span : spans_) {
    std::fprintf(out,
                 "{\"name\":\"%s\",\"start_ns\":%llu,\"end_ns\":%llu,"
                 "\"parent\":%lld,\"session\":%llu}\n",
                 span.name.c_str(),
                 static_cast<unsigned long long>(span.start_ns),
                 static_cast<unsigned long long>(span.end_ns),
                 static_cast<long long>(span.parent),
                 static_cast<unsigned long long>(span.session));
  }
  const bool failed = std::ferror(out) != 0;
  return std::fclose(out) == 0 && !failed;
}

}  // namespace perfbench
