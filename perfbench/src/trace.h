// Span recording for the traced replay. The benchmark wraps each call
// into a layer's public functions in a span (name, start, end, parent,
// cell or request id); spans stay in memory and are written out once, as
// a Chrome trace-event file, when the run ends.
//
// A Tracer belongs to one thread: the replays that use it are
// single-threaded, which is what lets spans nest by a simple open-span
// stack. A disabled Tracer records nothing, so the same replay code gives
// the untraced baseline the tracing overhead is measured against.
#ifndef PERFBENCH_SRC_TRACE_H_
#define PERFBENCH_SRC_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/common/status.h"

namespace perfbench {

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;   ///< index of the enclosing span, -1 for a root
  uint64_t id = 0;   ///< cell or request the span belongs to
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Opens a span inside the innermost open one; -1 when disabled.
  int Begin(const std::string& name, uint64_t id);
  /// Closes span `index` (the innermost open span); no-op for -1.
  void End(int index);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Opens a span for the lifetime of the object.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, uint64_t id = 0)
      : tracer_(tracer), index_(tracer->Begin(name, id)) {}
  ~ScopedSpan() { tracer_->End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

/// Monotonic clock in nanoseconds.
int64_t NowNs();

/// Seconds of span i not covered by the union of its children's intervals.
std::vector<double> SelfSeconds(const std::vector<Span>& spans);

/// Self seconds summed per span name.
std::map<std::string, double> SelfSecondsByName(const std::vector<Span>& spans);

/// Durations in seconds of every span with the given name, in order.
std::vector<double> Durations(const std::vector<Span>& spans,
                              const std::string& name);

/// Writes the spans as Chrome trace-event JSON ("X" events, microseconds).
dpbench::Status WriteChromeTrace(const std::vector<Span>& spans,
                                 const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TRACE_H_
