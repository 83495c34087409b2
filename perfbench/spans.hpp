// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded by the benchmark around its own calls into the
// program's layers (the program itself is not instrumented here).  Each
// span has a name, start, end and parent; nothing is written until the run
// ends, when write_chrome_trace() emits Chrome trace_event JSON that opens
// in ui.perfetto.dev next to `antmd_run --trace-out` traces.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Nanoseconds on the steady clock since the recorder's epoch.
int64_t now_ns();

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;  ///< index of the enclosing span, -1 = root
};

/// Per-name totals: wall time inside spans of that name, and self time
/// (span minus the part of it covered by child spans).
struct SpanTotals {
  size_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

class SpanRecorder {
 public:
  /// The recorder is off until enabled; a disabled recorder makes
  /// ScopedSpan a pair of branch-predicted no-ops.
  void set_enabled(bool on) { enabled_ = on; }

  /// Opens a span under the innermost open one; returns its index (-1 when
  /// disabled).
  int open(const char* name);
  void close(int index);

  [[nodiscard]] std::map<std::string, SpanTotals> totals() const;

  /// Writes every span as a complete ("ph":"X") event plus the per-name
  /// self-time table as metadata; `meta` lands in the top-level "metadata"
  /// object.  Returns false if the file could not be written.
  bool write_chrome_trace(const std::string& path,
                          const std::map<std::string, std::string>& meta) const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int> open_;  ///< stack of open span indices
};

/// The process-wide recorder the benchmark's layer probes report to.
SpanRecorder& recorder();

/// RAII span on recorder().
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) : index_(recorder().open(name)) {}
  ~ScopedSpan() { recorder().close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int index_;
};

}  // namespace perfbench
