#include "spans.hpp"

#include <chrono>
#include <cstdio>
#include <fstream>

namespace perfbench {

int64_t now_ns() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

SpanRecorder& recorder() {
  static SpanRecorder instance;
  return instance;
}

int SpanRecorder::open(const char* name) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_ns = now_ns();
  spans_.push_back(std::move(s));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void SpanRecorder::close(int index) {
  if (index < 0) return;
  spans_[static_cast<size_t>(index)].end_ns = now_ns();
  // Spans are strictly nested (RAII), so the closing span is the innermost.
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::map<std::string, SpanTotals> SpanRecorder::totals() const {
  // Children of one parent never overlap (single-threaded, nested), so the
  // covered part of a span is the plain sum of its children's durations.
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, SpanTotals> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    SpanTotals& t = out[s.name];
    const int64_t dur = s.end_ns - s.start_ns;
    ++t.count;
    t.total_ms += static_cast<double>(dur) * 1e-6;
    t.self_ms += static_cast<double>(dur - child_ns[i]) * 1e-6;
  }
  return out;
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

bool SpanRecorder::write_chrome_trace(
    const std::string& path,
    const std::map<std::string, std::string>& meta) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[\n";
  out << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
         "\"args\":{\"name\":\"perfbench\"}}";
  char buf[160];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":%.3f,\"dur\":%.3f,",
                  static_cast<double>(s.start_ns) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
    out << ",\n{\"name\":\"" << json_escape(s.name) << "\",\"cat\":\"perfbench\","
        << buf << "\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
        << "}}";
  }
  out << "\n],\"metadata\":{";
  bool first = true;
  for (const auto& [k, v] : meta) {
    out << (first ? "" : ",") << "\"" << json_escape(k) << "\":\""
        << json_escape(v) << "\"";
    first = false;
  }
  out << "},\"selfTime\":{";
  first = true;
  for (const auto& [name, t] : totals()) {
    std::snprintf(buf, sizeof(buf),
                  "{\"count\":%zu,\"total_ms\":%.6f,\"self_ms\":%.6f}", t.count,
                  t.total_ms, t.self_ms);
    out << (first ? "" : ",") << "\"" << json_escape(name) << "\":" << buf;
    first = false;
  }
  out << "}}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
