#pragma once

// Spans recorded by the benchmark around its calls into the program's
// public functions: name, start, end, parent and the op id shared by one
// trajectory batch or one request. They stay in memory while the
// workload runs and are written out when it ends; self times (a span's
// duration minus what its children cover) are computed from the tree.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name;  // string literal
  double start;
  double end;
  int parent;  // index into the log, -1 for a root
  std::uint64_t op;
};

class SpanLog {
 public:
  /// Opens a span under the innermost open one; returns its index.
  int open(const char* name, std::uint64_t op) {
    spans_.push_back({name, now_s(), 0.0, stack_.empty() ? -1 : stack_.back(), op});
    stack_.push_back(static_cast<int>(spans_.size() - 1));
    return stack_.back();
  }

  void close(int index) {
    spans_[static_cast<std::size_t>(index)].end = now_s();
    stack_.pop_back();
  }

  /// A span whose bounds were measured by the caller (a request's wait
  /// from enqueue to the end of its drain), attached to the open span.
  void add(const char* name, double start, double end, std::uint64_t op) {
    spans_.push_back({name, start, end, stack_.empty() ? -1 : stack_.back(), op});
  }

  struct Totals {
    std::uint64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };

  /// Per-name count, total and self time. Request-wait spans overlap
  /// their siblings, so spans named in `detached` are left out of their
  /// parent's child coverage.
  std::map<std::string, Totals> totals(const std::vector<std::string>& detached = {}) const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      bool skip = false;
      for (const std::string& d : detached) skip = skip || d == s.name;
      if (s.parent >= 0 && !skip) child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    }
    std::map<std::string, Totals> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      Totals& t = out[spans_[i].name];
      const double d = spans_[i].end - spans_[i].start;
      ++t.count;
      t.total_s += d;
      t.self_s += d - child[i];
    }
    return out;
  }

  /// Writes every span as one JSON object per line.
  void write_jsonl(const std::filesystem::path& path) const {
    std::FILE* f = std::fopen(path.string().c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.string().c_str());
      return;
    }
    for (const Span& s : spans_) {
      std::fprintf(f,
                   "{\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,\"parent\":%d,"
                   "\"op\":%llu}\n",
                   s.name, s.start, s.end, s.parent,
                   static_cast<unsigned long long>(s.op));
    }
    std::fclose(f);
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span; a null log (an untraced run) records nothing.
class SpanScope {
 public:
  SpanScope(SpanLog* log, const char* name, std::uint64_t op = 0)
      : log_(log), index_(log != nullptr ? log->open(name, op) : -1) {}
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  ~SpanScope() {
    if (log_ != nullptr) log_->close(index_);
  }

 private:
  SpanLog* log_;
  int index_;
};

}  // namespace perfbench
