// In-memory span recorder for the benchmark's traced run.
//
// A span is (name, start, end, parent, op id). The benchmark opens one
// around each call it makes into a library layer, so the name's prefix up to
// the first '.' is the layer ("engine.search" belongs to "engine"). Each
// thread records into its own SpanThread, so recording takes no lock; the
// recorder merges them after the threads have joined and writes them out as
// JSON at exit.
#ifndef TOPL_PERFBENCH_SPANS_H_
#define TOPL_PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  const char* name = "";     // string literal, "<layer>.<call>"
  double start_us = 0.0;     // since the recorder was created
  double end_us = 0.0;
  std::int64_t parent = -1;  // index into the same thread's spans, or -1
  std::uint64_t op = 0;      // operation id shared by the spans of one op
  std::uint32_t thread = 0;

  double duration_us() const { return end_us - start_us; }
};

/// The part of a name before the first '.'.
inline std::string LayerOf(const char* name) {
  const std::string s(name);
  return s.substr(0, s.find('.'));
}

/// One thread's span log. Not thread-safe: use it from a single thread.
class SpanThread {
 public:
  SpanThread(Clock::time_point origin, std::uint32_t thread)
      : origin_(origin), thread_(thread) {}

  /// Opens a span on construction and closes it on destruction. Spans opened
  /// while another is open on the same thread become its children.
  class Scope {
   public:
    Scope(SpanThread* thread, const char* name, std::uint64_t op)
        : thread_(thread) {
      if (thread_ != nullptr) index_ = thread_->Open(name, op);
    }
    ~Scope() {
      if (thread_ != nullptr) thread_->Close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanThread* thread_;
    std::size_t index_ = 0;
  };

  const std::vector<Span>& spans() const { return spans_; }

 private:
  double NowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }
  std::size_t Open(const char* name, std::uint64_t op) {
    Span span;
    span.name = name;
    span.op = op;
    span.thread = thread_;
    span.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
    spans_.push_back(span);
    open_.push_back(spans_.size() - 1);
    spans_.back().start_us = NowUs();
    return spans_.size() - 1;
  }
  void Close(std::size_t index) {
    spans_[index].end_us = NowUs();
    open_.pop_back();
  }

  Clock::time_point origin_;
  std::uint32_t thread_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

/// Owns the per-thread logs of one traced run.
class SpanRecorder {
 public:
  SpanRecorder() : origin_(Clock::now()) {}

  /// A fresh log for the calling thread; valid for the recorder's lifetime.
  SpanThread* NewThread() {
    std::lock_guard<std::mutex> lock(mu_);
    threads_.push_back(std::make_unique<SpanThread>(
        origin_, static_cast<std::uint32_t>(threads_.size())));
    return threads_.back().get();
  }

  /// Durations (microseconds) of every span called `name` whose op id lies
  /// in [op_begin, op_end). Call only after every recording thread joined.
  std::vector<double> DurationsUs(const std::string& name, std::uint64_t op_begin,
                                  std::uint64_t op_end) const {
    std::vector<double> out;
    for (const auto& t : threads_) {
      for (const Span& s : t->spans()) {
        if (name == s.name && s.op >= op_begin && s.op < op_end) {
          out.push_back(s.duration_us());
        }
      }
    }
    return out;
  }

  /// Summed duration (microseconds) per op id of the spans called `name`
  /// whose op id lies in [op_begin, op_end).
  std::map<std::uint64_t, double> DurationByOp(const std::string& name,
                                               std::uint64_t op_begin,
                                               std::uint64_t op_end) const {
    std::map<std::uint64_t, double> out;
    for (const auto& t : threads_) {
      for (const Span& s : t->spans()) {
        if (name == s.name && s.op >= op_begin && s.op < op_end) {
          out[s.op] += s.duration_us();
        }
      }
    }
    return out;
  }

  /// Self time per layer in milliseconds over the spans whose op id is at
  /// least `op_begin`: each span's duration minus the time its children
  /// cover (children of one span run one after another on its thread, so
  /// they never overlap).
  std::map<std::string, double> SelfMsByLayer(std::uint64_t op_begin) const {
    std::map<std::string, double> out;
    for (const auto& t : threads_) {
      const std::vector<Span>& spans = t->spans();
      std::vector<double> child_us(spans.size(), 0.0);
      for (const Span& s : spans) {
        if (s.parent >= 0) child_us[s.parent] += s.duration_us();
      }
      for (std::size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].op < op_begin) continue;
        out[LayerOf(spans[i].name)] +=
            (spans[i].duration_us() - child_us[i]) / 1e3;
      }
    }
    return out;
  }

  /// Writes every span as JSON: {"spans": [...], <extra>}. A span's `parent`
  /// is the `id` of its parent among the same thread's spans (-1 for a root).
  /// `extra` is a comma-separated list of JSON members (may be empty).
  bool WriteJson(const std::string& path, const std::string& extra) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"spans\": [");
    bool first = true;
    for (const auto& t : threads_) {
      const std::vector<Span>& spans = t->spans();
      for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        std::fprintf(f,
                     "%s\n{\"thread\": %u, \"id\": %zu, \"parent\": %lld, "
                     "\"op\": %llu, \"name\": \"%s\", \"start_us\": %.3f, "
                     "\"end_us\": %.3f}",
                     first ? "" : ",", s.thread, i,
                     static_cast<long long>(s.parent),
                     static_cast<unsigned long long>(s.op), s.name, s.start_us,
                     s.end_us);
        first = false;
      }
    }
    std::fprintf(f, "\n]%s%s}\n", extra.empty() ? "" : ", ", extra.c_str());
    return std::fclose(f) == 0;
  }

 private:
  Clock::time_point origin_;
  std::mutex mu_;
  std::vector<std::unique_ptr<SpanThread>> threads_;
};

}  // namespace perfbench

#endif  // TOPL_PERFBENCH_SPANS_H_
