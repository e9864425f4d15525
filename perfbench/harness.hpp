// Shared measurement plumbing for the reader-stack benchmark: clocks,
// CPU and memory probes, percentiles, the span recorder behind the traced
// run, and the result printer.
#pragma once

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

/// Monotonic wall clock in nanoseconds.
std::int64_t now_ns() noexcept;
/// CPU time of the whole process / of the calling thread, in nanoseconds.
std::int64_t process_cpu_ns() noexcept;
std::int64_t thread_cpu_ns() noexcept;
/// CPU time of another thread of this process, in nanoseconds; -1 once
/// that thread has exited.
std::int64_t thread_cpu_ns(std::thread& t) noexcept;
/// Resident set size in bytes (0 when /proc is unavailable).
std::uint64_t rss_bytes() noexcept;

/// Grows `v` to hold `n` elements and touches the memory, so filling it
/// later allocates nothing and faults in no new pages.
template <class T>
void prefault(std::vector<T>& v, std::size_t n) {
  v.resize(n);
  v.clear();
}

/// Linear-interpolated percentile (q in [0, 1]) of an unsorted sample;
/// 0 for an empty one.
double percentile(std::vector<double> v, double q);
double median(std::vector<double> v);
double mean(const std::vector<double>& v);

/// One recorded call into the program (or one replayed layer call).
/// `block` ties together every span that handled one input block
/// (stream << 32 | block index); `parent` is the id of the enclosing span
/// or 0.
struct Span {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t block = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t arg = 0;  ///< call-specific count (e.g. polls in a sweep)
  double dur_ns() const noexcept {
    return static_cast<double>(end_ns - start_ns);
  }
};

/// Per-thread span log. Owned by one thread; merged and written at exit.
/// A disabled log records nothing and costs one branch per call.
class SpanLog {
 public:
  SpanLog(int thread, bool enabled) : thread_(thread), enabled_(enabled) {}
  bool enabled() const noexcept { return enabled_; }
  int thread() const noexcept { return thread_; }
  /// Opens a span; returns its index for close(), or -1 when disabled.
  long open(const char* name, std::uint64_t block, std::uint64_t parent = 0);
  void close(long index, std::int64_t arg = 0);
  /// Records a span after the fact (for calls timed before it was known
  /// whether they were worth a span).
  void record(const char* name, std::uint64_t block, std::uint64_t parent,
              std::int64_t start_ns, std::int64_t end_ns,
              std::int64_t arg = 0);
  std::uint64_t id_of(long index) const {
    return index < 0 ? 0 : spans_[static_cast<std::size_t>(index)].id;
  }
  const std::vector<Span>& spans() const noexcept { return spans_; }
  /// Durations (ns) of every span named `name`.
  std::vector<double> durations(const char* name) const;

 private:
  int thread_;
  bool enabled_;
  std::uint64_t next_ = 1;
  std::vector<Span> spans_;
};

/// RAII span around one call.
class SpanScope {
 public:
  SpanScope(SpanLog& log, const char* name, std::uint64_t block,
            std::uint64_t parent = 0)
      : log_(log), index_(log.open(name, block, parent)) {}
  ~SpanScope() { log_.close(index_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  std::uint64_t id() const { return log_.id_of(index_); }

 private:
  SpanLog& log_;
  long index_;
};

inline std::uint64_t block_key(std::size_t stream, std::size_t block) {
  return (static_cast<std::uint64_t>(stream) << 32) |
         static_cast<std::uint64_t>(block);
}

/// Writes every log as one Chrome trace-event file (open it in
/// chrome://tracing or ui.perfetto.dev), time zero at the earliest span.
/// Returns false on I/O failure.
bool write_chrome_trace(const std::string& path,
                        const std::vector<const SpanLog*>& logs);

/// One named result with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Prints the final result line: {"correct", "attempted", "failed",
/// "metrics"} with every value at full precision.
void print_result(bool correct, std::uint64_t attempted,
                  std::uint64_t failed, const std::vector<Metric>& metrics);

}  // namespace perfbench
