#include "harness.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>

#include <pthread.h>
#include <unistd.h>

namespace perfbench {

namespace {

/// Reads a clock in nanoseconds; -1 when it cannot be read.
std::int64_t clock_ns(clockid_t id) noexcept {
  timespec ts{};
  if (clock_gettime(id, &ts) != 0) return -1;
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

}  // namespace

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t process_cpu_ns() noexcept {
  return clock_ns(CLOCK_PROCESS_CPUTIME_ID);
}

std::int64_t thread_cpu_ns() noexcept {
  return clock_ns(CLOCK_THREAD_CPUTIME_ID);
}

std::int64_t thread_cpu_ns(std::thread& t) noexcept {
  clockid_t id{};
  if (pthread_getcpuclockid(t.native_handle(), &id) != 0) return -1;
  return clock_ns(id);
}

std::uint64_t rss_bytes() noexcept {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long size = 0;
  unsigned long resident = 0;
  const int got = std::fscanf(f, "%lu %lu", &size, &resident);
  std::fclose(f);
  if (got != 2) return 0;
  return static_cast<std::uint64_t>(resident) *
         static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos =
      std::clamp(q, 0.0, 1.0) * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

long SpanLog::open(const char* name, std::uint64_t block,
                   std::uint64_t parent) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.id = (static_cast<std::uint64_t>(thread_) << 48) | next_++;
  s.parent = parent;
  s.block = block;
  s.start_ns = now_ns();
  spans_.push_back(s);
  return static_cast<long>(spans_.size() - 1);
}

void SpanLog::close(long index, std::int64_t arg) {
  if (index < 0) return;
  auto& s = spans_[static_cast<std::size_t>(index)];
  s.end_ns = now_ns();
  s.arg = arg;
}

void SpanLog::record(const char* name, std::uint64_t block,
                     std::uint64_t parent, std::int64_t start_ns,
                     std::int64_t end_ns, std::int64_t arg) {
  if (!enabled_) return;
  Span s;
  s.name = name;
  s.id = (static_cast<std::uint64_t>(thread_) << 48) | next_++;
  s.parent = parent;
  s.block = block;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  s.arg = arg;
  spans_.push_back(s);
}

std::vector<double> SpanLog::durations(const char* name) const {
  std::vector<double> out;
  for (const auto& s : spans_) {
    if (std::strcmp(s.name, name) == 0) out.push_back(s.dur_ns());
  }
  return out;
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<const SpanLog*>& logs) {
  std::int64_t origin_ns = 0;
  bool any = false;
  for (const SpanLog* log : logs) {
    for (const auto& s : log->spans()) {
      if (!any || s.start_ns < origin_ns) origin_ns = s.start_ns;
      any = true;
    }
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  bool first = true;
  for (const SpanLog* log : logs) {
    for (const auto& s : log->spans()) {
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                   "\"parent\":%llu,\"stream\":%llu,\"block\":%llu,"
                   "\"arg\":%lld}}",
                   first ? "" : ",\n", s.name, log->thread(),
                   static_cast<double>(s.start_ns - origin_ns) * 1e-3,
                   s.dur_ns() * 1e-3, static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.block >> 32),
                   static_cast<unsigned long long>(s.block & 0xffffffffu),
                   static_cast<long long>(s.arg));
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

void print_result(bool correct, std::uint64_t attempted,
                  std::uint64_t failed, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace perfbench
