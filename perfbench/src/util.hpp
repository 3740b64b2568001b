#pragma once
/// \file util.hpp
/// \brief Clocks, order statistics, a span recorder and a flat JSON writer
/// for the trigen benchmark.

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline double since(Clock::time_point t0) {
  return seconds_between(t0, Clock::now());
}

/// CPU seconds consumed by every thread of this process so far.
inline double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Peak resident set of this process so far, in MB: VmHWM of its own
/// address space.  (ru_maxrss would not do: Linux carries the parent's
/// peak across fork and exec into it.)
inline double peak_rss_mb() {
  long kb = 0;
  if (FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof line, f)) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) break;
    }
    std::fclose(f);
  }
  return static_cast<double>(kb) / 1024.0;
}

/// Quantile q in [0, 1] with linear interpolation between order statistics
/// (the "inclusive" method); 0 for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Keeps a computed value alive so the optimizer cannot drop the work
/// that produced it.
template <typename T>
inline void keep(const T& v) {
  asm volatile("" : : "r,m"(v) : "memory");
}

/// Runs `fn` until at least `min_seconds` have passed (and at least
/// `min_reps` times); returns the median seconds of one call.
template <typename Fn>
double time_median(Fn&& fn, double min_seconds, int min_reps = 3) {
  std::vector<double> t;
  const auto start = Clock::now();
  while (static_cast<int>(t.size()) < min_reps || since(start) < min_seconds) {
    const auto t0 = Clock::now();
    fn();
    t.push_back(since(t0));
  }
  return median(t);
}

/// In-memory span recorder.  A span has a name, a parent and an interval;
/// spans stay in memory until the run ends.  Disabled recorders cost one
/// branch per call.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Opens a span under `parent` (-1 for a root) and returns its id
  /// (-1 when disabled).
  int begin(const char* name, int parent) {
    if (!enabled_) return -1;
    const auto now = Clock::now();
    std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back({name, parent, now, now});
    return static_cast<int>(spans_.size() - 1);
  }

  void end(int id) {
    if (id < 0) return;
    const auto now = Clock::now();
    std::lock_guard<std::mutex> lk(mu_);
    spans_[static_cast<std::size_t>(id)].end = now;
  }

  /// Self seconds (duration minus the union of its children's intervals)
  /// summed per span name within each root span, then the median over the
  /// roots named `root`.  Names absent under a root count as 0 there.
  std::map<std::string, double> median_self_seconds(const std::string& root) const {
    std::lock_guard<std::mutex> lk(mu_);
    const std::size_t n = spans_.size();
    std::vector<std::vector<std::size_t>> children(n);
    for (std::size_t i = 0; i < n; ++i) {
      if (spans_[i].parent >= 0) {
        children[static_cast<std::size_t>(spans_[i].parent)].push_back(i);
      }
    }
    std::vector<double> self(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      std::vector<std::pair<Clock::time_point, Clock::time_point>> iv;
      for (const std::size_t c : children[i]) {
        iv.emplace_back(std::max(spans_[c].start, spans_[i].start),
                        std::min(spans_[c].end, spans_[i].end));
      }
      std::sort(iv.begin(), iv.end());
      double covered = 0.0;
      Clock::time_point reach = spans_[i].start;
      for (const auto& [a, b] : iv) {
        const auto from = std::max(a, reach);
        if (b > from) {
          covered += seconds_between(from, b);
          reach = b;
        }
      }
      self[i] = seconds_between(spans_[i].start, spans_[i].end) - covered;
    }
    std::map<std::string, std::vector<double>> per_name;
    std::vector<std::size_t> roots;
    for (std::size_t i = 0; i < n; ++i) {
      if (spans_[i].parent < 0 && spans_[i].name == root) roots.push_back(i);
    }
    for (std::size_t i = 0; i < n; ++i) per_name[spans_[i].name];
    for (const std::size_t r : roots) {
      std::map<std::string, double> sum;
      std::vector<std::size_t> stack{r};
      while (!stack.empty()) {
        const std::size_t s = stack.back();
        stack.pop_back();
        sum[spans_[s].name] += self[s];
        for (const std::size_t c : children[s]) stack.push_back(c);
      }
      for (auto& [name, v] : per_name) v.push_back(sum[name]);
    }
    std::map<std::string, double> out;
    for (const auto& [name, v] : per_name) out[name] = median(v);
    return out;
  }

 private:
  struct Span {
    std::string name;
    int parent;
    Clock::time_point start, end;
  };
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span: opens in the constructor, closes in the destructor.
class Scope {
 public:
  Scope(Tracer& t, const char* name, int parent)
      : t_(t), id_(t.begin(name, parent)) {}
  ~Scope() { t_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int id() const { return id_; }

 private:
  Tracer& t_;
  int id_;
};

/// Named metrics with units, plus string facts about the run.
struct Report {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<std::pair<std::string, std::string>> info;
  std::vector<std::pair<std::string, std::uint64_t>> exact;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void check(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

inline std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

inline std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

inline std::string to_json(const Report& r) {
  std::string s = "{\"attempted\": " + std::to_string(r.attempted) +
                  ", \"failed\": " + std::to_string(r.failed) +
                  ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    if (i) s += ", ";
    s += json_string(r.metrics[i].first) +
         ": {\"value\": " + json_number(r.metrics[i].second.first) +
         ", \"unit\": " + json_string(r.metrics[i].second.second) + "}";
  }
  s += "}, \"info\": {";
  for (std::size_t i = 0; i < r.info.size(); ++i) {
    if (i) s += ", ";
    s += json_string(r.info[i].first) + ": " + json_string(r.info[i].second);
  }
  s += "}, \"exact\": {";
  for (std::size_t i = 0; i < r.exact.size(); ++i) {
    if (i) s += ", ";
    s += json_string(r.exact[i].first) + ": " + std::to_string(r.exact[i].second);
  }
  return s + "}}";
}

}  // namespace perfbench
