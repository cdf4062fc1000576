// Shared scaffolding of the perfbench binary: run arguments, the result
// report (human-readable phase lines plus the final one-line JSON object),
// latency percentiles, and the span recorder of the traced run.
//
// Spans are recorded from the benchmark's own files, around calls into each
// layer's public functions; nothing inside the library is instrumented. An
// untraced run (--trace 0) records nothing, so its end-to-end numbers carry
// no tracing cost.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}
inline double micros_between(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::micro>(t1 - t0).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;      // scratch files (the dumped corpus)
  std::string served_path;   // the irgnn_served binary (tcp_hot)
};

/// Median of a sample (0 when empty); sorts a copy.
double median(std::vector<double> values);

/// Nearest-rank percentile, q in [0, 1]; sorts `values` in place.
double percentile(std::vector<double>& values, double q);

/// A percentile that one stall cannot move: the samples (each sequence in
/// the order it was taken, sequences one after another) split into windows
/// of `window` consecutive samples — a short tail joins the last window —
/// and the result is the median over windows of each window's
/// q-percentile. Fewer samples than one window: the plain percentile.
double windowed_percentile(const std::vector<std::vector<double>>& sequences,
                           std::size_t window, double q);

/// Peak resident set size of this process, in MB.
double peak_rss_mb();

/// Collects metrics and pass/fail accounting and prints the final JSON line.
/// Every correctness violation goes through fail(): it prints a FAILED line,
/// counts one failed operation and makes the run exit nonzero.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);

  /// Sent / succeeded / failed counts of one phase (printed, and added to
  /// the run's attempted / failed totals when `counted`).
  void phase(const std::string& name, std::uint64_t sent,
             std::uint64_t succeeded, std::uint64_t failed,
             bool counted = true);

  void fail(const char* format, ...) __attribute__((format(printf, 2, 3)));

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  /// Succeeded / attempted: 1 - error_rate.
  double ok_ratio() const {
    return attempted_ ? static_cast<double>(attempted_ - failed_) /
                            static_cast<double>(attempted_)
                      : 0.0;
  }

  /// Prints the JSON object as the last line of stdout; returns the exit
  /// code (0 only when every check passed and something was attempted).
  int finish() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool violated_ = false;
};

/// Span recorder for the traced run. time() runs `fn` and, when enabled,
/// records its interval under `layer`; spans may come from several threads.
/// Disabled, it only runs `fn`.
class Trace {
 public:
  explicit Trace(bool enabled) : enabled_(enabled), start_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  template <typename Fn>
  decltype(auto) time(const char* layer, Fn&& fn) {
    if (!enabled_) return fn();
    struct Span {
      Trace* trace;
      const char* layer;
      Clock::time_point t0 = Clock::now();
      ~Span() { trace->record(layer, t0, Clock::now()); }
    } span{this, layer};
    return fn();
  }

  /// Busy seconds summed over every span of `layer` (parallel spans add).
  double total_s(const std::string& layer) const;
  std::uint64_t count(const std::string& layer) const;

  /// Wall time since construction minus the union of all recorded spans:
  /// the part of the run no timed call covers.
  double untraced_s() const;

 private:
  void record(const char* layer, Clock::time_point t0, Clock::time_point t1);

  bool enabled_;
  Clock::time_point start_;
  mutable std::mutex mutex_;
  std::vector<std::pair<Clock::time_point, Clock::time_point>> spans_;
  std::map<std::string, std::pair<double, std::uint64_t>> totals_;
};

/// Runs `setup` `times` times and returns the median wall seconds: set-up
/// work is excluded from every measured phase and reported as setup_s.
template <typename Fn>
double median_setup_s(int times, Fn&& setup) {
  std::vector<double> walls;
  for (int i = 0; i < times; ++i) {
    const auto t0 = Clock::now();
    setup(i);
    walls.push_back(seconds_between(t0, Clock::now()));
    std::printf("setup %d: %.4f s\n", i, walls.back());
  }
  return median(walls);
}

void run_experiment_workload(const Args& args, Report& report, Trace& trace);
void run_serve_cold_workload(const Args& args, Report& report, Trace& trace);
void run_tcp_hot_workload(const Args& args, Report& report, Trace& trace);

}  // namespace perfbench
