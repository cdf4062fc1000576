// perfbench: runs one benchmark workload and prints its metrics.
//
//   perfbench --workload experiment|serve_cold|tcp_hot --seed N
//             --seconds S --trace 0|1 --work-dir DIR --served PATH
//
// perfbench/run.py builds this binary and calls it; see perfbench/README.md
// for the workloads, the metrics and the layer each metric belongs to. The
// last line of stdout is one JSON object
//   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics of
// the workload's traced pass (--trace 1; run.py runs the traced passes of
// all workloads and merges them). Any correctness violation makes the exit
// code nonzero.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(std::vector<double>& values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  rank = std::min(std::max<std::size_t>(rank, 1), values.size());
  return values[rank - 1];
}

double windowed_percentile(const std::vector<std::vector<double>>& sequences,
                           std::size_t window, double q) {
  std::vector<double> all;
  for (const auto& s : sequences) all.insert(all.end(), s.begin(), s.end());
  const std::size_t windows = all.size() / window;
  if (windows < 2) return percentile(all, q);
  std::vector<double> per_window;
  for (std::size_t w = 0; w < windows; ++w) {
    std::vector<double> part(
        all.begin() + static_cast<std::ptrdiff_t>(w * window),
        w + 1 == windows ? all.end()
                         : all.begin() +
                               static_cast<std::ptrdiff_t>((w + 1) * window));
    per_window.push_back(percentile(part, q));
  }
  return median(per_window);
}

double peak_rss_mb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) {
    fail("metric %s is not finite", name.c_str());
    value = 0;
  }
  std::printf("metric %-28s %.6g %s\n", name.c_str(), value, unit.c_str());
  metrics_.push_back({name, {value, unit}});
}

void Report::phase(const std::string& name, std::uint64_t sent,
                   std::uint64_t succeeded, std::uint64_t failed,
                   bool counted) {
  std::printf("phase %-24s sent %llu, succeeded %llu, failed %llu%s\n",
              name.c_str(), static_cast<unsigned long long>(sent),
              static_cast<unsigned long long>(succeeded),
              static_cast<unsigned long long>(failed),
              counted ? "" : " (not counted: warm-up)");
  if (sent != succeeded + failed)
    fail("phase %s: sent %llu != succeeded %llu + failed %llu", name.c_str(),
         static_cast<unsigned long long>(sent),
         static_cast<unsigned long long>(succeeded),
         static_cast<unsigned long long>(failed));
  if (failed != 0) violated_ = true;
  if (counted) {
    attempted_ += sent;
    failed_ += failed;
  }
}

void Report::fail(const char* format, ...) {
  std::printf("FAILED: ");
  va_list args;
  va_start(args, format);
  std::vprintf(format, args);
  va_end(args);
  std::printf("\n");
  ++failed_;
  ++attempted_;
  violated_ = true;
}

int Report::finish() const {
  const bool correct = !violated_ && failed_ == 0 && attempted_ > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
  for (std::size_t i = 0; i < metrics_.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics_[i].first.c_str(),
                metrics_[i].second.first, metrics_[i].second.second.c_str());
  std::printf("}}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}

void Trace::record(const char* layer, Clock::time_point t0,
                   Clock::time_point t1) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({t0, t1});
  auto& total = totals_[layer];
  total.first += seconds_between(t0, t1);
  total.second += 1;
}

double Trace::total_s(const std::string& layer) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = totals_.find(layer);
  return it == totals_.end() ? 0 : it->second.first;
}

std::uint64_t Trace::count(const std::string& layer) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = totals_.find(layer);
  return it == totals_.end() ? 0 : it->second.second;
}

double Trace::untraced_s() const {
  const Clock::time_point now = Clock::now();
  std::lock_guard<std::mutex> lock(mutex_);
  auto spans = spans_;
  std::sort(spans.begin(), spans.end());
  double covered = 0;
  Clock::time_point reach = start_;
  for (const auto& [t0, t1] : spans) {
    const Clock::time_point from = std::max(t0, reach);
    if (t1 > from) {
      covered += seconds_between(from, t1);
      reach = t1;
    }
  }
  return seconds_between(start_, now) - covered;
}

}  // namespace perfbench

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "experiment|serve_cold|tcp_hot --seed N --seconds S "
               "--trace 0|1 --work-dir DIR --served PATH\n",
               why);
  return 2;
}

bool parse_number(const char* text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text, &end);
  return end != text && *end == '\0' && std::isfinite(*out);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    double number = 0;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--served") {
      args.served_path = value;
    } else if (!parse_number(value, &number) || number < 0) {
      return usage(("bad value for " + flag).c_str());
    } else if (flag == "--seed") {
      args.seed = static_cast<std::uint64_t>(number);
    } else if (flag == "--seconds" && number > 0) {
      args.seconds = number;
    } else if (flag == "--trace" && (number == 0 || number == 1)) {
      args.trace = number == 1;
    } else {
      return usage(("unknown flag or bad value: " + flag).c_str());
    }
  }
  if (args.work_dir.empty()) return usage("--work-dir is required");

  perfbench::Report report;
  perfbench::Trace trace(args.trace);
  if (args.workload == "experiment") {
    perfbench::run_experiment_workload(args, report, trace);
  } else if (args.workload == "serve_cold") {
    perfbench::run_serve_cold_workload(args, report, trace);
  } else if (args.workload == "tcp_hot") {
    if (args.served_path.empty()) return usage("tcp_hot needs --served");
    perfbench::run_tcp_hot_workload(args, report, trace);
  } else {
    return usage("unknown workload");
  }
  return report.finish();
}
