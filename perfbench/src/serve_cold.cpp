// Workload `serve_cold`: many independent compile jobs, each asking an
// in-process serve::Router about a new program. One generator thread sends
// on an open-loop arrival schedule — a request is due every 1/rate seconds
// whether or not earlier ones were answered — and each request is timed
// from when it was due, so a stall shows in every later request. Traffic is
// uniform over the unique graphs of the seeded corpus (traffic.h); the
// prediction cache holds a small fraction of that pool, so nearly every
// query misses and the GNN forward plus micro-batching do the work.
//
// The untraced run measures p50, p90 and qps at the fixed kMeasuredRate. The
// traced run times the layers one by one — fingerprinting, direct
// predict_into at batch 1 and 64, the router's queue/compute split over the
// same open loop — and then searches a fixed rate ladder for slo_qps, the
// highest rate whose p99 meets kSloP99Us with no growing backlog.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "bench.h"
#include "graph/fingerprint.h"
#include "serve/router.h"
#include "traffic.h"

namespace perfbench {

namespace {

using namespace irgnn;

/// Offered rate of the measured phase: well below the rate where batching
/// starts to queue on a 4-core host, so the phase measures latency, not
/// overload. At 1000/s the router was busy about half the time, and host
/// stalls on a shared virtual machine then backed the queue up far enough
/// to move even the p90 between 0.9 and 4.3 ms from run to run; at 400/s
/// the p90 stayed within 0.9 to 1.2 ms.
constexpr double kMeasuredRate = 400;
/// The latency limit slo_qps is judged against. On a virtualized 4-core
/// host, stalls of the host alone moved the p99 at kMeasuredRate between
/// 1.2 and 8 ms from run to run, so the limit sits above that noise and
/// slo_qps marks where the router's own queueing takes over. Even so
/// slo_qps, like p99 itself, spread too far between runs to carry a
/// regression bound: both come from the traced run (slo_qps,
/// serve.latency_us_p99), and the untraced run only prints p99.
constexpr double kSloP99Us = 50000;
/// The rate ladder: kLadderBase * kLadderRatio^k for k < kLadderSteps.
constexpr double kLadderBase = 500;
constexpr double kLadderRatio = 1.05;
constexpr int kLadderSteps = 66;
/// A step's backlog grows when more than two full micro-batches are still
/// unanswered as the step's last request is sent.
constexpr std::uint64_t kBacklogLimit = 128;
/// Latency percentiles are taken per window of this many requests.
constexpr std::size_t kWindow = 1000;
/// Prediction cache entries: a small fraction of the ~300-graph pool.
constexpr std::size_t kCacheEntries = 32;

serve::RouterConfig router_config() {
  serve::RouterConfig config;
  // Unbounded admission: an overloaded ladder step shows as latency and
  // backlog, never as refused (failed) requests.
  config.max_queue = 0;
  config.server.cache_capacity = kCacheEntries;
  return config;
}

struct Slot {
  Clock::time_point due;
  Clock::time_point answered_at;
  double latency_us = 0;
  std::int64_t queue_us = 0;
  std::int64_t compute_us = 0;
  int label = -1;
  bool ok = false;
};

struct OpenLoop {
  std::vector<Slot> slots;
  std::vector<std::size_t> graph_of;
  std::vector<double> lag_us;
  std::uint64_t backlog_at_last_send = 0;
  std::uint64_t succeeded = 0;
  std::uint64_t failed = 0;
  double wall_s = 0;  // first due time to last answer
};

/// Sends `count` requests due every 1/rate seconds, each a uniform draw
/// over the pool, and waits for every answer. Answers are checked against
/// `expected`; a wrong, non-Ok or refused answer is a failure.
OpenLoop run_open_loop(serve::Router& router, const Traffic& traffic,
                       const std::vector<int>& expected, double rate,
                       std::size_t count, Rng& rng) {
  OpenLoop run;
  run.slots.resize(count);
  run.graph_of.resize(count);
  for (std::size_t& g : run.graph_of) g = rng.next_below(traffic.graphs.size());
  run.lag_us.reserve(count);
  std::atomic<std::uint64_t> answered{0};

  const auto start = Clock::now() + std::chrono::milliseconds(1);
  for (std::size_t i = 0; i < count; ++i) {
    Slot* slot = &run.slots[i];
    slot->due = start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(i / rate));
    // Spin, never sleep: timed sleeps on virtualized hosts overshoot by
    // milliseconds, which would show up as generator lag.
    while (Clock::now() < slot->due) {
    }
    run.lag_us.push_back(micros_between(slot->due, Clock::now()));
    auto future =
        router.submit(serve::Request(traffic.graphs[run.graph_of[i]]));
    if (!future.ok()) {
      slot->answered_at = Clock::now();
      answered.fetch_add(1, std::memory_order_release);
      continue;
    }
    std::atomic<std::uint64_t>* done = &answered;
    future->then([slot, done](const serve::Response& response) {
      slot->answered_at = Clock::now();
      slot->ok = response.ok();
      slot->label = response.label;
      slot->queue_us = response.queue_us;
      slot->compute_us = response.compute_us;
      done->fetch_add(1, std::memory_order_release);
    });
  }
  run.backlog_at_last_send =
      count - answered.load(std::memory_order_acquire);
  const auto give_up = Clock::now() + std::chrono::seconds(30);
  while (answered.load(std::memory_order_acquire) < count) {
    if (Clock::now() > give_up) {
      // Pending callbacks still point into `run`; nothing can be reported
      // safely past this point.
      std::printf("FAILED: %llu answers still missing after 30 s\n",
                  static_cast<unsigned long long>(
                      count - answered.load(std::memory_order_acquire)));
      std::fflush(stdout);
      std::_Exit(1);
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }

  Clock::time_point last = start;
  for (std::size_t i = 0; i < count; ++i) {
    Slot& slot = run.slots[i];
    last = std::max(last, slot.answered_at);
    if (slot.ok && slot.label == expected[run.graph_of[i]]) {
      ++run.succeeded;
      slot.latency_us = micros_between(slot.due, slot.answered_at);
    } else {
      ++run.failed;
      slot.latency_us = std::numeric_limits<double>::infinity();
    }
  }
  run.wall_s = seconds_between(start, last);
  return run;
}

std::vector<double> latencies(const OpenLoop& run) {
  std::vector<double> out;
  out.reserve(run.slots.size());
  for (const Slot& slot : run.slots) out.push_back(slot.latency_us);
  return out;
}

void check_conservation(const serve::Router& router, Report& report) {
  const serve::RouterStats stats = router.stats();
  if (stats.cache_hits + stats.cache_misses + stats.coalesced !=
      stats.queries)
    report.fail("router conservation: hits %llu + misses %llu + coalesced "
                "%llu != queries %llu",
                static_cast<unsigned long long>(stats.cache_hits),
                static_cast<unsigned long long>(stats.cache_misses),
                static_cast<unsigned long long>(stats.coalesced),
                static_cast<unsigned long long>(stats.queries));
}

/// One open-loop phase, reported with its sent / succeeded / failed counts.
OpenLoop phase(const std::string& name, serve::Router& router,
               const Traffic& traffic, const std::vector<int>& expected,
               double rate, std::size_t count, Rng& rng, Report& report,
               bool counted = true) {
  OpenLoop run = run_open_loop(router, traffic, expected, rate, count, rng);
  report.phase(name, count, run.succeeded, run.failed, counted);
  return run;
}

/// Highest ladder rate whose step meets the p99 limit without a growing
/// backlog, by bisection over the ladder (latency grows with rate). A step
/// that misses runs once more before it counts as missed, so one host stall
/// cannot send the search down the ladder.
double search_slo_qps(serve::Router& router, const Traffic& traffic,
                      const std::vector<int>& expected, Rng& rng,
                      Report& report) {
  auto rate_at = [](int k) { return kLadderBase * std::pow(kLadderRatio, k); };
  auto step = [&](double rate) {
    // At least 2000 requests, so p99 has twenty samples beyond it.
    const std::size_t count =
        std::max<std::size_t>(2000, static_cast<std::size_t>(rate * 0.5));
    char name[64];
    std::snprintf(name, sizeof(name), "slo step %.0f/s", rate);
    OpenLoop run = phase(name, router, traffic, expected, rate, count, rng,
                         report);
    std::vector<double> lat = latencies(run);
    const double p99 = percentile(lat, 0.99);
    const bool pass =
        p99 <= kSloP99Us && run.backlog_at_last_send <= kBacklogLimit;
    std::printf("  p99 %.0f us, backlog %llu -> %s\n", p99,
                static_cast<unsigned long long>(run.backlog_at_last_send),
                pass ? "meets the limit" : "misses");
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return pass;
  };
  int lo = 0, hi = kLadderSteps - 1;  // invariant: the answer is in [lo, hi]
  while (lo < hi) {
    const int mid = (lo + hi + 1) / 2;
    if (step(rate_at(mid)) || step(rate_at(mid))) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  return rate_at(lo);
}

struct Setup {
  Traffic traffic;
  std::vector<int> expected;
  std::unique_ptr<serve::Router> router;
};

Setup set_up(const Args& args, Trace& trace, Report& report) {
  Setup setup;
  const std::string dir = args.work_dir + "/corpus";
  if (dump_corpus(args, dir, trace, report) == 0) return setup;
  const double setup_s = median_setup_s(kSetups, [&](int) {
    setup.router.reset();
    setup.traffic = load_traffic(dir, trace, report);
    if (setup.traffic.graphs.empty()) return;
    setup.router = std::make_unique<serve::Router>(router_config());
    setup.router->publish("static", setup.traffic.model);
  });
  if (!setup.router) return setup;
  setup.expected = reference_labels(setup.traffic);
  std::printf("serve_cold: %llu corpus files -> %zu unique graphs; open "
              "loop, 1 generator thread, in-process router (cache %zu "
              "entries, unbounded queue)\n",
              static_cast<unsigned long long>(setup.traffic.files),
              setup.traffic.graphs.size(), kCacheEntries);
  if (!trace.enabled()) report.metric("setup_s", setup_s, "s");
  return setup;
}

void run_untraced(const Args& args, Setup& setup, Report& report) {
  serve::Router& router = *setup.router;
  Rng rng(hash_combine64(args.seed, 0x5E4E));
  phase("warm-up", router, setup.traffic, setup.expected, kMeasuredRate, 1000,
        rng, report, /*counted=*/false);
  const std::size_t count =
      static_cast<std::size_t>(kMeasuredRate * args.seconds);
  OpenLoop run = phase("measured", router, setup.traffic, setup.expected,
                       kMeasuredRate, count, rng, report);
  check_conservation(router, report);
  const std::vector<std::vector<double>> lat = {latencies(run)};
  std::printf("measured: %zu requests at %.0f/s, p99 %.1f us (a per-layer "
              "metric of the traced run), generator lag p99 %.1f us\n",
              count, kMeasuredRate, windowed_percentile(lat, kWindow, 0.99),
              percentile(run.lag_us, 0.99));
  report.metric("p50_us", windowed_percentile(lat, kWindow, 0.50), "us");
  report.metric("p90_us", windowed_percentile(lat, kWindow, 0.90), "us");
  report.metric("qps", static_cast<double>(run.succeeded) / run.wall_s,
                "1/s");
}

void run_traced(const Args& args, Setup& setup, Report& report,
                Trace& trace) {
  const Traffic& traffic = setup.traffic;
  std::vector<const graph::ProgramGraph*> all;
  for (const auto& g : traffic.graphs) all.push_back(&g);

  std::uint64_t sink = 0;
  trace.time("graph.fingerprint", [&] {
    for (const auto* g : all) sink ^= graph::fingerprint(*g);
  });
  if (sink == 0) std::printf("(fingerprints fold to 0)\n");

  // Direct forwards, bypassing the router: batch 1, then batches of 64.
  std::vector<int> labels, one;
  std::vector<const graph::ProgramGraph*> chunk;
  trace.time("gnn.predict_b1", [&] {
    for (const auto* g : all) {
      chunk.assign(1, g);
      traffic.model->predict_into(chunk, one);
      labels.push_back(one[0]);
    }
  });
  std::vector<int> batched;
  trace.time("gnn.predict_b64", [&] {
    for (std::size_t i = 0; i < all.size(); i += 64) {
      chunk.assign(all.begin() + i,
                   all.begin() + std::min(all.size(), i + 64));
      traffic.model->predict_into(chunk, one);
      batched.insert(batched.end(), one.begin(), one.end());
    }
  });
  if (labels != setup.expected || batched != setup.expected)
    report.fail("direct predict_into differs from the reference labels");

  serve::Router& router = *setup.router;
  Rng rng(hash_combine64(args.seed, 0x5E4E));
  phase("warm-up", router, traffic, setup.expected, kMeasuredRate, 1000, rng,
        report, /*counted=*/false);
  const serve::RouterStats before = router.stats();
  const std::size_t count =
      static_cast<std::size_t>(kMeasuredRate * 0.5 * args.seconds);
  OpenLoop run = trace.time("serve.open_loop", [&] {
    return phase("measured", router, traffic, setup.expected, kMeasuredRate,
                 count, rng, report);
  });
  std::vector<double> queue, compute;
  for (const Slot& slot : run.slots) {
    queue.push_back(static_cast<double>(slot.queue_us));
    compute.push_back(static_cast<double>(slot.compute_us));
  }
  const double slo_qps = trace.time("serve.slo_search", [&] {
    return search_slo_qps(router, traffic, setup.expected, rng, report);
  });
  // Batching, hits and coalescing over the measured phase and the ladder:
  // at kMeasuredRate alone requests rarely meet in the queue.
  const serve::RouterStats after = router.stats();
  check_conservation(router, report);

  const double queries = static_cast<double>(after.queries - before.queries);
  const double n = static_cast<double>(all.size());
  report.metric("graph.fingerprint_us",
                trace.total_s("graph.fingerprint") * 1e6 / n, "us");
  report.metric("gnn.predict_us_per_graph_b1",
                trace.total_s("gnn.predict_b1") * 1e6 / n, "us");
  report.metric("gnn.predict_us_per_graph_b64",
                trace.total_s("gnn.predict_b64") * 1e6 / n, "us");
  report.metric("serve.compute_us_p50", percentile(compute, 0.50), "us");
  report.metric("serve.queue_us_p50", percentile(queue, 0.50), "us");
  report.metric("serve.queue_us_p99", percentile(queue, 0.99), "us");
  report.metric("serve.batch_mean",
                static_cast<double>(after.forwards - before.forwards) /
                    static_cast<double>(after.batches - before.batches),
                "count");
  report.metric("serve.hit_ratio",
                static_cast<double>(after.cache_hits - before.cache_hits) /
                    queries,
                "ratio");
  report.metric("serve.coalesced_ratio",
                static_cast<double>(after.coalesced - before.coalesced) /
                    queries,
                "ratio");
  report.metric("serve.latency_us_p99",
                windowed_percentile({latencies(run)}, kWindow, 0.99), "us");
  report.metric("gen.lag_us_p99", percentile(run.lag_us, 0.99), "us");
  report.metric("slo_qps", slo_qps, "1/s");
}

}  // namespace

void run_serve_cold_workload(const Args& args, Report& report, Trace& trace) {
  Setup setup = set_up(args, trace, report);
  if (!setup.router) return;
  if (trace.enabled()) {
    run_traced(args, setup, report, trace);
    report_corpus_layers(trace, setup.traffic.files, report);
    report.metric("trace.untraced_s", trace.untraced_s(), "s");
  } else {
    run_untraced(args, setup, report);
    report.metric("ok_ratio", report.ok_ratio(), "ratio");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  }
}

}  // namespace perfbench
