// Workload `tcp_hot`: autotuner clients that each wait for the answer about
// a recurring region. A closed loop over kConnections loopback connections
// to a spawned irgnn_served; each client thread sends its next request only
// after the previous answer arrived. Traffic is Zipf-skewed over the unique
// graphs of the seeded corpus (traffic.h), and the whole pool fits the
// daemon's prediction cache, which a warm-up pass fills, so nearly every
// measured query is a cache hit: the wire codec, the epoll loop and the hit
// path (fingerprint + cache) do the work, the GNN almost none.
//
// The traced run splits a round trip: net.rtt_us_p50 over one connection,
// serve.hit_us_p50 for the same hot graphs through an in-process Router
// with the daemon's configuration, their difference, and the codec costs
// per request. The corpus, fingerprint and hit-ratio metrics come from
// serve_cold's traced run, which measures them on the same pool.
#include <signal.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "net/client.h"
#include "net/codec.h"
#include "serve/router.h"
#include "traffic.h"

namespace perfbench {

namespace {

using namespace irgnn;

/// Client connections, one client thread each. Half the cores of the
/// 4-core host: with four client threads beside the daemon's event loop and
/// pool, the tail tracked host contention (p99 interquartile range 0.30 of
/// its median over 10 seeds, against 0.04 with two).
constexpr int kConnections = 2;
/// Zipf exponent of the traffic over the pool.
constexpr double kZipfExponent = 1.0;
/// Latency percentiles are taken per window of this many answers.
constexpr std::size_t kWindow = 2000;

/// A spawned irgnn_served on an ephemeral loopback port. The destructor
/// stops it (SIGTERM, the daemon's graceful drain) and reaps it.
class Daemon {
 public:
  Daemon() = default;
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Starts the daemon and reads the bound port from its first line.
  bool start(const std::string& path) {
    int out[2];
    if (pipe(out) != 0) return false;
    pid_ = fork();
    if (pid_ < 0) return false;
    if (pid_ == 0) {
      dup2(out[1], STDOUT_FILENO);
      close(out[0]);
      close(out[1]);
      execl(path.c_str(), path.c_str(), "--port", "0", static_cast<char*>(nullptr));
      _exit(127);
    }
    close(out[1]);
    std::string line;
    char c = 0;
    while (read(out[0], &c, 1) == 1 && c != '\n') line.push_back(c);
    // Keep reading (and discarding) the daemon's stdout so it never blocks
    // on a full pipe; the reader ends when the daemon exits.
    drain_ = std::thread([fd = out[0]] {
      char buf[256];
      while (read(fd, buf, sizeof(buf)) > 0) {
      }
      close(fd);
    });
    const std::size_t colon = line.find("127.0.0.1:");
    if (colon == std::string::npos) return false;
    port_ = static_cast<std::uint16_t>(std::atoi(line.c_str() + colon + 10));
    return port_ != 0;
  }

  std::uint16_t port() const { return port_; }

  /// Drains and reaps the daemon. Returns its exit status (0 when it drained
  /// cleanly) and its peak resident set in MB.
  int stop(double* peak_rss_mb = nullptr) {
    if (pid_ <= 0) return -1;
    kill(pid_, SIGTERM);
    int status = 0;
    struct rusage usage;
    std::memset(&usage, 0, sizeof(usage));
    wait4(pid_, &status, 0, &usage);
    pid_ = -1;
    if (drain_.joinable()) drain_.join();
    if (peak_rss_mb) *peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
    return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
  }

 private:
  pid_t pid_ = -1;
  std::uint16_t port_ = 0;
  std::thread drain_;
};

struct Setup {
  Traffic traffic;
  std::vector<int> expected;
  std::unique_ptr<Daemon> daemon;
  std::vector<std::unique_ptr<net::NetClient>> clients;
};

/// Sends every pool graph once over the first connection, filling the
/// daemon's cache; returns the number of wrong or failed answers.
std::uint64_t warm_cache(Setup& setup) {
  std::uint64_t failed = 0;
  for (std::size_t g = 0; g < setup.traffic.graphs.size(); ++g) {
    auto answer =
        setup.clients[0]->predict(serve::Request(setup.traffic.graphs[g]));
    if (!answer.ok() || !answer->ok() || answer->label != setup.expected[g])
      ++failed;
  }
  return failed;
}

Setup set_up(const Args& args, Trace& trace, Report& report) {
  Setup setup;
  std::uint64_t warm_failed = 0;
  const std::string dir = args.work_dir + "/corpus";
  if (dump_corpus(args, dir, trace, report) == 0) return setup;
  const double setup_s = median_setup_s(kSetups, [&](int) {
    setup.clients.clear();
    setup.daemon.reset();
    setup.traffic = load_traffic(dir, trace, report);
    if (setup.traffic.graphs.empty()) return;
    setup.expected = reference_labels(setup.traffic);
    auto daemon = std::make_unique<Daemon>();
    if (!daemon->start(args.served_path)) {
      report.fail("could not start %s", args.served_path.c_str());
      return;
    }
    for (int c = 0; c < kConnections; ++c) {
      auto client = std::make_unique<net::NetClient>();
      const support::Status status =
          client->connect("127.0.0.1", daemon->port());
      if (!status.ok()) {
        report.fail("connect: %s", status.message());
        return;
      }
      setup.clients.push_back(std::move(client));
    }
    setup.daemon = std::move(daemon);
    warm_failed = warm_cache(setup);
  });
  if (!setup.daemon) return setup;
  report.phase("warm-up", setup.traffic.graphs.size(),
               setup.traffic.graphs.size() - warm_failed, warm_failed,
               /*counted=*/false);
  std::printf("tcp_hot: %llu corpus files -> %zu unique graphs; closed loop, "
              "%d client threads over %d loopback connections to "
              "irgnn_served (default flags)\n",
              static_cast<unsigned long long>(setup.traffic.files),
              setup.traffic.graphs.size(), kConnections, kConnections);
  if (!trace.enabled()) report.metric("setup_s", setup_s, "s");
  return setup;
}

struct ClientRun {
  std::vector<double> latency_us;
  std::uint64_t sent = 0;
  std::uint64_t failed = 0;
};

/// The closed loop: every client thread sends Zipf draws back to back over
/// its own connection until `seconds` pass.
std::vector<ClientRun> closed_loop(Setup& setup, std::uint64_t seed,
                                   double seconds, double* wall_s) {
  const ZipfSampler zipf(setup.traffic.graphs.size(), kZipfExponent,
                         hash_combine64(seed, 0x21FF));
  std::vector<ClientRun> runs(setup.clients.size());
  const auto t0 = Clock::now();
  const auto stop_at =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < setup.clients.size(); ++c) {
    threads.emplace_back([&, c] {
      Rng rng(hash_combine64(seed, c));
      ClientRun& run = runs[c];
      net::NetClient& client = *setup.clients[c];
      while (Clock::now() < stop_at) {
        const std::size_t g = zipf.next(rng);
        const auto s0 = Clock::now();
        auto answer = client.predict(serve::Request(setup.traffic.graphs[g]));
        run.latency_us.push_back(micros_between(s0, Clock::now()));
        ++run.sent;
        if (!answer.ok() || !answer->ok() ||
            answer->label != setup.expected[g])
          ++run.failed;
      }
    });
  }
  for (auto& t : threads) t.join();
  *wall_s = seconds_between(t0, Clock::now());
  return runs;
}

/// The daemon's counters over the wire: conservation, and every request the
/// clients sent arrived, was admitted and was answered.
void check_wire_stats(Setup& setup, std::uint64_t requests, Report& report,
                      net::WireStats* out) {
  const support::Status status = setup.clients[0]->get_stats(out);
  if (!status.ok()) {
    report.fail("stats request: %s", status.message());
    return;
  }
  const net::WireStats& ws = *out;
  if (ws.cache_hits + ws.cache_misses + ws.coalesced != ws.queries)
    report.fail("wire conservation: hits %llu + misses %llu + coalesced %llu "
                "!= queries %llu",
                static_cast<unsigned long long>(ws.cache_hits),
                static_cast<unsigned long long>(ws.cache_misses),
                static_cast<unsigned long long>(ws.coalesced),
                static_cast<unsigned long long>(ws.queries));
  if (ws.net_requests != requests || ws.queries != requests)
    report.fail("daemon parsed %llu requests and counted %llu queries; "
                "clients sent %llu",
                static_cast<unsigned long long>(ws.net_requests),
                static_cast<unsigned long long>(ws.queries),
                static_cast<unsigned long long>(requests));
  if (ws.shed + ws.rejected + ws.deadline_exceeded + ws.internal_errors +
          ws.invalid_arguments + ws.net_decode_errors +
          ws.net_protocol_errors + ws.net_backpressure_shed !=
      0)
    report.fail("daemon shed, refused or failed requests");
}

void stop_daemon(Setup& setup, Report& report, double* peak_rss_mb) {
  setup.clients.clear();
  const int exit_code = setup.daemon->stop(peak_rss_mb);
  if (exit_code != 0)
    report.fail("irgnn_served exited %d after its drain", exit_code);
}

void run_untraced(const Args& args, Setup& setup, Report& report) {
  double wall_s = 0;
  std::vector<ClientRun> runs =
      closed_loop(setup, args.seed, args.seconds, &wall_s);
  std::vector<std::vector<double>> latencies;
  std::uint64_t sent = 0, failed = 0;
  for (ClientRun& run : runs) {
    sent += run.sent;
    failed += run.failed;
    latencies.push_back(std::move(run.latency_us));
  }
  report.phase("measured", sent, sent - failed, failed);
  net::WireStats ws;
  check_wire_stats(setup, setup.traffic.graphs.size() + sent, report, &ws);
  double daemon_rss_mb = 0;
  stop_daemon(setup, report, &daemon_rss_mb);

  report.metric("p50_us", windowed_percentile(latencies, kWindow, 0.50), "us");
  report.metric("p90_us", windowed_percentile(latencies, kWindow, 0.90), "us");
  std::printf("measured: p99 %.1f us (the traced run reports a single "
              "connection's as net.rtt_us_p99)\n",
              windowed_percentile(latencies, kWindow, 0.99));
  report.metric("qps", static_cast<double>(sent - failed) / wall_s, "1/s");
  report.metric("ok_ratio", report.ok_ratio(), "ratio");
  report.metric("peak_rss_mb", daemon_rss_mb, "MB");
}

void run_traced(const Args& args, Setup& setup, Report& report,
                Trace& trace) {
  const Traffic& traffic = setup.traffic;
  const ZipfSampler zipf(traffic.graphs.size(), kZipfExponent,
                         hash_combine64(args.seed, 0x21FF));
  Rng rng(hash_combine64(args.seed, 0x7ACE));
  const std::size_t n = 20000;
  std::vector<std::size_t> draws(n);
  for (std::size_t& g : draws) g = zipf.next(rng);

  // One connection, one request at a time: the full round trip.
  std::vector<double> rtt;
  std::uint64_t failed = 0;
  trace.time("net.round_trip", [&] {
    for (std::size_t g : draws) {
      const auto s0 = Clock::now();
      auto answer = setup.clients[0]->predict(serve::Request(traffic.graphs[g]));
      rtt.push_back(micros_between(s0, Clock::now()));
      if (!answer.ok() || !answer->ok() || answer->label != setup.expected[g])
        ++failed;
    }
  });
  report.phase("round trips", n, n - failed, failed);
  net::WireStats ws;
  check_wire_stats(setup, traffic.graphs.size() + n, report, &ws);
  stop_daemon(setup, report, nullptr);

  // The same hot graphs through an in-process router configured like the
  // daemon, warmed the same way.
  serve::Router router;
  router.publish("static", traffic.model);
  std::vector<double> hit;
  failed = 0;
  trace.time("serve.router_predict", [&] {
    for (const auto& g : traffic.graphs) router.predict(g);
    for (std::size_t g : draws) {
      const auto s0 = Clock::now();
      const serve::Response response = router.predict(traffic.graphs[g]);
      hit.push_back(micros_between(s0, Clock::now()));
      if (!response.ok() || response.label != setup.expected[g]) ++failed;
    }
  });
  report.phase("in-process hits", n, n - failed, failed);

  // Codec costs per request over the same draws.
  net::FrameBytes frame;
  double bytes = 0;
  trace.time("net.encode_request", [&] {
    for (std::size_t i = 0; i < n; ++i) {
      frame.clear();
      net::encode_request_into(i, serve::Request(traffic.graphs[draws[i]]),
                               frame);
      bytes += static_cast<double>(frame.size());
    }
  });
  std::vector<net::FrameBytes> frames(traffic.graphs.size());
  for (std::size_t g = 0; g < traffic.graphs.size(); ++g)
    net::encode_request_into(g, serve::Request(traffic.graphs[g]), frames[g]);
  graph::ProgramGraph decoded;
  net::DecodedRequest request;
  std::uint64_t bad_frames = 0;
  trace.time("net.decode_request", [&] {
    for (std::size_t g : draws) {
      const net::FrameBytes& f = frames[g];
      if (!net::decode_request(f.data() + net::kHeaderBytes,
                               f.size() - net::kHeaderBytes, &request,
                               &decoded)
               .ok())
        ++bad_frames;
    }
  });
  if (bad_frames != 0) report.fail("%llu encoded requests failed to decode",
                                   static_cast<unsigned long long>(bad_frames));
  const double rtt_p50 = percentile(rtt, 0.50);
  const double hit_p50 = percentile(hit, 0.50);
  const double per = 1.0 / static_cast<double>(n);
  report.metric("net.rtt_us_p50", rtt_p50, "us");
  report.metric("net.rtt_us_p99", percentile(rtt, 0.99), "us");
  report.metric("serve.hit_us_p50", hit_p50, "us");
  report.metric("net.overhead_us_p50", rtt_p50 - hit_p50, "us");
  report.metric("net.encode_request_ns",
                trace.total_s("net.encode_request") * 1e9 * per, "ns");
  report.metric("net.decode_request_ns",
                trace.total_s("net.decode_request") * 1e9 * per, "ns");
  report.metric("net.request_bytes_mean", bytes * per, "bytes");
  std::printf("daemon hit ratio %.4f\n", static_cast<double>(ws.cache_hits) /
                                             static_cast<double>(ws.queries));
}

}  // namespace

void run_tcp_hot_workload(const Args& args, Report& report, Trace& trace) {
  Setup setup = set_up(args, trace, report);
  if (!setup.daemon) return;
  if (trace.enabled()) {
    run_traced(args, setup, report, trace);
    report.metric("trace.untraced_s", trace.untraced_s(), "s");
  } else {
    run_untraced(args, setup, report);
  }
}

}  // namespace perfbench
