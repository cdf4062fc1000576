#include "traffic.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <numeric>

#include "bench/net_common.h"
#include "corpus/ingest.h"
#include "corpus/suite_dump.h"
#include "support/argparse.h"

namespace perfbench {

using namespace irgnn;

namespace {

/// Flag sequences of the dumped corpus.
constexpr std::size_t kCorpusSequences = 32;

/// irgnn_served's model: its flag defaults, parsed through the same helper.
gnn::ModelConfig served_model_config() {
  ArgParser parser("perfbench", "served model flags");
  bench::add_model_flags(parser);
  const char* argv[] = {"perfbench"};
  parser.parse(1, argv);
  return bench::model_config_from(parser, /*threads=*/0);
}

}  // namespace

std::uint64_t dump_corpus(const Args& args, const std::string& dir,
                          Trace& trace, Report& report) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  corpus::SuiteDumpOptions dump;
  dump.num_sequences = kCorpusSequences;
  dump.seed = hash_combine64(args.seed, 0xC0DE);
  std::size_t files = 0;
  const support::Status dumped = trace.time(
      "corpus.dump", [&] { return corpus::dump_suite(dir, dump, &files); });
  if (!dumped.ok()) {
    report.fail("dump_suite: %s", dumped.message());
    return 0;
  }
  return files;
}

Traffic load_traffic(const std::string& dir, Trace& trace, Report& report) {
  Traffic traffic;
  corpus::IngestResult ingested;
  const support::Status status = trace.time("corpus.ingest", [&] {
    return corpus::ingest_directory(dir, corpus::IngestOptions{}, &ingested);
  });
  if (!status.ok() || ingested.stats.files_failed != 0 ||
      ingested.graphs.empty()) {
    report.fail("ingest_directory: %s, %llu of %llu files failed",
                status.message(),
                static_cast<unsigned long long>(ingested.stats.files_failed),
                static_cast<unsigned long long>(ingested.stats.files_scanned));
    return traffic;
  }
  traffic.graphs = std::move(ingested.graphs);
  traffic.files = ingested.stats.files_scanned;

  traffic.model = trace.time("model.build", [] {
    return std::make_shared<const gnn::StaticModel>(served_model_config());
  });
  return traffic;
}

std::vector<int> reference_labels(const Traffic& traffic) {
  std::vector<const graph::ProgramGraph*> all;
  for (const auto& g : traffic.graphs) all.push_back(&g);
  std::vector<int> labels;
  traffic.model->predict_into(all, labels);
  return labels;
}

ZipfSampler::ZipfSampler(std::size_t n, double exponent, std::uint64_t seed)
    : cdf_(n), index_of_rank_(n) {
  double total = 0;
  for (std::size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), exponent);
    cdf_[k] = total;
  }
  for (double& c : cdf_) c /= total;
  std::iota(index_of_rank_.begin(), index_of_rank_.end(), std::size_t{0});
  Rng rng(seed);
  rng.shuffle(index_of_rank_);
}

std::size_t ZipfSampler::next(Rng& rng) const {
  const double u = rng.uniform();
  const std::size_t rank = static_cast<std::size_t>(
      std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  return index_of_rank_[std::min(rank, index_of_rank_.size() - 1)];
}

void report_corpus_layers(const Trace& trace, std::uint64_t files,
                          Report& report) {
  const double ingest_s =
      trace.total_s("corpus.ingest") /
      static_cast<double>(trace.count("corpus.ingest"));
  report.metric("corpus.dump_s", trace.total_s("corpus.dump"), "s");
  report.metric("corpus.ingest_s", ingest_s, "s");
  report.metric("corpus.ingest_files_per_s",
                static_cast<double>(files) / ingest_s, "1/s");
  report.metric("model.build_s",
                trace.total_s("model.build") /
                    static_cast<double>(trace.count("model.build")),
                "s");
}

}  // namespace perfbench
