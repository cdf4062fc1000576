// The traffic both serve workloads draw from: a seeded 32-sequence
// corpus::dump_suite corpus, ingested with corpus::ingest_directory into its
// unique region graphs, and the served model built from the same flags
// irgnn_served uses by default (bench/net_common.h), so in-process and
// out-of-process answers can be checked against one offline reference.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "gnn/model.h"
#include "graph/program_graph.h"
#include "support/rng.h"

namespace perfbench {

struct Traffic {
  std::vector<irgnn::graph::ProgramGraph> graphs;  // unique, ingest order
  std::shared_ptr<const irgnn::gnn::StaticModel> model;
  std::uint64_t files = 0;
};

/// Set-up repetitions of the serve workloads; setup_s is their median.
inline constexpr int kSetups = 5;

/// Generates the workload's input: dumps the seeded corpus under `dir`
/// (emptied first) and returns the file count (0 and a report.fail on
/// error); span corpus.dump. Input generation, so outside setup_s.
std::uint64_t dump_corpus(const Args& args, const std::string& dir,
                          Trace& trace, Report& report);

/// The serving side's set-up: ingests the corpus under `dir` and builds the
/// served model; spans corpus.ingest and model.build. A failed ingest is a
/// report.fail and leaves `graphs` empty.
Traffic load_traffic(const std::string& dir, Trace& trace, Report& report);

/// Offline reference: one StaticModel::predict_into over every graph.
std::vector<int> reference_labels(const Traffic& traffic);

/// Per-layer metrics of input generation and set-up: corpus.dump_s (the one
/// dump), and corpus.ingest_s, corpus.ingest_files_per_s and model.build_s
/// as means over the set-up repetitions.
void report_corpus_layers(const Trace& trace, std::uint64_t files,
                          Report& report);

/// Zipf-skewed draws over [0, n): rank k (over a seeded permutation of the
/// indices) has weight 1 / (k + 1)^exponent.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double exponent, std::uint64_t seed);
  std::size_t next(irgnn::Rng& rng) const;

 private:
  std::vector<double> cdf_;
  std::vector<std::size_t> index_of_rank_;
};

}  // namespace perfbench
