// Workload `experiment`: the paper pipeline people actually run — one
// core::run_experiment on Sandy Bridge (the largest configuration space,
// 320 configurations) at the figure benches' default scale. sim::explore
// does most of its work, GNN training comes second; net is not used.
//
// Untraced run: run_experiment repeats, each repetition under its own seed
// derived from the workload seed (so no repetition reuses another's pooled
// dataset), at least kMinReps times and until the measured time is spent.
// One operation is one whole run_experiment: p50_us and p90_us are
// percentiles of its wall time, qps the experiments finished per second.
//
// Traced run: the same stages, called one by one through each layer's
// public functions (build_dataset, sim::explore, StaticModel::train and
// evaluate, DecisionTree::fit, ml::select_features) with a span around each
// call, so the experiment's time splits by layer; then one whole
// run_experiment for the answers' quality (the gain shares of the static and
// hybrid models) and the hybrid's profiled fraction.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <vector>

#include "bench.h"
#include "core/dataset.h"
#include "core/experiment.h"
#include "gnn/model.h"
#include "graph/fingerprint.h"
#include "ml/cross_validation.h"
#include "ml/decision_tree.h"
#include "ml/genetic_selector.h"
#include "sim/exploration.h"
#include "sim/machine.h"
#include "support/rng.h"
#include "tensor/tensor.h"
#include "workloads/suite.h"

namespace perfbench {

namespace {

using namespace irgnn;

/// Threads for every parallel stage: the 4-core host's cores. Results are
/// bit-identical for every thread count; at 2 threads one experiment took
/// 26.6 s instead of ~10.5 s, leaving no room for several per run.
constexpr int kThreads = 4;

/// Seeds of the set-up warm-ups: fixed, so setup_s does not depend on the
/// workload seed, and unlike any measured repetition's options.
constexpr std::uint64_t kWarmUpSeed = 0x5E7u;

/// Seconds of untimed warm-ups before the timed set-ups. After an idle
/// spell, a 4-vCPU virtual machine ran the set-ups at 0.05-0.07 s instead of
/// 0.02 s for about a second.
constexpr double kHostWarmUpS = 1.5;

/// Fewest repetitions of the untraced run, whatever --seconds allows.
constexpr int kMinReps = 2;

/// The figure benches' defaults (bench/bench_common.h make_parser).
core::ExperimentOptions fig_options(std::uint64_t seed) {
  core::ExperimentOptions options;
  options.num_sequences = 4;
  options.epochs = 8;
  options.hidden_dim = 32;
  options.num_layers = 2;
  options.folds = 10;
  options.num_labels = 13;
  options.seed = seed;
  options.num_threads = kThreads;
  return options;
}

/// (x - 1) / (dynamic - 1): the share of the dynamic model's gain over the
/// default configuration that `x` recovers.
double gain_share(double speedup, double dynamic_speedup) {
  return (speedup - 1.0) / (dynamic_speedup - 1.0);
}

/// Lazy set-up the first experiment would otherwise pay: the global thread
/// pool, the suite tables, the pass pipeline (a one-sequence dataset under
/// a seed no measured repetition uses) and the tensor arena (one short
/// training run).
void warm_up(std::uint64_t seed) {
  tensor::set_kernel_parallelism(kThreads);
  (void)workloads::suite_traits();
  (void)sim::MachineDesc::sandy_bridge();
  const core::Dataset dataset = core::build_dataset({1, seed, kThreads});
  std::vector<const graph::ProgramGraph*> graphs;
  std::vector<int> labels;
  for (std::size_t r = 0; r < dataset.num_regions(); ++r) {
    graphs.push_back(&dataset.graph(r, 0));
    labels.push_back(static_cast<int>(r % 13));
  }
  gnn::ModelConfig cfg;
  cfg.vocab_size = graph::vocabulary_size();
  cfg.hidden_dim = 32;
  cfg.num_layers = 2;
  cfg.epochs = 1;
  cfg.seed = seed;
  cfg.num_threads = kThreads;
  gnn::StaticModel model(cfg);
  model.train(graphs, labels);
}

/// Correctness gates over one experiment; returns the regions answered
/// correctly (violations go through report.fail).
std::size_t check_experiment(const core::ExperimentResult& result,
                             Report& report) {
  std::size_t ok = 0;
  const int L = static_cast<int>(result.labels.size());
  for (const core::RegionOutcome& region : result.regions) {
    const bool valid = region.fold >= 0 && region.static_label >= 0 &&
                       region.static_label < L &&
                       region.dynamic_label >= 0 && region.dynamic_label < L;
    if (valid) {
      ++ok;
    } else {
      report.fail("region %s has no valid label (static %d, dynamic %d, "
                  "fold %d)",
                  region.name.c_str(), region.static_label,
                  region.dynamic_label, region.fold);
    }
  }
  if (result.serve_shed != 0 || result.serve_rejected != 0 ||
      result.serve_deadline_exceeded != 0)
    report.fail("fold servers shed %llu, rejected %llu, expired %llu",
                static_cast<unsigned long long>(result.serve_shed),
                static_cast<unsigned long long>(result.serve_rejected),
                static_cast<unsigned long long>(
                    result.serve_deadline_exceeded));
  const double gains[] = {
      gain_share(result.static_speedup, result.dynamic_speedup),
      gain_share(result.hybrid_speedup, result.dynamic_speedup),
      result.hybrid_profiled_fraction};
  for (double g : gains)
    if (!std::isfinite(g)) report.fail("experiment gain is not finite");
  return ok;
}

void run_untraced(const Args& args, Report& report) {
  const sim::MachineDesc machine = sim::MachineDesc::sandy_bridge();
  std::vector<double> walls_us;
  std::uint64_t regions = 0, answered = 0;
  const auto t_start = Clock::now();
  for (std::uint64_t rep = 0;
       rep < kMinReps ||
       seconds_between(t_start, Clock::now()) < args.seconds;
       ++rep) {
    const core::ExperimentOptions options =
        fig_options(hash_combine64(args.seed, rep));
    const auto t0 = Clock::now();
    const core::ExperimentResult result =
        core::run_experiment(machine, options);
    walls_us.push_back(micros_between(t0, Clock::now()));
    regions += result.regions.size();
    answered += check_experiment(result, report);
    std::printf("experiment rep %llu: %.3f s, static %.4f hybrid %.4f "
                "dynamic %.4f speedup, profiled %.3f\n",
                static_cast<unsigned long long>(rep), walls_us.back() * 1e-6,
                result.static_speedup, result.hybrid_speedup,
                result.dynamic_speedup, result.hybrid_profiled_fraction);
  }
  const double wall_s = seconds_between(t_start, Clock::now());
  report.phase("measured", regions, answered, regions - answered);
  // One operation is one whole run_experiment.
  const double experiments = static_cast<double>(walls_us.size());
  report.metric("p50_us", median(walls_us), "us");
  report.metric("p90_us", percentile(walls_us, 0.90), "us");
  report.metric("qps", experiments / wall_s, "1/s");
}

/// The stages of run_experiment, one public call at a time.
void run_traced(const Args& args, Report& report, Trace& trace) {
  const core::ExperimentOptions options = fig_options(args.seed);
  const sim::MachineDesc machine = sim::MachineDesc::sandy_bridge();

  const core::Dataset dataset = trace.time("core.dataset_build", [&] {
    return core::build_dataset(
        {options.num_sequences, options.seed, options.num_threads});
  });
  std::set<std::uint64_t> unique;
  for (const auto& row : dataset.graphs)
    for (const auto& g : row) unique.insert(graph::fingerprint(g));
  const std::size_t R = dataset.num_regions();
  const std::size_t S = dataset.num_sequences();

  const sim::ExplorationTable table = trace.time("sim.explore", [&] {
    return sim::explore(machine, workloads::suite_traits(),
                        options.size_scale, options.num_threads);
  });
  const double simulations =
      static_cast<double>(table.time.size() * table.configurations.size());
  const std::vector<int> labels =
      sim::reduce_labels(table, options.num_labels);
  const std::vector<int> oracle = sim::best_labels(table, labels);
  const int L = static_cast<int>(labels.size());

  // Static model per fold: train, then out-of-fold labels and embeddings.
  const auto folds = ml::k_fold(static_cast<int>(R), options.folds,
                                options.seed);
  std::vector<int> static_label(R, -1);
  std::vector<std::vector<float>> embedding(R);
  std::vector<double> train_graphs(folds.size(), 0);
  ml::for_each_fold(folds.size(), options.num_threads, [&](std::size_t f) {
    std::vector<const graph::ProgramGraph*> graphs;
    std::vector<int> y;
    for (int r : folds[f].train_indices)
      for (std::size_t s = 0; s < S; ++s) {
        graphs.push_back(&dataset.graph(r, s));
        y.push_back(oracle[r]);
      }
    gnn::ModelConfig cfg;
    cfg.vocab_size = graph::vocabulary_size();
    cfg.num_labels = L;
    cfg.hidden_dim = options.hidden_dim;
    cfg.num_layers = options.num_layers;
    cfg.epochs = options.epochs;
    cfg.learning_rate = options.learning_rate;
    cfg.seed = hash_combine64(options.seed, f);
    cfg.num_threads = options.num_threads;
    gnn::StaticModel model(cfg);
    trace.time("gnn.train", [&] { model.train(graphs, y); });
    train_graphs[f] = static_cast<double>(graphs.size()) * options.epochs;

    graphs.clear();
    for (int r : folds[f].validation_indices)
      graphs.push_back(&dataset.graph(r, 0));
    gnn::Evaluation eval;
    trace.time("gnn.evaluate",
               [&] { model.evaluate(graphs, eval, /*want_embeddings=*/true); });
    const std::size_t H = static_cast<std::size_t>(options.hidden_dim);
    for (std::size_t i = 0; i < graphs.size(); ++i) {
      const int r = folds[f].validation_indices[i];
      static_label[r] = eval.predictions[i];
      embedding[r].assign(eval.embeddings.begin() + i * H,
                          eval.embeddings.begin() + (i + 1) * H);
    }
  });

  // Dynamic baseline (counters tree) and the flag-prediction model (GA
  // subset + tree over the embeddings), per fold as in run_experiment.
  std::vector<std::vector<float>> counters(R);
  for (std::size_t r = 0; r < R; ++r)
    for (const auto& c : table.probe_counters[r]) {
      counters[r].push_back(static_cast<float>(c.package_power));
      counters[r].push_back(static_cast<float>(c.l3_miss_ratio));
    }
  std::vector<int> dynamic_label(R, -1);
  ml::for_each_fold(folds.size(), options.num_threads, [&](std::size_t f) {
    std::vector<std::vector<float>> X, X_embed;
    std::vector<int> y;
    for (int r : folds[f].train_indices) {
      X.push_back(counters[r]);
      X_embed.push_back(embedding[r]);
      y.push_back(oracle[r]);
    }
    ml::DecisionTree tree;
    trace.time("ml.tree_fit", [&] { tree.fit(X, y); });
    for (int r : folds[f].validation_indices)
      dynamic_label[r] = tree.predict(counters[r]);

    ml::GeneticSelectorOptions ga;
    ga.population_size = options.ga_population;
    ga.generations = options.ga_generations;
    ga.subset_size = std::min(options.ga_subset,
                              static_cast<int>(X_embed[0].size()));
    ga.seed = hash_combine64(options.seed, 0xF1A6);
    const auto selected = trace.time("ml.ga", [&] {
      return ml::select_features(static_cast<int>(X_embed[0].size()),
                                 ml::decision_tree_cv_fitness(X_embed, y), ga);
    });
    std::vector<std::vector<float>> X_sub;
    for (const auto& row : X_embed) {
      X_sub.emplace_back();
      for (int i : selected.best_subset) X_sub.back().push_back(row[i]);
    }
    ml::DecisionTree flag_tree;
    trace.time("ml.tree_fit", [&] { flag_tree.fit(X_sub, y); });
  });

  std::uint64_t answered = 0;
  for (std::size_t r = 0; r < R; ++r) {
    if (static_label[r] >= 0 && static_label[r] < L && dynamic_label[r] >= 0 &&
        dynamic_label[r] < L) {
      ++answered;
    } else {
      report.fail("traced stage left region %zu without a valid label", r);
    }
  }
  report.phase("traced", R, answered, R - answered);

  double train_graphs_total = 0;
  for (double g : train_graphs) train_graphs_total += g;
  const double train_s = trace.total_s("gnn.train");
  const double explore_s = trace.total_s("sim.explore");
  report.metric("core.dataset_build_s", trace.total_s("core.dataset_build"),
                "s");
  report.metric("core.dataset_unique_graphs",
                static_cast<double>(unique.size()), "count");
  report.metric("sim.explore_s", explore_s, "s");
  report.metric("sim.simulations", simulations, "count");
  report.metric("sim.simulations_per_s", simulations / explore_s, "1/s");
  report.metric("gnn.train_s", train_s, "s");
  report.metric("gnn.train_graphs_per_s", train_graphs_total / train_s,
                "1/s");
  report.metric("gnn.evaluate_s", trace.total_s("gnn.evaluate"), "s");
  report.metric("ml.ga_s", trace.total_s("ml.ga"), "s");
  report.metric("ml.tree_fit_s", trace.total_s("ml.tree_fit"), "s");

  // The answers' quality and the hybrid's routing share come from the
  // whole pipeline, so one whole run_experiment follows the staged calls.
  const core::ExperimentResult result = trace.time(
      "core.run_experiment", [&] { return core::run_experiment(machine, options); });
  const std::size_t ok = check_experiment(result, report);
  report.phase("run_experiment", result.regions.size(), ok,
               result.regions.size() - ok);
  report.metric("static_vs_dynamic_gain",
                gain_share(result.static_speedup, result.dynamic_speedup),
                "ratio");
  report.metric("hybrid_vs_dynamic_gain",
                gain_share(result.hybrid_speedup, result.dynamic_speedup),
                "ratio");
  report.metric("hybrid_profiled_fraction", result.hybrid_profiled_fraction,
                "ratio");
}

}  // namespace

void run_experiment_workload(const Args& args, Report& report, Trace& trace) {
  // A host that sat idle runs its first second or so of work 2 to 3 times
  // slower; untimed warm-ups absorb that before the timed set-ups.
  trace.time("setup.host_warm_up", [&] {
    for (const auto t0 = Clock::now();
         seconds_between(t0, Clock::now()) < kHostWarmUpS;)
      warm_up(kWarmUpSeed);
  });
  const double setup_s = median_setup_s(9, [&](int i) {
    trace.time("setup.warm_up",
               [&] { warm_up(hash_combine64(kWarmUpSeed, i)); });
  });
  std::printf("experiment: Sandy Bridge, %d threads, fig-bench scale "
              "(4 sequences, 8 epochs, hidden 32, 2 layers, 10 folds)\n",
              kThreads);
  if (trace.enabled()) {
    run_traced(args, report, trace);
    report.metric("trace.untraced_s", trace.untraced_s(), "s");
  } else {
    run_untraced(args, report);
    report.metric("setup_s", setup_s, "s");
    report.metric("ok_ratio", report.ok_ratio(), "ratio");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  }
}

}  // namespace perfbench
