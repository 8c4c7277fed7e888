// The repository benchmark: three seeded workloads driven through the
// public entry points (core::run_batch over AlSimulator, and the
// SessionEngine enqueue/drain protocol), with output checks on every op.
//
//   perfbench --workload <paper_refit|wide_pool|serve_tenants> --seed <n>
//             --seconds <s> --trace <0|1> --data <dir> --out <dir>
//
// --trace 0 prints the end-to-end metrics (tracing off); --trace 1 runs a
// fixed amount of work, each block once untraced and once with the
// program's trace switch on, and prints the per-layer metrics. The last stdout line
// is one JSON object {correct, attempted, failed, metrics}. perfbench/
// README.md documents the workloads and every metric.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "alamr/core/batch.hpp"
#include "alamr/core/parallel.hpp"
#include "alamr/core/serve.hpp"
#include "alamr/core/trace.hpp"
#include "alamr/data/csv.hpp"
#include "alamr/data/transforms.hpp"
#include "alamr/linalg/simd.hpp"
#include "checks.hpp"
#include "spans.hpp"
#include "synthetic_dataset.hpp"

namespace {

using namespace alamr;
namespace fs = std::filesystem;
using perfbench::now_s;
using perfbench::SpanLog;
using perfbench::SpanScope;

// ---------------------------------------------------------------------------
// Command line, context, small statistics
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  fs::path data_dir;
  fs::path out_dir;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
      have_seed = true;
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
      have_seconds = true;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") throw std::invalid_argument("--trace takes 0 or 1");
      a.trace = value == "1";
      have_trace = true;
    } else if (key == "--data") {
      a.data_dir = value;
    } else if (key == "--out") {
      a.out_dir = value;
    } else {
      throw std::invalid_argument("unknown argument " + std::string(key));
    }
  }
  if (argc % 2 == 0) throw std::invalid_argument("every flag takes one value");
  if (a.workload.empty() || !have_seed || !have_seconds || !have_trace ||
      a.data_dir.empty() || a.out_dir.empty()) {
    throw std::invalid_argument(
        "usage: perfbench --workload W --seed N --seconds S --trace 0|1 "
        "--data DIR --out DIR");
  }
  if (!(a.seconds > 0.0) || a.seconds > 600.0) {
    throw std::invalid_argument("--seconds must be in (0, 600]");
  }
  return a;
}

std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a + 0x9e3779b97f4a7c15ULL * (b + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::size_t nproc() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Nearest-rank percentile, q in [0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

/// Runs `setup` at least five times and for at least one second (at
/// most 200 times) and returns the median duration; the state of the
/// last repetition is what the workload then uses.
double median_setup(const std::function<void()>& setup) {
  std::vector<double> durations;
  const double t0 = now_s();
  while (durations.size() < 5 ||
         (now_s() - t0 < 1.0 && durations.size() < 200)) {
    const double s = now_s();
    setup();
    durations.push_back(now_s() - s);
  }
  return median(durations);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Outcome {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Metric> metrics;
  /// Printed in the report but not in the JSON result: rmse_cost_final is
  /// too heavy-tailed across seeds to hold any bound (see README.md).
  std::vector<Metric> printed;
  std::string digest;
  std::string notes;  // extra "# ..." lines for the human-readable report
};

void record_failure(Outcome& out, const std::string& what) {
  ++out.failed;
  if (out.failed <= 10) std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
}

void print_context(const Args& args, std::size_t lanes, std::size_t workers) {
  std::printf(
      "# context: {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"simd_level\": \"%s\", \"cpu_features\": \"%s\", "
      "\"nproc\": %zu, \"pool_lanes\": %zu, \"retrain_workers\": %zu}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace ? 1 : 0,
      linalg::simd::to_string(linalg::simd::active_level()),
      linalg::simd::cpu_features().c_str(), nproc(), lanes, workers);
}

/// Per-layer metric names, in report order. Every traced run reports
/// all of them; a layer a workload does not exercise reads 0.
const std::vector<std::pair<std::string, std::string>>& layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"core.sim.refit_s", "s"},
      {"core.sim.predict_s", "s"},
      {"core.sim.rmse_s", "s"},
      {"core.sim.select_s", "s"},
      {"core.sim.reveal_s", "s"},
      {"core.sim.init_s", "s"},
      {"core.sim.shared_context_s", "s"},
      {"data.load_s", "s"},
      {"gp.fit_full", "count"},
      {"gp.fit_incremental", "count"},
      {"gp.incremental_frac", "ratio"},
      {"opt.keep_previous", "count"},
      {"opt.degrade_nm", "count"},
      {"linalg.cholesky_extend", "count"},
      {"linalg.jitter_retries", "count"},
      {"gp.panel_rebuilds", "count"},
      {"gp.panel_rows_appended", "count"},
      {"gp.panel_append_frac", "ratio"},
      {"core.strategy.rgma_filtered", "count"},
      {"gp.arena_peak_mb", "MB"},
      {"core.batch.wall_s", "s"},
      {"core.batch.lane_util", "ratio"},
      {"core.serve.drain_suggest_s", "s"},
      {"core.serve.drain_suggest_p50_s", "s"},
      {"core.serve.drain_suggest_p95_s", "s"},
      {"core.serve.coalesce_width", "count"},
      {"core.serve.drain_observe_s", "s"},
      {"core.serve.retrains_scheduled", "count"},
      {"core.serve.epoch_swaps", "count"},
      {"core.serve.steal_frac", "ratio"},
      {"core.serve.open_s", "s"},
      {"core.serve.finish_s", "s"},
      {"core.checkpoint.evict_s", "s"},
      {"core.checkpoint.restore_s", "s"},
      {"core.trace.overhead_frac", "ratio"},
      {"bench.span_coverage", "ratio"},
  };
  return names;
}

/// Fills in every per-layer metric from `values` (missing ones read 0).
std::vector<Metric> layer_report(const std::vector<std::pair<std::string, double>>& values) {
  std::vector<Metric> out;
  for (const auto& [name, unit] : layer_metrics()) {
    double v = 0.0;
    for (const auto& [n, x] : values) {
      if (n == name) v = x;
    }
    out.push_back({name, v, unit});
  }
  return out;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Counters shared by every workload, under their module names.
void add_model_counters(std::vector<std::pair<std::string, double>>& v,
                        const core::trace::TraceReport& g) {
  const auto c = [&](std::string_view name) {
    return static_cast<double>(g.counter(name));
  };
  v.emplace_back("gp.fit_full", c("gpr.fit_full"));
  v.emplace_back("gp.fit_incremental", c("gpr.fit_incremental"));
  v.emplace_back("gp.incremental_frac",
                 ratio(c("gpr.fit_incremental"), c("gpr.fit_full") + c("gpr.fit_incremental")));
  v.emplace_back("opt.keep_previous", c("gpr.opt_keep_previous"));
  v.emplace_back("opt.degrade_nm", c("gpr.opt_degrade_nm"));
  v.emplace_back("linalg.cholesky_extend", c("cholesky.extend"));
  v.emplace_back("linalg.jitter_retries", c("cholesky.jitter_retries"));
  v.emplace_back("gp.panel_rebuilds", c("panel.rebuilds"));
  v.emplace_back("gp.panel_rows_appended", c("panel.rows_appended"));
  v.emplace_back("gp.panel_append_frac",
                 ratio(c("panel.rows_appended"), c("panel.rows_appended") + c("panel.rebuilds")));
  v.emplace_back("core.strategy.rgma_filtered", c("strategy.rgma_filtered"));
}

void print_span_table(const SpanLog& log, const std::vector<std::string>& detached) {
  for (const auto& [name, t] : log.totals(detached)) {
    std::printf("# span %-26s count %8llu  total %10.4f s  self %10.4f s\n",
                name.c_str(), static_cast<unsigned long long>(t.count), t.total_s,
                t.self_s);
  }
}

// ---------------------------------------------------------------------------
// Offline workloads: paper_refit and wide_pool
// ---------------------------------------------------------------------------

enum class StrategyKind { kRgma, kRandGoodness, kMaxSigma, kRandUniform };

struct OfflineConfig {
  const char* label;
  StrategyKind strategy;
  std::size_t n_init;
};

struct OfflineSpec {
  std::vector<OfflineConfig> configs;
  std::size_t iterations = 0;
  std::size_t refit_iterations = 0;
  /// Rounds whose trajectories define the quality metrics and the digest
  /// (every run completes them, so they repeat exactly at a seed).
  std::size_t quality_rounds = 1;
  /// Fixed rounds of a traced run (run once untraced, once traced).
  std::size_t trace_rounds = 1;
  std::function<data::Dataset()> load;
};

core::AlOptions offline_options(const OfflineSpec& spec, std::size_t n_init) {
  core::AlOptions o;
  o.n_test = 200;
  o.n_init = n_init;
  o.max_iterations = spec.iterations;
  o.initial_fit.restarts = 2;
  o.initial_fit.max_opt_iterations = 50;
  o.refit.restarts = 0;
  o.refit.max_opt_iterations = spec.refit_iterations;
  o.rmse_stride = 1;
  return o;
}

std::unique_ptr<core::Strategy> make_strategy(StrategyKind kind, double limit_log10) {
  switch (kind) {
    case StrategyKind::kRgma:
      return std::make_unique<core::Rgma>(limit_log10);
    case StrategyKind::kRandGoodness:
      return std::make_unique<core::RandGoodness>();
    case StrategyKind::kMaxSigma:
      return std::make_unique<core::MaxSigma>();
    case StrategyKind::kRandUniform:
      return std::make_unique<core::RandUniform>();
  }
  throw std::logic_error("unknown strategy");
}

/// Delegates to a strategy and timestamps every select() call, so the
/// offline workloads time each acquisition from outside the simulator:
/// the gap between two consecutive selections of one trajectory is one
/// AL iteration (predict, select, reveal, refit, RMSE). run_batch clones
/// the strategy once per lane, and each clone gets its own stamp buffer.
class TimedStrategy final : public core::Strategy {
 public:
  struct Sink {
    std::mutex mutex;
    std::vector<std::shared_ptr<std::vector<double>>> buffers;  // guarded by mutex
  };

  TimedStrategy(std::unique_ptr<core::Strategy> inner, Sink& sink)
      : inner_(std::move(inner)), sink_(sink), stamps_(std::make_shared<std::vector<double>>()) {
    const std::lock_guard<std::mutex> lock(sink.mutex);
    sink.buffers.push_back(stamps_);
  }

  std::string name() const override { return inner_->name(); }
  bool needs_mean() const noexcept override { return inner_->needs_mean(); }
  std::unique_ptr<core::Strategy> clone() const override {
    return std::make_unique<TimedStrategy>(inner_->clone(), sink_);
  }
  std::optional<std::size_t> select(const core::CandidateView& candidates,
                                    stats::Rng& rng) const override {
    stamps_->push_back(now_s());
    return inner_->select(candidates, rng);
  }

 private:
  std::unique_ptr<core::Strategy> inner_;
  Sink& sink_;
  std::shared_ptr<std::vector<double>> stamps_;  // written by one lane
};

/// What the workload's set-up builds: the dataset and one simulator per
/// configuration.
struct OfflineState {
  data::Dataset dataset;
  std::vector<std::unique_ptr<core::AlSimulator>> sims;
  std::vector<std::unique_ptr<core::Strategy>> strategies;
};

OfflineState offline_setup(const OfflineSpec& spec, SpanLog* log) {
  OfflineState st;
  {
    SpanScope span(log, "data.load");
    st.dataset = spec.load();
  }
  for (const OfflineConfig& c : spec.configs) {
    SpanScope span(log, "sim.construct");
    st.sims.push_back(std::make_unique<core::AlSimulator>(
        st.dataset, offline_options(spec, c.n_init)));
    st.strategies.push_back(make_strategy(c.strategy, st.sims.back()->memory_limit_log10()));
  }
  return st;
}

struct OfflineTally {
  double call_wall = 0.0;
  std::size_t iterations = 0;
  std::size_t trajectories = 0;
  std::vector<double> step_ms;  // one per AL iteration, from TimedStrategy
  std::string calls;            // one report line per run_batch call
  // quality set
  double rmse_sum = 0.0;
  double regret_sum = 0.0;
  double cost_sum = 0.0;
  std::size_t quality_n = 0;
  core::trace::Fingerprint digest;
  // traced runs
  std::vector<core::trace::TraceReport> traces;
};

/// One round: one run_batch call per configuration, `lanes` trajectories
/// each, with every trajectory checked.
void offline_round(const OfflineSpec& spec, const OfflineState& st, std::uint64_t seed,
                   std::size_t round, std::size_t lanes, OfflineTally& tally,
                   Outcome& out, SpanLog* log, bool keep_traces) {
  for (std::size_t c = 0; c < spec.configs.size(); ++c) {
    core::BatchOptions batch;
    batch.trajectories = lanes;
    batch.threads = lanes;
    batch.seed = mix_seed(seed, round * 16 + c);
    const std::uint64_t op = round * 16 + c;
    std::vector<core::TrajectoryResult> results;
    TimedStrategy::Sink sink;
    const TimedStrategy timed(st.strategies[c]->clone(), sink);
    const double t0 = now_s();
    try {
      SpanScope span(log, "batch.run_batch", op);
      results = core::run_batch(*st.sims[c], timed, batch);
    } catch (const std::exception& e) {
      out.attempted += lanes;
      for (std::size_t t = 0; t < lanes; ++t) {
        record_failure(out, std::string("run_batch threw: ") + e.what());
      }
      continue;
    }
    const double wall = now_s() - t0;
    for (const auto& stamps : sink.buffers) {
      for (std::size_t i = 1; i < stamps->size(); ++i) {
        tally.step_ms.push_back(1e3 * ((*stamps)[i] - (*stamps)[i - 1]));
      }
    }
    char line[160];
    std::snprintf(line, sizeof line, "# round %zu %-22s %8.3f s, iterations", round,
                  spec.configs[c].label, wall);
    tally.calls += line;
    for (const core::TrajectoryResult& r : results) {
      tally.calls += ' ';
      tally.calls += std::to_string(r.iterations.size());
      ++out.attempted;
      const perfbench::Verdict v =
          perfbench::check_trajectory(r, st.dataset, spec.iterations);
      if (!v.empty()) record_failure(out, spec.configs[c].label + std::string(": ") + v);
      tally.iterations += r.iterations.size();
      if (round < spec.quality_rounds) {
        const bool any = !r.iterations.empty();
        tally.rmse_sum += any ? r.iterations.back().rmse_cost : r.initial_rmse_cost;
        tally.regret_sum += any ? r.iterations.back().cumulative_regret : 0.0;
        tally.cost_sum += any ? r.iterations.back().cumulative_cost : 0.0;
        ++tally.quality_n;
        perfbench::digest_trajectory(tally.digest, r);
      }
      if (keep_traces) tally.traces.push_back(r.trace);
    }
    tally.calls += '\n';
    tally.trajectories += results.size();
    tally.call_wall += wall;
  }
}

Outcome run_offline(const OfflineSpec& spec, const Args& args) {
  const std::size_t lanes = std::min<std::size_t>(nproc(), 4);
  print_context(args, lanes, 0);
  Outcome out;

  OfflineState st;
  const double setup_s = median_setup([&] { st = offline_setup(spec, nullptr); });

  if (!args.trace) {
    OfflineTally tally;
    const double t0 = now_s();
    double last_round = 0.0;
    std::size_t round = 0;
    while (round < spec.quality_rounds || now_s() - t0 + last_round <= args.seconds) {
      const double r0 = now_s();
      offline_round(spec, st, args.seed, round, lanes, tally, out, nullptr, false);
      last_round = now_s() - r0;
      ++round;
    }
    const double q = static_cast<double>(std::max<std::size_t>(tally.quality_n, 1));
    out.metrics = {
        {"setup_s", setup_s, "s"},
        {"al_iters_per_s", tally.iterations / tally.call_wall, "1/s"},
        {"req_per_s", tally.trajectories / tally.call_wall, "1/s"},
        {"suggest_p50_ms", percentile(tally.step_ms, 0.50), "ms"},
        {"suggest_p95_ms", percentile(tally.step_ms, 0.95), "ms"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"regret_nh_final", tally.regret_sum / q, "node-hours"},
        {"cost_nh_final", tally.cost_sum / q, "node-hours"},
    };
    out.printed = {{"rmse_cost_final", tally.rmse_sum / q, "node-hours"}};
    out.digest = tally.digest.hex();
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "# rounds %zu, trajectories %zu, iterations %zu, step latency samples %zu, "
                  "quality set %zu trajectories\n",
                  round, tally.trajectories, tally.iterations, tally.step_ms.size(),
                  tally.quality_n);
    out.notes = tally.calls + buf;
    return out;
  }

  // Traced run: each round runs untraced, then again traced, so drift
  // in the host's speed does not bias the overhead estimate.
  SpanLog log;
  st = offline_setup(spec, &log);
  core::trace::global_collector().clear();
  OfflineTally untraced;
  OfflineTally traced;
  double untraced_wall = 0.0;
  double traced_wall = 0.0;
  for (std::size_t r = 0; r < spec.trace_rounds; ++r) {
    double t0 = now_s();
    offline_round(spec, st, args.seed, r, lanes, untraced, out, nullptr, false);
    untraced_wall += now_s() - t0;
    core::trace::set_enabled(true);
    t0 = now_s();
    offline_round(spec, st, args.seed, r, lanes, traced, out, &log, true);
    traced_wall += now_s() - t0;
    core::trace::set_enabled(false);
  }
  const core::trace::TraceReport g = core::trace::global_report();

  std::vector<std::pair<std::string, double>> v;
  double busy = 0.0;
  double arena_peak = 0.0;
  for (const char* phase : {"refit", "predict", "rmse", "select", "reveal", "init"}) {
    double total = 0.0;
    for (const core::trace::TraceReport& t : traced.traces) {
      if (const core::trace::PhaseStats* p = t.phase(phase)) total += p->total_seconds;
    }
    busy += total;
    v.emplace_back(std::string("core.sim.") + phase + "_s", total);
  }
  for (const core::trace::TraceReport& t : traced.traces) {
    arena_peak = std::max(arena_peak, static_cast<double>(t.counter("arena.bytes_peak")));
  }
  if (const core::trace::PhaseStats* p = g.phase("shared_context")) {
    v.emplace_back("core.sim.shared_context_s", p->total_seconds);
  }
  const auto spans = log.totals();
  v.emplace_back("data.load_s", spans.at("data.load").total_s);
  add_model_counters(v, g);
  v.emplace_back("gp.arena_peak_mb", arena_peak / (1024.0 * 1024.0));
  const double batch_wall = spans.at("batch.run_batch").total_s;
  v.emplace_back("core.batch.wall_s", batch_wall);
  v.emplace_back("core.batch.lane_util", ratio(busy, static_cast<double>(lanes) * batch_wall));
  v.emplace_back("core.trace.overhead_frac", traced_wall / untraced_wall - 1.0);
  v.emplace_back("bench.span_coverage", ratio(batch_wall, traced_wall));
  out.metrics = layer_report(v);
  out.digest = traced.digest.hex();
  print_span_table(log, {});
  log.write_jsonl(args.out_dir / (args.workload + "-seed" + std::to_string(args.seed) + ".spans.jsonl"));
  return out;
}

OfflineSpec paper_refit_spec(const fs::path& data_dir) {
  OfflineSpec s;
  s.configs = {
      {"RGMA nInit=1", StrategyKind::kRgma, 1},
      {"RGMA nInit=50", StrategyKind::kRgma, 50},
      {"RandGoodness nInit=50", StrategyKind::kRandGoodness, 50},
      {"MaxSigma nInit=50", StrategyKind::kMaxSigma, 50},
  };
  s.iterations = 100;
  s.refit_iterations = 10;
  s.quality_rounds = 2;
  s.trace_rounds = 2;
  const fs::path csv = data_dir / "paper_amr_seed42.csv";
  s.load = [csv] { return data::read_csv(csv); };
  return s;
}

OfflineSpec wide_pool_spec(std::uint64_t seed) {
  OfflineSpec s;
  s.configs = {
      {"MaxSigma nInit=50", StrategyKind::kMaxSigma, 50},
      {"RGMA nInit=50", StrategyKind::kRgma, 50},
  };
  s.iterations = 300;
  s.refit_iterations = 0;  // theta frozen after the initial fit
  s.quality_rounds = 3;
  s.trace_rounds = 2;
  const std::uint64_t data_seed = mix_seed(seed, 0xda7a);
  s.load = [data_seed] { return testing::synthetic_amr_dataset(4000, data_seed); };
  return s;
}

// ---------------------------------------------------------------------------
// Serving workload: serve_tenants
// ---------------------------------------------------------------------------

struct ServeSpec {
  std::size_t tenants = 512;
  std::size_t grid_rows = 400;  // the 10 x 8 x 5 lattice
  std::size_t n_init = 2;
  std::size_t life_min = 24;  // AL iterations of a replacement tenant
  std::size_t life_max = 56;
  std::size_t stride = 4;
  std::size_t query_every = 8;   // every 8th tenant queries each round
  std::size_t query_points = 16;
  std::size_t evict_every = 10;  // rounds between evict/restore detours
  std::size_t warmup_rounds = 60;
  std::size_t min_rounds = 200;
  std::size_t quality_tenants = 2048;  // CC and CR over these
  std::size_t rmse_tenants = 256;      // the first of them also get an RMSE
  std::size_t trace_rounds = 100;
};

/// The analytic oracle: tenant-specific scales over a shared response
/// surface, so the tenants' surrogates differ.
struct Oracle {
  double cost_scale = 1.0;
  double mem_scale = 1.0;

  double cost(std::span<const double> f) const {
    return cost_scale * 0.05 * std::pow(10.0, 1.6 * f[0] + 0.8 * f[1] * f[2] - 0.4 * f[2]);
  }
  double memory(std::span<const double> f) const {
    return mem_scale * 40.0 * std::pow(10.0, 1.4 * f[1] + 0.5 * f[0] * f[0]);
  }
};

struct Tenant {
  core::SessionId id = 0;
  StrategyKind strategy = StrategyKind::kMaxSigma;
  Oracle oracle;
  perfbench::TenantLedger ledger;
  std::size_t life = 0;  // AL iterations (part of the session fingerprint)
  double enqueued_at = 0.0;
};

class ServeWorkload {
 public:
  ServeWorkload(const ServeSpec& spec, std::uint64_t seed, fs::path ckpt_dir,
                std::size_t workers)
      : spec_(spec), seed_(seed), ckpt_dir_(std::move(ckpt_dir)), workers_(workers) {}

  /// Builds the grid, the engine and the first tenant population.
  void setup() {
    // A regular 10 x 8 x 5 lattice over the unit cube, like the paper's
    // configuration grid; the tenants, not the grid, carry the seed.
    static constexpr std::size_t kAxis[3] = {10, 8, 5};
    grid_ = linalg::Matrix(kAxis[0] * kAxis[1] * kAxis[2], 3);
    for (std::size_t i = 0; i < grid_.rows(); ++i) {
      std::size_t rest = i;
      for (std::size_t j = 0; j < 3; ++j) {
        grid_(i, j) = static_cast<double>(rest % kAxis[j]) / static_cast<double>(kAxis[j] - 1);
        rest /= kAxis[j];
      }
    }
    grid_scaled_ = data::FeatureScaler::fit(grid_).transform(grid_);
    std::vector<double> mem(spec_.grid_rows);
    for (std::size_t i = 0; i < spec_.grid_rows; ++i) mem[i] = Oracle{}.memory(grid_.row(i));
    limit_log10_ = std::log10(percentile(mem, 0.8));
    query_x_ = linalg::Matrix(spec_.query_points, 3);
    for (std::size_t i = 0; i < spec_.query_points; ++i) {
      for (std::size_t j = 0; j < 3; ++j) query_x_(i, j) = grid_(i * 7 % spec_.grid_rows, j);
    }

    fs::create_directories(ckpt_dir_);
    core::ServeOptions serve;
    serve.retrain_workers = workers_;
    engine_.reset();
    engine_ = std::make_unique<core::SessionEngine>(serve);
    tenants_.assign(spec_.tenants, Tenant{});
    next_id_ = 1;
    for (std::size_t slot = 0; slot < spec_.tenants; ++slot) {
      // Initial lifetimes span [1, life_max] so the first replacements
      // are staggered instead of arriving as one wave.
      open_tenant(slot, /*initial=*/true, nullptr);
    }
  }

  struct Block {
    std::size_t rounds = 0;
    double wall = 0.0;
    std::size_t requests = 0;
    std::size_t observes = 0;
    std::vector<double> suggest_wait_ms;
    std::vector<double> drain_suggest_s;
  };

  /// Runs closed-loop rounds until `done` says the block is complete.
  Block run_block(Outcome& out, SpanLog* log, bool sample,
                  const std::function<bool(const Block&)>& done) {
    Block b;
    const double t0 = now_s();
    while (!done(b)) {
      round(out, log, sample ? &b : nullptr);
      ++b.rounds;
      b.wall = now_s() - t0;
    }
    return b;
  }

  std::size_t round_index() const { return round_; }
  std::size_t quality_count() const { return quality_n_; }

  void quality(double& rmse, double& regret, double& cost) const {
    const double q = static_cast<double>(std::max<std::size_t>(quality_n_, 1));
    rmse = rmse_sum_ / static_cast<double>(std::max<std::size_t>(
                           std::min(quality_n_, spec_.rmse_tenants), 1));
    regret = regret_sum_ / q;
    cost = cost_sum_ / q;
  }
  std::string digest() const { return digest_.hex(); }

  void collect_after(std::size_t round) { quality_from_round_ = round; }

  void teardown() {
    engine_.reset();
    std::error_code ec;
    fs::remove_all(ckpt_dir_, ec);
  }

 private:
  core::SessionOptions session_options(const Tenant& t) const {
    core::SessionOptions o;
    o.al.n_init = spec_.n_init;
    o.al.iterations = t.life;
    o.al.memory_limit_log10 = limit_log10_;
    o.seed = mix_seed(seed_, 0x5e55 + t.id);
    o.retrain_stride = spec_.stride;
    o.checkpoint = ckpt_dir_ / ("tenant" + std::to_string(t.id) + ".ck");
    return o;
  }

  void open_tenant(std::size_t slot, bool initial, SpanLog* log) {
    Tenant& t = tenants_[slot];
    t = Tenant{};
    t.id = next_id_++;
    stats::Rng rng(mix_seed(seed_, 0x7e4a + t.id));
    static constexpr StrategyKind kMix[] = {StrategyKind::kMaxSigma,
                                            StrategyKind::kRandUniform,
                                            StrategyKind::kRgma};
    t.strategy = kMix[slot % 3];
    t.oracle.cost_scale = rng.uniform(0.5, 2.0);
    t.oracle.mem_scale = rng.uniform(0.8, 1.25);
    t.life = initial ? 1 + rng.uniform_index(spec_.life_max)
                     : spec_.life_min + rng.uniform_index(spec_.life_max - spec_.life_min + 1);
    t.ledger = perfbench::TenantLedger(spec_.grid_rows, spec_.n_init, spec_.stride,
                                       std::pow(10.0, limit_log10_));
    const std::unique_ptr<core::Strategy> strategy = make_strategy(t.strategy, limit_log10_);
    SpanScope span(log, "serve.open", t.id);
    engine_->open_session(t.id, grid_, *strategy, session_options(t));
  }

  void finish_tenant(std::size_t slot, Outcome& out, SpanLog* log) {
    Tenant& t = tenants_[slot];
    core::OnlineResult result;
    std::uint64_t epoch = 0;
    {
      SpanScope span(log, "serve.finish", t.id);
      epoch = engine_->status(t.id).epoch;
      result = engine_->finish_session(t.id);
    }
    const perfbench::Verdict v = t.ledger.on_finish(result, epoch);
    if (!v.empty()) record_failure(out, "tenant " + std::to_string(t.id) + ": " + v);
    if (round_ >= quality_from_round_ && quality_n_ < spec_.quality_tenants) {
      if (quality_n_ < spec_.rmse_tenants) {
        SpanScope span(log, "bench.quality", t.id);
        const std::vector<double> mu =
            data::exp10_transform(result.cost_model->predict(grid_scaled_).mean);
        std::vector<double> actual(spec_.grid_rows);
        for (std::size_t i = 0; i < spec_.grid_rows; ++i) actual[i] = t.oracle.cost(grid_.row(i));
        const double err = core::rmse(mu, actual);
        if (!std::isfinite(err)) record_failure(out, "tenant final RMSE not finite");
        rmse_sum_ += err;
      }
      regret_sum_ += result.records.empty() ? 0.0 : result.records.back().cumulative_regret;
      cost_sum_ += result.records.empty() ? 0.0 : result.records.back().cumulative_cost;
      perfbench::digest_tenant(digest_, result);
      ++quality_n_;
    }
  }

  std::size_t drain(Outcome& out, SpanLog* log, const char* name) {
    SpanScope span(log, name, round_);
    try {
      return engine_->drain();
    } catch (const std::exception& e) {
      record_failure(out, std::string("drain threw: ") + e.what());
      return 0;
    }
  }

  void round(Outcome& out, SpanLog* log, Block* b) {
    SpanScope round_span(log, "serve.round", round_);
    std::vector<char> queried(spec_.tenants, 0);
    std::size_t sent = 0;
    {
      SpanScope span(log, "serve.enqueue", round_);
      for (std::size_t slot = 0; slot < spec_.tenants; ++slot) {
        Tenant& t = tenants_[slot];
        t.enqueued_at = now_s();
        engine_->enqueue_suggest(t.id);
        ++sent;
        if (slot % spec_.query_every == round_ % spec_.query_every &&
            t.ledger.observed.size() >= spec_.n_init) {
          engine_->enqueue_query(t.id, query_x_);
          queried[slot] = 1;
          ++sent;
        }
      }
    }
    out.attempted += sent;
    const double drain_start = now_s();
    const std::size_t answered = drain(out, log, "serve.drain_suggest");
    const double drained_at = now_s();
    if (b != nullptr) {
      b->requests += answered;
      b->drain_suggest_s.push_back(drained_at - drain_start);
      for (const Tenant& t : tenants_) b->suggest_wait_ms.push_back(1e3 * (drained_at - t.enqueued_at));
    }
    if (log != nullptr) {
      for (const Tenant& t : tenants_) log->add("serve.suggest_wait", t.enqueued_at, drained_at, t.id);
    }

    std::size_t observes = 0;
    {
      SpanScope span(log, "serve.client", round_);
      for (std::size_t slot = 0; slot < spec_.tenants; ++slot) {
        Tenant& t = tenants_[slot];
        if (queried[slot] != 0) {
          const std::optional<core::QueryResult> q = engine_->take_query_result(t.id);
          if (!q || q->cost.mean.size() != spec_.query_points ||
              !std::all_of(q->cost.mean.begin(), q->cost.mean.end(),
                           [](double x) { return std::isfinite(x); }) ||
              !std::all_of(q->cost.stddev.begin(), q->cost.stddev.end(),
                           [](double x) { return x >= 0.0; })) {
            record_failure(out, "bad posterior query answer");
          }
        }
        const std::optional<core::Suggestion> s = engine_->take_suggestion(t.id);
        if (!s) {
          record_failure(out, "suggest produced no answer");
          continue;
        }
        if (s->done) {
          finish_tenant(slot, out, log);
          open_tenant(slot, /*initial=*/false, log);
          continue;
        }
        const perfbench::Verdict v = t.ledger.on_suggestion(s->grid_row);
        if (!v.empty()) {
          // Abandon the bad suggestion so the session can go on.
          record_failure(out, v);
          engine_->enqueue_observe_failure(t.id);
          continue;
        }
        const auto features = grid_.row(s->grid_row);
        const double cost = t.oracle.cost(features);
        const double memory = t.oracle.memory(features);
        engine_->enqueue_observe(t.id, cost, memory);
        t.ledger.on_observe(s->grid_row, cost, memory);
        ++observes;
      }
    }
    out.attempted += observes;
    const std::size_t observed = drain(out, log, "serve.drain_observe");
    if (b != nullptr) {
      b->requests += observed;
      b->observes += observed;
    }

    if (round_ % spec_.evict_every == spec_.evict_every - 1) {
      // Evict one tenant to durable frames and restore it by id; the
      // ledger keeps checking the continued session.
      std::size_t slot = (round_ / spec_.evict_every * 37) % spec_.tenants;
      for (std::size_t tries = 1;
           tries < spec_.tenants && tenants_[slot].ledger.observed.size() < spec_.n_init;
           ++tries) {
        slot = (slot + 1) % spec_.tenants;
      }
      Tenant& t = tenants_[slot];
      const std::unique_ptr<core::Strategy> strategy = make_strategy(t.strategy, limit_log10_);
      try {
        {
          SpanScope span(log, "checkpoint.evict", t.id);
          engine_->evict_session(t.id);
        }
        SpanScope span(log, "checkpoint.restore", t.id);
        engine_->restore_session(t.id, grid_, *strategy, session_options(t));
        t.ledger.on_restore();
      } catch (const std::exception& e) {
        record_failure(out, std::string("evict/restore threw: ") + e.what());
      }
    }
    ++round_;
  }

  ServeSpec spec_;
  std::uint64_t seed_;
  fs::path ckpt_dir_;
  std::size_t workers_;
  linalg::Matrix grid_;
  linalg::Matrix grid_scaled_;
  linalg::Matrix query_x_;
  double limit_log10_ = 0.0;
  std::unique_ptr<core::SessionEngine> engine_;
  std::vector<Tenant> tenants_;
  core::SessionId next_id_ = 1;
  std::size_t round_ = 0;
  std::size_t quality_from_round_ = 0;
  std::size_t quality_n_ = 0;
  double rmse_sum_ = 0.0;
  double regret_sum_ = 0.0;
  double cost_sum_ = 0.0;
  core::trace::Fingerprint digest_;
};

Outcome run_serve(const Args& args) {
  const ServeSpec spec;
  const std::size_t cores = std::min<std::size_t>(nproc(), 4);
  const std::size_t workers = cores >= 3 ? 2 : 1;
  const std::size_t lanes = cores > workers ? cores - workers : 1;
  core::set_global_parallel_threads(lanes);
  print_context(args, lanes, workers);
  Outcome out;

  const fs::path ckpt = args.out_dir / ("ckpt-" + std::to_string(args.seed));
  ServeWorkload w(spec, args.seed, ckpt, workers);
  const double setup_s = median_setup([&] { w.setup(); });

  const auto warm = [&](const ServeWorkload::Block& b) {
    return b.rounds >= spec.warmup_rounds;
  };
  w.run_block(out, nullptr, false, warm);
  w.collect_after(w.round_index());

  if (!args.trace) {
    const ServeWorkload::Block b = w.run_block(out, nullptr, true, [&](const ServeWorkload::Block& blk) {
      return blk.rounds >= spec.min_rounds && blk.wall >= args.seconds &&
             w.quality_count() >= spec.quality_tenants;
    });
    double rmse = 0.0;
    double regret = 0.0;
    double cost = 0.0;
    w.quality(rmse, regret, cost);
    out.metrics = {
        {"setup_s", setup_s, "s"},
        {"al_iters_per_s", b.observes / b.wall, "1/s"},
        {"req_per_s", b.requests / b.wall, "1/s"},
        {"suggest_p50_ms", percentile(b.suggest_wait_ms, 0.50), "ms"},
        {"suggest_p95_ms", percentile(b.suggest_wait_ms, 0.95), "ms"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"regret_nh_final", regret, "node-hours"},
        {"cost_nh_final", cost, "node-hours"},
    };
    out.printed = {{"rmse_cost_final", rmse, "node-hours"}};
    out.digest = w.digest();
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "# rounds %zu after %zu warm-up, requests %zu, suggest latency samples %zu, "
                  "quality set %zu tenants\n",
                  b.rounds, spec.warmup_rounds, b.requests, b.suggest_wait_ms.size(),
                  w.quality_count());
    out.notes = buf;
    w.teardown();
    return out;
  }

  // Alternating untraced and traced blocks of 10 rounds, so drift in the
  // host's speed does not bias the overhead estimate.
  const auto ten = [](const ServeWorkload::Block& b) { return b.rounds >= 10; };
  core::trace::global_collector().clear();
  SpanLog log;
  double untraced_wall = 0.0;
  double traced_wall = 0.0;
  std::vector<double> drain_suggest_s;
  for (std::size_t r = 0; r < spec.trace_rounds; r += 10) {
    untraced_wall += w.run_block(out, nullptr, false, ten).wall;
    core::trace::set_enabled(true);
    const ServeWorkload::Block traced = w.run_block(out, &log, true, ten);
    core::trace::set_enabled(false);
    traced_wall += traced.wall;
    drain_suggest_s.insert(drain_suggest_s.end(), traced.drain_suggest_s.begin(),
                           traced.drain_suggest_s.end());
  }
  const core::trace::TraceReport g = core::trace::global_report();
  const std::vector<std::string> detached = {"serve.suggest_wait"};
  const auto spans = log.totals(detached);
  const auto total = [&](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second.total_s;
  };

  std::vector<std::pair<std::string, double>> v;
  add_model_counters(v, g);
  const double scheduled = static_cast<double>(g.counter("serve.retrains_scheduled"));
  v.emplace_back("core.serve.drain_suggest_s", total("serve.drain_suggest"));
  v.emplace_back("core.serve.drain_suggest_p50_s", percentile(drain_suggest_s, 0.50));
  v.emplace_back("core.serve.drain_suggest_p95_s", percentile(drain_suggest_s, 0.95));
  v.emplace_back("core.serve.coalesce_width",
                 ratio(static_cast<double>(g.counter("serve.coalesce_width")),
                       static_cast<double>(g.counter("serve.batched_sweeps"))));
  v.emplace_back("core.serve.drain_observe_s", total("serve.drain_observe"));
  v.emplace_back("core.serve.retrains_scheduled", scheduled);
  v.emplace_back("core.serve.epoch_swaps", static_cast<double>(g.counter("serve.retrain_swaps")));
  v.emplace_back("core.serve.steal_frac",
                 ratio(static_cast<double>(g.counter("serve.retrain_steals")), scheduled));
  v.emplace_back("core.serve.open_s", total("serve.open"));
  v.emplace_back("core.serve.finish_s", total("serve.finish"));
  v.emplace_back("core.checkpoint.evict_s", total("checkpoint.evict"));
  v.emplace_back("core.checkpoint.restore_s", total("checkpoint.restore"));
  v.emplace_back("core.trace.overhead_frac", traced_wall / untraced_wall - 1.0);
  double covered = 0.0;
  for (const char* name : {"serve.enqueue", "serve.drain_suggest", "serve.client",
                           "serve.drain_observe", "checkpoint.evict", "checkpoint.restore"}) {
    covered += total(name);
  }
  v.emplace_back("bench.span_coverage", ratio(covered, total("serve.round")));
  out.metrics = layer_report(v);
  out.digest = w.digest();
  print_span_table(log, detached);
  log.write_jsonl(args.out_dir / (args.workload + "-seed" + std::to_string(args.seed) + ".spans.jsonl"));
  w.teardown();
  return out;
}

// ---------------------------------------------------------------------------

void print_result(const Outcome& out) {
  std::printf("%s", out.notes.c_str());
  std::printf("# digest: %s\n", out.digest.c_str());
  std::printf("# %-32s %16.6f ratio (%zu failed of %zu attempted)\n", "fail_frac",
              out.attempted == 0 ? 0.0 : static_cast<double>(out.failed) / out.attempted,
              out.failed, out.attempted);
  for (const std::vector<Metric>* list : {&out.printed, &out.metrics}) {
    for (const Metric& m : *list) {
      std::printf("# %-32s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }
  std::string json = "{\"correct\": ";
  json += out.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    char buf[192];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", out.metrics[i].name.c_str(), out.metrics[i].value,
                  out.metrics[i].unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  try {
    fs::create_directories(args.out_dir);
    Outcome out;
    if (args.workload == "paper_refit") {
      out = run_offline(paper_refit_spec(args.data_dir), args);
    } else if (args.workload == "wide_pool") {
      out = run_offline(wide_pool_spec(args.seed), args);
    } else if (args.workload == "serve_tenants") {
      out = run_serve(args);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload %s\n", args.workload.c_str());
      return 2;
    }
    print_result(out);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
