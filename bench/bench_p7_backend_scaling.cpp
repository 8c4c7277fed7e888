// §P7 backend-scaling experiment (EXPERIMENTS.md §P7): exact vs
// subset-of-data vs local-experts PosteriorBackends on fig4-style RGMA
// trajectories as the candidate pool grows from 10^3 to 10^5 points.
//
// The initial design scales with the dataset (n_init = N/100, clipped to
// [50, 1000]) so the exact backend's O(n^3) refits and O(n^2 M) candidate
// sweeps both grow with N — the regime the approximate backends exist
// for. At the largest size the exact backend is not run (hours); its cost
// is extrapolated from the measured sizes via the dominant per-iteration
// predict term, t ∝ n_avg^2 * M, and the acceptance claim is that each
// approximate backend completes the 10^5-pool trajectory >= 10x faster
// than that extrapolation.
//
// Output: a human-readable table on stderr and a JSON document on stdout
// (merged into BENCH_PR7.json by scripts/bench.sh record_backend_scaling).
//
// Knobs: ALAMR_QUICK=1 drops the 10^5 row (smoke runs);
//        ALAMR_P7_ITERATIONS overrides the 20-iteration horizon.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "alamr/core/export.hpp"
#include "alamr/core/simulator.hpp"
#include "alamr/core/strategies.hpp"
#include "alamr/data/partition.hpp"
#include "alamr/gp/backend.hpp"
#include "synthetic_dataset.hpp"

namespace {

struct RunResult {
  std::string backend;
  double wallclock_s = 0.0;
  std::size_t completed = 0;
  double cc = 0.0;
  double cr = 0.0;
  double rmse_cost = 0.0;
  double rmse_mem = 0.0;
};

std::size_t env_size_t(const char* name, std::size_t fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr || env[0] == '\0') return fallback;
  return static_cast<std::size_t>(std::strtoull(env, nullptr, 10));
}

std::size_t init_design(std::size_t n) {
  const std::size_t scaled = n / 100;
  return scaled < 50 ? 50 : (scaled > 1000 ? 1000 : scaled);
}

alamr::gp::BackendOptions backend_config(const std::string& name,
                                         std::size_t n_init) {
  alamr::gp::BackendOptions options;
  if (name == "subset_of_data") {
    options.kind = alamr::gp::BackendKind::kSubsetOfData;
    options.inducing_points = 128;
  } else if (name == "local_experts") {
    options.kind = alamr::gp::BackendKind::kLocalExperts;
    // Sized so every expert holds enough of the initial design to own a
    // model from iteration 0 (RGMA needs a finite posterior to find any
    // safe candidate).
    const std::size_t experts = n_init / 25;
    options.experts = experts < 2 ? 2 : (experts > 8 ? 8 : experts);
    options.min_expert_size = 5;
  }
  return options;
}

RunResult run_one(const alamr::data::Dataset& dataset,
                  const std::string& backend, std::size_t iterations) {
  namespace core = alamr::core;
  const std::size_t n_init = init_design(dataset.size());

  core::AlOptions options;
  options.n_test = 200;
  options.n_init = n_init;
  options.max_iterations = iterations;
  options.initial_fit.restarts = 1;
  options.initial_fit.max_opt_iterations = 40;
  options.refit.restarts = 0;
  options.refit.max_opt_iterations = 4;
  options.backend = backend_config(backend, n_init);

  const core::AlSimulator simulator(dataset, options);
  const core::Rgma rgma(simulator.memory_limit_log10());

  alamr::stats::Rng partition_rng(11);
  const alamr::data::Partition partition = alamr::data::make_partition(
      dataset.size(), options.n_test, options.n_init, partition_rng);

  alamr::stats::Rng rng(2024);
  const auto start = std::chrono::steady_clock::now();
  const core::TrajectoryResult result =
      simulator.run_with_partition(rgma, partition, rng);
  const auto stop = std::chrono::steady_clock::now();

  RunResult out;
  out.backend = backend;
  out.wallclock_s = std::chrono::duration<double>(stop - start).count();
  out.completed = result.iterations.size();
  if (!result.iterations.empty()) {
    const core::IterationRecord& last = result.iterations.back();
    out.cc = last.cumulative_cost;
    out.cr = last.cumulative_regret;
    out.rmse_cost = last.rmse_cost;
    out.rmse_mem = last.rmse_mem;
  }
  return out;
}

/// Dominant-term weight of one exact trajectory: per-iteration candidate
/// sweep is O(n^2 M) with n growing from n_init; sum n_t^2 over the
/// horizon times the pool size.
double exact_weight(std::size_t n, std::size_t iterations) {
  const double n_init = static_cast<double>(init_design(n));
  const double pool = static_cast<double>(n) - 200.0 - n_init;
  double sum_n2 = 0.0;
  for (std::size_t t = 0; t < iterations; ++t) {
    const double nt = n_init + static_cast<double>(t);
    sum_n2 += nt * nt;
  }
  return sum_n2 * pool;
}

}  // namespace

int main() {
  const bool quick = []() {
    const char* env = std::getenv("ALAMR_QUICK");
    return env != nullptr && env[0] != '\0' && env[0] != '0';
  }();
  const std::size_t iterations = env_size_t("ALAMR_P7_ITERATIONS", 20);

  // Built whole: a push_back after an initializer list trips a false
  // -Warray-bounds in GCC 12 under -fsanitize=undefined.
  const std::vector<std::size_t> sizes =
      quick ? std::vector<std::size_t>{1000, 10000}
            : std::vector<std::size_t>{1000, 10000, 100000};
  // Exact runs only where its O(n^2 M) sweeps stay in seconds; beyond,
  // its cost is extrapolated from the largest measured size.
  const std::size_t exact_cap = 10000;

  std::fprintf(stderr,
               "# §P7 backend scaling — fig4-style RGMA, %zu iterations\n"
               "# %8s %14s %10s %12s %10s %10s %10s\n",
               iterations, "N", "backend", "wall (s)", "iters", "CC",
               "CR", "RMSE(c)");

  std::string json = "{\n  \"statistic\": \"end-to-end trajectory seconds, "
                     "one run\",\n  \"iterations\": " +
                     std::to_string(iterations) + ",\n  \"sizes\": [\n";
  double exact_at_cap = 0.0;
  bool first_size = true;
  for (const std::size_t n : sizes) {
    const alamr::data::Dataset dataset =
        alamr::testing::synthetic_amr_dataset(n, 7000 + n);
    std::vector<RunResult> rows;
    for (const char* backend : {"exact", "subset_of_data", "local_experts"}) {
      if (std::string(backend) == "exact" && n > exact_cap) continue;
      rows.push_back(run_one(dataset, backend, iterations));
      const RunResult& r = rows.back();
      std::fprintf(stderr, "  %8zu %14s %10.2f %12zu %10.3f %10.3f %10.4f\n",
                   n, r.backend.c_str(), r.wallclock_s, r.completed, r.cc,
                   r.cr, r.rmse_cost);
      if (std::string(backend) == "exact" && n == exact_cap)
        exact_at_cap = r.wallclock_s;
    }

    if (!first_size) json += ",\n";
    first_size = false;
    json += "    {\"n\": " + std::to_string(n) +
            ", \"n_init\": " + std::to_string(init_design(n)) +
            ", \"backends\": {";
    bool first_row = true;
    for (const RunResult& r : rows) {
      if (!first_row) json += ", ";
      first_row = false;
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "\"%s\": {\"wallclock_s\": %.3f, \"iterations\": %zu, "
                    "\"cc\": %.4f, \"cr\": %.4f, \"rmse_cost\": %.5f, "
                    "\"rmse_mem\": %.5f}",
                    r.backend.c_str(), r.wallclock_s, r.completed, r.cc,
                    r.cr, r.rmse_cost, r.rmse_mem);
      json += buf;
    }
    json += "}";

    if (n > exact_cap && exact_at_cap > 0.0) {
      const double scale =
          exact_weight(n, iterations) / exact_weight(exact_cap, iterations);
      const double extrapolated = exact_at_cap * scale;
      std::fprintf(stderr,
                   "  %8zu %14s %10.0f %12s  (= %.1f s at N=%zu x %.0f "
                   "dominant-term scale)\n",
                   n, "exact(extrap)", extrapolated, "-", exact_at_cap,
                   exact_cap, scale);
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    ", \"exact_extrapolated_s\": %.1f", extrapolated);
      json += buf;
      for (const RunResult& r : rows) {
        if (r.backend == "exact") continue;
        const double speedup = extrapolated / r.wallclock_s;
        std::fprintf(stderr, "  %8zu %14s %9.0fx vs extrapolated exact\n",
                     n, r.backend.c_str(), speedup);
        std::snprintf(buf, sizeof(buf),
                      ", \"%s_speedup_vs_extrapolated\": %.1f",
                      r.backend.c_str(), speedup);
        json += buf;
        if (speedup < 10.0) {
          std::fprintf(stderr,
                       "FAILED: %s at N=%zu is only %.1fx faster than the "
                       "extrapolated exact cost (acceptance floor: 10x)\n",
                       r.backend.c_str(), n, speedup);
          return 1;
        }
      }
    }
    json += "}";
  }
  json += "\n  ]\n}\n";
  std::fputs(json.c_str(), stdout);
  return 0;
}
