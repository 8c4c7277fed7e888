#include "alamr/core/online.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "alamr/core/checkpoint.hpp"
#include "alamr/core/metrics.hpp"

namespace alamr::core {

OnlineAlDriver::OnlineAlDriver(linalg::Matrix candidate_grid,
                               ExperimentOracle oracle, OnlineAlOptions options)
    : grid_(std::move(candidate_grid)),
      oracle_(std::move(oracle)),
      options_(std::move(options)) {
  if (grid_.rows() == 0) {
    throw std::invalid_argument("OnlineAlDriver: empty candidate grid");
  }
  if (!oracle_) {
    throw std::invalid_argument("OnlineAlDriver: null oracle");
  }
  if (options_.n_init == 0) {
    throw std::invalid_argument("OnlineAlDriver: n_init must be >= 1");
  }
  if (options_.n_init + options_.iterations > grid_.rows()) {
    throw std::invalid_argument(
        "OnlineAlDriver: grid smaller than n_init + iterations");
  }
  grid_scaled_ = data::FeatureScaler::fit(grid_).transform(grid_);
}

std::string online_run_fingerprint(const linalg::Matrix& grid,
                                   std::string_view strategy_name,
                                   const OnlineAlOptions& options,
                                   std::string_view plan_spec) {
  trace::Fingerprint fp;
  fp.add("alamr.online.v1");
  fp.add(strategy_name);
  // The grid itself is identity: a checkpoint indexes rows of THIS grid.
  fp.add(static_cast<std::uint64_t>(grid.rows()));
  fp.add(static_cast<std::uint64_t>(grid.cols()));
  for (std::size_t r = 0; r < grid.rows(); ++r) {
    for (std::size_t c = 0; c < grid.cols(); ++c) fp.add(grid(r, c));
  }
  fp.add(static_cast<std::uint64_t>(options.n_init));
  fp.add(static_cast<std::uint64_t>(options.iterations));
  fp.add(options.memory_limit_log10);
  const auto add_gpr_options = [&fp](const gp::GprOptions& o) {
    fp.add(static_cast<std::uint64_t>(o.restarts));
    fp.add(o.normalize_y);
    fp.add(o.optimize);
    fp.add(static_cast<std::uint64_t>(o.max_opt_iterations));
    fp.add(o.initial_jitter);
    fp.add(o.max_jitter);
  };
  add_gpr_options(options.initial_fit);
  add_gpr_options(options.refit);
  fp.add(gp::to_string(options.backend.kind));
  fp.add(static_cast<std::uint64_t>(options.backend.inducing_points));
  fp.add(static_cast<std::uint64_t>(options.backend.sod_anchors));
  fp.add(static_cast<std::uint64_t>(options.backend.experts));
  fp.add(static_cast<std::uint64_t>(options.backend.min_expert_size));
  fp.add(static_cast<std::uint64_t>(options.backend.kmeans_iterations));
  fp.add(options.resilience.enabled);
  fp.add(options.resilience.ladder);
  fp.add(static_cast<std::uint64_t>(options.resilience.max_attempts));
  fp.add(static_cast<std::uint64_t>(options.resilience.breaker_threshold));
  fp.add(static_cast<std::uint64_t>(options.resilience.probe_after));
  fp.add(static_cast<std::uint64_t>(options.resilience.deadline_ticks));
  fp.add(static_cast<std::uint64_t>(options.resilience.backoff.base_ticks));
  fp.add(options.resilience.backoff.multiplier);
  fp.add(static_cast<std::uint64_t>(options.resilience.backoff.max_ticks));
  fp.add(options.resilience.backoff.jitter);
  fp.add(options.resilience.backoff.seed);
  fp.add(std::string(plan_spec));
  return fp.hex();
}

OnlineResult OnlineAlDriver::run(const Strategy& strategy, stats::Rng& rng,
                                 const CheckpointConfig* checkpoint) {
  if (ran_) {
    throw OnlineContractError(
        "OnlineAlDriver::run: already ran (one run per instance; construct a "
        "fresh driver, or hold sessions in a core::SessionEngine instead)");
  }
  ran_ = true;

  // Per-run fault injection, mirroring run_trajectory: an explicit plan in
  // the options wins, else the ALAMR_FAULT_PLAN env plan.
  const faults::FaultPlan* plan_source =
      !options_.plan.empty() ? &options_.plan : faults::env_plan();
  std::optional<faults::FaultInjector> injector;
  std::optional<faults::ScopedFaultInjector> fault_scope;
  if (plan_source != nullptr) {
    injector.emplace(*plan_source);
    fault_scope.emplace(*injector);
  }

  OnlineResult result;
  const bool track_regret = !std::isnan(options_.memory_limit_log10);
  const double limit_mb =
      track_regret ? std::pow(10.0, options_.memory_limit_log10) : 0.0;

  const std::string compat = online_run_fingerprint(
      grid_, strategy.name(), options_,
      plan_source != nullptr ? plan_source->to_string() : std::string());

  std::optional<OnlineCheckpoint> resumed;
  if (checkpoint != nullptr && checkpoint->resume && !checkpoint->path.empty()) {
    resumed = load_online_checkpoint(checkpoint->path, checkpoint->retain);
    if (resumed && resumed->fingerprint != compat) {
      throw std::runtime_error(
          "OnlineAlDriver: checkpoint at " + checkpoint->path.string() +
          " was written by an incompatible configuration (fingerprint "
          "mismatch); refusing to resume");
    }
    if (resumed) trace::count("online.resumed");
  }

  std::vector<std::size_t> visited;
  std::vector<std::size_t> skipped;
  std::vector<double> log_cost;
  std::vector<double> log_mem;
  double cc = 0.0;
  double cr = 0.0;
  std::size_t al_done = 0;

  if (resumed) {
    visited.assign(resumed->visited.begin(), resumed->visited.end());
    skipped.assign(resumed->skipped.begin(), resumed->skipped.end());
    log_cost = resumed->log_cost;
    log_mem = resumed->log_mem;
    cc = resumed->cc;
    cr = resumed->cr;
    al_done = resumed->al_iterations_done;
    result.records = resumed->records;
    result.oracle_giveups = resumed->oracle_giveups;
    result.exhausted_safe_candidates = resumed->exhausted_safe_candidates;
  }

  // Remaining candidates = grid order minus everything already run or
  // abandoned (erase() preserves relative order, so this reconstruction
  // matches the live run's remaining set exactly).
  std::vector<std::size_t> remaining;
  {
    std::vector<char> gone(grid_.rows(), 0);
    for (const std::size_t row : visited) gone[row] = 1;
    for (const std::size_t row : skipped) gone[row] = 1;
    remaining.reserve(grid_.rows() - visited.size() - skipped.size());
    for (std::size_t i = 0; i < grid_.rows(); ++i) {
      if (gone[i] == 0) remaining.push_back(i);
    }
  }

  // Surrogates behind the degradation ladder (DESIGN.md §14); constructed
  // with the thorough initial-fit options like the simulator's backends.
  const auto kernel_factory = [] { return gp::make_paper_kernel(); };
  std::unique_ptr<gp::PosteriorBackend> model_cost = gp::make_resilient_backend(
      options_.backend, options_.resilience, kernel_factory,
      options_.initial_fit);
  std::unique_ptr<gp::PosteriorBackend> model_mem = gp::make_resilient_backend(
      options_.backend, options_.resilience, kernel_factory,
      options_.initial_fit);

  // Deadline/backoff executor for oracle calls: deterministic seeded
  // retries over a virtual clock, no wall-time reads.
  resilience::DeadlineExecutor oracle_exec(options_.resilience.backoff,
                                           options_.resilience.max_attempts,
                                           options_.resilience.deadline_ticks);

  const auto gather_scaled = [&](std::span<const std::size_t> rows) {
    linalg::Matrix out(rows.size(), grid_scaled_.cols());
    for (std::size_t r = 0; r < rows.size(); ++r) {
      for (std::size_t c = 0; c < grid_scaled_.cols(); ++c) {
        out(r, c) = grid_scaled_(rows[r], c);
      }
    }
    return out;
  };

  /// Runs the oracle under the executor. nullopt = gave up after the
  /// retry budget (the candidate should be abandoned). OnlineContractError
  /// is never retried.
  const auto call_oracle =
      [&](std::size_t row) -> std::optional<std::pair<double, double>> {
    std::pair<double, double> measured{0.0, 0.0};
    const auto validate = [&] {
      if (!(measured.first > 0.0) || !(measured.second > 0.0) ||
          !std::isfinite(measured.first) || !std::isfinite(measured.second)) {
        throw OnlineContractError(
            "OnlineAlDriver: oracle returned non-positive or non-finite "
            "measurement");
      }
    };
    if (!options_.resilience.enabled) {
      measured = oracle_(grid_.row(row));
      validate();
      return measured;
    }
    const resilience::DeadlineExecutor::Outcome outcome =
        oracle_exec.execute("online.oracle", [&]() -> resilience::OpStatus {
          // The acquire.timeout site models an experiment blowing its
          // wall-clock budget; each retry consults the schedule afresh.
          if (faults::fire(faults::Site::kAcquireTimeout)) {
            trace::count("online.oracle_timeouts_injected");
            return resilience::OpStatus::kTimeout;
          }
          try {
            measured = oracle_(grid_.row(row));
          } catch (const OnlineContractError&) {
            throw;  // broken contract, not a transient failure
          } catch (const std::runtime_error&) {
            trace::count("online.oracle_exceptions");
            return resilience::OpStatus::kFailed;
          }
          validate();
          return resilience::OpStatus::kOk;
        });
    if (outcome.status != resilience::OpStatus::kOk) return std::nullopt;
    return measured;
  };

  /// Books a successful experiment: record, labels, regret accounting.
  const auto learn = [&](std::size_t row, double cost, double memory,
                         double mu_c, double mu_m, bool initial) {
    OnlineRecord record;
    record.grid_row = row;
    record.cost = cost;
    record.memory = memory;
    record.predicted_cost_log10 = mu_c;
    record.predicted_mem_log10 = mu_m;
    record.initial_phase = initial;
    cc += cost;
    if (track_regret) cr += individual_regret(cost, memory, limit_mb);
    record.cumulative_cost = cc;
    record.cumulative_regret = cr;
    result.records.push_back(record);
    visited.push_back(row);
    log_cost.push_back(std::log10(cost));
    log_mem.push_back(std::log10(memory));
  };

  const auto snapshot = [&]() {
    OnlineCheckpoint s;
    s.fingerprint = compat;
    s.al_iterations_done = al_done;
    s.visited.assign(visited.begin(), visited.end());
    s.skipped.assign(skipped.begin(), skipped.end());
    s.log_cost = log_cost;
    s.log_mem = log_mem;
    s.theta_cost = model_cost->log_params();
    s.theta_mem = model_mem->log_params();
    s.backend_state_cost = model_cost->save_state();
    s.backend_state_mem = model_mem->save_state();
    s.rng = rng.save_state();
    s.cc = cc;
    s.cr = cr;
    s.oracle_giveups = result.oracle_giveups;
    s.exhausted_safe_candidates = result.exhausted_safe_candidates;
    if (injector) {
      const auto hits = injector->hit_counters();
      const auto fires = injector->fire_counters();
      std::copy(hits.begin(), hits.end(), s.fault_hits.begin());
      std::copy(fires.begin(), fires.end(), s.fault_fires.begin());
    }
    s.records = result.records;
    return s;
  };
  std::size_t new_records = 0;  // experiments recorded by THIS process
  const auto maybe_checkpoint = [&]() {
    if (checkpoint == nullptr || checkpoint->path.empty()) return;
    if (checkpoint->stride == 0 || new_records % checkpoint->stride != 0) {
      return;
    }
    trace::count("online.checkpoints");
    save_online_checkpoint(snapshot(), checkpoint->path, checkpoint->retain);
  };

  // Whether the one-time optimized initial fit still has to happen: it
  // already did iff the run being resumed had completed its init phase
  // (the saved theta carries its result).
  std::size_t init_done = 0;
  for (const OnlineRecord& record : result.records) {
    if (record.initial_phase) ++init_done;
  }
  const bool initial_fit_pending = init_done < options_.n_init;

  // Resume: rebuild both surrogates AT the saved hyperparameters over the
  // saved training set — rng-free (optimize off), and any fault-site
  // consultations the rebuild makes are discarded when the injector
  // counters are restored right after (same contract as run_resumable).
  if (resumed) {
    gp::GprOptions rebuild = options_.refit;
    rebuild.optimize = false;
    model_cost->set_fit_options(rebuild);
    model_mem->set_fit_options(rebuild);
    if (!resumed->backend_state_cost.empty()) {
      model_cost->restore_state(resumed->backend_state_cost);
    }
    if (!resumed->backend_state_mem.empty()) {
      model_mem->restore_state(resumed->backend_state_mem);
    }
    model_cost->set_log_params(resumed->theta_cost);
    model_mem->set_log_params(resumed->theta_mem);
    if (!visited.empty()) {
      model_cost->fit(gather_scaled(visited), log_cost, rng);
      model_mem->fit(gather_scaled(visited), log_mem, rng);
    }
    rng.restore_state(resumed->rng);
    if (injector) {
      injector->restore_counters(resumed->fault_hits, resumed->fault_fires);
    }
  }

  // Initial phase: uniformly random picks (experimenter intuition /
  // verification runs in the paper's workflow). A candidate whose oracle
  // keeps failing is abandoned and does not count toward n_init.
  while (init_done < options_.n_init && !remaining.empty()) {
    const std::size_t local = rng.uniform_index(remaining.size());
    const std::size_t row = remaining[local];
    const std::optional<std::pair<double, double>> measured = call_oracle(row);
    remaining.erase(remaining.begin() + static_cast<std::ptrdiff_t>(local));
    if (!measured.has_value()) {
      ++result.oracle_giveups;
      trace::count("online.oracle_giveups");
      skipped.push_back(row);
      continue;
    }
    learn(row, measured->first, measured->second, 0.0, 0.0, /*initial=*/true);
    ++init_done;
    ++new_records;
    maybe_checkpoint();
  }

  if (visited.empty()) {
    // Every candidate's oracle failed before anything was learned: there
    // is no model to drive AL with.
    visited_count_ = skipped.size();
    result.cost_model = std::move(model_cost);
    result.memory_model = std::move(model_mem);
    return result;
  }

  if (initial_fit_pending) {
    model_cost->set_fit_options(options_.initial_fit);
    model_mem->set_fit_options(options_.initial_fit);
    model_cost->fit(gather_scaled(visited), log_cost, rng);
    model_mem->fit(gather_scaled(visited), log_mem, rng);
  }
  model_cost->set_fit_options(options_.refit);
  model_mem->set_fit_options(options_.refit);

  while (al_done < options_.iterations && !remaining.empty()) {
    if (checkpoint != nullptr && checkpoint->halt_after_iterations != 0 &&
        new_records >= checkpoint->halt_after_iterations) {
      result.halted_at_checkpoint = true;
      break;
    }
    const linalg::Matrix x_remaining = gather_scaled(remaining);
    const gp::Prediction pred_cost = model_cost->predict(x_remaining);
    const gp::Prediction pred_mem = model_mem->predict(x_remaining);
    const CandidateView view{x_remaining, pred_cost.mean, pred_cost.stddev,
                             pred_mem.mean, pred_mem.stddev};
    const std::optional<std::size_t> pick = strategy.select(view, rng);
    if (!pick) {
      result.exhausted_safe_candidates = true;
      break;
    }
    const std::size_t local = *pick;
    const std::size_t row = remaining[local];
    const std::optional<std::pair<double, double>> measured = call_oracle(row);
    remaining.erase(remaining.begin() + static_cast<std::ptrdiff_t>(local));
    // The iteration is consumed whether the oracle delivered or not —
    // counted BEFORE any checkpoint below so a stride save resumes into
    // the correct iteration, not a replay of this one.
    ++al_done;
    if (!measured.has_value()) {
      // The models never see the abandoned candidate again.
      ++result.oracle_giveups;
      trace::count("online.oracle_giveups");
      skipped.push_back(row);
      continue;
    }
    learn(row, measured->first, measured->second, pred_cost.mean[local],
          pred_mem.mean[local], /*initial=*/false);
    model_cost->fit(gather_scaled(visited), log_cost, rng);
    model_mem->fit(gather_scaled(visited), log_mem, rng);
    ++new_records;
    maybe_checkpoint();
  }

  if (checkpoint != nullptr && !checkpoint->path.empty()) {
    // Final (or halt-point) state, so a later process can resume — same
    // completion contract as run_resumable.
    trace::count("online.checkpoints");
    save_online_checkpoint(snapshot(), checkpoint->path, checkpoint->retain);
  }

  visited_count_ = visited.size() + skipped.size();
  result.cost_model = std::move(model_cost);
  result.memory_model = std::move(model_mem);
  return result;
}

}  // namespace alamr::core
