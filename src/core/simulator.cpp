#include "alamr/core/simulator.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "alamr/core/checkpoint.hpp"
#include "alamr/core/metrics.hpp"
#include "alamr/linalg/simd.hpp"
#include "alamr/stats/descriptive.hpp"

namespace alamr::core {

namespace {

/// Gathers rows of a matrix into a new matrix.
linalg::Matrix gather_rows(const linalg::Matrix& x,
                           std::span<const std::size_t> rows) {
  linalg::Matrix out(rows.size(), x.cols());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    for (std::size_t c = 0; c < x.cols(); ++c) out(r, c) = x(rows[r], c);
  }
  return out;
}

std::vector<double> gather(std::span<const double> values,
                           std::span<const std::size_t> rows) {
  std::vector<double> out(rows.size());
  for (std::size_t r = 0; r < rows.size(); ++r) out[r] = values[rows[r]];
  return out;
}

/// Refills `out` with the given rows of `x` in place: same values as a
/// freshly gathered matrix, no allocation within reserved capacity.
void gather_rows_into(const linalg::Matrix& x,
                      std::span<const std::size_t> rows, linalg::Matrix& out) {
  out.resize_discard(rows.size(), x.cols());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const auto src = x.row(rows[r]);
    std::copy(src.begin(), src.end(), out.row(r).begin());
  }
}

}  // namespace

std::string to_string(StopReason reason) {
  switch (reason) {
    case StopReason::kActiveExhausted: return "active set exhausted";
    case StopReason::kIterationBudget: return "iteration budget reached";
    case StopReason::kNoSafeCandidates: return "no safe candidates remain";
    case StopReason::kStabilized: return "predictions stabilized";
    case StopReason::kCheckpointHalt: return "halted at checkpoint";
  }
  return "unknown";
}

std::string to_string(CensorKind kind) {
  switch (kind) {
    case CensorKind::kNone: return "none";
    case CensorKind::kOverLimit: return "over_limit";
    case CensorKind::kOom: return "oom";
    case CensorKind::kTimeout: return "timeout";
    case CensorKind::kNanRow: return "nan_row";
  }
  return "unknown";
}

std::string to_string(CensorPolicy policy) {
  switch (policy) {
    case CensorPolicy::kDropCensored: return "drop_censored";
    case CensorPolicy::kPenalizedLabel: return "penalized_label";
    case CensorPolicy::kRetryNextCandidate: return "retry_next_candidate";
  }
  return "unknown";
}

AlSimulator::AlSimulator(const data::Dataset& dataset, AlOptions options)
    : dataset_(dataset), options_(std::move(options)) {
  dataset_.validate();
  if (dataset_.size() < options_.n_test + options_.n_init + 1) {
    throw std::invalid_argument("AlSimulator: dataset too small for partition");
  }
  const linalg::Matrix transformed =
      data::apply_column_transforms(dataset_.x, options_.feature_transforms);
  const data::FeatureScaler scaler = data::FeatureScaler::fit(transformed);
  x_scaled_ = scaler.transform(transformed);
  log_cost_ = data::log10_transform(dataset_.cost);
  log_mem_ = data::log10_transform(dataset_.memory);

  limit_log10_ = std::isnan(options_.memory_limit_log10)
                     ? paper_memory_limit_log10(dataset_)
                     : options_.memory_limit_log10;

  if (options_.trace) trace::set_enabled(true);
}

std::string AlSimulator::trajectory_fingerprint(
    std::string_view strategy_name, const data::Partition& partition) const {
  trace::Fingerprint fp;
  fp.add("alamr.trajectory.v5");
  // The active SIMD dispatch level is part of the numerical identity: the
  // vector levels reassociate reductions, so a trajectory produced at one
  // level is not byte-comparable to (or resumable at) another. Scalar
  // checkpoints keep resuming at scalar on any host.
  fp.add(linalg::simd::to_string(linalg::simd::active_level()));
  fp.add(strategy_name);
  fp.add(static_cast<std::uint64_t>(dataset_.size()));
  fp.add(static_cast<std::uint64_t>(x_scaled_.cols()));
  fp.add(limit_log10_);
  fp.add(static_cast<std::uint64_t>(options_.n_test));
  fp.add(static_cast<std::uint64_t>(options_.n_init));
  fp.add(static_cast<std::uint64_t>(options_.max_iterations));
  fp.add(static_cast<std::uint64_t>(options_.feature_transforms.size()));
  for (const data::ColumnTransform t : options_.feature_transforms) {
    fp.add(static_cast<std::uint64_t>(t));
  }
  fp.add(options_.stopping.enabled);
  fp.add(options_.stopping.tolerance);
  fp.add(static_cast<std::uint64_t>(options_.stopping.patience));
  fp.add(static_cast<std::uint64_t>(options_.stopping.min_iterations));
  fp.add(static_cast<std::uint64_t>(options_.kernel));
  const auto add_gpr_options = [&fp](const gp::GprOptions& o) {
    fp.add(static_cast<std::uint64_t>(o.restarts));
    fp.add(o.normalize_y);
    fp.add(o.optimize);
    fp.add(static_cast<std::uint64_t>(o.max_opt_iterations));
    fp.add(o.initial_jitter);
    fp.add(o.max_jitter);
  };
  add_gpr_options(options_.initial_fit);
  add_gpr_options(options_.refit);
  fp.add(static_cast<std::uint64_t>(options_.rmse_stride));
  // The retired incremental_refit / incremental_cross / batched_predict
  // switches (always on now) keep their bytes, so checkpoints written while
  // they existed still validate.
  fp.add(true);
  fp.add(true);
  fp.add(true);
  // Backend identity: an approximate posterior produces a different (and
  // non-resumable-into-each-other) trajectory, so kind and sizing are part
  // of the fingerprint.
  fp.add(gp::to_string(options_.backend.kind));
  fp.add(static_cast<std::uint64_t>(options_.backend.inducing_points));
  fp.add(static_cast<std::uint64_t>(options_.backend.sod_anchors));
  fp.add(static_cast<std::uint64_t>(options_.backend.experts));
  fp.add(static_cast<std::uint64_t>(options_.backend.min_expert_size));
  fp.add(static_cast<std::uint64_t>(options_.backend.kmeans_iterations));
  fp.add(options_.failures.failure_aware);
  fp.add(static_cast<std::uint64_t>(options_.failures.policy));
  fp.add(options_.failures.penalty_offset);
  fp.add(options_.failures.plan.to_string());
  // Resilience identity: under an armed plan, degradation/retry decisions
  // change the trajectory, so the knobs that shape them are part of the
  // compatibility key. (Disarmed they are byte-invisible, but resuming a
  // faulted run with different healing rules would still be a chimera.)
  fp.add(options_.resilience.enabled);
  fp.add(options_.resilience.ladder);
  fp.add(static_cast<std::uint64_t>(options_.resilience.max_attempts));
  fp.add(static_cast<std::uint64_t>(options_.resilience.breaker_threshold));
  fp.add(static_cast<std::uint64_t>(options_.resilience.probe_after));
  fp.add(static_cast<std::uint64_t>(options_.resilience.deadline_ticks));
  fp.add(static_cast<std::uint64_t>(options_.resilience.backoff.base_ticks));
  fp.add(options_.resilience.backoff.multiplier);
  fp.add(static_cast<std::uint64_t>(options_.resilience.backoff.max_ticks));
  fp.add(options_.resilience.backoff.jitter);
  fp.add(options_.resilience.backoff.seed);
  const auto add_rows = [&fp](std::span<const std::size_t> rows) {
    fp.add(static_cast<std::uint64_t>(rows.size()));
    for (const std::size_t row : rows) fp.add(static_cast<std::uint64_t>(row));
  };
  add_rows(partition.test);
  add_rows(partition.init);
  add_rows(partition.active);
  return fp.hex();
}

double AlSimulator::memory_limit_mb() const noexcept {
  return std::pow(10.0, limit_log10_);
}

double AlSimulator::paper_memory_limit_log10(const data::Dataset& dataset) {
  // The paper describes L_mem as "95% of the largest log-transformed
  // memory usage", but the VALUE it reports is the decisive anchor:
  // L_mem = 7.53 MB against a dataset whose median memory is 8.00 MB —
  // i.e. the limit sits just below the median and rules out roughly half
  // of the jobs (which is what makes the RGMA dynamics in their Fig. 4 so
  // pronounced). We reproduce that anchor with the median of the log10
  // memory responses; callers can always set an explicit limit through
  // AlOptions::memory_limit_log10.
  const std::vector<double> log_mem = data::log10_transform(dataset.memory);
  return stats::quantile(log_mem, 0.5);
}

std::unique_ptr<gp::Kernel> AlSimulator::make_kernel() const {
  switch (options_.kernel) {
    case KernelChoice::kRbf: return gp::make_paper_kernel();
    case KernelChoice::kRbfArd: return gp::make_ard_kernel(dataset_.dim());
    case KernelChoice::kMatern32:
      return gp::make_matern_kernel(gp::MaternKernel::Nu::kThreeHalves);
    case KernelChoice::kMatern52:
      return gp::make_matern_kernel(gp::MaternKernel::Nu::kFiveHalves);
  }
  throw std::logic_error("AlSimulator: unknown kernel choice");
}

SharedBatchContext AlSimulator::make_shared_context() const {
  const trace::ScopedTimer timer("shared_context");
  return SharedBatchContext(std::make_shared<const gp::DistanceBase>(x_scaled_));
}

TrajectoryResult AlSimulator::run(const Strategy& strategy, stats::Rng& rng,
                                  const SharedBatchContext* shared) const {
  const data::Partition partition =
      data::make_partition(dataset_.size(), options_.n_test, options_.n_init, rng);
  return run_with_partition(strategy, partition, rng, shared);
}

TrajectoryResult AlSimulator::run_with_partition(const Strategy& strategy,
                                                 const data::Partition& partition,
                                                 stats::Rng& rng,
                                                 const SharedBatchContext* shared) const {
  return run_trajectory(strategy, partition, rng, nullptr, shared);
}

TrajectoryResult AlSimulator::run_resumable(const Strategy& strategy,
                                            const data::Partition& partition,
                                            stats::Rng& rng,
                                            const CheckpointConfig& checkpoint,
                                            const SharedBatchContext* shared) const {
  return run_trajectory(strategy, partition, rng, &checkpoint, shared);
}

TrajectoryResult AlSimulator::run_trajectory(const Strategy& strategy,
                                             const data::Partition& partition,
                                             stats::Rng& rng,
                                             const CheckpointConfig* checkpoint,
                                             const SharedBatchContext* shared) const {
  // The shared context is dataset identity: a context built by another
  // simulator (different dataset or transforms) would silently gather
  // wrong distances, so shape mismatches are rejected up front.
  const gp::DistanceBase* base =
      shared != nullptr ? &shared->distance_base() : nullptr;
  if (base != nullptr &&
      (base->size() != x_scaled_.rows() || base->dim() != x_scaled_.cols())) {
    throw std::invalid_argument(
        "run_trajectory: SharedBatchContext does not match this simulator's "
        "dataset");
  }
  TrajectoryResult result;
  result.strategy_name = strategy.name();
  result.partition = partition;
  result.memory_limit_mb = memory_limit_mb();

  // Per-trajectory fault injection: an explicit plan in the options wins,
  // else the ALAMR_FAULT_PLAN env plan is instantiated per trajectory.
  // Installing the injector thread-locally also routes the cholesky/opt
  // sites exercised by this trajectory's fits through it (run_batch
  // trajectories execute all nested work inline on their own thread).
  const faults::FaultPlan* plan_source = nullptr;
  if (!options_.failures.plan.empty()) {
    plan_source = &options_.failures.plan;
  } else {
    plan_source = faults::env_plan();
  }
  std::optional<faults::FaultInjector> injector;
  std::optional<faults::ScopedFaultInjector> fault_scope;
  if (plan_source != nullptr) {
    injector.emplace(*plan_source);
    fault_scope.emplace(*injector);
  }

  // Everything counted/timed on this thread lands in this trajectory's
  // collector (and the process-wide one); nested parallel_for sections run
  // their fan-out counters on this thread too, so per-trajectory reports
  // stay exact even inside run_batch.
  trace::TraceCollector collector;
  const trace::ScopedCollector trace_scope(collector);
  if (base != nullptr) trace::count("sim.shared_context_runs");

  // Checkpoint compatibility identity: the options/strategy/partition
  // fingerprint plus the plan ACTUALLY in force (which may come from the
  // environment rather than the options).
  const std::string fingerprint =
      trajectory_fingerprint(result.strategy_name, partition);
  const std::string compat =
      fingerprint + "|plan=" +
      (plan_source != nullptr ? plan_source->to_string() : std::string());

  std::optional<TrajectoryCheckpoint> resumed;
  if (checkpoint != nullptr && checkpoint->resume && !checkpoint->path.empty()) {
    resumed = load_checkpoint(checkpoint->path, checkpoint->retain);
    if (resumed && resumed->fingerprint != compat) {
      throw std::runtime_error(
          "run_resumable: checkpoint at " + checkpoint->path.string() +
          " was written by an incompatible configuration (fingerprint "
          "mismatch); refusing to resume");
    }
    if (resumed) trace::count("sim.resumed");
  }

  // Test set fixtures (original units for Eq. 10).
  const linalg::Matrix x_test = gather_rows(x_scaled_, partition.test);
  const std::vector<double> cost_test = gather(dataset_.cost, partition.test);
  const std::vector<double> mem_test = gather(dataset_.memory, partition.test);

  // Per-response posterior backends (DESIGN.md §12), fitted on the Init
  // partition with the thorough options.
  const auto kernel_factory = [this] { return make_kernel(); };
  const std::unique_ptr<gp::PosteriorBackend> backend_cost =
      gp::make_resilient_backend(options_.backend, options_.resilience,
                                 kernel_factory, options_.initial_fit);
  const std::unique_ptr<gp::PosteriorBackend> backend_mem =
      gp::make_resilient_backend(options_.backend, options_.resilience,
                                 kernel_factory, options_.initial_fit);
  // Concrete handles for the resilience surface (null when the layer is
  // disabled): injected acquisition timeouts are attributed to both
  // models' breakers — the acquisition sweep consumed both posteriors.
  gp::ResilientBackend* const resilient_cost =
      dynamic_cast<gp::ResilientBackend*>(backend_cost.get());
  gp::ResilientBackend* const resilient_mem =
      dynamic_cast<gp::ResilientBackend*>(backend_mem.get());

  std::vector<std::size_t> learned;
  std::vector<std::size_t> active;
  std::vector<double> c_learned;
  std::vector<double> m_learned;
  linalg::Matrix x_learned;

  if (!resumed) {
    learned = partition.init;  // Init + selected rows
    active = partition.active;
    x_learned = gather_rows(x_scaled_, learned);
    c_learned = gather(log_cost_, learned);
    m_learned = gather(log_mem_, learned);
    {
      const trace::ScopedTimer timer("init");
      backend_cost->fit(x_learned, c_learned, rng, base, learned);
      backend_mem->fit(x_learned, m_learned, rng, base, learned);
    }
  } else {
    // Rebuild the exact mid-trajectory state: training set and labels
    // (penalized labels included) from the checkpoint, backends refit AT
    // the saved hyperparameters with optimization disabled (no rng draws)
    // — the posterior is a pure function of (X, y, theta) plus any opaque
    // backend state (restored first), and the full rebuild produces the
    // same bits the live incremental path had (golden-tested), so the
    // continuation cannot diverge.
    learned.assign(resumed->learned.begin(), resumed->learned.end());
    active.assign(resumed->active.begin(), resumed->active.end());
    c_learned = resumed->c_learned;
    m_learned = resumed->m_learned;
    x_learned = gather_rows(x_scaled_, learned);
    gp::GprOptions rebuild = options_.refit;
    rebuild.optimize = false;
    backend_cost->set_fit_options(rebuild);
    backend_mem->set_fit_options(rebuild);
    if (!resumed->backend_state_cost.empty()) {
      backend_cost->restore_state(resumed->backend_state_cost);
    }
    if (!resumed->backend_state_mem.empty()) {
      backend_mem->restore_state(resumed->backend_state_mem);
    }
    backend_cost->set_log_params(resumed->theta_cost);
    backend_mem->set_log_params(resumed->theta_mem);
    {
      const trace::ScopedTimer timer("init");
      backend_cost->fit(x_learned, c_learned, rng, base, learned);
      backend_mem->fit(x_learned, m_learned, rng, base, learned);
    }
    rng.restore_state(resumed->rng);
    if (injector) {
      injector->restore_counters(resumed->fault_hits, resumed->fault_fires);
    }
  }
  backend_cost->set_fit_options(options_.refit);
  backend_mem->set_fit_options(options_.refit);

  // Test predictions in log space are reused by both the RMSE metric and
  // the stabilizing-predictions stopping rule. Each backend routes the
  // evaluation through its own cross-covariance machinery (the exact
  // backend gathers the train-to-test distance slab from the shared
  // DistanceBase when one is in play — bitwise identical to recomputing).
  std::vector<double> cost_mu_log;
  const auto test_rmse = [&](gp::PosteriorBackend& model,
                             std::span<const double> actual,
                             std::vector<double>* mu_log_out = nullptr) {
    std::vector<double> mu_log = model.predict_mean(x_test, partition.test);
    const std::vector<double> mu = data::exp10_transform(mu_log);
    const double err = rmse(mu, actual);
    if (mu_log_out != nullptr) *mu_log_out = std::move(mu_log);
    return err;
  };
  std::vector<double> previous_cost_mu_log;
  std::size_t stable_streak = 0;
  // Cost-weighted RMSE (Eq. 12): weight each test residual by the test
  // sample's actual cost.
  const auto weighted = [&](std::span<const double> mu_log) {
    return weighted_rmse(data::exp10_transform(mu_log), cost_test, cost_test);
  };
  double last_rmse_cost_weighted = 0.0;
  double cc = 0.0;
  double cr = 0.0;
  double last_rmse_cost = 0.0;
  double last_rmse_mem = 0.0;
  std::size_t passes = 0;   // loop passes recorded (censored included)
  std::size_t trained = 0;  // successful (uncensored or penalized) refits
  bool last_record_evaluated = true;

  if (!resumed) {
    {
      const trace::ScopedTimer timer("rmse");
      result.initial_rmse_cost =
          test_rmse(*backend_cost, cost_test, &cost_mu_log);
      result.initial_rmse_mem = test_rmse(*backend_mem, mem_test);
    }
    previous_cost_mu_log = cost_mu_log;
    last_rmse_cost_weighted = weighted(cost_mu_log);
    last_rmse_cost = result.initial_rmse_cost;
    last_rmse_mem = result.initial_rmse_mem;
  } else {
    result.initial_rmse_cost = resumed->initial_rmse_cost;
    result.initial_rmse_mem = resumed->initial_rmse_mem;
    previous_cost_mu_log = resumed->previous_cost_mu_log;
    stable_streak = static_cast<std::size_t>(resumed->stable_streak);
    last_rmse_cost_weighted = resumed->last_rmse_weighted;
    cc = resumed->cc;
    cr = resumed->cr;
    last_rmse_cost = resumed->last_rmse_cost;
    last_rmse_mem = resumed->last_rmse_mem;
    last_record_evaluated = resumed->last_record_evaluated;
    passes = static_cast<std::size_t>(resumed->passes);
    trained = static_cast<std::size_t>(resumed->trained);
    result.iterations = resumed->iterations;
    result.censored_count = static_cast<std::size_t>(resumed->censored_count);
    result.censored_cost = resumed->censored_cost;
  }

  // Budget counts successful acquisitions under kRetryNextCandidate and
  // total passes otherwise (censored passes then consume budget too, as a
  // wasted allocation would).
  const bool retry_policy =
      options_.failures.policy == CensorPolicy::kRetryNextCandidate;
  const std::size_t budget =
      options_.max_iterations == 0
          ? partition.active.size()
          : std::min(options_.max_iterations, partition.active.size());
  result.iterations.reserve(budget);

  // Steady-state allocation avoidance (DESIGN.md §10): every container
  // that grows with the trajectory is reserved at its bound once, so
  // per-pass bookkeeping (training append, cross-matrix row/column
  // maintenance) is pure in-place data movement from here on.
  const std::size_t n_train_max = learned.size() + budget;
  learned.reserve(n_train_max);
  c_learned.reserve(n_train_max);
  m_learned.reserve(n_train_max);
  backend_cost->reserve_additional(budget);
  backend_mem->reserve_additional(budget);

  // Per-trajectory workspace arena plus the persistent candidate-feature
  // buffer (CandidateView needs a Matrix&, so it cannot live in the
  // arena; it shrinks monotonically, so one reservation serves the run).
  linalg::Matrix x_active_buf;
  x_active_buf.reserve(active.size(), x_scaled_.cols());
  linalg::Workspace ws;
  {
    // Pre-size one chunk at the worst-case pass footprint the two
    // backends report — the first backend's outputs stay live while the
    // second predicts, so the bound is max(out_1 + scratch_1,
    // out_1 + out_2 + scratch_2). For two exact backends this is exactly
    // the historical 4*m0 + z_peak bound, so no pass ever touches the
    // heap and the arena's footprint is flat from the first pass (the
    // check.sh gate).
    const std::size_t m0 = active.size();
    const std::size_t n0 = learned.size();
    const gp::WorkspaceBound bound_cost =
        backend_cost->workspace_bound(n0, m0, budget);
    const gp::WorkspaceBound bound_mem =
        backend_mem->workspace_bound(n0, m0, budget);
    const std::size_t doubles =
        std::max(bound_cost.outputs + bound_cost.scratch,
                 bound_cost.outputs + bound_mem.outputs + bound_mem.scratch);
    if (doubles != 0) {
      ws.alloc(doubles);
      ws.reset();
    }
  }
  std::size_t arena_cap_prev = ws.capacity_doubles();
  std::size_t arena_steady_growth = 0;
  std::size_t arena_passes = 0;

  // Captures the complete driver state for checkpoint/resume.
  const auto snapshot = [&]() {
    TrajectoryCheckpoint s;
    s.fingerprint = compat;
    s.passes = passes;
    s.trained = trained;
    s.learned.assign(learned.begin(), learned.end());
    s.active.assign(active.begin(), active.end());
    s.c_learned = c_learned;
    s.m_learned = m_learned;
    s.theta_cost = backend_cost->log_params();
    s.theta_mem = backend_mem->log_params();
    s.backend_state_cost = backend_cost->save_state();
    s.backend_state_mem = backend_mem->save_state();
    s.rng = rng.save_state();
    s.cc = cc;
    s.cr = cr;
    s.last_rmse_cost = last_rmse_cost;
    s.last_rmse_mem = last_rmse_mem;
    s.last_rmse_weighted = last_rmse_cost_weighted;
    s.last_record_evaluated = last_record_evaluated;
    s.initial_rmse_cost = result.initial_rmse_cost;
    s.initial_rmse_mem = result.initial_rmse_mem;
    s.stable_streak = stable_streak;
    s.previous_cost_mu_log = previous_cost_mu_log;
    s.censored_count = result.censored_count;
    s.censored_cost = result.censored_cost;
    if (injector) {
      const auto hits = injector->hit_counters();
      const auto fires = injector->fire_counters();
      std::copy(hits.begin(), hits.end(), s.fault_hits.begin());
      std::copy(fires.begin(), fires.end(), s.fault_fires.begin());
    }
    s.iterations = result.iterations;
    return s;
  };
  std::size_t new_passes = 0;  // passes executed by THIS process
  const auto maybe_checkpoint = [&]() {
    if (checkpoint == nullptr || checkpoint->path.empty()) return;
    if (checkpoint->stride == 0 || new_passes % checkpoint->stride != 0) return;
    const trace::ScopedTimer timer("checkpoint");
    trace::count("sim.checkpoints");
    save_checkpoint(snapshot(), checkpoint->path, checkpoint->retain);
  };

  bool halted = false;
  while (!active.empty()) {
    if ((retry_policy ? trained : passes) >= budget) break;
    if (checkpoint != nullptr && checkpoint->halt_after_iterations != 0 &&
        new_passes >= checkpoint->halt_after_iterations) {
      halted = true;
      break;
    }
    trace::count("sim.iterations");

    // Arena steadiness bookkeeping: after the pre-warmed first pass the
    // arena's owned capacity must stay flat — any growth past pass 0 is a
    // sizing bug and trips the check.sh zero-allocation gate via the
    // arena.steady_growth counter (DESIGN.md §10).
    if (arena_passes > 0 && ws.capacity_doubles() > arena_cap_prev) {
      ++arena_steady_growth;
    }
    arena_cap_prev = ws.capacity_doubles();
    ++arena_passes;
    const linalg::Workspace::Scope pass_scope(ws);

    // Algorithm 1, lines 3-4: predict over remaining candidates. Each
    // backend runs its own posterior sweep (the exact backend resumes its
    // candidate panel over the kept cross matrix); outputs land in spans
    // that stay valid until the backend's next fit/add_point/predict call
    // or the pass scope rewinds.
    gather_rows_into(x_scaled_, active, x_active_buf);
    const gp::CandidateRef pool{x_active_buf, active};
    std::span<const double> mu_c;
    std::span<const double> sd_c;
    std::span<const double> mu_m;
    std::span<const double> sd_m;
    {
      const trace::ScopedTimer timer("predict");
      const gp::PosteriorSpans post_cost =
          backend_cost->predict_candidates(pool, ws);
      const gp::PosteriorSpans post_mem =
          backend_mem->predict_candidates(pool, ws);
      mu_c = post_cost.mean;
      sd_c = post_cost.stddev;
      mu_m = post_mem.mean;
      sd_m = post_mem.stddev;
    }

    const CandidateView view{x_active_buf, mu_c, sd_c, mu_m, sd_m};

    // Line 5: strategy decision.
    std::optional<std::size_t> pick;
    {
      const trace::ScopedTimer timer("select");
      pick = strategy.select(view, rng);
    }
    if (!pick) {
      result.early_stopped = true;
      result.stop_reason = StopReason::kNoSafeCandidates;
      break;
    }
    const std::size_t local = *pick;
    if (local >= active.size()) {
      throw std::logic_error("AlSimulator: strategy returned invalid index");
    }
    const std::size_t row = active[local];

    // Failure decision for this acquisition. Each injectable site is
    // consulted exactly once per pass (whatever fired earlier), so hit
    // counters advance in lockstep with the pass count — schedules stay
    // simple to reason about and to restore from a checkpoint. When no
    // injector is armed and failure awareness is off, every branch is
    // false and the pass is byte-identical to the historical loop.
    CensorKind censor = CensorKind::kNone;
    {
      const bool injected_oom = faults::fire(faults::Site::kAcquireOom);
      const bool injected_timeout = faults::fire(faults::Site::kAcquireTimeout);
      const bool injected_nan = faults::fire(faults::Site::kDataNanRow);
      if (injected_timeout) {
        if (resilient_cost != nullptr) {
          resilient_cost->record_external_event(
              resilience::Event::kAcquireTimeout);
        }
        if (resilient_mem != nullptr) {
          resilient_mem->record_external_event(
              resilience::Event::kAcquireTimeout);
        }
      }
      if (injected_oom) {
        censor = CensorKind::kOom;
      } else if (injected_timeout) {
        censor = CensorKind::kTimeout;
      } else if (injected_nan) {
        censor = CensorKind::kNanRow;
      } else if (options_.failures.failure_aware &&
                 log_mem_[row] > limit_log10_) {
        censor = CensorKind::kOverLimit;
      }
    }
    const bool train = censor == CensorKind::kNone ||
                       options_.failures.policy == CensorPolicy::kPenalizedLabel;

    IterationRecord record;
    record.iteration = result.iterations.size();
    record.dataset_row = row;
    record.candidates_before = active.size();
    record.censor = censor;
    {
      // Lines 6-9: reveal the sample's measurements and move it from
      // Active to Learned. A censored acquisition still burned its true
      // cost (the core-hours were spent before the failure), so CC — and
      // CR, since nothing usable came back — absorb the full cost.
      const trace::ScopedTimer timer("reveal");
      record.actual_cost = dataset_.cost[row];
      record.actual_memory = dataset_.memory[row];
      record.predicted_cost_log10 = mu_c[local];
      record.predicted_cost_sigma = sd_c[local];
      record.predicted_mem_log10 = mu_m[local];
      record.predicted_mem_sigma = sd_m[local];

      cc += record.actual_cost;
      if (censor == CensorKind::kNone) {
        cr += individual_regret(record.actual_cost, record.actual_memory,
                                result.memory_limit_mb);
      } else {
        cr += record.actual_cost;
      }
      record.cumulative_cost = cc;
      record.cumulative_regret = cr;

      active.erase(active.begin() + static_cast<std::ptrdiff_t>(local));
      // The candidate left the pool: backends drop whatever per-candidate
      // state they cache (the exact backend's cross-matrix column and
      // prior-diagonal entry — pure data movement, remaining bits kept).
      backend_cost->remove_candidate(local);
      backend_mem->remove_candidate(local);
    }

    if (censor != CensorKind::kNone) {
      trace::count("sim.censored");
      ++result.censored_count;
      result.censored_cost += record.actual_cost;
    }

    if (!train) {
      // kDropCensored / kRetryNextCandidate: the models never see the
      // point. RMSE columns carry the last computed values (the models
      // did not change, so nothing new to evaluate); last_record_evaluated
      // is deliberately untouched — whether the carried value is current
      // depends on the last TRAINED pass, which already set it.
      record.rmse_cost = last_rmse_cost;
      record.rmse_mem = last_rmse_mem;
      record.rmse_cost_weighted = last_rmse_cost_weighted;
      result.iterations.push_back(record);
      ++passes;
      ++new_passes;
      maybe_checkpoint();
      continue;
    }

    // Labels the models train on: the true measurements for a clean
    // acquisition; under kPenalizedLabel a censored run contributes its
    // observed cost and a memory label just above the limit ("it crashed
    // up there"), steering the memory model away from the region.
    const double c_label = log_cost_[row];
    const double m_label = censor == CensorKind::kNone
                               ? log_mem_[row]
                               : limit_log10_ + options_.failures.penalty_offset;
    learned.push_back(row);
    c_learned.push_back(c_label);
    m_learned.push_back(m_label);

    // Lines 10-11: warm-started refit of both models on Init + Learned.
    // Each backend appends the point and refits its own way (the exact
    // backend through fit_add_point, approximate backends through their
    // bounded updates). `after` describes the POST-acquisition candidate
    // pool for cross-cache row appends; x_active_buf is free for reuse
    // here — the CandidateView and its record reads are done for this pass.
    {
      const trace::ScopedTimer timer("refit");
      std::optional<gp::CandidateRef> after;
      if (!active.empty()) {
        if (base == nullptr) gather_rows_into(x_scaled_, active, x_active_buf);
        after.emplace(gp::CandidateRef{x_active_buf, active});
      }
      const gp::CandidateRef* after_ptr = after ? &*after : nullptr;
      backend_cost->add_point(x_scaled_.row(row), c_label, row, rng, after_ptr);
      backend_mem->add_point(x_scaled_.row(row), m_label, row, rng, after_ptr);
    }

    // Metrics after this iteration (Eq. 10, non-log space). The final
    // planned iteration always evaluates so the trajectory never ends on
    // a carried-over value. `passes` here still holds this pass's 0-based
    // index (incremented below), matching the historical `iter`.
    const bool final_pass =
        (retry_policy ? trained : passes) + 1 == budget;
    const bool evaluate_now = options_.rmse_stride <= 1 ||
                              passes % options_.rmse_stride == 0 ||
                              final_pass ||
                              active.empty() || options_.stopping.enabled;
    if (evaluate_now) {
      const trace::ScopedTimer timer("rmse");
      last_rmse_cost = test_rmse(*backend_cost, cost_test, &cost_mu_log);
      last_rmse_mem = test_rmse(*backend_mem, mem_test);
      last_rmse_cost_weighted = weighted(cost_mu_log);
    }
    last_record_evaluated = evaluate_now;
    record.rmse_cost = last_rmse_cost;
    record.rmse_mem = last_rmse_mem;
    record.rmse_cost_weighted = last_rmse_cost_weighted;

    result.iterations.push_back(record);
    ++trained;
    ++passes;
    ++new_passes;

    // Stabilizing-predictions stopping rule (paper Sec. V-D).
    if (options_.stopping.enabled && evaluate_now) {
      double mean_abs_change = 0.0;
      for (std::size_t t = 0; t < cost_mu_log.size(); ++t) {
        mean_abs_change += std::abs(cost_mu_log[t] - previous_cost_mu_log[t]);
      }
      mean_abs_change /= static_cast<double>(cost_mu_log.size());
      previous_cost_mu_log = cost_mu_log;
      stable_streak =
          mean_abs_change < options_.stopping.tolerance ? stable_streak + 1 : 0;
      if (passes >= options_.stopping.min_iterations &&
          stable_streak >= options_.stopping.patience) {
        result.early_stopped = true;
        result.stop_reason = StopReason::kStabilized;
        break;
      }
    }
    maybe_checkpoint();
  }
  if (halted) {
    result.stop_reason = StopReason::kCheckpointHalt;
    if (checkpoint != nullptr && !checkpoint->path.empty()) {
      save_checkpoint(snapshot(), checkpoint->path, checkpoint->retain);
    }
  } else if (result.stop_reason != StopReason::kNoSafeCandidates &&
             result.stop_reason != StopReason::kStabilized) {
    result.stop_reason = active.empty() ? StopReason::kActiveExhausted
                                        : StopReason::kIterationBudget;
  }

  // An early stop between stride points would otherwise leave the last
  // record with a carried-over RMSE; the models have not changed since
  // that iteration's refit, so evaluating now yields exactly the value a
  // per-iteration evaluation would have recorded.
  if (!halted && !last_record_evaluated && !result.iterations.empty()) {
    const trace::ScopedTimer timer("rmse");
    IterationRecord& last = result.iterations.back();
    last.rmse_cost = test_rmse(*backend_cost, cost_test, &cost_mu_log);
    last.rmse_mem = test_rmse(*backend_mem, mem_test);
    last.rmse_cost_weighted = weighted(cost_mu_log);
  }

  // A completed trajectory retires its checkpoint — every rotated
  // generation, or a later resume at this path would fall back to one; a
  // halted one leaves the files in place for the next shard to resume.
  if (!halted && checkpoint != nullptr && !checkpoint->path.empty()) {
    remove_checkpoint(checkpoint->path, checkpoint->retain);
  }

  // Arena instrumentation. Counters exist only when counted, and every
  // count below is guarded on nonzero, so pre-existing golden trace
  // bytes are untouched when the arena was never used.
  if (const std::size_t cap_bytes = ws.capacity_doubles() * sizeof(double);
      cap_bytes != 0) {
    trace::count("arena.bytes_peak", cap_bytes);
  }
  if (const std::size_t peak = ws.bytes_peak(); peak != 0) {
    trace::count("arena.inuse_peak_bytes", peak);
  }
  if (ws.heap_allocations() != 0) {
    trace::count("arena.chunk_allocs", ws.heap_allocations());
  }
  if (arena_steady_growth != 0) {
    trace::count("arena.steady_growth", arena_steady_growth);
  }
  if (ws.open_scopes() != 0) {
    trace::count("arena.scope_leaks", ws.open_scopes());
  }

  if (trace::enabled()) result.trace = collector.report();
  result.trace.fingerprint = fingerprint;
  return result;
}

TrajectoryResult AlSimulator::run_batched(const Strategy& strategy,
                                          std::size_t batch_size,
                                          const data::Partition& partition,
                                          stats::Rng& rng) const {
  if (batch_size == 0) {
    throw std::invalid_argument("run_batched: batch_size must be >= 1");
  }

  TrajectoryResult result;
  result.strategy_name =
      strategy.name() + " (batch=" + std::to_string(batch_size) + ")";
  result.partition = partition;
  result.memory_limit_mb = memory_limit_mb();

  trace::TraceCollector collector;
  const trace::ScopedCollector trace_scope(collector);

  const linalg::Matrix x_test = gather_rows(x_scaled_, partition.test);
  const std::vector<double> cost_test = gather(dataset_.cost, partition.test);
  const std::vector<double> mem_test = gather(dataset_.memory, partition.test);

  // Batch rounds run the plain fit/predict recipe through the
  // predict()/predict_mean() entry points (no candidate caches).
  const auto kernel_factory = [this] { return make_kernel(); };
  const std::unique_ptr<gp::PosteriorBackend> backend_cost =
      gp::make_resilient_backend(options_.backend, options_.resilience,
                                 kernel_factory, options_.initial_fit);
  const std::unique_ptr<gp::PosteriorBackend> backend_mem =
      gp::make_resilient_backend(options_.backend, options_.resilience,
                                 kernel_factory, options_.initial_fit);

  std::vector<std::size_t> learned(partition.init);
  linalg::Matrix x_learned = gather_rows(x_scaled_, learned);
  std::vector<double> c_learned = gather(log_cost_, learned);
  std::vector<double> m_learned = gather(log_mem_, learned);
  {
    const trace::ScopedTimer timer("init");
    backend_cost->fit(x_learned, c_learned, rng);
    backend_mem->fit(x_learned, m_learned, rng);
  }
  backend_cost->set_fit_options(options_.refit);
  backend_mem->set_fit_options(options_.refit);

  const auto test_rmse = [&](gp::PosteriorBackend& model,
                             std::span<const double> actual) {
    const std::vector<double> mu =
        data::exp10_transform(model.predict_mean(x_test));
    return rmse(mu, actual);
  };
  {
    const trace::ScopedTimer timer("rmse");
    result.initial_rmse_cost = test_rmse(*backend_cost, cost_test);
    result.initial_rmse_mem = test_rmse(*backend_mem, mem_test);
  }

  std::vector<std::size_t> active(partition.active);
  double cc = 0.0;
  double cr = 0.0;
  const std::size_t budget = options_.max_iterations == 0
                                 ? active.size()
                                 : std::min(options_.max_iterations, active.size());
  std::size_t selected_total = 0;

  while (selected_total < budget && !active.empty()) {
    trace::count("sim.rounds");

    // One prediction pass per round; within the round the model is frozen
    // and already-picked candidates are simply excluded from the view.
    const linalg::Matrix x_active = gather_rows(x_scaled_, active);
    gp::Prediction pred_cost;
    gp::Prediction pred_mem;
    {
      const trace::ScopedTimer timer("predict");
      pred_cost = backend_cost->predict(x_active);
      pred_mem = backend_mem->predict(x_active);
    }

    std::vector<std::size_t> remaining(active.size());
    for (std::size_t i = 0; i < active.size(); ++i) remaining[i] = i;

    std::vector<std::size_t> picked_locals;
    bool exhausted = false;
    const std::size_t round_quota =
        std::min(batch_size, budget - selected_total);
    {
      const trace::ScopedTimer timer("select");
      while (picked_locals.size() < round_quota && !remaining.empty()) {
        linalg::Matrix x_view(remaining.size(), x_scaled_.cols());
        std::vector<double> mu_c(remaining.size());
        std::vector<double> sd_c(remaining.size());
        std::vector<double> mu_m(remaining.size());
        std::vector<double> sd_m(remaining.size());
        for (std::size_t v = 0; v < remaining.size(); ++v) {
          const std::size_t local = remaining[v];
          for (std::size_t c = 0; c < x_scaled_.cols(); ++c) {
            x_view(v, c) = x_active(local, c);
          }
          mu_c[v] = pred_cost.mean[local];
          sd_c[v] = pred_cost.stddev[local];
          mu_m[v] = pred_mem.mean[local];
          sd_m[v] = pred_mem.stddev[local];
        }
        const CandidateView view{x_view, mu_c, sd_c, mu_m, sd_m};
        const std::optional<std::size_t> pick = strategy.select(view, rng);
        if (!pick) {
          exhausted = true;
          break;
        }
        picked_locals.push_back(remaining[*pick]);
        remaining.erase(remaining.begin() + static_cast<std::ptrdiff_t>(*pick));
      }
    }
    if (picked_locals.empty()) {
      result.early_stopped = true;
      result.stop_reason = StopReason::kNoSafeCandidates;
      break;
    }

    // Reveal the whole batch, then retrain once.
    trace::count("sim.iterations", picked_locals.size());
    std::vector<IterationRecord> round_records;
    {
      const trace::ScopedTimer timer("reveal");
      for (const std::size_t local : picked_locals) {
        const std::size_t row = active[local];
        IterationRecord record;
        record.iteration = selected_total + round_records.size();
        record.dataset_row = row;
        record.candidates_before = active.size();
        record.actual_cost = dataset_.cost[row];
        record.actual_memory = dataset_.memory[row];
        record.predicted_cost_log10 = pred_cost.mean[local];
        record.predicted_cost_sigma = pred_cost.stddev[local];
        record.predicted_mem_log10 = pred_mem.mean[local];
        record.predicted_mem_sigma = pred_mem.stddev[local];
        cc += record.actual_cost;
        cr += individual_regret(record.actual_cost, record.actual_memory,
                                result.memory_limit_mb);
        record.cumulative_cost = cc;
        record.cumulative_regret = cr;
        learned.push_back(row);
        round_records.push_back(record);
      }
      // Remove picked rows from Active (descending local order keeps
      // indices valid).
      std::vector<std::size_t> sorted_locals(picked_locals);
      std::sort(sorted_locals.rbegin(), sorted_locals.rend());
      for (const std::size_t local : sorted_locals) {
        active.erase(active.begin() + static_cast<std::ptrdiff_t>(local));
      }
      selected_total += picked_locals.size();
    }

    {
      const trace::ScopedTimer timer("refit");
      x_learned = gather_rows(x_scaled_, learned);
      c_learned = gather(log_cost_, learned);
      m_learned = gather(log_mem_, learned);
      backend_cost->fit(x_learned, c_learned, rng);
      backend_mem->fit(x_learned, m_learned, rng);
    }

    double rmse_cost_now = 0.0;
    double rmse_mem_now = 0.0;
    double rmse_weighted_now = 0.0;
    {
      const trace::ScopedTimer timer("rmse");
      const std::vector<double> round_mu =
          data::exp10_transform(backend_cost->predict_mean(x_test));
      rmse_cost_now = rmse(round_mu, cost_test);
      rmse_mem_now = test_rmse(*backend_mem, mem_test);
      rmse_weighted_now = weighted_rmse(round_mu, cost_test, cost_test);
    }
    for (IterationRecord& record : round_records) {
      record.rmse_cost = rmse_cost_now;
      record.rmse_mem = rmse_mem_now;
      record.rmse_cost_weighted = rmse_weighted_now;
      result.iterations.push_back(record);
    }
    if (exhausted) {
      result.early_stopped = true;
      result.stop_reason = StopReason::kNoSafeCandidates;
      break;
    }
  }
  if (result.stop_reason != StopReason::kNoSafeCandidates) {
    result.stop_reason = active.empty() ? StopReason::kActiveExhausted
                                        : StopReason::kIterationBudget;
  }

  if (trace::enabled()) result.trace = collector.report();
  result.trace.fingerprint =
      trajectory_fingerprint(result.strategy_name, partition);
  return result;
}

}  // namespace alamr::core
