#include "alamr/core/simulator.hpp"

#include <algorithm>
#include <array>
#include <optional>
#include <stdexcept>

#include "alamr/core/checkpoint.hpp"
#include "alamr/core/metrics.hpp"
#include "alamr/linalg/simd.hpp"
#include "alamr/stats/descriptive.hpp"
#include "model_pair.hpp"

namespace alamr::core {

namespace {

std::vector<double> gather(std::span<const double> values,
                           std::span<const std::size_t> rows) {
  std::vector<double> out(rows.size());
  for (std::size_t r = 0; r < rows.size(); ++r) out[r] = values[rows[r]];
  return out;
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
  data::require_finite_features(dataset_.x, "AlSimulator", "the dataset");
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

gp::Kernel AlSimulator::make_kernel() const {
  using Profile = gp::Kernel::Profile;
  switch (options_.kernel) {
    case KernelChoice::kRbf: return gp::make_paper_kernel();
    case KernelChoice::kRbfArd:
      return gp::make_kernel(Profile::kRbfArd, dataset_.dim());
    case KernelChoice::kMatern32:
      return gp::make_kernel(Profile::kMatern32, dataset_.dim());
    case KernelChoice::kMatern52:
      return gp::make_kernel(Profile::kMatern52, dataset_.dim());
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
  return run_trajectory(strategy, strategy.name(), 1, partition, rng, nullptr,
                        shared);
}

TrajectoryResult AlSimulator::run_resumable(const Strategy& strategy,
                                            const data::Partition& partition,
                                            stats::Rng& rng,
                                            const CheckpointConfig& checkpoint,
                                            const SharedBatchContext* shared) const {
  return run_trajectory(strategy, strategy.name(), 1, partition, rng,
                        &checkpoint, shared);
}

TrajectoryResult AlSimulator::run_batched(const Strategy& strategy,
                                          std::size_t batch_size,
                                          const data::Partition& partition,
                                          stats::Rng& rng) const {
  if (batch_size == 0) {
    throw std::invalid_argument("run_batched: batch_size must be >= 1");
  }
  return run_trajectory(
      strategy, strategy.name() + " (batch=" + std::to_string(batch_size) + ")",
      batch_size, partition, rng, nullptr, nullptr);
}

TrajectoryResult AlSimulator::run_trajectory(const Strategy& strategy,
                                             std::string strategy_name,
                                             std::size_t round_size,
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
  result.strategy_name = std::move(strategy_name);
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

  // The loop's carried state is the checkpoint payload: a snapshot only
  // adds the models' theta/state, the rng and the fault counters, and a
  // resume is one assignment.
  TrajectoryCheckpoint state;
  bool resumed = false;
  if (checkpoint != nullptr && checkpoint->resume && !checkpoint->path.empty()) {
    if (std::optional<TrajectoryCheckpoint> loaded =
            load_checkpoint(checkpoint->path, checkpoint->retain)) {
      if (loaded->fingerprint != compat) {
        throw std::runtime_error(
            "run_resumable: checkpoint at " + checkpoint->path.string() +
            " was written by an incompatible configuration (fingerprint "
            "mismatch); refusing to resume");
      }
      state = std::move(*loaded);
      resumed = true;
      trace::count("sim.resumed");
    }
  }
  // Rows are handed to the backends as size_t spans; the payload keeps
  // them as u64, so the two row lists convert at load and at snapshot.
  std::vector<std::size_t> learned(state.learned.begin(), state.learned.end());
  std::vector<std::size_t> active(state.active.begin(), state.active.end());
  state.learned.clear();
  state.active.clear();

  // Test set fixtures (original units for Eq. 10).
  const linalg::Matrix x_test = linalg::gather_rows(x_scaled_, partition.test);
  const std::vector<double> cost_test = gather(dataset_.cost, partition.test);
  const std::vector<double> mem_test = gather(dataset_.memory, partition.test);

  // Per-response posterior backends (DESIGN.md §12), fitted on the Init
  // partition with the thorough options — or, on resume, rebuilt at the
  // saved hyperparameters on the saved training set and labels
  // (penalized labels included), so the continuation cannot diverge.
  ModelPair models(options_.backend, options_.resilience,
                   [this] { return make_kernel(); }, options_.initial_fit);
  if (!resumed) {
    state.fingerprint = compat;
    learned = partition.init;  // Init + selected rows
    active = partition.active;
    state.c_learned = gather(log_cost_, learned);
    state.m_learned = gather(log_mem_, learned);
  }
  {
    const linalg::Matrix x_learned = linalg::gather_rows(x_scaled_, learned);
    const trace::ScopedTimer timer("init");
    if (resumed) {
      models.rebuild(state.models, options_.refit, x_learned, state.c_learned,
                     state.m_learned, rng, base, learned,
                     injector ? &*injector : nullptr);
    } else {
      models.fit(x_learned, state.c_learned, state.m_learned, rng, base,
                 learned);
    }
  }
  models.set_fit_options(options_.refit);
  // Within a round of size > 1 every trained point but the last is a
  // one-row extend at fixed theta; the last one refits.
  gp::GprOptions extend = options_.refit;
  extend.optimize = false;

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
  // Test RMSEs of the current models (Eq. 10 and the cost-weighted
  // Eq. 12, each test residual weighted by the sample's actual cost).
  const auto evaluate = [&] {
    const trace::ScopedTimer timer("rmse");
    state.last_rmse_cost = test_rmse(models.cost(), cost_test, &cost_mu_log);
    state.last_rmse_mem = test_rmse(models.mem(), mem_test);
    state.last_rmse_weighted =
        weighted_rmse(data::exp10_transform(cost_mu_log), cost_test, cost_test);
  };
  // Writes the last computed RMSEs into the records from `first` on.
  const auto record_rmse = [&](std::size_t first) {
    for (std::size_t i = first; i < state.iterations.size(); ++i) {
      state.iterations[i].rmse_cost = state.last_rmse_cost;
      state.iterations[i].rmse_mem = state.last_rmse_mem;
      state.iterations[i].rmse_cost_weighted = state.last_rmse_weighted;
    }
  };
  if (!resumed) {
    evaluate();
    state.initial_rmse_cost = state.last_rmse_cost;
    state.initial_rmse_mem = state.last_rmse_mem;
    state.previous_cost_mu_log = cost_mu_log;
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
  const auto spent = [&] {
    return static_cast<std::size_t>(retry_policy ? state.trained : state.passes);
  };
  state.iterations.reserve(budget);

  // Steady-state allocation avoidance (DESIGN.md §10): every container
  // that grows with the trajectory is reserved at its bound once, so
  // per-pass bookkeeping (training append, cross-matrix row/column
  // maintenance) is pure in-place data movement from here on.
  const std::size_t n_train_max = learned.size() + budget;
  learned.reserve(n_train_max);
  state.c_learned.reserve(n_train_max);
  state.m_learned.reserve(n_train_max);
  models.reserve_additional(budget);

  // Per-trajectory workspace arena plus the persistent candidate-feature
  // buffer (CandidateView needs a Matrix&, so it cannot live in the
  // arena; it shrinks monotonically, so one reservation serves the run).
  // Rounds of size > 1 also keep the round's frozen posterior, compacted
  // as picks leave it.
  linalg::Matrix x_active_buf;
  x_active_buf.reserve(active.size(), x_scaled_.cols());
  std::array<std::vector<double>, 4> frozen;
  if (round_size > 1) {
    for (std::vector<double>& v : frozen) v.reserve(active.size());
  }
  // One chunk at the pair's worst-case pass footprint, so no pass ever
  // touches the heap and the arena's footprint is flat from the first
  // pass (the check.sh gate).
  linalg::Workspace ws(ModelPair::arena_doubles(active.size()));
  std::size_t arena_cap_prev = ws.capacity_doubles();
  std::size_t arena_steady_growth = 0;
  std::size_t arena_passes = 0;

  // Captures the complete driver state for checkpoint/resume.
  const auto snapshot = [&]() {
    TrajectoryCheckpoint s = state;
    s.learned.assign(learned.begin(), learned.end());
    s.active.assign(active.begin(), active.end());
    s.models = models.save(rng, injector ? &*injector : nullptr);
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

  // One round: predict once, pick up to round_size candidates from the
  // frozen posterior (censoring and revealing each as a sequential pass
  // does), retrain once, evaluate once. Round size 1 is Algorithm 1.
  // Index of the last round's first record; a resumed run (always round
  // size 1) starts from the loaded trajectory's last record.
  bool halted = false;
  std::size_t last_round =
      state.iterations.empty() ? 0 : state.iterations.size() - 1;
  while (!active.empty()) {
    if (spent() >= budget) break;
    if (checkpoint != nullptr && checkpoint->halt_after_iterations != 0 &&
        new_passes >= checkpoint->halt_after_iterations) {
      halted = true;
      break;
    }

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
    linalg::gather_rows_into(x_scaled_, active, x_active_buf);
    const gp::CandidateRef pool{x_active_buf, active};
    ModelPair::Posterior post;
    {
      const trace::ScopedTimer timer("predict");
      post = models.predict_candidates(pool, ws);
    }
    const std::size_t round_first = state.iterations.size();
    const std::size_t first_pass = state.passes;
    const std::size_t candidates_before = active.size();
    std::size_t round_trained = 0;
    bool no_pick = false;
    while (true) {
      // The round's first pick reads the sweep's spans; later picks read
      // the frozen posterior with the round's earlier picks left out (the
      // pool features are regathered in the same order).
      const CandidateView view =
          state.iterations.size() == round_first
              ? CandidateView{x_active_buf, post.cost.mean, post.cost.stddev,
                              post.mem.mean, post.mem.stddev}
              : CandidateView{x_active_buf, frozen[0], frozen[1], frozen[2],
                              frozen[3]};
      trace::count("sim.iterations");
      // Line 5: strategy decision.
      std::optional<std::size_t> pick;
      {
        const trace::ScopedTimer timer("select");
        pick = strategy.select(view, rng);
      }
      if (!pick) {
        no_pick = true;
        break;
      }
      const std::size_t local = *pick;
      if (local >= active.size()) {
        throw std::logic_error("AlSimulator: strategy returned invalid index");
      }
      const std::size_t row = active[local];

      // Failure decision for this acquisition. Each injectable site is
      // consulted exactly once per pick (whatever fired earlier), so hit
      // counters advance in lockstep with the pass count — schedules stay
      // simple to reason about and to restore from a checkpoint. When no
      // injector is armed and failure awareness is off, every branch is
      // false and the pick is byte-identical to the historical loop.
      CensorKind censor = CensorKind::kNone;
      {
        const bool injected_oom = faults::fire(faults::Site::kAcquireOom);
        const bool injected_timeout = faults::fire(faults::Site::kAcquireTimeout);
        const bool injected_nan = faults::fire(faults::Site::kDataNanRow);
        if (injected_timeout) {
          // The acquisition sweep consumed both posteriors.
          models.record_external_event(resilience::Event::kAcquireTimeout);
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

      IterationRecord record;
      record.iteration = state.iterations.size();
      record.dataset_row = row;
      record.candidates_before = candidates_before;
      record.censor = censor;
      {
        // Lines 6-9: reveal the sample's measurements and move it from
        // Active to Learned. A censored acquisition still burned its true
        // cost (the core-hours were spent before the failure), so CC — and
        // CR, since nothing usable came back — absorb the full cost.
        const trace::ScopedTimer timer("reveal");
        record.actual_cost = dataset_.cost[row];
        record.actual_memory = dataset_.memory[row];
        record.predicted_cost_log10 = view.mu_cost[local];
        record.predicted_cost_sigma = view.sigma_cost[local];
        record.predicted_mem_log10 = view.mu_mem[local];
        record.predicted_mem_sigma = view.sigma_mem[local];

        state.cc += record.actual_cost;
        if (censor == CensorKind::kNone) {
          state.cr += individual_regret(record.actual_cost, record.actual_memory,
                                        result.memory_limit_mb);
        } else {
          state.cr += record.actual_cost;
        }
        record.cumulative_cost = state.cc;
        record.cumulative_regret = state.cr;

        active.erase(active.begin() + static_cast<std::ptrdiff_t>(local));
        // The candidate left the pool: backends drop whatever per-candidate
        // state they cache (the exact backend's cross-matrix column and
        // prior-diagonal entry — pure data movement, remaining bits kept).
        models.remove_candidate(local);
      }

      if (censor != CensorKind::kNone) {
        trace::count("sim.censored");
        ++state.censored_count;
        state.censored_cost += record.actual_cost;
      }
      // Labels the models train on: the true measurements for a clean
      // acquisition; under kPenalizedLabel a censored run contributes its
      // observed cost and a memory label just above the limit ("it crashed
      // up there"), steering the memory model away from the region. Under
      // kDropCensored / kRetryNextCandidate the models never see the point.
      if (censor == CensorKind::kNone ||
          options_.failures.policy == CensorPolicy::kPenalizedLabel) {
        learned.push_back(row);
        state.c_learned.push_back(log_cost_[row]);
        state.m_learned.push_back(censor == CensorKind::kNone
                                      ? log_mem_[row]
                                      : limit_log10_ +
                                            options_.failures.penalty_offset);
        ++round_trained;
        ++state.trained;
      }
      state.iterations.push_back(record);
      ++state.passes;
      ++new_passes;

      if (state.iterations.size() - round_first == round_size ||
          active.empty() || spent() >= budget) {
        break;
      }
      const std::array<std::span<const double>, 4> current{
          view.mu_cost, view.sigma_cost, view.mu_mem, view.sigma_mem};
      for (std::size_t k = 0; k < frozen.size(); ++k) {
        if (state.iterations.size() - round_first == 1) {
          frozen[k].assign(current[k].begin(), current[k].end());
        }
        frozen[k].erase(frozen[k].begin() + static_cast<std::ptrdiff_t>(local));
      }
      linalg::gather_rows_into(x_scaled_, active, x_active_buf);
    }
    if (state.iterations.size() == round_first) {
      result.early_stopped = true;
      result.stop_reason = StopReason::kNoSafeCandidates;
      break;
    }
    last_round = round_first;

    bool evaluated = false;
    if (round_trained != 0) {
      // Lines 10-11: warm-started refit of both models on Init + Learned.
      // Each backend appends the point and refits its own way (the exact
      // backend through fit_add_point, approximate backends through their
      // bounded updates). `after` describes the POST-round candidate pool
      // for cross-cache row appends; x_active_buf is free for reuse here —
      // the round's view reads are done.
      {
        const trace::ScopedTimer timer("refit");
        std::optional<gp::CandidateRef> after;
        if (!active.empty()) {
          if (base == nullptr) {
            linalg::gather_rows_into(x_scaled_, active, x_active_buf);
          }
          after.emplace(gp::CandidateRef{x_active_buf, active});
        }
        const gp::CandidateRef* after_ptr = after ? &*after : nullptr;
        for (std::size_t i = learned.size() - round_trained; i < learned.size();
             ++i) {
          if (round_trained > 1) {
            models.set_fit_options(i + 1 == learned.size() ? options_.refit
                                                           : extend);
          }
          const std::size_t row = learned[i];
          models.add_point(x_scaled_.row(row), state.c_learned[i],
                           state.m_learned[i], row, rng, after_ptr);
        }
      }

      // Metrics after this round (Eq. 10, non-log space). The final
      // planned round always evaluates so the trajectory never ends on a
      // carried-over value; a stride point is any pass index of the round
      // divisible by rmse_stride.
      const std::size_t stride = options_.rmse_stride;
      evaluated = stride <= 1 ||
                  (state.passes - 1) / stride * stride >= first_pass ||
                  spent() == budget || active.empty() ||
                  options_.stopping.enabled;
      if (evaluated) evaluate();
      state.last_record_evaluated = evaluated;
    }
    // A round's records share the post-round RMSE; a round that trained
    // nothing carries the last computed values (the models did not
    // change, and last_record_evaluated still describes them).
    record_rmse(round_first);

    // Stabilizing-predictions stopping rule (paper Sec. V-D).
    if (options_.stopping.enabled && evaluated) {
      double mean_abs_change = 0.0;
      for (std::size_t t = 0; t < cost_mu_log.size(); ++t) {
        mean_abs_change +=
            std::abs(cost_mu_log[t] - state.previous_cost_mu_log[t]);
      }
      mean_abs_change /= static_cast<double>(cost_mu_log.size());
      state.previous_cost_mu_log = cost_mu_log;
      state.stable_streak = mean_abs_change < options_.stopping.tolerance
                                ? state.stable_streak + 1
                                : 0;
      if (state.passes >= options_.stopping.min_iterations &&
          state.stable_streak >= options_.stopping.patience) {
        result.early_stopped = true;
        result.stop_reason = StopReason::kStabilized;
        break;
      }
    }
    maybe_checkpoint();
    if (no_pick) {
      result.early_stopped = true;
      result.stop_reason = StopReason::kNoSafeCandidates;
      break;
    }
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
  // round with a carried-over RMSE; the models have not changed since
  // that round's refit, so evaluating now yields exactly the value a
  // per-round evaluation would have recorded.
  if (!halted && !state.last_record_evaluated && !state.iterations.empty()) {
    evaluate();
    record_rmse(last_round);
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

  result.initial_rmse_cost = state.initial_rmse_cost;
  result.initial_rmse_mem = state.initial_rmse_mem;
  result.censored_count = static_cast<std::size_t>(state.censored_count);
  result.censored_cost = state.censored_cost;
  result.iterations = std::move(state.iterations);
  if (trace::enabled()) result.trace = collector.report();
  result.trace.fingerprint = fingerprint;
  return result;
}

}  // namespace alamr::core
