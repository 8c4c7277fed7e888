#include "online_session.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "alamr/core/metrics.hpp"
#include "alamr/data/dataset.hpp"
#include "alamr/gp/kernels.hpp"

namespace alamr::core {

namespace {

gp::BackendKind active_kind(const gp::PosteriorBackend& model,
                            resilience::Health& health) {
  if (const auto* res = dynamic_cast<const gp::ResilientBackend*>(&model)) {
    health = res->health();
    return res->active_kind();
  }
  return model.kind();
}

}  // namespace

GridContext::GridContext(linalg::Matrix raw)
    : grid(std::move(raw)),
      scaler(data::FeatureScaler::fit(grid)),
      grid_scaled(scaler.transform(grid)),
      batch(std::make_shared<const gp::DistanceBase>(grid_scaled)) {}

void validate_online_setup(const linalg::Matrix& grid,
                           const OnlineAlOptions& options,
                           std::string_view who) {
  const auto fail = [who](const char* what) {
    throw std::invalid_argument(std::string(who) + ": " + what);
  };
  if (grid.rows() == 0) fail("empty candidate grid");
  data::require_finite_features(grid, who, "the candidate grid");
  if (options.n_init == 0) fail("n_init must be >= 1");
  if (options.n_init + options.iterations > grid.rows()) {
    fail("grid smaller than n_init + iterations");
  }
}

void Refit::run() {
  std::optional<faults::ScopedFaultInjector> scope;
  if (injector) scope.emplace(*injector);
  const linalg::Matrix x = linalg::gather_rows(ctx->grid_scaled, rows);
  models.set_fit_options(fit);
  models.fit(x, log_cost, log_mem, rng, ctx->base(), rows);
  // Between refits the request path only pays one-row Cholesky extends at
  // the theta this fit just produced — re-optimizing there would put the
  // full-refit cost back on the request path.
  models.set_fit_options(extend);
}

OnlineSession::OnlineSession(std::shared_ptr<const GridContext> ctx,
                             const Strategy& strategy,
                             OnlineAlOptions options, const stats::Rng& rng,
                             std::size_t retrain_stride)
    : ctx_(std::move(ctx)),
      strategy_(strategy.clone()),
      options_(std::move(options)),
      stride_(std::max<std::size_t>(retrain_stride, 1)),
      rng_(rng) {
  // An explicit plan in the options wins, else the ALAMR_FAULT_PLAN env
  // plan (the same rule as run_trajectory).
  const faults::FaultPlan* plan =
      !options_.plan.empty() ? &options_.plan : faults::env_plan();
  if (plan != nullptr) injector_.emplace(*plan);
  fingerprint_ = online_run_fingerprint(
      ctx_->grid, strategy_->name(), options_,
      plan != nullptr ? plan->to_string() : std::string());

  // Surrogates behind the degradation ladder (DESIGN.md §14), constructed
  // with the thorough initial-fit options like the simulator's backends.
  models_ = ModelPair(options_.backend, options_.resilience,
                      [] { return gp::make_paper_kernel(); },
                      options_.initial_fit);
  if (!std::isnan(options_.memory_limit_log10)) {
    limit_mb_ = std::pow(10.0, options_.memory_limit_log10);
  }

  const std::size_t rows = ctx_->grid.rows();
  remaining_.resize(rows);
  std::iota(remaining_.begin(), remaining_.end(), std::size_t{0});
  ws_.emplace(ModelPair::arena_doubles(rows));
}

bool OnlineSession::initial_phase() const noexcept {
  return init_done_ < options_.n_init && !remaining_.empty();
}

bool OnlineSession::done() const noexcept {
  if (initial_phase()) return false;
  if (exhausted_ || remaining_.empty() || visited_.empty()) return true;
  return al_done_ >= options_.iterations;
}

void OnlineSession::require_settled(const char* op) const {
  if (due_fit_) {
    throw std::logic_error(std::string("online session: ") + op +
                           " before the due refit ran");
  }
}

OnlineSession::Pending OnlineSession::take_pending(const char* op) {
  if (!pending_) {
    throw OnlineContractError(std::string("online session: ") + op +
                              " without an outstanding suggestion");
  }
  const Pending p = *pending_;
  pending_.reset();
  remaining_.erase(remaining_.begin() + static_cast<std::ptrdiff_t>(p.local));
  return p;
}

void OnlineSession::learn(const Pending& p, double cost, double memory) {
  OnlineRecord record;
  record.grid_row = p.row;
  record.cost = cost;
  record.memory = memory;
  record.predicted_cost_log10 = p.mu_c;
  record.predicted_mem_log10 = p.mu_m;
  record.initial_phase = p.initial;
  cc_ += cost;
  if (!std::isnan(options_.memory_limit_log10)) {
    cr_ += individual_regret(cost, memory, limit_mb_);
  }
  record.cumulative_cost = cc_;
  record.cumulative_regret = cr_;
  records_.push_back(record);
  visited_.push_back(p.row);
  log_cost_.push_back(std::log10(cost));
  log_mem_.push_back(std::log10(memory));
}

void OnlineSession::maybe_initial_fit() {
  // The one-time thorough fit is due the moment the init phase can no
  // longer produce another record (quota met or grid drained).
  if (initial_fit_done_ || visited_.empty() || initial_phase()) return;
  initial_fit_done_ = true;
  due_fit_ = options_.initial_fit;
}

Suggestion OnlineSession::suggest() {
  require_settled("suggest");
  if (pending_) {
    throw OnlineContractError(
        "online session: suggest while a suggestion is outstanding");
  }
  Suggestion out;
  if (initial_phase()) {
    // Uniform pick, drawn BEFORE the experiment runs and erased when its
    // outcome is reported.
    const std::size_t local = rng_.uniform_index(remaining_.size());
    pending_ = Pending{local, remaining_[local], 0.0, 0.0, /*initial=*/true};
    out.initial_phase = true;
  } else if (done()) {
    out.done = true;
    return out;
  } else {
    // Panel sweep over the shared-context pool: O(M·n) resume between
    // refits, bit-identical to a fresh predict() sweep.
    linalg::gather_rows_into(ctx_->grid_scaled, remaining_, x_active_);
    linalg::Workspace::Scope scope(*ws_);
    const gp::CandidateRef pool{x_active_, remaining_};
    // Strategies that never read candidate means (MaxSigma, RandUniform)
    // let the backend skip the O(n·m) mean pass; only the selected
    // candidate's mean is recovered afterwards, bit-identically.
    const bool with_mean = strategy_->needs_mean();
    const ModelPair::Posterior post =
        models_.predict_candidates(pool, *ws_, with_mean);
    const CandidateView view{x_active_, post.cost.mean, post.cost.stddev,
                             post.mem.mean, post.mem.stddev};
    const std::optional<std::size_t> pick = strategy_->select(view, rng_);
    if (!pick) {
      exhausted_ = true;
      out.done = true;
      return out;
    }
    const auto [mu_c, mu_m] = models_.candidate_means(post, *pick);
    pending_ = Pending{*pick, remaining_[*pick], mu_c, mu_m, /*initial=*/false};
  }
  out.grid_row = pending_->row;
  const auto features = ctx_->grid.row(out.grid_row);
  out.features.assign(features.begin(), features.end());
  return out;
}

void OnlineSession::observe(double cost, double memory) {
  // +inf would reach log10 and the fit; NaN fails the comparison too.
  if (!(cost > 0.0) || !(memory > 0.0) || !std::isfinite(cost) ||
      !std::isfinite(memory)) {
    throw OnlineContractError(
        "online session: non-positive or non-finite measurement reported");
  }
  const Pending p = take_pending("observe");
  if (p.initial) {
    learn(p, cost, memory);
    ++init_done_;
    maybe_initial_fit();
    return;
  }
  ++al_done_;
  // Keep the candidate-panel caches aligned with the shrunken pool.
  models_.remove_candidate(p.local);
  learn(p, cost, memory);
  if (++since_retrain_ >= stride_) {
    since_retrain_ = 0;
    due_fit_ = options_.refit;
    return;
  }
  // Between refits: one-row Cholesky extend at fixed hyperparameters,
  // with the panel appended through the after-pool ref.
  std::optional<gp::CandidateRef> after;
  if (!remaining_.empty()) {
    linalg::gather_rows_into(ctx_->grid_scaled, remaining_, x_active_);
    after.emplace(gp::CandidateRef{x_active_, remaining_});
  }
  const gp::CandidateRef* after_ptr = after ? &*after : nullptr;
  models_.add_point(ctx_->grid_scaled.row(p.row), log_cost_.back(),
                    log_mem_.back(), p.row, rng_, after_ptr);
}

void OnlineSession::observe_failure() {
  const Pending p = take_pending("observe_failure");
  skipped_.push_back(p.row);
  ++giveups_;
  if (p.initial) {
    // Does not count toward n_init — but the grid may have just drained,
    // in which case the initial fit is due now.
    maybe_initial_fit();
    return;
  }
  ++al_done_;  // the iteration is consumed; the models never see the row
  models_.remove_candidate(p.local);
}

Refit OnlineSession::take_refit(bool clone) {
  Refit job;
  job.models = clone ? models_.clone() : std::move(models_);
  job.rows = visited_;
  job.log_cost = log_cost_;
  job.log_mem = log_mem_;
  job.ctx = ctx_;
  job.fit = *due_fit_;
  job.extend = options_.refit;
  job.extend.optimize = false;
  job.rng = rng_;
  job.injector = injector_;
  due_fit_.reset();
  return job;
}

void OnlineSession::adopt(Refit& done) {
  // Any draws or fault-site consultations made between take_refit and
  // adopt are superseded: the refit's copies are the canonical
  // continuation, exactly as if it had run in place.
  models_ = std::move(done.models);
  rng_ = done.rng;
  if (injector_ && done.injector) {
    injector_->restore_counters(done.injector->hit_counters(),
                                done.injector->fire_counters());
  }
}

void OnlineSession::refit_in_place() {
  Refit job = take_refit(/*clone=*/false);
  try {
    job.run();
  } catch (...) {
    adopt(job);
    throw;
  }
  adopt(job);
}

QueryResult OnlineSession::query(const linalg::Matrix& x) const {
  if (!fitted()) {
    throw OnlineContractError(
        "online session: query before the session learned anything");
  }
  const linalg::Matrix xs = ctx_->scaler.transform(x);
  return QueryResult{models_.cost().predict(xs), models_.mem().predict(xs)};
}

SessionStatus OnlineSession::status() const {
  SessionStatus st;
  st.records = records_.size();
  st.init_done = init_done_;
  st.al_done = al_done_;
  st.remaining = remaining_.size();
  st.oracle_giveups = giveups_;
  st.suggestion_pending = pending_.has_value();
  st.done = done() && !pending_;
  st.exhausted_safe_candidates = exhausted_;
  st.cost_active = active_kind(models_.cost(), st.cost_health);
  st.mem_active = active_kind(models_.mem(), st.mem_health);
  return st;
}

OnlineCheckpoint OnlineSession::snapshot() const {
  if (pending_) {
    throw OnlineContractError(
        "online session: checkpoint with a suggestion outstanding");
  }
  require_settled("snapshot");
  OnlineCheckpoint s;
  s.fingerprint = fingerprint_;
  s.al_iterations_done = al_done_;
  s.visited.assign(visited_.begin(), visited_.end());
  s.skipped.assign(skipped_.begin(), skipped_.end());
  s.log_cost = log_cost_;
  s.log_mem = log_mem_;
  s.models = models_.save(rng_, injector_ ? &*injector_ : nullptr);
  s.cc = cc_;
  s.cr = cr_;
  s.oracle_giveups = giveups_;
  s.exhausted_safe_candidates = exhausted_;
  s.records = records_;
  return s;
}

void OnlineSession::restore(const OnlineCheckpoint& saved) {
  visited_.assign(saved.visited.begin(), saved.visited.end());
  skipped_.assign(saved.skipped.begin(), saved.skipped.end());
  log_cost_ = saved.log_cost;
  log_mem_ = saved.log_mem;
  cc_ = saved.cc;
  cr_ = saved.cr;
  al_done_ = saved.al_iterations_done;
  records_ = saved.records;
  giveups_ = saved.oracle_giveups;
  exhausted_ = saved.exhausted_safe_candidates;
  init_done_ = static_cast<std::size_t>(
      std::count_if(records_.begin(), records_.end(),
                    [](const OnlineRecord& r) { return r.initial_phase; }));
  // Remaining = grid order minus everything run or abandoned (erase()
  // preserves relative order, so this matches the live remaining set).
  std::vector<char> gone(ctx_->grid.rows(), 0);
  for (const std::size_t row : visited_) gone[row] = 1;
  for (const std::size_t row : skipped_) gone[row] = 1;
  remaining_.clear();
  for (std::size_t i = 0; i < ctx_->grid.rows(); ++i) {
    if (gone[i] == 0) remaining_.push_back(i);
  }

  // Rebuild both surrogates at the saved hyperparameters. They keep the
  // rebuild's non-optimizing options: until the next refit sets its own
  // effort, the request path only extends at fixed theta.
  models_.rebuild(saved.models, options_.refit,
                  linalg::gather_rows(ctx_->grid_scaled, visited_), log_cost_,
                  log_mem_, rng_, ctx_->base(), visited_,
                  injector_ ? &*injector_ : nullptr);
  if (init_done_ >= options_.n_init && !visited_.empty()) {
    // The thorough initial fit already happened (its result travels in
    // theta). Re-derive the stride phase so the refit schedule — and the
    // trajectory — continues as if never interrupted: full refits land
    // every stride-th successful AL observation.
    initial_fit_done_ = true;
    since_retrain_ = (records_.size() - init_done_) % stride_;
  } else {
    // Init phase still open; the one-time fit is due when it closes —
    // possibly right now, if the checkpoint drained the grid mid-init.
    maybe_initial_fit();
  }
}

OnlineResult OnlineSession::release() {
  OnlineResult result;
  result.records = std::move(records_);
  result.exhausted_safe_candidates = exhausted_;
  result.oracle_giveups = giveups_;
  auto [cost, mem] = models_.release();
  result.cost_model = std::move(cost);
  result.memory_model = std::move(mem);
  return result;
}

}  // namespace alamr::core
