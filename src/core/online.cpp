#include "alamr/core/online.hpp"

#include <stdexcept>

#include "online_session.hpp"

namespace alamr::core {

OnlineAlDriver::OnlineAlDriver(linalg::Matrix candidate_grid,
                               ExperimentOracle oracle, OnlineAlOptions options)
    : oracle_(std::move(oracle)), options_(std::move(options)) {
  validate_online_setup(candidate_grid, options_, "OnlineAlDriver");
  if (!oracle_) {
    throw std::invalid_argument("OnlineAlDriver: null oracle");
  }
  grid_ = std::make_shared<const GridContext>(std::move(candidate_grid));
}

std::size_t OnlineAlDriver::remaining_candidates() const noexcept {
  return grid_->grid.rows() - consumed_;
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

  OnlineSession session(grid_, strategy, options_, rng, /*retrain_stride=*/1);
  // The session draws from a copy of the caller's stream; hand it back
  // however run() ends, so the caller's rng advances as if drawn directly.
  struct ReturnRng {
    stats::Rng& to;
    const OnlineSession& from;
    ~ReturnRng() { to = from.rng(); }
  } const return_rng{rng, session};
  std::optional<faults::ScopedFaultInjector> fault_scope;
  if (faults::FaultInjector* injector = session.injector()) {
    fault_scope.emplace(*injector);
  }
  const auto settle = [&] {
    if (session.refit_due()) session.refit_in_place();
  };

  const bool saving = checkpoint != nullptr && !checkpoint->path.empty();
  if (saving && checkpoint->resume) {
    const std::optional<OnlineCheckpoint> resumed =
        load_online_checkpoint(checkpoint->path, checkpoint->retain);
    if (resumed) {
      if (resumed->fingerprint != session.fingerprint()) {
        throw std::runtime_error(
            "OnlineAlDriver: checkpoint at " + checkpoint->path.string() +
            " was written by an incompatible configuration (fingerprint "
            "mismatch); refusing to resume");
      }
      trace::count("online.resumed");
      session.restore(*resumed);
      settle();
    }
  }

  // Deadline/backoff executor for oracle calls: deterministic seeded
  // retries over a virtual clock, no wall-time reads. nullopt = gave up
  // after the retry budget; OnlineContractError is never retried. The
  // measurement itself is checked by observe().
  resilience::DeadlineExecutor oracle_exec(options_.resilience.backoff,
                                           options_.resilience.max_attempts,
                                           options_.resilience.deadline_ticks);
  const auto call_oracle = [&](std::span<const double> features)
      -> std::optional<std::pair<double, double>> {
    if (!options_.resilience.enabled) return oracle_(features);
    std::pair<double, double> measured{0.0, 0.0};
    const resilience::DeadlineExecutor::Outcome outcome =
        oracle_exec.execute("online.oracle", [&]() -> resilience::OpStatus {
          // The acquire.timeout site models an experiment blowing its
          // wall-clock budget; each retry consults the schedule afresh.
          if (faults::fire(faults::Site::kAcquireTimeout)) {
            trace::count("online.oracle_timeouts_injected");
            return resilience::OpStatus::kTimeout;
          }
          try {
            measured = oracle_(features);
          } catch (const OnlineContractError&) {
            throw;  // broken contract, not a transient failure
          } catch (const std::runtime_error&) {
            trace::count("online.oracle_exceptions");
            return resilience::OpStatus::kFailed;
          }
          return resilience::OpStatus::kOk;
        });
    if (outcome.status != resilience::OpStatus::kOk) return std::nullopt;
    return measured;
  };

  const auto save = [&] {
    trace::count("online.checkpoints");
    save_online_checkpoint(session.snapshot(), checkpoint->path,
                           checkpoint->retain);
  };
  bool halted = false;
  std::size_t new_records = 0;  // experiments recorded by THIS process
  for (;;) {
    // The halt point only ever falls before an AL-phase selection.
    if (checkpoint != nullptr && checkpoint->halt_after_iterations != 0 &&
        new_records >= checkpoint->halt_after_iterations &&
        !session.initial_phase() && !session.done()) {
      halted = true;
      break;
    }
    const Suggestion next = session.suggest();
    if (next.done) break;
    const std::optional<std::pair<double, double>> measured =
        call_oracle(next.features);
    if (!measured) {
      // The candidate is abandoned; an AL-phase give-up still consumes
      // its iteration.
      trace::count("online.oracle_giveups");
      session.observe_failure();
      settle();
      continue;
    }
    session.observe(measured->first, measured->second);
    settle();
    ++new_records;
    if (saving && checkpoint->stride != 0 &&
        new_records % checkpoint->stride == 0) {
      save();
    }
  }
  // Final (or halt-point) state, so a later process can resume; a run
  // that learned nothing has nothing to resume.
  if (saving && !session.records().empty()) save();

  consumed_ = session.consumed();
  OnlineResult result = session.release();
  result.halted_at_checkpoint = halted;
  return result;
}

}  // namespace alamr::core
