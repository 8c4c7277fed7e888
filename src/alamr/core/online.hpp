#pragma once

// Online Active Learning (paper Sec. IV: "an 'online' AL system makes
// decisions about what experiment to run next").
//
// Unlike AlSimulator, which replays a database of precomputed samples,
// the OnlineAlDriver holds a grid of NOT-yet-run candidate configurations
// and an oracle that actually executes an experiment (here: the AMR
// solver + machine model; in production: a job submitted to a cluster).
// Each iteration predicts over the remaining grid, selects one candidate,
// runs it, and refits — paying real (simulated) node-hours for every
// selection, which is exactly the regime the cost-aware strategies are
// designed for.
//
// The driver is a thin scheduler over the same per-trajectory step the
// SessionEngine (serve.hpp) serves: suggest, run the oracle inline,
// observe (or record the give-up), and run the due refit in place on the
// session's own models, i.e. the engine at retrain_stride 1 without the
// clone. Checkpoints therefore share one format, and a driver checkpoint
// restores into the engine and vice versa.
//
// Serving-core resilience (DESIGN.md §14): oracle calls run under a
// deadline/backoff executor (seeded deterministic retries over a virtual
// clock); candidates whose oracle keeps failing are dropped rather than
// killing the run; the surrogates sit behind the breaker-guarded
// degradation ladder; and runs checkpoint durably (CRC-framed,
// generation-rotated) so a killed run resumes byte-identically.

#include <functional>
#include <limits>

#include "alamr/core/resilience.hpp"
#include "alamr/core/simulator.hpp"  // CheckpointConfig
#include "alamr/core/strategies.hpp"
#include "alamr/data/transforms.hpp"
#include "alamr/gp/backend.hpp"

namespace alamr::core {

/// Executes the experiment described by a feature row and returns the
/// measured (cost [node-hours], memory [MB]). Both must be positive.
/// Transient failures may throw std::runtime_error: the driver retries
/// with backoff and eventually skips the candidate. Throw
/// OnlineContractError for non-retryable protocol violations.
using ExperimentOracle =
    std::function<std::pair<double, double>(std::span<const double> features)>;

/// A broken oracle CONTRACT (for example a non-positive measurement), as
/// opposed to a transient failure. Never retried: propagates out of
/// run() so the bug is fixed rather than papered over.
struct OnlineContractError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct OnlineAlOptions {
  /// Experiments run (on oracle rows chosen uniformly at random) before AL
  /// starts making decisions; the paper's minimal-realistic case is 1.
  std::size_t n_init = 1;
  /// AL selections after the initial phase.
  std::size_t iterations = 25;
  /// L_mem in log10(MB) for RGMA-style strategies and regret accounting;
  /// NaN disables regret tracking (no limit).
  double memory_limit_log10 = std::numeric_limits<double>::quiet_NaN();

  gp::GprOptions initial_fit{.restarts = 2, .max_opt_iterations = 50};
  gp::GprOptions refit{.restarts = 0, .max_opt_iterations = 10};

  /// Surrogate family for the two models (exact GPR by default).
  gp::BackendOptions backend;

  /// Deadline/backoff executor and degradation-ladder knobs. The default
  /// (enabled) is byte-invisible while nothing fails.
  resilience::Options resilience;

  /// Explicit fault-injection plan for this run (empty = fall back to the
  /// ALAMR_FAULT_PLAN env plan, if any). acquire.timeout fires as oracle
  /// timeouts here.
  faults::FaultPlan plan;
};

/// One executed experiment in an online run.
struct OnlineRecord {
  std::size_t grid_row = 0;  // row of the candidate grid that was run
  double cost = 0.0;         // measured node-hours
  double memory = 0.0;       // measured MB
  double predicted_cost_log10 = 0.0;
  double predicted_mem_log10 = 0.0;
  double cumulative_cost = 0.0;
  double cumulative_regret = 0.0;
  bool initial_phase = false;  // run before AL decisions started
};

struct OnlineResult {
  std::vector<OnlineRecord> records;
  bool exhausted_safe_candidates = false;
  /// True when the run stopped at CheckpointConfig::halt_after_iterations
  /// (a checkpoint was saved; resume to continue).
  bool halted_at_checkpoint = false;
  /// Candidates abandoned because their oracle kept failing past the
  /// executor's retry budget.
  std::size_t oracle_giveups = 0;
  /// Final models, usable for downstream prediction over the grid.
  std::unique_ptr<gp::PosteriorBackend> cost_model;
  std::unique_ptr<gp::PosteriorBackend> memory_model;
};

/// The compatibility fingerprint of an online run ("alamr.online.v1"):
/// grid shape and exact feature bits, strategy identity, budgets, fit
/// effort, backend sizing, resilience posture, and fault plan. Checkpoint
/// frames carry it so a resume (or a SessionEngine restore — DESIGN.md
/// §15 shares these frames) only proceeds against the identical setup.
/// `grid` is the RAW candidate grid (pre-scaling).
std::string online_run_fingerprint(const linalg::Matrix& grid,
                                   std::string_view strategy_name,
                                   const OnlineAlOptions& options,
                                   std::string_view plan_spec);

struct GridContext;  // internal: scaled grid + distance base

/// Drives online AL over `candidate_grid` (raw feature rows; scaled to the
/// unit cube internally). Every selection calls `oracle` exactly once
/// (plus deadline-executor retries on transient oracle failures).
class OnlineAlDriver {
 public:
  /// Throws std::invalid_argument for an empty grid, a NaN or infinite
  /// feature, a null oracle, n_init == 0, or a grid smaller than
  /// n_init + iterations.
  OnlineAlDriver(linalg::Matrix candidate_grid, ExperimentOracle oracle,
                 OnlineAlOptions options);

  std::size_t remaining_candidates() const noexcept;

  /// Runs the initial phase plus `options.iterations` AL selections.
  /// Callable once per driver instance: a second call throws
  /// OnlineContractError (the instance's rng/visited bookkeeping is
  /// consumed; reuse would silently produce a different trajectory).
  /// With a checkpoint config the run saves durable generations every
  /// `stride` records and can resume a killed run from the newest intact
  /// generation.
  OnlineResult run(const Strategy& strategy, stats::Rng& rng,
                   const CheckpointConfig* checkpoint = nullptr);

 private:
  std::shared_ptr<const GridContext> grid_;
  ExperimentOracle oracle_;
  OnlineAlOptions options_;
  std::size_t consumed_ = 0;  // grid rows run or abandoned by run()
  bool ran_ = false;
};

}  // namespace alamr::core
