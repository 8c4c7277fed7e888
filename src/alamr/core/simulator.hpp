#pragma once

// The offline Active-Learning simulator (paper Algorithm 1).
//
// Drives sequential experiment selection against a database of precomputed
// AMR performance samples: partition into Init/Active/Test, fit cost and
// memory GPR models on Init, then repeatedly (predict over remaining
// Active candidates) -> (select one via a Strategy) -> (reveal its
// measurements) -> (warm-started refit of both models), recording the
// evaluation metrics after every iteration.

#include <cmath>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "alamr/core/faults.hpp"
#include "alamr/core/resilience.hpp"
#include "alamr/core/strategies.hpp"
#include "alamr/core/trace.hpp"
#include "alamr/data/dataset.hpp"
#include "alamr/data/partition.hpp"
#include "alamr/data/transforms.hpp"
#include "alamr/gp/backend.hpp"
#include "alamr/gp/gpr.hpp"

namespace alamr::core {

/// Which kernel family the simulator builds (the paper uses RBF; the
/// others exist for the future-work kernel ablation).
enum class KernelChoice { kRbf, kRbfArd, kMatern32, kMatern52 };

/// Optional stopping heuristic (paper Sec. V-D, after Bloodgood &
/// Vijay-Shanker's "stabilizing predictions"): stop AL once the cost
/// model's Test-set predictions stop moving — the mean absolute change of
/// the log10 predictions stays below `tolerance` for `patience`
/// consecutive iterations (never before `min_iterations`).
struct StabilizingStopRule {
  bool enabled = false;
  double tolerance = 0.01;
  std::size_t patience = 5;
  std::size_t min_iterations = 20;
};

/// Why a trajectory ended.
enum class StopReason {
  kActiveExhausted,    // every Active sample was selected
  kIterationBudget,    // AlOptions::max_iterations reached
  kNoSafeCandidates,   // RGMA found no candidate under the memory limit
  kStabilized,         // StabilizingStopRule fired
  kCheckpointHalt,     // CheckpointConfig::halt_after_iterations reached
};

std::string to_string(StopReason reason);

/// Why an acquisition was censored (returned no usable label).
enum class CensorKind {
  kNone,
  kOverLimit,  // true memory exceeded L_mem and the run crashed (real OOM)
  kOom,        // injected acquire.oom fault
  kTimeout,    // injected acquire.timeout fault
  kNanRow,     // injected data.nan_row fault (labels came back corrupted)
};

std::string to_string(CensorKind kind);

/// What the simulator does with a censored acquisition. Every policy burns
/// the candidate's true cost into CC and CR (the core-hours were spent
/// either way) and removes it from Active; they differ in what, if
/// anything, the models learn from the failure.
enum class CensorPolicy {
  /// Nothing is learned: the point vanishes, models stay as they were,
  /// the iteration's budget is consumed.
  kDropCensored,
  /// The failure itself is a label: train on the observed cost and a
  /// memory label of L_mem + penalty_offset ("it crashed above the
  /// limit"), steering the memory model away from the region.
  kPenalizedLabel,
  /// The iteration retries with the next strategy pick (model unchanged,
  /// censored candidate excluded) until an acquisition succeeds or Active
  /// empties; only successful acquisitions consume max_iterations budget.
  kRetryNextCandidate,
};

std::string to_string(CensorPolicy policy);

/// Failure-awareness knobs. Default-constructed = the historical behavior:
/// every acquisition yields a clean label, no faults, byte-for-byte
/// identical trajectories.
struct FailureOptions {
  /// Censor acquisitions whose TRUE memory exceeds L_mem (the paper's
  /// motivating failure: those runs crash and burn their core-hours).
  /// Off by default because the baseline strategies must be allowed to
  /// observe over-limit labels for the paper's main comparison.
  bool failure_aware = false;

  CensorPolicy policy = CensorPolicy::kDropCensored;

  /// kPenalizedLabel: the censored memory label is L_mem + this offset
  /// (log10 space).
  double penalty_offset = 0.5;

  /// Explicit fault-injection plan for this simulator's trajectories
  /// (empty = fall back to the ALAMR_FAULT_PLAN env plan, if any). Each
  /// trajectory instantiates a fresh injector from the plan, so schedules
  /// are per-trajectory deterministic whatever the batch threading.
  faults::FaultPlan plan;
};

/// Periodic trajectory checkpointing (atomic-rename JSON) and resume.
struct CheckpointConfig {
  /// Checkpoint file. Empty = checkpointing disabled.
  std::filesystem::path path;

  /// Save every `stride` recorded passes (0 = never save mid-run; with a
  /// non-empty path the final state is still saved on completion).
  std::size_t stride = 10;

  /// Load `path` (when it exists) and continue from it instead of
  /// starting over. A checkpoint whose compatibility fingerprint does not
  /// match the current options/partition/plan is rejected with an error.
  bool resume = false;

  /// Stop after this many NEW passes this process (0 = run to
  /// completion), saving a checkpoint at the halt. For sharding long
  /// trajectories across job allocations — and for kill/resume tests.
  std::size_t halt_after_iterations = 0;

  /// Checkpoint generations kept on disk (path, path.1, ..., up to
  /// retain - 1 rotations). Loading falls back to the newest intact
  /// generation when newer ones are torn or corrupt (DESIGN.md §14).
  std::size_t retain = 3;
};

struct AlOptions {
  std::size_t n_test = 200;
  std::size_t n_init = 50;

  /// Per-feature pre-transforms applied before unit-cube scaling (paper
  /// Sec. V-D: train on log2(p) so powers of two are equidistant). Empty =
  /// identity for every column.
  std::vector<data::ColumnTransform> feature_transforms;

  /// Optional stabilizing-predictions early stopping.
  StabilizingStopRule stopping;

  /// 0 = run until the Active partition is exhausted.
  std::size_t max_iterations = 0;

  /// L_mem in log10(MB). NaN = use the paper's rule: 95% of the largest
  /// log10 memory response in the dataset.
  double memory_limit_log10 = std::numeric_limits<double>::quiet_NaN();

  KernelChoice kernel = KernelChoice::kRbf;

  /// Hyperparameter-fitting effort: the initial fit explores (restarts);
  /// per-iteration refits warm-start from the previous hyperparameters
  /// (Algorithm 1's note) with a small iteration budget.
  gp::GprOptions initial_fit{.restarts = 2, .max_opt_iterations = 60};
  gp::GprOptions refit{.restarts = 0, .max_opt_iterations = 12};

  /// Evaluate test RMSE every `rmse_stride` iterations (1 = every
  /// iteration, matching the paper; larger strides speed up big batches —
  /// intermediate records carry the last computed value). The final record
  /// of a trajectory is always freshly evaluated, whatever the stride.
  std::size_t rmse_stride = 1;

  /// Posterior backend for the per-response surrogates (DESIGN.md §12):
  /// kExact (default) is the byte-pinned seed recipe — warm refits extend
  /// the Cholesky factor in O(n^2) whenever theta holds, K(X_train,
  /// X_active) is kept across iterations, and candidate sweeps resume the
  /// solved panel (DESIGN.md §8, §10, §13); kSubsetOfData and kLocalExperts
  /// are the approximate backends that break the O(n^3) refit wall for
  /// 10^5-candidate pools.
  gp::BackendOptions backend;

  /// Turns on the process-wide observability layer (core/trace.hpp) from
  /// the AlSimulator constructor — equivalent to setting ALAMR_TRACE or
  /// calling trace::set_enabled(true), and sticky like both. While tracing
  /// is enabled every run* call fills TrajectoryResult::trace.
  bool trace = false;

  /// Failure model: censoring policy, real-OOM awareness, fault plan.
  /// Defaults are inert (see FailureOptions).
  FailureOptions failures;

  /// Resilience layer (core/resilience.hpp): wraps each surrogate in the
  /// breaker-guarded degradation-ladder decorator and paces retries with
  /// the deadline executor. The default (enabled) is byte-invisible while
  /// nothing fails — golden-tested; disable to remove the decorator
  /// entirely (and with it any healing under armed fault plans).
  resilience::Options resilience;
};

/// Everything recorded at one AL iteration.
struct IterationRecord {
  std::size_t iteration = 0;       // 0-based
  std::size_t dataset_row = 0;     // row index in the full dataset
  double actual_cost = 0.0;        // node-hours (non-log)
  double actual_memory = 0.0;      // MB (non-log)
  double predicted_cost_log10 = 0.0;   // mu_cost of the chosen candidate
  double predicted_cost_sigma = 0.0;   // sigma_cost of the chosen candidate
  double predicted_mem_log10 = 0.0;
  double predicted_mem_sigma = 0.0;
  double rmse_cost = 0.0;          // test RMSE, non-log space (Eq. 10)
  double rmse_mem = 0.0;
  /// Cost-weighted test RMSE (Eq. 12 with rho_ii proportional to the test
  /// sample's actual cost — the paper's Sec. V-D argument that errors on
  /// expensive configurations matter more).
  double rmse_cost_weighted = 0.0;
  double cumulative_cost = 0.0;    // CC
  double cumulative_regret = 0.0;  // CR (Eq. 11)
  std::size_t candidates_before = 0;
  /// kNone for a clean acquisition. A censored record's cost/regret are
  /// already folded into the cumulative columns; its rmse columns carry
  /// the last computed values (the models did not change).
  CensorKind censor = CensorKind::kNone;
};

struct TrajectoryResult {
  std::string strategy_name;
  data::Partition partition;
  std::vector<IterationRecord> iterations;
  bool early_stopped = false;      // RGMA exhausted its safe candidates
  StopReason stop_reason = StopReason::kActiveExhausted;
  double memory_limit_mb = 0.0;    // non-log L_mem used for regret
  double initial_rmse_cost = 0.0;  // test RMSE right after the Init fit
  double initial_rmse_mem = 0.0;
  /// Failure-model accounting: acquisitions that returned no usable label
  /// and the true cost they burned (already included in the cumulative
  /// CC/CR columns). Zero when the failure model is inert.
  std::size_t censored_count = 0;
  double censored_cost = 0.0;
  /// Per-trajectory counters, phase timings, and the options/partition
  /// fingerprint. Empty (no counters/phases) unless tracing was enabled
  /// while the trajectory ran; the fingerprint is always filled.
  trace::TraceReport trace;
};

/// Immutable per-dataset structure shared by every trajectory of a batch
/// run: today, the dataset-wide pairwise-distance base over the scaled
/// features (gp::DistanceBase). Built once via
/// AlSimulator::make_shared_context() and handed to run* calls by const
/// pointer; after construction it is strictly read-only, so concurrent
/// trajectories share one instance with no synchronization. Trajectories
/// layer their own mutable state (training caches, cross matrices,
/// workspace arenas) on top — every gathered value is bitwise identical
/// to the recomputed one, so results do not depend on whether a context
/// was supplied.
class SharedBatchContext {
 public:
  explicit SharedBatchContext(std::shared_ptr<const gp::DistanceBase> base)
      : base_(std::move(base)) {}

  const gp::DistanceBase& distance_base() const noexcept { return *base_; }

 private:
  std::shared_ptr<const gp::DistanceBase> base_;
};

class AlSimulator {
 public:
  /// Pre-processes once: features scaled to the unit cube (fitted on the
  /// full dataset, as the offline analysis does), responses log10'd.
  AlSimulator(const data::Dataset& dataset, AlOptions options);

  const AlOptions& options() const noexcept { return options_; }
  const data::Dataset& dataset() const noexcept { return dataset_; }

  /// L_mem actually in force, log10(MB) / MB.
  double memory_limit_log10() const noexcept { return limit_log10_; }
  double memory_limit_mb() const noexcept;

  /// Builds the shared immutable batch context for this simulator's
  /// dataset: one O(N^2 d) pairwise-distance pass over the scaled
  /// features that every trajectory sharing it then gathers from in
  /// O(k^2) copies per cache (re)build.
  SharedBatchContext make_shared_context() const;

  /// Draws a fresh partition from `rng` and runs one trajectory. `shared`
  /// (optional) supplies the precomputed batch context; results are
  /// bitwise identical with or without it.
  TrajectoryResult run(const Strategy& strategy, stats::Rng& rng,
                       const SharedBatchContext* shared = nullptr) const;

  /// Runs one trajectory on a fixed partition (for paired comparisons).
  TrajectoryResult run_with_partition(
      const Strategy& strategy, const data::Partition& partition,
      stats::Rng& rng, const SharedBatchContext* shared = nullptr) const;

  /// run_with_partition with periodic checkpointing and resume: state is
  /// saved to `checkpoint.path` by atomic rename every `checkpoint.stride`
  /// passes, and with `checkpoint.resume` a matching existing checkpoint
  /// is loaded and continued — to a result byte-identical to an
  /// uninterrupted run (golden-tested). The completed run deletes its
  /// checkpoint file. `rng` is consumed exactly as run_with_partition
  /// would on a fresh run; on resume the saved stream state replaces it.
  TrajectoryResult run_resumable(const Strategy& strategy,
                                 const data::Partition& partition,
                                 stats::Rng& rng,
                                 const CheckpointConfig& checkpoint,
                                 const SharedBatchContext* shared = nullptr) const;

  /// Batch-mode AL (paper Sec. VI future work: "running multiple
  /// simulations in parallel at each iteration"): each round selects
  /// `batch_size` candidates WITHOUT intermediate model updates (already
  /// selected candidates are just excluded from the view), then reveals
  /// all of them and retrains once. Less greedy than one-at-a-time but
  /// needs 1/batch_size as many scheduling rounds. Records carry the
  /// global selection index; a round's records share the same post-round
  /// RMSE. max_iterations counts selections, not rounds.
  TrajectoryResult run_batched(const Strategy& strategy,
                               std::size_t batch_size,
                               const data::Partition& partition,
                               stats::Rng& rng) const;

  /// The paper's memory limit rule: 95% of the largest log10 memory
  /// response (Sec. V-B).
  static double paper_memory_limit_log10(const data::Dataset& dataset);

 private:
  gp::Kernel make_kernel() const;

  /// The trajectory driver behind run_with_partition and run_resumable
  /// (checkpoint == nullptr disables checkpointing entirely; shared ==
  /// nullptr recomputes every distance cache locally).
  TrajectoryResult run_trajectory(const Strategy& strategy,
                                  const data::Partition& partition,
                                  stats::Rng& rng,
                                  const CheckpointConfig* checkpoint,
                                  const SharedBatchContext* shared) const;

  /// Hex digest over every option, the memory limit, the strategy
  /// identity (including batch size), and the full partition contents
  /// (the partition is what the seed determines, so hashing it captures
  /// the seed's effect).
  std::string trajectory_fingerprint(std::string_view strategy_name,
                                     const data::Partition& partition) const;

  data::Dataset dataset_;   // original units (responses used for metrics)
  AlOptions options_;
  linalg::Matrix x_scaled_; // unit-cube features
  std::vector<double> log_cost_;
  std::vector<double> log_mem_;
  double limit_log10_ = 0.0;
};

}  // namespace alamr::core
