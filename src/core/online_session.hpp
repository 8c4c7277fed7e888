#pragma once

// The one online AL step (DESIGN.md §14, §15), shared by OnlineAlDriver
// and SessionEngine. An OnlineSession is a single trajectory's state
// machine — suggest, observe / observe_failure, the full refit that an
// observation makes due, snapshot and restore — and owns all of the
// trajectory's state: the grid context, strategy, rng stream, fault
// injector, the two resilient surrogates, the pass arena, the row sets,
// labels, CC/CR, records, the outstanding suggestion and the
// init / initial-fit / stride bookkeeping.
//
// The schedulers differ only in where the oracle runs and where the
// refit runs. The driver calls its oracle inline and runs each due refit
// in place on the session's own models (stride 1); the engine takes its
// oracle answers from clients and runs the refit on clones off the
// request path, swapping them in at the next request. Both run the same
// Refit::run(), so the two are one recipe.

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "alamr/core/checkpoint.hpp"
#include "alamr/core/serve.hpp"
#include "alamr/data/transforms.hpp"
#include "model_pair.hpp"

namespace alamr::core {

/// Immutable per-grid state: raw + scaled features, the fitted scaler,
/// and the grid-wide distance base that fits and panel sweeps gather
/// from. Read-only after construction, so engine sessions on a
/// bit-identical grid share one instance with no synchronization.
struct GridContext {
  linalg::Matrix grid;  // raw features; row indices are session currency
  data::FeatureScaler scaler;
  linalg::Matrix grid_scaled;
  SharedBatchContext batch;

  explicit GridContext(linalg::Matrix raw);

  const gp::DistanceBase* base() const noexcept {
    return &batch.distance_base();
  }
};

/// The setup checks of every online entry point (driver constructor,
/// open_session, restore_session): a non-empty grid of finite features,
/// n_init >= 1, and room for n_init + iterations picks. Throws
/// std::invalid_argument prefixed with `who`.
void validate_online_setup(const linalg::Matrix& grid,
                           const OnlineAlOptions& options,
                           std::string_view who);

/// One full refit of both surrogates over the learned rows, frozen when
/// it became due: the models to fit, the labels, and the rng stream and
/// fault-injector counters the fit continues from. A scheduler either
/// runs it on clones (off the request path) or on the session's own
/// models (in place); OnlineSession::adopt takes the result back.
struct Refit {
  ModelPair models;
  std::vector<std::size_t> rows;  // learned rows, in learning order
  std::vector<double> log_cost;
  std::vector<double> log_mem;
  std::shared_ptr<const GridContext> ctx;
  gp::GprOptions fit;     // effort of this fit (initial or refit)
  gp::GprOptions extend;  // left on the models for add_point extends
  stats::Rng rng{0};
  std::optional<faults::FaultInjector> injector;

  void run();
};

class OnlineSession {
 public:
  /// `retrain_stride` >= 1: a full refit every stride-th successful AL
  /// observation, one-row extends at fixed hyperparameters in between.
  OnlineSession(std::shared_ptr<const GridContext> ctx,
                const Strategy& strategy, OnlineAlOptions options,
                const stats::Rng& rng, std::size_t retrain_stride);

  const std::string& fingerprint() const noexcept { return fingerprint_; }
  /// The session's fault injector; null when no plan is in force.
  faults::FaultInjector* injector() noexcept {
    return injector_ ? &*injector_ : nullptr;
  }
  const stats::Rng& rng() const noexcept { return rng_; }

  /// The next suggestion would be a uniform initial-phase pick.
  bool initial_phase() const noexcept;
  /// Nothing is left to suggest (budget spent, grid drained, no safe
  /// candidate, or nothing could be learned).
  bool done() const noexcept;
  bool pending() const noexcept { return pending_.has_value(); }
  bool fitted() const noexcept { return models_.fitted(); }
  /// Grid rows run or abandoned so far.
  std::size_t consumed() const noexcept {
    return visited_.size() + skipped_.size();
  }
  const std::vector<OnlineRecord>& records() const noexcept {
    return records_;
  }

  /// Draws the next candidate. OnlineContractError while a suggestion is
  /// outstanding.
  Suggestion suggest();
  /// Books the outstanding suggestion's measurement (positive, finite;
  /// OnlineContractError otherwise, with no state touched).
  void observe(double cost, double memory);
  /// Abandons the outstanding suggestion; an AL-phase failure consumes
  /// its iteration.
  void observe_failure();

  /// A full refit is due (after an observation or a restore). The
  /// scheduler must run it before the next suggest or snapshot.
  bool refit_due() const noexcept { return due_fit_.has_value(); }
  /// Detaches the due refit: on clones of the models, or on the models
  /// themselves (the session has none until adopt()).
  Refit take_refit(bool clone);
  /// Installs a finished refit's models, rng stream and injector counters.
  void adopt(Refit& done);
  /// take_refit(false) + run + adopt.
  void refit_in_place();

  /// Posterior over raw query rows (log10 space). OnlineContractError
  /// before anything was learned.
  QueryResult query(const linalg::Matrix& x) const;
  /// Everything but the epoch.
  SessionStatus status() const;

  OnlineCheckpoint snapshot() const;
  /// Continues from `saved` (whose fingerprint the caller checked) on a
  /// freshly constructed session.
  void restore(const OnlineCheckpoint& saved);
  /// The driver-shaped result; the session is spent afterwards.
  OnlineResult release();

 private:
  struct Pending {
    std::size_t local = 0;  // index into remaining_ at suggest time
    std::size_t row = 0;
    double mu_c = 0.0;
    double mu_m = 0.0;
    bool initial = false;
  };

  void require_settled(const char* op) const;
  Pending take_pending(const char* op);
  void learn(const Pending& p, double cost, double memory);
  void maybe_initial_fit();

  std::shared_ptr<const GridContext> ctx_;
  std::unique_ptr<Strategy> strategy_;
  OnlineAlOptions options_;
  std::size_t stride_;
  std::string fingerprint_;
  std::optional<faults::FaultInjector> injector_;
  stats::Rng rng_;
  ModelPair models_;
  std::optional<linalg::Workspace> ws_;  // pass arena, sized up front
  linalg::Matrix x_active_{0, 0};        // gathered remaining-candidate tile
  double limit_mb_ = 0.0;                // L_mem in MB, for regret

  std::vector<std::size_t> remaining_;
  std::vector<std::size_t> visited_;
  std::vector<std::size_t> skipped_;
  std::vector<double> log_cost_;
  std::vector<double> log_mem_;
  double cc_ = 0.0;
  double cr_ = 0.0;
  std::size_t init_done_ = 0;
  std::size_t al_done_ = 0;
  std::size_t since_retrain_ = 0;
  bool initial_fit_done_ = false;
  bool exhausted_ = false;
  std::size_t giveups_ = 0;
  std::vector<OnlineRecord> records_;

  std::optional<Pending> pending_;
  std::optional<gp::GprOptions> due_fit_;  // effort of the due refit
};

}  // namespace alamr::core
