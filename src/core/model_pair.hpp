#pragma once

// The two surrogates of one AL trajectory (DESIGN.md §14). Algorithm 1
// fits a cost GPR and a memory GPR over the same features and retrains
// both every iteration; a ModelPair makes each such step one call. Every
// operation runs on the cost model, then on the memory model — the order
// the rng stream and the fault-site hit numbers depend on. The pair also
// owns what each driver (run_trajectory, OnlineSession, Refit) would
// otherwise repeat: the arena bound, the resume rebuild and the
// ModelPairState checkpoint block.

#include <array>
#include <memory>
#include <span>

#include "alamr/core/checkpoint.hpp"
#include "alamr/gp/backend.hpp"

namespace alamr::core {

class ModelPair {
 public:
  /// Both posteriors of one candidate-pool sweep.
  struct Posterior {
    gp::PosteriorSpans cost;
    gp::PosteriorSpans mem;
  };

  /// An empty pair: holds no models until one is assigned.
  ModelPair() = default;
  /// Both models from `backend`, behind the degradation ladder when
  /// `resilience.enabled`, with `fit` as the first fit's effort.
  ModelPair(const gp::BackendOptions& backend,
            const resilience::Options& resilience,
            const gp::ResilientBackend::KernelFactory& kernel_factory,
            const gp::GprOptions& fit);

  /// Pass-arena doubles for a pool that starts m0 wide: per model a mean,
  /// a stddev and two tombstone staging vectors of at most m0 each (the
  /// predict_candidates limit), the cost model's live while the memory
  /// model sweeps.
  static constexpr std::size_t arena_doubles(std::size_t m0) noexcept {
    return 8 * m0;
  }

  gp::PosteriorBackend& cost() const noexcept { return *heads_[0]; }
  gp::PosteriorBackend& mem() const noexcept { return *heads_[1]; }
  bool fitted() const noexcept { return heads_[0]->fitted(); }

  void set_fit_options(const gp::GprOptions& options) {
    for (auto& head : heads_) head->set_fit_options(options);
  }
  void fit(const linalg::Matrix& x, std::span<const double> y_cost,
           std::span<const double> y_mem, stats::Rng& rng,
           const gp::DistanceBase* base, std::span<const std::size_t> rows) {
    heads_[0]->fit(x, y_cost, rng, base, rows);
    heads_[1]->fit(x, y_mem, rng, base, rows);
  }
  void add_point(std::span<const double> x, double y_cost, double y_mem,
                 std::size_t row, stats::Rng& rng,
                 const gp::CandidateRef* after) {
    heads_[0]->add_point(x, y_cost, row, rng, after);
    heads_[1]->add_point(x, y_mem, row, rng, after);
  }
  Posterior predict_candidates(const gp::CandidateRef& pool,
                               linalg::Workspace& ws, bool with_mean = true) {
    // Braced initializers run in order: the cost model sweeps first.
    return Posterior{heads_[0]->predict_candidates(pool, ws, with_mean),
                     heads_[1]->predict_candidates(pool, ws, with_mean)};
  }
  /// Both means of candidate `local`, recovered through candidate_mean()
  /// where the sweep skipped the mean.
  std::array<double, 2> candidate_means(const Posterior& post,
                                        std::size_t local) const {
    return {post.cost.mean.empty() ? cost().candidate_mean(local)
                                   : post.cost.mean[local],
            post.mem.mean.empty() ? mem().candidate_mean(local)
                                  : post.mem.mean[local]};
  }
  void remove_candidate(std::size_t local) {
    for (auto& head : heads_) head->remove_candidate(local);
  }
  void reserve_additional(std::size_t extra) {
    for (auto& head : heads_) head->reserve_additional(extra);
  }
  /// An event seen outside a model operation (an injected acquisition
  /// timeout consumed both posteriors) goes to each resilient model's
  /// breaker; undecorated models ignore it.
  void record_external_event(resilience::Event event);
  ModelPair clone() const {
    ModelPair copy;
    copy.heads_ = {heads_[0]->clone(), heads_[1]->clone()};
    return copy;
  }

  /// The checkpoint block: theta and opaque state of both models, the
  /// rng stream and the injector's counters (zero without one).
  ModelPairState save(const stats::Rng& rng,
                      const faults::FaultInjector* injector) const;
  /// Resume: rebuilds both models AT the saved hyperparameters with
  /// optimization off (no rng draws) on the learned set — the posterior
  /// is a pure function of (X, y, theta) plus the opaque state restored
  /// first, and the full rebuild has the bits the live incremental path
  /// had (golden-tested) — then continues `rng` and `injector` from the
  /// saved stream and counters, discarding the rebuild's consultations.
  /// The models keep the rebuild's non-optimizing options.
  void rebuild(const ModelPairState& saved, const gp::GprOptions& refit,
               const linalg::Matrix& x, std::span<const double> y_cost,
               std::span<const double> y_mem, stats::Rng& rng,
               const gp::DistanceBase* base,
               std::span<const std::size_t> rows,
               faults::FaultInjector* injector);

  /// Hands both models over, cost first; the pair is empty afterwards.
  std::array<std::unique_ptr<gp::PosteriorBackend>, 2> release() noexcept {
    return std::move(heads_);
  }

 private:
  std::array<std::unique_ptr<gp::PosteriorBackend>, 2> heads_;
};

}  // namespace alamr::core
