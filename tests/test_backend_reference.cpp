// Bitwise reference for the candidate-sweep path of the GPR backends: after
// every lifecycle event the AL loop can produce, predict_candidates(pool)
// must carry exactly the bits of a from-scratch predict(pool.x) on the same
// backend. predict() rebuilds K(X_train, X_q) from features and solves the
// whole Z = L^{-1} K*, so it shares none of the state the sweep path keeps
// across iterations (kept cross matrix, tombstoned columns, appended rows,
// solved panel). The sequence covers:
//
//   fit -> tombstone (remove_candidate alone) -> acquisitions at fixed
//   theta (tombstone + add_point row append) -> a theta-moving warm refit
//   -> a cholesky.non_psd-forced jittered fit and the full refactor the
//   next append then takes -> a mean-skipped sweep + candidate_mean ->
//   save_state / restore_state into a fresh backend
//
// for the exact and subset-of-data backends (the latter sized so its
// window slides), with and without a shared DistanceBase, at 1 and 4
// threads.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "alamr/core/faults.hpp"
#include "alamr/core/parallel.hpp"
#include "alamr/gp/backend.hpp"
#include "alamr/linalg/workspace.hpp"
#include "alamr/stats/rng.hpp"

namespace {

using namespace alamr;
using namespace alamr::gp;
using alamr::linalg::Matrix;
using alamr::linalg::Workspace;
using alamr::stats::Rng;
namespace faults = alamr::core::faults;

constexpr std::size_t kDim = 3;
constexpr std::size_t kInit = 12;
constexpr std::size_t kCandidates = 24;

Matrix random_points(std::size_t n, Rng& rng) {
  Matrix x(n, kDim);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t d = 0; d < kDim; ++d) x(i, d) = rng.uniform(0.0, 1.0);
  }
  return x;
}

Matrix gather(const Matrix& x, const std::vector<std::size_t>& rows) {
  Matrix out(rows.size(), x.cols());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const auto src = x.row(rows[r]);
    std::copy(src.begin(), src.end(), out.row(r).begin());
  }
  return out;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

GprOptions fixed_theta() {
  GprOptions options;
  options.restarts = 0;
  options.optimize = false;
  return options;
}

/// One AL-shaped session over a fixed point set: rows [0, kInit) start
/// learned, the rest form the candidate pool.
class Session {
 public:
  Session(BackendOptions options, bool with_base)
      : options_(options), with_base_(with_base) {
    Rng data_rng(97);
    all_ = random_points(kInit + kCandidates, data_rng);
    y_.resize(all_.rows());
    for (std::size_t i = 0; i < all_.rows(); ++i) {
      double s = 0.0;
      for (std::size_t d = 0; d < kDim; ++d) s += std::sin(3.0 * all_(i, d));
      y_[i] = s + data_rng.normal(0.0, 0.01);
    }
    for (std::size_t i = 0; i < all_.rows(); ++i) {
      (i < kInit ? learned_ : pool_).push_back(i);
    }
    if (with_base_) base_ = std::make_unique<DistanceBase>(all_);
  }

  std::unique_ptr<PosteriorBackend> make(const GprOptions& fit_options) const {
    return make_backend(options_, make_paper_kernel(), fit_options);
  }

  /// Fits `backend` on the learned rows (a resume-style rebuild when the
  /// backend already holds data).
  void fit(PosteriorBackend& backend) {
    const Matrix x = gather(all_, learned_);
    std::vector<double> y;
    for (const std::size_t r : learned_) y.push_back(y_[r]);
    backend.fit(x, y, rng_, base_.get(), rows(learned_));
    backend.reserve_additional(kCandidates);
  }

  /// Censored candidate: leaves the pool without teaching the model.
  void drop(PosteriorBackend& backend, std::size_t local) {
    backend.remove_candidate(local);
    pool_.erase(pool_.begin() + static_cast<std::ptrdiff_t>(local));
  }

  /// Acquisition in the simulator's order: remove, then add_point with the
  /// post-acquisition pool as `after`.
  void acquire(PosteriorBackend& backend, std::size_t local) {
    const std::size_t row = pool_[local];
    drop(backend, local);
    learned_.push_back(row);
    const Matrix after_x = gather(all_, pool_);
    const CandidateRef after{after_x, rows(pool_)};
    backend.add_point(all_.row(row), y_[row], row, rng_,
                      pool_.empty() ? nullptr : &after);
  }

  /// The reference check: the sweep path against predict() on the same
  /// backend. `with_mean = false` additionally recovers each skipped mean
  /// through candidate_mean().
  void expect_sweep_matches_predict(PosteriorBackend& backend,
                                    const std::string& step,
                                    bool with_mean = true) {
    SCOPED_TRACE(step);
    const Workspace::Scope scope(ws_);
    const Matrix pool_x = gather(all_, pool_);
    const CandidateRef pool{pool_x, rows(pool_)};
    const PosteriorSpans sweep =
        backend.predict_candidates(pool, ws_, with_mean);
    const Prediction expect = backend.predict(pool_x);
    ASSERT_EQ(sweep.stddev.size(), pool_.size());
    for (std::size_t q = 0; q < pool_.size(); ++q) {
      EXPECT_TRUE(same_bits(sweep.stddev[q], expect.stddev[q]))
          << "stddev " << q << ": " << sweep.stddev[q] << " vs "
          << expect.stddev[q];
      const double mean =
          sweep.mean.empty() ? backend.candidate_mean(q) : sweep.mean[q];
      EXPECT_TRUE(same_bits(mean, expect.mean[q]))
          << "mean " << q << ": " << mean << " vs " << expect.mean[q];
    }
  }

 private:
  std::span<const std::size_t> rows(const std::vector<std::size_t>& r) const {
    return with_base_ ? std::span<const std::size_t>(r)
                      : std::span<const std::size_t>{};
  }

  BackendOptions options_;
  bool with_base_;
  Matrix all_;
  std::vector<double> y_;
  std::vector<std::size_t> learned_;
  std::vector<std::size_t> pool_;
  std::unique_ptr<DistanceBase> base_;
  Rng rng_{2024};
  Workspace ws_;
};

void run_lifecycle(const BackendOptions& options) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    for (const bool with_base : {false, true}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " base=" + std::to_string(with_base));
      core::set_global_parallel_threads(threads);
      Session session(options, with_base);
      const std::unique_ptr<PosteriorBackend> backend =
          session.make({.restarts = 0, .max_opt_iterations = 20});
      session.fit(*backend);
      session.expect_sweep_matches_predict(*backend, "fit");

      session.drop(*backend, 3);
      session.expect_sweep_matches_predict(*backend, "tombstone");

      backend->set_fit_options(fixed_theta());
      session.acquire(*backend, 5);
      session.expect_sweep_matches_predict(*backend, "append");
      session.acquire(*backend, 0);
      session.expect_sweep_matches_predict(*backend, "second append");

      const std::vector<double> theta_before = backend->log_params();
      backend->set_fit_options({.restarts = 0, .max_opt_iterations = 8});
      session.acquire(*backend, 2);
      ASSERT_NE(backend->log_params(), theta_before)
          << "the warm refit was meant to move theta";
      session.expect_sweep_matches_predict(*backend, "theta move");

      // The forced veto makes the fit's factorization take the jitter
      // ladder; the next fixed-theta append then cannot extend a jittered
      // factor and refactors in full, keeping the cross matrix but not the
      // panel.
      backend->set_fit_options(fixed_theta());
      {
        faults::FaultInjector injector(
            faults::FaultPlan::parse("cholesky.non_psd:hits=0"));
        const faults::ScopedFaultInjector scope(injector);
        session.fit(*backend);
        EXPECT_EQ(injector.fires(faults::Site::kCholeskyNonPsd), 1u);
      }
      session.expect_sweep_matches_predict(*backend, "jittered fit");
      session.acquire(*backend, 1);
      session.expect_sweep_matches_predict(*backend, "jittered refactor");

      session.acquire(*backend, 4);
      session.expect_sweep_matches_predict(*backend, "mean-skipped sweep",
                                           /*with_mean=*/false);

      // Checkpoint round trip: opaque state + theta, then the resume
      // protocol's optimization-free fit on the learned rows.
      const std::string state = backend->save_state();
      const std::unique_ptr<PosteriorBackend> restored =
          session.make(fixed_theta());
      restored->restore_state(state);
      restored->set_log_params(backend->log_params());
      session.fit(*restored);
      session.expect_sweep_matches_predict(*restored, "restored");
      session.acquire(*restored, 0);
      session.expect_sweep_matches_predict(*restored, "restored append");
    }
  }
  core::set_global_parallel_threads(0);  // restore the configured default
}

TEST(BackendParity, ExactSweepsMatchPredictBitwise) {
  run_lifecycle(BackendOptions{});
}

TEST(BackendParity, SubsetOfDataSweepsMatchPredictBitwise) {
  // Capacity 15 over 12 initial points: the first appends extend the
  // window epoch in place, later ones slide the window and rebuild.
  BackendOptions options;
  options.kind = BackendKind::kSubsetOfData;
  options.inducing_points = 15;
  run_lifecycle(options);
}

}  // namespace
