#include "alamr/gp/backend.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "alamr/core/hex_bits.hpp"
#include "alamr/core/trace.hpp"

namespace alamr::gp {

namespace {

// ---------------------------------------------------------------------------
// Backend zero: the exact GaussianProcessRegressor plus the AL loop's
// incremental candidate bookkeeping. Warm refits go through fit_add_point
// (an O(n^2) extension whenever theta did not move); K(X_learned, X_active)
// survives across iterations — an acquisition appends its 1 x m row, a
// removed candidate becomes a tombstoned column, and a theta move or a
// jittered refactor forces a rebuild; every sweep runs through the GPR's
// cross-iteration panel (DESIGN.md §13). Each step performs the seed
// recipe's arithmetic operation for operation, which keeps the golden
// trajectory byte-identical through the interface.
// ---------------------------------------------------------------------------

class ExactGprBackend final : public PosteriorBackend {
 public:
  ExactGprBackend(Kernel kernel, const GprOptions& fit_options)
      : gpr_(std::move(kernel), fit_options) {}

  std::string_view name() const noexcept override { return "exact"; }
  BackendKind kind() const noexcept override { return BackendKind::kExact; }
  bool fitted() const noexcept override { return gpr_.fitted(); }
  std::size_t training_size() const noexcept override {
    return gpr_.training_size();
  }

  void set_fit_options(const GprOptions& options) override {
    gpr_.set_options(options);
  }

  void fit(const Matrix& x, std::span<const double> y, stats::Rng& rng,
           const DistanceBase* base, std::span<const std::size_t> rows) override {
    base_ = base;
    x_learned_ = x;
    rows_.assign(rows.begin(), rows.end());
    gpr_.fit(x, y, rng, base, rows);
    k_star_valid_ = false;
    test_dist_.reset();
    test_dist_rows_ = 0;
  }

  void add_point(std::span<const double> x, double y, std::size_t row,
                 stats::Rng& rng, const CandidateRef* after) override {
    x_learned_.push_row(x);
    if (base_ != nullptr) rows_.push_back(row);
    // Same optimization, same rng stream, bit-identical posterior to a full
    // refit — but the common converged-warm-start case avoids the O(n^2)
    // gram rebuild and O(n^3) refactor.
    const bool kept = gpr_.fit_add_point(x, y, rng);
    if (k_star_valid_ && !kept) core::trace::count("sim.kstar_invalidate");
    k_star_valid_ = k_star_valid_ && kept;
    // A surviving cross matrix gains the acquired point's row: a 1 x m
    // kernel evaluation against the remaining candidates.
    if (k_star_valid_ && after != nullptr) {
      core::trace::count("sim.kstar_append");
      const std::size_t appended_row[1] = {row};
      PairwiseDistances dist = [&] {
        if (base_ != nullptr) {
          // The base already holds every acquired-point-to-candidate
          // distance; gather the 1 x m slice directly.
          return PairwiseDistances::cross_from_base(*base_, appended_row,
                                                    after->rows);
        }
        Matrix x_new(1, x_learned_.cols());
        std::copy(x.begin(), x.end(), x_new.row(0).begin());
        return PairwiseDistances::cross(x_new, after->x);
      }();
      gpr_.kernel().prepare_distances(dist);
      const Matrix new_row = gpr_.kernel().cross_cached(dist);
      if (dead_ == 0) {
        k_star_.push_row(new_row.row(0));
      } else {
        // Tombstoned columns get a zero entry (finite, never read back);
        // live entries land in their storage slots, bit-for-bit the values
        // the compacted layout would hold.
        row_scratch_.assign(k_star_.cols(), 0.0);
        const std::span<const double> src = new_row.row(0);
        for (std::size_t q = 0; q < live_.size(); ++q) {
          row_scratch_[live_[q]] = src[q];
        }
        k_star_.push_row(row_scratch_);
      }
    }
  }

  PosteriorSpans predict_candidates(const CandidateRef& pool,
                                    linalg::Workspace& ws,
                                    bool with_mean = true) override {
    const std::size_t m = pool.x.rows();
    if (!k_star_valid_) {
      core::trace::count("sim.kstar_rebuild");
      PairwiseDistances dist =
          base_ != nullptr
              ? PairwiseDistances::cross_from_base(*base_, rows_, pool.rows)
              : PairwiseDistances::cross(x_learned_, pool.x);
      gpr_.kernel().prepare_distances(dist);
      k_star_ = gpr_.kernel().cross_cached(dist);
      k_star_.reserve(n_train_max_, k_star_.cols());
      diag_ = gpr_.kernel().diagonal(pool.x);
      // A wholesale cross rebuild breaks the panel's column alignment; the
      // next sweep rebuilds it (panel.rebuilds). Reserve so steady-state
      // row appends stay allocation-free.
      gpr_.panel_invalidate();
      gpr_.panel_reserve(std::max(n_train_max_, gpr_.training_size()),
                         k_star_.cols());
      // Fresh cross matrix: every storage column is live again.
      live_.resize(m);
      for (std::size_t q = 0; q < m; ++q) live_[q] = q;
      dead_ = 0;
      k_star_valid_ = true;
    } else {
      core::trace::count("sim.kstar_reuse");
    }
    // Fused panel sweep over the live cross matrix: outputs live in the
    // caller's pass arena, so the steady-state pass is allocation-free
    // (verified by tests_alloc). A mean-skipped sweep leaves mu empty;
    // candidate_mean() recovers single entries from the live cross matrix.
    if (!with_mean) core::trace::count("sim.mean_skip");
    const std::span<double> mu = with_mean ? ws.alloc(m) : std::span<double>{};
    const std::span<double> sd = ws.alloc(m);
    if (dead_ == 0) {
      gpr_.predict_batch_panel(k_star_, diag_, mu, sd, with_mean);
      return {mu, sd};
    }
    // Tombstoned sweep: run the panel over the full physical column set
    // (dead columns included — their values are finite and discarded) and
    // gather the live entries into pool order. Each column's arithmetic is
    // column-local, so live outputs are bit-for-bit those of the compacted
    // layout.
    const std::size_t phys = k_star_.cols();
    const std::span<double> mu_phys =
        with_mean ? ws.alloc(phys) : std::span<double>{};
    const std::span<double> sd_phys = ws.alloc(phys);
    gpr_.predict_batch_panel(k_star_, diag_, mu_phys, sd_phys, with_mean);
    for (std::size_t q = 0; q < m; ++q) {
      if (with_mean) mu[q] = mu_phys[live_[q]];
      sd[q] = sd_phys[live_[q]];
    }
    return {mu, sd};
  }

  double candidate_mean(std::size_t local) const override {
    // Only meaningful after a mean-skipped sweep, so the live cross matrix
    // and pool map are current. Bit-identical to the entry the skipped
    // full pass would have produced (mean_from_cross_column).
    if (!k_star_valid_ || local >= live_.size()) {
      throw std::logic_error(
          "ExactGprBackend::candidate_mean: no live mean-skipped sweep");
    }
    return gpr_.mean_from_cross_column(k_star_, live_[local]);
  }

  void remove_candidate(std::size_t local) override {
    if (!k_star_valid_) return;
    // Tombstone instead of compacting: column removal would move O(n m)
    // doubles across the cross matrix AND the panel on every acquisition.
    // The column stays in storage until the next cross rebuild compacts
    // everything; only the pool->storage map shrinks.
    core::trace::count("sim.kstar_tombstone");
    live_.erase(live_.begin() + static_cast<std::ptrdiff_t>(local));
    ++dead_;
  }

  std::vector<double> predict_mean(
      const Matrix& x, std::span<const std::size_t> rows) override {
    if (base_ == nullptr || rows.empty()) return gpr_.predict_mean(x);
    // Route the query cross-covariance through the shared DistanceBase:
    // the train-to-query distance slab depends only on the learned rows
    // (hyperparameters enter in the kernel transform, not the distances),
    // so it is regathered only when the training set grew or the query set
    // changed. Gathered entries are bitwise identical to recomputed ones.
    if (!test_dist_ || test_dist_rows_ != rows_.size() ||
        !std::equal(rows.begin(), rows.end(), query_rows_.begin(),
                    query_rows_.end())) {
      test_dist_ = PairwiseDistances::cross_from_base(*base_, rows_, rows);
      test_dist_rows_ = rows_.size();
      query_rows_.assign(rows.begin(), rows.end());
    }
    gpr_.kernel().prepare_distances(*test_dist_);
    return gpr_.predict_mean_from_cross(gpr_.kernel().cross_cached(*test_dist_));
  }

  Prediction predict(const Matrix& x) const override { return gpr_.predict(x); }

  double lml() const override { return gpr_.log_marginal_likelihood(); }

  std::vector<double> log_params() const override {
    return gpr_.kernel().log_params();
  }

  void set_log_params(std::span<const double> theta) override {
    gpr_.set_kernel_log_params(theta);
  }

  void reserve_additional(std::size_t extra) override {
    n_train_max_ = gpr_.training_size() + extra;
    gpr_.reserve_additional(extra);
    x_learned_.reserve(n_train_max_, x_learned_.cols());
    if (base_ != nullptr) rows_.reserve(n_train_max_);
  }

  std::unique_ptr<PosteriorBackend> clone() const override {
    return std::unique_ptr<PosteriorBackend>(new ExactGprBackend(*this));
  }

 private:
  ExactGprBackend(const ExactGprBackend&) = default;

  GaussianProcessRegressor gpr_;

  const DistanceBase* base_ = nullptr;
  Matrix x_learned_;
  std::vector<std::size_t> rows_;
  std::size_t n_train_max_ = 0;

  // Incremental cross-covariance K(X_learned, X_active) plus the cached
  // prior diagonal of the pool; both share one validity lifecycle.
  Matrix k_star_;
  std::vector<double> diag_;
  bool k_star_valid_ = false;

  // Acquired candidates' columns stay in storage (tombstones) instead of
  // being compacted: live_ maps pool index -> storage column, dead_ counts
  // tombstoned columns. Reset to identity/zero on cross rebuilds.
  std::vector<std::size_t> live_;
  std::size_t dead_ = 0;
  std::vector<double> row_scratch_;

  // Train-to-query distance slab for predict_mean, keyed on the training
  // size and query rows it was gathered for.
  std::optional<PairwiseDistances> test_dist_;
  std::size_t test_dist_rows_ = 0;
  std::vector<std::size_t> query_rows_;
};

// ---------------------------------------------------------------------------
// Subset-of-data (Nyström-style inducing subset): the exact GPR trained on
// a bounded, deterministically chosen subset of the learned sequence — the
// first `anchors` points (global structure) plus the most recent
// capacity - anchors (the sliding frontier AL is actively refining). The
// subset is a pure function of the learned sequence, so checkpoint resume
// reconstructs it from the learned rows alone and needs no opaque state.
// Within capacity the backend IS the exact recipe (same fit / warm
// fit_add_point call sequence); over capacity each acquisition refits
// O(capacity^3) and every candidate sweep is O(capacity^2 * M).
// ---------------------------------------------------------------------------

class SubsetOfDataBackend final : public PosteriorBackend {
 public:
  SubsetOfDataBackend(const BackendOptions& options,
                      Kernel kernel,
                      const GprOptions& fit_options)
      : gpr_(std::move(kernel), fit_options),
        cap_(std::max<std::size_t>(options.inducing_points, 2)) {
    const std::size_t requested =
        options.sod_anchors != 0 ? options.sod_anchors : cap_ / 2;
    // At least one tail slot stays open so the newest point always enters
    // the subset (the monotone-variance property at the acquired site).
    anchors_ = std::min(requested, cap_ - 1);
  }

  std::string_view name() const noexcept override { return "subset_of_data"; }
  BackendKind kind() const noexcept override {
    return BackendKind::kSubsetOfData;
  }
  bool fitted() const noexcept override { return gpr_.fitted(); }
  std::size_t training_size() const noexcept override { return y_seq_.size(); }

  std::size_t capacity() const noexcept { return cap_; }
  std::size_t subset_size() const noexcept { return gpr_.training_size(); }

  void set_fit_options(const GprOptions& options) override {
    gpr_.set_options(options);
  }

  void fit(const Matrix& x, std::span<const double> y, stats::Rng& rng,
           const DistanceBase* base, std::span<const std::size_t> rows) override {
    base_ = base;
    x_seq_ = x;
    y_seq_.assign(y.begin(), y.end());
    rows_seq_.assign(rows.begin(), rows.end());
    core::trace::count("backend.sod_fit");
    k_star_valid_ = false;
    refit_subset(rng);
  }

  void add_point(std::span<const double> x, double y, std::size_t row,
                 stats::Rng& rng, const CandidateRef* after) override {
    x_seq_.push_row(x);
    y_seq_.push_back(y);
    if (base_ != nullptr) rows_seq_.push_back(row);
    if (y_seq_.size() <= cap_) {
      // Subset == everything learned so far: the exact recipe, including
      // its rng consumption, so capacity >= n reproduces the exact
      // backend's posterior bit for bit. While the subset only grows, a
      // cached cross matrix stays live (the window epoch): extend it by
      // the acquired point's 1 x m kernel row, same recipe — and
      // therefore same bits — as the exact backend's append.
      core::trace::count("backend.sod_append");
      const bool kept = gpr_.fit_add_point(x, y, rng);
      k_star_valid_ = k_star_valid_ && kept && after != nullptr;
      if (k_star_valid_) {
        const std::size_t appended_row[1] = {row};
        PairwiseDistances dist = [&] {
          if (base_ != nullptr) {
            return PairwiseDistances::cross_from_base(*base_, appended_row,
                                                      after->rows);
          }
          Matrix x_new(1, x_seq_.cols());
          std::copy(x.begin(), x.end(), x_new.row(0).begin());
          return PairwiseDistances::cross(x_new, after->x);
        }();
        gpr_.kernel().prepare_distances(dist);
        const Matrix new_row = gpr_.kernel().cross_cached(dist);
        k_star_.push_row(new_row.row(0));
      }
    } else {
      // The window slid: the oldest tail point left the subset, so the
      // posterior must be rebuilt — O(cap^3), constant in n — and every
      // cached cross row is against a different training set (epoch over).
      core::trace::count("backend.sod_slide");
      k_star_valid_ = false;
      refit_subset(rng);
    }
  }

  PosteriorSpans predict_candidates(const CandidateRef& pool,
                                    linalg::Workspace& ws,
                                    bool /*with_mean*/ = true) override {
    core::trace::count("backend.sod_predict");
    // Panel sweep over a cross matrix cached for the current window epoch.
    // The rebuilt cross is the distance-cache evaluation of K(subset, pool)
    // — bitwise what kernel().cross() produces — so the sweep stays
    // bit-identical to predict() on the subset model.
    const std::size_t m = pool.x.rows();
    if (!k_star_valid_) {
      const std::vector<std::size_t> idx = subset_indices();
      PairwiseDistances dist = [&] {
        if (base_ != nullptr) {
          std::vector<std::size_t> srows;
          srows.reserve(idx.size());
          for (const std::size_t i : idx) srows.push_back(rows_seq_[i]);
          return PairwiseDistances::cross_from_base(*base_, srows, pool.rows);
        }
        Matrix sx(idx.size(), x_seq_.cols());
        for (std::size_t r = 0; r < idx.size(); ++r) {
          const auto src = x_seq_.row(idx[r]);
          std::copy(src.begin(), src.end(), sx.row(r).begin());
        }
        return PairwiseDistances::cross(sx, pool.x);
      }();
      gpr_.kernel().prepare_distances(dist);
      k_star_ = gpr_.kernel().cross_cached(dist);
      diag_ = gpr_.kernel().diagonal(pool.x);
      gpr_.panel_invalidate();
      gpr_.panel_reserve(cap_, k_star_.cols());
      k_star_valid_ = true;
    }
    const std::span<double> mu = ws.alloc(m);
    const std::span<double> sd = ws.alloc(m);
    gpr_.predict_batch_panel(k_star_, diag_, mu, sd);
    return {mu, sd};
  }

  void remove_candidate(std::size_t local) override {
    if (!k_star_valid_) return;
    k_star_.remove_column(local);
    diag_.erase(diag_.begin() + static_cast<std::ptrdiff_t>(local));
    gpr_.panel_remove_column(local);
  }

  std::vector<double> predict_mean(
      const Matrix& x, std::span<const std::size_t> /*rows*/) override {
    return gpr_.predict_mean(x);
  }

  Prediction predict(const Matrix& x) const override { return gpr_.predict(x); }

  double lml() const override { return gpr_.log_marginal_likelihood(); }

  std::vector<double> log_params() const override {
    return gpr_.kernel().log_params();
  }

  void set_log_params(std::span<const double> theta) override {
    gpr_.set_kernel_log_params(theta);
  }

  void reserve_additional(std::size_t extra) override {
    const std::size_t n_max = y_seq_.size() + extra;
    x_seq_.reserve(n_max, x_seq_.cols());
    y_seq_.reserve(n_max);
    if (base_ != nullptr) rows_seq_.reserve(n_max);
    if (gpr_.training_size() < cap_) {
      gpr_.reserve_additional(
          std::min(extra, cap_ - gpr_.training_size()));
    }
  }

  std::unique_ptr<PosteriorBackend> clone() const override {
    return std::unique_ptr<PosteriorBackend>(new SubsetOfDataBackend(*this));
  }

 private:
  SubsetOfDataBackend(const SubsetOfDataBackend&) = default;

  /// Indices (into the learned sequence) of the current subset: the first
  /// min(anchors, n) points plus the most recent cap - anchors.
  std::vector<std::size_t> subset_indices() const {
    const std::size_t n = y_seq_.size();
    std::vector<std::size_t> idx;
    if (n <= cap_) {
      idx.resize(n);
      for (std::size_t i = 0; i < n; ++i) idx[i] = i;
      return idx;
    }
    idx.reserve(cap_);
    for (std::size_t i = 0; i < anchors_; ++i) idx.push_back(i);
    for (std::size_t i = n - (cap_ - anchors_); i < n; ++i) idx.push_back(i);
    return idx;
  }

  void refit_subset(stats::Rng& rng) {
    const std::vector<std::size_t> idx = subset_indices();
    if (idx.size() == y_seq_.size()) {
      // Whole-sequence subset: fit on the stored sequence directly so the
      // call (base rows included) matches the exact backend's exactly.
      gpr_.fit(x_seq_, y_seq_, rng, base_, rows_seq_);
      return;
    }
    Matrix sx(idx.size(), x_seq_.cols());
    std::vector<double> sy(idx.size());
    std::vector<std::size_t> srows;
    if (base_ != nullptr) srows.reserve(idx.size());
    for (std::size_t r = 0; r < idx.size(); ++r) {
      const auto src = x_seq_.row(idx[r]);
      std::copy(src.begin(), src.end(), sx.row(r).begin());
      sy[r] = y_seq_[idx[r]];
      if (base_ != nullptr) srows.push_back(rows_seq_[idx[r]]);
    }
    gpr_.fit(sx, sy, rng, base_, srows);
  }

  GaussianProcessRegressor gpr_;
  const std::size_t cap_;
  std::size_t anchors_;

  const DistanceBase* base_ = nullptr;
  // The full learned sequence (arrival order); the fitted subset is a pure
  // function of it.
  Matrix x_seq_;
  std::vector<double> y_seq_;
  std::vector<std::size_t> rows_seq_;

  // Window-epoch cross matrix K(subset, X_active) + prior diagonal for the
  // panel sweeps: live while the subset only grows (appends extend it by
  // one row); any slide or full refit ends the epoch.
  Matrix k_star_;
  std::vector<double> diag_;
  bool k_star_valid_ = false;
};

// ---------------------------------------------------------------------------
// Partitioned local experts: LocalGprEnsemble over nearest-centroid
// regions with the global-PRIOR fallback (no O(n^3) global model).
// Centroids come from a deterministic k-means-lite pass over the initial
// fit's data and are then FROZEN — routing never moves under later
// acquisitions, which keeps region membership append-only (the property
// checkpoint resume leans on). Because the centroids derive from data the
// resumed process no longer has (the init partition's features before any
// acquisition), they are the one piece of opaque save_state.
// ---------------------------------------------------------------------------

class LocalExpertsBackend final : public PosteriorBackend {
 public:
  LocalExpertsBackend(const BackendOptions& options,
                      Kernel kernel,
                      const GprOptions& fit_options)
      : experts_(std::max<std::size_t>(options.experts, 1)),
        min_expert_size_(std::max<std::size_t>(options.min_expert_size, 1)),
        kmeans_iterations_(options.kmeans_iterations),
        ensemble_(std::move(kernel),
                  [this](std::span<const double> x) {
                    return nearest_centroid(x);
                  },
                  fit_options) {}

  /// The ensemble's labeler captures `this`; a copy must rebind it to the
  /// copy's own centroids or routing would read the copied-from object.
  LocalExpertsBackend(const LocalExpertsBackend& other)
      : experts_(other.experts_),
        min_expert_size_(other.min_expert_size_),
        kmeans_iterations_(other.kmeans_iterations_),
        centroids_(other.centroids_),
        ensemble_(other.ensemble_),
        pred_(other.pred_) {
    ensemble_.set_labeler(
        [this](std::span<const double> x) { return nearest_centroid(x); });
  }

  std::string_view name() const noexcept override { return "local_experts"; }
  BackendKind kind() const noexcept override {
    return BackendKind::kLocalExperts;
  }
  bool fitted() const noexcept override { return ensemble_.fitted(); }
  std::size_t training_size() const noexcept override {
    return ensemble_.training_size();
  }

  std::size_t expert_count() const noexcept { return ensemble_.region_count(); }

  void set_fit_options(const GprOptions& options) override {
    ensemble_.set_options(options);
  }

  void fit(const Matrix& x, std::span<const double> y, stats::Rng& rng,
           const DistanceBase* base, std::span<const std::size_t> rows) override {
    if (centroids_.rows() == 0) {
      compute_centroids(x);
    } else if (centroids_.cols() != x.cols()) {
      throw std::runtime_error(
          "local_experts: restored centroids have dimension " +
          std::to_string(centroids_.cols()) + ", the data " +
          std::to_string(x.cols()));
    }
    LocalGprEnsemble::FitSpec spec;
    spec.min_region_size = min_expert_size_;
    spec.base = base;
    spec.rows = rows;
    spec.fallback = LocalGprEnsemble::Fallback::kPrior;
    ensemble_.fit(x, y, rng, spec);
    core::trace::count("backend.experts_fit");
    core::trace::count("backend.experts_models", ensemble_.region_count());
  }

  void add_point(std::span<const double> x, double y, std::size_t row,
                 stats::Rng& rng, const CandidateRef* /*after*/) override {
    ensemble_.add_point(x, y, rng, row);
    core::trace::count("backend.experts_route");
  }

  PosteriorSpans predict_candidates(const CandidateRef& pool,
                                    linalg::Workspace& /*ws*/,
                                    bool /*with_mean*/ = true) override {
    core::trace::count("backend.experts_predict");
    pred_ = ensemble_.predict(pool.x);
    return {pred_.mean, pred_.stddev};
  }

  void remove_candidate(std::size_t /*local*/) override {}

  std::vector<double> predict_mean(
      const Matrix& x, std::span<const std::size_t> /*rows*/) override {
    return ensemble_.predict_mean(x);
  }

  Prediction predict(const Matrix& x) const override {
    return ensemble_.predict(x);
  }

  double lml() const override { return ensemble_.lml(); }

  std::vector<double> log_params() const override {
    return ensemble_.log_params();
  }

  void set_log_params(std::span<const double> theta) override {
    // Staged: the ensemble consumes one slice per model inside the next
    // fit(), in log_params() order — the resume protocol.
    ensemble_.set_pending_log_params(theta);
  }

  std::string save_state() const override {
    // Centroids as exact bits: "centroids v1;<k>x<d>;hex,hex,...".
    std::ostringstream os;
    os << "centroids v1;" << centroids_.rows() << 'x' << centroids_.cols()
       << ';' << core::hex_bits_list(centroids_.data());
    return os.str();
  }

  void restore_state(const std::string& state) override {
    // The state comes from a checkpoint on disk: every malformation is a
    // std::runtime_error, and nothing is allocated until the cell count
    // matches the shape. The dimension is checked against the data at the
    // next fit.
    constexpr std::string_view kHeader = "centroids v1;";
    std::string_view rest(state);
    if (rest.substr(0, kHeader.size()) != kHeader) {
      throw std::runtime_error("local_experts: malformed backend state");
    }
    rest.remove_prefix(kHeader.size());
    const std::size_t semi = rest.find(';');
    const std::size_t split = rest.substr(0, semi).find('x');
    if (semi == std::string_view::npos || split == std::string_view::npos) {
      throw std::runtime_error("local_experts: malformed centroid shape");
    }
    const std::uint64_t k =
        core::parse_decimal(rest.substr(0, split), "local_experts");
    const std::uint64_t d = core::parse_decimal(
        rest.substr(split + 1, semi - split - 1), "local_experts");
    if ((k == 0) != (d == 0)) {
      throw std::runtime_error("local_experts: degenerate centroid shape");
    }
    if (d != 0 && k > std::numeric_limits<std::size_t>::max() / d) {
      throw std::runtime_error("local_experts: centroid shape overflows");
    }
    const std::vector<double> cells =
        core::bits_from_hex_list(rest.substr(semi + 1), "local_experts");
    if (cells.size() != k * d) {
      throw std::runtime_error(
          "local_experts: centroid state holds " + std::to_string(cells.size()) +
          " cells for a " + std::to_string(k) + "x" + std::to_string(d) +
          " shape");
    }
    centroids_ = Matrix(k, d);
    std::copy(cells.begin(), cells.end(), centroids_.data().begin());
  }

  void reserve_additional(std::size_t /*extra*/) override {}

  std::unique_ptr<PosteriorBackend> clone() const override {
    return std::unique_ptr<PosteriorBackend>(new LocalExpertsBackend(*this));
  }

 private:
  int nearest_centroid(std::span<const double> x) const {
    if (centroids_.rows() == 0) {
      throw std::logic_error("local_experts: no centroids (fit first)");
    }
    int best = 0;
    double best_d = std::numeric_limits<double>::infinity();
    for (std::size_t j = 0; j < centroids_.rows(); ++j) {
      const auto c = centroids_.row(j);
      double d = 0.0;
      for (std::size_t f = 0; f < c.size(); ++f) {
        const double diff = x[f] - c[f];
        d += diff * diff;
      }
      // Strict < keeps the lowest-index centroid on ties — deterministic
      // routing with no rng anywhere in the seeding or assignment.
      if (d < best_d) {
        best_d = d;
        best = static_cast<int>(j);
      }
    }
    return best;
  }

  /// Deterministic k-means-lite: strided row seeding followed by a fixed
  /// number of Lloyd iterations (empty clusters keep their previous
  /// centroid). No randomness — the same initial fit always produces the
  /// same partition.
  void compute_centroids(const Matrix& x) {
    const std::size_t k = std::min(experts_, x.rows());
    centroids_ = Matrix(k, x.cols());
    for (std::size_t j = 0; j < k; ++j) {
      const auto src = x.row(j * x.rows() / k);
      std::copy(src.begin(), src.end(), centroids_.row(j).begin());
    }
    std::vector<std::size_t> counts(k);
    Matrix sums(k, x.cols());
    for (std::size_t iter = 0; iter < kmeans_iterations_; ++iter) {
      std::fill(counts.begin(), counts.end(), 0);
      for (std::size_t r = 0; r < k; ++r) {
        std::fill(sums.row(r).begin(), sums.row(r).end(), 0.0);
      }
      for (std::size_t i = 0; i < x.rows(); ++i) {
        const std::size_t j =
            static_cast<std::size_t>(nearest_centroid(x.row(i)));
        ++counts[j];
        const auto src = x.row(i);
        const auto dst = sums.row(j);
        for (std::size_t f = 0; f < src.size(); ++f) dst[f] += src[f];
      }
      for (std::size_t j = 0; j < k; ++j) {
        if (counts[j] == 0) continue;  // keep the previous centroid
        const auto dst = centroids_.row(j);
        const auto src = sums.row(j);
        for (std::size_t f = 0; f < dst.size(); ++f) {
          dst[f] = src[f] / static_cast<double>(counts[j]);
        }
      }
    }
  }

  const std::size_t experts_;
  const std::size_t min_expert_size_;
  const std::size_t kmeans_iterations_;
  Matrix centroids_;  // frozen at the first fit (or restore_state)
  LocalGprEnsemble ensemble_;
  Prediction pred_;
};

// ---------------------------------------------------------------------------
// Prior-mean backend: the bottom rung of the degradation ladder. The
// posterior is the constant (training-mean, training-stddev) — no linalg,
// no kernel, no optimizer, so it cannot fail. Statistics are recomputed
// by one deterministic left-to-right pass on every mutation, which makes
// the incremental path (add_point) bit-identical to a from-scratch fit on
// the same sequence — the property checkpoint resume leans on.
// ---------------------------------------------------------------------------

class PriorMeanBackend final : public PosteriorBackend {
 public:
  std::string_view name() const noexcept override { return "prior_mean"; }
  BackendKind kind() const noexcept override { return BackendKind::kPriorMean; }
  bool fitted() const noexcept override { return !y_.empty(); }
  std::size_t training_size() const noexcept override { return y_.size(); }

  void set_fit_options(const GprOptions& options) override { (void)options; }

  void fit(const Matrix& x, std::span<const double> y, stats::Rng& rng,
           const DistanceBase* base, std::span<const std::size_t> rows) override {
    (void)x;
    (void)rng;
    (void)base;
    (void)rows;
    y_.assign(y.begin(), y.end());
    recompute();
  }

  void add_point(std::span<const double> x, double y, std::size_t row,
                 stats::Rng& rng, const CandidateRef* after) override {
    (void)x;
    (void)row;
    (void)rng;
    (void)after;
    y_.push_back(y);
    recompute();
  }

  PosteriorSpans predict_candidates(const CandidateRef& pool,
                                    linalg::Workspace& ws,
                                    bool /*with_mean*/ = true) override {
    (void)ws;
    const std::size_t m = pool.rows.empty() ? pool.x.rows() : pool.rows.size();
    mean_buf_.assign(m, mean_);
    sd_buf_.assign(m, sd_);
    return {mean_buf_, sd_buf_};
  }

  void remove_candidate(std::size_t local) override { (void)local; }

  std::vector<double> predict_mean(const Matrix& x,
                                   std::span<const std::size_t> rows) override {
    const std::size_t m = rows.empty() ? x.rows() : rows.size();
    return std::vector<double>(m, mean_);
  }

  Prediction predict(const Matrix& x) const override {
    Prediction out;
    out.mean.assign(x.rows(), mean_);
    out.stddev.assign(x.rows(), sd_);
    return out;
  }

  double lml() const override {
    if (y_.empty()) return 0.0;
    const double var = sd_ * sd_;
    constexpr double kLog2Pi = 1.8378770664093454836;
    double ll = 0.0;
    for (const double v : y_) {
      const double d = v - mean_;
      ll -= 0.5 * (kLog2Pi + std::log(var) + d * d / var);
    }
    return ll;
  }

  std::vector<double> log_params() const override { return {}; }
  void set_log_params(std::span<const double> theta) override { (void)theta; }

  void reserve_additional(std::size_t extra) override {
    y_.reserve(y_.size() + extra);
  }

  std::unique_ptr<PosteriorBackend> clone() const override {
    return std::make_unique<PriorMeanBackend>(*this);
  }

 private:
  void recompute() {
    const double n = static_cast<double>(y_.size());
    double sum = 0.0;
    for (const double v : y_) sum += v;
    mean_ = sum / n;
    double ss = 0.0;
    for (const double v : y_) {
      const double d = v - mean_;
      ss += d * d;
    }
    const double sd = std::sqrt(ss / n);
    // A single observation (or constant labels) has no spread; answer
    // with unit uncertainty rather than a degenerate zero-sigma
    // posterior that acquisition weights cannot use.
    sd_ = sd > 0.0 ? sd : 1.0;
  }

  std::vector<double> y_;
  double mean_ = 0.0;
  double sd_ = 1.0;
  std::vector<double> mean_buf_;
  std::vector<double> sd_buf_;
};

}  // namespace

std::string to_string(BackendKind kind) {
  switch (kind) {
    case BackendKind::kExact: return "exact";
    case BackendKind::kSubsetOfData: return "subset_of_data";
    case BackendKind::kLocalExperts: return "local_experts";
    case BackendKind::kPriorMean: return "prior_mean";
  }
  return "unknown";
}

std::unique_ptr<PosteriorBackend> make_backend(const BackendOptions& options,
                                               Kernel kernel,
                                               const GprOptions& fit_options) {
  switch (options.kind) {
    case BackendKind::kExact:
      return std::make_unique<ExactGprBackend>(std::move(kernel), fit_options);
    case BackendKind::kSubsetOfData:
      return std::make_unique<SubsetOfDataBackend>(options, std::move(kernel),
                                                   fit_options);
    case BackendKind::kLocalExperts:
      return std::make_unique<LocalExpertsBackend>(options, std::move(kernel),
                                                   fit_options);
    case BackendKind::kPriorMean:
      return std::make_unique<PriorMeanBackend>();
  }
  throw std::invalid_argument("make_backend: unknown backend kind");
}

// ---------------------------------------------------------------------------
// ResilientBackend: the degradation-ladder decorator (DESIGN.md §14).
// ---------------------------------------------------------------------------

namespace {

namespace res = alamr::core::resilience;

std::vector<BackendKind> ladder_for(BackendKind kind, bool ladder_enabled) {
  std::vector<BackendKind> ladder;
  switch (kind) {
    case BackendKind::kExact:
      ladder = {BackendKind::kExact, BackendKind::kSubsetOfData,
                BackendKind::kPriorMean};
      break;
    case BackendKind::kSubsetOfData:
      ladder = {BackendKind::kSubsetOfData, BackendKind::kPriorMean};
      break;
    case BackendKind::kLocalExperts:
      ladder = {BackendKind::kLocalExperts, BackendKind::kSubsetOfData,
                BackendKind::kPriorMean};
      break;
    case BackendKind::kPriorMean:
      ladder = {BackendKind::kPriorMean};
      break;
  }
  if (!ladder_enabled) ladder.resize(1);
  return ladder;
}

}  // namespace

/// Attributes failure events noted by lower layers (injected
/// cholesky.non_psd / opt.diverge fires) to the owning model's breaker.
struct ResilientBackend::BreakerListener final : res::Listener {
  explicit BreakerListener(ResilientBackend& owner) noexcept : owner(owner) {}
  void on_event(res::Event event) override {
    owner.breaker_.record_failure();
    core::trace::count(std::string("resilience.event.") +
                       std::string(res::to_string(event)));
  }
  ResilientBackend& owner;
};

ResilientBackend::ResilientBackend(const BackendOptions& options,
                                   const core::resilience::Options& resilience,
                                   KernelFactory kernel_factory,
                                   const GprOptions& fit_options)
    : base_options_(options),
      res_(resilience),
      kernel_factory_(std::move(kernel_factory)),
      fit_options_(fit_options),
      ladder_(ladder_for(options.kind, resilience.ladder)),
      breaker_(resilience.breaker_threshold),
      repair_rng_(0x7e511e47u),
      exec_(resilience.backoff, resilience.max_attempts,
            resilience.deadline_ticks) {
  rung_theta_.resize(ladder_.size());
  inner_ = make_inner(ladder_[0]);
}

ResilientBackend::~ResilientBackend() = default;

ResilientBackend::ResilientBackend(const ResilientBackend& other)
    : base_options_(other.base_options_),
      res_(other.res_),
      kernel_factory_(other.kernel_factory_),
      fit_options_(other.fit_options_),
      ladder_(other.ladder_),
      inner_(other.inner_->clone()),
      rung_(other.rung_),
      breaker_(other.breaker_),
      health_(other.health_),
      rung_theta_(other.rung_theta_),
      repair_rng_(other.repair_rng_),
      exec_(other.exec_),
      x_store_(other.x_store_),
      y_store_(other.y_store_),
      rows_store_(other.rows_store_),
      base_(other.base_) {}

std::unique_ptr<PosteriorBackend> ResilientBackend::clone() const {
  return std::unique_ptr<PosteriorBackend>(new ResilientBackend(*this));
}

std::unique_ptr<PosteriorBackend> ResilientBackend::make_inner(
    BackendKind kind) const {
  BackendOptions options = base_options_;
  options.kind = kind;
  return make_backend(options, kernel_factory_(), fit_options_);
}

std::string_view ResilientBackend::name() const noexcept {
  return inner_->name();
}

BackendKind ResilientBackend::kind() const noexcept { return ladder_[0]; }

bool ResilientBackend::fitted() const noexcept { return inner_->fitted(); }

std::size_t ResilientBackend::training_size() const noexcept {
  return inner_->training_size();
}

void ResilientBackend::set_fit_options(const GprOptions& options) {
  fit_options_ = options;
  inner_->set_fit_options(options);
}

core::resilience::Health ResilientBackend::health() const noexcept {
  return health_;
}

void ResilientBackend::record_external_event(core::resilience::Event event) {
  if (!res_.enabled) return;
  breaker_.record_failure();
  core::trace::count(std::string("resilience.event.") +
                     std::string(res::to_string(event)));
}

void ResilientBackend::rebuild_at_rung(std::span<const double> theta) {
  std::unique_ptr<PosteriorBackend> next = make_inner(ladder_[rung_]);
  // Rng-free, optimizer-free rebuild: deterministic whatever stream state
  // the surrounding trajectory is in, and byte-reproducible on resume.
  GprOptions quiet = fit_options_;
  quiet.optimize = false;
  quiet.restarts = 0;
  next->set_fit_options(quiet);
  if (!theta.empty()) next->set_log_params(theta);
  if (!y_store_.empty()) {
    next->fit(x_store_, y_store_, repair_rng_, base_, rows_store_);
  }
  next->set_fit_options(fit_options_);
  inner_ = std::move(next);
}

void ResilientBackend::degrade(const char* why) {
  for (;;) {
    if (rung_ + 1 >= ladder_.size()) {
      health_ = res::Health::kHalted;
      core::trace::count("resilience.halted");
      throw std::runtime_error(
          std::string("resilient backend: degradation ladder exhausted at '") +
          why + "'");
    }
    core::trace::count("resilience.breaker_trips");
    breaker_.acknowledge_trip();
    rung_theta_[rung_] = inner_->log_params();
    ++rung_;
    core::trace::count("resilience.degrade_steps");
    core::trace::count("resilience.degrade_to." + to_string(ladder_[rung_]));
    try {
      rebuild_at_rung({});
      health_ = res::Health::kDegraded;
      return;
    } catch (const std::runtime_error&) {
      core::trace::count("resilience.degrade_rebuild_failures");
      // This rung cannot even hold the data: keep stepping down.
    }
  }
}

void ResilientBackend::maybe_probe_recovery() {
  core::trace::count("resilience.half_open_probes");
  const std::size_t save_rung = rung_;
  rung_ = save_rung - 1;
  try {
    rebuild_at_rung(rung_theta_[rung_]);
    health_ = rung_ == 0 ? res::Health::kHealthy : res::Health::kDegraded;
    core::trace::count("resilience.recoveries");
  } catch (const std::runtime_error&) {
    rung_ = save_rung;  // the failed rebuild never touched inner_
    core::trace::count("resilience.probe_failures");
  }
  breaker_.reset_streak();  // pace the next probe either way
}

void ResilientBackend::pre_op() {
  if (rung_ > 0 && !breaker_.tripped() &&
      breaker_.ok_streak() >= res_.probe_after) {
    maybe_probe_recovery();
  }
  if (breaker_.tripped() && rung_ + 1 < ladder_.size()) {
    // Events recorded outside any guarded op (injected acquire.timeout
    // censors routed in by the simulator) tripped the breaker between
    // operations: step the ladder before serving this one.
    degrade("external events");
  }
}

template <typename Fn>
std::invoke_result_t<Fn&> ResilientBackend::guarded(const char* op,
                                                    RetryAfterDegrade retry,
                                                    Fn&& fn) {
  using R = std::invoke_result_t<Fn&>;
  if (!res_.enabled) return fn();
  pre_op();
  for (;;) {  // one iteration per ladder rung tried
    [[maybe_unused]] std::conditional_t<std::is_void_v<R>, char,
                                        std::optional<R>> result{};
    std::exception_ptr error;
    const res::DeadlineExecutor::Outcome outcome =
        exec_.execute(op, [&]() -> res::OpStatus {
          try {
            BreakerListener listener(*this);
            const res::ScopedListener scope(listener);
            if constexpr (std::is_void_v<R>) {
              fn();
            } else {
              result.emplace(fn());
            }
            return res::OpStatus::kOk;
          } catch (const std::runtime_error&) {
            error = std::current_exception();
            breaker_.record_failure();
            core::trace::count("resilience.backend_op_failures");
            return res::OpStatus::kFailed;
          }
        });
    if (outcome.status == res::OpStatus::kOk) {
      breaker_.record_success();
      if constexpr (std::is_void_v<R>) {
        return;
      } else {
        return std::move(*result);
      }
    }
    if (rung_ + 1 < ladder_.size()) {
      degrade(op);
      if (retry == RetryAfterDegrade::kNo) {
        if constexpr (std::is_void_v<R>) {
          return;
        } else {
          return R{};
        }
      }
      continue;
    }
    health_ = res::Health::kHalted;
    core::trace::count("resilience.halted");
    std::rethrow_exception(error);
  }
}

void ResilientBackend::fit(const Matrix& x, std::span<const double> y,
                           stats::Rng& rng, const DistanceBase* base,
                           std::span<const std::size_t> rows) {
  if (!res_.enabled) {
    inner_->fit(x, y, rng, base, rows);
    return;
  }
  x_store_ = x;
  y_store_.assign(y.begin(), y.end());
  rows_store_.assign(rows.begin(), rows.end());
  base_ = base;
  guarded("backend.fit", RetryAfterDegrade::kYes, [&] {
    inner_->fit(x_store_, y_store_, rng, base_, rows_store_);
  });
}

void ResilientBackend::add_point(std::span<const double> x, double y,
                                 std::size_t row, stats::Rng& rng,
                                 const CandidateRef* after) {
  if (!res_.enabled) {
    inner_->add_point(x, y, row, rng, after);
    return;
  }
  // Probe/degrade BEFORE retaining the point: a rebuild triggered here
  // must not include data the inner has not been handed yet.
  pre_op();
  x_store_.push_row(x);
  y_store_.push_back(y);
  if (base_ != nullptr) rows_store_.push_back(row);
  std::exception_ptr error;
  const res::DeadlineExecutor::Outcome outcome =
      exec_.execute("backend.add_point", [&]() -> res::OpStatus {
        try {
          BreakerListener listener(*this);
          const res::ScopedListener scope(listener);
          inner_->add_point(x, y, row, rng, after);
          return res::OpStatus::kOk;
        } catch (const std::runtime_error&) {
          error = std::current_exception();
          breaker_.record_failure();
          core::trace::count("resilience.backend_op_failures");
          // A failed append may leave the inner mid-mutation: rebuild
          // this rung from the retained copy (which includes the new
          // point) instead of re-invoking add_point on a broken model.
          try {
            rebuild_at_rung(inner_->log_params());
            core::trace::count("resilience.backend_rebuilds");
            return res::OpStatus::kOk;
          } catch (const std::runtime_error&) {
            return res::OpStatus::kFailed;
          }
        }
      });
  if (outcome.status == res::OpStatus::kOk) {
    breaker_.record_success();
    return;
  }
  if (rung_ + 1 < ladder_.size()) {
    degrade("backend.add_point");  // the rebuild re-fits the stored copy
    return;
  }
  health_ = res::Health::kHalted;
  core::trace::count("resilience.halted");
  std::rethrow_exception(error);
}

PosteriorSpans ResilientBackend::predict_candidates(const CandidateRef& pool,
                                                    linalg::Workspace& ws,
                                                    bool with_mean) {
  return guarded("backend.predict_candidates", RetryAfterDegrade::kYes,
                 [&] { return inner_->predict_candidates(pool, ws, with_mean); });
}

double ResilientBackend::candidate_mean(std::size_t local) const {
  // Read-only recovery of one mean entry from the inner backend's live
  // cross matrix; no retry ladder — a failure here means the preceding
  // sweep already lied about being mean-skipped.
  return inner_->candidate_mean(local);
}

void ResilientBackend::remove_candidate(std::size_t local) {
  // Pure cache maintenance, no linalg: forward unguarded. A freshly
  // degraded inner has no candidate cache and treats this as a no-op.
  inner_->remove_candidate(local);
}

std::vector<double> ResilientBackend::predict_mean(
    const Matrix& x, std::span<const std::size_t> rows) {
  return guarded("backend.predict_mean", RetryAfterDegrade::kYes,
                 [&] { return inner_->predict_mean(x, rows); });
}

Prediction ResilientBackend::predict(const Matrix& x) const {
  ResilientBackend* self = const_cast<ResilientBackend*>(this);
  return self->guarded("backend.predict", RetryAfterDegrade::kYes,
                       [&] { return inner_->predict(x); });
}

double ResilientBackend::lml() const { return inner_->lml(); }

std::vector<double> ResilientBackend::log_params() const {
  return inner_->log_params();
}

void ResilientBackend::set_log_params(std::span<const double> theta) {
  inner_->set_log_params(theta);
}

void ResilientBackend::reserve_additional(std::size_t extra) {
  if (res_.enabled) {
    x_store_.reserve(x_store_.rows() + extra, x_store_.cols());
    y_store_.reserve(y_store_.size() + extra);
    rows_store_.reserve(rows_store_.size() + extra);
  }
  inner_->reserve_additional(extra);
}

std::string ResilientBackend::save_state() const {
  const std::string inner_state = inner_->save_state();
  if (rung_ == 0 && breaker_.total_failures() == 0 && breaker_.trips() == 0) {
    // Untouched decorator: stay byte-compatible with undecorated
    // checkpoints (and keep exact-backend state empty).
    return inner_state;
  }
  std::ostringstream os;
  os << "resil v1;rung=" << rung_ << ";health="
     << static_cast<unsigned>(health_) << ";breaker="
     << breaker_.consecutive_failures() << ',' << breaker_.total_failures()
     << ',' << breaker_.ok_streak() << ',' << breaker_.trips() << ";thetas=";
  for (std::size_t r = 0; r < rung_; ++r) {
    os << (r == 0 ? "" : "|") << core::hex_bits_list(rung_theta_[r]);
  }
  os << ";inner=" << inner_state.size() << ':' << inner_state;
  return os.str();
}

void ResilientBackend::restore_state(const std::string& state) {
  constexpr std::string_view kTag = "resil v1;";
  if (state.compare(0, kTag.size(), kTag) != 0) {
    // Undecorated state: the decorator was untouched when it was saved.
    inner_->restore_state(state);
    return;
  }
  std::string_view rest = std::string_view(state).substr(kTag.size());
  const auto take = [&](std::string_view prefix) {
    if (rest.substr(0, prefix.size()) != prefix) {
      throw std::runtime_error("resilient backend: malformed state near '" +
                               std::string(rest.substr(0, 24)) + "'");
    }
    rest.remove_prefix(prefix.size());
    const std::size_t semi = rest.find(';');
    if (semi == std::string_view::npos) {
      throw std::runtime_error("resilient backend: truncated state");
    }
    const std::string_view field = rest.substr(0, semi);
    rest.remove_prefix(semi + 1);
    return field;
  };
  const auto to_u64 = [](std::string_view text) {
    return core::parse_decimal(text, "resilient backend");
  };
  const std::uint64_t rung = to_u64(take("rung="));
  if (rung >= ladder_.size()) {
    throw std::runtime_error("resilient backend: state rung out of range");
  }
  const std::uint64_t health = to_u64(take("health="));
  if (health > static_cast<unsigned>(res::Health::kHalted)) {
    throw std::runtime_error("resilient backend: bad health in state");
  }
  const std::string_view breaker = take("breaker=");
  std::array<std::uint64_t, 4> counters{};
  {
    std::size_t begin = 0;
    for (std::size_t i = 0; i < 4; ++i) {
      const std::size_t comma = breaker.find(',', begin);
      const bool last = i == 3;
      if (last != (comma == std::string_view::npos)) {
        throw std::runtime_error("resilient backend: bad breaker in state");
      }
      counters[i] = to_u64(breaker.substr(
          begin, last ? std::string_view::npos : comma - begin));
      begin = comma + 1;
    }
  }
  const std::string_view thetas = take("thetas=");
  std::vector<std::vector<double>> parsed_thetas;
  // One comma list per abandoned rung, '|'-separated; "" is no rung.
  for (std::string_view left = thetas; !thetas.empty();) {
    const std::size_t bar = left.find('|');
    parsed_thetas.push_back(
        core::bits_from_hex_list(left.substr(0, bar), "resilient backend"));
    if (bar == std::string_view::npos) break;
    left.remove_prefix(bar + 1);
  }
  if (rest.substr(0, 6) != "inner=") {
    throw std::runtime_error("resilient backend: missing inner state");
  }
  rest.remove_prefix(6);
  const std::size_t colon = rest.find(':');
  if (colon == std::string_view::npos) {
    throw std::runtime_error("resilient backend: malformed inner state");
  }
  const std::uint64_t inner_len = to_u64(rest.substr(0, colon));
  rest.remove_prefix(colon + 1);
  if (rest.size() != inner_len) {
    throw std::runtime_error("resilient backend: inner state length mismatch");
  }
  std::unique_ptr<PosteriorBackend> inner = make_inner(ladder_[rung]);
  inner->restore_state(std::string(rest));

  // Everything parsed: commit. A throw above leaves this backend as it was.
  parsed_thetas.resize(ladder_.size());
  rung_ = rung;
  health_ = static_cast<res::Health>(health);
  breaker_.restore(counters[0], counters[1], counters[2], counters[3]);
  rung_theta_ = std::move(parsed_thetas);
  inner_ = std::move(inner);
}

std::unique_ptr<PosteriorBackend> make_resilient_backend(
    const BackendOptions& options, const core::resilience::Options& resilience,
    ResilientBackend::KernelFactory kernel_factory,
    const GprOptions& fit_options) {
  if (!resilience.enabled) {
    return make_backend(options, kernel_factory(), fit_options);
  }
  return std::make_unique<ResilientBackend>(options, resilience,
                                            std::move(kernel_factory),
                                            fit_options);
}

}  // namespace alamr::gp
