#include "alamr/gp/local.hpp"

#include <cmath>
#include <stdexcept>

namespace alamr::gp {

namespace {

void gather_group(const Matrix& x, std::span<const double> y,
                  std::span<const std::size_t> rows, Matrix& x_out,
                  std::vector<double>& y_out) {
  x_out = Matrix(rows.size(), x.cols());
  y_out.resize(rows.size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    for (std::size_t c = 0; c < x.cols(); ++c) {
      x_out(r, c) = x(rows[r], c);
    }
    y_out[r] = y[rows[r]];
  }
}

}  // namespace

LocalGprEnsemble::LocalGprEnsemble(Kernel prototype, RegionLabeler labeler,
                                   GprOptions options)
    : prototype_(std::move(prototype)),
      labeler_(std::move(labeler)),
      options_(options) {
  if (!labeler_) {
    throw std::invalid_argument("LocalGprEnsemble: null labeler");
  }
}

void LocalGprEnsemble::set_labeler(RegionLabeler labeler) {
  if (!labeler) {
    throw std::invalid_argument("LocalGprEnsemble::set_labeler: null labeler");
  }
  labeler_ = std::move(labeler);
}

void LocalGprEnsemble::fit(const Matrix& x, std::span<const double> y,
                           stats::Rng& rng, std::size_t min_region_size) {
  fit(x, y, rng, FitSpec{.min_region_size = min_region_size});
}

void LocalGprEnsemble::fit_region_model(Region& region, stats::Rng& rng) {
  GaussianProcessRegressor model(prototype_, options_);
  if (!pending_theta_.empty()) {
    const std::size_t p = prototype_.num_params();
    if (pending_theta_used_ + p > pending_theta_.size()) {
      throw std::runtime_error(
          "LocalGprEnsemble::fit: staged log-params exhausted (model count "
          "mismatch)");
    }
    model.set_kernel_log_params(
        std::span<const double>(pending_theta_)
            .subspan(pending_theta_used_, p));
    pending_theta_used_ += p;
  }
  model.fit(region.x, region.y, rng, base_, region.rows);
  region.model.emplace(std::move(model));
}

void LocalGprEnsemble::fit(const Matrix& x, std::span<const double> y,
                           stats::Rng& rng, const FitSpec& spec) {
  if (x.rows() != y.size() || x.rows() == 0) {
    throw std::invalid_argument("LocalGprEnsemble::fit: bad training data");
  }
  if (spec.base != nullptr && spec.rows.size() != x.rows()) {
    throw std::invalid_argument(
        "LocalGprEnsemble::fit: base bound but rows does not cover x");
  }
  min_region_size_ = spec.min_region_size;
  base_ = spec.base;
  fallback_ = spec.fallback;
  pending_theta_used_ = 0;

  // Running prior mean: in-order sum, the same bits an incremental
  // add_point sequence over the same data accumulates.
  y_sum_ = 0.0;
  for (const double v : y) y_sum_ += v;
  n_train_ = x.rows();

  // Group row indices by region label.
  std::map<int, std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < x.rows(); ++i) {
    groups[labeler_(x.row(i))].push_back(i);
  }

  // Staged-theta count check, BEFORE any model consumes rng: the staged
  // slices must cover exactly the models this fit will build.
  if (!pending_theta_.empty()) {
    const std::size_t p = prototype_.num_params();
    std::size_t models = fallback_ == Fallback::kGlobalModel ? 1 : 0;
    for (const auto& [label, rows] : groups) {
      if (rows.size() >= min_region_size_) ++models;
    }
    if (pending_theta_.size() != models * p) {
      throw std::runtime_error(
          "LocalGprEnsemble::fit: staged log-params count does not match the "
          "models this fit builds");
    }
  }

  // Global fallback on all data (rng order: global first, then regions in
  // ascending label order — the historical sequence).
  global_.reset();
  if (fallback_ == Fallback::kGlobalModel) {
    GaussianProcessRegressor model(prototype_, options_);
    if (!pending_theta_.empty()) {
      // The global slice is staged LAST (log_params() order) but consumed
      // first; regions start after it... keep consumption in log_params()
      // order instead: regions first. To preserve the historical rng
      // order (global fit first) while consuming theta in log_params()
      // order (regions first, global last), slice the global's theta from
      // the tail explicitly.
      const std::size_t p = prototype_.num_params();
      model.set_kernel_log_params(
          std::span<const double>(pending_theta_)
              .subspan(pending_theta_.size() - p, p));
    }
    model.fit(x, y, rng, spec.base, spec.rows);
    global_.emplace(std::move(model));
  }

  regions_.clear();
  for (const auto& [label, rows] : groups) {
    Region region;
    gather_group(x, y, rows, region.x, region.y);
    if (base_ != nullptr) {
      region.rows.reserve(rows.size());
      for (const std::size_t r : rows) region.rows.push_back(spec.rows[r]);
    }
    auto [it, inserted] = regions_.emplace(label, std::move(region));
    if (it->second.y.size() >= min_region_size_) {
      fit_region_model(it->second, rng);
    }
  }
  pending_theta_.clear();
  pending_theta_used_ = 0;
  fitted_ = true;
}

int LocalGprEnsemble::add_point(std::span<const double> x, double y,
                                stats::Rng& rng, std::size_t row) {
  if (!fitted_) {
    throw std::logic_error("LocalGprEnsemble::add_point before fit");
  }
  const int label = labeler_(x);
  Region& region = regions_[label];
  region.x.push_row(x);
  region.y.push_back(y);
  if (base_ != nullptr) region.rows.push_back(row);
  y_sum_ += y;
  ++n_train_;

  if (global_) global_->fit_add_point(x, y, rng);
  if (region.model) {
    region.model->fit_add_point(x, y, rng);
  } else if (region.y.size() >= min_region_size_) {
    fit_region_model(region, rng);
  }
  return label;
}

Prediction LocalGprEnsemble::prior_prediction(const Matrix& x) const {
  Prediction out;
  out.mean.assign(x.rows(), prior_mean());
  out.stddev = prototype_.diagonal(x);
  for (double& v : out.stddev) v = std::sqrt(v);
  return out;
}

Prediction LocalGprEnsemble::predict(const Matrix& x) const {
  if (!fitted_) throw std::logic_error("LocalGprEnsemble::predict before fit");

  // Dispatch query rows to their regions, predict per region in one
  // batch, then scatter results back into query order. Rows whose region
  // has no model of its own collect in a separate fallback bucket — NOT
  // keyed by a sentinel label, so a labeler that legitimately returns
  // INT_MIN still routes to that region's model (regression-tested).
  std::map<int, std::vector<std::size_t>> groups;
  std::vector<std::size_t> fallback_rows;
  for (std::size_t i = 0; i < x.rows(); ++i) {
    const int label = labeler_(x.row(i));
    const auto it = regions_.find(label);
    if (it != regions_.end() && it->second.model) {
      groups[label].push_back(i);
    } else {
      fallback_rows.push_back(i);
    }
  }

  Prediction out;
  out.mean.resize(x.rows());
  out.stddev.resize(x.rows());
  const auto scatter = [&](std::span<const std::size_t> rows,
                           const Prediction& group) {
    for (std::size_t r = 0; r < rows.size(); ++r) {
      out.mean[rows[r]] = group.mean[r];
      out.stddev[rows[r]] = group.stddev[r];
    }
  };
  Matrix x_group;
  std::vector<double> unused;
  for (const auto& [label, rows] : groups) {
    x_group.resize_discard(0, 0);
    x_group = Matrix(rows.size(), x.cols());
    for (std::size_t r = 0; r < rows.size(); ++r) {
      for (std::size_t c = 0; c < x.cols(); ++c) {
        x_group(r, c) = x(rows[r], c);
      }
    }
    scatter(rows, regions_.at(label).model->predict(x_group));
  }
  if (!fallback_rows.empty()) {
    Matrix x_fall(fallback_rows.size(), x.cols());
    for (std::size_t r = 0; r < fallback_rows.size(); ++r) {
      for (std::size_t c = 0; c < x.cols(); ++c) {
        x_fall(r, c) = x(fallback_rows[r], c);
      }
    }
    // Empty-region fallback: the global model when one was fitted, else
    // the global PRIOR — never an absent ("empty") expert.
    scatter(fallback_rows,
            global_ ? global_->predict(x_fall) : prior_prediction(x_fall));
  }
  return out;
}

std::vector<double> LocalGprEnsemble::predict_mean(const Matrix& x) const {
  if (!fitted_) {
    throw std::logic_error("LocalGprEnsemble::predict_mean before fit");
  }
  std::map<int, std::vector<std::size_t>> groups;
  std::vector<std::size_t> fallback_rows;
  for (std::size_t i = 0; i < x.rows(); ++i) {
    const int label = labeler_(x.row(i));
    const auto it = regions_.find(label);
    if (it != regions_.end() && it->second.model) {
      groups[label].push_back(i);
    } else {
      fallback_rows.push_back(i);
    }
  }
  std::vector<double> out(x.rows());
  const auto scatter = [&](std::span<const std::size_t> rows,
                           std::span<const double> mu) {
    for (std::size_t r = 0; r < rows.size(); ++r) out[rows[r]] = mu[r];
  };
  for (const auto& [label, rows] : groups) {
    Matrix x_group(rows.size(), x.cols());
    for (std::size_t r = 0; r < rows.size(); ++r) {
      for (std::size_t c = 0; c < x.cols(); ++c) {
        x_group(r, c) = x(rows[r], c);
      }
    }
    scatter(rows, regions_.at(label).model->predict_mean(x_group));
  }
  if (!fallback_rows.empty()) {
    if (global_) {
      Matrix x_fall(fallback_rows.size(), x.cols());
      for (std::size_t r = 0; r < fallback_rows.size(); ++r) {
        for (std::size_t c = 0; c < x.cols(); ++c) {
          x_fall(r, c) = x(fallback_rows[r], c);
        }
      }
      scatter(fallback_rows, global_->predict_mean(x_fall));
    } else {
      for (const std::size_t r : fallback_rows) out[r] = prior_mean();
    }
  }
  return out;
}

double LocalGprEnsemble::lml() const {
  if (!fitted_) throw std::logic_error("LocalGprEnsemble::lml before fit");
  double total = 0.0;
  for (const auto& [label, region] : regions_) {
    if (region.model) total += region.model->log_marginal_likelihood();
  }
  if (global_) total += global_->log_marginal_likelihood();
  return total;
}

std::vector<double> LocalGprEnsemble::log_params() const {
  std::vector<double> theta;
  for (const auto& [label, region] : regions_) {
    if (!region.model) continue;
    const std::vector<double> p = region.model->kernel().log_params();
    theta.insert(theta.end(), p.begin(), p.end());
  }
  if (global_) {
    const std::vector<double> p = global_->kernel().log_params();
    theta.insert(theta.end(), p.begin(), p.end());
  }
  return theta;
}

void LocalGprEnsemble::set_pending_log_params(std::span<const double> theta) {
  const std::size_t p = prototype_.num_params();
  if (p == 0 || theta.size() % p != 0) {
    throw std::runtime_error(
        "LocalGprEnsemble::set_pending_log_params: length is not a multiple "
        "of the prototype's parameter count");
  }
  pending_theta_.assign(theta.begin(), theta.end());
  pending_theta_used_ = 0;
}

void LocalGprEnsemble::set_options(const GprOptions& options) {
  options_ = options;
  for (auto& [label, region] : regions_) {
    if (region.model) region.model->set_options(options);
  }
  if (global_) global_->set_options(options);
}

std::size_t LocalGprEnsemble::region_count() const noexcept {
  std::size_t count = 0;
  for (const auto& [label, region] : regions_) {
    if (region.model) ++count;
  }
  return count;
}

double LocalGprEnsemble::prior_mean() const noexcept {
  return n_train_ == 0 ? 0.0 : y_sum_ / static_cast<double>(n_train_);
}

std::vector<int> LocalGprEnsemble::region_labels() const {
  std::vector<int> labels;
  for (const auto& [label, region] : regions_) {
    if (region.model) labels.push_back(label);
  }
  return labels;
}

const GaussianProcessRegressor& LocalGprEnsemble::region_model(int label) const {
  const auto it = regions_.find(label);
  if (it == regions_.end() || !it->second.model) {
    throw std::out_of_range("LocalGprEnsemble: no model for label");
  }
  return *it->second.model;
}

}  // namespace alamr::gp
