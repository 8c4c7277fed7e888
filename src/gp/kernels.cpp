#include "alamr/gp/kernels.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <type_traits>

namespace alamr::gp {

namespace {

using Profile = Kernel::Profile;

constexpr double kAmplitudeLower = 1e-5;
constexpr double kAmplitudeUpper = 1e5;
constexpr double kLengthLower = 1e-3;
constexpr double kLengthUpper = 1e3;
constexpr double kNoiseLower = 1e-10;
constexpr double kNoiseUpper = 1e2;

double checked_positive(double v) {
  if (!(v > 0.0) || !std::isfinite(v)) {
    throw std::invalid_argument("Kernel: hyperparameters must be positive");
  }
  return v;
}

// The squared distance of entry (i, j), or its per-dimension squared
// differences (ARD), read from a cache or recomputed from feature rows.
// The cache was built with exactly these expressions, so both sources
// hand the per-entry formulas identical bits.
struct CacheSource {
  const PairwiseDistances& dist;
  std::size_t rows() const noexcept { return dist.rows(); }
  std::size_t cols() const noexcept { return dist.cols(); }
  double r2(std::size_t i, std::size_t j) const noexcept {
    return dist.squared()(i, j);
  }
  double component(std::size_t d, std::size_t i, std::size_t j) const {
    return dist.component(d)(i, j);
  }
};

struct RowSource {
  const Matrix& x;
  const Matrix& y;
  std::size_t rows() const noexcept { return x.rows(); }
  std::size_t cols() const noexcept { return y.rows(); }
  double r2(std::size_t i, std::size_t j) const noexcept {
    return linalg::squared_distance(x.row(i), y.row(j));
  }
  double component(std::size_t d, std::size_t i, std::size_t j) const noexcept {
    const double diff = x(i, d) - y(j, d);
    return diff * diff;
  }
};

// Per-call constants of the unit profile f, hoisted out of the pair loops.
struct Unit {
  Unit(Profile profile, std::span<const double> lengths)
      : length(lengths[0]),
        inv_2l2(1.0 / (2.0 * length * length)),
        inv_l2(1.0 / (length * length)) {
    if (profile != Profile::kRbfArd) return;
    inv_l2_dim.resize(lengths.size());
    for (std::size_t d = 0; d < lengths.size(); ++d) {
      inv_l2_dim[d] = 1.0 / (lengths[d] * lengths[d]);
    }
  }
  double length;
  double inv_2l2;                   // value path of the RBF
  double inv_l2;                    // gradient path of the RBF
  std::vector<double> inv_l2_dim;   // ARD, one per dimension
};

// A NaN distance (a NaN feature) makes the Matérn value and derivative
// that one NaN. Evaluating (1 + s) * exp(-s) would multiply two NaNs of
// opposite sign, and which one survives follows the compiler's operand
// order, so gram, cross and the gradient path could disagree.
inline double nan_value(double s, double* dlogl) {
  if (dlogl != nullptr) *dlogl = s;
  return s;
}

// Matérn value and d/d(log l) at squared distance r2 (dlogl may be null).
template <Profile P>
double matern(double r2, double length, double* dlogl) {
  const double r = std::sqrt(r2);
  if constexpr (P == Profile::kMatern32) {
    // k = (1 + s) exp(-s), s = sqrt(3) r / l;  dk/d(log l) = s^2 exp(-s).
    const double s = std::sqrt(3.0) * r / length;
    if (std::isnan(s)) return nan_value(s, dlogl);
    const double e = std::exp(-s);
    if (dlogl != nullptr) *dlogl = s * s * e;
    return (1.0 + s) * e;
  } else {
    // k = (1 + s + s^2/3) exp(-s), s = sqrt(5) r / l;
    // dk/d(log l) = s^2 (1 + s) / 3 * exp(-s).
    const double s = std::sqrt(5.0) * r / length;
    if (std::isnan(s)) return nan_value(s, dlogl);
    const double e = std::exp(-s);
    if (dlogl != nullptr) *dlogl = s * s * (1.0 + s) / 3.0 * e;
    return (1.0 + s + s * s / 3.0) * e;
  }
}

// f at entry (i, j) on the value path (gram_cached, cross).
template <Profile P, class Source>
double unit_value(const Unit& u, const Source& src, std::size_t i,
                  std::size_t j) {
  if constexpr (P == Profile::kRbf) {
    return std::exp(-src.r2(i, j) * u.inv_2l2);
  } else if constexpr (P == Profile::kRbfArd) {
    double q = 0.0;
    for (std::size_t d = 0; d < u.inv_l2_dim.size(); ++d) {
      q += src.component(d, i, j) * u.inv_l2_dim[d];
    }
    return std::exp(-0.5 * q);
  } else {
    return matern<P>(src.r2(i, j), u.length, nullptr);
  }
}

// f at entry (i, j) on the gradient path, writing df/d(log l_d) to dl.
// The RBF evaluates exp(-(0.5 * r2) * inv_l2) here and the value path
// exp(-r2 * inv_2l2). inv_2l2 is exactly inv_l2 / 2 and halving is exact,
// so for a finite distance both exponents are the same double. Negating
// 0.5 * r2 rather than 0.5 also gives a NaN distance the sign flip the
// value path gives it, so both paths carry the same NaN.
template <Profile P, class Source>
double unit_gradient(const Unit& u, const Source& src, std::size_t i,
                     std::size_t j, double* dl) {
  if constexpr (P == Profile::kRbf) {
    const double r2 = src.r2(i, j);
    const double v = std::exp(-(0.5 * r2) * u.inv_l2);
    // d/d(log l) exp(-r2 / (2 l^2)) = v * r2 / l^2.
    dl[0] = v * r2 * u.inv_l2;
    return v;
  } else if constexpr (P == Profile::kRbfArd) {
    const std::size_t nd = u.inv_l2_dim.size();
    double q = 0.0;
    for (std::size_t d = 0; d < nd; ++d) {
      dl[d] = src.component(d, i, j) * u.inv_l2_dim[d];
      q += dl[d];
    }
    const double v = std::exp(-0.5 * q);
    // d/d(log l_d) = v * (x_d - x'_d)^2 / l_d^2.
    for (std::size_t d = 0; d < nd; ++d) dl[d] = v * dl[d];
    return v;
  } else {
    return matern<P>(src.r2(i, j), u.length, dl);
  }
}

// Calls fn with the profile as a compile-time constant, so the per-entry
// formulas inline into the pair loops without a per-entry branch.
template <class Fn>
void with_profile(Profile profile, Fn&& fn) {
  switch (profile) {
    case Profile::kRbf:
      return fn(std::integral_constant<Profile, Profile::kRbf>{});
    case Profile::kRbfArd:
      return fn(std::integral_constant<Profile, Profile::kRbfArd>{});
    case Profile::kMatern32:
      return fn(std::integral_constant<Profile, Profile::kMatern32>{});
    case Profile::kMatern52:
      return fn(std::integral_constant<Profile, Profile::kMatern52>{});
  }
  throw std::logic_error("Kernel: unknown profile");
}

void check_cache(const Kernel& kernel, const PairwiseDistances& dist) {
  if (kernel.profile() != Profile::kRbfArd) return;
  if (dist.dim() != kernel.length_scales().size()) {
    throw std::invalid_argument("Kernel: ARD dimension mismatch");
  }
  if (!dist.has_components()) {
    throw std::invalid_argument(
        "Kernel: cache lacks per-dimension components; call "
        "prepare_distances first");
  }
}

// Copies the strict lower triangle onto the upper one, tile by tile so
// both sides stay in cache. Pure data movement: every entry keeps its bits.
void mirror_lower(Matrix& m) {
  constexpr std::size_t kTile = 32;
  const std::size_t n = m.rows();
  for (std::size_t ib = 0; ib < n; ib += kTile) {
    const std::size_t ie = std::min(ib + kTile, n);
    for (std::size_t jb = 0; jb <= ib; jb += kTile) {
      for (std::size_t i = ib; i < ie; ++i) {
        const std::size_t je = std::min(jb + kTile, i);
        for (std::size_t j = jb; j < je; ++j) m(j, i) = m(i, j);
      }
    }
  }
}

}  // namespace

Kernel::Kernel(Profile profile, double amplitude,
               std::vector<double> length_scales, double noise)
    : profile_(profile),
      amplitude_(checked_positive(amplitude)),
      lengths_(std::move(length_scales)),
      noise_(checked_positive(noise)) {
  if (lengths_.empty() ||
      (profile_ != Profile::kRbfArd && lengths_.size() != 1)) {
    throw std::invalid_argument(
        "Kernel: need one length scale (one per dimension for ARD)");
  }
  for (const double l : lengths_) checked_positive(l);
  with_profile(profile_, [](auto) {});  // rejects out-of-range profiles
}

std::vector<double> Kernel::log_params() const {
  std::vector<double> theta;
  theta.reserve(num_params());
  theta.push_back(std::log(amplitude_));
  for (const double l : lengths_) theta.push_back(std::log(l));
  theta.push_back(std::log(noise_));
  return theta;
}

void Kernel::set_log_params(std::span<const double> theta) {
  if (theta.size() != num_params()) {
    throw std::invalid_argument("Kernel: wrong parameter count");
  }
  amplitude_ = std::exp(theta[0]);
  for (std::size_t d = 0; d < lengths_.size(); ++d) {
    lengths_[d] = std::exp(theta[1 + d]);
  }
  noise_ = std::exp(theta.back());
}

opt::Bounds Kernel::log_bounds() const {
  opt::Bounds b;
  b.lower.assign(lengths_.size(), std::log(kLengthLower));
  b.upper.assign(lengths_.size(), std::log(kLengthUpper));
  b.lower.insert(b.lower.begin(), std::log(kAmplitudeLower));
  b.upper.insert(b.upper.begin(), std::log(kAmplitudeUpper));
  b.lower.push_back(std::log(kNoiseLower));
  b.upper.push_back(std::log(kNoiseUpper));
  return b;
}

void Kernel::prepare_distances(PairwiseDistances& dist) const {
  if (profile_ == Profile::kRbfArd) dist.ensure_components();
}

// Amplitude and noise follow the composite c * f + s * [i == j]: off the
// diagonal an entry is c * f (the noise term adds an exact +0.0 there and
// is skipped); on the diagonal it is c * 1.0 + s, written as c + s.

Matrix Kernel::gram_cached(const PairwiseDistances& dist) const {
  check_cache(*this, dist);
  const CacheSource src{dist};
  const Unit u(profile_, lengths_);
  const std::size_t n = dist.rows();
  const double c = amplitude_;
  Matrix k(n, n);
  with_profile(profile_, [&](auto p) {
    for (std::size_t i = 0; i < n; ++i) {
      const auto ki = k.row(i);
      for (std::size_t j = 0; j < i; ++j) {
        const double v = c * unit_value<decltype(p)::value>(u, src, i, j);
        ki[j] = v;
        k(j, i) = v;
      }
      ki[i] = c + noise_;
    }
  });
  return k;
}

Matrix Kernel::gram_with_gradients_cached(const PairwiseDistances& dist,
                                          std::vector<Matrix>& gradients) const {
  check_cache(*this, dist);
  const CacheSource src{dist};
  const Unit u(profile_, lengths_);
  const std::size_t n = dist.rows();
  const std::size_t nl = lengths_.size();
  const double c = amplitude_;
  Matrix k(n, n);
  gradients.assign(num_params(), Matrix());
  for (std::size_t d = 0; d < nl; ++d) gradients[1 + d] = Matrix(n, n);
  // The pair loop fills the lower triangles of K and of each
  // dK/dlog l_d = c * df/dlog l_d (0 on the diagonal).
  std::vector<double> dl(nl);
  std::vector<double*> grad_rows(nl);
  with_profile(profile_, [&](auto p) {
    for (std::size_t i = 0; i < n; ++i) {
      const auto ki = k.row(i);
      for (std::size_t d = 0; d < nl; ++d) {
        grad_rows[d] = gradients[1 + d].row(i).data();
      }
      for (std::size_t j = 0; j < i; ++j) {
        ki[j] =
            c * unit_gradient<decltype(p)::value>(u, src, i, j, dl.data());
        for (std::size_t d = 0; d < nl; ++d) grad_rows[d][j] = dl[d] * c;
      }
      ki[i] = c + noise_;
    }
  });
  mirror_lower(k);
  for (std::size_t d = 0; d < nl; ++d) mirror_lower(gradients[1 + d]);
  // dK/dlog c = c * f: K off the diagonal, c on it. dK/dlog s = s on the
  // diagonal, 0 elsewhere.
  Matrix& dc = gradients.front();
  dc = k;
  Matrix& ds = gradients.back();
  ds = Matrix(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    dc(i, i) = c;
    ds(i, i) = noise_;
  }
  return k;
}

template <class Source>
Matrix Kernel::cross_from(const Source& src) const {
  const Unit u(profile_, lengths_);
  const double c = amplitude_;
  Matrix k(src.rows(), src.cols());
  with_profile(profile_, [&](auto p) {
    for (std::size_t i = 0; i < src.rows(); ++i) {
      const auto ki = k.row(i);
      for (std::size_t j = 0; j < src.cols(); ++j) {
        ki[j] = c * unit_value<decltype(p)::value>(u, src, i, j);
      }
    }
  });
  return k;
}

Matrix Kernel::cross_cached(const PairwiseDistances& dist) const {
  check_cache(*this, dist);
  return cross_from(CacheSource{dist});
}

Matrix Kernel::cross(const Matrix& x, const Matrix& y) const {
  if (x.cols() != y.cols() ||
      (profile_ == Profile::kRbfArd && x.cols() != lengths_.size())) {
    throw std::invalid_argument("Kernel::cross: dimension mismatch");
  }
  return cross_from(RowSource{x, y});
}

std::vector<double> Kernel::diagonal(const Matrix& x) const {
  return std::vector<double>(x.rows(), amplitude_ + noise_);
}

std::string Kernel::describe() const {
  std::ostringstream os;
  os << "(Constant(" << amplitude_ << ")) * (";
  switch (profile_) {
    case Profile::kRbf:
      os << "RBF(l=" << lengths_[0] << ")";
      break;
    case Profile::kRbfArd:
      os << "RBF_ARD(l=[";
      for (std::size_t d = 0; d < lengths_.size(); ++d) {
        if (d > 0) os << ", ";
        os << lengths_[d];
      }
      os << "])";
      break;
    case Profile::kMatern32:
      os << "Matern(nu=3/2, l=" << lengths_[0] << ")";
      break;
    case Profile::kMatern52:
      os << "Matern(nu=5/2, l=" << lengths_[0] << ")";
      break;
  }
  os << ") + White(" << noise_ << ")";
  return os.str();
}

Kernel make_paper_kernel(double amplitude, double length_scale, double noise) {
  return make_kernel(Kernel::Profile::kRbf, 1, amplitude, length_scale, noise);
}

Kernel make_kernel(Kernel::Profile profile, std::size_t dim, double amplitude,
                   double length_scale, double noise) {
  const std::size_t count = profile == Kernel::Profile::kRbfArd ? dim : 1;
  return Kernel(profile, amplitude, std::vector<double>(count, length_scale),
                noise);
}

}  // namespace alamr::gp
