#include "src/knapsack/geom_grid.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace moldable::knapsack {

std::vector<double> geom_set(double L, double U, double x) {
  if (!(L > 0) || U < L) throw std::invalid_argument("geom_set: need 0 < L <= U");
  if (!(x > 1)) throw std::invalid_argument("geom_set: need x > 1");
  const auto imax = static_cast<std::int64_t>(std::ceil(std::log(U / L) / std::log(x)));
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(imax) + 1);
  double v = L;
  for (std::int64_t i = 0; i <= imax; ++i) {
    out.push_back(v);
    v *= x;
  }
  return out;
}

double round_down_geom(double a, double L, double U, double x) {
  if (a < L * (1 - kRelTol)) throw std::invalid_argument("round_down_geom: a < L");
  // Index via logarithms, then fix up against floating-point drift by
  // checking the neighbours.
  const double raw = std::log(a / L) / std::log(x);
  auto i = static_cast<std::int64_t>(std::floor(raw + kRelTol));
  const auto imax = static_cast<std::int64_t>(std::ceil(std::log(U / L) / std::log(x)));
  i = std::clamp<std::int64_t>(i, 0, imax);
  double v = L * std::pow(x, static_cast<double>(i));
  while (v > a * (1 + kRelTol) && i > 0) v = L * std::pow(x, static_cast<double>(--i));
  while (i + 1 <= imax && L * std::pow(x, static_cast<double>(i + 1)) <= a * (1 + kRelTol))
    v = L * std::pow(x, static_cast<double>(++i));
  return v;
}

double round_up_geom(double a, double L, double U, double x) {
  const auto imax = static_cast<std::int64_t>(std::ceil(std::log(U / L) / std::log(x)));
  if (a <= L) return L;
  const double raw = std::log(a / L) / std::log(x);
  auto i = static_cast<std::int64_t>(std::ceil(raw - kRelTol));
  i = std::clamp<std::int64_t>(i, 0, imax);
  double v = L * std::pow(x, static_cast<double>(i));
  while (v < a * (1 - kRelTol) && i < imax) v = L * std::pow(x, static_cast<double>(++i));
  while (i - 1 >= 0 && L * std::pow(x, static_cast<double>(i - 1)) >= a * (1 - kRelTol))
    v = L * std::pow(x, static_cast<double>(--i));
  if (v < a * (1 - kRelTol))
    throw std::invalid_argument("round_up_geom: a exceeds the largest grid value");
  return v;
}

NormalizationGrid::NormalizationGrid(std::vector<double> capacities, double alpha_min,
                                     double rho, procs_t nbar, std::size_t max_points) {
  if (capacities.empty()) throw std::invalid_argument("NormalizationGrid: empty capacity set");
  if (!(rho > 0) || rho > 0.5) throw std::invalid_argument("NormalizationGrid: rho out of (0, 0.5]");
  if (nbar < 1) nbar = 1;
  std::sort(capacities.begin(), capacities.end());
  if (!(alpha_min > 0) || alpha_min > capacities.front() * (1 + kRelTol))
    throw std::invalid_argument("NormalizationGrid: need 0 < alpha_min <= min capacity");

  points_.push_back(0.0);
  double prev = alpha_min;  // alpha_0 of Lemma 12
  for (double alpha : capacities) {
    if (alpha <= prev) continue;  // skip duplicates / degenerate intervals
    const double U = rho / ((1 - rho) * static_cast<double>(nbar)) * alpha;
    // Subinterval lower edges inside [prev, alpha): max(l*U, prev) for
    // l in [floor(prev/U), floor(alpha/U)].
    const auto lmin = static_cast<std::int64_t>(std::floor(prev / U));
    const auto lmax = static_cast<std::int64_t>(std::floor(alpha / U));
    std::size_t count = 0;
    for (std::int64_t l = lmin; l <= lmax; ++l) {
      const double edge = std::max(static_cast<double>(l) * U, prev);
      if (edge >= alpha) break;
      if (edge > points_.back() * (1 + kRelTol) || points_.back() == 0.0) {
        if (edge > points_.back()) {
          if (points_.size() >= max_points) return;
          points_.push_back(edge);
          ++count;
        }
      }
    }
    per_interval_.push_back(count);
    prev = alpha;
  }
  // The largest capacity itself is representable.
  if (points_.size() < max_points) points_.push_back(prev);
}

std::optional<double> NormalizationGrid::normalize(double s) const {
  if (s <= 0) return 0.0;
  if (s > points_.back() * (1 + kRelTol)) return std::nullopt;
  // Largest point <= s.
  auto it = std::upper_bound(points_.begin(), points_.end(), s * (1 + kRelTol));
  return *std::prev(it);
}

}  // namespace moldable::knapsack
