// Geometric value sets (Definition 13) and the adaptive normalization grid
// of Lemma 12 / Figure 4.
//
// geom(L, U, x) = { L * x^i : i = 0, ..., ceil(log_x(U/L)) } — note the last
// element may overshoot U by a factor < x. Lemma 14: for 1 < x < 2 its
// cardinality is O(log(U/L) / (x-1)).
//
// The NormalizationGrid partitions [alpha_0, alpha_k] into intervals
// I(i) = [alpha_{i-1}, alpha_i), each subdivided into subintervals of width
// U_i = rho / ((1-rho) * nbar) * alpha_i, and normalizes a size s down to
// the lower edge of its subinterval. Per Lemma 12 each interval has O(nbar)
// subintervals, so the whole grid has O(nbar * |A|) points; a solution of at
// most nbar normalized additions underestimates its true size by at most
// nbar * U_i, which compression absorbs (Eq. (14)).
#pragma once

#include <limits>
#include <optional>
#include <vector>

#include "src/util/common.hpp"

namespace moldable::knapsack {

/// Definition 13. Requires 0 < L <= U and x > 1.
std::vector<double> geom_set(double L, double U, double x);

/// gcheck-round-down: max{a' in geom(L,U,x) : a' <= a}. Requires a >= L.
double round_down_geom(double a, double L, double U, double x);

/// ghat-round-up: min{a' in geom(L,U,x) : a' >= a}. Requires a <= max geom.
double round_up_geom(double a, double L, double U, double x);

class NormalizationGrid {
 public:
  /// `capacities` = A sorted ascending with alpha_{i} - alpha_{i-1} <=
  /// rho * alpha_i (satisfied by geometric sets of ratio 1/(1-rho));
  /// alpha_0 = alpha_min is the lower bound on any non-zero capacity.
  /// `nbar` is the bound on normalized additions per solution; callers that
  /// reconstruct solutions by divide-and-conquer must double it (each
  /// combine step adds one extra normalization).
  /// The grid stops growing once it holds `max_points` points (at least
  /// 1): a grid that reaches the bound has size() == max_points and is good
  /// for nothing but that count, and one that does not is the full grid.
  NormalizationGrid(std::vector<double> capacities, double alpha_min, double rho,
                    procs_t nbar,
                    std::size_t max_points = std::numeric_limits<std::size_t>::max());

  /// Largest grid point <= s, or nullopt when s exceeds the largest
  /// capacity's interval (the pair is infeasible for every capacity in A).
  std::optional<double> normalize(double s) const;

  /// Number of grid points (Figure 4's subinterval count + 1 for zero).
  std::size_t size() const { return points_.size(); }

  /// Subinterval count of each interval I(i); Lemma 12 bounds it by O(nbar).
  std::vector<std::size_t> per_interval_counts() const { return per_interval_; }

  double max_value() const { return points_.back(); }
  const std::vector<double>& points() const { return points_; }

 private:
  std::vector<double> points_;  ///< sorted ascending, starts at 0
  std::vector<std::size_t> per_interval_;
};

}  // namespace moldable::knapsack
