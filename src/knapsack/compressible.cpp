#include "src/knapsack/compressible.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "src/knapsack/geom_grid.hpp"
#include "src/knapsack/pairlist.hpp"

namespace moldable::knapsack {

CompressibleSolution solve_compressible(const CompressibleInput& input) {
  if (!(input.rho > 0) || input.rho > 0.25)
    throw std::invalid_argument("solve_compressible: rho must be in (0, 1/4]");
  if (input.items.size() != input.compressible.size())
    throw std::invalid_argument("solve_compressible: compressible flags size mismatch");
  if (input.capacity < 0) throw std::invalid_argument("solve_compressible: negative capacity");
  for (const Item& it : input.items)
    if (it.size < 0 || it.profit < 0)
      throw std::invalid_argument("solve_compressible: negative size or profit");

  const double rho = input.rho;
  const double rho_eff = 2 * rho - rho * rho;
  const double C = static_cast<double>(input.capacity);
  const procs_t beta_max = std::clamp<procs_t>(input.beta_max, 0, input.capacity);

  // Split the instance (original index kept for the final answer).
  std::vector<Item> comp, incomp;
  std::vector<std::size_t> comp_idx, incomp_idx;
  for (std::size_t i = 0; i < input.items.size(); ++i) {
    if (input.compressible[i]) {
      comp.push_back(input.items[i]);
      comp_idx.push_back(i);
    } else {
      incomp.push_back(input.items[i]);
      incomp_idx.push_back(i);
    }
  }

  CompressibleSolution sol;
  sol.rho_effective = rho_eff;

  auto finish = [&](const std::vector<std::size_t>& comp_local,
                    const std::vector<std::size_t>& incomp_local) {
    for (std::size_t i : comp_local) sol.chosen.push_back(comp_idx[i]);
    for (std::size_t i : incomp_local) sol.chosen.push_back(incomp_idx[i]);
    std::sort(sol.chosen.begin(), sol.chosen.end());
    sol.profit = 0;
    sol.compressed_size = 0;
    for (std::size_t i : sol.chosen) {
      sol.profit += input.items[i].profit;
      const double s = static_cast<double>(input.items[i].size);
      sol.compressed_size += input.compressible[i] ? (1 - rho_eff) * s : s;
    }
    check_invariant(leq_tol(sol.compressed_size, C),
                    "Theorem 15 violated: compressed solution exceeds capacity");
    return sol;
  };

  if (comp.empty()) {
    // Degenerate case: a plain knapsack over the incompressible items.
    const Solution s = solve_pairlist(incomp, static_cast<double>(beta_max));
    return finish({}, s.chosen);
  }

  // Line 1 of Algorithm 2: there must always be C - beta_max space for the
  // compressible items, so alpha_min can be raised to that.
  double alpha_min = std::max(input.alpha_min, 1.0);
  alpha_min = std::max(alpha_min, C - static_cast<double>(beta_max));

  // Line 2: A = geom(alpha_min / (1-rho), C, 1/(1-rho)). Consecutive
  // elements satisfy alpha_i - alpha_{i-1} = rho * alpha_i exactly, the
  // premise of Lemma 12.
  const double x = 1.0 / (1.0 - rho);
  const double L = alpha_min * x;
  const std::vector<double> A = geom_set(L, std::max(C, L), x);

  // Lines 3-4: the capacity left for incompressible items at each split.
  // beta(alpha) = C - (1-rho) * alpha >= 0 since alpha <= C / (1-rho).
  std::vector<double> betas;
  betas.reserve(A.size() + 1);
  betas.push_back(static_cast<double>(beta_max));  // the alpha = 0 split
  for (double a : A) betas.push_back(std::max(0.0, C - (1 - rho) * a));

  // Line 5: all incompressible sub-problems in one pass (Section 4.2.4).
  const std::vector<double> incomp_profit = profits_for_capacities(incomp, betas);

  // Line 6: all compressible sub-problems. Two engines:
  //  * when the normalization grid is at least as fine as the integral
  //    capacity range, normalization buys nothing — use the exact list;
  //  * otherwise the normalized arena DP of Lemma 12.
  std::vector<double> comp_profit(A.size() + 1, 0.0);  // index 0 = alpha 0
  const double max_alpha = A.back();

  std::unique_ptr<NormalizationGrid> grid;
  std::unique_ptr<NormalizedPairList> norm_dp;
  std::vector<ParetoPoint> exact_list;
  bool exact_engine = false;
  {
    // The grid stops growing at the size that already selects the exact
    // engine, so the choice is made without building a grid it would drop.
    const std::size_t exact_size = static_cast<std::size_t>(input.capacity) + 2;
    grid = std::make_unique<NormalizationGrid>(A, alpha_min, rho,
                                               std::max<procs_t>(input.nbar, 1), exact_size);
    if (grid->size() >= exact_size) {
      exact_engine = true;  // grid finer than the integers: pointless
    } else {
      try {
        norm_dp = std::make_unique<NormalizedPairList>(comp, *grid);
      } catch (const std::invalid_argument&) {
        exact_engine = true;  // arena blow-up: instance too dense for grid
      }
    }
    if (exact_engine) exact_list = exact_pareto(comp, max_alpha);
  }
  for (std::size_t ai = 0; ai < A.size(); ++ai) {
    comp_profit[ai + 1] = exact_engine
                              ? [&] {
                                  double best = 0;
                                  for (const auto& p : exact_list) {
                                    if (p.size > A[ai] * (1 + kRelTol)) break;
                                    best = p.profit;
                                  }
                                  return best;
                                }()
                              : norm_dp->profit_at(A[ai]);
  }

  // Lines 7-9: combine and keep the best split.
  std::size_t best_split = 0;
  double best_total = -1;
  for (std::size_t k = 0; k < betas.size(); ++k) {
    const double total = comp_profit[k] + incomp_profit[k];
    if (total > best_total) {
      best_total = total;
      best_split = k;
    }
  }

  // Reconstruct both halves of the winning split.
  std::vector<std::size_t> comp_local;
  if (best_split > 0) {
    const double alpha = A[best_split - 1];
    comp_local = exact_engine ? solve_pairlist(comp, alpha).chosen
                              : norm_dp->reconstruct(alpha);
  }
  const Solution inc = solve_pairlist(incomp, betas[best_split]);
  return finish(comp_local, inc.chosen);
}

}  // namespace moldable::knapsack
