// Section 4.3: the bounded-knapsack transformation — job rounding into
// item types (Section 4.3.1) and the binary container expansion that turns
// a bounded instance back into a 0/1 instance with O(log n) items per type
// (Kellerer-Pferschy-Pisinger, as cited by the paper).
//
// Rounding (with deadline d, accuracy delta, rho = (sqrt(1+delta)-1)/4 and
// wide threshold b = 1/(2 rho - rho^2), Lemma 16):
//
//   * processor counts gamma_j(s), s in {d/2, d}, exceeding b are rounded
//     DOWN to geom(b, m, 1+rho) (Eq. (25)); counts <= b stay exact;
//   * jobs narrow in S2 (gamma_check_j(d/2) < b) have their profit v_j(d)
//     rounded to 0 when below (delta/2) d, else UP to
//     geom((delta/2) d, (b/2) d, 1 + delta/b) (Eq. (26));
//   * jobs wide in S2 use processing times rounded DOWN to
//     geom(s/2, s, 1+4rho) (Lemma 17) and the profit is the saved work in
//     rounded terms: p = t_check(d/2) gamma_check(d/2) - t_check(d) gamma_check(d).
//
// Implementation notes vs the paper (docs/ARCHITECTURE.md, "Deviations from
// the paper"):
//   * compressibility is keyed on gamma_j(d) > b (not >= 1/rho): every
//     size-rounded job must be compressible, otherwise its rounded size
//     under-states its true processor need with nothing to pay it back;
//     Lemma 16's compression factor 2 rho - rho^2 is valid exactly for
//     gamma >= b, so this is the natural threshold;
//   * rounded sizes stay on the real-valued geometric grid (the pair-list
//     engines do not need integral sizes), avoiding an extra flooring loss.
#pragma once

#include <cstddef>
#include <vector>

#include "src/jobs/instance.hpp"
#include "src/knapsack/item.hpp"

namespace moldable::knapsack {

struct BoundedRounding {
  double d = 0;      ///< deadline
  double delta = 0;  ///< accuracy parameter of Lemma 16
  double rho = 0;    ///< (sqrt(1+delta)-1)/4
  double b = 0;      ///< 1/(2 rho - rho^2), the wide threshold
  procs_t m = 0;

  /// Derives rho and b from (d, delta, m) per Lemma 16.
  static BoundedRounding make(double d, double delta, procs_t m);
};

struct RoundedBigJob {
  std::size_t job = 0;      ///< index into the instance
  procs_t gamma_d = 0;      ///< exact gamma_j(d)
  procs_t gamma_d2 = 0;     ///< exact gamma_j(d/2)
  double size = 0;          ///< gamma_check_j(d): rounded S1 processor count
  double profit = 0;        ///< p(j) after rounding (clamped at 0)
  bool compressible = false;  ///< gamma_j(d) > b
};

/// Rounds one big, unforced job (t_j(1) > d/2 and t_j(m) <= d/2 so that
/// both gammas exist; the caller guarantees this).
RoundedBigJob round_big_job(const jobs::Instance& instance, std::size_t j,
                            const BoundedRounding& r);

/// Groups rounded jobs into types (identical (size, profit)), expands each
/// type into binary containers, and remembers the members for unpacking.
class BoundedInstance {
 public:
  explicit BoundedInstance(const std::vector<RoundedBigJob>& rounded);

  const std::vector<Item>& items() const { return items_; }
  const std::vector<char>& compressible() const { return compressible_; }
  std::size_t num_types() const { return type_size_.size(); }
  std::size_t num_items() const { return items_.size(); }

  /// Smallest compressible container size (alpha_min for Algorithm 2), or 0
  /// when there is none.
  double min_compressible_size() const;

  /// Converts selected container indices back into job indices (into the
  /// original instance). A selection of containers of one type with total
  /// multiplicity k yields the first k members of that type.
  std::vector<std::size_t> unpack(const std::vector<std::size_t>& chosen_containers) const;

 private:
  std::vector<Item> items_;
  std::vector<char> compressible_;
  struct Container {
    std::size_t type;
    procs_t mult;
  };
  std::vector<Container> containers_;               ///< parallel to items_
  std::vector<std::vector<std::size_t>> members_;   ///< job indices per type
  std::vector<double> type_size_;                   ///< per-type unit size
};

}  // namespace moldable::knapsack
