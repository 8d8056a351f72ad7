// The one core front-end: the paper's composition of its algorithms.
//
//   * m large (Theorem 2 regime): the FPTAS — ratio 1 + eps;
//   * otherwise: one of the (3/2 + eps) algorithms; the default is the
//     linear variant of Algorithm 3 (Table 1, row 3), the paper's headline.
//
// Every dual algorithm becomes an approximation here and only here
// (docs/ARCHITECTURE.md, "The core front-end").
//
// (Section 3.2's full PTAS would plug the Jansen-Thöle PTAS [14] into the
// small-m branch; that external algorithm is out of scope here — see
// docs/ARCHITECTURE.md, "Deviations from the paper" — so the small-m branch
// guarantees 3/2 + eps.)
#pragma once

#include <optional>
#include <string>

#include "src/jobs/instance.hpp"
#include "src/sched/schedule.hpp"

namespace moldable::core {

enum class Algorithm {
  kAuto,           ///< FPTAS when valid, else Algorithm 3 (linear variant)
  kFptas,          ///< Theorem 2 (requires m >= 24 n / eps)
  kMrt,            ///< Section 4.1 baseline, O(nm) per dual call
  kCompressible,   ///< Algorithm 1 (Section 4.2.5), Table 1 row 1
  kBounded,        ///< Algorithm 3 (Section 4.3), Table 1 row 2
  kBoundedLinear,  ///< Algorithm 3 linear variant (Section 4.3.3), row 3
  kLudwigTiwari,   ///< estimator + list scheduling: the classic 2-approx
};

std::string algorithm_name(Algorithm a);

struct ScheduleResult {
  sched::Schedule schedule;
  Algorithm used = Algorithm::kAuto;
  double lower_bound = 0;   ///< certified lower bound on OPT
  double makespan = 0;
  double ratio_vs_lower = 0;  ///< makespan / lower_bound (>= true ratio)
  int dual_calls = 0;
  double guarantee = 0;     ///< proven approximation factor of `used`
};

/// Schedules the instance with approximation parameter eps in (0, 1].
/// Guarantee: makespan <= (1 + eps) OPT in the FPTAS regime, else
/// (3/2 + eps) OPT ((2) for kLudwigTiwari, where eps is ignored). Only
/// kLudwigTiwari honours the memory constraint (ludwig_tiwari_schedule); it
/// reports guarantee 0 when the constraint binds. Throws
/// std::invalid_argument for eps outside (0, 1], and for kFptas when m is
/// below fptas_machine_threshold.
///
/// `omega` is the dual search's estimate when the caller already holds it:
/// it must be estimate_makespan(instance).omega, bit for bit, and then the
/// result is identical to a call without it. Any other value voids the
/// certificate. 0 means "compute it here"; kLudwigTiwari always does,
/// since it needs the estimator's allotment too.
ScheduleResult schedule_moldable(const jobs::Instance& instance, double eps,
                                 Algorithm algo = Algorithm::kAuto, double omega = 0);

/// solve_exact's optimum as a result (guarantee 1, `used` left at kAuto):
/// nullopt when the node budget runs out; throws over the hard caps.
std::optional<ScheduleResult> exact_schedule(const jobs::Instance& instance);

/// The Section 3.2 PTAS composition. The paper splits on Theorem 2's
/// threshold: above, the FPTAS gives (1+eps); below, it invokes the
/// Jansen-Thoele PTAS [14] — an external algorithm this library substitutes
/// (docs/ARCHITECTURE.md, "Deviations from the paper"): instances within
/// the exact solver's caps are solved optimally (guarantee 1), everything
/// else falls back to Algorithm 3 with guarantee 3/2+eps. The returned
/// `guarantee` field reports which branch ran; callers needing a true PTAS
/// for mid-size low-m instances must accept the documented substitution.
/// `omega` is forwarded to schedule_moldable, under its contract.
ScheduleResult ptas_schedule(const jobs::Instance& instance, double eps, double omega = 0);

}  // namespace moldable::core
