// Theorem 2: an FPTAS for large machine counts (Section 3).
//
// The (1+eps)-dual algorithm is one line: allot gamma_j((1+eps) d) to every
// job and run them all in parallel at time 0; reject when that needs more
// than m processors. Correctness of rejection (the heart of Theorem 2) uses
// compression: for d >= OPT, compressing every job allotted >= 4/eps
// processors with factor eps/4 frees enough processors that the canonical
// allotment fits in m whenever m >= 8n/eps — see Section 3.1 / Lemma 5.
//
// Combined with the estimator and the dual search in
// schedule_moldable(…, Algorithm::kFptas), the full algorithm runs in
// O(n log^2 m (log m + log 1/eps)) and returns a schedule of makespan at
// most (1 + eps) OPT.
#pragma once

#include "src/core/dual_search.hpp"
#include "src/jobs/instance.hpp"

namespace moldable::core {

/// The (1+eps_d)-dual algorithm of Theorem 2. Valid (i.e. rejection is
/// sound) whenever m >= 8n/eps_d; the caller enforces that.
DualOutcome fptas_dual(const jobs::Instance& instance, double d, double eps_d);

/// Theorem 2's m >= 8 n / eps_d at the FPTAS's eps_d = eps/3: 24 n / eps,
/// the one regime test behind `auto`, `ptas` and `fptas`.
double fptas_machine_threshold(std::size_t n, double eps);

}  // namespace moldable::core
