#include "src/core/compression.hpp"

#include <cmath>
#include <stdexcept>

namespace moldable::core {

CompressionResult compress(const jobs::Job& job, procs_t b, double rho) {
  if (!(rho > 0) || rho > 0.25)
    throw std::invalid_argument("compress: rho must be in (0, 1/4]");
  if (static_cast<double>(b) < 1.0 / rho - kRelTol)
    throw std::invalid_argument("compress: job must use at least 1/rho processors");
  if (b > job.machines()) throw std::invalid_argument("compress: b exceeds m");

  CompressionResult r;
  r.new_procs = static_cast<procs_t>(std::floor(static_cast<double>(b) * (1.0 - rho)));
  // b >= 1/rho implies b * rho >= 1, hence new_procs >= b * (1-rho) - ... >= 1.
  check_invariant(r.new_procs >= 1, "compress: new processor count must be >= 1");
  const double old_time = job.time(b);
  r.new_time = job.time(r.new_procs);
  r.inflation = r.new_time / old_time;
  // Lemma 4's conclusion; a violation means the job's work is not monotone.
  check_invariant(leq_tol(r.new_time, (1.0 + 4 * rho) * old_time),
                  "Lemma 4 violated: compression inflated time beyond 1 + 4 rho "
                  "(is the job's work function monotone?)");
  return r;
}

}  // namespace moldable::core
