// Common types and error-handling primitives shared by all moldable modules.
//
// The library follows the paper's compact-encoding model: the number of
// machines m is only assumed to fit in a signed 64-bit integer, so processor
// counts use `procs_t` and no algorithm outside the explicitly-marked
// baselines may allocate Theta(m) memory.
#pragma once

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>

namespace moldable {

/// Processor counts and knapsack sizes. Signed so that differences (e.g.
/// remaining capacity) are safe to form without casts.
using procs_t = std::int64_t;

/// Thrown when an algorithmic invariant promised by one of the paper's
/// lemmas is violated at run time. Seeing this exception means either the
/// input violated a documented precondition (e.g. non-monotone work
/// functions) or there is a bug; it never fires on valid monotone input.
class internal_error : public std::logic_error {
 public:
  explicit internal_error(const std::string& what) : std::logic_error(what) {}
};

/// Relative tolerance used for floating-point feasibility comparisons.
/// Processing times are doubles; all algorithmic decisions that compare a
/// derived quantity against a deadline allow this relative slack so that
/// accumulated rounding in work sums cannot flip a mathematically-true
/// inequality.
inline constexpr double kRelTol = 1e-9;

/// `a <= b` up to relative tolerance (scale-free for small magnitudes).
inline bool leq_tol(double a, double b) {
  double scale = (b > 1.0 || b < -1.0) ? (b > 0 ? b : -b) : 1.0;
  return a <= b + kRelTol * scale;
}

/// Throws internal_error with `msg` when `cond` is false. Used to guard the
/// paper's lemma invariants (Lemma 8 processor feasibility, Lemma 9 small-job
/// insertion, ...). Always on: the checks are O(1) or amortized into work
/// that is done anyway.
inline void check_invariant(bool cond, const char* msg) {
  if (!cond) throw internal_error(msg);
}

/// Strips surrounding spaces, tabs, and carriage returns (one rule for
/// every text surface — instance files may be CRLF, CLI specs may be
/// space-padded; all trimming in the repo goes through here so the
/// canonicalization cannot drift between parser and writer).
inline std::string trim(const std::string& s) {
  const auto lo = s.find_first_not_of(" \t\r");
  if (lo == std::string::npos) return {};
  const auto hi = s.find_last_not_of(" \t\r");
  return s.substr(lo, hi - lo + 1);
}

/// A 64-bit digest as 16 zero-padded lower-case hex digits: the one spelling
/// of every digest in record files, stream manifests and driver output,
/// which pin these bytes.
inline std::string fmt_digest(std::uint64_t digest) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, digest);
  return buf;
}

/// `%.17g`: the text form that round-trips every double exactly, used
/// wherever a written number must parse back to the same bits (record
/// files, stream manifests, curve specs).
inline std::string fmt_num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace moldable
