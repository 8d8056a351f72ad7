#include "src/knapsack/dense_dp.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

// Kernel notes — how this stays bitwise identical to the scalar reference
// (tests/knapsack_reference.cpp) while vectorizing:
//
// The row update  best[c] = max(best[c], best[c - sz] + p)  for c descending
// from capacity to sz has a loop-carried dependence only at distance sz:
// cell c reads cell c - sz, which the *same* item pass may later overwrite.
// Any chunk of at most sz consecutive cells therefore has disjoint
// read/write ranges (reads trail writes by sz), so cells inside a chunk can
// be processed in any order — including 2/4/8-wide SIMD — and every lane
// still sees the pre-update value exactly as the descending scalar loop
// did. max/add/compare are exact IEEE operations at any vector width, so
// the results carry no reassociation error: identical bits, lane for lane.
//
// solve_dense records take bits as it goes. The SIMD path processes one
// 64-bit take word (64 cells) per inner block, accumulating the
// compare-mask bits in a register and touching take memory once per word —
// this needs sz >= 64 so a whole word fits inside one dependence-free
// chunk; smaller items fall back to the scalar descending loop.
//
// Dispatch: the widest ISA is picked once per process via
// __builtin_cpu_supports, keeping the build portable x86-64 (the baseline
// binary carries SSE2 paths and only *calls* AVX2/AVX-512 code on machines
// that have it). Non-x86 builds compile the scalar loop only.

namespace moldable::knapsack {

namespace {

void validate_input(const std::vector<Item>& items, procs_t capacity) {
  if (capacity < 0) throw std::invalid_argument("knapsack: negative capacity");
  for (const Item& it : items) {
    if (it.size < 0) throw std::invalid_argument("knapsack: negative size");
    if (it.profit < 0) throw std::invalid_argument("knapsack: negative profit");
    if (it.size != static_cast<double>(static_cast<procs_t>(it.size)))
      throw std::invalid_argument("dense knapsack: sizes must be integral");
  }
}

procs_t isize(const Item& it) { return static_cast<procs_t>(it.size); }

// ----------------------------------------------------- take-bit kernels ---

/// Scalar descending update of cells [lo, hi], recording take bits. The
/// exact pre-optimization loop body; also the path for items with sz < 64
/// (a 64-cell word would overlap its own reads) and partial words.
inline void cells_desc(double* b, double p, std::size_t sz, std::uint64_t* row,
                       std::size_t lo, std::size_t hi) {
  for (std::size_t c = hi + 1; c-- > lo;) {
    const double cand = b[c - sz] + p;
    if (cand > b[c]) {
      b[c] = cand;
      row[c >> 6] |= std::uint64_t{1} << (c & 63);
    }
  }
}

#if defined(__x86_64__)
// Each variant updates the 64 cells of one take word: compare masks
// accumulate into a register and the caller ORs them into the bitmap once.
__attribute__((target("avx512f")))
std::uint64_t take_word_avx512(double* bw, const double* br, double p) {
  const __m512d vp = _mm512_set1_pd(p);
  std::uint64_t bits = 0;
  for (int j = 0; j < 8; ++j) {
    const __m512d cand = _mm512_add_pd(_mm512_loadu_pd(br + 8 * j), vp);
    const __m512d cur = _mm512_loadu_pd(bw + 8 * j);
    const __mmask8 gt = _mm512_cmp_pd_mask(cand, cur, _CMP_GT_OQ);
    bits |= static_cast<std::uint64_t>(gt) << (8 * j);
    _mm512_storeu_pd(bw + 8 * j, _mm512_max_pd(cur, cand));
  }
  return bits;
}

__attribute__((target("avx2")))
std::uint64_t take_word_avx2(double* bw, const double* br, double p) {
  const __m256d vp = _mm256_set1_pd(p);
  std::uint64_t bits = 0;
  for (int j = 0; j < 16; ++j) {
    const __m256d cand = _mm256_add_pd(_mm256_loadu_pd(br + 4 * j), vp);
    const __m256d cur = _mm256_loadu_pd(bw + 4 * j);
    const __m256d gt = _mm256_cmp_pd(cand, cur, _CMP_GT_OQ);
    bits |= static_cast<std::uint64_t>(_mm256_movemask_pd(gt)) << (4 * j);
    _mm256_storeu_pd(bw + 4 * j, _mm256_max_pd(cur, cand));
  }
  return bits;
}

std::uint64_t take_word_sse2(double* bw, const double* br, double p) {
  const __m128d vp = _mm_set1_pd(p);
  std::uint64_t bits = 0;
  for (int j = 0; j < 32; ++j) {
    const __m128d cand = _mm_add_pd(_mm_loadu_pd(br + 2 * j), vp);
    const __m128d cur = _mm_loadu_pd(bw + 2 * j);
    const __m128d gt = _mm_cmpgt_pd(cand, cur);
    bits |= static_cast<std::uint64_t>(_mm_movemask_pd(gt)) << (2 * j);
    _mm_storeu_pd(bw + 2 * j, _mm_max_pd(cur, cand));
  }
  return bits;
}

using TakeWordFn = std::uint64_t (*)(double*, const double*, double);

TakeWordFn pick_take_word() {
  if (__builtin_cpu_supports("avx512f")) return take_word_avx512;
  if (__builtin_cpu_supports("avx2")) return take_word_avx2;
  return take_word_sse2;
}

const TakeWordFn g_take_word = pick_take_word();
#endif

/// One item's row update recording take bits into `row`: full 64-cell words
/// go through the SIMD word kernel, the partial words at both ends and all
/// items with sz < 64 take the scalar descending path.
void take_row_update(double* b, std::size_t ucap, std::size_t usz, double p,
                     std::uint64_t* row) {
#if defined(__x86_64__)
  if (usz >= 64) {
    const std::size_t w_lo = (usz + 63) / 64;  // first full word
    const std::size_t w_hi = (ucap + 1) / 64;  // one past the last full word
    // w_hi <= w_lo means no word lies fully inside [usz, ucap] (the item
    // size is within a word of the capacity): the partial-word ranges below
    // would dip under usz, so the whole range goes scalar.
    if (w_hi > w_lo) {
      if (w_hi * 64 <= ucap) cells_desc(b, p, usz, row, w_hi * 64, ucap);
      for (std::size_t w = w_hi; w-- > w_lo;)
        row[w] |= g_take_word(b + w * 64, b + w * 64 - usz, p);
      if (usz < w_lo * 64) cells_desc(b, p, usz, row, usz, w_lo * 64 - 1);
      return;
    }
  }
#endif
  cells_desc(b, p, usz, row, usz, ucap);
}

}  // namespace

Solution solve_dense(const std::vector<Item>& items, procs_t capacity) {
  validate_input(items, capacity);
  const std::size_t n = items.size();
  const auto cells = static_cast<unsigned long long>(n) *
                     (static_cast<unsigned long long>(capacity) + 1);
  if (cells > (1ULL << 35))
    throw std::invalid_argument(
        "solve_dense: decision matrix too large; use the pair-list or "
        "compressible engines for large capacities");

  const auto ucap = static_cast<std::size_t>(capacity);
  const std::size_t words = ucap / 64 + 1;

  // The profit row and the flat row-major decision bitmap are scratch: both
  // die with this call, so they live in this thread's two buffers. assign()
  // zeroes exactly the cells this solve reads and never shrinks capacity,
  // so a warm thread solves with no heap traffic.
  thread_local std::vector<double> best_buf;
  thread_local std::vector<std::uint64_t> take_buf;
  best_buf.assign(ucap + 1, 0.0);
  take_buf.assign(n * words, 0);
  double* best = best_buf.data();
  std::uint64_t* take = take_buf.data();

  for (std::size_t i = 0; i < n; ++i) {
    const Item& it = items[i];
    const procs_t sz = isize(it);
    if (sz > capacity) continue;
    std::uint64_t* row = take + i * words;
    if (sz == 0) {
      if (it.profit > 0) {
        for (std::size_t c = 0; c <= ucap; ++c) best[c] += it.profit;
        for (std::size_t w = 0; w < words; ++w) row[w] = ~std::uint64_t{0};
      }
      continue;
    }
    take_row_update(best, ucap, static_cast<std::size_t>(sz), it.profit, row);
  }

  Solution sol;
  sol.profit = best[ucap];
  procs_t c = capacity;
  for (std::size_t i = n; i-- > 0;) {
    const auto uc = static_cast<std::size_t>(c);
    if (take[i * words + uc / 64] >> (uc % 64) & 1) {
      sol.chosen.push_back(i);
      c -= isize(items[i]);
    }
  }
  std::reverse(sol.chosen.begin(), sol.chosen.end());
  return sol;
}

}  // namespace moldable::knapsack
