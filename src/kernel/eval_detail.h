// Shared per-(state, action) evaluation bodies for the kernel backends.
//
// The kernel has one arithmetic: the prefix-sum + fma formulation
//     cost = fma(c*b, S1[kn], sum_k fma(pmf[k], opt_next[n-k*b], .))
//          + fma(max(0, 1-S0[kn]), c*n, .)
// The scalar backend runs these bodies as written, and each SIMD lane
// performs exactly the same operation sequence with vector fmas, so every
// backend -- and Algorithm 1 and Algorithm 2 under any backend -- agrees
// bit for bit. std::fma is correctly rounded, the same rounding as one
// vfmadd/fmadd lane.

#ifndef CROWDPRICE_KERNEL_EVAL_DETAIL_H_
#define CROWDPRICE_KERNEL_EVAL_DETAIL_H_

#include <algorithm>
#include <cmath>

#include "kernel/layer_scan.h"
#include "kernel/pmf_arena.h"

namespace crowdprice::kernel::detail {

/// Number of completion counts k with k*bundle < n, capped at the table
/// length: the in-range transition terms at remaining count n.
inline int NumInRangeTerms(int n, int bundle, int len) {
  const long long kn =
      (static_cast<long long>(n) + bundle - 1) / static_cast<long long>(bundle);
  return static_cast<int>(std::min<long long>(kn, len));
}

/// One (state, action) cost on a resolved view (see file comment).
inline double FusedEvalState(const PmfView& v, double c, int bundle, int n,
                             const double* opt_next) {
  const int kn = NumInRangeTerms(n, bundle, v.len);
  double corr = 0.0;
  for (int k = 0; k < kn; ++k) {
    corr = std::fma(v.pmf[k], opt_next[n - k * bundle], corr);
  }
  const double cb = c * static_cast<double>(bundle);
  double cost = std::fma(cb, v.prefix_weighted[kn], corr);
  const double lump = std::max(0.0, 1.0 - v.prefix_mass[kn]);
  return std::fma(lump, c * static_cast<double>(n), cost);
}

inline double FusedEvalAction(const LayerTables& layer, int a, int n,
                              const double* opt_next) {
  return FusedEvalState(layer.arena->View(layer.tables[a]), layer.costs[a],
                        layer.bundles[a], n, opt_next);
}

/// One evaluation forward-pass state: fma mass scatter plus prefix-sum
/// cost (cost over in-range terms collapses to mass*c*b*S1[kn]). The SIMD
/// backends' bundle==1 vector scatter performs these exact per-term fmas
/// (each term independent, no reduction chain), so their EvaluateLayer is
/// bit-identical to this body.
inline double FusedEvaluateState(const PmfView& v, double c, int bundle,
                                 int n, double mass, double* next,
                                 double cost) {
  const int kn = NumInRangeTerms(n, bundle, v.len);
  for (int k = 0; k < kn; ++k) {
    next[n - k * bundle] = std::fma(mass, v.pmf[k], next[n - k * bundle]);
  }
  const double mcb = mass * c * static_cast<double>(bundle);
  cost = std::fma(mcb, v.prefix_weighted[kn], cost);
  const double lump = std::max(0.0, 1.0 - v.prefix_mass[kn]);
  next[0] = std::fma(mass, lump, next[0]);
  cost = std::fma(mass * lump, c * static_cast<double>(n), cost);
  return cost;
}

/// The collapsed-transition value at one output position (the scalar body
/// of CollapseCorrelate).
inline double FusedCollapseAt(const PmfView& v, const double* x, int n) {
  const int kn = std::min(n, v.len);
  double acc = 0.0;
  for (int d = 0; d < kn; ++d) {
    acc = std::fma(v.pmf[d], x[n - d], acc);
  }
  return std::fma(std::max(0.0, 1.0 - v.prefix_mass[kn]), x[0], acc);
}

/// One state's scan result: the chosen action and its cost.
struct BestAction {
  int index = -1;
  double cost = 0.0;
};

/// The cheapest action in [a_lo, a_hi] at one state: the scalar body of
/// ScanLayer. The first action always seeds the best (matching the
/// historical solver, which accepted the first candidate unconditionally)
/// and later actions win only with strictly lower cost, so ties keep the
/// lowest index.
inline BestAction BestOverActions(const LayerTables& layer, int n, int a_lo,
                                  int a_hi, const double* opt_next) {
  BestAction best;
  best.index = a_lo;
  best.cost = FusedEvalAction(layer, a_lo, n, opt_next);
  for (int a = a_lo + 1; a <= a_hi; ++a) {
    const double cost = FusedEvalAction(layer, a, n, opt_next);
    if (cost < best.cost) {
      best.index = a;
      best.cost = cost;
    }
  }
  return best;
}

}  // namespace crowdprice::kernel::detail

#endif  // CROWDPRICE_KERNEL_EVAL_DETAIL_H_
