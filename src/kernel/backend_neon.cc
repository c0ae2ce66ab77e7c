// NEON (aarch64) backend: two DP states per float64x2 vector, mirroring
// the AVX2 backend's over-n layout -- shared terms vectorized, the odd
// lane's extra term appended in ascending k order, mixed/bundled groups
// falling back to the fused scalar body. Every lane follows
// detail::FusedEvalState's operation sequence (vfmaq_f64 and std::fma are
// both correctly-rounded fused multiply-adds), so the backend honors the
// bit-consistency contract in layer_scan.h.
//
// Advanced SIMD is baseline on aarch64, so the factory needs no runtime
// probe -- only the architecture gate below.

#include "kernel/eval_detail.h"
#include "kernel/layer_scan.h"

#if defined(__aarch64__)

#include <arm_neon.h>

namespace crowdprice::kernel {

namespace {

constexpr int kLanes = 2;

// Evaluates states n0, n0+1 for one action into out2, lane-identical to
// detail::FusedEvalState.
void EvalGroup(const LayerTables& layer, int a, int n0,
               const double* opt_next, double* out2) {
  const PmfView v = layer.arena->View(layer.tables[a]);
  const double c = layer.costs[a];
  const int bundle = layer.bundles[a];
  const bool growing = n0 + (kLanes - 1) <= v.len;
  if (bundle != 1 || (!growing && n0 < v.len)) {
    for (int j = 0; j < kLanes; ++j) {
      out2[j] = detail::FusedEvalState(v, c, bundle, n0 + j, opt_next);
    }
    return;
  }
  const int kc = std::min(n0, v.len);
  float64x2_t corr = vdupq_n_f64(0.0);
  for (int k = 0; k < kc; ++k) {
    corr = vfmaq_f64(corr, vdupq_n_f64(v.pmf[k]),
                     vld1q_f64(opt_next + (n0 - k)));
  }
  float64x2_t s0, s1;
  if (growing) {
    // Lane 1 (state n0+1) still owes the k = n0 term.
    double hi = vgetq_lane_f64(corr, 1);
    hi = std::fma(v.pmf[n0], opt_next[1], hi);
    corr = vsetq_lane_f64(hi, corr, 1);
    s0 = vld1q_f64(v.prefix_mass + n0);
    s1 = vld1q_f64(v.prefix_weighted + n0);
  } else {  // saturated
    s0 = vdupq_n_f64(v.prefix_mass[v.len]);
    s1 = vdupq_n_f64(v.prefix_weighted[v.len]);
  }
  const float64x2_t cvec = vdupq_n_f64(c);  // cb == c * 1.0 == c
  float64x2_t cost = vfmaq_f64(corr, cvec, s1);
  const float64x2_t lump =
      vmaxq_f64(vdupq_n_f64(0.0), vsubq_f64(vdupq_n_f64(1.0), s0));
  float64x2_t nvec = vdupq_n_f64(static_cast<double>(n0));
  nvec = vsetq_lane_f64(static_cast<double>(n0 + 1), nvec, 1);
  cost = vfmaq_f64(cost, lump, vmulq_f64(cvec, nvec));
  vst1q_f64(out2, cost);
}

class NeonKernel final : public LayerScanKernel {
 public:
  const char* name() const override { return "neon"; }

  void ScanLayer(const LayerTables& layer, int n_lo, int n_hi, int a_lo,
                 int a_hi, const double* opt_next, double* opt_row,
                 int32_t* action_row) const override {
    int n = n_lo;
    for (; n + (kLanes - 1) <= n_hi; n += kLanes) {
      double costs[kLanes];
      EvalGroup(layer, a_lo, n, opt_next, costs);
      float64x2_t best = vld1q_f64(costs);
      uint64x2_t best_idx = vdupq_n_u64(static_cast<uint64_t>(a_lo));
      for (int a = a_lo + 1; a <= a_hi; ++a) {
        EvalGroup(layer, a, n, opt_next, costs);
        const float64x2_t cost = vld1q_f64(costs);
        const uint64x2_t lt = vcltq_f64(cost, best);
        best = vbslq_f64(lt, cost, best);
        best_idx =
            vbslq_u64(lt, vdupq_n_u64(static_cast<uint64_t>(a)), best_idx);
      }
      vst1q_f64(opt_row + n, best);
      action_row[n] = static_cast<int32_t>(vgetq_lane_u64(best_idx, 0));
      action_row[n + 1] = static_cast<int32_t>(vgetq_lane_u64(best_idx, 1));
    }
    for (; n <= n_hi; ++n) {
      const detail::BestAction best =
          detail::BestOverActions(layer, n, a_lo, a_hi, opt_next);
      opt_row[n] = best.cost;
      action_row[n] = best.index;
    }
  }

  void CollapseCorrelate(const PmfView& view, const double* x, int m,
                         double* y) const override {
    const float64x2_t x0 = vdupq_n_f64(x[0]);
    int n = 0;
    for (; n + (kLanes - 1) <= m; n += kLanes) {
      const bool growing = n + (kLanes - 1) <= view.len;
      if (!growing && n < view.len) {
        for (int j = 0; j < kLanes; ++j) {
          y[n + j] = detail::FusedCollapseAt(view, x, n + j);
        }
        continue;
      }
      const int kc = std::min(n, view.len);
      float64x2_t acc = vdupq_n_f64(0.0);
      for (int d = 0; d < kc; ++d) {
        acc = vfmaq_f64(acc, vdupq_n_f64(view.pmf[d]), vld1q_f64(x + (n - d)));
      }
      float64x2_t s0;
      if (growing) {
        double hi = vgetq_lane_f64(acc, 1);
        hi = std::fma(view.pmf[n], x[1], hi);
        acc = vsetq_lane_f64(hi, acc, 1);
        s0 = vld1q_f64(view.prefix_mass + n);
      } else {
        s0 = vdupq_n_f64(view.prefix_mass[view.len]);
      }
      const float64x2_t lump =
          vmaxq_f64(vdupq_n_f64(0.0), vsubq_f64(vdupq_n_f64(1.0), s0));
      acc = vfmaq_f64(acc, lump, x0);
      vst1q_f64(y + n, acc);
    }
    for (; n <= m; ++n) {
      y[n] = detail::FusedCollapseAt(view, x, n);
    }
  }

  double EvaluateLayer(const LayerTables& layer, const int32_t* action_row,
                       const double* dist, int n_hi, double* next,
                       double cost) const override {
    next[0] += dist[0];
    for (int n = 1; n <= n_hi; ++n) {
      const double mass = dist[n];
      if (mass <= 0.0) continue;
      const int a = action_row[n];
      const PmfView v = layer.arena->View(layer.tables[a]);
      const double c = layer.costs[a];
      const int bundle = layer.bundles[a];
      if (bundle != 1) {
        cost = detail::FusedEvaluateState(v, c, bundle, n, mass, next, cost);
        continue;
      }
      // b == 1 mass scatter; each term is an independent fma, so the
      // two-lane vectorization is bit-identical to FusedEvaluateState.
      // Lowest touched index is n - (kn-1) >= 1 (next[0] untouched).
      const int kn = std::min(n, v.len);
      const float64x2_t mvec = vdupq_n_f64(mass);
      int k = 0;
      for (; k + (kLanes - 1) < kn; k += kLanes) {
        // Swap the pmf pair so lane order matches next[n-k-1], next[n-k].
        const float64x2_t p = vld1q_f64(v.pmf + k);
        const float64x2_t pr = vextq_f64(p, p, 1);
        double* dst = next + (n - k - (kLanes - 1));
        vst1q_f64(dst, vfmaq_f64(vld1q_f64(dst), mvec, pr));
      }
      for (; k < kn; ++k) {
        next[n - k] = std::fma(mass, v.pmf[k], next[n - k]);
      }
      cost = std::fma(mass * c, v.prefix_weighted[kn], cost);
      const double lump = std::max(0.0, 1.0 - v.prefix_mass[kn]);
      next[0] = std::fma(mass, lump, next[0]);
      cost = std::fma(mass * lump, c * static_cast<double>(n), cost);
    }
    return cost;
  }

  void Axpy(double a, const double* x, double* y, int m) const override {
    const float64x2_t avec = vdupq_n_f64(a);
    int i = 0;
    for (; i + (kLanes - 1) < m; i += kLanes) {
      vst1q_f64(y + i, vfmaq_f64(vld1q_f64(y + i), avec, vld1q_f64(x + i)));
    }
    for (; i < m; ++i) {
      y[i] = std::fma(a, x[i], y[i]);
    }
  }

  void MinCombine(const double* base, const double* addend, double offset,
                  int32_t arg, int m, double* best,
                  int32_t* best_arg) const override {
    const float64x2_t off = vdupq_n_f64(offset);
    int i = 0;
    for (; i + (kLanes - 1) < m; i += kLanes) {
      const float64x2_t v = vaddq_f64(
          vaddq_f64(vld1q_f64(base + i), vld1q_f64(addend + i)), off);
      const float64x2_t b = vld1q_f64(best + i);
      const uint64x2_t lt = vcltq_f64(v, b);
      vst1q_f64(best + i, vbslq_f64(lt, v, b));
      if (vgetq_lane_u64(lt, 0) != 0) best_arg[i] = arg;
      if (vgetq_lane_u64(lt, 1) != 0) best_arg[i + 1] = arg;
    }
    for (; i < m; ++i) {
      const double v = base[i] + addend[i] + offset;
      if (v < best[i]) {
        best[i] = v;
        best_arg[i] = arg;
      }
    }
  }
};

}  // namespace

std::unique_ptr<LayerScanKernel> MakeNeonKernel() {
  return std::make_unique<NeonKernel>();
}

}  // namespace crowdprice::kernel

#else  // non-aarch64 builds still link the factory

namespace crowdprice::kernel {
std::unique_ptr<LayerScanKernel> MakeNeonKernel() { return nullptr; }
}  // namespace crowdprice::kernel

#endif
