// Portable scalar backend: the fused bodies of kernel/eval_detail.h run
// one state at a time. Every SIMD lane reproduces the same operation
// sequence, so this backend's plans and evaluations are bit-identical to
// every other backend's.

#include <cmath>

#include "kernel/eval_detail.h"
#include "kernel/layer_scan.h"

namespace crowdprice::kernel {

namespace {

class ScalarKernel final : public LayerScanKernel {
 public:
  const char* name() const override { return "scalar"; }

  void ScanLayer(const LayerTables& layer, int n_lo, int n_hi, int a_lo,
                 int a_hi, const double* opt_next, double* opt_row,
                 int32_t* action_row) const override {
    for (int n = n_lo; n <= n_hi; ++n) {
      const detail::BestAction best =
          detail::BestOverActions(layer, n, a_lo, a_hi, opt_next);
      opt_row[n] = best.cost;
      action_row[n] = best.index;
    }
  }

  void CollapseCorrelate(const PmfView& view, const double* x, int m,
                         double* y) const override {
    for (int n = 0; n <= m; ++n) {
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
      cost = detail::FusedEvaluateState(layer.arena->View(layer.tables[a]),
                                        layer.costs[a], layer.bundles[a], n,
                                        mass, next, cost);
    }
    return cost;
  }

  void Axpy(double a, const double* x, double* y, int m) const override {
    for (int i = 0; i < m; ++i) {
      y[i] = std::fma(a, x[i], y[i]);
    }
  }

  void MinCombine(const double* base, const double* addend, double offset,
                  int32_t arg, int m, double* best,
                  int32_t* best_arg) const override {
    for (int i = 0; i < m; ++i) {
      const double v = base[i] + addend[i] + offset;
      if (v < best[i]) {
        best[i] = v;
        best_arg[i] = arg;
      }
    }
  }
};

}  // namespace

std::unique_ptr<LayerScanKernel> MakeScalarKernel() {
  return std::make_unique<ScalarKernel>();
}

}  // namespace crowdprice::kernel
