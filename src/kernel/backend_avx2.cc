// AVX2 + FMA backend: four DP states per vector.
//
// The vector axis is the remaining count n, so every inner-loop load is
// contiguous: for a fixed completion count k, states n..n+3 read
// opt_next[n-k .. n+3-k]. Per action the group splits into two uniform
// regimes -- "growing" (n+3 <= table length: lane j sees kn = n+j terms,
// prefix values loaded as a contiguous quad) and "saturated" (n >= length:
// every lane uses the full table, prefix values broadcast) -- with the
// 3-state mixed boundary and bundled (b > 1) actions falling back to the
// fused scalar body. Each vector lane executes exactly the operation
// sequence of detail::FusedEvalState, so the vector groups, the scalar
// remainder and the fallbacks are mutually bit-identical (the backend
// contract in layer_scan.h).
//
// Everything is compiled via per-function target("avx2,fma") attributes,
// not file-level -march flags, so the translation unit always builds and
// the factory's cpuid probe alone decides whether this code ever runs.

#include "kernel/eval_detail.h"
#include "kernel/layer_scan.h"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#define CP_TARGET_AVX2 __attribute__((target("avx2,fma")))

namespace crowdprice::kernel {

namespace {

// Lane count of one __m256d group.
constexpr int kLanes = 4;

// Evaluates states n0..n0+3 for one action into out4, lane-identical to
// detail::FusedEvalState.
CP_TARGET_AVX2 void EvalGroup(const LayerTables& layer, int a, int n0,
                              const double* opt_next, double* out4) {
  const PmfView v = layer.arena->View(layer.tables[a]);
  const double c = layer.costs[a];
  const int bundle = layer.bundles[a];
  const bool growing = n0 + (kLanes - 1) <= v.len;
  if (bundle != 1 || (!growing && n0 < v.len)) {
    for (int j = 0; j < kLanes; ++j) {
      out4[j] = detail::FusedEvalState(v, c, bundle, n0 + j, opt_next);
    }
    return;
  }
  // b == 1. Shared terms: k < kc is in range for every lane.
  const int kc = std::min(n0, v.len);
  __m256d corr = _mm256_setzero_pd();
  for (int k = 0; k < kc; ++k) {
    corr = _mm256_fmadd_pd(_mm256_set1_pd(v.pmf[k]),
                           _mm256_loadu_pd(opt_next + (n0 - k)), corr);
  }
  __m256d s0, s1;
  if (growing) {
    // Lane j still owes terms k = n0 .. n0+j-1; append them in ascending
    // k order so the chain matches the scalar body's.
    alignas(32) double lanes[kLanes];
    _mm256_store_pd(lanes, corr);
    for (int j = 1; j < kLanes; ++j) {
      for (int k = n0; k < n0 + j; ++k) {
        lanes[j] = std::fma(v.pmf[k], opt_next[n0 + j - k], lanes[j]);
      }
    }
    corr = _mm256_load_pd(lanes);
    s0 = _mm256_loadu_pd(v.prefix_mass + n0);
    s1 = _mm256_loadu_pd(v.prefix_weighted + n0);
  } else {  // saturated: kn = len in every lane
    s0 = _mm256_set1_pd(v.prefix_mass[v.len]);
    s1 = _mm256_set1_pd(v.prefix_weighted[v.len]);
  }
  const __m256d cvec = _mm256_set1_pd(c);  // cb == c * 1.0 == c bit-exactly
  __m256d cost = _mm256_fmadd_pd(cvec, s1, corr);
  const __m256d lump = _mm256_max_pd(
      _mm256_setzero_pd(), _mm256_sub_pd(_mm256_set1_pd(1.0), s0));
  const __m256d nvec = _mm256_setr_pd(
      static_cast<double>(n0), static_cast<double>(n0 + 1),
      static_cast<double>(n0 + 2), static_cast<double>(n0 + 3));
  cost = _mm256_fmadd_pd(lump, _mm256_mul_pd(cvec, nvec), cost);
  _mm256_storeu_pd(out4, cost);
}

class Avx2Kernel final : public LayerScanKernel {
 public:
  const char* name() const override { return "avx2"; }

  CP_TARGET_AVX2 void ScanLayer(const LayerTables& layer, int n_lo, int n_hi,
                                int a_lo, int a_hi, const double* opt_next,
                                double* opt_row,
                                int32_t* action_row) const override {
    int n = n_lo;
    for (; n + (kLanes - 1) <= n_hi; n += kLanes) {
      alignas(32) double costs[kLanes];
      EvalGroup(layer, a_lo, n, opt_next, costs);
      __m256d best = _mm256_load_pd(costs);
      __m256i best_idx = _mm256_set1_epi64x(a_lo);  // 64-bit lanes
      for (int a = a_lo + 1; a <= a_hi; ++a) {
        EvalGroup(layer, a, n, opt_next, costs);
        const __m256d cost = _mm256_load_pd(costs);
        const __m256d lt = _mm256_cmp_pd(cost, best, _CMP_LT_OQ);
        best = _mm256_blendv_pd(best, cost, lt);
        best_idx = _mm256_blendv_epi8(best_idx, _mm256_set1_epi64x(a),
                                      _mm256_castpd_si256(lt));
      }
      _mm256_storeu_pd(opt_row + n, best);
      alignas(32) int64_t idx[kLanes];
      _mm256_store_si256(reinterpret_cast<__m256i*>(idx), best_idx);
      for (int j = 0; j < kLanes; ++j) {
        action_row[n + j] = static_cast<int32_t>(idx[j]);
      }
    }
    for (; n <= n_hi; ++n) {
      const detail::BestAction best =
          detail::BestOverActions(layer, n, a_lo, a_hi, opt_next);
      opt_row[n] = best.cost;
      action_row[n] = best.index;
    }
  }

  CP_TARGET_AVX2 void CollapseCorrelate(const PmfView& view, const double* x,
                                        int m, double* y) const override {
    const __m256d x0 = _mm256_set1_pd(x[0]);
    int n = 0;
    for (; n + (kLanes - 1) <= m; n += kLanes) {
      const bool growing = n + (kLanes - 1) <= view.len;
      if (!growing && n < view.len) {  // mixed boundary group
        for (int j = 0; j < kLanes; ++j) {
          y[n + j] = detail::FusedCollapseAt(view, x, n + j);
        }
        continue;
      }
      const int kc = std::min(n, view.len);
      __m256d acc = _mm256_setzero_pd();
      for (int d = 0; d < kc; ++d) {
        acc = _mm256_fmadd_pd(_mm256_set1_pd(view.pmf[d]),
                              _mm256_loadu_pd(x + (n - d)), acc);
      }
      __m256d s0;
      if (growing) {
        alignas(32) double lanes[kLanes];
        _mm256_store_pd(lanes, acc);
        for (int j = 1; j < kLanes; ++j) {
          for (int d = n; d < n + j; ++d) {
            lanes[j] = std::fma(view.pmf[d], x[n + j - d], lanes[j]);
          }
        }
        acc = _mm256_load_pd(lanes);
        s0 = _mm256_loadu_pd(view.prefix_mass + n);
      } else {
        s0 = _mm256_set1_pd(view.prefix_mass[view.len]);
      }
      const __m256d lump = _mm256_max_pd(
          _mm256_setzero_pd(), _mm256_sub_pd(_mm256_set1_pd(1.0), s0));
      acc = _mm256_fmadd_pd(lump, x0, acc);
      _mm256_storeu_pd(y + n, acc);
    }
    for (; n <= m; ++n) {
      y[n] = detail::FusedCollapseAt(view, x, n);
    }
  }

  CP_TARGET_AVX2 double EvaluateLayer(const LayerTables& layer,
                                      const int32_t* action_row,
                                      const double* dist, int n_hi,
                                      double* next,
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
      // b == 1 mass scatter: next[n-k] += mass * pmf[k], k < kn. Every
      // term is an independent fma (no reduction chain), so vectorizing
      // four terms at a time is bit-identical to FusedEvaluateState.
      // Lowest touched index is n - (kn-1) >= 1, so next[0] stays clear
      // for the lump below.
      const int kn = std::min(n, v.len);
      const __m256d mvec = _mm256_set1_pd(mass);
      int k = 0;
      for (; k + (kLanes - 1) < kn; k += kLanes) {
        // Reverse the pmf quad so lane order matches next[n-k-3 .. n-k].
        const __m256d p = _mm256_loadu_pd(v.pmf + k);
        const __m256d pr = _mm256_permute4x64_pd(p, _MM_SHUFFLE(0, 1, 2, 3));
        double* dst = next + (n - k - (kLanes - 1));
        _mm256_storeu_pd(dst,
                         _mm256_fmadd_pd(mvec, pr, _mm256_loadu_pd(dst)));
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

  CP_TARGET_AVX2 void Axpy(double a, const double* x, double* y,
                           int m) const override {
    const __m256d avec = _mm256_set1_pd(a);
    int i = 0;
    for (; i + (kLanes - 1) < m; i += kLanes) {
      _mm256_storeu_pd(
          y + i, _mm256_fmadd_pd(avec, _mm256_loadu_pd(x + i),
                                 _mm256_loadu_pd(y + i)));
    }
    for (; i < m; ++i) {
      y[i] = std::fma(a, x[i], y[i]);
    }
  }

  CP_TARGET_AVX2 void MinCombine(const double* base, const double* addend,
                                 double offset, int32_t arg, int m,
                                 double* best,
                                 int32_t* best_arg) const override {
    const __m256d off = _mm256_set1_pd(offset);
    const __m128i argvec = _mm_set1_epi32(arg);
    // Compresses the four 64-bit compare lanes to 32-bit lanes (positions
    // 0,2,4,6 of the mask viewed as 8 x int32).
    const __m256i compress = _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6);
    int i = 0;
    for (; i + (kLanes - 1) < m; i += kLanes) {
      const __m256d v = _mm256_add_pd(
          _mm256_add_pd(_mm256_loadu_pd(base + i), _mm256_loadu_pd(addend + i)),
          off);
      const __m256d b = _mm256_loadu_pd(best + i);
      const __m256d lt = _mm256_cmp_pd(v, b, _CMP_LT_OQ);
      _mm256_storeu_pd(best + i, _mm256_blendv_pd(b, v, lt));
      const __m128i mask32 = _mm256_castsi256_si128(
          _mm256_permutevar8x32_epi32(_mm256_castpd_si256(lt), compress));
      const __m128i cur = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(best_arg + i));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(best_arg + i),
                       _mm_blendv_epi8(cur, argvec, mask32));
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

std::unique_ptr<LayerScanKernel> MakeAvx2Kernel() {
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return std::make_unique<Avx2Kernel>();
  }
  return nullptr;
}

}  // namespace crowdprice::kernel

#else  // non-x86 builds still link the factory

namespace crowdprice::kernel {
std::unique_ptr<LayerScanKernel> MakeAvx2Kernel() { return nullptr; }
}  // namespace crowdprice::kernel

#endif
