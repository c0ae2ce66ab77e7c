// PmfArena: the deduplicated truncated-Poisson tables of one solve.
//
// The DP inner loops are dot products over truncated pmf tables. Each
// distinct table is one refcounted kernel::PmfBlock (kernel/pmf_cache.h):
// the raw pmf, its prefix mass S0[k] = sum_{j<k} pmf[j] and first-moment
// prefix S1[k] = sum_{j<k} j*pmf[j], every array 64-byte aligned. The
// prefix arrays let a kernel evaluate the paper's Eq. (1) transition at
// any remaining count n without walking the tail: the expected payout is
// c*b*S1[kn] and the lumped "batch finishes this interval" mass is
// 1 - S0[kn], kn the number of in-range terms.
//
// The arena itself is a dedup index over those blocks. Rates are keyed with
// stats::QuantizedRateKey, so near-equal rates from arrival-trace
// arithmetic -- and exact repeats from constant or periodic traces -- share
// one table, built at the first occurrence's exact rate. With a
// PmfShareCache, blocks are adopted from (or built into) the cache, so a
// solve farm builds each table once across solves; cache keys are exact
// rate bits, so adoption never changes a solve's numbers. Views stay valid
// for the arena's lifetime; the arena is immutable after Build.

#ifndef CROWDPRICE_KERNEL_PMF_ARENA_H_
#define CROWDPRICE_KERNEL_PMF_ARENA_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "util/result.h"

namespace crowdprice::kernel {

class PmfBlock;       // kernel/pmf_cache.h
class PmfShareCache;  // kernel/pmf_cache.h

/// Read-only view of one table in the arena. All three pointers are
/// 64-byte aligned; prefix arrays have len + 1 entries.
struct PmfView {
  const double* pmf = nullptr;              ///< pmf[0..len)
  const double* prefix_mass = nullptr;      ///< S0[0..len]
  const double* prefix_weighted = nullptr;  ///< S1[0..len]
  int len = 0;
  double tail_mass = 0.0;  ///< max(0, 1 - S0[len]) as built.
};

class PmfArena {
 public:
  /// Cross-solve dedup counters (kept by PmfShareCache; the `kernels` CLI
  /// surfaces the global cache's figures).
  struct Stats {
    int64_t blocks_built = 0;   ///< Distinct blocks built into the cache.
    int64_t blocks_shared = 0;  ///< Requests served by an existing block.
  };

  /// Resolves a sequence of rate requests (e.g. the deadline DP's
  /// [interval][action] grid flattened interval-major) to tables. Requests
  /// with the same quantized rate resolve to one shared table, built at the
  /// first occurrence's exact rate (exact repeats -- the common case -- get
  /// tables bit-identical to a per-rate build); the first occurrence counts
  /// as a build, later ones as reuses (the solvers' cache diagnostics).
  /// Every rate must be finite and >= 0; epsilon in (0, 1).
  ///
  /// With a `share_cache`, each distinct table comes from
  /// PmfShareCache::GetOrBuild (hits count in the cache's Stats), else from
  /// PmfBlock::Build. Table contents are the same either way (exact-bit
  /// cache keys), so solves are bit-identical with and without a cache.
  static Result<PmfArena> Build(const std::vector<double>& rates,
                                double epsilon,
                                PmfShareCache* share_cache = nullptr);

  /// Table id the i-th Build request resolved to.
  int TableOf(size_t request) const {
    return request_tables_[request];
  }
  PmfView View(int table) const { return views_[static_cast<size_t>(table)]; }

  size_t num_tables() const { return blocks_.size(); }
  size_t num_requests() const { return request_tables_.size(); }
  int64_t tables_built() const { return static_cast<int64_t>(blocks_.size()); }
  int64_t table_reuses() const {
    return static_cast<int64_t>(request_tables_.size() - blocks_.size());
  }

  PmfArena(PmfArena&&) = default;
  PmfArena& operator=(PmfArena&&) = default;
  PmfArena(const PmfArena&) = delete;
  PmfArena& operator=(const PmfArena&) = delete;

 private:
  PmfArena() = default;

  /// One block per distinct table, and its view (the scans' hot lookup).
  std::vector<std::shared_ptr<const PmfBlock>> blocks_;
  std::vector<PmfView> views_;
  std::vector<int> request_tables_;
};

}  // namespace crowdprice::kernel

#endif  // CROWDPRICE_KERNEL_PMF_ARENA_H_
