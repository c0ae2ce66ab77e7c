#include "kernel/pmf_arena.h"

#include <cmath>
#include <unordered_map>

#include "kernel/pmf_cache.h"
#include "stats/poisson.h"
#include "util/macros.h"
#include "util/stringf.h"

namespace crowdprice::kernel {

Result<PmfArena> PmfArena::Build(const std::vector<double>& rates,
                                 double epsilon, PmfShareCache* share_cache) {
  PmfArena arena;
  arena.request_tables_.reserve(rates.size());
  std::unordered_map<uint64_t, int> by_key;
  for (size_t i = 0; i < rates.size(); ++i) {
    const double rate = rates[i];
    if (!(rate >= 0.0) || !std::isfinite(rate)) {
      return Status::InvalidArgument(
          StringF("PmfArena rate %zu = %g must be finite and >= 0", i, rate));
    }
    const uint64_t key = stats::QuantizedRateKey(rate);
    auto it = by_key.find(key);
    if (it != by_key.end()) {
      arena.request_tables_.push_back(it->second);
      continue;
    }
    // Quantized keys are for DEDUP only; the table itself is built at the
    // first-seen exact rate, so solves whose rates repeat exactly (the
    // common case) see tables bit-identical to a per-rate build.
    CP_ASSIGN_OR_RETURN(std::shared_ptr<const PmfBlock> block,
                        share_cache != nullptr
                            ? share_cache->GetOrBuild(rate, epsilon)
                            : PmfBlock::Build(rate, epsilon));
    const int id = static_cast<int>(arena.blocks_.size());
    arena.views_.push_back(block->view());
    arena.blocks_.push_back(std::move(block));
    by_key.emplace(key, id);
    arena.request_tables_.push_back(id);
  }
  return arena;
}

}  // namespace crowdprice::kernel
