#include "kernel/pmf_cache.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "stats/poisson.h"
#include "util/macros.h"
#include "util/stringf.h"

namespace crowdprice::kernel {

namespace {

// Every array starts on a 64-byte boundary (8 doubles), the widest vector
// width the backends use plus one cache line.
constexpr size_t kAlignDoubles = 8;

size_t AlignUp(size_t doubles) {
  return (doubles + kAlignDoubles - 1) & ~(kAlignDoubles - 1);
}

}  // namespace

Result<std::shared_ptr<const PmfBlock>> PmfBlock::Build(double rate,
                                                        double epsilon) {
  if (!(rate >= 0.0) || !std::isfinite(rate)) {
    return Status::InvalidArgument(
        StringF("PmfBlock rate %g must be finite and >= 0", rate));
  }
  CP_ASSIGN_OR_RETURN(stats::TruncatedPoisson tp,
                      stats::MakeTruncatedPoisson(rate, epsilon));
  const int len = std::max(static_cast<int>(tp.pmf.size()), 1);
  // pmf | S0 | S1, each 64-byte aligned.
  size_t offset = AlignUp(static_cast<size_t>(len));
  const size_t mass_offset = offset;
  offset = AlignUp(offset + static_cast<size_t>(len) + 1);
  const size_t weighted_offset = offset;
  offset = AlignUp(offset + static_cast<size_t>(len) + 1);

  auto block = std::shared_ptr<PmfBlock>(new PmfBlock());
  double* data =
      static_cast<double*>(std::aligned_alloc(64, offset * sizeof(double)));
  if (data == nullptr) {
    return Status::Internal(StringF("PmfBlock allocation of %zu bytes failed",
                                    offset * sizeof(double)));
  }
  block->data_.reset(data);
  block->doubles_ = offset;
  block->mass_offset_ = mass_offset;
  block->weighted_offset_ = weighted_offset;
  block->len_ = len;

  double* pmf = data;
  double* mass = data + mass_offset;
  double* weighted = data + weighted_offset;
  mass[0] = 0.0;
  weighted[0] = 0.0;
  for (int k = 0; k < len; ++k) {
    pmf[k] = k < static_cast<int>(tp.pmf.size())
                 ? tp.pmf[static_cast<size_t>(k)]
                 : 0.0;
    mass[k + 1] = mass[k] + pmf[k];
    weighted[k + 1] = weighted[k] + static_cast<double>(k) * pmf[k];
  }
  block->tail_mass_ = std::max(0.0, 1.0 - mass[len]);
  return std::shared_ptr<const PmfBlock>(std::move(block));
}

PmfShareCache& PmfShareCache::Global() {
  static PmfShareCache* cache = new PmfShareCache();
  return *cache;
}

Result<std::shared_ptr<const PmfBlock>> PmfShareCache::GetOrBuild(
    double rate, double epsilon) {
  const Key key{std::bit_cast<uint64_t>(rate),
                std::bit_cast<uint64_t>(epsilon)};
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = by_key_.find(key);
    if (it != by_key_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      ++blocks_shared_;
      return it->second->block;
    }
  }
  // Build outside the lock (deterministic per rate, so a concurrent
  // duplicate build yields an identical block; the first insert wins and
  // the loser's block serves its own request only).
  CP_ASSIGN_OR_RETURN(std::shared_ptr<const PmfBlock> block,
                      PmfBlock::Build(rate, epsilon));
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_key_.find(key);
  if (it != by_key_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    ++blocks_shared_;
    return it->second->block;
  }
  ++blocks_built_;
  lru_.push_front(Entry{key, block});
  by_key_.emplace(key, lru_.begin());
  resident_bytes_ += block->bytes();
  while (resident_bytes_ > max_bytes_ && lru_.size() > 1) {
    const Entry& victim = lru_.back();
    resident_bytes_ -= victim.block->bytes();
    by_key_.erase(victim.key);
    lru_.pop_back();
    ++evicted_;
  }
  return block;
}

PmfArena::Stats PmfShareCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return PmfArena::Stats{blocks_built_, blocks_shared_};
}

size_t PmfShareCache::resident_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return resident_bytes_;
}

int64_t PmfShareCache::evicted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evicted_;
}

}  // namespace crowdprice::kernel
