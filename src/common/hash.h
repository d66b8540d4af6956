#ifndef LOCALUT_COMMON_HASH_H_
#define LOCALUT_COMMON_HASH_H_

/**
 * @file
 * Shared hash mixing for composite cache keys (PlanKeyHash,
 * TableSetKeyHash) and content fingerprints (CodeBuffer,
 * weightsFingerprint).
 */

#include <cstddef>
#include <cstdint>

namespace localut {

/** Boost-style golden-ratio mixer: folds @p value into @p seed. */
inline void
hashCombine(std::size_t& seed, std::size_t value)
{
    seed ^= value + 0x9e3779b97f4a7c15ull + (seed << 6) + (seed >> 2);
}

/** SplitMix64 finalizer: a full-avalanche 64-bit mix. */
inline std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

} // namespace localut

#endif // LOCALUT_COMMON_HASH_H_
