#include "common/combinatorics.h"

#include <algorithm>
#include <array>
#include <numeric>

#include "common/logging.h"

namespace localut {

std::uint64_t
binomial(std::uint64_t n, std::uint64_t k)
{
    if (k > n) {
        return 0;
    }
    if (k > n - k) {
        k = n - k;
    }
    // Multiplicative formula with a 128-bit intermediate; each partial
    // product divided by i is exact because C(n, i) is an integer.
    // Saturates at UINT64_MAX so capacity probes of absurdly large LUT
    // shapes stay well-defined (anything that big never fits a budget);
    // rank computations guard against saturation separately.
    unsigned __int128 result = 1;
    for (std::uint64_t i = 1; i <= k; ++i) {
        result = result * (n - k + i) / i;
        if (result > ~std::uint64_t{0}) {
            return ~std::uint64_t{0};
        }
    }
    return static_cast<std::uint64_t>(result);
}

std::uint64_t
factorial(unsigned n)
{
    LOCALUT_ASSERT(n <= 20, "factorial(", n, ") overflows 64 bits");
    std::uint64_t result = 1;
    for (unsigned i = 2; i <= n; ++i) {
        result *= i;
    }
    return result;
}

std::uint64_t
multisetCount(std::uint64_t alphabet, unsigned p)
{
    LOCALUT_ASSERT(alphabet >= 1 && p >= 1, "degenerate multiset space");
    return binomial(alphabet + p - 1, p);
}

std::uint64_t
multisetRank(std::span<const std::uint16_t> sorted, std::uint64_t alphabet)
{
    LOCALUT_ASSERT(multisetCount(alphabet, static_cast<unsigned>(
                                               sorted.size())) <
                       ~std::uint64_t{0},
                   "multiset space too large to rank in 64 bits");
    std::uint64_t rank = 0;
    for (std::size_t i = 0; i < sorted.size(); ++i) {
        if (i > 0) {
            LOCALUT_ASSERT(sorted[i] >= sorted[i - 1],
                           "multisetRank input not sorted");
        }
        LOCALUT_ASSERT(sorted[i] < alphabet, "symbol out of alphabet");
        const std::uint64_t z = sorted[i] + i;
        rank += binomial(z, i + 1);
    }
    return rank;
}

void
multisetUnrank(std::uint64_t rank, std::uint64_t alphabet,
               std::span<std::uint16_t> out)
{
    const std::size_t p = out.size();
    LOCALUT_ASSERT(rank < multisetCount(alphabet, p),
                   "multiset rank out of range");
    // Greedy colex unranking, highest position first.
    for (std::size_t i = p; i-- > 0;) {
        // Find the largest z with C(z, i + 1) <= rank.
        std::uint64_t z = i; // smallest legal value (C(i, i+1) = 0)
        std::uint64_t hi = alphabet + p - 1;
        while (z + 1 < hi && binomial(z + 1, i + 1) <= rank) {
            ++z;
        }
        rank -= binomial(z, i + 1);
        out[i] = static_cast<std::uint16_t>(z - i);
    }
}

std::uint32_t
permutationRank(std::span<const std::uint8_t> perm)
{
    const std::size_t n = perm.size();
    LOCALUT_ASSERT(n <= 12, "permutation rank limited to n <= 12");
    std::uint32_t rank = 0;
    for (std::size_t i = 0; i < n; ++i) {
        unsigned smaller = 0;
        for (std::size_t j = i + 1; j < n; ++j) {
            if (perm[j] < perm[i]) {
                ++smaller;
            }
        }
        rank = rank * static_cast<std::uint32_t>(n - i) + smaller;
    }
    return rank;
}

void
permutationUnrank(std::uint32_t rank, std::span<std::uint8_t> out)
{
    const std::size_t n = out.size();
    LOCALUT_ASSERT(n <= 12, "permutation unrank limited to n <= 12");
    // Allocation-free: the exec engine unranks on its per-call path.
    std::array<std::uint8_t, 12> pool{};
    std::iota(pool.begin(), pool.begin() + n, std::uint8_t{0});
    std::uint64_t radix = factorial(static_cast<unsigned>(n));
    LOCALUT_ASSERT(rank < radix, "permutation rank out of range");
    for (std::size_t i = 0; i < n; ++i) {
        radix /= (n - i);
        const std::size_t idx = static_cast<std::size_t>(rank / radix);
        rank = static_cast<std::uint32_t>(rank % radix);
        out[i] = pool[idx];
        std::copy(pool.begin() + idx + 1, pool.begin() + (n - i),
                  pool.begin() + idx);
    }
}

std::vector<std::uint8_t>
stableArgsort(std::span<const std::uint16_t> codes)
{
    std::vector<std::uint8_t> perm(codes.size());
    std::iota(perm.begin(), perm.end(), std::uint8_t{0});
    std::stable_sort(perm.begin(), perm.end(),
                     [&](std::uint8_t a, std::uint8_t b) {
                         return codes[a] < codes[b];
                     });
    return perm;
}

} // namespace localut
