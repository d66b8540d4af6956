#include "kernels/exec_engine.h"

#include <algorithm>
#include <new>
#include <type_traits>

#include "common/bitops.h"
#include "common/combinatorics.h"
#include "common/hash.h"
#include "common/logging.h"
#include "kernels/cost_tables.h"
#include "lut/table_cache.h"

// Portable vectorization hints for the fused lookup-accumulate loops.
// LOCALUT_SIMD_PRAGMA is defined by the build when the compiler accepts
// -fopenmp-simd (the pragma alone, no OpenMP runtime); without it the
// "simd" path compiles to the same scalar loop and the ExecOptions::simd
// flag is a no-op.  Correctness never depends on the pragma: the
// vectorized dimension is independent output elements.
#if defined(LOCALUT_SIMD_PRAGMA)
#define LOCALUT_OMP_SIMD _Pragma("omp simd")
#else
#define LOCALUT_OMP_SIMD
#endif
#if defined(__GNUC__) || defined(__clang__)
#define LOCALUT_RESTRICT __restrict__
#else
#define LOCALUT_RESTRICT
#endif

namespace localut {

// ---------------------------------------------------------------- arena

ExecArena::Buffer::~Buffer()
{
    if (data != nullptr) {
        ::operator delete(data, std::align_val_t{64});
    }
}

void*
ExecArena::raw(Buffer& buffer, std::size_t bytes)
{
    if (bytes <= buffer.bytes) {
        return buffer.data;
    }
    // Round up to a page so repeated slightly-growing requests do not
    // churn; buffers never shrink (that is the steady-state guarantee).
    const std::size_t rounded = (bytes + 4095) & ~std::size_t{4095};
    if (buffer.data != nullptr) {
        ::operator delete(buffer.data, std::align_val_t{64});
        bytesReserved_ -= buffer.bytes;
        // Cleared before the new allocation: if it throws, the buffer
        // must not keep a dangling pointer with a stale size.
        buffer.data = nullptr;
        buffer.bytes = 0;
    }
    buffer.data = ::operator new(rounded, std::align_val_t{64});
    buffer.bytes = rounded;
    ++allocations_;
    bytesReserved_ += rounded;
    return buffer.data;
}

std::int32_t*
ExecArena::i32(unsigned slot, std::size_t n)
{
    LOCALUT_ASSERT(slot < kSlots, "arena slot out of range");
    return typed<std::int32_t>(i32_, slot, n);
}

float*
ExecArena::f32(unsigned slot, std::size_t n)
{
    LOCALUT_ASSERT(slot < kSlots, "arena slot out of range");
    return typed<float>(f32_, slot, n);
}

std::uint64_t*
ExecArena::u64(unsigned slot, std::size_t n)
{
    LOCALUT_ASSERT(slot < kSlots, "arena slot out of range");
    return typed<std::uint64_t>(u64_, slot, n);
}

std::uint32_t*
ExecArena::u32(unsigned slot, std::size_t n)
{
    LOCALUT_ASSERT(slot < kSlots, "arena slot out of range");
    return typed<std::uint32_t>(u32_, slot, n);
}

std::uint16_t*
ExecArena::u16(unsigned slot, std::size_t n)
{
    LOCALUT_ASSERT(slot < kSlots, "arena slot out of range");
    return typed<std::uint16_t>(u16_, slot, n);
}

std::uint8_t*
ExecArena::u8(unsigned slot, std::size_t n)
{
    LOCALUT_ASSERT(slot < kSlots, "arena slot out of range");
    return typed<std::uint8_t>(u8_, slot, n);
}

ExecArena&
ExecArena::threadLocal()
{
    static thread_local ExecArena arena;
    return arena;
}

// ---------------------------------------------------------- fingerprint

std::uint64_t
weightsFingerprint(const QuantizedMatrix& w)
{
    // O(1) on every call after the first per code range: the codes'
    // content hash is memoized in their shared CodeBuffer block.
    constexpr std::uint64_t kFpSeed = 0x51'7a'b1'e0'0c'a1'07'00ull;
    std::uint64_t h = splitmix64(kFpSeed ^ w.rows);
    h = splitmix64(h ^ w.cols);
    h = splitmix64(h ^ static_cast<std::uint64_t>(w.codec.kind()));
    h = splitmix64(h ^ w.codec.bits());
    return splitmix64(h ^ w.codes.contentHash());
}

// ---------------------------------------------------------- preparation

namespace {

/** Padded code at a K offset (code 0 decodes to an annihilating value). */
std::uint16_t
wCodeAt(const QuantizedMatrix& w, std::size_t mm, std::size_t kk)
{
    return kk < w.cols ? w.at(mm, kk) : std::uint16_t{0};
}

std::uint16_t
actCodeAt(const QuantizedMatrix& a, std::size_t kk, std::size_t nn)
{
    return kk < a.rows ? a.at(kk, nn) : std::uint16_t{0};
}

/** Functional reorder-mode resolution shared with the legacy API. */
enum class Mode { Naive, Ltc, Op, CanonExplicit, CanonReorder, CanonStream };

Mode
modeFor(DesignPoint design, bool streaming)
{
    switch (design) {
      case DesignPoint::NaivePim:  return Mode::Naive;
      case DesignPoint::Ltc:       return Mode::Ltc;
      case DesignPoint::OpLutDram:
      case DesignPoint::OpLut:     return Mode::Op;
      case DesignPoint::OpLc:      return Mode::CanonExplicit;
      case DesignPoint::OpLcRc:    return Mode::CanonReorder;
      case DesignPoint::LoCaLut:
        return streaming ? Mode::CanonStream : Mode::CanonReorder;
    }
    LOCALUT_PANIC("invalid design point");
}

std::vector<std::int32_t>
intCodebook(ValueCodec codec)
{
    std::vector<std::int32_t> book;
    if (!codec.isInteger()) {
        return book;
    }
    book.resize(codec.cardinality());
    for (std::uint64_t c = 0; c < book.size(); ++c) {
        book[c] = codec.decodeInt(static_cast<std::uint32_t>(c));
    }
    return book;
}

std::vector<float>
floatCodebook(ValueCodec codec)
{
    std::vector<float> book(codec.cardinality());
    for (std::uint64_t c = 0; c < book.size(); ++c) {
        book[c] = codec.decode(static_cast<std::uint32_t>(c));
    }
    return book;
}

} // namespace

bool
PreparedGemm::matches(const GemmProblem& problem, const GemmPlan& plan) const
{
    // Weight-content agreement is the caller's contract: the prepared
    // cache keys on weightsFingerprint(), and direct users hold one
    // PreparedGemm per problem.  Re-hashing here would put an O(M*K)
    // pass back on every call — the exact cost this engine removes.
    return m == problem.m() && k == problem.k() &&
           config == problem.config() && design == plan.design &&
           p == plan.p && kSlices == plan.kSlices &&
           streaming == plan.streaming;
}

std::uint64_t
PreparedGemm::bytes() const
{
    return wIdxT8.size() + wIdxT16.size() * sizeof(std::uint16_t) +
           wIdxT64.size() * sizeof(std::uint64_t) + ltcIdx.size() +
           ltcCoeff.size() * sizeof(std::int64_t) +
           msBinom.size() * sizeof(std::uint64_t) +
           (wDecode.size() + aDecode.size()) * sizeof(std::int32_t) +
           (wDecodeF.size() + aDecodeF.size()) * sizeof(float);
}

std::shared_ptr<PreparedGemm>
prepareGemm(const GemmProblem& problem, const GemmPlan& plan,
            bool useTableCache)
{
    LOCALUT_REQUIRE(problem.m() == plan.m && problem.k() == plan.k,
                    "prepareGemm: plan was resolved for a different shape");
    LOCALUT_REQUIRE(!problem.w.codes.empty(),
                    "prepareGemm needs materialized weight codes");

    auto prep = std::make_shared<PreparedGemm>();
    prep->design = plan.design;
    prep->config = problem.config();
    prep->p = plan.p;
    prep->kSlices = plan.kSlices;
    prep->streaming = plan.streaming;
    prep->m = problem.m();
    prep->k = problem.k();
    // `weights` stays 0 here: hashing the codes is an O(M*K) pass, so
    // the caching layer (PlanCache::preparedFor) stamps the fingerprint
    // it already computed for the cache key.

    prep->wDecode = intCodebook(problem.w.codec);
    prep->wDecodeF = floatCodebook(problem.w.codec);
    prep->aDecode = intCodebook(problem.a.codec);
    prep->aDecodeF = floatCodebook(problem.a.codec);

    const QuantizedMatrix& w = problem.w;
    const std::size_t m = prep->m, k = prep->k;
    const Mode mode = modeFor(plan.design, plan.streaming);

    if (mode == Mode::Ltc) {
        LOCALUT_REQUIRE(prep->config.weightCodec.isInteger() &&
                            prep->config.actCodec.isInteger(),
                        "LTC functional path is integer-only");
        const unsigned g = cost::kLtcGroupSize;
        const unsigned groups =
            static_cast<unsigned>(ceilDiv(k, std::size_t{g}));
        prep->groups = groups;
        // Affine bit decomposition: decodeInt(code) =
        // sum_j coeff[j] * bit_j(code) + base.
        const ValueCodec codec = w.codec;
        prep->ltcBase = codec.decodeInt(0);
        prep->ltcCoeff.resize(codec.bits());
        for (unsigned j = 0; j < codec.bits(); ++j) {
            prep->ltcCoeff[j] = codec.decodeInt(1u << j) - prep->ltcBase;
        }
        // Per-(row, plane, group) table indices, hoisted out of the
        // executor's innermost loop.
        const unsigned bw = codec.bits();
        prep->ltcIdx.resize(m * bw * groups);
        for (std::size_t mm = 0; mm < m; ++mm) {
            for (unsigned j = 0; j < bw; ++j) {
                std::uint8_t* dst =
                    &prep->ltcIdx[(mm * bw + j) * groups];
                for (unsigned gg = 0; gg < groups; ++gg) {
                    unsigned idx = 0;
                    for (unsigned i = 0; i < g; ++i) {
                        const std::size_t kk =
                            static_cast<std::size_t>(gg) * g + i;
                        if (kk < k && ((w.at(mm, kk) >> j) & 1u)) {
                            idx |= 1u << i;
                        }
                    }
                    dst[gg] = static_cast<std::uint8_t>(idx);
                }
            }
        }
        return prep;
    }

    if (mode == Mode::Naive) {
        prep->groups = static_cast<unsigned>(ceilDiv(k, std::size_t{1}));
        return prep;
    }

    // LUT designs: packed (group-major) weight indices + shared tables.
    const unsigned p = plan.p;
    const unsigned groups =
        static_cast<unsigned>(ceilDiv(k, std::size_t{p}));
    prep->groups = groups;
    const unsigned bw = w.codec.bits();
    const unsigned idxBits = bw * p;
    std::uint16_t codes[64];
    LOCALUT_REQUIRE(p <= 64, "packing degree out of range");
    auto packInto = [&](auto& vec) {
        vec.resize(static_cast<std::size_t>(groups) * m);
        for (unsigned g = 0; g < groups; ++g) {
            auto* dst = &vec[static_cast<std::size_t>(g) * m];
            for (std::size_t mm = 0; mm < m; ++mm) {
                for (unsigned i = 0; i < p; ++i) {
                    codes[i] =
                        wCodeAt(w, mm, static_cast<std::size_t>(g) * p + i);
                }
                dst[mm] = static_cast<
                    typename std::decay_t<decltype(vec)>::value_type>(
                    packCodes({codes, p}, bw));
            }
        }
    };
    // Narrowest storage that holds the packed index: the row sweep is
    // memory-bound on this stream.
    if (idxBits <= 8) {
        packInto(prep->wIdxT8);
    } else if (idxBits <= 16) {
        packInto(prep->wIdxT16);
    } else {
        packInto(prep->wIdxT64);
    }

    const LutShape shape(prep->config, p);
    LutTableCache& cache = LutTableCache::global();
    switch (mode) {
      case Mode::Op:
        prep->opLut = useTableCache
                          ? cache.opLut(shape)
                          : std::make_shared<const OperationPackedLut>(shape);
        break;
      case Mode::CanonReorder:
      case Mode::CanonStream:
        prep->reorderLut =
            useTableCache
                ? cache.reorderingLut(shape)
                : std::make_shared<const ReorderingLut>(shape);
        [[fallthrough]];
      case Mode::CanonExplicit:
        prep->canonicalLut =
            useTableCache
                ? cache.canonicalLut(shape)
                : std::make_shared<const CanonicalLut>(shape);
        break;
      default:
        LOCALUT_PANIC("unreachable");
    }

    if (mode != Mode::Op) {
        // Rank tables for the per-call activation canonicalization:
        // msBinom[i * span + z] = C(z, i + 1), so multiset ranking is a
        // table walk instead of repeated binomial evaluation.
        const std::uint64_t alphabet = prep->config.actCodec.cardinality();
        const std::size_t span = alphabet + p;
        prep->msBinom.resize(static_cast<std::size_t>(p) * span);
        for (unsigned i = 0; i < p; ++i) {
            for (std::size_t z = 0; z < span; ++z) {
                prep->msBinom[i * span + z] = binomial(z, i + 1);
            }
        }
    }
    return prep;
}

// ------------------------------------------------------------ execution

namespace {

// Arena slot conventions.  Caller-thread (shared preparation) buffers
// and tile-thread scratch use distinct slots per element type, so the
// serial path — and a caller that drains tiles of its own batch — can
// run both out of one arena.
constexpr unsigned kSlotActA = 0;    ///< u64, shared: aIdx / msRank
constexpr unsigned kSlotPermRank = 0; ///< u32, shared
constexpr unsigned kSlotPerm = 0;     ///< u8, shared
constexpr unsigned kSlotColSum = 1;   ///< u64, shared: LTC column sums
constexpr unsigned kSlotAcc = 0;      ///< i32/f32, tile: accumulator
constexpr unsigned kSlotFused = 1;    ///< i32/f32, shared: slices / tables
                                      ///< (or a tile's own column block)
constexpr unsigned kSlotCol = 2;      ///< i32/f32, tile: column scratch
constexpr unsigned kSlotBatch = 3;    ///< f32, tile: per-batch accumulator

/** Bound on one column window of per-instance fused slices or LTC
 * tables (entries, 4 MiB at 4 bytes each): wide GEMMs build and sweep
 * in column windows so the shared storage stays bounded. */
constexpr std::size_t kWindowEntries = std::size_t{1} << 20;

/** Output columns whose fused slices the blocked sweep interleaves. */
constexpr std::size_t kBlockCols = 8;

/** Output rows the blocked sweep advances together: kBlockStrip x
 * kBlockCols accumulators stay in registers, and the strip's weight
 * indices of one group come from one cache line. */
constexpr unsigned kBlockStrip = 4;

/** One output tile: rows [m0, m1) x columns [n0, n1). */
struct TileRange {
    std::size_t m0, m1, n0, n1;
};

/**
 * Column tiles are never cut finer than one cache line of the
 * row-major output (16 x 4-byte columns = 64 bytes): slivered column
 * tiles — the historical bug on fig09-class shapes, which emitted
 * 4-column tiles — put four concurrent writers on every output line,
 * and the resulting false sharing erased the entire tile-parallel
 * speedup.
 */
constexpr std::size_t kMinColChunk = 16;

/**
 * Cuts the output into a disjoint [rowTiles x colTiles] grid.  Columns
 * are cut first, no finer than kMinColChunk (the naive kernel decodes
 * each activation column once per tile, so a row cut repeats that small
 * O(k) step); rows are cut only when the columns alone cannot feed the
 * target tile count, and keep >= 16 rows per tile.  Fused slices and
 * LTC tables are built before the sweep and shared by every tile, so
 * they never limit the row cut.  rangeOf() recovers the bounds from a
 * tile index.
 */
struct Tiling {
    std::size_t m = 0, n = 0;
    std::size_t tiles = 1;
    std::size_t rowTiles = 1, colTiles = 1;
    std::size_t rowChunk = 0, colChunk = 0;

    TileRange
    rangeOf(std::size_t tile) const
    {
        if (tiles <= 1) {
            return {0, m, 0, n};
        }
        const std::size_t m0 =
            std::min(m, (tile / colTiles) * rowChunk);
        const std::size_t n0 =
            std::min(n, (tile % colTiles) * colChunk);
        return {m0, std::min(m, m0 + rowChunk), n0,
                std::min(n, n0 + colChunk)};
    }
};

Tiling
chooseTiling(std::size_t m, std::size_t n, const TileExecutor* tiles)
{
    Tiling t;
    t.m = m;
    t.n = n;
    t.rowChunk = m;
    t.colChunk = n;
    const unsigned conc = tiles != nullptr ? tiles->concurrency() : 1;
    if (conc <= 1 || m * n == 0) {
        return t;
    }
    // A few tiles per worker for load balance.
    const std::size_t target = static_cast<std::size_t>(conc) * 4;
    t.colTiles = std::max<std::size_t>(
        1, std::min(ceilDiv(n, kMinColChunk), target));
    t.colChunk = ceilDiv(n, t.colTiles);
    t.colTiles = ceilDiv(n, t.colChunk);
    if (t.colTiles < target && m >= 32) {
        const std::size_t want = ceilDiv(target, t.colTiles);
        t.rowTiles = std::min(ceilDiv(m, std::size_t{16}), want);
        t.rowChunk = ceilDiv(m, t.rowTiles);
        t.rowTiles = ceilDiv(m, t.rowChunk);
    }
    t.tiles = t.rowTiles * t.colTiles;
    return t;
}

/**
 * [0, count) cut into `parts` contiguous chunks of at least `minChunk`
 * items, a few per hand — the work split of the build phase that runs
 * before a sweep (activation canonicalization, fused slices, LTC
 * tables).
 */
struct Chunking {
    std::size_t count = 0, chunk = 1, parts = 0;

    std::size_t begin(std::size_t part) const { return part * chunk; }
    std::size_t end(std::size_t part) const
    {
        return std::min(count, (part + 1) * chunk);
    }
};

Chunking
chunkRange(std::size_t count, std::size_t minChunk,
           const TileExecutor* tiles)
{
    const unsigned conc = tiles != nullptr ? tiles->concurrency() : 1;
    const std::size_t target =
        conc <= 1 ? 1 : static_cast<std::size_t>(conc) * 4;
    Chunking c;
    c.count = count;
    c.chunk = std::max<std::size_t>(
        {1, minChunk, ceilDiv(count, target)});
    c.parts = ceilDiv(count, c.chunk);
    return c;
}

/** Runs fn(0..count-1) — inline when serial (no std::function
 * materialization, preserving the zero-allocation steady state), else
 * as one batch on @p tiles. */
template <typename Fn>
void
runTiles(std::size_t count, const TileExecutor* tiles, const Fn& fn)
{
    if (count <= 1 || tiles == nullptr) {
        for (std::size_t i = 0; i < count; ++i) {
            fn(i);
        }
        return;
    }
    tiles->run(count, std::function<void(std::size_t)>(fn));
}

/** The tile-local arena: the shared one when serial, per-thread when
 * the tile may be running on a pool worker. */
ExecArena&
tileArena(std::size_t count, const TileExecutor* tiles,
          ExecArena& callerArena)
{
    return (count <= 1 || tiles == nullptr) ? callerArena
                                            : ExecArena::threadLocal();
}

/** Explicit unpack/permute/repack (the LC design point's runtime work). */
std::uint64_t
explicitReorder(std::uint64_t wIdx, const std::uint8_t* perm, unsigned p,
                unsigned bw)
{
    std::uint64_t reordered = 0;
    for (unsigned i = 0; i < p; ++i) {
        const std::uint64_t code = extractField(wIdx, perm[i], bw);
        reordered |= code << (i * bw);
    }
    return reordered;
}

// ----------------------------------------------- activation preparation

/**
 * Column-major canonicalization of every activation group instance:
 * msRank/permRank/perm at [nn * groups + g].  Shared by every tile of
 * the sweep; canonicalizeActs() fills it one instance range at a time
 * (instances are independent, so the build phase splits them across
 * hands).
 */
struct CanonicalActs {
    std::uint64_t* msRank = nullptr;
    std::uint32_t* permRank = nullptr;
    std::uint8_t* perm = nullptr;
};

CanonicalActs
canonicalActsIn(ExecArena& arena, std::size_t instances, unsigned p)
{
    return {arena.u64(kSlotActA, instances),
            arena.u32(kSlotPermRank, instances),
            arena.u8(kSlotPerm, instances * p)};
}

/** Canonicalizes activation group instance (@p nn, @p g): stable
 * insertion argsort (copied to @p perm, p entries) + table-driven
 * multiset and Lehmer ranks, allocation-free. */
inline void
canonicalizeInstance(const QuantizedMatrix& a, const PreparedGemm& prep,
                     std::size_t nn, unsigned g, std::uint64_t& msRank,
                     std::uint32_t& permRank, std::uint8_t* perm)
{
    const unsigned p = prep.p;
    const std::size_t span = prep.config.actCodec.cardinality() + p;
    const std::uint64_t* binom = prep.msBinom.data();
    std::uint16_t codes[64];
    std::uint8_t order[64];
    for (unsigned i = 0; i < p; ++i) {
        codes[i] = actCodeAt(a, static_cast<std::size_t>(g) * p + i, nn);
    }
    // Stable insertion argsort (p <= 12).
    for (unsigned i = 0; i < p; ++i) {
        const std::uint16_t code = codes[i];
        unsigned j = i;
        while (j > 0 && codes[order[j - 1]] > code) {
            order[j] = order[j - 1];
            --j;
        }
        order[j] = static_cast<std::uint8_t>(i);
    }
    // Multiset rank of the sorted codes (colex rank sum).
    std::uint64_t ms = 0;
    for (unsigned i = 0; i < p; ++i) {
        ms += binom[i * span + codes[order[i]] + i];
    }
    // Lehmer rank of the argsort permutation.
    std::uint32_t pr = 0;
    for (unsigned i = 0; i < p; ++i) {
        unsigned smaller = 0;
        for (unsigned j = i + 1; j < p; ++j) {
            if (order[j] < order[i]) {
                ++smaller;
            }
        }
        pr = pr * (p - i) + smaller;
    }
    msRank = ms;
    permRank = pr;
    std::copy(order, order + p, perm);
}

/** Canonicalizes instances [@p begin, @p end) into @p acts. */
void
canonicalizeActs(const QuantizedMatrix& a, const PreparedGemm& prep,
                 const CanonicalActs& acts, std::size_t begin,
                 std::size_t end)
{
    const unsigned groups = prep.groups;
    std::size_t nn = begin / groups;
    unsigned g = static_cast<unsigned>(begin % groups);
    for (std::size_t at = begin; at < end; ++at) {
        canonicalizeInstance(a, prep, nn, g, acts.msRank[at],
                             acts.permRank[at], acts.perm + at * prep.p);
        if (++g == groups) {
            g = 0;
            ++nn;
        }
    }
}

/** Packs activation instances [@p begin, @p end) into the column-major
 * indices aIdx[nn * groups + g] (instances are independent, so the
 * build phase splits them across hands). */
void
packActs(const QuantizedMatrix& a, unsigned p, unsigned groups,
         std::uint64_t* aIdx, std::size_t begin, std::size_t end)
{
    const unsigned ba = a.codec.bits();
    std::uint16_t codes[64];
    std::size_t nn = begin / groups;
    unsigned g = static_cast<unsigned>(begin % groups);
    for (std::size_t at = begin; at < end; ++at) {
        for (unsigned i = 0; i < p; ++i) {
            codes[i] = actCodeAt(a, static_cast<std::size_t>(g) * p + i, nn);
        }
        aIdx[at] = packCodes({codes, p}, ba);
        if (++g == groups) {
            g = 0;
            ++nn;
        }
    }
}

// ------------------------------------------------------------- kernels

/**
 * Shared accumulate-into-column helper: zeroes @p acc, then the caller
 * streams group slices into it; writeColumn() scatters to the strided
 * output column.
 */
template <typename T>
void
writeColumn(const T* acc, T* out, std::size_t n, std::size_t nn,
            std::size_t m0, std::size_t m1)
{
    for (std::size_t mm = m0; mm < m1; ++mm) {
        out[mm * n + nn] = acc[mm - m0];
    }
}

// ------------------------------------------- fused inner-loop helpers
//
// The fused lookup-accumulate sweeps vectorize along the OUTPUT-ROW
// dimension: acc[i] += slice[idx[i]] advances independent output
// elements in lockstep, so no per-element accumulation order changes —
// the simd and scalar paths are bit-exact on integer AND float data
// (reordering would only occur if the reduction dimension, the groups,
// were vectorized; it never is).  The scalar variants are kept as
// separate loops (not just a disabled pragma) so the bench's
// simd-vs-scalar comparison measures real codegen, with restrict
// qualifiers confined to the simd path.

/** acc[i] += slice[idx[i]] over [0, span). */
template <typename T, typename I>
inline void
gatherAccumulate(bool simd, T* acc, const T* slice, const I* idx,
                 std::size_t span)
{
    if (simd) {
        T* LOCALUT_RESTRICT a = acc;
        const T* LOCALUT_RESTRICT s = slice;
        const I* LOCALUT_RESTRICT ix = idx;
        LOCALUT_OMP_SIMD
        for (std::size_t i = 0; i < span; ++i) {
            a[i] += s[ix[i]];
        }
    } else {
        for (std::size_t i = 0; i < span; ++i) {
            acc[i] += slice[idx[i]];
        }
    }
}

/**
 * acc[i] += slices[0][idx[0][i]], then += slices[1][idx[1][i]], ...
 * for N groups in one pass over [0, span).  Each element still adds the
 * groups in ascending order, one rounding per add, so the result is
 * bit-exact against N gatherAccumulate() passes (float included) while
 * the accumulator is loaded and stored once instead of N times.
 */
template <unsigned N, typename T, typename I>
inline void
gatherAccumulateGroups(bool simd, T* acc, const T* const* slices,
                       const I* const* idx, std::size_t span)
{
    if (simd) {
        T* LOCALUT_RESTRICT a = acc;
        LOCALUT_OMP_SIMD
        for (std::size_t i = 0; i < span; ++i) {
            T v = a[i];
            for (unsigned j = 0; j < N; ++j) {
                v += slices[j][idx[j][i]];
            }
            a[i] = v;
        }
    } else {
        for (std::size_t i = 0; i < span; ++i) {
            T v = acc[i];
            for (unsigned j = 0; j < N; ++j) {
                v += slices[j][idx[j][i]];
            }
            acc[i] = v;
        }
    }
}

/** Adds groups [@p g0, @p g1) of column @p nn into @p acc over rows
 * [@p m0, @p m0 + @p span), four groups per pass. */
template <typename T, typename I, typename SliceOf>
inline void
accumulateGroups(bool simd, T* acc, const SliceOf& sliceOf, const I* wIdxT,
                 std::size_t m, std::size_t m0, std::size_t span,
                 unsigned g0, unsigned g1)
{
    const T* slices[4];
    const I* idx[4];
    unsigned g = g0;
    for (; g + 4 <= g1; g += 4) {
        for (unsigned j = 0; j < 4; ++j) {
            slices[j] = sliceOf(g + j);
            idx[j] = wIdxT + static_cast<std::size_t>(g + j) * m + m0;
        }
        gatherAccumulateGroups<4>(simd, acc, slices, idx, span);
    }
    for (; g < g1; ++g) {
        slices[0] = sliceOf(g);
        idx[0] = wIdxT + static_cast<std::size_t>(g) * m + m0;
        gatherAccumulateGroups<1>(simd, acc, slices, idx, span);
    }
}

/** dst[i] = src[idx[i]] over [0, span) (fused-slice construction). */
template <typename T, typename I>
inline void
gatherInto(bool simd, T* dst, const T* src, const I* idx, std::size_t span)
{
    if (simd) {
        T* LOCALUT_RESTRICT d = dst;
        const T* LOCALUT_RESTRICT s = src;
        const I* LOCALUT_RESTRICT ix = idx;
        LOCALUT_OMP_SIMD
        for (std::size_t i = 0; i < span; ++i) {
            d[i] = s[ix[i]];
        }
    } else {
        for (std::size_t i = 0; i < span; ++i) {
            dst[i] = src[idx[i]];
        }
    }
}

/** acc[i] += addend[i] over [0, span) (slice-window fold). */
template <typename T>
inline void
vectorAdd(bool simd, T* acc, const T* addend, std::size_t span)
{
    if (simd) {
        T* LOCALUT_RESTRICT a = acc;
        const T* LOCALUT_RESTRICT b = addend;
        LOCALUT_OMP_SIMD
        for (std::size_t i = 0; i < span; ++i) {
            a[i] += b[i];
        }
    } else {
        for (std::size_t i = 0; i < span; ++i) {
            acc[i] += addend[i];
        }
    }
}

/** Narrow-width packed weight index dispatch: invokes @p fn with the
 * populated wIdxT pointer (exactly one variant is filled). */
template <typename Fn>
void
withWeightIndices(const PreparedGemm& prep, const Fn& fn)
{
    if (!prep.wIdxT8.empty()) {
        fn(prep.wIdxT8.data());
    } else if (!prep.wIdxT16.empty()) {
        fn(prep.wIdxT16.data());
    } else {
        fn(prep.wIdxT64.data());
    }
}

/** OP sweep: out(mm, nn) = sum_g opLut[aIdx(nn, g)][wIdxT(g, mm)]. */
template <typename T, typename I>
void
opKernel(const PreparedGemm& prep, const I* wIdxT,
         const std::uint64_t* aIdx, const T* table, std::uint64_t rows,
         bool simd, std::size_t n, const TileRange& range, ExecArena& arena,
         T* out)
{
    const std::size_t m = prep.m;
    const unsigned groups = prep.groups;
    const std::size_t span = range.m1 - range.m0;
    T* acc;
    if constexpr (std::is_same_v<T, std::int32_t>) {
        acc = arena.i32(kSlotAcc, span);
    } else {
        acc = arena.f32(kSlotAcc, span);
    }
    for (std::size_t nn = range.n0; nn < range.n1; ++nn) {
        std::fill(acc, acc + span, T{});
        const std::uint64_t* aCol = aIdx + nn * groups;
        for (unsigned g = 0; g < groups; ++g) {
            const T* slice = table + aCol[g] * rows;
            const I* wg = wIdxT + static_cast<std::size_t>(g) * m;
            gatherAccumulate(simd, acc, slice, wg + range.m0, span);
        }
        writeColumn(acc, out, n, nn, range.m0, range.m1);
    }
}

/**
 * Fused slices: (reordering o canonical) collapsed into one direct
 * slice per activation group instance — fused[wIdx] =
 * canonical[msRank][reorder(wIdx)] — so the row sweep is a single
 * lookup per (row, group), exactly like the OP kernel.  The slices are
 * built once, before the sweep, into storage every sweep tile shares.
 * A slice is a pure function of (msRank, permRank): when that combo
 * space is small and the GEMM has at least as many group instances,
 * one slice per combo is built (a 3072x768x128 W4A4 GEMM has ~49k
 * instances but only 272 combos); otherwise one per instance of the
 * current column window.
 */
template <typename T>
struct FusedSlices {
    const T* data = nullptr;
    std::uint64_t rows = 0;
    unsigned groups = 0;
    bool perCombo = false;
    std::uint64_t permCols = 1;
    CanonicalActs acts;
    /** First instance of the column window (per-instance storage). */
    std::size_t firstInstance = 0;

    const T*
    of(std::size_t nn, unsigned g) const
    {
        const std::size_t at = nn * groups + g;
        const std::size_t slice =
            perCombo ? static_cast<std::size_t>(acts.msRank[at] * permCols +
                                                acts.permRank[at])
                     : at - firstInstance;
        return data + slice * rows;
    }
};

/** Builds the fused slice of (@p msRank, @p permRank) into @p dst, entry
 * wi at dst[wi * @p stride] (1 = a contiguous slice, kBlockCols = one
 * lane of an interleaved column block); @p perm is the matching argsort
 * (explicit reordering only) and @p colScratch a rows-long buffer when
 * the canonical LUT is not materialized. */
template <typename T, bool kInt>
void
buildFusedSlice(const PreparedGemm& prep, Mode mode, bool simd,
                std::uint64_t msRank, std::uint32_t permRank,
                const std::uint8_t* perm, T* colScratch, T* dst,
                std::size_t stride = 1)
{
    const CanonicalLut& canon = *prep.canonicalLut;
    const std::uint64_t rows = canon.rows();
    const T* col;
    if constexpr (kInt) {
        col = canon.dataInt();
    } else {
        col = canon.dataFloat();
    }
    if (col != nullptr) {
        col += msRank * rows;
    } else {
        if constexpr (kInt) {
            canon.columnIntInto(msRank, colScratch);
        } else {
            canon.columnFloatInto(msRank, colScratch);
        }
        col = colScratch;
    }
    if (mode == Mode::CanonExplicit) {
        const unsigned p = prep.p;
        const unsigned bw = prep.config.weightCodec.bits();
        for (std::uint64_t wi = 0; wi < rows; ++wi) {
            dst[wi * stride] = col[explicitReorder(wi, perm, p, bw)];
        }
        return;
    }
    const std::uint32_t* rCol = prep.reorderLut->data() + permRank * rows;
    if (stride == 1) {
        gatherInto(simd, dst, col, rCol, static_cast<std::size_t>(rows));
        return;
    }
    for (std::uint64_t wi = 0; wi < rows; ++wi) {
        dst[wi * stride] = col[rCol[wi]];
    }
}

/**
 * Row sweep of one tile against shared fused slices.  Integer
 * accumulation is order-independent; float accumulation must reproduce
 * the legacy order exactly: direct group-ascending sums normally,
 * per-slice-window partial sums (@p batch groups each) folded in under
 * streaming.
 */
template <typename T, bool kInt, typename I>
void
fusedSweep(const PreparedGemm& prep, const I* wIdxT,
           const FusedSlices<T>& fused, Mode mode, unsigned batch,
           bool simd, std::size_t n, const TileRange& range,
           ExecArena& arena, T* out)
{
    const std::size_t m = prep.m;
    const unsigned groups = prep.groups;
    const std::size_t span = range.m1 - range.m0;
    T *acc, *accBatch;
    if constexpr (kInt) {
        acc = arena.i32(kSlotAcc, span);
        accBatch = nullptr;
    } else {
        acc = arena.f32(kSlotAcc, span);
        accBatch = arena.f32(kSlotBatch, span);
    }
    for (std::size_t nn = range.n0; nn < range.n1; ++nn) {
        const auto sliceOf = [&](unsigned g) { return fused.of(nn, g); };
        std::fill(acc, acc + span, T{});
        if (kInt || mode != Mode::CanonStream) {
            accumulateGroups(simd, acc, sliceOf, wIdxT, m, range.m0, span,
                             0, groups);
        } else {
            for (unsigned g0 = 0; g0 < groups; g0 += batch) {
                const unsigned gEnd = std::min(groups, g0 + batch);
                std::fill(accBatch, accBatch + span, T{});
                accumulateGroups(simd, accBatch, sliceOf, wIdxT, m,
                                 range.m0, span, g0, gEnd);
                vectorAdd(simd, acc, accBatch, span);
            }
        }
        writeColumn(acc, out, n, nn, range.m0, range.m1);
    }
}

// ------------------------------------------------- blocked fused sweep
//
// The fused slices of kBlockCols adjacent output columns, interleaved
// per (group, weight index): block[(g * rows + wi) * kBlockCols + c] is
// column c's slice entry.  One weight-index load then feeds kBlockCols
// accumulators — adjacent elements of the row-major output — with one
// contiguous kBlockCols-wide row add, which vectorizes without gathers.
// Each element still adds its groups in ascending order (per slice
// window under streaming), so the result is bit-exact against
// fusedSweep() for int and float alike.

/** acc[r][c] += block[g][wIdx[g * m + r]][c] over groups [g0, g1). */
template <unsigned R, bool kSimd, typename T, typename I>
inline void
blockedGroups(T (&acc)[R][kBlockCols], const T* block, std::size_t rows,
              const I* wIdx, std::size_t m, unsigned g0, unsigned g1)
{
    for (unsigned g = g0; g < g1; ++g) {
        const T* slab = block + static_cast<std::size_t>(g) * rows *
                                    kBlockCols;
        const I* ix = wIdx + static_cast<std::size_t>(g) * m;
        for (unsigned r = 0; r < R; ++r) {
            const T* row = slab + static_cast<std::size_t>(ix[r]) *
                                      kBlockCols;
            if constexpr (kSimd) {
                LOCALUT_OMP_SIMD
                for (std::size_t c = 0; c < kBlockCols; ++c) {
                    acc[r][c] += row[c];
                }
            } else {
                for (std::size_t c = 0; c < kBlockCols; ++c) {
                    acc[r][c] += row[c];
                }
            }
        }
    }
}

/** R output rows x one column block: adds groups [@p g0, @p g1) (per
 * @p batch-group partials when @p windows; g0 is then window-aligned)
 * into the R x kBlockCols accumulators at @p acc. */
template <unsigned R, bool kSimd, typename T, typename I>
inline void
blockedStrip(const T* block, std::size_t rows, const I* wIdx, std::size_t m,
             unsigned g0, unsigned g1, bool windows, unsigned batch, T* acc)
{
    T sum[R][kBlockCols];
    std::copy(acc, acc + R * kBlockCols, &sum[0][0]);
    if (!windows) {
        blockedGroups<R, kSimd>(sum, block, rows, wIdx, m, g0, g1);
    } else {
        for (unsigned w0 = g0; w0 < g1; w0 += batch) {
            T part[R][kBlockCols] = {};
            blockedGroups<R, kSimd>(part, block, rows, wIdx, m, w0,
                                    std::min(g1, w0 + batch));
            for (unsigned r = 0; r < R; ++r) {
                for (std::size_t c = 0; c < kBlockCols; ++c) {
                    sum[r][c] += part[r][c];
                }
            }
        }
    }
    std::copy(&sum[0][0], &sum[0][0] + R * kBlockCols, acc);
}

/**
 * Sweeps rows [@p m0, @p m1) of the column block starting at output
 * column @p c0 against its interleaved @p block.  Groups go in chunks of
 * about kChunkEntries block entries (whole slice windows), each chunk
 * over every row of the tile, so the part of the block in use stays
 * cache-resident however large k is; the accumulators carry across
 * chunks in the tile's scratch, which keeps every element's group order.
 */
template <typename T, typename I>
void
blockedSweep(const PreparedGemm& prep, const I* wIdxT, const T* block,
             std::size_t rows, bool windows, unsigned batch, bool simd,
             std::size_t n, std::size_t c0, std::size_t m0, std::size_t m1,
             ExecArena& arena, T* out)
{
    constexpr std::size_t kChunkEntries = std::size_t{1} << 13;
    const std::size_t m = prep.m;
    const unsigned groups = prep.groups;
    const std::size_t span = m1 - m0;
    T* acc;
    if constexpr (std::is_same_v<T, std::int32_t>) {
        acc = arena.i32(kSlotAcc, span * kBlockCols);
    } else {
        acc = arena.f32(kSlotAcc, span * kBlockCols);
    }
    std::fill(acc, acc + span * kBlockCols, T{});
    unsigned chunk = static_cast<unsigned>(std::max<std::size_t>(
        1, kChunkEntries / (rows * kBlockCols)));
    if (windows) {
        chunk = static_cast<unsigned>(ceilDiv(chunk, batch)) * batch;
    }
    const auto run = [&](auto simdTag) {
        constexpr bool kSimd = decltype(simdTag)::value;
        for (unsigned g0 = 0; g0 < groups; g0 += chunk) {
            const unsigned g1 = std::min(groups, g0 + chunk);
            std::size_t mm = m0;
            for (; mm + kBlockStrip <= m1; mm += kBlockStrip) {
                blockedStrip<kBlockStrip, kSimd>(
                    block, rows, wIdxT + mm, m, g0, g1, windows, batch,
                    acc + (mm - m0) * kBlockCols);
            }
            for (; mm < m1; ++mm) {
                blockedStrip<1, kSimd>(block, rows, wIdxT + mm, m, g0, g1,
                                       windows, batch,
                                       acc + (mm - m0) * kBlockCols);
            }
        }
    };
    if (simd) {
        run(std::true_type{});
    } else {
        run(std::false_type{});
    }
    const std::size_t width = std::min(kBlockCols, n - c0);
    for (std::size_t mm = m0; mm < m1; ++mm) {
        std::copy(acc + (mm - m0) * kBlockCols,
                  acc + (mm - m0) * kBlockCols + width, out + mm * n + c0);
    }
}

/**
 * Canonical direct sweep (no fused slices): the per-element double
 * lookup, for shapes whose weight-row space dwarfs the row count (slice
 * fusion would cost more than it saves).
 */
template <typename T, bool kInt, typename I>
void
canonicalDirectKernel(const PreparedGemm& prep, const I* wIdxT,
                      const CanonicalActs& acts, Mode mode, unsigned batch,
                      std::size_t n, const TileRange& range, T* out)
{
    const std::size_t m = prep.m;
    const unsigned groups = prep.groups;
    const unsigned p = prep.p;
    const unsigned bw = prep.config.weightCodec.bits();
    const CanonicalLut& canon = *prep.canonicalLut;
    const std::uint64_t rows = canon.rows();
    const T* canonData;
    if constexpr (kInt) {
        canonData = canon.dataInt();
    } else {
        canonData = canon.dataFloat();
    }
    const std::uint32_t* reorderData =
        prep.reorderLut != nullptr ? prep.reorderLut->data() : nullptr;

    auto entry = [&](unsigned g, std::size_t nn, std::size_t mm) {
        const std::size_t at = nn * groups + g;
        const std::uint64_t wi = wIdxT[static_cast<std::size_t>(g) * m + mm];
        std::uint64_t reordered;
        if (mode == Mode::CanonExplicit) {
            reordered = explicitReorder(wi, acts.perm + at * p, p, bw);
        } else {
            reordered = reorderData[acts.permRank[at] * rows + wi];
        }
        if (canonData != nullptr) {
            return canonData[acts.msRank[at] * rows + reordered];
        }
        if constexpr (kInt) {
            return canon.lookupInt(acts.msRank[at], reordered);
        } else {
            return canon.lookupFloat(acts.msRank[at], reordered);
        }
    };

    for (std::size_t nn = range.n0; nn < range.n1; ++nn) {
        for (std::size_t mm = range.m0; mm < range.m1; ++mm) {
            T acc{};
            if (kInt || mode != Mode::CanonStream) {
                for (unsigned g = 0; g < groups; ++g) {
                    acc += entry(g, nn, mm);
                }
            } else {
                // Legacy streaming order: per-window partials folded in.
                for (unsigned g0 = 0; g0 < groups; g0 += batch) {
                    const unsigned gEnd = std::min(groups, g0 + batch);
                    T accB{};
                    for (unsigned g = g0; g < gEnd; ++g) {
                        accB += entry(g, nn, mm);
                    }
                    acc += accB;
                }
            }
            out[mm * n + nn] = acc;
        }
    }
}

/** LTC runtime tables of column @p nn (16 entries per group, at
 * @p table) and the column's activation sum, built once before the
 * sweep and shared by every row tile. */
void
ltcTables(const PreparedGemm& prep, const QuantizedMatrix& a,
          std::size_t nn, std::int32_t* table, std::int64_t& colSum)
{
    const unsigned g = cost::kLtcGroupSize;
    const unsigned entries = cost::kLtcTableEntries;
    const unsigned groups = prep.groups;
    const std::size_t k = prep.k;
    const std::int32_t* aDec = prep.aDecode.data();
    std::int64_t sum = 0;
    for (unsigned gg = 0; gg < groups; ++gg) {
        std::int32_t av[cost::kLtcGroupSize] = {};
        for (unsigned i = 0; i < g; ++i) {
            const std::size_t kk = static_cast<std::size_t>(gg) * g + i;
            av[i] = kk < k ? aDec[a.at(kk, nn)] : 0;
            sum += av[i];
        }
        for (unsigned idx = 0; idx < entries; ++idx) {
            std::int32_t entry = 0;
            for (unsigned i = 0; i < g; ++i) {
                if (idx & (1u << i)) {
                    entry += av[i];
                }
            }
            table[gg * entries + idx] = entry;
        }
    }
    colSum = sum;
}

/** LTC sweep (integer-only) of one tile: the shared per-column tables
 * (column nn's at @p tables + (nn - @p firstCol) * groups * 16) against
 * the precomputed weight plane indices. */
void
ltcSweep(const PreparedGemm& prep, const std::int32_t* tables,
         const std::int64_t* colSums, std::size_t firstCol, std::size_t n,
         const TileRange& range, std::int32_t* out)
{
    const unsigned entries = cost::kLtcTableEntries;
    const unsigned groups = prep.groups;
    const unsigned bw = prep.config.weightCodec.bits();
    for (std::size_t nn = range.n0; nn < range.n1; ++nn) {
        const std::int32_t* table =
            tables + (nn - firstCol) * groups * entries;
        for (std::size_t mm = range.m0; mm < range.m1; ++mm) {
            std::int64_t acc = 0;
            const std::uint8_t* rowIdx = &prep.ltcIdx[mm * bw * groups];
            for (unsigned j = 0; j < bw; ++j) {
                std::int64_t planeSum = 0;
                const std::uint8_t* idx = rowIdx + j * groups;
                for (unsigned gg = 0; gg < groups; ++gg) {
                    planeSum += table[gg * entries + idx[gg]];
                }
                acc += prep.ltcCoeff[j] * planeSum;
            }
            acc += prep.ltcBase * colSums[nn - firstCol];
            out[mm * n + nn] = static_cast<std::int32_t>(acc);
        }
    }
}

/** Plain MAC (NaivePim + the host reference), codebook-decoded. */
void
naiveIntKernel(const PreparedGemm& prep, const GemmProblem& problem,
               std::size_t n, const TileRange& range, ExecArena& arena,
               std::int32_t* out)
{
    const std::size_t k = prep.k;
    const std::int32_t* wDec = prep.wDecode.data();
    const std::int32_t* aDec = prep.aDecode.data();
    const std::uint16_t* wCodes = problem.w.codes.data();
    std::int32_t* aCol = arena.i32(kSlotCol, k);
    for (std::size_t nn = range.n0; nn < range.n1; ++nn) {
        for (std::size_t kk = 0; kk < k; ++kk) {
            aCol[kk] = aDec[problem.a.at(kk, nn)];
        }
        for (std::size_t mm = range.m0; mm < range.m1; ++mm) {
            const std::uint16_t* wRow = wCodes + mm * k;
            std::int32_t acc = 0;
            for (std::size_t kk = 0; kk < k; ++kk) {
                acc += wDec[wRow[kk]] * aCol[kk];
            }
            out[mm * n + nn] = acc;
        }
    }
}

/** Float MAC, replicating referenceGemmFloat()'s zero-weight skip (a
 * NaN activation times a skipped zero weight must stay skipped). */
void
naiveFloatKernel(const PreparedGemm& prep, const GemmProblem& problem,
                 std::size_t n, const TileRange& range, ExecArena& arena,
                 float* out)
{
    const std::size_t k = prep.k;
    const float* wDec = prep.wDecodeF.data();
    const float* aDec = prep.aDecodeF.data();
    const std::uint16_t* wCodes = problem.w.codes.data();
    float* aCol = arena.f32(kSlotCol, k);
    for (std::size_t nn = range.n0; nn < range.n1; ++nn) {
        for (std::size_t kk = 0; kk < k; ++kk) {
            aCol[kk] = aDec[problem.a.at(kk, nn)];
        }
        for (std::size_t mm = range.m0; mm < range.m1; ++mm) {
            const std::uint16_t* wRow = wCodes + mm * k;
            float acc = 0.0f;
            for (std::size_t kk = 0; kk < k; ++kk) {
                const float wv = wDec[wRow[kk]];
                if (wv == 0.0f) {
                    continue;
                }
                acc += wv * aCol[kk];
            }
            out[mm * n + nn] = acc;
        }
    }
}

// ----------------------------------------------------------- dispatch

/** Fused-slice heuristic: fusing costs groups * rows per column and
 * saves a dependent lookup per (row, group); profitable unless the
 * weight-row space dwarfs the row count. */
bool
useFusedSlices(std::uint64_t rows, std::size_t m)
{
    return rows <= std::max<std::uint64_t>(4 * m, 64);
}

/** Blocked-sweep rule: interleaving a column block costs groups * rows
 * * kBlockCols and sweeping it groups * m steps, so block when the
 * build is no larger than the sweep and one block fits a build window. */
bool
useBlockedSweep(std::uint64_t rows, std::size_t m, unsigned groups)
{
    return rows * kBlockCols <= m &&
           groups * rows * kBlockCols <= kWindowEntries;
}

/**
 * Runs @p fn(range, arena) over the chooseTiling() grid of output
 * columns [@p c0, @p c1) — one batch on @p tiles — handing each tile
 * its arena.
 */
template <typename Fn>
void
sweepColumns(std::size_t m, std::size_t c0, std::size_t c1,
             const TileExecutor* tiles, ExecArena& arena, const Fn& fn)
{
    const Tiling tiling = chooseTiling(m, c1 - c0, tiles);
    runTiles(tiling.tiles, tiles, [&](std::size_t tile) {
        TileRange range = tiling.rangeOf(tile);
        range.n0 += c0;
        range.n1 += c0;
        fn(range, tileArena(tiling.tiles, tiles, arena));
    });
}

/** Columns per build window when each column needs @p perColumn
 * shared entries: kWindowEntries' worth, at least one, at most @p n. */
std::size_t
windowColumns(std::size_t n, std::size_t perColumn)
{
    return std::min(n, std::max<std::size_t>(
                           1, kWindowEntries /
                                  std::max<std::size_t>(1, perColumn)));
}

/** Calls @p fn(c0, c1) over consecutive windowColumns()-wide column
 * windows of [0, @p n). */
template <typename Fn>
void
forColumnWindows(std::size_t n, std::size_t perColumn, const Fn& fn)
{
    const std::size_t window = windowColumns(n, perColumn);
    for (std::size_t c0 = 0; c0 < n; c0 += window) {
        fn(c0, std::min(n, c0 + window));
    }
}

/** @p entries of fused-slice storage in @p arena's kSlotFused. */
template <typename T>
T*
fusedStore(ExecArena& arena, std::size_t entries)
{
    if constexpr (std::is_same_v<T, std::int32_t>) {
        return arena.i32(kSlotFused, entries);
    } else {
        return arena.f32(kSlotFused, entries);
    }
}

/** A rows-long canonical column buffer for buildFusedSlice(); null when
 * the canonical LUT is materialized. */
template <typename T>
T*
columnScratch(ExecArena& arena, std::size_t rows, bool materialized)
{
    if (materialized) {
        return nullptr;
    }
    if constexpr (std::is_same_v<T, std::int32_t>) {
        return arena.i32(kSlotCol, rows);
    } else {
        return arena.f32(kSlotCol, rows);
    }
}

/**
 * The canonical modes with fused slices, in two phases per column
 * window: (a) one batch canonicalizes the activations and builds the
 * fused slices; (b) one batch sweeps the uncapped tile grid against
 * them.  Each output element keeps its accumulation order, so the
 * result is independent of the tiling.
 */
template <typename T, bool kInt>
void
executeFused(const PreparedGemm& prep, const QuantizedMatrix& a, Mode mode,
             unsigned batch, const ExecOptions& options, ExecArena& arena,
             T* out)
{
    const TileExecutor* tiles = options.tiles;
    const std::size_t m = prep.m, n = a.cols;
    const unsigned p = prep.p, groups = prep.groups;
    const std::size_t instances = static_cast<std::size_t>(groups) * n;
    const CanonicalLut& canon = *prep.canonicalLut;
    const bool materialized = kInt ? canon.dataInt() != nullptr
                                   : canon.dataFloat() != nullptr;

    FusedSlices<T> fused;
    fused.rows = canon.rows();
    fused.groups = groups;
    fused.acts = canonicalActsIn(arena, instances, p);
    fused.permCols = prep.reorderLut != nullptr ? prep.reorderLut->cols()
                                                : factorial(p);
    // Overflow-safe: only multiply once both factors are small.
    const bool smallCombo = canon.cols() <= 4096 && fused.permCols <= 4096;
    const std::uint64_t combos =
        smallCombo ? canon.cols() * fused.permCols : 0;
    fused.perCombo = materialized && smallCombo && combos <= 4096 &&
                     combos * fused.rows <= (std::uint64_t{1} << 22) &&
                     combos <= instances;
    const std::size_t rows = static_cast<std::size_t>(fused.rows);
    // Build tiles of at least ~4k slice entries.
    const std::size_t minSlices = std::max<std::size_t>(1, 4096 / rows);

    auto sweep = [&](std::size_t c0, std::size_t c1) {
        sweepColumns(m, c0, c1, tiles, arena,
                     [&](const TileRange& range, ExecArena& ta) {
                         withWeightIndices(prep, [&](const auto* wIdxT) {
                             fusedSweep<T, kInt>(prep, wIdxT, fused, mode,
                                                 batch, options.simd, n,
                                                 range, ta, out);
                         });
                     });
    };

    if (fused.perCombo) {
        T* store = fusedStore<T>(arena, static_cast<std::size_t>(combos) * rows);
        fused.data = store;
        const Chunking canonChunks = chunkRange(instances, 256, tiles);
        const Chunking comboChunks = chunkRange(combos, minSlices, tiles);
        runTiles(canonChunks.parts + comboChunks.parts, tiles,
                 [&](std::size_t part) {
                     if (part < canonChunks.parts) {
                         canonicalizeActs(a, prep, fused.acts,
                                          canonChunks.begin(part),
                                          canonChunks.end(part));
                         return;
                     }
                     part -= canonChunks.parts;
                     std::uint8_t perm[64];
                     for (std::size_t c = comboChunks.begin(part);
                          c < comboChunks.end(part); ++c) {
                         const auto permRank =
                             static_cast<std::uint32_t>(c % fused.permCols);
                         if (mode == Mode::CanonExplicit) {
                             // The argsort canonicalizeActs() ranks.
                             permutationUnrank(permRank, {perm, p});
                         }
                         buildFusedSlice<T, kInt>(
                             prep, mode, options.simd, c / fused.permCols,
                             permRank, perm, nullptr, store + c * rows);
                     }
                 });
        sweep(0, n);
        return;
    }

    const std::size_t perColumn = static_cast<std::size_t>(groups) * rows;
    T* store = fusedStore<T>(arena, windowColumns(n, perColumn) * perColumn);
    fused.data = store;
    forColumnWindows(n, perColumn, [&](std::size_t c0, std::size_t c1) {
        fused.firstInstance = c0 * groups;
        const Chunking chunks =
            chunkRange((c1 - c0) * groups, minSlices, tiles);
        runTiles(chunks.parts, tiles, [&](std::size_t part) {
            const std::size_t begin = fused.firstInstance + chunks.begin(part);
            const std::size_t end = fused.firstInstance + chunks.end(part);
            canonicalizeActs(a, prep, fused.acts, begin, end);
            T* scratch = columnScratch<T>(
                tileArena(chunks.parts, tiles, arena), rows, materialized);
            for (std::size_t at = begin; at < end; ++at) {
                buildFusedSlice<T, kInt>(
                    prep, mode, options.simd, fused.acts.msRank[at],
                    fused.acts.permRank[at], fused.acts.perm + at * p,
                    scratch, store + (at - fused.firstInstance) * rows);
            }
        });
        sweep(c0, c1);
    });
}

/**
 * The blocked fused sweep (useBlockedSweep() shapes): one interleaved
 * block of groups x rows x kBlockCols slice entries per kBlockCols
 * output columns.  Few blocks — an n = 8 decode GEMM has one — are
 * built together in one batch and swept as a [row range x block] grid
 * in a second.  When the blocks alone feed every hand, each tile builds
 * its own block in its tile arena and sweeps all of the block's rows,
 * so a wide GEMM runs as one batch with at most one block per hand
 * live.
 */
template <typename T, bool kInt>
void
executeBlocked(const PreparedGemm& prep, const QuantizedMatrix& a, Mode mode,
               unsigned batch, const ExecOptions& options, ExecArena& arena,
               T* out)
{
    const TileExecutor* tiles = options.tiles;
    const std::size_t m = prep.m, n = a.cols;
    const unsigned groups = prep.groups;
    const CanonicalLut& canon = *prep.canonicalLut;
    const std::size_t rows = static_cast<std::size_t>(canon.rows());
    const bool materialized = kInt ? canon.dataInt() != nullptr
                                   : canon.dataFloat() != nullptr;
    const bool windows = !kInt && mode == Mode::CanonStream;
    const std::size_t blocks = ceilDiv(n, kBlockCols);
    const std::size_t blockEntries =
        static_cast<std::size_t>(groups) * rows * kBlockCols;

    // Builds slabs [begin, end) — slab u is group u % groups of block
    // u / groups: the block's columns canonicalized and their slices
    // laid into its lanes, padding lanes of a partial block zeroed — at
    // `store` (block `firstBlock` first).  A hand owns whole slabs, so
    // concurrent builds never write one cache line.
    const auto build = [&](T* store, std::size_t firstBlock,
                           std::size_t begin, std::size_t end,
                           ExecArena& ta) {
        T* scratch = columnScratch<T>(ta, rows, materialized);
        std::uint8_t perm[64];
        for (std::size_t u = begin; u < end; ++u) {
            const std::size_t c0 = (u / groups) * kBlockCols;
            const unsigned g = static_cast<unsigned>(u % groups);
            const std::size_t width = std::min(kBlockCols, n - c0);
            T* slab = store + (u - firstBlock * groups) * rows * kBlockCols;
            for (std::size_t lane = 0; lane < width; ++lane) {
                std::uint64_t msRank;
                std::uint32_t permRank;
                canonicalizeInstance(a, prep, c0 + lane, g, msRank,
                                     permRank, perm);
                buildFusedSlice<T, kInt>(prep, mode, options.simd, msRank,
                                         permRank, perm, scratch,
                                         slab + lane, kBlockCols);
            }
            if (width < kBlockCols) {
                for (std::size_t wi = 0; wi < rows; ++wi) {
                    std::fill(slab + wi * kBlockCols + width,
                              slab + (wi + 1) * kBlockCols, T{});
                }
            }
        }
    };
    const auto sweep = [&](const T* block, std::size_t b, std::size_t m0,
                           std::size_t m1, ExecArena& ta) {
        withWeightIndices(prep, [&](const auto* wIdxT) {
            blockedSweep(prep, wIdxT, block, rows, windows, batch,
                         options.simd, n, b * kBlockCols, m0, m1, ta, out);
        });
    };

    const unsigned conc = tiles != nullptr ? tiles->concurrency() : 1;
    const std::size_t target = static_cast<std::size_t>(conc) * 4;
    if (blocks >= target || blocks * blockEntries > kWindowEntries) {
        runTiles(blocks, tiles, [&](std::size_t b) {
            ExecArena& ta = tileArena(blocks, tiles, arena);
            T* store = fusedStore<T>(ta, blockEntries);
            build(store, b, b * groups, (b + 1) * groups, ta);
            sweep(store, b, 0, m, ta);
        });
        return;
    }

    T* store = fusedStore<T>(arena, blocks * blockEntries);
    const Chunking chunks =
        chunkRange(blocks * groups,
                   std::max<std::size_t>(1, 4096 / (rows * kBlockCols)),
                   tiles);
    runTiles(chunks.parts, tiles, [&](std::size_t part) {
        build(store, 0, chunks.begin(part), chunks.end(part),
              tileArena(chunks.parts, tiles, arena));
    });
    // Row tiles of whole strips, >= 16 rows each, enough of them that
    // the grid has about `target` tiles.
    const std::size_t rowTiles =
        conc <= 1 ? 1
                  : std::min(ceilDiv(m, std::size_t{16}),
                             ceilDiv(target, blocks));
    const std::size_t rowChunk =
        ceilDiv(ceilDiv(m, rowTiles), std::size_t{kBlockStrip}) *
        kBlockStrip;
    const std::size_t grid = ceilDiv(m, rowChunk) * blocks;
    runTiles(grid, tiles, [&](std::size_t tile) {
        const std::size_t b = tile % blocks;
        const std::size_t m0 = (tile / blocks) * rowChunk;
        sweep(store + b * blockEntries, b, m0, std::min(m, m0 + rowChunk),
              tileArena(grid, tiles, arena));
    });
}

template <typename T, bool kInt>
void
executeTyped(const GemmProblem& problem, const GemmPlan& plan,
             const ExecOptions& options, std::vector<T>& out)
{
    LOCALUT_REQUIRE(!problem.w.codes.empty() && !problem.a.codes.empty(),
                    "functional execution needs materialized codes");
    std::shared_ptr<const PreparedGemm> owned;
    const PreparedGemm* prep = options.prepared;
    if (prep == nullptr) {
        owned = prepareGemm(problem, plan);
        prep = owned.get();
    } else {
        LOCALUT_REQUIRE(prep->matches(problem, plan),
                        "prepared operand does not match this "
                        "(problem, plan)");
    }
    ExecArena& arena =
        options.arena != nullptr ? *options.arena : ExecArena::threadLocal();
    const std::size_t m = problem.m(), n = problem.n();
    out.resize(m * n);
    T* outData = out.data();
    const Mode mode = modeFor(plan.design, plan.streaming);
    const TileExecutor* tiles = options.tiles;

    switch (mode) {
      case Mode::Naive: {
        sweepColumns(m, 0, n, tiles, arena,
                     [&](const TileRange& range, ExecArena& ta) {
                         if constexpr (kInt) {
                             naiveIntKernel(*prep, problem, n, range, ta,
                                            outData);
                         } else {
                             naiveFloatKernel(*prep, problem, n, range, ta,
                                              outData);
                         }
                     });
        return;
      }
      case Mode::Ltc: {
        if constexpr (!kInt) {
            LOCALUT_PANIC("LTC functional path is integer-only");
        } else {
            // Per column window: (a) build every column's runtime
            // tables once, (b) sweep the tile grid against them.
            const std::size_t perColumn =
                static_cast<std::size_t>(prep->groups) *
                cost::kLtcTableEntries;
            const std::size_t window = windowColumns(n, perColumn);
            std::int32_t* tables = arena.i32(kSlotFused, window * perColumn);
            auto* colSums = reinterpret_cast<std::int64_t*>(
                arena.u64(kSlotColSum, window));
            forColumnWindows(n, perColumn, [&](std::size_t c0,
                                               std::size_t c1) {
                const Chunking chunks = chunkRange(c1 - c0, 1, tiles);
                runTiles(chunks.parts, tiles, [&](std::size_t part) {
                    for (std::size_t c = chunks.begin(part);
                         c < chunks.end(part); ++c) {
                        ltcTables(*prep, problem.a, c0 + c,
                                  tables + c * perColumn, colSums[c]);
                    }
                });
                sweepColumns(m, c0, c1, tiles, arena,
                             [&](const TileRange& range, ExecArena&) {
                                 ltcSweep(*prep, tables, colSums, c0, n,
                                          range, outData);
                             });
            });
        }
        return;
      }
      case Mode::Op: {
        const std::size_t instances =
            static_cast<std::size_t>(prep->groups) * n;
        std::uint64_t* aIdx = arena.u64(kSlotActA, instances);
        const Chunking chunks = chunkRange(instances, 256, tiles);
        runTiles(chunks.parts, tiles, [&](std::size_t part) {
            packActs(problem.a, prep->p, prep->groups, aIdx,
                     chunks.begin(part), chunks.end(part));
        });
        const OperationPackedLut& lut = *prep->opLut;
        const T* table;
        if constexpr (kInt) {
            table = lut.dataInt();
        } else {
            table = lut.dataFloat();
        }
        LOCALUT_REQUIRE(table != nullptr,
                        "operation-packed LUT has no entries for this "
                        "element type");
        sweepColumns(m, 0, n, tiles, arena,
                     [&](const TileRange& range, ExecArena& ta) {
                         withWeightIndices(*prep, [&](const auto* wIdxT) {
                             opKernel<T>(*prep, wIdxT, aIdx, table,
                                         lut.rows(), options.simd, n, range,
                                         ta, outData);
                         });
                     });
        return;
      }
      case Mode::CanonExplicit:
      case Mode::CanonReorder:
      case Mode::CanonStream: {
        const unsigned batch = mode == Mode::CanonStream
                                   ? std::max(1u, prep->kSlices)
                                   : prep->groups;
        const std::uint64_t rows = prep->canonicalLut->rows();
        if (useBlockedSweep(rows, m, prep->groups)) {
            executeBlocked<T, kInt>(*prep, problem.a, mode, batch, options,
                                    arena, outData);
            return;
        }
        if (useFusedSlices(rows, m)) {
            executeFused<T, kInt>(*prep, problem.a, mode, batch, options,
                                  arena, outData);
            return;
        }
        // Direct lookups: canonicalize in parallel, then sweep.
        const std::size_t instances =
            static_cast<std::size_t>(prep->groups) * n;
        const CanonicalActs acts =
            canonicalActsIn(arena, instances, prep->p);
        const Chunking chunks = chunkRange(instances, 256, tiles);
        runTiles(chunks.parts, tiles, [&](std::size_t part) {
            canonicalizeActs(problem.a, *prep, acts, chunks.begin(part),
                             chunks.end(part));
        });
        sweepColumns(m, 0, n, tiles, arena,
                     [&](const TileRange& range, ExecArena&) {
                         withWeightIndices(*prep, [&](const auto* wIdxT) {
                             canonicalDirectKernel<T, kInt>(
                                 *prep, wIdxT, acts, mode, batch, n, range,
                                 outData);
                         });
                     });
        return;
      }
    }
    LOCALUT_PANIC("invalid execution mode");
}

} // namespace

void
executeGemmInt(const GemmProblem& problem, const GemmPlan& plan,
               const ExecOptions& options, std::vector<std::int32_t>& out)
{
    LOCALUT_REQUIRE(problem.config().weightCodec.isInteger() &&
                        problem.config().actCodec.isInteger(),
                    "integer execution on float codecs");
    executeTyped<std::int32_t, true>(problem, plan, options, out);
}

void
executeGemmFloat(const GemmProblem& problem, const GemmPlan& plan,
                 const ExecOptions& options, std::vector<float>& out)
{
    executeTyped<float, false>(problem, plan, options, out);
}

namespace {

template <typename T, bool kInt>
void
executeReferenceTyped(const GemmProblem& problem,
                      const ExecOptions& options, std::vector<T>& out)
{
    LOCALUT_REQUIRE(!problem.w.codes.empty() && !problem.a.codes.empty(),
                    "functional execution needs materialized codes");
    // The reference MAC only needs the decode codebooks, so any
    // preparation of the same problem fits regardless of design point.
    std::shared_ptr<const PreparedGemm> owned;
    const PreparedGemm* prep = options.prepared;
    if (prep == nullptr) {
        GemmPlan plan(DesignPoint::NaivePim, problem.config());
        plan.m = problem.m();
        plan.k = problem.k();
        plan.n = problem.n();
        owned = prepareGemm(problem, plan);
        prep = owned.get();
    } else {
        LOCALUT_REQUIRE(prep->m == problem.m() && prep->k == problem.k() &&
                            prep->config == problem.config(),
                        "prepared operand does not match this problem");
    }
    ExecArena& arena =
        options.arena != nullptr ? *options.arena : ExecArena::threadLocal();
    const std::size_t m = problem.m(), n = problem.n();
    out.resize(m * n);
    T* outData = out.data();
    sweepColumns(m, 0, n, options.tiles, arena,
                 [&](const TileRange& range, ExecArena& ta) {
                     if constexpr (kInt) {
                         naiveIntKernel(*prep, problem, n, range, ta,
                                        outData);
                     } else {
                         naiveFloatKernel(*prep, problem, n, range, ta,
                                          outData);
                     }
                 });
}

} // namespace

void
executeReferenceInt(const GemmProblem& problem, const ExecOptions& options,
                    std::vector<std::int32_t>& out)
{
    LOCALUT_REQUIRE(problem.config().weightCodec.isInteger() &&
                        problem.config().actCodec.isInteger(),
                    "integer execution on float codecs");
    executeReferenceTyped<std::int32_t, true>(problem, options, out);
}

void
executeReferenceFloat(const GemmProblem& problem,
                      const ExecOptions& options, std::vector<float>& out)
{
    executeReferenceTyped<float, false>(problem, options, out);
}

} // namespace localut
