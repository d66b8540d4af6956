/**
 * @file
 * The prepared-operand execution engine (kernels/exec_engine.h):
 *
 *  - prepared vs unprepared bit-exactness on every design point, int
 *    and float, serial and tile-parallel;
 *  - the zero-allocation steady state: with a prepared operand, a warm
 *    arena, and a warm output vector, executing a GEMM performs ZERO
 *    heap allocations — asserted with a counting global allocator;
 *  - the tile schedule: a 4-hand executor gets a full sweep grid on the
 *    narrow fused-canonical, LTC and OP shapes, bit-identical to serial;
 *  - the blocked fused sweep (eight activation columns per weight-index
 *    load) bit-identical to the per-column sweep, int and float;
 *  - ExecArena growth semantics, weight fingerprinting, the shared
 *    LUT table cache, and TilePool determinism/exception propagation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <new>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "kernels/exec_engine.h"
#include "kernels/functional.h"
#include "kernels/gemm.h"
#include "lut/table_cache.h"

// ------------------------------------------------- counting allocator
//
// Binary-wide operator new/delete replacement counting this thread's
// allocations.  Only deltas around a measured region are asserted, so
// gtest's own allocations elsewhere are harmless.  Every allocating
// form is replaced, the std::nothrow_t ones included: a form left to the
// runtime (or a sanitizer's interceptor) would hand out memory that the
// replaced delete frees with std::free — an alloc-dealloc mismatch, e.g.
// for std::stable_sort's nothrow-allocated buffer.

namespace {

thread_local std::uint64_t tlsAllocations = 0;

void*
countedAllocOrNull(std::size_t size) noexcept
{
    ++tlsAllocations;
    return std::malloc(size);
}

void*
countedAlignedAllocOrNull(std::size_t size, std::align_val_t align) noexcept
{
    ++tlsAllocations;
    const std::size_t alignment = static_cast<std::size_t>(align);
    const std::size_t rounded = (size + alignment - 1) & ~(alignment - 1);
    return std::aligned_alloc(alignment, rounded);
}

void*
countedAlloc(std::size_t size)
{
    if (void* p = countedAllocOrNull(size)) {
        return p;
    }
    throw std::bad_alloc();
}

void*
countedAlignedAlloc(std::size_t size, std::align_val_t align)
{
    if (void* p = countedAlignedAllocOrNull(size, align)) {
        return p;
    }
    throw std::bad_alloc();
}

} // namespace

void*
operator new(std::size_t size)
{
    return countedAlloc(size);
}

void*
operator new[](std::size_t size)
{
    return countedAlloc(size);
}

void*
operator new(std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, align);
}

void*
operator new[](std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, align);
}

void*
operator new(std::size_t size, const std::nothrow_t&) noexcept
{
    return countedAllocOrNull(size);
}

void*
operator new[](std::size_t size, const std::nothrow_t&) noexcept
{
    return countedAllocOrNull(size);
}

void*
operator new(std::size_t size, std::align_val_t align,
             const std::nothrow_t&) noexcept
{
    return countedAlignedAllocOrNull(size, align);
}

void*
operator new[](std::size_t size, std::align_val_t align,
               const std::nothrow_t&) noexcept
{
    return countedAlignedAllocOrNull(size, align);
}

void
operator delete(void* p) noexcept
{
    std::free(p);
}

void
operator delete[](void* p) noexcept
{
    std::free(p);
}

void
operator delete(void* p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void* p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void* p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void* p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void* p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void* p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void* p, const std::nothrow_t&) noexcept
{
    std::free(p);
}

void
operator delete[](void* p, const std::nothrow_t&) noexcept
{
    std::free(p);
}

void
operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept
{
    std::free(p);
}

void
operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept
{
    std::free(p);
}

namespace localut {
namespace {

GemmPlan
syntheticPlan(const GemmProblem& problem, DesignPoint design, unsigned p,
              bool streaming = false, unsigned kSlices = 1)
{
    GemmPlan plan(design, problem.config());
    plan.m = problem.m();
    plan.k = problem.k();
    plan.n = problem.n();
    plan.p = p;
    plan.streaming = streaming;
    plan.kSlices = kSlices;
    plan.groups = static_cast<unsigned>(
        (plan.k + plan.p - 1) / std::size_t{plan.p});
    return plan;
}

TEST(ExecEngine, PreparedMatchesUnpreparedOnEveryDesignPoint)
{
    const QuantConfig cfg = QuantConfig::preset("W4A4");
    const GemmProblem problem = makeRandomProblem(37, 53, 9, cfg, 7);
    const auto reference = referenceGemmInt(problem.w, problem.a);

    struct Case {
        DesignPoint design;
        unsigned p;
        bool streaming;
        unsigned kSlices;
    };
    const Case cases[] = {
        {DesignPoint::NaivePim, 1, false, 1},
        {DesignPoint::Ltc, 1, false, 1},
        {DesignPoint::OpLut, 2, false, 1},
        {DesignPoint::OpLutDram, 2, false, 1},
        {DesignPoint::OpLc, 2, false, 1},
        {DesignPoint::OpLcRc, 2, false, 1},
        {DesignPoint::LoCaLut, 2, false, 1},
        {DesignPoint::LoCaLut, 2, true, 4},
        {DesignPoint::LoCaLut, 3, true, 2},
    };
    for (const Case& c : cases) {
        SCOPED_TRACE(designPointName(c.design));
        const GemmPlan plan = syntheticPlan(problem, c.design, c.p,
                                            c.streaming, c.kSlices);
        std::vector<std::int32_t> unprepared;
        executeGemmInt(problem, plan, {}, unprepared);
        EXPECT_EQ(unprepared, reference);

        const auto prepared = prepareGemm(problem, plan);
        ExecOptions options;
        options.prepared = prepared.get();
        std::vector<std::int32_t> out;
        executeGemmInt(problem, plan, options, out);
        EXPECT_EQ(out, unprepared);

        // Tile-parallel execution is bit-identical too.
        TilePool pool(3);
        options.tiles = &pool;
        std::vector<std::int32_t> tiled;
        executeGemmInt(problem, plan, options, tiled);
        EXPECT_EQ(tiled, unprepared);
    }
}

TEST(ExecEngine, FloatPathsMatchLegacySemantics)
{
    const QuantConfig cfg = QuantConfig::fpPreset(1, 8);
    const GemmProblem problem = makeRandomProblem(21, 40, 5, cfg, 11);
    const auto reference = referenceGemmFloat(problem.w, problem.a);

    // The naive float path replicates the reference exactly.
    {
        const GemmPlan plan =
            syntheticPlan(problem, DesignPoint::NaivePim, 1);
        std::vector<float> out;
        executeGemmFloat(problem, plan, {}, out);
        EXPECT_EQ(out, reference);
    }
    // Prepared == unprepared bit-for-bit on the LUT float paths
    // (including the batched slice-stream accumulation order).
    for (bool streaming : {false, true}) {
        const GemmPlan plan = syntheticPlan(
            problem, DesignPoint::LoCaLut, 2, streaming, 4);
        std::vector<float> unprepared;
        executeGemmFloat(problem, plan, {}, unprepared);

        const auto prepared = prepareGemm(problem, plan);
        ExecOptions options;
        options.prepared = prepared.get();
        TilePool pool(2);
        options.tiles = &pool;
        std::vector<float> out;
        executeGemmFloat(problem, plan, options, out);
        EXPECT_EQ(out, unprepared);
    }
}

/** Reports 4 hands but runs each batch inline, recording its size. */
class CountingTiles final : public TileExecutor
{
  public:
    unsigned concurrency() const override { return 4; }

    void
    run(std::size_t tiles,
        const std::function<void(std::size_t)>& fn) const override
    {
        batches.push_back(tiles);
        for (std::size_t i = 0; i < tiles; ++i) {
            fn(i);
        }
    }

    mutable std::vector<std::size_t> batches;
};

TEST(ExecEngine, NarrowGemmsGetAFullSweepGridOnFourHands)
{
    // The smoke bench's W4A4 gate shape: p = 2 gives a 256-row LUT, so
    // the fused canonical path used to cap the row cut at one tile and,
    // with the 16-column floor at n = 32, ran 2 tiles on any pool.  The
    // sweep (the last batch) must now get at least one tile per hand,
    // bit-identical to serial execution, on the int and float streaming
    // fused paths, explicit reordering, LTC and OP; the build batch
    // before it (canonicalization, slices, LTC tables, OP activation
    // packing) must be split across hands too.
    const std::size_t m = 512, k = 256, n = 32;
    const GemmEngine engine(PimSystemConfig::upmemServer());
    PlanOverrides overrides;
    overrides.p = 2;

    const GemmProblem intProblem =
        makeRandomProblem(m, k, n, QuantConfig::preset("W4A4"), 42);
    const GemmPlan intPlan =
        engine.plan(intProblem, DesignPoint::LoCaLut, overrides);
    ASSERT_EQ(intPlan.p, 2u);
    const GemmPlan ltcPlan =
        syntheticPlan(intProblem, DesignPoint::Ltc, 1);
    // Explicit reordering builds its per-combo slices from unranked
    // permutations; check it against the reference, not only serial.
    const GemmPlan explicitPlan =
        syntheticPlan(intProblem, DesignPoint::OpLc, 2);
    // OP packs its activation indices in a build batch before the sweep.
    const GemmPlan opPlan = syntheticPlan(intProblem, DesignPoint::OpLut, 2);
    const auto reference = referenceGemmInt(intProblem.w, intProblem.a);
    TilePool pool(4);
    for (const GemmPlan* plan : {&intPlan, &ltcPlan, &explicitPlan,
                                 &opPlan}) {
        SCOPED_TRACE(designPointName(plan->design));
        std::vector<std::int32_t> serial, tiled, pooled;
        executeGemmInt(intProblem, *plan, {}, serial);
        EXPECT_EQ(serial, reference);
        CountingTiles counting;
        ExecOptions options;
        options.tiles = &counting;
        executeGemmInt(intProblem, *plan, options, tiled);
        ASSERT_GE(counting.batches.size(), 2u);
        EXPECT_GE(counting.batches.front(), 4u);
        EXPECT_GE(counting.batches.back(), 4u);
        EXPECT_EQ(tiled, serial);
        options.tiles = &pool;
        executeGemmInt(intProblem, *plan, options, pooled);
        EXPECT_EQ(pooled, serial);
    }

    const GemmProblem floatProblem =
        makeRandomProblem(m, k, n, QuantConfig::fpPreset(1, 8), 42);
    const GemmPlan floatPlan = syntheticPlan(
        floatProblem, DesignPoint::LoCaLut, 2, /*streaming=*/true, 4);
    std::vector<float> serial, tiled;
    executeGemmFloat(floatProblem, floatPlan, {}, serial);
    CountingTiles counting;
    ExecOptions options;
    options.tiles = &counting;
    executeGemmFloat(floatProblem, floatPlan, options, tiled);
    ASSERT_FALSE(counting.batches.empty());
    EXPECT_GE(counting.batches.back(), 4u);
    EXPECT_EQ(tiled, serial);
}

/** Rows [@p r0, @p r1) of @p problem's weights against all of its
 * activations. */
GemmProblem
rowSlice(const GemmProblem& problem, std::size_t r0, std::size_t r1)
{
    GemmProblem slice = problem;
    std::vector<std::uint16_t> codes;
    codes.reserve((r1 - r0) * problem.k());
    for (std::size_t mm = r0; mm < r1; ++mm) {
        for (std::size_t kk = 0; kk < problem.k(); ++kk) {
            codes.push_back(problem.w.at(mm, kk));
        }
    }
    slice.w.rows = r1 - r0;
    slice.w.codes = CodeBuffer(std::move(codes));
    return slice;
}

/** Float outputs as raw bits, so the comparison is bit-exact (NaN and
 * signed zeros included). */
std::vector<std::uint32_t>
bitsOf(const std::vector<float>& values)
{
    std::vector<std::uint32_t> bits(values.size());
    std::memcpy(bits.data(), values.data(), values.size() * sizeof(float));
    return bits;
}

TEST(ExecEngine, BlockedSweepMatchesRowSlicesBelowTheRule)
{
    // The blocked sweep (LUT rows * 8 <= m) against the same problem cut
    // into 64-row slices: each slice falls below the rule and takes the
    // per-column fused sweep.  Every config has a 16-row LUT, so the
    // rule cuts at m = 128; n covers a partial block, one block,
    // several (one batch of shared blocks) and, at n = 130 on 4 hands,
    // a tile per block.  k = 100 gives 100 groups at p = 1 and 50 at
    // p = 2: the slice window of 7 divides neither.
    struct Case {
        const char* name;
        QuantConfig cfg;
        DesignPoint design;
        unsigned p;
        bool streaming;
        unsigned kSlices;
    };
    const QuantConfig w4a4 = QuantConfig::preset("W4A4");
    const QuantConfig w2a2 = QuantConfig::preset("W2A2");
    const QuantConfig fp = QuantConfig::fpPreset(2, 4);
    const Case cases[] = {
        {"int reorder p=1", w4a4, DesignPoint::LoCaLut, 1, false, 1},
        {"int stream", w2a2, DesignPoint::LoCaLut, 2, true, 7},
        {"int reorder", w2a2, DesignPoint::OpLcRc, 2, false, 1},
        {"int explicit", w2a2, DesignPoint::OpLc, 2, false, 1},
        {"float stream", fp, DesignPoint::LoCaLut, 2, true, 7},
        {"float reorder", fp, DesignPoint::OpLcRc, 2, false, 1},
        {"float explicit", fp, DesignPoint::OpLc, 2, false, 1},
    };
    const std::size_t k = 100, sliceRows = 64;
    TilePool pool(4);
    std::uint64_t seed = 500;
    for (const std::size_t m : {120, 128, 136, 768}) {
        for (const std::size_t n : {1, 7, 8, 9, 17, 64, 130}) {
            for (const Case& c : cases) {
                SCOPED_TRACE(std::string(c.name) + " m=" +
                             std::to_string(m) + " n=" + std::to_string(n));
                const GemmProblem problem =
                    makeRandomProblem(m, k, n, c.cfg, ++seed);
                const GemmPlan plan = syntheticPlan(
                    problem, c.design, c.p, c.streaming, c.kSlices);
                const bool isInt = c.cfg.actCodec.isInteger();
                std::vector<std::int32_t> expectInt(m * n), outInt;
                std::vector<float> expectFloat(m * n), outFloat;
                for (std::size_t r0 = 0; r0 < m; r0 += sliceRows) {
                    const std::size_t r1 = std::min(m, r0 + sliceRows);
                    const GemmProblem slice = rowSlice(problem, r0, r1);
                    const GemmPlan slicePlan = syntheticPlan(
                        slice, c.design, c.p, c.streaming, c.kSlices);
                    if (isInt) {
                        executeGemmInt(slice, slicePlan, {}, outInt);
                        std::copy(outInt.begin(), outInt.end(),
                                  expectInt.begin() + r0 * n);
                    } else {
                        executeGemmFloat(slice, slicePlan, {}, outFloat);
                        std::copy(outFloat.begin(), outFloat.end(),
                                  expectFloat.begin() + r0 * n);
                    }
                }
                if (isInt) {
                    EXPECT_EQ(expectInt,
                              referenceGemmInt(problem.w, problem.a));
                }
                for (const unsigned hands : {1u, 4u}) {
                    ExecOptions options;
                    options.tiles = hands > 1 ? &pool : nullptr;
                    if (isInt) {
                        executeGemmInt(problem, plan, options, outInt);
                        EXPECT_EQ(outInt, expectInt) << hands << " hands";
                    } else {
                        executeGemmFloat(problem, plan, options, outFloat);
                        EXPECT_EQ(bitsOf(outFloat), bitsOf(expectFloat))
                            << hands << " hands";
                    }
                }
            }
        }
    }
}

TEST(ExecEngine, SteadyStateExecutionPerformsZeroAllocations)
{
    const QuantConfig cfg = QuantConfig::preset("W4A4");
    // The per-column fused sweep (p = 2: 256 LUT rows > 64 / 8), and the
    // blocked sweep (p = 1: 16 rows x 8 <= 256) over two column blocks.
    const GemmProblem fusedProblem = makeRandomProblem(64, 96, 12, cfg, 3);
    const GemmProblem blockedProblem =
        makeRandomProblem(256, 96, 12, cfg, 4);
    const struct {
        const GemmProblem* problem;
        unsigned p;
    } cases[] = {{&fusedProblem, 2}, {&blockedProblem, 1}};
    for (const auto& c : cases) {
        SCOPED_TRACE("p=" + std::to_string(c.p));
        const GemmProblem& problem = *c.problem;
        const GemmPlan plan =
            syntheticPlan(problem, DesignPoint::LoCaLut, c.p, true, 4);
        const auto prepared = prepareGemm(problem, plan);

        ExecArena arena;
        ExecOptions options;
        options.prepared = prepared.get();
        options.arena = &arena;

        // Warm-up: grows the arena buffers and the output vector.
        std::vector<std::int32_t> out;
        executeGemmInt(problem, plan, options, out);
        const auto reference = out;
        const std::uint64_t grownBuffers = arena.allocations();
        EXPECT_GT(grownBuffers, 0u);

        // Steady state: repeated execution allocates NOTHING — no arena
        // growth and zero operator-new calls on this thread.
        for (int i = 0; i < 3; ++i) {
            const std::uint64_t before = tlsAllocations;
            executeGemmInt(problem, plan, options, out);
            EXPECT_EQ(tlsAllocations - before, 0u) << "iteration " << i;
        }
        EXPECT_EQ(arena.allocations(), grownBuffers);
        EXPECT_EQ(out, reference);
    }
}

TEST(ExecEngine, ArenaBuffersGrowButNeverShrink)
{
    ExecArena arena;
    std::int32_t* big = arena.i32(0, 1000);
    ASSERT_NE(big, nullptr);
    const std::uint64_t allocs = arena.allocations();
    const std::uint64_t reserved = arena.bytesReserved();
    // Smaller and equal requests reuse the buffer.
    EXPECT_EQ(arena.i32(0, 10), big);
    EXPECT_EQ(arena.i32(0, 1000), big);
    EXPECT_EQ(arena.allocations(), allocs);
    EXPECT_EQ(arena.bytesReserved(), reserved);
    // A different slot is a different buffer.
    EXPECT_NE(arena.i32(1, 10), big);
    // Growth allocates once and keeps the larger capacity.
    arena.i32(0, 100000);
    const std::uint64_t grown = arena.allocations();
    arena.i32(0, 50000);
    EXPECT_EQ(arena.allocations(), grown);
}

TEST(ExecEngine, WeightFingerprintSeparatesContent)
{
    const QuantConfig cfg = QuantConfig::preset("W4A4");
    const GemmProblem a = makeRandomProblem(16, 24, 4, cfg, 1);
    const GemmProblem b = makeRandomProblem(16, 24, 4, cfg, 2);
    EXPECT_EQ(weightsFingerprint(a.w), weightsFingerprint(a.w));
    EXPECT_NE(weightsFingerprint(a.w), weightsFingerprint(b.w));

    // One flipped code flips the fingerprint.
    GemmProblem c = a;
    c.w.codes[5] = static_cast<std::uint16_t>(c.w.codes[5] ^ 1u);
    EXPECT_NE(weightsFingerprint(a.w), weightsFingerprint(c.w));
}

TEST(ExecEngine, TableCacheSharesTablesAcrossPreparations)
{
    LutTableCache cache(8);
    const LutShape shape(QuantConfig::preset("W2A2"), 2);
    const auto first = cache.canonicalLut(shape);
    const auto second = cache.canonicalLut(shape);
    EXPECT_EQ(first.get(), second.get());
    const auto stats = cache.stats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.hits, 1u);

    // Eviction keeps the cache bounded; outstanding pointers survive.
    for (unsigned p = 1; p <= 6; ++p) {
        cache.reorderingLut(LutShape(QuantConfig::preset("W1A3"), p));
        cache.opLut(LutShape(QuantConfig::preset("W1A3"), p));
    }
    EXPECT_LE(cache.stats().entries, 8u);
    EXPECT_EQ(first->rows(), shape.weightRows());
}

TEST(TilePool, RunsEveryTileExactlyOnceAndPropagatesExceptions)
{
    TilePool pool(4);
    EXPECT_EQ(pool.concurrency(), 4u);

    std::vector<std::atomic<int>> hits(257);
    pool.run(hits.size(), [&](std::size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < hits.size(); ++i) {
        EXPECT_EQ(hits[i].load(), 1) << i;
    }

    EXPECT_THROW(pool.run(64,
                          [&](std::size_t i) {
                              if (i == 17) {
                                  throw std::runtime_error("tile 17");
                              }
                          }),
                 std::runtime_error);

    // The pool survives an exception and keeps executing batches.
    std::atomic<int> count{0};
    pool.run(100, [&](std::size_t) { ++count; });
    EXPECT_EQ(count.load(), 100);
}

} // namespace
} // namespace localut
