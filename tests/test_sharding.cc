/**
 * @file
 * Sharded execution layer tests: ShardPlan partitioning (coverage,
 * alignment / head-parallel boundaries, degenerate axes), bit-exact
 * parity of sharded vs unsharded execution for both strategies, the
 * collective cost model (non-negative, monotone, absent at one rank),
 * the sharded InferenceSession path (per-rank queues, deterministic
 * reduction), and the ISSUE acceptance criterion: the fig10 OPT decode
 * workload is faster sharded across 4 ranks than unsharded.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "backend/backend.h"
#include "nn/inference.h"
#include "serving/plan_cache.h"
#include "serving/session.h"
#include "serving/sharding.h"

namespace localut {
namespace {

TEST(ShardPlan, SingleRankIsTheUnshardedPlan)
{
    const BackendPtr backend = makeBackend("upmem");
    const QuantConfig cfg = QuantConfig::preset("W4A4");
    const GemmProblem problem = makeShapeOnlyProblem(96, 64, 8, cfg);

    const ShardPlan plan = makeShardPlan(*backend, problem,
                                         DesignPoint::LoCaLut, ShardSpec{});
    ASSERT_EQ(plan.shards.size(), 1u);
    EXPECT_EQ(plan.shards[0].begin, 0u);
    EXPECT_EQ(plan.shards[0].end, 96u);
    EXPECT_DOUBLE_EQ(plan.collectiveSeconds, 0.0);
    EXPECT_DOUBLE_EQ(plan.collectiveBytes, 0.0);

    // Execution through the shard path is the direct execution.
    const GemmResult sharded =
        executeSharded(*backend, problem, plan, /*computeValues=*/false);
    const GemmResult direct =
        backend->execute(problem, plan.shards[0].plan,
                         /*computeValues=*/false);
    EXPECT_DOUBLE_EQ(sharded.timing.total, direct.timing.total);
    EXPECT_DOUBLE_EQ(sharded.energy.total, direct.energy.total);
}

TEST(ShardPlan, CoversTheAxisWithAlignedBoundaries)
{
    const BackendPtr backend = makeBackend("upmem");
    const QuantConfig cfg = QuantConfig::preset("W1A3");
    // 768 rows, head size 64, 4 ranks: each shard must hold whole heads.
    const GemmProblem problem = makeShapeOnlyProblem(768, 768, 32, cfg);
    ShardSpec spec;
    spec.numRanks = 4;
    spec.align = 64;
    const ShardPlan plan =
        makeShardPlan(*backend, problem, DesignPoint::LoCaLut, spec);

    ASSERT_EQ(plan.shards.size(), 4u);
    std::size_t covered = 0;
    for (const GemmShard& shard : plan.shards) {
        EXPECT_EQ(shard.begin, covered);
        EXPECT_EQ(shard.begin % 64, 0u) << "head split across ranks";
        covered = shard.end;
    }
    EXPECT_EQ(covered, 768u);
    EXPECT_GT(plan.collectiveSeconds, 0.0);
    EXPECT_DOUBLE_EQ(plan.collectiveBytes, 768.0 * 32.0 * 4.0);
}

TEST(ShardPlan, DegenerateAxisProducesFewerShards)
{
    const BackendPtr backend = makeBackend("upmem");
    const QuantConfig cfg = QuantConfig::preset("W1A3");
    // 3 output rows cannot feed 8 ranks.
    const GemmProblem problem = makeShapeOnlyProblem(3, 64, 8, cfg);
    ShardSpec spec;
    spec.numRanks = 8;
    const ShardPlan plan =
        makeShardPlan(*backend, problem, DesignPoint::LoCaLut, spec);
    EXPECT_LE(plan.shards.size(), 3u);
    EXPECT_EQ(plan.shards.back().end, 3u);
}

TEST(ShardPlan, ColumnParallelIsBitExactOnEveryBackend)
{
    const QuantConfig cfg = QuantConfig::preset("W2A2");
    const GemmProblem problem = makeRandomProblem(48, 96, 16, cfg, 7);
    const auto reference = referenceGemmInt(problem.w, problem.a);

    for (const char* name : {"upmem", "bankpim", "host-cpu"}) {
        const BackendPtr backend = makeBackend(name);
        for (unsigned ranks : {2u, 4u, 8u}) {
            ShardSpec spec;
            spec.numRanks = ranks;
            const ShardPlan plan = makeShardPlan(
                *backend, problem, DesignPoint::LoCaLut, spec);
            const GemmResult result =
                executeSharded(*backend, problem, plan);
            EXPECT_EQ(result.outInt, reference)
                << name << " ranks=" << ranks;
        }
    }
}

TEST(ShardPlan, RowParallelReducesBitExactly)
{
    const BackendPtr backend = makeBackend("upmem");
    const QuantConfig cfg = QuantConfig::preset("W4A4");
    const GemmProblem problem = makeRandomProblem(32, 96, 8, cfg, 13);
    const auto reference = referenceGemmInt(problem.w, problem.a);

    ShardSpec spec;
    spec.numRanks = 4;
    spec.strategy = ShardStrategy::RowParallel;
    const ShardPlan plan =
        makeShardPlan(*backend, problem, DesignPoint::LoCaLut, spec);
    ASSERT_EQ(plan.shards.size(), 4u);
    EXPECT_EQ(plan.shards.back().end, 96u); // K axis, not M
    EXPECT_GT(plan.hostReduceOps, 0.0);
    // The prediction includes the host reduce (admission control must
    // not under-estimate RowParallel workloads).
    EXPECT_GT(plan.hostReduceSeconds, 0.0);
    EXPECT_GE(plan.predictedSeconds(),
              plan.collectiveSeconds + plan.hostReduceSeconds);

    const GemmResult result = executeSharded(*backend, problem, plan);
    EXPECT_EQ(result.outInt, reference);
}

TEST(ShardPlan, ContiguousSlicesAreViewsOfTheParent)
{
    const BackendPtr backend = makeBackend("upmem");
    const GemmProblem problem =
        makeRandomProblem(64, 96, 8, QuantConfig::preset("W4A4"), 17);

    ShardSpec spec;
    spec.numRanks = 4;
    const ShardPlan column =
        makeShardPlan(*backend, problem, DesignPoint::LoCaLut, spec);
    ASSERT_EQ(column.shards.size(), 4u);
    for (unsigned s = 0; s < column.shards.size(); ++s) {
        const GemmProblem slice = shardProblem(problem, column, s);
        EXPECT_TRUE(slice.w.codes.sharesStorageWith(problem.w.codes));
        EXPECT_TRUE(slice.a.codes.sharesStorageWith(problem.a.codes));
        EXPECT_EQ(slice.w.at(1, 2),
                  problem.w.at(column.shards[s].begin + 1, 2));
        // Slicing the same parent again reuses the slice's weight hash.
        const std::uint64_t fp = weightsFingerprint(slice.w);
        const GemmProblem again = shardProblem(problem, column, s);
        EXPECT_TRUE(again.w.codes.fingerprintCached());
        EXPECT_EQ(weightsFingerprint(again.w), fp);
    }

    // RowParallel: A rows are a view, W columns are strided (copied).
    spec.strategy = ShardStrategy::RowParallel;
    const ShardPlan row =
        makeShardPlan(*backend, problem, DesignPoint::LoCaLut, spec);
    for (unsigned s = 0; s < row.shards.size(); ++s) {
        const GemmProblem slice = shardProblem(problem, row, s);
        EXPECT_TRUE(slice.a.codes.sharesStorageWith(problem.a.codes));
        EXPECT_FALSE(slice.w.codes.sharesStorageWith(problem.w.codes));
        EXPECT_EQ(slice.w.at(1, 2),
                  problem.w.at(1, row.shards[s].begin + 2));
    }
}

TEST(ShardPlan, RowParallelRejectsFloatConfigs)
{
    const BackendPtr backend = makeBackend("upmem");
    const QuantConfig cfg = QuantConfig::fpPreset(1, 8);
    const GemmProblem problem = makeShapeOnlyProblem(32, 64, 8, cfg);
    ShardSpec spec;
    spec.numRanks = 2;
    spec.strategy = ShardStrategy::RowParallel;
    EXPECT_THROW(
        makeShardPlan(*backend, problem, DesignPoint::LoCaLut, spec),
        std::runtime_error);

    // A single rank needs no summation, so the float restriction does
    // not apply and the functional pass must survive the reduce.
    ShardSpec single = spec;
    single.numRanks = 1;
    const GemmProblem withValues =
        makeRandomProblem(16, 32, 4, cfg, /*seed=*/17);
    const ShardPlan plan = makeShardPlan(*backend, withValues,
                                         DesignPoint::LoCaLut, single);
    const GemmResult result = executeSharded(*backend, withValues, plan);
    EXPECT_EQ(result.outFloat,
              referenceGemmFloat(withValues.w, withValues.a));
}

TEST(ShardPlan, CollectiveCostIsMonotoneInRanks)
{
    const BackendPtr backend = makeBackend("upmem");
    const QuantConfig cfg = QuantConfig::preset("W4A4");
    const GemmProblem problem = makeShapeOnlyProblem(768, 768, 32, cfg);

    double prevSeconds = 0.0;
    double prevBytes = 0.0;
    for (unsigned ranks : {1u, 2u, 4u, 8u}) {
        ShardSpec spec;
        spec.numRanks = ranks;
        const ShardPlan plan =
            makeShardPlan(*backend, problem, DesignPoint::LoCaLut, spec);
        EXPECT_GE(plan.collectiveSeconds, prevSeconds) << ranks;
        EXPECT_GE(plan.collectiveBytes, prevBytes) << ranks;
        EXPECT_GE(plan.collectiveJoules, 0.0) << ranks;
        prevSeconds = plan.collectiveSeconds;
        prevBytes = plan.collectiveBytes;
    }
}

TEST(ShardPlan, RowParallelMovesMoreBytesThanColumnParallel)
{
    const BackendPtr backend = makeBackend("upmem");
    const QuantConfig cfg = QuantConfig::preset("W4A4");
    const GemmProblem problem = makeShapeOnlyProblem(256, 256, 16, cfg);
    ShardSpec col;
    col.numRanks = 4;
    ShardSpec row = col;
    row.strategy = ShardStrategy::RowParallel;
    const ShardPlan colPlan =
        makeShardPlan(*backend, problem, DesignPoint::LoCaLut, col);
    const ShardPlan rowPlan =
        makeShardPlan(*backend, problem, DesignPoint::LoCaLut, row);
    // Row-parallel gathers one full MxN partial per rank.
    EXPECT_DOUBLE_EQ(rowPlan.collectiveBytes, 4.0 * colPlan.collectiveBytes);
}

TEST(HierarchicalShardPlan, SingleNodeHasNoInterNodeShare)
{
    const BackendPtr backend = makeBackend("upmem");
    const QuantConfig cfg = QuantConfig::preset("W4A4");
    const GemmProblem problem = makeShapeOnlyProblem(256, 256, 16, cfg);
    ShardSpec spec;
    spec.numRanks = 4;
    spec.numNodes = 1;
    const ShardPlan plan =
        makeShardPlan(*backend, problem, DesignPoint::LoCaLut, spec);
    EXPECT_DOUBLE_EQ(plan.interNodeBytes, 0.0);
    EXPECT_DOUBLE_EQ(plan.interNodeSeconds, 0.0);
}

TEST(HierarchicalShardPlan, MultiNodeChargesTheInterNodeTier)
{
    const BackendPtr backend = makeBackend("upmem");
    const QuantConfig cfg = QuantConfig::preset("W4A4");
    const GemmProblem problem = makeShapeOnlyProblem(256, 256, 16, cfg);

    // Same flat rank count, one vs two nodes: the 2x2 cut produces the
    // same shard slices as 1x4 but routes node 1's gathered slices over
    // the CXL tier, which is slower and costlier than the host link.
    ShardSpec flat;
    flat.numRanks = 4;
    ShardSpec hier;
    hier.numRanks = 2;
    hier.numNodes = 2;
    const ShardPlan flatPlan =
        makeShardPlan(*backend, problem, DesignPoint::LoCaLut, flat);
    const ShardPlan hierPlan =
        makeShardPlan(*backend, problem, DesignPoint::LoCaLut, hier);
    ASSERT_EQ(hierPlan.shards.size(), flatPlan.shards.size());

    // ColumnParallel: node 1's two shards (half the output) cross.
    EXPECT_DOUBLE_EQ(hierPlan.interNodeBytes, 256.0 * 16.0 * 4.0 / 2.0);
    EXPECT_GT(hierPlan.interNodeSeconds, 0.0);
    EXPECT_DOUBLE_EQ(hierPlan.collectiveBytes, flatPlan.collectiveBytes);
    EXPECT_GT(hierPlan.collectiveSeconds, flatPlan.collectiveSeconds);
    EXPECT_GT(hierPlan.collectiveJoules, flatPlan.collectiveJoules);

    // RowParallel: node 1 forwards exactly one node-reduced MxN partial,
    // and the hierarchical reduce does (local adds) + (1 remote add) =
    // 1 + 1 ops per element instead of the flat 3.
    ShardSpec rowHier = hier;
    rowHier.strategy = ShardStrategy::RowParallel;
    const ShardPlan rowPlan =
        makeShardPlan(*backend, problem, DesignPoint::LoCaLut, rowHier);
    const double outElems = 256.0 * 16.0;
    EXPECT_DOUBLE_EQ(rowPlan.interNodeBytes, outElems * 4.0);
    EXPECT_DOUBLE_EQ(rowPlan.hostReduceOps, 2.0 * outElems);
}

TEST(HierarchicalShardPlan, MultiNodeCutsStayBitExact)
{
    const QuantConfig cfg = QuantConfig::preset("W2A2");
    const GemmProblem problem = makeRandomProblem(64, 64, 8, cfg, 91);
    const auto reference = referenceGemmInt(problem.w, problem.a);

    const BackendPtr backend = makeBackend("upmem");
    for (const ShardStrategy strategy :
         {ShardStrategy::ColumnParallel, ShardStrategy::RowParallel}) {
        for (const unsigned nodes : {1u, 2u}) {
            for (const unsigned ranks : {2u, 4u}) {
                ShardSpec spec;
                spec.numRanks = ranks;
                spec.numNodes = nodes;
                spec.strategy = strategy;
                const ShardPlan plan = makeShardPlan(
                    *backend, problem, DesignPoint::LoCaLut, spec);
                const GemmResult result =
                    executeSharded(*backend, problem, plan);
                EXPECT_EQ(result.outInt, reference)
                    << shardStrategyName(strategy) << " " << nodes << "x"
                    << ranks;
            }
        }
    }
}

TEST(HierarchicalShardPlan, NodeCountIsPartOfThePlanCacheKey)
{
    const BackendPtr backend = makeBackend("upmem");
    const QuantConfig cfg = QuantConfig::preset("W1A3");
    const GemmProblem problem = makeShapeOnlyProblem(128, 64, 8, cfg);
    PlanCache cache;

    ShardSpec spec;
    spec.numRanks = 2;
    spec.numNodes = 1;
    cache.shardPlanFor(*backend, problem, DesignPoint::LoCaLut, spec);
    const auto afterFlat = cache.stats();

    // 2x2 deals the same per-node rank count across two nodes: a
    // different cut (4 shards) and a different key — it must miss.
    spec.numNodes = 2;
    const ShardPlan hier = cache.shardPlanFor(
        *backend, problem, DesignPoint::LoCaLut, spec);
    EXPECT_GT(cache.stats().misses, afterFlat.misses);
    EXPECT_EQ(hier.shards.size(), 4u);
    EXPECT_GT(hier.interNodeBytes, 0.0);
}

TEST(PlanCacheSharding, ShardPlansAreMemoizedSeparately)
{
    const BackendPtr backend = makeBackend("upmem");
    const QuantConfig cfg = QuantConfig::preset("W1A3");
    const GemmProblem problem = makeShapeOnlyProblem(128, 64, 8, cfg);
    PlanCache cache;

    ShardSpec spec;
    spec.numRanks = 4;
    const ShardPlan first = cache.shardPlanFor(
        *backend, problem, DesignPoint::LoCaLut, spec);
    const auto afterFirst = cache.stats();
    // One ShardPlan entry + one sub-plan entry per distinct slice shape.
    EXPECT_GE(afterFirst.entries, 2u);

    const ShardPlan second = cache.shardPlanFor(
        *backend, problem, DesignPoint::LoCaLut, spec);
    EXPECT_EQ(cache.stats().misses, afterFirst.misses);
    EXPECT_GT(cache.stats().hits, afterFirst.hits);
    EXPECT_EQ(second.shards.size(), first.shards.size());

    // A different rank count is a different key.
    ShardSpec other = spec;
    other.numRanks = 2;
    cache.shardPlanFor(*backend, problem, DesignPoint::LoCaLut, other);
    EXPECT_GT(cache.stats().misses, afterFirst.misses);
}

TEST(ShardedSession, GemmRequestsAreBitExactWithUnsharded)
{
    const QuantConfig cfg = QuantConfig::preset("W2A2");
    SessionOptions sharded;
    sharded.numRanks = 4;
    InferenceSession shardedSession(makeBackend("upmem"), sharded);
    InferenceSession plainSession(makeBackend("upmem"));

    std::vector<InferenceSession::RequestId> shardedIds, plainIds;
    std::vector<GemmProblem> problems;
    for (unsigned i = 0; i < 8; ++i) {
        problems.push_back(
            makeRandomProblem(64, 64, 8, cfg, /*seed=*/300 + i));
        shardedIds.push_back(shardedSession.submit(
            problems.back(), DesignPoint::LoCaLut, /*computeValues=*/true));
        plainIds.push_back(plainSession.submit(
            problems.back(), DesignPoint::LoCaLut, /*computeValues=*/true));
    }
    for (unsigned i = 0; i < problems.size(); ++i) {
        const GemmResult viaSharded = shardedSession.wait(shardedIds[i]);
        const GemmResult viaPlain = plainSession.wait(plainIds[i]);
        const auto reference =
            referenceGemmInt(problems[i].w, problems[i].a);
        EXPECT_EQ(viaSharded.outInt, reference) << i;
        EXPECT_EQ(viaPlain.outInt, reference) << i;
        // Sharding always charges the collective hop.
        EXPECT_GT(viaSharded.timing.total, 0.0);
        EXPECT_GT(viaSharded.timing.seconds.get("link.collective"), 0.0);
    }
    EXPECT_EQ(shardedSession.pendingRequests(), 0u);
}

TEST(ShardedSession, MatchesSequentialShardedExecution)
{
    const BackendPtr backend = makeBackend("upmem");
    const QuantConfig cfg = QuantConfig::preset("W1A4");
    const GemmProblem problem = makeRandomProblem(96, 64, 8, cfg, 21);

    SessionOptions options;
    options.numRanks = 4;
    InferenceSession session(backend, options);
    const GemmResult viaSession = session.wait(
        session.submit(problem, DesignPoint::LoCaLut,
                       /*computeValues=*/true));

    ShardSpec spec;
    spec.numRanks = 4;
    const ShardPlan plan =
        makeShardPlan(*backend, problem, DesignPoint::LoCaLut, spec);
    const GemmResult sequential = executeSharded(*backend, problem, plan);

    EXPECT_EQ(viaSession.outInt, sequential.outInt);
    EXPECT_DOUBLE_EQ(viaSession.timing.total, sequential.timing.total);
    EXPECT_DOUBLE_EQ(viaSession.energy.total, sequential.energy.total);
}

TEST(ShardedSession, WorkloadShardsEveryGemmNode)
{
    const TransformerConfig model = TransformerConfig::opt125m();
    const QuantConfig cfg = QuantConfig::preset("W4A4");
    SessionOptions options;
    options.numRanks = 4;
    InferenceSession session(makeBackend("upmem"), options);

    const auto workload = session.compile(
        WorkloadSpec::decode(model, 32, 128, 2), cfg, DesignPoint::LoCaLut);
    EXPECT_TRUE(workload.sharded());
    EXPECT_EQ(workload.shardedNodes.size(), 4u);
    EXPECT_EQ(workload.numRanks, 4u);
    EXPECT_TRUE(workload.nodes.empty());
    EXPECT_GT(workload.predictedGemmSeconds(), 0.0);
    // QKV shards align to the attention head size (head-parallel).
    const ShardPlan& qkv = workload.shardedNodes.front().plan;
    for (const GemmShard& shard : qkv.shards) {
        EXPECT_EQ(shard.begin % model.headDim(), 0u);
    }

    const InferenceReport report = session.waitReport(session.submit(workload));
    EXPECT_GT(report.timing.total, 0.0);
    EXPECT_GT(report.collectiveSeconds, 0.0);
    // The report shares partition the total: the collective is not
    // hidden inside the GEMM share too.
    EXPECT_NEAR(report.gemmSeconds + report.hostOpSeconds +
                    report.collectiveSeconds,
                report.timing.total, report.timing.total * 1e-9);
}

/** The ISSUE acceptance criterion: fig10's OPT decode workload, sharded
 * across 4 ranks, has a lower modeled latency than unsharded. */
TEST(ShardedSession, Fig10OptDecodeFasterAtFourRanks)
{
    const TransformerConfig model = TransformerConfig::opt125m();
    const QuantConfig cfg = QuantConfig::preset("W4A4");
    const WorkloadSpec spec = WorkloadSpec::decode(model, 32, 128, 8);

    InferenceSession plain(makeBackend("upmem"));
    const InferenceReport unsharded =
        plain.waitReport(plain.submit(
            plain.compile(spec, cfg, DesignPoint::LoCaLut)));

    SessionOptions options;
    options.numRanks = 4;
    InferenceSession session(makeBackend("upmem"), options);
    const InferenceReport sharded =
        session.waitReport(session.submit(
            session.compile(spec, cfg, DesignPoint::LoCaLut)));

    EXPECT_LT(sharded.timing.total, unsharded.timing.total);
    EXPECT_GT(sharded.collectiveSeconds, 0.0);
    // The collective is an overhead the unsharded path does not pay, so
    // speedup stays below the 4x hardware scale-out.
    EXPECT_GT(sharded.timing.total, unsharded.timing.total / 4.0);
}

/** The ISSUE acceptance criterion for the hierarchical topology: the
 * fig10 OPT decode workload at 2 nodes x 4 ranks beats 1 node x 4 ranks
 * end-to-end — cold start included (fresh sessions, residency on, so
 * the first request pays every LUT broadcast, with node 1's share
 * crossing the codec-compressed inter-node tier). */
TEST(ShardedSession, Fig10OptDecodeTwoNodesBeatOneNodeCold)
{
    const TransformerConfig model = TransformerConfig::opt125m();
    const QuantConfig cfg = QuantConfig::preset("W4A4");
    const WorkloadSpec spec = WorkloadSpec::decode(model, 32, 128, 8);

    SessionOptions oneNode;
    oneNode.numRanks = 4;
    oneNode.residencyPolicy = ResidencyPolicy::CostAware;
    InferenceSession single(makeBackend("upmem"), oneNode);
    const InferenceReport cold1x4 = single.waitReport(
        single.submit(single.compile(spec, cfg, DesignPoint::LoCaLut)));

    SessionOptions twoNodes = oneNode;
    twoNodes.numNodes = 2;
    InferenceSession dual(makeBackend("upmem"), twoNodes);
    const InferenceReport cold2x4 = dual.waitReport(
        dual.submit(dual.compile(spec, cfg, DesignPoint::LoCaLut)));

    EXPECT_LT(cold2x4.timing.total, cold1x4.timing.total);
    // The win is real scale-out, not accounting: the 2x4 run paid the
    // inter-node tier (collective hop + remote LUT broadcasts) ...
    EXPECT_GT(cold2x4.interNodeSeconds, 0.0);
    const ResidencyStats stats = dual.residencyStats();
    EXPECT_GT(stats.broadcastInterRawBytes, 0.0);
    // ... with the codec shrinking the broadcast bytes that crossed
    // (the >= 2x CI gate on OPT-class sets lives in bench/shard_scaling).
    EXPECT_LT(stats.broadcastInterBytes, stats.broadcastInterRawBytes);
}

/** Bit-exactness of the two-node cut end to end: sharded GEMM requests
 * on a 2x2 session reproduce the unsharded values exactly. */
TEST(ShardedSession, TwoNodeGemmRequestsAreBitExactWithUnsharded)
{
    const QuantConfig cfg = QuantConfig::preset("W2A2");
    SessionOptions options;
    options.numRanks = 2;
    options.numNodes = 2;
    InferenceSession session(makeBackend("upmem"), options);
    EXPECT_EQ(session.totalRanks(), 4u);

    for (unsigned i = 0; i < 4; ++i) {
        const GemmProblem problem =
            makeRandomProblem(64, 64, 8, cfg, /*seed=*/500 + i);
        const GemmResult result = session.wait(session.submit(
            problem, DesignPoint::LoCaLut, /*computeValues=*/true));
        EXPECT_EQ(result.outInt, referenceGemmInt(problem.w, problem.a))
            << i;
        // The inter-node hop is charged and split out of the intra
        // collective share.
        EXPECT_GT(result.timing.seconds.get("link.internode"), 0.0) << i;
    }
}

TEST(ShardedSession, RejectsWorkloadCompiledForOtherRankCount)
{
    const BackendPtr backend = makeBackend("upmem");
    const WorkloadSpec spec =
        WorkloadSpec::prefill(TransformerConfig::bertBase(), 2, 16);
    const QuantConfig cfg = QuantConfig::preset("W1A3");

    InferenceSession plain(backend);
    SessionOptions options;
    options.numRanks = 4;
    InferenceSession sharded(backend, options);

    // A sharded workload on a session with a different rank count must
    // be rejected (its shard cut no longer matches any rank layout).
    const auto shardedWork =
        sharded.compile(spec, cfg, DesignPoint::LoCaLut);
    EXPECT_THROW(plain.run(shardedWork), std::runtime_error);

    // An *unsharded* workload, by contrast, occupies a single rank and
    // is valid on any session of the backend — the data-parallel
    // serving contract the RequestScheduler relies on: it must execute
    // whole and report exactly the single-rank cost.
    const auto unshardedWork =
        plain.compile(spec, cfg, DesignPoint::LoCaLut);
    const InferenceReport onPlain = plain.run(unshardedWork);
    const InferenceReport onSharded = sharded.run(unshardedWork);
    EXPECT_DOUBLE_EQ(onSharded.timing.total, onPlain.timing.total);
    EXPECT_DOUBLE_EQ(onSharded.collectiveSeconds, 0.0);
}

TEST(ShardedSession, ErrorsInShardedRequestsSurfaceAtWait)
{
    SessionOptions options;
    options.numRanks = 4;
    InferenceSession session(makeBackend("bankpim"), options);
    const GemmProblem problem = makeShapeOnlyProblem(
        64, 64, 8, QuantConfig::preset("W1A3"));
    // bankpim cannot plan LTC; the plan stage fails and must surface at
    // wait() without wedging the rank queues.
    const auto bad = session.submit(problem, DesignPoint::Ltc);
    EXPECT_THROW(session.wait(bad), std::runtime_error);

    const auto ok = session.submit(problem, DesignPoint::LoCaLut);
    EXPECT_GT(session.wait(ok).timing.total, 0.0);
}

} // namespace
} // namespace localut
