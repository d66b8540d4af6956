/**
 * @file
 * TilePool / TileBatch contract tests: the tile-executor machinery must
 * survive concurrent run() callers (multiple in-flight batches),
 * nested run() from inside a tile (the historical self-deadlock),
 * throwing closures (deterministic first-error-wins, no lost
 * settlement notify), degenerate batch sizes, and destruction while
 * idle — all TSan-clean (the sanitize CI job runs this suite).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.h"

namespace localut {
namespace {

TEST(TileBatchTest, ClaimChunkCoversRangeExactlyOnce)
{
    // Chunked claiming must still invoke every tile exactly once, for
    // chunk sizes that do and do not divide the range.
    for (std::size_t count : {1u, 2u, 7u, 64u, 129u}) {
        for (std::size_t chunk : {1u, 2u, 3u, 16u, 200u}) {
            std::vector<std::atomic<int>> hits(count);
            for (auto& h : hits) {
                h.store(0);
            }
            std::function<void(std::size_t)> fn = [&](std::size_t i) {
                hits[i].fetch_add(1);
            };
            TileBatch batch;
            batch.fn = &fn;
            batch.count = count;
            batch.claimChunk = chunk;
            EXPECT_TRUE(batch.drain());
            EXPECT_TRUE(batch.settled());
            EXPECT_TRUE(batch.fullyClaimed());
            for (std::size_t i = 0; i < count; ++i) {
                EXPECT_EQ(hits[i].load(), 1) << "tile " << i;
            }
        }
    }
}

TEST(TileBatchTest, ClaimChunkForBalancesLoad)
{
    // Every participant keeps several claims (load balance)...
    EXPECT_EQ(claimChunkFor(256, 4), 16u);
    EXPECT_EQ(claimChunkFor(32, 8), 1u);
    // ...tiny batches claim one tile at a time...
    EXPECT_EQ(claimChunkFor(3, 8), 1u);
    EXPECT_EQ(claimChunkFor(1, 2), 1u);
    // ...and a lone participant takes everything in one claim.
    EXPECT_EQ(claimChunkFor(100, 1), 100u);
    EXPECT_GE(claimChunkFor(0, 1), 1u);
}

TEST(TilePoolTest, RunsEveryTileExactlyOnce)
{
    TilePool pool(4);
    EXPECT_EQ(pool.concurrency(), 4u);
    for (std::size_t tiles : {0u, 1u, 2u, 5u, 64u, 1000u}) {
        std::vector<std::atomic<int>> hits(tiles);
        for (auto& h : hits) {
            h.store(0);
        }
        pool.run(tiles, [&](std::size_t i) { hits[i].fetch_add(1); });
        for (std::size_t i = 0; i < tiles; ++i) {
            EXPECT_EQ(hits[i].load(), 1) << "tiles=" << tiles << " i=" << i;
        }
    }
    EXPECT_EQ(pool.inFlightBatches(), 0u);
}

TEST(TilePoolTest, ZeroWorkerPoolDegradesToSerial)
{
    // TilePool(0) resolves to hardware_concurrency hands, never zero;
    // TilePool(1) is one hand — the caller — so it starts no worker and
    // drains inline (TilePoolOfNRunsOnAtMostNThreads checks the ids).
    TilePool pool(1);
    std::atomic<int> hits{0};
    pool.run(1, [&](std::size_t) { hits.fetch_add(1); });
    EXPECT_EQ(hits.load(), 1);
}

TEST(TilePoolTest, TilePoolOfNRunsOnAtMostNThreads)
{
    // N means N hands, the submitting thread included: one batch never
    // sees more than N distinct threads, and TilePool(1) runs every tile
    // on the caller.  Tiles spin briefly so every worker has time to
    // join the batch.
    for (unsigned hands : {1u, 2u, 3u, 4u}) {
        TilePool pool(hands);
        EXPECT_EQ(pool.concurrency(), hands);
        std::mutex idsMutex;
        std::vector<std::thread::id> ids;
        pool.run(64, [&](std::size_t) {
            const auto until = std::chrono::steady_clock::now() +
                               std::chrono::microseconds(200);
            while (std::chrono::steady_clock::now() < until) {
            }
            std::lock_guard<std::mutex> lock(idsMutex);
            if (std::find(ids.begin(), ids.end(),
                          std::this_thread::get_id()) == ids.end()) {
                ids.push_back(std::this_thread::get_id());
            }
        });
        EXPECT_LE(ids.size(), hands) << "hands=" << hands;
        if (hands == 1) {
            ASSERT_EQ(ids.size(), 1u);
            EXPECT_EQ(ids[0], std::this_thread::get_id());
        }
    }
}

TEST(TilePoolTest, ConcurrentRunCallersDoNotSerializeOrDeadlock)
{
    // Several threads sharing one pool, each submitting many batches:
    // the per-rank-session-queue pattern that used to degrade to
    // lockstep behind a single submit mutex.  Every batch must complete
    // with every tile run exactly once.
    TilePool pool(4);
    constexpr unsigned kSubmitters = 6;
    constexpr unsigned kBatches = 40;
    constexpr std::size_t kTiles = 33;
    std::vector<std::thread> submitters;
    std::vector<std::uint64_t> sums(kSubmitters, 0);
    for (unsigned s = 0; s < kSubmitters; ++s) {
        submitters.emplace_back([&pool, &sums, s] {
            std::uint64_t local = 0;
            for (unsigned b = 0; b < kBatches; ++b) {
                std::vector<std::atomic<std::uint32_t>> hits(kTiles);
                for (auto& h : hits) {
                    h.store(0);
                }
                pool.run(kTiles, [&hits](std::size_t i) {
                    hits[i].fetch_add(1);
                });
                for (std::size_t i = 0; i < kTiles; ++i) {
                    local += hits[i].load();
                }
            }
            sums[s] = local;
        });
    }
    for (std::thread& t : submitters) {
        t.join();
    }
    for (unsigned s = 0; s < kSubmitters; ++s) {
        EXPECT_EQ(sums[s], std::uint64_t{kBatches} * kTiles);
    }
    EXPECT_EQ(pool.inFlightBatches(), 0u);
}

TEST(TilePoolTest, NestedRunOnSamePoolDrainsInline)
{
    // Regression: a tile closure calling run() on the pool it is
    // already draining a tile of used to self-deadlock on the
    // submission state.  It must now drain inline and complete.
    TilePool pool(2);
    std::atomic<int> outer{0};
    std::atomic<int> inner{0};
    pool.run(8, [&](std::size_t) {
        outer.fetch_add(1);
        pool.run(4, [&](std::size_t) { inner.fetch_add(1); });
    });
    EXPECT_EQ(outer.load(), 8);
    EXPECT_EQ(inner.load(), 8 * 4);
}

TEST(TilePoolTest, DeeplyNestedRunStillCompletes)
{
    TilePool pool(2);
    std::atomic<int> leaves{0};
    pool.run(3, [&](std::size_t) {
        pool.run(3, [&](std::size_t) {
            pool.run(2, [&](std::size_t) { leaves.fetch_add(1); });
        });
    });
    EXPECT_EQ(leaves.load(), 3 * 3 * 2);
}

TEST(TilePoolTest, PropagatesSingleClosureException)
{
    TilePool pool(3);
    std::atomic<int> ran{0};
    try {
        pool.run(16, [&](std::size_t i) {
            ran.fetch_add(1);
            if (i == 7) {
                throw std::runtime_error("tile 7 failed");
            }
        });
        FAIL() << "expected the closure exception to propagate";
    } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "tile 7 failed");
    }
    // Every tile still ran (a throwing batch settles fully before the
    // submitter rethrows — no tiles are abandoned).
    EXPECT_EQ(ran.load(), 16);
    // The pool survives: the next batch runs normally.
    std::atomic<int> after{0};
    pool.run(8, [&](std::size_t) { after.fetch_add(1); });
    EXPECT_EQ(after.load(), 8);
}

TEST(TilePoolTest, FirstErrorWinsDeterministicallyWhenAllTilesThrow)
{
    // Concurrent throwers: the surviving exception is the one from the
    // LOWEST tile index, independent of thread interleaving — run many
    // rounds to give racing interleavings a chance to disagree.
    TilePool pool(4);
    for (unsigned round = 0; round < 25; ++round) {
        std::string caught;
        try {
            pool.run(32, [](std::size_t i) {
                throw std::runtime_error("tile " + std::to_string(i));
            });
        } catch (const std::runtime_error& e) {
            caught = e.what();
        }
        EXPECT_EQ(caught, "tile 0") << "round " << round;
    }
}

TEST(TilePoolTest, WorkersReleasedAfterThrowingBatch)
{
    // No notify may be lost on the throw path: after a batch where
    // every tile throws, all workers must be parked and reusable (a
    // lost release historically showed up as the NEXT run() hanging).
    TilePool pool(4);
    for (unsigned round = 0; round < 20; ++round) {
        EXPECT_THROW(pool.run(8,
                              [](std::size_t) {
                                  throw std::logic_error("boom");
                              }),
                     std::logic_error);
        std::atomic<int> ok{0};
        pool.run(12, [&](std::size_t) { ok.fetch_add(1); });
        EXPECT_EQ(ok.load(), 12);
    }
    EXPECT_EQ(pool.inFlightBatches(), 0u);
}

TEST(TilePoolTest, ExceptionInsideNestedRunPropagatesToOuterCaller)
{
    TilePool pool(2);
    EXPECT_THROW(pool.run(4,
                          [&](std::size_t) {
                              pool.run(2, [](std::size_t j) {
                                  if (j == 1) {
                                      throw std::runtime_error("inner");
                                  }
                              });
                          }),
                 std::runtime_error);
}

TEST(TilePoolTest, DestructorDuringIdleJoinsCleanly)
{
    // Construct, maybe run, destruct — including immediately after a
    // batch retires, when workers are mid-transition back to parking.
    for (unsigned round = 0; round < 10; ++round) {
        TilePool pool(3);
        if (round % 2 == 0) {
            std::atomic<int> hits{0};
            pool.run(5, [&](std::size_t) { hits.fetch_add(1); });
            EXPECT_EQ(hits.load(), 5);
        }
    }
}

TEST(TilePoolTest, StressManySmallBatchesAcrossSubmitters)
{
    // Fine-grained batches from racing submitters exercise the claim
    // chunking, the fully-claimed fast-pop, and batch-queue flow under
    // TSan.  Sum of all tile indices must come out exact.
    TilePool pool(3);
    constexpr unsigned kSubmitters = 4;
    constexpr unsigned kRounds = 150;
    std::vector<std::thread> submitters;
    std::vector<std::uint64_t> sums(kSubmitters, 0);
    for (unsigned s = 0; s < kSubmitters; ++s) {
        submitters.emplace_back([&pool, &sums, s] {
            std::uint64_t total = 0;
            for (unsigned r = 0; r < kRounds; ++r) {
                const std::size_t tiles = 1 + (r % 9);
                std::atomic<std::uint64_t> sum{0};
                pool.run(tiles, [&sum](std::size_t i) {
                    sum.fetch_add(i + 1);
                });
                total += sum.load();
            }
            sums[s] = total;
        });
    }
    for (std::thread& t : submitters) {
        t.join();
    }
    std::uint64_t expected = 0;
    for (unsigned r = 0; r < kRounds; ++r) {
        const std::size_t tiles = 1 + (r % 9);
        expected += tiles * (tiles + 1) / 2;
    }
    for (unsigned s = 0; s < kSubmitters; ++s) {
        EXPECT_EQ(sums[s], expected);
    }
}

TEST(TilePoolTest, SerialExecutorRunsInline)
{
    std::vector<std::size_t> order;
    serialTiles().run(5, [&](std::size_t i) { order.push_back(i); });
    const std::vector<std::size_t> expected = {0, 1, 2, 3, 4};
    EXPECT_EQ(order, expected);
    EXPECT_EQ(serialTiles().concurrency(), 1u);
}

} // namespace
} // namespace localut
