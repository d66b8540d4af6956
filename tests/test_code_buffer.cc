/**
 * @file
 * CodeBuffer tests: copies share storage, a write through a copy
 * detaches it (copy on write) and leaves the original's bytes and hash
 * memo intact, an in-place write on a sole owner drops the memo, equal
 * content hashes equally across distinct buffers, racing first hashes
 * agree (run under -fsanitize=thread in CI), slices are views that
 * share their parent's storage and per-range memo, and the vector-style
 * API behaves like std::vector.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "kernels/exec_engine.h"
#include "kernels/gemm.h"
#include "quant/code_buffer.h"
#include "quant/quantizer.h"

namespace localut {
namespace {

CodeBuffer
ramp(std::size_t count)
{
    CodeBuffer buffer;
    buffer.resize(count);
    for (std::size_t i = 0; i < count; ++i) {
        buffer[i] = static_cast<std::uint16_t>(i % 13);
    }
    return buffer;
}

TEST(CodeBuffer, CopySharesStorage)
{
    const CodeBuffer original = ramp(64);
    const CodeBuffer copy = original;
    EXPECT_TRUE(copy.sharesStorageWith(original));
    EXPECT_EQ(copy.data(), original.data());
    EXPECT_EQ(copy, original);

    // Copying the matrix (and so the problem) shares the codes too.
    const GemmProblem problem =
        makeRandomProblem(8, 16, 4, QuantConfig::preset("W4A4"), 3);
    const GemmProblem copied = problem;
    EXPECT_TRUE(copied.w.codes.sharesStorageWith(problem.w.codes));
    EXPECT_TRUE(copied.a.codes.sharesStorageWith(problem.a.codes));

    // Empty buffers hold no storage to share.
    EXPECT_FALSE(CodeBuffer().sharesStorageWith(CodeBuffer()));
}

TEST(CodeBuffer, WriteThroughCopyDetachesAndKeepsOriginalMemo)
{
    const CodeBuffer original = ramp(64);
    const std::vector<std::uint16_t> bytes = original;
    const std::uint64_t hash = original.contentHash();
    ASSERT_TRUE(original.fingerprintCached());

    CodeBuffer copy = original;
    EXPECT_TRUE(copy.fingerprintCached()); // the memo is shared
    copy[5] = static_cast<std::uint16_t>(copy[5] ^ 1u);

    EXPECT_FALSE(copy.sharesStorageWith(original));
    EXPECT_EQ(std::vector<std::uint16_t>(original), bytes);
    EXPECT_TRUE(original.fingerprintCached());
    EXPECT_EQ(original.contentHash(), hash);
    EXPECT_FALSE(copy.fingerprintCached());
    EXPECT_NE(copy.contentHash(), hash);
}

TEST(CodeBuffer, InPlaceWriteOnSoleOwnerDropsTheMemo)
{
    CodeBuffer buffer = ramp(64);
    const std::uint64_t before = buffer.contentHash();
    ASSERT_TRUE(buffer.fingerprintCached());
    const std::uint16_t* storage = std::as_const(buffer).data();

    buffer[7] = static_cast<std::uint16_t>(buffer[7] ^ 2u);
    EXPECT_EQ(std::as_const(buffer).data(), storage); // no detach
    EXPECT_FALSE(buffer.fingerprintCached());
    const std::uint64_t after = buffer.contentHash();
    EXPECT_NE(after, before);

    // The recomputed hash is the content's, not a stale one.
    CodeBuffer fresh = ramp(64);
    fresh[7] = static_cast<std::uint16_t>(fresh[7] ^ 2u);
    EXPECT_EQ(fresh.contentHash(), after);

    // So the weight fingerprint follows an in-place write as well.
    GemmProblem problem =
        makeRandomProblem(8, 16, 4, QuantConfig::preset("W4A4"), 5);
    const std::uint64_t fp = weightsFingerprint(problem.w);
    problem.w.codes[3] = static_cast<std::uint16_t>(problem.w.codes[3] ^ 1u);
    EXPECT_NE(weightsFingerprint(problem.w), fp);
}

TEST(CodeBuffer, EqualContentInDistinctBuffersHashesEqually)
{
    const CodeBuffer a = ramp(101); // odd count: exercises the tail
    const CodeBuffer b = ramp(101);
    ASSERT_FALSE(a.sharesStorageWith(b));
    EXPECT_EQ(a.contentHash(), b.contentHash());
    EXPECT_NE(a.contentHash(), ramp(100).contentHash());

    const QuantConfig cfg = QuantConfig::preset("W2A2");
    const GemmProblem p = makeRandomProblem(12, 20, 4, cfg, 9);
    const GemmProblem q = makeRandomProblem(12, 20, 4, cfg, 9);
    ASSERT_FALSE(p.w.codes.sharesStorageWith(q.w.codes));
    EXPECT_EQ(weightsFingerprint(p.w), weightsFingerprint(q.w));
}

TEST(CodeBuffer, RacingFirstHashesAgree)
{
    const CodeBuffer shared = ramp(1 << 16);
    constexpr unsigned kThreads = 8;
    std::vector<std::uint64_t> seen(kThreads);
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        // Half hash through the shared handle, half through own copies.
        CodeBuffer own = shared;
        threads.emplace_back([&, t, own = std::move(own)] {
            while (!go.load()) {
            }
            seen[t] = t % 2 ? own.contentHash() : shared.contentHash();
        });
    }
    go.store(true);
    for (std::thread& thread : threads) {
        thread.join();
    }
    for (unsigned t = 1; t < kThreads; ++t) {
        EXPECT_EQ(seen[t], seen[0]) << "thread " << t;
    }
    EXPECT_TRUE(shared.fingerprintCached());
    EXPECT_EQ(seen[0], ramp(1 << 16).contentHash());
}

TEST(CodeBuffer, FillWhileUniqueThenShare)
{
    // The supported pattern: write through references while the matrix
    // is unique, then copy it; later writes go through the accessor
    // again (never through a reference held across the copy).
    QuantizedMatrix m;
    m.rows = 4;
    m.cols = 8;
    m.codes.resize(m.rows * m.cols);
    for (std::size_t i = 0; i < m.codes.size(); ++i) {
        m.codes[i] = static_cast<std::uint16_t>(i % 3);
    }
    const QuantizedMatrix shared = m;
    ASSERT_TRUE(shared.codes.sharesStorageWith(m.codes));
    EXPECT_EQ(shared.at(3, 7), (3 * 8 + 7) % 3);

    m.codes[0] = 2; // detaches m; `shared` keeps the filled codes
    EXPECT_FALSE(shared.codes.sharesStorageWith(m.codes));
    EXPECT_EQ(shared.at(0, 0), 0);
    EXPECT_EQ(m.at(0, 0), 2);
}

TEST(CodeBuffer, SlicesAreViewsThatShareTheRangeMemo)
{
    const CodeBuffer parent = ramp(96);
    const CodeBuffer first = parent.slice(32, 40);
    EXPECT_TRUE(first.sharesStorageWith(parent));
    EXPECT_EQ(first.data(), parent.data() + 32);
    ASSERT_EQ(first.size(), 40u);
    EXPECT_EQ(first[0], parent[32]);

    const std::uint64_t hash = first.contentHash();
    const CodeBuffer again = parent.slice(32, 40);
    EXPECT_TRUE(again.fingerprintCached()); // no second pass
    EXPECT_EQ(again.contentHash(), hash);
    EXPECT_FALSE(parent.fingerprintCached()); // per-range memo

    // A view equals (and hashes like) an owned copy of its range.
    const std::vector<std::uint16_t> range(parent.begin() + 32,
                                           parent.begin() + 72);
    EXPECT_EQ(first, CodeBuffer(range));
    EXPECT_EQ(CodeBuffer(range).contentHash(), hash);
    EXPECT_EQ(static_cast<const std::vector<std::uint16_t>&>(first),
              range);

    // Writing through a view detaches it; the parent is untouched.
    CodeBuffer view = parent.slice(0, 8);
    view[0] = 12;
    EXPECT_FALSE(view.sharesStorageWith(parent));
    EXPECT_EQ(parent[0], 0);
    EXPECT_EQ(view.size(), 8u);

    EXPECT_TRUE(parent.slice(96, 0).empty());
    EXPECT_THROW((void)parent.slice(90, 7), std::runtime_error);
}

TEST(CodeBuffer, VectorStyleApi)
{
    CodeBuffer buffer;
    EXPECT_TRUE(buffer.empty());
    buffer = {1, 2, 3};
    ASSERT_EQ(buffer.size(), 3u);
    EXPECT_EQ(buffer[2], 3);

    buffer.assign(4, 7);
    EXPECT_EQ(buffer, CodeBuffer({7, 7, 7, 7}));
    buffer.reserve(16);
    const std::vector<std::uint16_t> tail = {8, 9};
    buffer.insert(buffer.end(), tail.begin(), tail.end());
    std::vector<std::uint16_t> seen;
    for (const std::uint16_t code : std::as_const(buffer)) {
        seen.push_back(code);
    }
    EXPECT_EQ(seen, (std::vector<std::uint16_t>{7, 7, 7, 7, 8, 9}));

    const std::vector<std::uint16_t> source = {4, 5, 6};
    buffer.assign(source.begin(), source.end());
    const std::vector<std::uint16_t>& asVector = buffer;
    EXPECT_EQ(asVector, source);
    buffer.resize(5);
    EXPECT_EQ(buffer, CodeBuffer({4, 5, 6, 0, 0}));

    // Resizing a shared buffer detaches it.
    const CodeBuffer shared = buffer;
    buffer.resize(2);
    EXPECT_EQ(shared.size(), 5u);
    EXPECT_EQ(buffer, CodeBuffer({4, 5}));

    buffer = CodeBuffer();
    EXPECT_TRUE(buffer.empty());
}

} // namespace
} // namespace localut
