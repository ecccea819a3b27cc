/**
 * @file
 * Property-based test: RingBuffer must behave exactly like std::deque
 * under long random op sequences (push_back / pop_front / clear /
 * indexing / front / back), across growth and wrap-around, for several
 * fixed seeds; emplace_back, filling its slot in place, must do what
 * push_back does. Also checks that serializing a ring and restoring it
 * into a differently-shaped one reproduces the logical contents.
 */

#include <gtest/gtest.h>

#include <deque>

#include "util/ring_buffer.hh"
#include "util/rng.hh"
#include "util/serialize.hh"

namespace hp
{
namespace
{

void
expectMatchesReference(const RingBuffer<std::uint64_t> &ring,
                       const std::deque<std::uint64_t> &ref)
{
    ASSERT_EQ(ring.size(), ref.size());
    ASSERT_EQ(ring.empty(), ref.empty());
    if (ref.empty())
        return;
    EXPECT_EQ(ring.front(), ref.front());
    EXPECT_EQ(ring.back(), ref.back());
    for (std::size_t i = 0; i < ref.size(); ++i)
        ASSERT_EQ(ring[i], ref[i]) << "index " << i;
}

class RingBufferPropertyTest : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(RingBufferPropertyTest, MatchesDequeUnderRandomOps)
{
    Rng rng(GetParam());
    // A tiny initial capacity forces many grow() calls mid-sequence.
    RingBuffer<std::uint64_t> ring(2);
    std::deque<std::uint64_t> ref;

    for (int op = 0; op < 20'000; ++op) {
        const std::uint64_t roll = rng.nextUint(100);
        if (roll < 55) {
            const std::uint64_t v = rng.next();
            ring.push_back(v);
            ref.push_back(v);
        } else if (roll < 95) {
            if (!ref.empty()) {
                EXPECT_EQ(ring.front(), ref.front());
                ring.pop_front();
                ref.pop_front();
            }
        } else {
            ring.clear();
            ref.clear();
        }
        // Cheap invariants every step; full sweep periodically.
        ASSERT_EQ(ring.size(), ref.size());
        if (op % 500 == 0)
            expectMatchesReference(ring, ref);
    }
    expectMatchesReference(ring, ref);
}

TEST_P(RingBufferPropertyTest, EmplaceBackMatchesPushBack)
{
    Rng rng(GetParam() ^ 0x5eed);
    RingBuffer<std::uint64_t> ring(2);
    std::deque<std::uint64_t> ref;

    for (int op = 0; op < 20'000; ++op) {
        const std::uint64_t roll = rng.nextUint(100);
        if (roll < 55) {
            const std::uint64_t v = rng.next();
            std::uint64_t &slot = ring.emplace_back();
            // A fresh slot holds T{}, whatever it held before a pop,
            // a clear or a grow.
            ASSERT_EQ(slot, 0u) << "op " << op;
            slot = v;
            ref.push_back(v);
        } else if (roll < 95) {
            if (!ref.empty()) {
                EXPECT_EQ(ring.front(), ref.front());
                ring.pop_front();
                ref.pop_front();
            }
        } else {
            ring.clear();
            ref.clear();
        }
        ASSERT_EQ(ring.size(), ref.size());
        if (op % 500 == 0)
            expectMatchesReference(ring, ref);
    }
    expectMatchesReference(ring, ref);
}

TEST_P(RingBufferPropertyTest, SerializeRestoresLogicalContents)
{
    Rng rng(GetParam() ^ 0xabcdef);
    RingBuffer<std::uint64_t> ring(4);
    std::deque<std::uint64_t> ref;
    // Random churn so head_ sits at an arbitrary wrap position.
    for (int op = 0; op < 1'000; ++op) {
        if (rng.nextUint(3) != 0 || ref.empty()) {
            const std::uint64_t v = rng.next();
            ring.push_back(v);
            ref.push_back(v);
        } else {
            ring.pop_front();
            ref.pop_front();
        }
    }

    StateWriter writer;
    io(writer, ring);
    const std::vector<std::uint8_t> bytes = writer.take();

    // Restore into a ring with different capacity and stale contents:
    // only the logical contents may survive.
    RingBuffer<std::uint64_t> restored(64);
    for (int i = 0; i < 10; ++i)
        restored.push_back(std::uint64_t(i));
    StateLoader loader(bytes.data(), bytes.size());
    io(loader, restored);
    ASSERT_FALSE(loader.failed());
    EXPECT_EQ(loader.remaining(), 0u);
    expectMatchesReference(restored, ref);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RingBufferPropertyTest,
                         ::testing::Values(1u, 2u, 42u, 0xdeadbeefu));

} // namespace
} // namespace hp
